import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from loosehc.colouring import Colouring, is_rainbow
from loosehc.constructions import first_prefix_colouring
from loosehc.cycles import LooseCycle, increasing_path, validate_loose_cycle
from loosehc.hypergraph import (
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    UnmeetableGate,
)
from loosehc.oracles import uniform_random_hamilton_cycle
from loosehc.rng import child_seed, stream
import loosehc.search as search
import loosehc.splitting as splitting
import loosehc.switchbuild as switchbuild
from loosehc.search import find_conflicts, find_rainbow_hamilton_cycle
from loosehc.splitting import CheckReport
from loosehc.switchbuild import sample_switching


def desk_params():
    return Parameters(k=3, j=1, path_len=1, pairs_per_part=1,
                      epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5)


def bounded_random_colouring(g, seed, max_class_size=2):
    """Random colouring with classes of at most the given size."""
    gen = stream(seed, "test-colouring")
    order = list(gen.permutation(len(g.edges)))
    colours = [0] * len(g.edges)
    colour = 0
    for i in range(0, len(order), max_class_size):
        for j in order[i: i + max_class_size]:
            colours[j] = colour
        colour += 1
    return Colouring(g, tuple(colours))


def test_find_conflicts_rainbow_is_empty():
    g = Hypergraph.complete(8, 3)
    cycle = validate_loose_cycle(g, range(8))
    assert find_conflicts(cycle, Colouring.injective(g), 1) == []


def test_find_conflicts_tags_kinds():
    g = Hypergraph.complete(8, 3)
    cycle = validate_loose_cycle(g, range(8))
    assignment = list(range(len(g.edges)))
    idx = {e: i for i, e in enumerate(g.edges)}
    # adjacent pair: consecutive cycle edges share a vertex
    assignment[idx[(2, 3, 4)]] = assignment[idx[(0, 1, 2)]]
    chi = Colouring(g, tuple(assignment))
    found = find_conflicts(cycle, chi, 1)
    assert len(found) == 1 and found[0].kind == "adjacent"

    assignment = list(range(len(g.edges)))
    assignment[idx[(4, 5, 6)]] = assignment[idx[(0, 1, 2)]]
    chi = Colouring(g, tuple(assignment))
    found = find_conflicts(cycle, chi, 1)
    assert len(found) == 1 and found[0].kind == "disjoint"


def test_find_conflicts_starts_the_anchor_where_the_pair_fits():
    # At t = 2 an anchored path covers two consecutive edges.  Positions 0
    # and 1 fit forward from the first edge; positions 0 and 3 of a 4-edge
    # cycle fit only across the wrap, from the second.
    g = Hypergraph.complete(8, 3)
    cycle = validate_loose_cycle(g, range(8))
    idx = {e: i for i, e in enumerate(g.edges)}
    for second, start in ((1, 0), (3, 3)):
        assignment = list(range(len(g.edges)))
        assignment[idx[cycle.edge_sequence[second]]] = assignment[idx[cycle.edge_sequence[0]]]
        found = find_conflicts(cycle, Colouring(g, tuple(assignment)), 2)
        assert len(found) == 1 and found[0].cyclic_distance == 1
        assert found[0].anchor_start == start


def test_search_injective_succeeds_immediately():
    g = Hypergraph.complete(12, 3)
    result = find_rainbow_hamilton_cycle(g, Colouring.injective(g),
                                         desk_params(), seed=1)
    assert result.success and result.steps == 0 and result.restarts == 0


def test_search_prefix_colouring_succeeds():
    chi = first_prefix_colouring(8, 3)
    result = find_rainbow_hamilton_cycle(chi.graph, chi, desk_params(), seed=2)
    assert result.success
    assert is_rainbow(chi, result.cycle.edge_sequence)


def test_search_bounded_colouring_n12():
    g = Hypergraph.complete(12, 3)
    successes = 0
    for seed in range(8):
        chi = bounded_random_colouring(g, seed)
        result = find_rainbow_hamilton_cycle(g, chi, desk_params(),
                                             seed=seed, max_steps=200)
        if result.success:
            successes += 1
            checked = validate_loose_cycle(g, result.cycle.vertices)
            assert isinstance(checked, LooseCycle)
            assert is_rainbow(chi, result.cycle.edge_sequence)
    assert successes >= 7  # recorded benchmark; validity above is the gate


def test_search_supplied_start_cycle():
    g = Hypergraph.complete(12, 3)
    start = uniform_random_hamilton_cycle(g, seed=5)
    chi = bounded_random_colouring(g, 3)
    result = find_rainbow_hamilton_cycle(g, chi, desk_params(), seed=3,
                                         start=start, max_steps=100)
    assert result.success


def test_search_refuses_a_start_cycle_outside_the_host():
    g = Hypergraph.from_edges(12, 3, [e for e in Hypergraph.complete(12, 3).edges
                                      if e != (0, 1, 2)])
    start = LooseCycle(tuple(range(12)), 3)
    with pytest.raises(InvalidInput):
        find_rainbow_hamilton_cycle(g, Colouring.injective(g), desk_params(), seed=0,
                                    start=start)


def test_search_resolves_forced_conflict_by_switching():
    # Force a conflict on the start cycle; at n = 12 the switching geometry
    # exists, so the step should go through an actual switching.
    g = Hypergraph.complete(12, 3)
    start = validate_loose_cycle(g, range(12))
    assert isinstance(start, LooseCycle)
    assignment = list(range(len(g.edges)))
    idx = {e: i for i, e in enumerate(g.edges)}
    assignment[idx[start.edge_sequence[3]]] = assignment[idx[start.edge_sequence[0]]]
    chi = Colouring(g, tuple(assignment))
    result = find_rainbow_hamilton_cycle(g, chi, desk_params(), seed=0,
                                         start=start, max_steps=50)
    assert result.success
    actions = [s["action"] for s in result.log.steps]
    assert actions.count("switch") >= 1
    assert is_rainbow(chi, result.cycle.edge_sequence)


def test_search_passes_its_pipeline_config_to_each_step(monkeypatch):
    # One colour everywhere: every step finds a conflict and asks for a
    # switching, which the stand-in refuses.  Each step gets the module's
    # PIPELINE with that step's child seed.
    g = Hypergraph.complete(12, 3)
    received = []

    def refuse(g, chi, cycle, anchor, params, config):
        received.append(config)
        return None

    monkeypatch.setattr(search, "sample_switching", refuse)
    result = find_rainbow_hamilton_cycle(g, Colouring.constant(g), desk_params(),
                                         seed=1, max_steps=2)
    assert not result.success and result.restarts == 2
    assert [step["reason"] for step in result.log.steps] == ["budget-exhausted"] * 2
    assert [c.seed for c in received] == [child_seed(1, "search-step", s) for s in range(2)]
    assert all(replace(c, seed=search.PIPELINE.seed) == search.PIPELINE for c in received)
    assert search.PIPELINE == PipelineConfig(sample_budget=400, partition_tries=10)


def test_search_restarts_on_an_unmeetable_gate_without_sampling(monkeypatch):
    # n = 54 makes the partition gate strict, and its bound 1.125 at m = 3
    # exceeds the one edge a vertex has into its own part: every step
    # restarts at once and names the gate.
    g = Hypergraph.complete(54, 3)
    calls = []
    monkeypatch.setattr(search, "sample_switching", lambda *args: calls.append(args))
    result = find_rainbow_hamilton_cycle(g, class_colouring(g, 0.05, 1), desk_params(),
                                         seed=1, max_steps=3)
    assert calls == []
    assert result.restarts == 3
    assert [step["reason"] for step in result.log.steps] == ["relative-degree"] * 3


@pytest.mark.parametrize("k", [2, 4])
def test_search_raises_on_parameters_of_another_uniformity(monkeypatch, k):
    # On K24 with colour = edge index mod 40, parameters built for k = 4
    # made the first step raise a bare KeyError.  The search raises the
    # pre-flight's refusal before drawing its first cycle, not a restart.
    g = Hypergraph.complete(24, 3)
    chi = Colouring(g, tuple(i % 40 for i in range(len(g.edges))))
    params = Parameters(k=k, j=1, path_len=1, pairs_per_part=1,
                        epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5)
    draws = []
    monkeypatch.setattr(search, "uniform_random_hamilton_cycle", lambda *a: draws.append(a))
    with pytest.raises(InvalidInput) as err:
        find_rainbow_hamilton_cycle(g, chi, params, seed=1, max_steps=3)
    assert str(err.value) == f"parameters for k = {k} do not fit a 3-uniform host"
    assert not isinstance(err.value, UnmeetableGate)
    assert draws == []


def test_search_names_a_host_below_the_switching_geometry():
    # Three paths of one edge, with a one-edge gap each, need 12 vertices.
    g = Hypergraph.complete(10, 3)
    result = find_rainbow_hamilton_cycle(g, Colouring.constant(g), desk_params(),
                                         seed=1, max_steps=2)
    assert [step["reason"] for step in result.log.steps] == ["host-too-small"] * 2


def class_colouring(g, mu, seed):
    """Edges in seeded random order, cut into classes of ceil(mu * n^2)."""
    size = math.ceil(mu * g.n ** 2)
    colours = np.empty(len(g.edges), dtype=np.int64)
    colours[np.random.default_rng(seed).permutation(len(g.edges))] = (
        np.arange(len(g.edges)) // size
    )
    return Colouring(g, tuple(colours.tolist()))


# Seeded outputs of whole searches (n = 12 ones that restart on a stall
# included).  They pin every draw of a search step: a speed-up that leaves
# the draws as they are leaves these outputs as they are, and a change that
# moves a draw must re-derive them and say why.
PINNED_SEARCHES = {
    (12, 1): ((0, 5, 11, 1, 9, 4, 8, 2, 10, 3, 7, 6), 52, 1),
    (12, 6): ((0, 5, 1, 6, 3, 9, 11, 10, 7, 2, 8, 4), 1, 0),
    (12, 9): ((0, 5, 9, 8, 2, 4, 6, 3, 1, 10, 11, 7), 51, 1),
    (24, 1): ((5, 0, 13, 18, 9, 2, 12, 10, 19, 8, 16, 17, 1, 20, 3, 15, 11, 6, 7, 4, 23,
               21, 14, 22), 22, 0),
    (24, 6): ((0, 11, 21, 7, 9, 2, 19, 4, 12, 16, 1, 18, 20, 22, 15, 23, 3, 6, 8, 10, 14,
               5, 17, 13), 5, 0),
    (24, 9): ((1, 0, 10, 6, 4, 18, 19, 7, 20, 3, 16, 17, 23, 2, 21, 5, 9, 12, 15, 13, 8,
               11, 14, 22), 3, 0),
}


def test_seeded_searches_are_pinned():
    params = replace(desk_params(), mu=0.1)
    for (n, seed), expected in PINNED_SEARCHES.items():
        g = Hypergraph.complete(n, 3)
        result = find_rainbow_hamilton_cycle(g, class_colouring(g, 0.1, seed), params, seed=seed)
        assert (result.cycle.vertices, result.steps, result.restarts) == expected, (n, seed)


def test_seeded_switching_is_pinned():
    g = Hypergraph.complete(24, 3)
    host = uniform_random_hamilton_cycle(g, 7)
    anchor = increasing_path(host, host.edge_sequence[0], 1)
    built = sample_switching(g, class_colouring(g, 0.1, 7), host, anchor,
                             replace(desk_params(), mu=0.1),
                             PipelineConfig(seed=7, sample_budget=400, partition_tries=10))
    assert host.vertices == (0, 9, 17, 4, 19, 6, 3, 20, 1, 13, 15, 22, 18, 7, 2, 12, 5, 11,
                             10, 23, 16, 8, 21, 14)
    assert built.switching.new_cycle.vertices == (0, 11, 2, 12, 5, 7, 17, 4, 19, 6, 3, 20,
                                                  1, 13, 15, 22, 18, 9, 10, 23, 16, 8, 21, 14)


def n24_search_inputs():
    g = Hypergraph.complete(24, 3)
    return g, class_colouring(g, 0.1, 6), replace(desk_params(), mu=0.1)


def test_search_checks_each_switch_step_once(monkeypatch):
    # The builder's is_switching and is_feasible reports are the search's
    # checks; nothing runs them a second time on the same switching.
    calls = Counter()
    for name in ("is_switching", "is_feasible"):
        def counted(*args, _real=getattr(splitting, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (splitting, switchbuild, search):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    g, chi, params = n24_search_inputs()
    result = find_rainbow_hamilton_cycle(g, chi, params, seed=6)
    switches = sum(1 for step in result.log.steps if step["action"] == "switch")
    assert result.success and switches == 5
    assert calls == {"is_switching": switches, "is_feasible": switches}


@pytest.mark.parametrize("report, message", [
    ("switching_report", "non-switching"),
    ("feasibility", "infeasible switching"),
])
def test_search_asserts_the_builders_reports(monkeypatch, report, message):
    def spoiled(*args):
        built = sample_switching(*args)
        failed = CheckReport(False, {"stub": False})
        return None if built is None else replace(built, **{report: failed})

    monkeypatch.setattr(search, "sample_switching", spoiled)
    g, chi, params = n24_search_inputs()
    with pytest.raises(AssertionError, match=message):
        find_rainbow_hamilton_cycle(g, chi, params, seed=6)


def few_colours(g):
    """Edges in order, cut into classes of 44: K12 gets 5 colours for its
    6-edge cycles and K10 3 for its 5-edge ones, so no cycle is rainbow."""
    return Colouring(g, tuple(i // 44 for i in range(len(g.edges))))


@pytest.mark.parametrize("n, action", [(12, "switch"), (10, "restart")])
def test_search_scans_each_cycle_it_holds_once(monkeypatch, n, action):
    scanned = []

    def counted(cycle, chi, path_len):
        scanned.append(cycle)
        return find_conflicts(cycle, chi, path_len)

    monkeypatch.setattr(search, "find_conflicts", counted)
    g = Hypergraph.complete(n, 3)
    result = find_rainbow_hamilton_cycle(g, few_colours(g), desk_params(), seed=0, max_steps=3)
    assert not result.success
    assert [step["action"] for step in result.log.steps] == [action] * 3
    # The start cycle and the one after each step, the returned one last.
    assert len(scanned) == 4 and len({id(c) for c in scanned}) == 4
    assert scanned[-1] is result.cycle


def test_a_search_whose_last_step_lands_on_a_rainbow_cycle_succeeds():
    # The second switch is the last step allowed, and its cycle is rainbow.
    g = Hypergraph.complete(12, 3)
    chi = class_colouring(g, 0.1, 25)
    params = replace(desk_params(), mu=0.1)
    result = find_rainbow_hamilton_cycle(g, chi, params, seed=25, max_steps=2)
    assert result.success and result.steps == 2 and result.conflicts == 0
    assert [step["action"] for step in result.log.steps] == ["switch", "switch", "done"]
    assert result.log.steps[-2]["after"] == 0
    assert is_rainbow(chi, result.cycle.edge_sequence)
    shorter = find_rainbow_hamilton_cycle(g, chi, params, seed=25, max_steps=1)
    assert not shorter.success
    assert shorter.conflicts == len(find_conflicts(shorter.cycle, chi, 1)) > 0


def runs_without_a_low(steps):
    """For each stretch between (re)starts, the switch steps since the last
    new low in the conflict count, as each switch entry leaves it."""
    runs, low, run = [], None, 0
    for entry in steps:
        if entry["action"] == "restart":
            low, run = None, 0
        elif entry["action"] == "switch":
            low = entry["conflicts"] if low is None else low
            low, run = (entry["after"], 0) if entry["after"] < low else (low, run + 1)
        runs.append(run)
    return runs


@pytest.mark.parametrize("chi_for, seed, max_steps", [
    (few_colours, 0, 300),
    (lambda g: class_colouring(g, 0.1, 1), 1, 500),
], ids=["no-rainbow-cycle", "formerly-500-steps"])
def test_no_run_of_switch_steps_outlasts_the_stall_limit(chi_for, seed, max_steps):
    # few_colours leaves K12 no rainbow cycle, so that search stalls again
    # and again.  The other search sits at one conflict until a stall
    # redraws its cycle, and then succeeds.
    g = Hypergraph.complete(12, 3)
    chi = chi_for(g)
    result = find_rainbow_hamilton_cycle(
        g, chi, replace(desk_params(), mu=0.1), seed=seed, max_steps=max_steps
    )
    steps = result.log.steps
    runs = runs_without_a_low(steps)
    assert max(runs) == search.STALL_STEPS
    for i, entry in enumerate(steps):
        if entry.get("reason") == "stalled":
            assert runs[i - 1] == search.STALL_STEPS
    stalls = sum(1 for entry in steps if entry.get("reason") == "stalled")
    assert stalls == result.restarts >= 1
    assert result.success == (chi_for is not few_colours)
    assert result.conflicts == len(find_conflicts(result.cycle, chi, 1))
