import math
from collections import Counter
from dataclasses import replace
from itertools import islice

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
from loosehc.sampler import distinct_exact_splittings, sample_splitting
import loosehc.sampler as sampler
import loosehc.search as search
import loosehc.splitting as splitting
import loosehc.switchbuild as switchbuild
from loosehc.search import Conflict, find_conflicts, find_rainbow_hamilton_cycle
from loosehc.splitting import CheckReport
from loosehc.switchbuild import build_switching, forced_rewiring, sample_switching


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
    # No cycle is rainbow: every step finds a conflict and asks for the
    # switchings of its draws, which the stand-in refuses, so each step
    # runs out of draws.  Each build gets the module's PIPELINE with that
    # step's child seed, and an anchor's one K12 splitting, the draw
    # sample_splitting makes too.
    g = Hypergraph.complete(12, 3)
    received = []

    def refuse(g, chi, sample, params, config, trial):
        received.append((config, trial, sample))
        return None

    monkeypatch.setattr(search, "build_switching", refuse)
    result = find_rainbow_hamilton_cycle(g, no_rainbow_cycle(g), desk_params(),
                                         seed=1, max_steps=2)
    assert not result.success and result.restarts == 2
    assert [step["reason"] for step in result.log.steps] == ["budget-exhausted"] * 2
    seeds = [c.seed for c, _, _ in received]
    assert list(dict.fromkeys(seeds)) == [child_seed(1, "search-step", s) for s in range(2)]
    assert all(replace(c, seed=search.PIPELINE.seed) == search.PIPELINE for c, _, _ in received)
    for config, trial, sample in received:
        assert sample == sample_splitting(sample.cycle, sample.anchor, 3, 1, config.seed, trial,
                                          exact_size=True)
    assert search.PIPELINE == PipelineConfig(sample_budget=400)


def test_search_restarts_on_an_unmeetable_gate_without_sampling(monkeypatch):
    # n = 54 makes the partition gate strict, and its bound 1.125 at m = 3
    # exceeds the one edge a vertex has into its own part: every step
    # restarts at once and names the gate.
    g = Hypergraph.complete(54, 3)
    calls = []
    for name in ("sample_splitting", "distinct_exact_splittings", "build_switching"):
        monkeypatch.setattr(search, name, lambda *args, **kwargs: calls.append(args))
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
    result = find_rainbow_hamilton_cycle(g, no_rainbow_cycle(g), desk_params(),
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
    (24, 1): ((12, 0, 13, 8, 3, 22, 5, 6, 16, 15, 11, 4, 19, 20, 14, 17, 23, 18, 7, 2, 9,
               21, 1, 10), 1, 0),
    (24, 6): ((0, 4, 15, 10, 9, 13, 3, 16, 17, 7, 19, 2, 1, 18, 20, 5, 21, 11, 8, 6, 14, 22,
               12, 23), 2, 0),
    (24, 9): ((15, 0, 16, 6, 1, 7, 4, 18, 19, 3, 8, 11, 14, 13, 10, 22, 23, 2, 21, 5, 9, 12,
               20, 17), 1, 0),
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
                             PipelineConfig(seed=7, sample_budget=400))
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
    assert result.success and switches == 2
    assert calls == {"is_switching": switches, "is_feasible": switches}


@pytest.mark.parametrize("report, message", [
    ("switching_report", "non-switching"),
    ("feasibility", "infeasible switching"),
])
def test_search_asserts_the_builders_reports(monkeypatch, report, message):
    def spoiled(*args):
        built = build_switching(*args)
        failed = CheckReport(False, {"stub": False})
        return None if built is None else replace(built, **{report: failed})

    monkeypatch.setattr(search, "build_switching", spoiled)
    g, chi, params = n24_search_inputs()
    with pytest.raises(AssertionError, match=message):
        find_rainbow_hamilton_cycle(g, chi, params, seed=6)


def few_colours(g):
    """Edges in order, cut into classes of 44: K12 gets 5 colours for its
    6-edge cycles and K10 3 for its 5-edge ones, so no cycle is rainbow."""
    return Colouring(g, tuple(i // 44 for i in range(len(g.edges))))


def no_rainbow_cycle(g):
    """Colour 0 on every edge that meets {0, 1, 2, 3}, and a colour of its
    own on every other edge.  A loose Hamilton cycle needs two edges to
    cover four vertices, so none is rainbow, yet the colours outnumber a
    cycle's edges and the colour count proves nothing."""
    return Colouring(g, [0 if e[0] < 4 else i + 1 for i, e in enumerate(g.edges)])


@pytest.mark.parametrize("n, k, chi_for", [
    (12, 3, few_colours),
    (12, 5, lambda g: Colouring(g, [i % 2 for i in range(len(g.edges))])),
    (16, 5, lambda g: Colouring(g, [i % 3 for i in range(len(g.edges))])),
], ids=["k3-5-colours", "k5-n12-2-colours", "k5-n16-3-colours"])
def test_search_answers_absent_when_the_colours_run_out(monkeypatch, n, k, chi_for):
    # A rainbow cycle has n/(k-1) edges of distinct colours, so fewer
    # colours prove there is none: the search draws its start cycle, logs
    # the proof and returns before its first switch step.
    g = Hypergraph.complete(n, k)
    chi = chi_for(g)
    params = replace(desk_params(), k=k)
    calls = []
    for name in ("sample_splitting", "distinct_exact_splittings", "build_switching"):
        monkeypatch.setattr(search, name, lambda *args, **kwargs: calls.append(args))
    result = find_rainbow_hamilton_cycle(g, chi, params, seed=3, max_steps=500)
    assert calls == []
    assert result.absent and not result.success
    assert (result.steps, result.restarts) == (0, 0)
    assert result.cycle == uniform_random_hamilton_cycle(g, child_seed(3, "search-start"))
    assert result.conflicts == len(find_conflicts(result.cycle, chi, 1)) > 0
    assert result.log.steps == [
        {"step": 0, "action": "absent", "proof": "colour-count", "conflicts": result.conflicts}
    ]


def test_as_many_colours_as_cycle_edges_prove_nothing():
    # Six colours for K12's 6-edge cycles: the search runs its steps.
    g = Hypergraph.complete(12, 3)
    chi = Colouring(g, [i // 37 for i in range(len(g.edges))])
    assert len(chi.class_sizes) == 6
    result = find_rainbow_hamilton_cycle(g, chi, desk_params(), seed=0, max_steps=3)
    assert not result.absent
    assert result.steps == 3 or result.success


@pytest.mark.parametrize("n, action", [(12, "switch"), (10, "restart")])
def test_search_scans_each_cycle_it_holds_once(monkeypatch, n, action):
    scanned = []

    def counted(cycle, chi, path_len):
        scanned.append(cycle)
        return find_conflicts(cycle, chi, path_len)

    monkeypatch.setattr(search, "find_conflicts", counted)
    g = Hypergraph.complete(n, 3)
    result = find_rainbow_hamilton_cycle(g, no_rainbow_cycle(g), desk_params(), seed=0,
                                         max_steps=3)
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
    (no_rainbow_cycle, 0, 300),
    (lambda g: class_colouring(g, 0.1, 1), 1, 500),
], ids=["no-rainbow-cycle", "formerly-500-steps"])
def test_no_run_of_switch_steps_outlasts_the_stall_limit(chi_for, seed, max_steps):
    # no_rainbow_cycle leaves K12 no rainbow cycle, so that search stalls again
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
    assert result.success == (chi_for is not no_rainbow_cycle)
    assert result.conflicts == len(find_conflicts(result.cycle, chi, 1))


def switch_entries(result):
    return [entry for entry in result.log.steps if entry["action"] == "switch"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_held_conflict_count_never_rises_between_restarts(seed):
    # K12 has no rainbow cycle under no_rainbow_cycle, so most switchings
    # would add conflicts: the search rejects them and holds its cycle.
    g = Hypergraph.complete(12, 3)
    result = find_rainbow_hamilton_cycle(g, no_rainbow_cycle(g), replace(desk_params(), mu=0.1),
                                         seed=seed, max_steps=120)
    held = []  # the counts held since the last (re)start
    for entry in result.log.steps:
        if entry["action"] == "restart":
            held = []
        elif entry["action"] == "switch":
            assert entry["kept"] == (entry["after"] <= entry["conflicts"])
            if held:
                assert entry["conflicts"] == held[-1]
            held.append(entry["after"] if entry["kept"] else entry["conflicts"])
            assert held == sorted(held, reverse=True)
    assert result.conflicts == held[-1]
    assert any(not entry["kept"] for entry in switch_entries(result))


def rejecting_search_inputs():
    """K12 has one splitting per anchor, and under no_rainbow_cycle its
    switching often adds conflicts, so a step's every draw can be worse."""
    g = Hypergraph.complete(12, 3)
    return g, no_rainbow_cycle(g), desk_params()


def test_a_rejected_switching_leaves_the_next_step_on_the_same_cycle(monkeypatch):
    calls = []  # (cycle the step starts from, cycle it built, trial it built)

    def recorded(g, chi, sample, params, config, trial):
        built = build_switching(g, chi, sample, params, config, trial)
        calls.append((sample.cycle, built.switching.new_cycle, trial))
        return built

    monkeypatch.setattr(search, "build_switching", recorded)
    g, chi, params = rejecting_search_inputs()
    result = find_rainbow_hamilton_cycle(g, chi, params, seed=3, max_steps=12)
    entries = switch_entries(result)
    assert not result.success and result.restarts == 0 and len(entries) == len(calls) == 12
    assert [entry["kept"] for entry in entries] == [
        False, False, False, True, False, True, True, False, False, True, False, True
    ]
    assert [entry["trial"] for entry in entries] == [trial for _, _, trial in calls]
    for i in range(len(entries) - 1):
        held = calls[i][1] if entries[i]["kept"] else calls[i][0]
        assert calls[i + 1][0] == held
        if not entries[i]["kept"]:
            assert entries[i + 1]["conflicts"] == entries[i]["conflicts"]
    assert result.cycle == calls[-1][1]


def test_the_target_conflict_is_a_seeded_draw():
    g, chi, params = n24_search_inputs()
    targets = {}
    for seed in range(3):
        result = find_rainbow_hamilton_cycle(g, chi, params, seed=seed)
        entries = switch_entries(result)
        for entry in entries:
            draw = child_seed(seed, "search-target", entry["step"])
            assert entry["target"] == draw % entry["conflicts"]
        targets[seed] = [entry["target"] for entry in entries]
        again = find_rainbow_hamilton_cycle(g, chi, params, seed=seed)
        assert [entry["target"] for entry in switch_entries(again)] == targets[seed]
    assert any(t != 0 for seed_targets in targets.values() for t in seed_targets)


@pytest.mark.parametrize("spoil, message", [
    ("switching_report", "non-switching"),
    ("feasibility", "infeasible switching"),
    ("off-anchor", "never add conflicts off the anchor"),
])
def test_a_rejected_switching_is_still_checked(monkeypatch, spoil, message):
    # Only switchings that the search would reject are spoiled: either a
    # builder report fails, or their cycle reads extra conflicts that avoid
    # the anchor.  Each check must still fire.
    inflated = set()

    def spoiled(g, chi, sample, params, config, trial):
        built = build_switching(g, chi, sample, params, config, trial)
        new, cycle = built.switching.new_cycle, sample.cycle
        if len(find_conflicts(new, chi, 1)) <= len(find_conflicts(cycle, chi, 1)):
            return built
        if spoil == "off-anchor":
            inflated.add(id(new))
            return built
        return replace(built, **{spoil: CheckReport(False, {"stub": False})})

    def inflating(cycle, chi, path_len):
        found = find_conflicts(cycle, chi, path_len)
        extra = Conflict(-1, (), (), "disjoint", 0, 0)  # avoids every anchor
        return found + [extra] * len(cycle.edge_sequence) if id(cycle) in inflated else found

    monkeypatch.setattr(search, "build_switching", spoiled)
    monkeypatch.setattr(search, "find_conflicts", inflating)
    g, chi, params = rejecting_search_inputs()
    with pytest.raises(AssertionError, match=message):
        find_rainbow_hamilton_cycle(g, chi, params, seed=3, max_steps=12)


def test_a_wrong_forced_rewiring_is_caught_by_the_prediction(monkeypatch):
    # A formula that predicts no change (each draw keeps its own edges)
    # scores every draw at the held count; the first switching built under
    # it adds conflicts, and the search's assert names the prediction.
    monkeypatch.setattr(search, "forced_rewiring",
                        lambda sample, params: [p.edges[0] for p in sample.all_paths])
    g, chi, params = rejecting_search_inputs()
    with pytest.raises(AssertionError, match="the forced rewiring predicted 10 conflicts"):
        find_rainbow_hamilton_cycle(g, chi, params, seed=3, max_steps=12)


def test_a_draw_whose_forced_edge_is_not_a_host_edge_is_never_built(monkeypatch):
    # K24 keeps about 60% of its edges (the start cycle's included), so
    # most draws would add a non-edge.  They are skipped before any build,
    # and every step still asserts its prediction.
    full = Hypergraph.complete(24, 3)
    start = uniform_random_hamilton_cycle(full, 0)
    keep = stream(0, "test-host").random(len(full.edges)) < 0.6
    g = Hypergraph.from_edges(24, 3, [
        e for e, kept in zip(full.edges, keep) if kept or e in start.edge_position
    ])
    params = replace(desk_params(), mu=0.1)
    drawn, built = [], []

    def drawing(*args):
        for trial, sample in distinct_exact_splittings(*args):
            drawn.append(forced_rewiring(sample, params))
            yield trial, sample

    def building(g, chi, sample, params, config, trial):
        built.append(forced_rewiring(sample, params))
        return build_switching(g, chi, sample, params, config, trial)

    monkeypatch.setattr(search, "distinct_exact_splittings", drawing)
    monkeypatch.setattr(search, "build_switching", building)
    result = find_rainbow_hamilton_cycle(g, class_colouring(g, 0.1, 0), params, seed=0,
                                         start=start, max_steps=20)
    assert result.restarts == 0 and len(switch_entries(result)) == result.steps > 0
    assert len(built) == result.steps
    assert all(all(map(g.contains, edges)) for edges in built)
    assert any(not all(map(g.contains, edges)) for edges in drawn)


def test_a_k12_step_scores_its_one_splitting_from_one_stream(monkeypatch):
    # A K12 anchor has C(6 - 4, 2) = 1 splitting: each step draws it once,
    # from its window's one stream, scores it and builds it.
    keys = []
    real_stream = sampler.stream
    monkeypatch.setattr(sampler, "stream", lambda *key: keys.append(key) or real_stream(*key))
    g, chi, params = rejecting_search_inputs()
    result = find_rainbow_hamilton_cycle(g, chi, params, seed=3, max_steps=12)
    entries = switch_entries(result)
    assert len(entries) == result.steps == 12
    assert all((entry["trial"], entry["scored"]) == (0, 1) for entry in entries)
    drawn = [key for key in keys if key[1] in ("splitting-window", "edge-sample")]
    assert drawn == [(child_seed(3, "search-step", s), "splitting-window") for s in range(12)]


def test_each_switch_entry_counts_the_window_its_step_scored():
    # K48's anchors have C(24 - 4, 2) = 190 splittings, all on the complete
    # host, so every step scores a full window before it builds.
    g = Hypergraph.complete(48, 3)
    chi = Colouring(g, [sum(e) % 26 for e in g.edges])
    result = find_rainbow_hamilton_cycle(g, chi, replace(desk_params(), mu=0.2), seed=0)
    entries = switch_entries(result)
    assert result.success and len(entries) > 1
    assert all(entry["scored"] == search.WINDOW for entry in entries)


def test_when_the_lowest_draw_does_not_build_the_step_builds_the_next_lowest(monkeypatch):
    steps = {}  # step seed -> (cycle, anchor, config, the draws it tried)
    real_draws = search._draws_to_build

    def recording(g, chi, cycle, anchor, params, config, held):
        tried = steps.setdefault(config.seed, (cycle, anchor, config, []))[3]
        for draw in real_draws(g, chi, cycle, anchor, params, config, held):
            tried.append(draw)
            yield draw

    def refusing_the_first(g, chi, sample, params, config, trial):
        if len(steps[config.seed][3]) == 1:
            return None
        return build_switching(g, chi, sample, params, config, trial)

    monkeypatch.setattr(search, "_draws_to_build", recording)
    monkeypatch.setattr(search, "build_switching", refusing_the_first)
    g, chi, params = n24_search_inputs()
    result = find_rainbow_hamilton_cycle(g, chi, params, seed=6)
    entries = switch_entries(result)
    assert len(entries) == len(steps) > 0
    for entry in entries:
        cycle, anchor, config, tried = steps[child_seed(6, "search-step", entry["step"])]
        # Build every draw of the window and count its conflicts.
        window = islice(distinct_exact_splittings(cycle, anchor, 3, 1, config.seed),
                        search.WINDOW)
        ranked = sorted(
            (len(find_conflicts(
                build_switching(g, chi, sample, params, config, trial).switching.new_cycle,
                chi, 1)), trial)
            for trial, sample in window
        )
        assert [draw[0] for draw in tried] == [trial for _, trial in ranked[:2]]
        assert (entry["after"], entry["trial"]) == ranked[1]
        assert entry["scored"] == search.WINDOW


def test_a_negative_step_budget_is_refused_and_zero_checks_the_start_cycle():
    g = Hypergraph.complete(12, 3)
    chi = Colouring(g, [i % 8 for i in range(len(g.edges))])
    with pytest.raises(InvalidInput, match=r"^max_steps must be >= 0, got -5$"):
        find_rainbow_hamilton_cycle(g, chi, desk_params(), seed=2, max_steps=-5)
    result = find_rainbow_hamilton_cycle(g, chi, desk_params(), seed=2, max_steps=0)
    start = uniform_random_hamilton_cycle(g, child_seed(2, "search-start"))
    assert (result.success, result.steps, result.restarts) == (False, 0, 0)
    assert result.cycle == start and result.log.steps == []
    assert result.conflicts == len(find_conflicts(start, chi, 1)) > 0
    assert find_rainbow_hamilton_cycle(g, Colouring.injective(g), desk_params(), seed=2,
                                       max_steps=0).success


def assert_found_on_k48_sum_mod(q):
    """colour = (sum of the edge's vertices) mod q gives q colours for the
    24 edges of a cycle; the search finds a rainbow cycle at seeds 0-2."""
    g = Hypergraph.complete(48, 3)
    chi = Colouring(g, [sum(e) % q for e in g.edges])
    params = Parameters(k=3, j=1, path_len=1, pairs_per_part=1,
                        epsilon=0.2, mu=0.2, gamma=0.01, beta=0.5)
    for seed in range(3):
        result = find_rainbow_hamilton_cycle(g, chi, params, seed=seed, max_steps=500)
        assert result.success, seed
        assert isinstance(validate_loose_cycle(g, result.cycle.vertices), LooseCycle)
        assert is_rainbow(chi, result.cycle.edge_sequence)


def test_sum_mod_30_on_k48_is_found_at_every_seed():
    # Keeping every switching found one of these three.
    assert_found_on_k48_sum_mod(30)


def test_sum_mod_26_on_k48_is_found_at_every_seed():
    # Building the first draw of each step found one of these three.
    assert_found_on_k48_sum_mod(26)
