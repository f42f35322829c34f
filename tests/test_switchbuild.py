import sys
from collections import Counter

import pytest

from loosehc import colouring, sampler, splitting, switchbuild, tiling
from loosehc.colouring import Colouring
from loosehc.cycles import LoosePath, increasing_path, validate_loose_cycle
from loosehc.hypergraph import Hypergraph, InvalidInput, Parameters, UnmeetableGate
from loosehc.oracles import uniform_random_hamilton_cycle
from loosehc.rng import child_seed
from loosehc.search import find_conflicts, rewired_conflict_count
from loosehc.sampler import BudgetExhausted, sample_splitting
from loosehc.splitting import (
    CheckReport,
    Splitting,
    Switching,
    TransversePartition,
    is_feasible,
    is_switching,
    validate_splitting,
)
from loosehc.switchbuild import (
    PipelineConfig,
    build_conflict_graph,
    build_feasible_switching,
    build_switching,
    forced_rewiring,
    part_labels,
    sample_switching,
)
from loosehc.tiling import TilingInfeasible


def desk_params(**overrides):
    base = dict(k=3, j=1, path_len=1, pairs_per_part=1,
                epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5, threshold=0.0)
    base.update(overrides)
    return Parameters(**base)


def splitting_n12():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    return g, cycle, s


def viable_n12(s):
    partition = TransversePartition((
        frozenset({1, 4, 10}),
        frozenset({2, 5, 8}),
        frozenset({0, 6, 9}),
    ))
    from loosehc.splitting import Rerouting, validate_rerouting

    rerouting = validate_rerouting(s, [(4, 10), (2, 8), (0, 6)])
    assert isinstance(rerouting, Rerouting)
    return partition, rerouting


def test_part_labels_bijection():
    _, _, s = splitting_n12()
    partition, _ = viable_n12(s)
    labels = part_labels(s, partition)
    assert labels[0] == [1, 4, 10]
    assert labels[2] == [0, 6, 9]


def test_build_conflict_graph_first_part_empty():
    _, _, s = splitting_n12()
    partition, _ = viable_n12(s)
    labels = part_labels(s, partition)
    assert build_conflict_graph(s, labels, [], 0).edges == frozenset()


def test_build_conflict_graph_lifts_pairs():
    g = Hypergraph.complete(24, 3)
    cycle = validate_loose_cycle(g, range(24))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1)
        for p in (0, 2, 4, 6, 8, 10)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    # Path i covers [4i, 4i+2]. Parts: one vertex per path.
    parts = (
        frozenset({0, 4, 8, 12, 16, 20}),
        frozenset({1, 5, 9, 13, 17, 21}),
        frozenset({2, 6, 10, 14, 18, 22}),
    )
    partition = TransversePartition(parts)
    labels = part_labels(s, partition)
    # A previous trimmed edge through the vertices of paths 3, 5 at part 0
    trimmed = [[(12, 16, 20)]]
    lifted = build_conflict_graph(s, labels, trimmed, 1)
    assert lifted.edges == frozenset({(13, 17), (13, 21), (17, 21)})


def test_build_feasible_switching_injective():
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    chi = Colouring.injective(g)
    result = build_feasible_switching(
        cycle, s.paths[0], s, partition, rerouting, g, chi,
        desk_params(), PipelineConfig(seed=1),
    )
    # Independent re-checks through the predicate module.
    sw = result.switching
    report = is_switching(sw.anchor, sw.host, sw.splitting,
                          sw.new_cycle, sw.new_splitting, graph=g)
    assert report.ok, str(report)
    assert is_feasible(sw, chi).ok
    # New splitting paths live inside single parts.
    for p in sw.new_splitting.paths:
        assert len({partition.part_of[v] for v in p.vertices}) == 1


def test_forced_part_tilings_search_nothing(monkeypatch):
    # At t = m~ = 1 each part has k vertices and one pair, so its tiling is
    # its own edge: no spanning-path search runs and no claim partition is
    # drawn.
    tilings, oracle_calls, streams = [], [], []
    real_tiling, real_find, real_stream = (
        switchbuild.build_path_tiling, tiling.find_loose_hamilton_path, tiling.stream
    )
    monkeypatch.setattr(switchbuild, "build_path_tiling",
                        lambda *args: tilings.append(args) or real_tiling(*args))
    monkeypatch.setattr(tiling, "find_loose_hamilton_path",
                        lambda *args: oracle_calls.append(args) or real_find(*args))
    monkeypatch.setattr(tiling, "stream", lambda *key: streams.append(key) or real_stream(*key))
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    result = build_feasible_switching(
        cycle, s.paths[0], s, partition, rerouting, g, Colouring.injective(g),
        desk_params(), PipelineConfig(seed=1),
    )
    assert result.feasibility.ok
    assert len(tilings) == 3
    assert oracle_calls == []
    assert [key for key in streams if "claim-partition" in key] == []


def test_builder_checks_through_the_predicates_only(monkeypatch):
    # The new splitting is validated once, by is_switching's "shape", and
    # the fresh edges' colours once, by is_feasible's "internal-rainbow".
    callers = {"validate_splitting": [], "is_rainbow": []}
    for name, calls in callers.items():
        real = getattr(splitting, name)

        def counted(*args, real=real, calls=calls):
            calls.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        for module in (splitting, switchbuild, colouring):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    build_feasible_switching(
        cycle, s.paths[0], s, partition, rerouting, g, Colouring.injective(g),
        desk_params(), PipelineConfig(seed=1),
    )
    assert callers == {"validate_splitting": ["is_switching", "is_switching"],
                       "is_rainbow": ["is_feasible"]}


def test_builder_asserts_the_feasibility_suitability_promises(monkeypatch):
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    monkeypatch.setattr(switchbuild, "is_feasible", lambda switching, chi: CheckReport(
        False, {"internal-rainbow": False}, {}))
    with pytest.raises(AssertionError, match="suitability promised feasibility"):
        build_feasible_switching(
            cycle, s.paths[0], s, partition, rerouting, g, Colouring.injective(g),
            desk_params(), PipelineConfig(seed=1, require_events=True),
        )


def test_build_feasible_switching_rejects_misplaced_anchor():
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    chi = Colouring.injective(g)
    with pytest.raises(InvalidInput):
        build_feasible_switching(
            cycle, s.paths[1], s, partition, rerouting, g, chi, desk_params()
        )


def test_part_filter_definition():
    from loosehc.switchbuild import _filtered_part_edges

    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    assignment = list(range(len(g.edges)))
    idx = {e: i for i, e in enumerate(g.edges)}
    host_edge = cycle.edge_sequence[1]
    poisoned = (4, 8, 10)    # inside the part, avoids the anchor's vertex
    protected = (3, 4, 6)    # inside the part, through the anchor's vertex
    assignment[idx[poisoned]] = assignment[idx[host_edge]]
    assignment[idx[protected]] = assignment[idx[host_edge]]
    chi = Colouring(g, tuple(assignment))
    host_colours = {chi.colour(e) for e in cycle.edge_sequence}
    part = frozenset({3, 4, 6, 8, 9, 10})
    kept = _filtered_part_edges(g, chi, host_colours, part, anchor_vertex=3)
    assert poisoned not in kept
    assert protected in kept          # edges through the anchor's vertex stay
    assert (4, 6, 9) in kept          # clean edges stay


def test_anchor_coloured_like_host_still_feasible():
    # Colouring a kept edge through the anchor's vertex with a host colour
    # must not break the build: feasibility only constrains fresh edges
    # outside the anchor.
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    assignment = list(range(len(g.edges)))
    idx = {e: i for i, e in enumerate(g.edges)}
    assignment[idx[(1, 4, 10)]] = assignment[idx[cycle.edge_sequence[1]]]
    chi = Colouring(g, tuple(assignment))
    result = build_feasible_switching(
        cycle, s.paths[0], s, partition, rerouting, g, chi,
        desk_params(), PipelineConfig(seed=2),
    )
    assert is_feasible(result.switching, chi).ok


def test_is_feasible_failure_witnesses():
    # A built switching at t = 1, m~ = 1 has no fresh edge: each new path is
    # one edge through an anchor vertex.  The K12 splitting read as a
    # switching of its own host around (0, 1, 2) has the fresh edges
    # (4, 5, 6) and (8, 9, 10) and the untouched (2, 3, 4), (6, 7, 8) and
    # (0, 10, 11).  Each colouring below gives (4, 5, 6) a twin's colour.
    g, cycle, s = splitting_n12()
    sw = Switching(s.paths[0], cycle, s, cycle, s)
    assert is_feasible(sw, Colouring.injective(g)).ok
    idx = {e: i for i, e in enumerate(g.edges)}
    for twin, condition, witness in (
        ((8, 9, 10), "internal-rainbow", [((4, 5, 6), (8, 9, 10)), ((8, 9, 10), (4, 5, 6))]),
        ((2, 3, 4), "no-outside-collision", [((4, 5, 6), (2, 3, 4))]),
    ):
        assignment = list(range(len(g.edges)))
        assignment[idx[(4, 5, 6)]] = idx[twin]
        verdict = is_feasible(sw, Colouring(g, tuple(assignment)))
        assert not verdict.ok
        assert [name for name, ok in verdict.conditions.items() if not ok] == [condition]
        assert verdict.witnesses == {condition: witness}


def built_n12():
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    result = build_feasible_switching(
        cycle, s.paths[0], s, partition, rerouting, g, Colouring.injective(g),
        desk_params(), PipelineConfig(seed=1),
    )
    return g, result.switching


def thinned(g, edge):
    return Hypergraph(g.n, g.k, tuple(e for e in g.edges if e != edge))


# One break of a built K12 switching per case, and the "shape" witness
# is_switching must report for it.
SHAPE_BREAKS = {
    "anchor-missing": lambda g, sw: (
        {"anchor": LoosePath((2, 3, 4), 3)}, "anchor is not a path of the splitting"),
    "sizes-differ": lambda g, sw: (
        {"new_splitting": Splitting(sw.new_cycle, sw.new_splitting.paths[:2])},
        "sizes differ: 3 vs 2"),
    "old-splitting-invalid": lambda g, sw: (
        {"splitting": Splitting(sw.host, sw.splitting.paths[:2] + (LoosePath((8, 9, 11), 3),))},
        "old splitting: non-subpath at position 2: path 2 uses (8, 9, 11), "
        "not an edge of the host"),
    "new-path-too-long": lambda g, sw: (
        {"new_splitting": Splitting(sw.new_cycle, (
            increasing_path(sw.new_cycle, sw.new_cycle.edge_sequence[0], 3),
            *sw.new_splitting.paths[1:]))},
        "new splitting: length at position 0: path 0 has length 3 > bound 2"),
    "edge-not-in-host": lambda g, sw: (
        {"graph": thinned(g, sw.new_cycle.edge_sequence[0])},
        f"new cycle is not a Hamilton cycle of the graph: [{sw.new_cycle.edge_sequence[0]}]"),
}


@pytest.mark.parametrize("case", SHAPE_BREAKS)
def test_is_switching_names_each_broken_shape(case):
    g, sw = built_n12()
    inputs = dict(anchor=sw.anchor, host=sw.host, splitting=sw.splitting,
                  new_cycle=sw.new_cycle, new_splitting=sw.new_splitting, graph=g)
    assert is_switching(**inputs).ok
    broken, witness = SHAPE_BREAKS[case](g, sw)
    report = is_switching(**{**inputs, **broken})
    assert not report.ok and report.conditions == {"shape": False}
    assert report.witnesses == {"shape": witness}


def test_is_switching_names_an_anchor_vertex_outside_the_new_splitting():
    # Cutting the unchanged host at the other edges leaves the anchor's
    # interior 1 out of the new splitting, and changes the outside with it.
    g, sw = built_n12()
    others = tuple(increasing_path(sw.host, sw.host.edge_sequence[p], 1) for p in (1, 3, 5))
    shifted = validate_splitting(sw.host, others, "balanced", 1)
    report = is_switching(sw.anchor, sw.host, sw.splitting, sw.host, shifted, graph=g)
    assert report.conditions == {
        "shape": True, "outside-unchanged": False, "anchor-transverse": False,
    }
    assert report.witnesses["anchor-transverse"] == (
        "anchor vertices not covered by the new splitting"
    )


def test_a_part_path_off_the_host_is_refused_by_is_switching(monkeypatch):
    # The host lacks (2, 5, 8), the one edge on part {2, 5, 8}.  Handing
    # that part's tiling a graph that holds it yields a path through a
    # non-host edge, and is_switching's report is what refuses the cycle.
    g12, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    off_host = (2, 5, 8)
    g = thinned(g12, off_host)
    real = switchbuild.relabelled

    def with_off_host_edge(host, old_ids, edges):
        extra = [off_host] if old_ids == off_host else []
        return real(host, old_ids, [*edges, *extra])

    monkeypatch.setattr(switchbuild, "relabelled", with_off_host_edge)
    with pytest.raises(AssertionError, match=(
        r"(?s)^builder emitted a non-switching: .*new cycle is not a Hamilton "
        r"cycle of the graph: \[\(2, 5, 8\)\]"
    )):
        build_feasible_switching(
            cycle, s.paths[0], s, partition, rerouting, g, Colouring.injective(g),
            desk_params(), PipelineConfig(seed=1),
        )


def test_check_report_serialization():
    g, cycle, s = splitting_n12()
    report = is_switching(s.paths[0], cycle, s, cycle, s)
    text = str(report)
    assert "ok=False" in text
    assert "condition=anchor-transverse FAIL" in text


def test_sample_switching_end_to_end():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    chi = Colouring.injective(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    result = sample_switching(g, chi, cycle, anchor, params,
                              PipelineConfig(seed=3))
    assert result is not None
    sw = result.switching
    assert is_switching(sw.anchor, sw.host, sw.splitting, sw.new_cycle,
                        sw.new_splitting, graph=g).ok
    assert is_feasible(sw, chi).ok


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sample_switching_through_the_event_gate(seed):
    # With require_events the splitting is suitable, so the builder asserts
    # that the fresh edges are rainbow and the switching feasible.
    g = Hypergraph.complete(30, 3)
    cycle = validate_loose_cycle(g, range(30))
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    assert anchor.vertices == (0, 1, 2)
    result = sample_switching(g, chi, cycle, anchor, desk_params(),
                              PipelineConfig(seed=seed, require_events=True))
    assert result is not None
    sw = result.switching
    assert is_switching(sw.anchor, sw.host, sw.splitting, sw.new_cycle,
                        sw.new_splitting, graph=g).ok
    assert is_feasible(sw, chi).ok


def test_sample_switching_deterministic():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    chi = Colouring.injective(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    first = sample_switching(g, chi, cycle, anchor, params, PipelineConfig(seed=3))
    second = sample_switching(g, chi, cycle, anchor, params, PipelineConfig(seed=3))
    assert first.switching.new_cycle == second.switching.new_cycle
    assert [p.vertices for p in first.switching.new_splitting.paths] == \
        [p.vertices for p in second.switching.new_splitting.paths]


def test_sample_switching_refuses_a_host_too_small(monkeypatch):
    # n = 10 cannot host three disjoint single-edge paths at all: the run is
    # refused before its first draw, after the strict-gate check.
    g = Hypergraph.complete(10, 3)
    cycle = validate_loose_cycle(g, range(10))
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    keys = []
    monkeypatch.setattr(sampler, "stream", lambda *key: keys.append(key))
    with pytest.raises(UnmeetableGate) as err:
        sample_switching(g, chi, cycle, anchor, desk_params(),
                         PipelineConfig(seed=1, sample_budget=300))
    assert str(err.value) == (
        "host-too-small: 3 disjoint paths of 1 edges need 6 cycle edges, the host has 5"
    )
    assert err.value.gate == "host-too-small"
    with pytest.raises(UnmeetableGate, match="^relative-degree: "):
        sample_switching(g, chi, cycle, anchor, desk_params(),
                         PipelineConfig(seed=1, structural=False))
    assert keys == []


def test_every_trial_draws_a_sample_of_the_right_size(monkeypatch):
    # No trial is spent on a sample that validate_splitting rejects: with no
    # partition ever drawn, each of the 40 trials on K24 draws one sample,
    # and each is a balanced splitting of split_size paths.
    g = Hypergraph.complete(24, 3)
    cycle = validate_loose_cycle(g, range(24))
    anchor = increasing_path(cycle, cycle.edge_sequence[7], 1)
    params = desk_params()
    drawn = []

    def traced(*args, **kwargs):
        drawn.append(sample_splitting(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(switchbuild, "sample_splitting", traced)
    monkeypatch.setattr(switchbuild, "draw_viable_partition", lambda *args: None)
    result = sample_switching(g, Colouring.injective(g), cycle, anchor, params,
                              PipelineConfig(seed=3, sample_budget=40))
    assert result is None and len(drawn) == 40
    assert all(s.size == params.split_size for s in drawn)
    assert all(isinstance(validate_splitting(cycle, s.all_paths, "balanced", 1), Splitting)
               for s in drawn)
    assert len({s.sampled_positions for s in drawn}) > 1


def counted_partition_draws(monkeypatch):
    draws = []
    real = switchbuild.draw_viable_partition

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(switchbuild, "draw_viable_partition", counted)
    return draws


@pytest.mark.parametrize("n, k, j, events", [
    (24, 3, 1, False), (48, 3, 1, False), (60, 3, 2, False), (60, 3, 2, True), (24, 4, 1, False),
])
def test_the_first_partition_draw_builds_at_one_pair_per_part(monkeypatch, n, k, j, events):
    # At t = m~ = 1 the first splitting's first partition draw builds the
    # switching, structural (n < 50) and strict (n = 60) alike, so a trial
    # draws one partition.  If this starts to fail, a retry of the
    # partition draw within a trial may pay again.
    g = Hypergraph.complete(n, k)
    cycle = validate_loose_cycle(g, range(n))
    chi = Colouring.injective(g)
    draws = counted_partition_draws(monkeypatch)
    for seed in range(3):
        anchor = increasing_path(cycle, cycle.edge_sequence[3 * seed], 1)
        draws.clear()
        result = sample_switching(g, chi, cycle, anchor, desk_params(k=k, j=j),
                                  PipelineConfig(seed=seed, require_events=events))
        assert result is not None and len(draws) == 1, (seed, len(draws))


def test_a_geometry_that_never_builds_draws_one_partition_per_trial(monkeypatch):
    # At t = 1, m~ = 2 no part of K24 tiles, so every trial's one partition
    # draw fails to build and the run ends after sample_budget draws.
    g = Hypergraph.complete(24, 3)
    cycle = validate_loose_cycle(g, range(24))
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    draws = counted_partition_draws(monkeypatch)
    result = sample_switching(g, Colouring.injective(g), cycle, anchor,
                              desk_params(pairs_per_part=2), PipelineConfig(seed=1, sample_budget=25))
    assert result is None and len(draws) == 25


def k12_anchor():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    return g, Colouring.injective(g), cycle, increasing_path(cycle, cycle.edge_sequence[0], 1)


def passthrough(call, real, *args):
    return real(*args)


def traced_pipeline(monkeypatch, config, draw=passthrough, build=passthrough):
    """Run sample_switching on K12 with the partition draw (and optionally
    the build) replaced; each replacement is called with its call number
    and the real function.  Returns the result and the trial that each
    partition draw's child seed encodes."""
    index = {
        child_seed(config.seed, "pipeline-partition", trial * 1000): trial
        for trial in range(config.sample_budget)
    }
    draws, builds = [], []
    real_draw, real_build = switchbuild.draw_viable_partition, switchbuild.build_feasible_switching

    def traced_draw(*args):
        draws.append(index[args[-1].seed])
        return draw(len(draws), real_draw, *args)

    def traced_build(*args):
        builds.append(args)
        return build(len(builds), real_build, *args)

    monkeypatch.setattr(switchbuild, "draw_viable_partition", traced_draw)
    monkeypatch.setattr(switchbuild, "build_feasible_switching", traced_build)
    g, chi, cycle, anchor = k12_anchor()
    return sample_switching(g, chi, cycle, anchor, desk_params(), config), draws


def test_an_exhausted_partition_budget_moves_on_to_the_next_sample(monkeypatch):
    # On K12 every trial draws the anchor's one balanced splitting.
    def exhausted_once(call, real, *args):
        if call == 1:
            raise BudgetExhausted("transverse-partition", "no acceptable partition")
        return real(*args)

    result, draws = traced_pipeline(monkeypatch, PipelineConfig(seed=3), draw=exhausted_once)
    assert result is not None and draws == [0, 1]


def test_no_dicycle_moves_on_to_the_next_sample(monkeypatch):
    result, draws = traced_pipeline(
        monkeypatch, PipelineConfig(seed=3),
        draw=lambda call, real, *args: None if call == 1 else real(*args),
    )
    assert result is not None and draws == [0, 1]


def test_an_untileable_build_moves_on_to_the_next_sample(monkeypatch):
    def infeasible_once(call, real, *args):
        if call == 1:
            raise TilingInfeasible("part-0:ham-path", "no conflict-free spanning path in block 0")
        return real(*args)

    result, draws = traced_pipeline(monkeypatch, PipelineConfig(seed=3), build=infeasible_once)
    assert result is not None and draws == [0, 1]


def test_sample_switching_returns_none_when_every_budget_runs_out(monkeypatch):
    # One partition draw per trial: the sample budget bounds the draws.
    result, draws = traced_pipeline(
        monkeypatch, PipelineConfig(seed=3, sample_budget=20),
        draw=lambda call, real, *args: None,
    )
    assert result is None
    assert draws == list(range(20))


def test_a_part_failure_is_reraised_naming_the_part(monkeypatch):
    real_tiling = switchbuild.build_path_tiling
    calls = []

    def second_part_fails(request, params, config):
        calls.append(request)
        if len(calls) == 2:
            raise TilingInfeasible("ham-path", "no conflict-free spanning path in block 0")
        return real_tiling(request, params, config)

    monkeypatch.setattr(switchbuild, "build_path_tiling", second_part_fails)
    g, cycle, s = splitting_n12()
    partition, rerouting = viable_n12(s)
    with pytest.raises(TilingInfeasible) as err:
        build_feasible_switching(
            cycle, s.paths[0], s, partition, rerouting, g, Colouring.injective(g),
            desk_params(), PipelineConfig(seed=1),
        )
    assert (err.value.stage, err.value.detail) == (
        "part-1:ham-path", "no conflict-free spanning path in block 0"
    )
    assert err.value.__cause__.stage == "ham-path" and len(calls) == 2


@pytest.mark.parametrize("n", [24, 48])
def test_every_built_switching_adds_the_forced_rewiring(n):
    # At k = 3 and t = m~ = 1 the partition draw cannot change what a
    # splitting's switching adds: over several splittings and many partition
    # seeds each, every build adds exactly the predicted edges, removes the
    # splitting's own, and lands on the predicted conflict count.
    g = Hypergraph.complete(n, 3)
    chi = Colouring(g, [sum(e) % (n // 4) for e in g.edges])
    params = desk_params()
    built_count = 0
    for host_seed in range(3):
        host = uniform_random_hamilton_cycle(g, host_seed)
        counts = Counter(chi.colours(host.edge_sequence))
        held = len(find_conflicts(host, chi, 1))
        for trial in range(4):
            anchor = increasing_path(host, host.edge_sequence[5 * trial % host.edge_count], 1)
            sample = sample_splitting(host, anchor, 3, 1, host_seed, trial, exact_size=True)
            added = forced_rewiring(sample, params)
            removed = [p.edges[0] for p in sample.all_paths]
            predicted = rewired_conflict_count(
                counts, held, chi.colours(removed), chi.colours(added)
            )
            for partition_seed in range(8):
                built = build_switching(g, chi, sample, params,
                                        PipelineConfig(seed=partition_seed), partition_seed)
                assert built is not None
                new_cycle = built.switching.new_cycle
                new_edges, old_edges = set(new_cycle.edge_sequence), set(host.edge_sequence)
                assert new_edges - old_edges == set(added)
                assert old_edges - new_edges == set(removed)
                assert len(find_conflicts(new_cycle, chi, 1)) == predicted
                built_count += 1
    assert built_count == 3 * 4 * 8


@pytest.mark.parametrize("overrides", [
    dict(path_len=2), dict(pairs_per_part=2), dict(k=4, j=1),
], ids=["t2", "mtilde2", "k4"])
def test_the_rewiring_is_forced_only_at_k3_t1_mtilde1(overrides):
    g = Hypergraph.complete(24, 3)
    host = validate_loose_cycle(g, range(24))
    anchor = increasing_path(host, host.edge_sequence[0], 1)
    sample = sample_splitting(host, anchor, 3, 1, 0, exact_size=True)
    assert forced_rewiring(sample, desk_params()) is not None
    assert forced_rewiring(sample, desk_params(**overrides)) is None


def test_sample_switching_builds_its_first_building_draw():
    # sample_switching is the draw loop around build_switching: its result
    # is the build of the first trial whose draw passes, under the same keys.
    g = Hypergraph.complete(24, 3)
    host = uniform_random_hamilton_cycle(g, 7)
    anchor = increasing_path(host, host.edge_sequence[0], 1)
    chi, params = Colouring.injective(g), desk_params()
    config = PipelineConfig(seed=7, sample_budget=400)
    sample = sample_splitting(host, anchor, 3, 1, 7, 0, exact_size=True)
    direct = build_switching(g, chi, sample, params, config, 0)
    assert direct is not None
    assert sample_switching(g, chi, host, anchor, params, config).switching == direct.switching
