import random
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loosehc import tiling
from loosehc.constructions import first_prefix_colouring
from loosehc.cycles import LoosePath
from loosehc.graphs import PairGraph
from loosehc.hypergraph import Hypergraph, InvalidInput, Parameters, PipelineConfig
from loosehc.tiling import (
    PathTiling,
    TilingInfeasible,
    TilingRequest,
    build_path_tiling,
    choose_reservoirs,
    fix_divisibility,
    repair_bad_parts,
    sample_claim_partition,
    validate_path_tiling,
)

PARAMS = Parameters(k=3, j=1, path_len=1, pairs_per_part=1,
                    epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5, threshold=0.0)


def request(n, pairs, conflicts=(), t=3):
    return TilingRequest(
        Hypergraph.complete(n, 3),
        tuple(tuple(p) for p in pairs),
        PairGraph.from_pairs(conflicts),
        t,
    )


def test_request_validation():
    with pytest.raises(InvalidInput):
        request(7, [(0, 0)])
    with pytest.raises(InvalidInput):
        request(7, [(0, 1), (1, 2)])
    heavy = [(0, v) for v in range(1, 7)]
    with pytest.raises(InvalidInput):
        TilingRequest(Hypergraph.complete(7, 3), ((0, 1),),
                      PairGraph.from_pairs(heavy), 0)


def check_reservoirs(req: TilingRequest, reservoirs) -> bool:
    """choose_reservoirs' post-condition: near each pair the only conflict
    edge that may survive is the pair itself."""
    for i in range(req.pair_count):
        around = set(req.pairs[i]) | set(reservoirs[i]) | set(reservoirs[i + 1])
        for edge in req.conflicts.edges_inside(around):
            if set(edge) != set(req.pairs[i]):
                return False
    return True


def test_choose_reservoirs_empty_conflicts():
    req = request(14, [(0, 1), (7, 8)])
    reservoirs = choose_reservoirs(req)
    assert len(reservoirs) == 3
    assert reservoirs[0] == () and reservoirs[2] == ()
    assert len(reservoirs[1]) == 1  # k - 2
    assert check_reservoirs(req, reservoirs)


def test_choose_reservoirs_k2_are_empty():
    req = TilingRequest(Hypergraph.complete(8, 2), ((0, 1), (2, 3)),
                        PairGraph.empty(), 3)
    reservoirs = choose_reservoirs(req)
    assert all(w == () for w in reservoirs)


def test_choose_reservoirs_avoid_matching_conflicts():
    # conflict graph: perfect matching on 14 vertices
    matching = [(2 * i, 2 * i + 1) for i in range(7)]
    req = request(14, [(0, 1), (7, 8)], matching)
    reservoirs = choose_reservoirs(req)
    assert check_reservoirs(req, reservoirs)


def test_sample_claim_partition_statistics():
    req = request(14, [(0, 1), (7, 8)])
    reservoirs = choose_reservoirs(req)
    cfg = PipelineConfig(seed=5)
    parts = next(sample_claim_partition(req, reservoirs, PARAMS, cfg))
    assert len(parts) == 2
    free = set(range(14)) - {0, 1, 7, 8} - set(reservoirs[1])
    assert parts[0] | parts[1] == free


def test_sample_claim_partition_deterministic():
    req = request(14, [(0, 1), (7, 8)])
    reservoirs = choose_reservoirs(req)
    a = next(sample_claim_partition(req, reservoirs, PARAMS, PipelineConfig(seed=9)))
    b = next(sample_claim_partition(req, reservoirs, PARAMS, PipelineConfig(seed=9)))
    assert a == b


def test_repair_moves_conflict_vertex():
    req = request(14, [(0, 1), (7, 8)], conflicts=[(3, 4)])
    reservoirs = choose_reservoirs(req)
    free = sorted(set(range(14)) - {0, 1, 7, 8} - set(reservoirs[1]))
    assert {3, 4} <= set(free)
    # Force a bad first block containing both ends of the conflict edge.
    rest = [v for v in free if v not in (3, 4)]
    parts = [set([3, 4] + rest[:2]), set(rest[2:])]
    fixed = repair_bad_parts(req, reservoirs, parts)
    for p in range(2):
        around = fixed[p] | set(req.pairs[p]) | set(reservoirs[p]) | set(reservoirs[p + 1])
        assert req.conflicts.edges_inside(around) == []


def test_repair_two_bad_blocks_distinct_targets():
    # Four blocks, two of them trapping a conflict edge each: both get
    # fixed and the moved vertices land in distinct good targets.
    pairs = [(0, 1), (7, 8), (14, 15), (21, 22)]
    req = request(28, pairs, conflicts=[(3, 4), (9, 10)])
    reservoirs = choose_reservoirs(req)
    taken = {v for p in pairs for v in p} | {v for w in reservoirs for v in w}
    free = sorted(set(range(28)) - taken)
    for banned in (3, 4, 9, 10):
        assert banned in free
    rest = [v for v in free if v not in (3, 4, 9, 10)]
    parts = [set([3, 4] + rest[:2]), set([9, 10] + rest[2:4]),
             set(rest[4:8]), set(rest[8:])]
    fixed = repair_bad_parts(req, reservoirs, parts)
    for p in range(4):
        around = fixed[p] | set(req.pairs[p]) | set(reservoirs[p]) | set(reservoirs[p + 1])
        assert req.conflicts.edges_inside(around) == []
    receiving = [p for p in range(4) if fixed[p] - parts[p]]
    assert len(receiving) == 2 and len(set(receiving)) == 2


def test_repair_passes_very_bad_block_through():
    # One block holding all of a two-edge matching is very bad: repair
    # leaves it in place for the oracle stage.
    req = request(7, [(0, 1)], conflicts=[(2, 3), (4, 5)], t=3)
    reservoirs = choose_reservoirs(req)
    parts = [set(range(7)) - {0, 1}]
    passed_through = repair_bad_parts(req, reservoirs, parts)
    assert passed_through == parts


def test_build_tiling_with_disjoint_conflicts_single_block():
    # The claim conditions cannot hold here (the only block traps a
    # disjoint conflict matching) but the oracle still tiles around it.
    req = request(7, [(0, 1)], conflicts=[(2, 3), (4, 5)], t=3)
    tiling = build_path_tiling(req, PARAMS, PipelineConfig(seed=4))
    assert validate_path_tiling(req, tiling).ok


def test_repair_identity_when_all_good():
    req = request(14, [(0, 1), (7, 8)])
    reservoirs = choose_reservoirs(req)
    parts = next(sample_claim_partition(req, reservoirs, PARAMS, PipelineConfig(seed=1)))
    assert repair_bad_parts(req, reservoirs, parts) == parts


def test_fix_divisibility_forced_arithmetic():
    # k = 3, first block of size 4, no carry: one reservoir vertex joins,
    # giving |V_1| = 7 with 7 - 1 even.
    req = request(14, [(0, 1), (7, 8)])
    reservoirs = choose_reservoirs(req)
    free = sorted(set(range(14)) - {0, 1, 7, 8} - set(reservoirs[1]))
    parts = [set(free[:4]), set(free[4:])]
    finals = fix_divisibility(req, reservoirs, parts)
    assert len(finals[0]) == 7
    assert all((len(v) - 1) % 2 == 0 for v in finals)
    assert frozenset.union(*finals) == set(range(14))


def test_fix_divisibility_single_block():
    req = request(7, [(0, 1)], t=3)
    reservoirs = choose_reservoirs(req)
    free = set(range(7)) - {0, 1}
    finals = fix_divisibility(req, reservoirs, [free])
    assert finals == [frozenset(range(7))]


def test_build_tiling_single_pair():
    req = request(7, [(0, 1)], t=3)
    tiling = build_path_tiling(req, PARAMS, PipelineConfig(seed=3))
    assert len(tiling.paths) == 1
    path = tiling.paths[0]
    assert path.length == 3
    assert path.endvertices == {0, 1}
    assert validate_path_tiling(req, tiling).ok


def test_build_tiling_single_edge_graph():
    req = TilingRequest(
        Hypergraph.from_edges(3, 3, [(0, 1, 2)]), ((0, 2),), PairGraph.empty(), 1
    )
    tiling = build_path_tiling(req, PARAMS, PipelineConfig(seed=0))
    assert tiling.paths[0].edges == ((0, 1, 2),)
    assert validate_path_tiling(req, tiling).ok


def test_build_tiling_two_pairs_14():
    req = request(14, [(0, 1), (7, 8)], t=3)
    tiling = build_path_tiling(req, PARAMS, PipelineConfig(seed=11))
    assert len(tiling.paths) == 2
    assert {p.length for p in tiling.paths} <= {1, 2, 3, 4, 5, 6}
    assert validate_path_tiling(req, tiling).ok


def test_build_tiling_respects_conflicts():
    conflicts = [(2, 3), (4, 5), (9, 10)]
    req = request(14, [(0, 1), (7, 8)], conflicts, t=3)
    tiling = build_path_tiling(req, PARAMS, PipelineConfig(seed=2))
    report = validate_path_tiling(req, tiling)
    assert report.ok, str(report)


def test_build_tiling_divisibility_rejection():
    req = request(7, [(0, 1), (3, 4)], t=3)  # 2 paths cannot cover 7 vertices
    with pytest.raises(TilingInfeasible) as err:
        build_path_tiling(req, PARAMS, PipelineConfig(seed=0))
    assert err.value.stage == "divisibility"


def test_strict_claim_refuses_an_empty_size_window_without_drawing(monkeypatch):
    # At t = 1 the strict window (t - 1)(k - 1) +- beta t is [-0.5, 0.5], so
    # every block must stay empty, but four pairs and three reservoir
    # vertices leave one of the 12 vertices free.
    g = first_prefix_colouring(12, 3).graph
    req = TilingRequest(g, tuple((3 * i, 3 * i + 1) for i in range(4)), PairGraph.empty(), 1)
    keys = []
    real_stream = tiling.stream
    monkeypatch.setattr(tiling, "stream", lambda *key: keys.append(key) or real_stream(*key))
    with pytest.raises(TilingInfeasible) as err:
        build_path_tiling(req, PARAMS, PipelineConfig(seed=1, structural=False))
    assert err.value.stage == "claim-partition"
    assert err.value.detail.startswith("part-sizes: no 4 block sizes in [0, 0] add up to 1")
    assert [key for key in keys if "claim-partition" in key] == []


def test_forced_claim_draws_no_stream(monkeypatch):
    # With one pair every free vertex joins the only block, so the claim
    # partition is forced and opens no stream.
    req = request(7, [(0, 1)], t=3)
    keys = []
    real_stream = tiling.stream
    monkeypatch.setattr(tiling, "stream", lambda *key: keys.append(key) or real_stream(*key))
    tiling_ = build_path_tiling(req, PARAMS, PipelineConfig(seed=3))
    assert validate_path_tiling(req, tiling_).ok
    assert [key for key in keys if "claim-partition" in key] == []


def test_validate_path_tiling_catches_bad_endpoints():
    req = request(7, [(0, 1)], t=3)
    tiling = build_path_tiling(req, PARAMS, PipelineConfig(seed=3))
    wrong = TilingRequest(req.graph, ((0, 2),), req.conflicts, req.path_len)
    report = validate_path_tiling(wrong, tiling)
    assert not report.ok
    assert report.conditions["endpoints"] is False


# Two paths tiling K10 between (0, 1) and (2, 3), each of length 2 = 2t.
TWO_PATHS = ((0, 4, 5, 6, 1), (2, 7, 8, 9, 3))


def validate_two_paths(paths=TWO_PATHS, n=10, pairs=((0, 1), (2, 3)), missing=None,
                       conflicts=()):
    graph = Hypergraph(n, 3, tuple(e for e in Hypergraph.complete(n, 3).edges if e != missing))
    req = TilingRequest(graph, pairs, PairGraph.from_pairs(conflicts), 1)
    return validate_path_tiling(req, PathTiling(tuple(LoosePath(p, 3) for p in paths)))


# One break of that tiling or its request per case, and the conditions that
# must fail with their witnesses (None where a condition reports none).
TILING_BREAKS = {
    "overlap": ({"paths": (TWO_PATHS[0], (2, 7, 8, 4, 3))}, {"disjoint": [4], "cover": [9]}),
    "uncovered": ({"n": 11}, {"cover": [10]}),
    "wrong-ends": ({"pairs": ((0, 1), (2, 9))}, {"endpoints": None}),
    "too-long": ({"paths": ((0, 4, 5, 6, 7, 8, 1), (2, 9, 3))}, {"length": None}),
    "edge-missing": ({"missing": (0, 4, 5)}, {"edges-present": (0, 4, 5)}),
    "conflict": ({"conflicts": ((4, 5),)}, {"conflict-free": (0, 4, 5)}),
}


@pytest.mark.parametrize("case", TILING_BREAKS)
def test_validate_path_tiling_names_each_broken_condition(case):
    assert validate_two_paths().ok
    broken, failures = TILING_BREAKS[case]
    report = validate_two_paths(**broken)
    assert not report.ok
    assert {name for name, ok in report.conditions.items() if not ok} == set(failures)
    assert report.witnesses == {
        name: witness for name, witness in failures.items() if witness is not None
    }


def test_forced_block_without_a_path_fails_after_one_oracle_call(monkeypatch):
    # One pair and one free vertex: the only partition is forced, and the
    # edgeless host has no spanning path.  A forced partition is drawn once,
    # so the oracle runs once and its failure ends the tiling.
    req = TilingRequest(Hypergraph(3, 3, ()), ((0, 1),), PairGraph.empty(), 1)
    calls = []
    real_find = tiling.find_loose_hamilton_path
    monkeypatch.setattr(tiling, "find_loose_hamilton_path",
                        lambda *args: calls.append(args) or real_find(*args))
    with pytest.raises(TilingInfeasible) as err:
        build_path_tiling(req, PARAMS, PipelineConfig(seed=1))
    assert err.value.stage == "ham-path"
    assert len(calls) == 1


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_a_block_of_k_vertices_is_tiled_as_the_oracle_tiles_it(monkeypatch, k):
    # On a k-vertex host the only loose path is the edge on all k vertices.
    # The tiling must return the oracle's vertex order, or refuse with
    # "ham-path" exactly where the oracle finds no path, and it calls the
    # oracle only for those refusals.
    calls = []
    real_find = tiling.find_loose_hamilton_path
    monkeypatch.setattr(tiling, "find_loose_hamilton_path",
                        lambda *args: calls.append(args) or real_find(*args))
    refused = 0
    for edges in ((), (tuple(range(k)),)):
        g = Hypergraph(k, k, edges)
        for a, b in permutations(range(k), 2):
            for conflict in [None, *combinations(range(k), 2)]:
                conflicts = PairGraph.from_pairs([conflict] if conflict else [])
                expected = real_find(g, a, b, conflicts)
                req = TilingRequest(g, ((a, b),), conflicts, 1)
                try:
                    got = build_path_tiling(req, PARAMS, PipelineConfig(seed=1)).paths[0].vertices
                except TilingInfeasible as exc:
                    got = exc.stage
                assert got == ("ham-path" if expected is None else expected.vertices)
                refused += expected is None
    assert 0 < len(calls) == refused


def staged_tiling(req, params, config):
    """A one-pair tiling through every stage: reservoirs, the first
    accepted claim partition, repair, the divisibility top-up and the
    spanning-path stage."""
    reservoirs = choose_reservoirs(req)
    parts = next(sample_claim_partition(req, reservoirs, params, config))
    parts = repair_bad_parts(req, reservoirs, parts)
    finals = fix_divisibility(req, reservoirs, parts)
    return PathTiling(tuple(tiling._tile_blocks(req, finals)))


def tiling_outcome(tile, req, config):
    try:
        return [p.vertices for p in tile(req, PARAMS, config).paths]
    except TilingInfeasible as exc:
        return (exc.stage, exc.detail)


def one_pair_requests(count, seed):
    """Random 3- and 4-graphs on at most 11 vertices, whose size a loose
    path can span, with one random pair and a random conflict graph.  At
    most 10 conflict neighbours stay within the cap 2tk^2 >= 18."""
    rng = random.Random(seed)
    for i in range(count):
        k = rng.choice((3, 4))
        n = rng.choice([n for n in range(k, 12) if (n - 1) % (k - 1) == 0])
        density = rng.uniform(0.3, 1)
        graph = Hypergraph(n, k, tuple(e for e in combinations(range(n), k) if rng.random() < density))
        conflict_density = rng.choice((0, rng.uniform(0, 0.25)))
        conflicts = [e for e in combinations(range(n), 2) if rng.random() < conflict_density]
        req = TilingRequest(graph, (tuple(rng.sample(range(n), 2)),),
                            PairGraph.from_pairs(conflicts), rng.choice((1, 2, 3)))
        yield req, PipelineConfig(seed=i, structural=rng.choice((None, False)))


def test_a_one_pair_tiling_equals_the_staged_pipeline():
    outcomes = []
    for req, config in one_pair_requests(200, seed=31):
        expected = tiling_outcome(staged_tiling, req, config)
        assert tiling_outcome(build_path_tiling, req, config) == expected
        outcomes.append(expected[0] if isinstance(expected, tuple) else "tiled")
    assert {"tiled", "ham-path", "claim-partition"} <= set(outcomes)


def test_strict_claim_gate_checks_part_degrees():
    # K5 with one pair at t = 2: the strict window [1, 3] holds the three
    # free vertices.  Each vertex lies in C(4, 2) = 6 edges of the extended
    # block, against a bound of (threshold + 3 eps / 16) * 5^2.
    req = TilingRequest(Hypergraph.complete(5, 3), ((0, 1),), PairGraph.empty(), 2)
    config = PipelineConfig(seed=1, claim_budget=7, structural=False)
    tiled = build_path_tiling(req, PARAMS, config)
    assert [p.vertices for p in tiled.paths] == [(0, 3, 2, 4, 1)]
    demanding = Parameters(k=3, j=1, path_len=1, pairs_per_part=1, epsilon=0.2,
                           mu=0.05, gamma=0.01, beta=0.5, threshold=0.5)
    with pytest.raises(TilingInfeasible) as err:
        build_path_tiling(req, demanding, config)
    assert err.value.stage == "claim-partition"
    # One pair forces the partition, so it is drawn and gated only once.
    assert err.value.detail == "no acceptable partition in 1 attempts (failures: {'part-degrees': 1})"


def random_graph(n, density, seed):
    rng = random.Random(seed)
    return Hypergraph(n, 3, tuple(e for e in combinations(range(n), 3) if rng.random() < density))


def traced_tiling(monkeypatch, graph_seed, claim_budget):
    """Tile a random 3-graph on 10 vertices between (0, 1) and (2, 3) at
    t = 2, recording the claim draws, every repaired partition and every
    partition handed on to be tiled."""
    req = TilingRequest(random_graph(10, 0.5, graph_seed), ((0, 1), (2, 3)), PairGraph.empty(), 2)
    draws, repaired, tiled = [], [], []
    real_stream, real_repair, real_fix = tiling.stream, tiling.repair_bad_parts, tiling.fix_divisibility
    monkeypatch.setattr(tiling, "stream", lambda *key: draws.append(key[2]) or real_stream(*key))
    monkeypatch.setattr(tiling, "repair_bad_parts",
                        lambda *args: repaired.append(real_repair(*args)) or repaired[-1])
    monkeypatch.setattr(tiling, "fix_divisibility",
                        lambda *args: tiled.append(args[2]) or real_fix(*args))
    try:
        outcome = build_path_tiling(req, PARAMS, PipelineConfig(seed=1, claim_budget=claim_budget))
    except TilingInfeasible as exc:
        outcome = exc
    return outcome, draws, repaired, tiled


FIRST = [{6, 7}, {5, 8, 9}]
SECOND = [{5, 7}, {6, 8, 9}]


def test_tiling_retries_a_later_partition_after_a_failed_one(monkeypatch):
    outcome, draws, repaired, tiled = traced_tiling(monkeypatch, 7, 10)
    assert draws == [0, 1] and repaired == tiled == [FIRST, SECOND]
    assert [p.vertices for p in outcome.paths] == [(0, 5, 4, 7, 1), (2, 8, 6, 9, 3)]


def test_tiling_stops_when_a_failed_partition_comes_back(monkeypatch):
    # Draws 2 and 3 are rejected.  Draw 4 gives the second partition's
    # blocks to the other pairs, which is a new partition and is tiled;
    # draw 5 repeats the second partition block for block.
    outcome, draws, repaired, tiled = traced_tiling(monkeypatch, 0, 10)
    assert draws == [0, 1, 2, 3, 4, 5]
    assert tiled == [FIRST, SECOND, SECOND[::-1]]
    assert repaired == [FIRST, SECOND, SECOND[::-1], SECOND]
    assert (outcome.stage, outcome.detail) == ("ham-path", "no conflict-free spanning path in block 0")


def test_tiling_raises_the_last_failure_when_the_budget_ends_on_it(monkeypatch):
    outcome, draws, repaired, tiled = traced_tiling(monkeypatch, 0, 2)
    assert draws == [0, 1] and repaired == tiled == [FIRST, SECOND]
    assert (outcome.stage, outcome.detail) == ("ham-path", "no conflict-free spanning path in block 0")


def test_tiling_raises_claim_partition_when_the_budget_ends_on_rejections(monkeypatch):
    # The failure counts cover only the draws after the last accepted one.
    outcome, draws, repaired, tiled = traced_tiling(monkeypatch, 0, 3)
    assert draws == [0, 1, 2] and repaired == tiled == [FIRST, SECOND]
    assert (outcome.stage, outcome.detail) == (
        "claim-partition", "no acceptable partition in 3 attempts (failures: {'part-sizes': 1})"
    )


def test_no_very_bad_gate_counts_its_rejections():
    # A conflict matching on the free vertices: a block holding two of its
    # edges has no vertex in both, so it is very bad.  The first five draws
    # are all rejected, three of them by this gate.
    matching = [(2 * i, 2 * i + 1) for i in range(7)]
    req = request(14, [(0, 1), (7, 8)], matching)
    with pytest.raises(TilingInfeasible) as err:
        build_path_tiling(req, PARAMS, PipelineConfig(seed=1, claim_budget=5))
    assert err.value.stage == "claim-partition"
    assert err.value.detail == (
        "no acceptable partition in 5 attempts (failures: {'no-very-bad': 3, 'part-sizes': 2})"
    )


class FixedDraw:
    """A stand-in for a claim stream whose draw is a given assignment."""

    def __init__(self, assignment):
        self.assignment = assignment

    def integers(self, high, size):
        assert len(self.assignment) == size and max(self.assignment) < high
        return self.assignment


@pytest.mark.parametrize("bad_blocks, verdict", [(27, "accepted"), (28, "bad-count")])
def test_bad_count_gate_caps_the_bad_blocks_at_t3_k3(monkeypatch, bad_blocks, verdict):
    # At k = 3, t = 1 the structural window admits blocks of 0 or 1 free
    # vertices and the cap is t^3 k^3 = 27.  28 pairs, 27 reservoir vertices
    # and 28 free vertices, one per block; the free vertex of block p
    # conflicts with the pair vertex 2p for the first bad_blocks blocks.  A
    # single trapping vertex covers its edge, so no block is very bad.
    mt = 28
    free = range(3 * mt - 1, 4 * mt - 1)
    conflicts = [(2 * p, z) for p, z in enumerate(free) if p < bad_blocks]
    req = TilingRequest(Hypergraph(4 * mt - 1, 3, ()), tuple((2 * p, 2 * p + 1) for p in range(mt)),
                        PairGraph.from_pairs(conflicts), 1)
    reservoirs = choose_reservoirs(req)
    assert {v for w in reservoirs for v in w} == set(range(2 * mt, 3 * mt - 1))
    monkeypatch.setattr(tiling, "stream", lambda *key: FixedDraw(list(range(mt))))
    config = PipelineConfig(seed=1, claim_budget=1, structural=True)
    try:
        outcome = list(sample_claim_partition(req, reservoirs, PARAMS, config))
    except TilingInfeasible as exc:
        outcome = exc.detail
    if verdict == "accepted":
        assert outcome == [[{z} for z in free]]
    else:
        assert outcome == "no acceptable partition in 1 attempts (failures: {'bad-count': 1})"


def test_reservoirs_refuse_a_slot_without_a_conflict_free_set():
    # Every vertex outside the pairs conflicts with the pair vertex 0, so
    # the one reservoir slot between the two pairs has no candidate.
    req = request(8, [(0, 1), (2, 3)], [(0, v) for v in range(4, 8)])
    with pytest.raises(TilingInfeasible) as err:
        build_path_tiling(req, PARAMS, PipelineConfig(seed=1))
    assert (err.value.stage, err.value.detail) == (
        "reservoirs", "no conflict-free set of size 1 for slot 1"
    )


# Definition-level references: a block is good when its extended set holds
# no conflict edge but its pair, very bad when it is bad and no single
# removal of one of its vertices makes it good, and repair tries each move
# by making it and rescanning.

def reference_good(req, reservoirs, parts, p):
    around = set(parts[p]) | set(req.pairs[p]) | set(reservoirs[p]) | set(reservoirs[p + 1])
    return all(set(e) == set(req.pairs[p]) for e in req.conflicts.edges_inside(around))


def reference_very_bad(req, reservoirs, parts, p):
    if reference_good(req, reservoirs, parts, p):
        return False
    return not any(
        reference_good(req, reservoirs, parts[:p] + [parts[p] - {z}] + parts[p + 1:], p)
        for z in parts[p]
    )


def reference_repair(req, reservoirs, parts):
    parts = [set(p) for p in parts]
    mt = req.pair_count
    bad = [p for p in range(mt) if not reference_good(req, reservoirs, parts, p)]
    targets = [q for q in range(mt) if q not in bad]
    for p in bad:
        movable = [z for z in sorted(parts[p])
                   if reference_good(req, reservoirs, parts[:p] + [parts[p] - {z}] + parts[p + 1:], p)]
        moved = False
        for z in movable:
            for q in targets:
                if reference_good(req, reservoirs, parts[:q] + [parts[q] | {z}] + parts[q + 1:], q):
                    parts[p].discard(z)
                    parts[q].add(z)
                    targets.remove(q)
                    moved = True
                    break
            if moved:
                break
    return parts


@st.composite
def claim_draws(draw):
    """A structural k = 3 request whose free vertices are dealt round-robin
    after a shuffle, so every block holds c or c + 1 of them, with c the
    window's centre (t - 1)(k - 1): sizes the window always admits."""
    t = draw(st.integers(1, 2))
    mt = draw(st.integers(2, 6))
    centre = 2 * (t - 1)
    n = 3 * mt - 1 + centre * mt + draw(st.integers(1, mt))
    cap = 2 * t * 9
    degree = [0] * n
    conflicts = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)):
        if u != v and (min(u, v), max(u, v)) not in conflicts and max(degree[u], degree[v]) < cap:
            conflicts.append((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
    req = TilingRequest(Hypergraph(n, 3, ()), tuple((2 * p, 2 * p + 1) for p in range(mt)),
                        PairGraph.from_pairs(conflicts), t)
    return req, draw(st.randoms(use_true_random=False))


@settings(max_examples=300, deadline=None)
@given(claim_draws())
def test_gates_and_repair_match_the_definitions(drawn):
    req, rng = drawn
    mt = req.pair_count
    try:
        reservoirs = choose_reservoirs(req)
    except TilingInfeasible:
        return
    taken = req.pair_vertices | {v for w in reservoirs for v in w}
    free = sorted(set(range(req.graph.n)) - taken)
    order = free[:]
    rng.shuffle(order)
    block = {v: i % mt for i, v in enumerate(order)}
    parts = [{v for v in free if block[v] == p} for p in range(mt)]
    assert repair_bad_parts(req, reservoirs, parts) == reference_repair(req, reservoirs, parts)

    if any(reference_very_bad(req, reservoirs, parts, p) for p in range(mt)):
        expected = "no-very-bad"
    elif sum(not reference_good(req, reservoirs, parts, p) for p in range(mt)) > 27 * req.path_len ** 3:
        expected = "bad-count"
    else:
        expected = "accepted"
    config = PipelineConfig(seed=0, claim_budget=1, structural=True)
    try:
        with mock.patch.object(tiling, "stream", lambda *key: FixedDraw([block[v] for v in free])):
            accepted = list(sample_claim_partition(req, reservoirs, PARAMS, config))
        verdict = "accepted" if accepted == [parts] else accepted
    except TilingInfeasible as exc:
        verdict = exc.detail
    if expected != "accepted":
        expected = f"no acceptable partition in 1 attempts (failures: {{'{expected}': 1}})"
    assert verdict == expected
