import pytest

from loosehc import tiling
from loosehc.constructions import first_prefix_colouring
from loosehc.graphs import PairGraph
from loosehc.hypergraph import Hypergraph, InvalidInput, Parameters, PipelineConfig
from loosehc.tiling import (
    TilingInfeasible,
    TilingRequest,
    build_path_tiling,
    check_reservoirs,
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
    parts, stats = sample_claim_partition(req, reservoirs, PARAMS, cfg)
    assert len(parts) == 2
    assert stats.attempts >= 1
    free = set(range(14)) - {0, 1, 7, 8} - set(reservoirs[1])
    assert parts[0] | parts[1] == free


def test_sample_claim_partition_deterministic():
    req = request(14, [(0, 1), (7, 8)])
    reservoirs = choose_reservoirs(req)
    a, _ = sample_claim_partition(req, reservoirs, PARAMS, PipelineConfig(seed=9))
    b, _ = sample_claim_partition(req, reservoirs, PARAMS, PipelineConfig(seed=9))
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


def test_repair_strict_raises_without_targets():
    # One block holding all of a two-edge matching is very bad: strict
    # repair refuses, best-effort passes it through for the oracle stage.
    req = request(7, [(0, 1)], conflicts=[(2, 3), (4, 5)], t=3)
    reservoirs = choose_reservoirs(req)
    parts = [set(range(7)) - {0, 1}]
    with pytest.raises(TilingInfeasible):
        repair_bad_parts(req, reservoirs, parts)
    passed_through = repair_bad_parts(req, reservoirs, parts, best_effort=True)
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
    parts, _ = sample_claim_partition(req, reservoirs, PARAMS, PipelineConfig(seed=1))
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


def test_validate_path_tiling_catches_bad_endpoints():
    req = request(7, [(0, 1)], t=3)
    tiling = build_path_tiling(req, PARAMS, PipelineConfig(seed=3))
    wrong = TilingRequest(req.graph, ((0, 2),), req.conflicts, req.path_len)
    report = validate_path_tiling(wrong, tiling)
    assert not report.ok
    assert report.conditions["endpoints"] is False
