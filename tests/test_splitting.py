from itertools import combinations, permutations, product

import pytest

from loosehc import splitting
from loosehc.colouring import Colouring
from loosehc.cycles import LooseCycle, LoosePath, Violation, increasing_path, validate_loose_cycle
from loosehc.hypergraph import Hypergraph, InvalidInput
from loosehc.splitting import (
    Rerouting,
    Splitting,
    TransversePartition,
    is_suitable,
    is_switching,
    is_transverse,
    is_viable,
    partition_is_transverse,
    rerouting_cycle_count,
    same_path,
    search_quota_rerouting,
    validate_rerouting,
    validate_splitting,
)


def h8():
    g = Hypergraph.from_edges(8, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7)])
    cycle = validate_loose_cycle(g, range(8))
    assert isinstance(cycle, LooseCycle)
    return cycle


def h8_split():
    cycle = h8()
    paths = (LoosePath((0, 1, 2), 3), LoosePath((4, 5, 6), 3))
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    return s


def test_validate_splitting_examples():
    cycle = h8()
    ok = validate_splitting(
        cycle, (LoosePath((0, 1, 2), 3), LoosePath((4, 5, 6), 3)), "balanced", 1
    )
    assert isinstance(ok, Splitting)

    wrong_len = validate_splitting(
        cycle, (LoosePath((0, 1, 2), 3), LoosePath((4, 5, 6), 3)), "balanced", 2
    )
    assert isinstance(wrong_len, Violation) and wrong_len.kind == "length"

    overlap = validate_splitting(
        cycle, (LoosePath((0, 1, 2), 3), LoosePath((2, 3, 4), 3)), "balanced", 1
    )
    assert isinstance(overlap, Violation) and overlap.kind == "overlap"

    foreign = validate_splitting(
        cycle, (LoosePath((1, 2, 3), 3),), "balanced", 1
    )
    assert isinstance(foreign, Violation) and foreign.kind == "non-subpath"


def test_splitting_derived_sets():
    s = h8_split()
    assert s.vertex_set == {0, 1, 2, 4, 5, 6}
    assert s.endvertices == {0, 2, 4, 6}
    assert s.interiors == {1, 5}
    assert s.path_of[5] == 1


def test_is_transverse():
    s = h8_split()
    assert is_transverse(s, {0, 4}) is True
    assert is_transverse(s, {0, 2}) is False
    assert is_transverse(s, set()) is True
    with pytest.raises(InvalidInput):
        is_transverse(s, {0, 3})


def test_host_arcs():
    s = h8_split()
    arcs = {tuple(a) for a in s.host_arcs}
    assert arcs == {(2, 3, 4), (6, 7, 0)}


def test_validate_rerouting_h8_pairings():
    s = h8_split()
    identity = validate_rerouting(s, [(0, 2), (4, 6)])
    assert isinstance(identity, Rerouting)
    cross = validate_rerouting(s, [(0, 4), (2, 6)])
    assert isinstance(cross, Rerouting)
    bad = validate_rerouting(s, [(2, 4), (0, 6)])
    assert isinstance(bad, Violation) and bad.kind == "multiple-cycles"

    not_pairing = validate_rerouting(s, [(0, 2), (4, 5)])
    assert isinstance(not_pairing, Violation) and not_pairing.kind == "not-a-pairing"


def test_rerouting_agrees_with_union_find_on_h8():
    s = h8_split()
    endpoints = sorted(s.endvertices)
    seen = set()
    for a_partner in endpoints[1:]:
        rest = [v for v in endpoints[1:] if v != a_partner]
        pairing = [(endpoints[0], a_partner), tuple(rest)]
        key = frozenset(frozenset(p) for p in pairing)
        if key in seen:
            continue
        seen.add(key)
        traversal = validate_rerouting(s, pairing)
        assert isinstance(traversal, Rerouting) == (rerouting_cycle_count(s, pairing) == 1)


def all_balanced_splittings(cycle, length, count):
    """Every count-path splitting of the cycle into length-`length` runs."""
    c = cycle.edge_count
    out = []
    for starts in combinations(range(c), count):
        paths = []
        ok = True
        for p in starts:
            for q in starts:
                if p != q and (q - p) % c <= length:
                    ok = False
        if not ok:
            continue
        paths = [increasing_path(cycle, cycle.edge_sequence[p], length) for p in starts]
        s = validate_splitting(cycle, paths, "balanced", length)
        if isinstance(s, Splitting):
            out.append(s)
    return out


def test_rerouting_traversal_vs_union_find_bigger_host():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    for s in all_balanced_splittings(cycle, 1, 3):
        endpoints = sorted(s.endvertices)
        for pairing in _perfect_matchings(endpoints):
            traversal = validate_rerouting(s, pairing)
            count = rerouting_cycle_count(s, pairing)
            assert isinstance(traversal, Rerouting) == (count == 1)


def _perfect_matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _perfect_matchings(rest):
            yield [(first, items[i])] + sub


def identity_pairs(splitting):
    return [tuple(sorted(p.endvertices)) for p in splitting.paths]


def test_identity_pairing_always_validates():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    for count in (1, 2, 3):
        for s in all_balanced_splittings(cycle, 1, count):
            assert isinstance(validate_rerouting(s, identity_pairs(s)), Rerouting)


def test_is_switching_identity_fails_anchor_condition():
    s = h8_split()
    anchor = s.paths[0]
    report = is_switching(anchor, s.host, s, s.host, s)
    assert not report.ok
    assert report.conditions["shape"] is True
    assert report.conditions["anchor-transverse"] is False
    assert report.conditions["outside-unchanged"] is True


def test_is_switching_detects_outside_change():
    g = Hypergraph.complete(8, 3)
    cycle = validate_loose_cycle(g, range(8))
    paths = (LoosePath((0, 1, 2), 3), LoosePath((4, 5, 6), 3))
    s = validate_splitting(cycle, paths, "balanced", 1)
    # Swap vertices 3 and 7: both changed edges avoid the interiors {1, 5}.
    other = validate_loose_cycle(g, (0, 1, 2, 7, 4, 5, 6, 3))
    assert isinstance(other, LooseCycle)
    s2 = validate_splitting(other, paths, "balanced", 1)
    assert isinstance(s2, Splitting)
    report = is_switching(s.paths[0], cycle, s, other, s2, graph=g)
    assert not report.ok
    assert report.conditions["outside-unchanged"] is False


def test_is_suitable_injective_reduces_to_host_edge_count():
    g = Hypergraph.complete(14, 3)
    cycle = validate_loose_cycle(g, range(14))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    report = is_suitable(s, s.paths[0], Colouring.injective(g), g, epsilon=0.2)
    assert report.ok, str(report)


def test_is_suitable_detects_heavy_colour_set():
    # One colour everywhere: every edge repeats a host colour, so the first
    # transverse pair outside the anchor lies in too many of them.
    g = Hypergraph.complete(14, 3)
    cycle = validate_loose_cycle(g, range(14))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    chi = Colouring.constant(g)
    report = is_suitable(s, s.paths[0], chi, g, epsilon=0.2)
    assert not report.ok
    assert report.conditions["heavy-colour-set"] is False
    assert report.witnesses["heavy-colour-set"] == {"set": (4, 8), "count": 7}
    host_colours = {chi.colour(e) for e in cycle.edge_sequence}
    assert sum(
        1 for e in g.edges
        if {4, 8} <= set(e) <= s.vertex_set and chi.colour(e) in host_colours
    ) == 7


def test_is_suitable_detects_adjacent_repeat():
    # The union of the offending pair has 2k-1 = 5 vertices, so it needs 5
    # distinct non-anchor paths; use a splitting of size 6.
    g = Hypergraph.complete(24, 3)
    cycle = validate_loose_cycle(g, range(24))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1)
        for p in (0, 2, 4, 6, 8, 10)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    # Path i covers the run [4i, 4i+2]; e and f share only vertex 4 and
    # their union meets paths 1..5 once each.
    e, f = (4, 8, 12), (4, 16, 20)
    assignment = list(range(len(g.edges)))
    idx = {edge: i for i, edge in enumerate(g.edges)}
    assignment[idx[f]] = assignment[idx[e]]
    chi = Colouring(g, tuple(assignment))
    report = is_suitable(s, s.paths[0], chi, g, epsilon=0.2)
    assert not report.ok
    assert report.conditions["adjacent-repeat"] is False


def test_is_suitable_detects_disjoint_repeat_without_support():
    g = Hypergraph.complete(26, 3)
    cycle = validate_loose_cycle(g, range(26))
    # Path i sits at edge position 2i and covers the vertex run [4i, 4i+2].
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1)
        for p in (0, 2, 4, 6, 8, 10)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    e = (4, 8, 12)    # meets paths 1, 2, 3
    f = (13, 16, 20)  # meets paths 3, 4, 5: exactly one common path
    assignment = list(range(len(g.edges)))
    idx = {edge: i for i, edge in enumerate(g.edges)}
    assignment[idx[f]] = assignment[idx[e]]
    chi = Colouring(g, tuple(assignment))
    report = is_suitable(s, s.paths[0], chi, g, epsilon=0.2)
    assert not report.ok, str(report)
    assert report.conditions["disjoint-repeat-support"] is False


def test_is_viable_on_complete_host():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    # Transverse partition of the 9 splitting vertices into 3 parts; runs
    # are [0,2], [4,6], [8,10].  Each part holds one entry/exit pair:
    # {4,10}, {2,8}, {0,6}.
    partition = TransversePartition((
        frozenset({1, 4, 10}),
        frozenset({2, 5, 8}),
        frozenset({0, 6, 9}),
    ))
    assert partition_is_transverse(s, partition)
    report = is_viable(s, partition, g, epsilon=0.2, pairs_per_part=1,
                       threshold=0.0, j=1)
    assert report.ok, str(report)
    rerouting = report.witnesses["pair-quota"]
    per_part = [0, 0, 0]
    for a, b in rerouting.pairs:
        ha = partition.part_of[a]
        assert ha == partition.part_of[b]
        per_part[ha] += 1
    assert per_part == [1, 1, 1]


def test_is_viable_fails_on_quota():
    g = Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    # Put both endpoints of no pair in one part: a partition whose parts
    # cannot host any rerouting pair quota.  Parts split endpoint/interior:
    partition = TransversePartition((
        frozenset({0, 4, 8}),    # entries
        frozenset({1, 5, 9}),    # interiors
        frozenset({2, 6, 10}),   # exits
    ))
    # entries and exits never share a part, so no within-part pairing exists
    report = is_viable(s, partition, g, epsilon=0.2, pairs_per_part=1,
                       threshold=0.0, j=1)
    assert not report.ok
    assert report.conditions["pair-quota"] is False


def test_is_viable_fails_on_degree():
    g = Hypergraph.complete(12, 3)
    # remove all edges inside one prospective part
    banned = {(1, 5, 9)}
    g2 = Hypergraph.from_edges(12, 3, [e for e in g.edges if e not in banned])
    cycle = validate_loose_cycle(g2, range(12))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    partition = TransversePartition((
        frozenset({0, 4, 8}),
        frozenset({1, 5, 9}),
        frozenset({2, 6, 10}),
    ))
    report = is_viable(s, partition, g2, epsilon=0.2, pairs_per_part=1,
                       threshold=0.0, j=1)
    assert report.conditions["part-degree"] is False


def spaced_splitting(n, count):
    """Paths of one edge at every other edge of the cycle 0..n-1."""
    cycle = validate_loose_cycle(Hypergraph.complete(n, 3), range(n))
    paths = tuple(increasing_path(cycle, cycle.edge_sequence[p], 1) for p in range(0, 2 * count, 2))
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    return s


def test_quota_rerouting_agrees_with_a_brute_force_on_every_partition():
    # Every transverse partition of the K12 splitting (0 1 2), (4 5 6),
    # (8 9 10): both routes of the search against all quota pairings of
    # the endpoints that validate_rerouting accepts.
    s = spaced_splitting(12, 3)
    found_any = 0
    for orders in product(permutations(range(3)), repeat=3):
        partition = TransversePartition(tuple(
            frozenset(p.vertices[order[h]] for p, order in zip(s.paths, orders))
            for h in range(3)
        ))
        part_of = partition.part_of
        valid = {
            tuple(sorted(tuple(sorted(pair)) for pair in pairing))
            for pairing in _perfect_matchings(sorted(s.endvertices))
            if all(part_of[a] == part_of[b] for a, b in pairing)
            and sorted(part_of[a] for a, _ in pairing) == [0, 1, 2]
            and isinstance(validate_rerouting(s, pairing), Rerouting)
        }
        found = search_quota_rerouting(s, partition, 1)
        assert (found.pairs in valid) if found is not None else not valid
        found_any += found is not None
    assert found_any == 24  # of the 216 ordered partitions


def test_quota_rerouting_matches_exhaustively_when_a_part_holds_two_entries(monkeypatch):
    # Entries 0 and 4 share a part, so the per-part quota of entries fails
    # and the dicycle route is skipped.
    monkeypatch.setattr(splitting, "find_hamilton_dicycle", lambda digraph: pytest.fail())
    s = spaced_splitting(12, 3)
    partition = TransversePartition(
        (frozenset({0, 4, 9}), frozenset({1, 6, 10}), frozenset({2, 5, 8}))
    )
    assert search_quota_rerouting(s, partition, 1) == Rerouting(((0, 4), (2, 8), (6, 10)))


def test_quota_rerouting_is_incomplete_above_size_8():
    # Nine paths with every entry in one part: the dicycle route is skipped
    # and the exhaustive matcher runs only up to size 8.
    s = spaced_splitting(36, 9)
    partition = TransversePartition(tuple(
        frozenset(p.vertices[i] for p in s.paths) for i in range(3)
    ))
    assert search_quota_rerouting(s, partition, 3) == "incomplete"
    report = is_viable(s, partition, Hypergraph.complete(36, 3),
                       epsilon=0.2, pairs_per_part=3, threshold=0.0, j=1)
    assert report.conditions == {"pair-quota": False, "part-degree": True}
    assert report.witnesses == {"pair-quota": "search incomplete for size > 8"}


def test_same_path_ignores_direction():
    assert same_path(LoosePath((0, 1, 2), 3), LoosePath((2, 1, 0), 3))
    assert not same_path(LoosePath((0, 1, 2), 3), LoosePath((0, 2, 1), 3))
