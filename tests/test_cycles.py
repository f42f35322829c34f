import pytest
from hypothesis import given, settings, strategies as st

from loosehc.cycles import (
    LooseCycle,
    LoosePath,
    TightCycle,
    Violation,
    entry_exit,
    increasing_path,
    parse_vertex_line,
    subpath_run,
    validate_loose_cycle,
    validate_tight_cycle,
)
from loosehc.hypergraph import FormatError, Hypergraph, InvalidInput


def h8_graph():
    return Hypergraph.from_edges(
        8, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7)]
    )


def h8():
    cycle = validate_loose_cycle(h8_graph(), range(8))
    assert isinstance(cycle, LooseCycle)
    return cycle


def test_validate_loose_cycle_accepts_h8():
    cycle = h8()
    assert cycle.edge_sequence == (
        (0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7)
    )


def test_validate_loose_cycle_missing_edge():
    g = Hypergraph.from_edges(8, 3, [(0, 1, 2), (4, 5, 6), (0, 6, 7)])
    result = validate_loose_cycle(g, range(8))
    assert isinstance(result, Violation)
    assert result.kind == "missing-edge"
    assert result.position == 1


def test_validate_loose_cycle_divisibility():
    g = Hypergraph.complete(7, 3)
    result = validate_loose_cycle(g, range(7))
    assert isinstance(result, Violation)
    assert result.kind == "divisibility"


@pytest.mark.parametrize("k", [1, 0, -1])
def test_loose_cycle_refuses_uniformity_below_2(k):
    with pytest.raises(InvalidInput, match="^uniformity must be >= 2$"):
        LooseCycle(tuple(range(6)), k)


def test_validate_loose_cycle_repeats():
    result = validate_loose_cycle(h8_graph(), [0, 1, 2, 3, 4, 5, 6, 6])
    assert isinstance(result, Violation)
    assert result.kind == "repeated-vertex"


def test_loose_path_shape():
    p = LoosePath((0, 1, 2, 3, 4), 3)
    assert p.length == 2
    assert p.edges == ((0, 1, 2), (2, 3, 4))
    assert p.endvertices == {0, 4}
    assert p.interior == {1, 2, 3}
    with pytest.raises(InvalidInput):
        LoosePath((0, 1, 2, 3), 3)


def test_loose_path_vertex_count_property():
    for t in range(1, 4):
        for k in (2, 3, 4):
            vertices = tuple(range(t * (k - 1) + 1))
            assert LoosePath(vertices, k).length == t


def test_increasing_path_examples():
    cycle = h8()
    assert increasing_path(cycle, (0, 1, 2), 2).vertices == (0, 1, 2, 3, 4)
    assert increasing_path(cycle, (0, 6, 7), 1).vertices == (6, 7, 0)
    assert increasing_path(cycle, (0, 6, 7), 2).vertices == (6, 7, 0, 1, 2)
    with pytest.raises(InvalidInput):
        increasing_path(cycle, (0, 1, 2), 5)


def test_increasing_path_full_traversal_covers_every_edge():
    cycle = h8()
    for e in cycle.edge_sequence:
        path = increasing_path(cycle, e, cycle.edge_count)
        assert sorted(path.edges) == sorted(cycle.edge_sequence)


def test_canonical_form_identifies_rotations_and_reflections():
    base = list(range(8))
    rotated = base[2:] + base[:2]  # rotations move by whole edges (k-1 steps)
    reflected = [base[0], *reversed(base[1:])]  # reflections fix a connection
    forms = {LooseCycle(tuple(seq), 3) for seq in (base, rotated, reflected)}
    assert len(forms) == 1


def test_canonical_form_sorts_interiors():
    # k = 4: edge interiors have two vertices whose order is presentation only.
    seq_a = (0, 1, 2, 3, 4, 5, 6, 7, 8)
    seq_b = (0, 2, 1, 3, 4, 5, 6, 7, 8)
    assert LooseCycle(seq_a, 4) == LooseCycle(seq_b, 4)
    assert LooseCycle(seq_a, 4).edge_sequence == LooseCycle(seq_b, 4).edge_sequence


def reference_canonical(seq, k):
    """The least candidate over every rotation by whole edges of both
    directions, each taken only when it starts at its least edge, with
    edge interiors sorted."""
    n, step = len(seq), k - 1
    candidates = []
    for direction in (list(seq), [seq[0], *reversed(seq[1:])]):
        for r in range(0, n, step):
            rotated = direction[r:] + direction[:r]
            ring = rotated + rotated[:1]
            edges = [sorted(ring[i: i + k]) for i in range(0, n, step)]
            if edges[0] != min(edges):
                continue
            normal = []
            for i in range(0, n, step):
                normal += [rotated[i], *sorted(rotated[i + 1: i + step])]
            candidates.append(tuple(normal))
    return min(candidates)


@st.composite
def cycle_sequences(draw):
    k = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(3, 6)) * (k - 1)
    labels = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    return labels, k


@settings(max_examples=300, deadline=None)
@given(cycle_sequences())
def test_canonical_form_matches_reference(case):
    seq, k = case
    assert LooseCycle(tuple(seq), k).vertices == reference_canonical(seq, k)


def test_subpath_run_and_entry_exit():
    cycle = h8()
    p = increasing_path(cycle, (0, 6, 7), 2)
    assert subpath_run(cycle, p) == (3, 2)
    assert entry_exit(cycle, p) == (6, 2)
    q = increasing_path(cycle, (0, 1, 2), 1)
    assert entry_exit(cycle, q) == (0, 2)


def test_entry_exit_rejects_mislabeled_endpoints():
    cycle = h8()
    # A single edge presented with a non-structural endpoint pair.
    p = LoosePath((0, 2, 1), 3)
    with pytest.raises(InvalidInput):
        entry_exit(cycle, p)


def test_validate_tight_cycle_examples():
    g = Hypergraph.complete(5, 3)
    assert isinstance(validate_tight_cycle(g, range(5)), TightCycle)

    parts = Hypergraph.from_edges(
        6, 3,
        [e for e in Hypergraph.complete(6, 3).edges
         if len({v // 2 for v in e}) == 2],
    )
    assert isinstance(validate_tight_cycle(parts, [0, 1, 2, 3, 4, 5]), TightCycle)

    missing = Hypergraph.from_edges(5, 3, Hypergraph.complete(5, 3).edges[1:])
    result = validate_tight_cycle(missing, range(5))
    assert isinstance(result, Violation)
    assert result.kind == "missing-window"


def test_parse_vertex_line():
    assert parse_vertex_line("3 1 4 1") == (3, 1, 4, 1)
    assert parse_vertex_line("# a cycle\n3 1\n\n4 1\n") == (3, 1, 4, 1)
    with pytest.raises(InvalidInput):
        parse_vertex_line("3 x")
    with pytest.raises(FormatError) as err:
        parse_vertex_line("# a cycle\n3 1\n4 x\n")
    assert err.value.line == 3
