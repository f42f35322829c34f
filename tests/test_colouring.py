import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from loosehc.colouring import (
    Colouring,
    check_global_bound,
    format_colouring,
    is_rainbow,
    parse_colouring,
    shares_colour,
)
from loosehc.hypergraph import FormatError, Hypergraph, InvalidInput, parse_hypergraph


def chain_graph():
    return Hypergraph.from_edges(8, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])


def test_global_bound_examples():
    g = chain_graph()
    # class sizes {3, 2, 1} over six edges
    g6 = Hypergraph.from_edges(8, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4),
                                      (0, 2, 3), (0, 2, 4), (1, 2, 3)])
    chi = Colouring(g6, (0, 0, 0, 1, 1, 2))
    assert check_global_bound(chi, 0.05, 8, 3) is True   # bound 3.2
    assert check_global_bound(chi, 0.04, 8, 3) is False  # bound 2.56
    assert check_global_bound(Colouring.injective(g6), 0.05, 8, 3) is True
    with pytest.raises(InvalidInput):
        check_global_bound(chi, 0.0, 8, 3)


def test_global_bound_monotone_in_mu():
    g = chain_graph()
    chi = Colouring(g, (0, 0, 1))
    values = [check_global_bound(chi, mu, 8, 3) for mu in (0.01, 0.05, 0.2, 0.9)]
    assert values == sorted(values)  # False before True


def test_is_rainbow_examples():
    g = chain_graph()
    chi = Colouring(g, (0, 0, 1))
    assert is_rainbow(chi, []) is True
    assert is_rainbow(chi, [(0, 1, 2), (2, 3, 4)]) is False
    assert is_rainbow(Colouring.injective(g), g.edges) is True
    with pytest.raises(InvalidInput):
        is_rainbow(chi, [(0, 1, 7)])


def test_shares_colour_examples():
    g = chain_graph()
    injective = Colouring.injective(g)
    assert shares_colour(injective, g.edges, g.edges) == []

    chi = Colouring(g, (7, 7, 1))
    e, f = (0, 1, 2), (2, 3, 4)
    assert shares_colour(chi, [e], [e]) == []
    assert shares_colour(chi, [e], [f]) == [(e, f)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_rainbow_iff_no_self_sharing(assignment):
    g = chain_graph()
    chi = Colouring(g, tuple(assignment))
    edges = list(g.edges)
    assert is_rainbow(chi, edges) == (shares_colour(chi, edges, edges) == [])


def test_parse_colouring_roundtrip():
    g = chain_graph()
    chi = Colouring(g, (5, 0, 5))
    assert parse_colouring(format_colouring(chi), g) == chi


def test_parse_colouring_length_mismatch():
    g = chain_graph()
    with pytest.raises(InvalidInput):
        parse_colouring("1\n2\n", g)


@pytest.mark.parametrize("text, line, message", [
    ("0\n# c\nx\n", 3, "non-integer token in 'x'"),
    ("0\n\n1 2\n", 3, "expected one colour, got 2"),
    ("0\n-1\n", 2, "colour must be non-negative, got -1"),
], ids=["token", "count", "negative"])
def test_parse_colouring_reports_bad_lines(text, line, message):
    with pytest.raises(FormatError) as err:
        parse_colouring(text, chain_graph())
    assert err.value.line == line and str(err.value) == f"line {line}: {message}"


def test_colour_ids_must_be_non_negative():
    with pytest.raises(InvalidInput, match="colour ids must be non-negative"):
        Colouring(chain_graph(), (0, -1, 2))
    assert Colouring(Hypergraph(5, 3, ()), ()).assignment == ()


def test_a_colouring_stores_no_copy_of_the_edges():
    # Every colouring of a host reads its colours through the host's one
    # edge index: building one, its by_edge mapping and a lookup allocate
    # far less than a dict entry per edge.
    g = Hypergraph.complete(36, 3)
    assignment = tuple(i % 50 for i in range(len(g.edges)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chi = Colouring(g, assignment)
        by_edge = chi.by_edge
        colour = chi.colour((35, 0, 17))
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert colour == by_edge[(0, 17, 35)] == assignment[g.edges.index((0, 17, 35))]
    assert allocated < 8 * len(g.edges), allocated


def test_edge_set_is_the_host_index():
    g = chain_graph()
    assert g.edge_set is g.edge_index
    assert g.edge_index == {e: i for i, e in enumerate(g.edges)}


def test_host_and_colouring_pickle_with_their_caches():
    g = Hypergraph.complete(9, 3)
    chi = Colouring(g, tuple(i % 7 for i in range(len(g.edges))))
    g.vertex_set, g.by_vertex, chi.class_sizes, chi.by_edge
    h, psi = pickle.loads(pickle.dumps((g, chi)))
    assert h == g and psi == chi and psi.graph is h
    assert h.edge_index == g.edge_index and h.by_vertex == g.by_vertex
    assert psi.class_sizes == chi.class_sizes
    assert dict(psi.by_edge) == dict(chi.by_edge)
    assert [psi.colour(e) for e in h.edges] == list(chi.assignment)


def test_colours_follow_the_file_order_of_a_parsed_host():
    g = parse_hypergraph("3 7\n4 5 6\n0 1 2\n2 3 4\n0 5 6\n1 3 5\n")
    assert list(g.edges) != sorted(g.edges)
    chi = Colouring(g, (4, 0, 3, 1, 0))
    for i, e in enumerate(g.edges):
        assert chi.by_edge[e] == chi.colour(reversed(e)) == chi.assignment[i]
    assert list(chi.by_edge) == list(g.edges) and len(chi.by_edge) == len(g.edges)
    assert (0, 1, 3) not in chi.by_edge
    with pytest.raises(InvalidInput, match=r"edge \(0, 1, 3\) is not in the coloured hypergraph"):
        chi.colour((3, 1, 0))
    assert parse_colouring(format_colouring(chi), g) == chi
