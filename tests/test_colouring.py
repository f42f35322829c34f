import pickle
import tracemalloc
from array import array

import numpy as np
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
    assert len(Colouring(Hypergraph(5, 3, ()), ()).assignment) == 0


def test_a_colouring_stores_no_copy_of_the_edges():
    # Every colouring of a host reads its colours through the host's one
    # edge index, and its ids below 50 pack into one byte each: building
    # one, its by_edge mapping and a lookup allocate under 2 bytes an edge.
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
    assert allocated < 2 * len(g.edges), allocated


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


@pytest.mark.parametrize("top, typecode", [
    (255, "B"), (256, "H"), (65535, "H"), (65536, "I"),
    (2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q"),
])
def test_ids_pack_into_the_narrowest_unsigned_width(top, typecode):
    chi = Colouring(chain_graph(), (0, top, 1))
    assert chi.assignment.typecode == typecode
    assert list(chi.assignment) == [0, top, 1]
    assert chi.colour((2, 3, 4)) == chi.by_edge[(2, 3, 4)] == top
    assert chi.class_sizes == {0: 1, top: 1, 1: 1}
    assert parse_colouring(format_colouring(chi), chi.graph) == chi


def test_an_id_of_2_to_the_64_is_refused():
    g = chain_graph()
    with pytest.raises(InvalidInput, match=r"colour ids must be below 2\*\*64"):
        Colouring(g, (0, 2**64, 1))
    with pytest.raises(FormatError, match=r"line 3: colour must be below 2\*\*64") as err:
        parse_colouring(f"0\n# a comment\n{2**64}\n1\n", g)
    assert err.value.line == 3


@pytest.mark.parametrize("ids", [(0, 1.5, 2), (300, 1.5, 2), (0, "1", 2), (0, None, 2)],
                         ids=["narrow", "wide", "str", "none"])
def test_a_non_integer_id_is_invalid_input(ids):
    with pytest.raises(InvalidInput, match="colour ids must be integers"):
        Colouring(chain_graph(), ids)


@pytest.mark.parametrize("ids", [(0, -1, 2), (300, -1, 2), [-300, 0, 0]])
def test_a_negative_id_keeps_its_message_at_any_width(ids):
    with pytest.raises(InvalidInput, match="colour ids must be non-negative"):
        Colouring(chain_graph(), ids)


@pytest.mark.parametrize("make", [
    tuple, list, lambda r: r, lambda r: array("I", r), lambda r: array("Q", r),
    lambda r: np.array(r, dtype=np.int64), lambda r: iter(r),
], ids=["tuple", "list", "range", "array-I", "array-Q", "numpy-int64", "iterator"])
@pytest.mark.parametrize("offset", [0, 1000])
def test_every_input_form_packs_by_value(make, offset):
    # bytes() of an array('I') or a numpy array would read 4 or 8 bytes an
    # id; every form must give one entry per edge with the same ids.
    g = Hypergraph.complete(9, 3)
    ids = range(offset, offset + len(g.edges))
    chi = Colouring(g, make(ids))
    assert chi.assignment.typecode == ("B" if offset == 0 else "H")
    assert list(chi.assignment) == list(ids)
    assert chi.colour((6, 7, 8)) == ids[-1]
    assert (chi == Colouring.injective(g)) == (offset == 0)


def test_a_wrongly_sized_buffer_is_not_read_as_raw_bytes():
    # array("I", [1, 2, 3]) holds 12 bytes; read raw, it would look like 12
    # colours of a 12-edge host.
    g = Hypergraph.from_edges(12, 3, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(4)])
    with pytest.raises(InvalidInput, match="colouring has 3 entries for 4 edges"):
        Colouring(g, array("I", [1, 2, 3]))
    with pytest.raises(InvalidInput, match="colouring has 3 entries for 4 edges"):
        Colouring(g, np.array([1, 2, 3], dtype=np.int32))


def test_colourings_from_a_tuple_and_its_packed_array_are_equal_and_hash_equal():
    g = Hypergraph.complete(9, 3)
    for ids in (tuple(i % 7 for i in range(len(g.edges))), tuple(range(300, 384))):
        chi = Colouring(g, ids)
        packed = Colouring(g, chi.assignment)
        assert packed == chi and hash(packed) == hash(chi)
        assert packed.assignment == chi.assignment
        assert packed.assignment is not chi.assignment
        assert len({chi, packed, Colouring(g, list(ids))}) == 1
    assert Colouring(g, (1,) * 84) != Colouring.constant(g)
