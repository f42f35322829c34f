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
from loosehc.hypergraph import FormatError, Hypergraph, InvalidInput


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
