from itertools import combinations, permutations
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loosehc.hypergraph import (
    FormatError,
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    _index_edge_by_edge,
    cached_property,
    data_lines,
    degree,
    edges_within,
    format_hypergraph,
    induced,
    min_j_degree,
    min_j_degree_within,
    parse_hypergraph,
    relabelled,
    relative_degree,
)


def test_degree_complete_examples():
    g = Hypergraph.complete(5, 3)
    assert degree(g, {0, 1}) == 3
    assert degree(g, {0}) == 6
    empty = Hypergraph(5, 3, ())
    assert degree(empty, {0, 1}) == 0


def test_degree_rejects_large_sets():
    g = Hypergraph.complete(5, 3)
    with pytest.raises(InvalidInput):
        degree(g, {0, 1, 2, 3})
    with pytest.raises(InvalidInput):
        degree(g, {0, 9})


def test_relative_degree_examples():
    g = Hypergraph.complete(5, 3)
    assert relative_degree(g, {0}, {1, 2, 3}) == 3
    assert relative_degree(g, {0}, set()) == 0
    g6 = Hypergraph.complete(6, 3)
    assert relative_degree(g6, {0, 1}, {2, 3}) == 2


def test_relative_degree_names_a_vertex_outside_the_host():
    g = Hypergraph.complete(5, 3)
    assert relative_degree(g, {0}, {1, 4}) == 1
    with pytest.raises(InvalidInput, match=r"^S contains vertex 5 outside \[0, 5\)$"):
        relative_degree(g, {5}, {1, 2})
    with pytest.raises(InvalidInput, match=r"^W contains vertex -1 outside \[0, 5\)$"):
        relative_degree(g, {0}, {1, -1})


def test_min_j_degree_examples():
    g = Hypergraph.complete(6, 3)
    assert min_j_degree(g, 2) == 4
    isolated = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
    assert min_j_degree(isolated, 1) == 0
    with pytest.raises(InvalidInput):
        min_j_degree(g, 3)


def test_min_j_degree_complete_formula():
    from math import comb

    for n, k in [(6, 3), (7, 3), (8, 4)]:
        g = Hypergraph.complete(n, k)
        for j in range(1, k):
            assert min_j_degree(g, j) == comb(n - j, k - j)


def test_induced_examples():
    g = Hypergraph.complete(6, 3)
    sub, old = induced(g, {1, 2, 4, 5})
    assert sub.is_complete() and sub.n == 4
    assert old == (1, 2, 4, 5)

    small, _ = induced(g, {0, 1})
    assert small.edges == ()

    single = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
    sub, old = induced(single, {0, 1, 2})
    assert sub.edges == ((0, 1, 2),) and old == (0, 1, 2)


def test_induced_idempotent():
    g = Hypergraph.from_edges(7, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 6)])
    sub, _ = induced(g, {0, 1, 2, 4, 6})
    again, _ = induced(sub, range(sub.n))
    assert again == sub


# Each bad host with the error it has always raised: the first bad edge
# in edge order is named, whichever check it fails.
BAD_HOSTS = [
    ("wrong length", ((0, 1, 2), (0, 1)), InvalidInput,
     "edge (0, 1) does not have 3 distinct vertices"),
    ("lengths that add up to m*k", ((0, 1, 2, 3), (4, 5)), InvalidInput,
     "edge (0, 1, 2, 3) does not have 3 distinct vertices"),
    ("repeated vertex", ((0, 0, 1),), InvalidInput,
     "edge (0, 0, 1) does not have 3 distinct vertices"),
    ("unsorted", ((0, 2, 1),), InvalidInput, "edge (0, 2, 1) is not sorted"),
    ("negative vertex", ((-1, 0, 1),), InvalidInput,
     "edge (-1, 0, 1) has a vertex outside [0, 9)"),
    ("vertex >= n", ((0, 1, 9),), InvalidInput,
     "edge (0, 1, 9) has a vertex outside [0, 9)"),
    ("vertex >= 2^63", ((0, 1, 2 ** 63),), InvalidInput,
     f"edge (0, 1, {2 ** 63}) has a vertex outside [0, 9)"),
    ("fractional negative vertex", ((-0.5, 1, 2),), InvalidInput,
     "edge (-0.5, 1, 2) has a vertex outside [0, 9)"),
    ("duplicate", ((0, 1, 2), (1, 2, 3), (0, 1, 2)), InvalidInput,
     "duplicate edge (0, 1, 2)"),
    ("list edge", ([0, 1, 2],), TypeError, "unhashable type: 'list'"),
    ("text vertices", (("0", "1", "2"),), TypeError,
     "'<' not supported between instances of 'str' and 'int'"),
    ("several bad edges", ((0, 1, 2), (0, 2, 1), (0, 1, 9), (0, 0, 1), (0, 1, 2)),
     InvalidInput, "edge (0, 2, 1) is not sorted"),
    ("several bad edges, out of range first", ((1, 2, 3), (0, 1, 9), (0, 0, 1)),
     InvalidInput, "edge (0, 1, 9) has a vertex outside [0, 9)"),
]


@pytest.mark.parametrize(
    "edges, error, message",
    [case[1:] for case in BAD_HOSTS],
    ids=[case[0] for case in BAD_HOSTS],
)
def test_a_bad_host_is_refused_naming_its_first_bad_edge(edges, error, message):
    with pytest.raises(error) as raised:
        Hypergraph(9, 3, edges)
    assert type(raised.value) is error and str(raised.value) == message


def test_integer_like_vertices_and_no_edges_are_accepted():
    g = Hypergraph(5, 3, ((np.int64(0), np.int64(1), np.int64(4)), (np.uint8(1), 2, 3)))
    assert g.edge_index == {(0, 1, 4): 0, (1, 2, 3): 1}
    assert Hypergraph(5, 3, ()).edge_index == {}
    # Vertices past 64 bits are checked one edge at a time, as ever.
    huge = Hypergraph(2 ** 64, 2, ((0, 2 ** 63), (2 ** 63, 2 ** 64 - 1)))
    assert huge.edge_index == {(0, 2 ** 63): 0, (2 ** 63, 2 ** 64 - 1): 1}


def outcome(build):
    try:
        return build()
    except (InvalidInput, TypeError) as error:
        return type(error), str(error)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_bulk_checks_agree_with_the_per_edge_checks(data):
    # The per-edge loop is the reference: the same index for a good host,
    # the same error for a bad one.  Vertex counts straddle the array's
    # integer widths.
    n = data.draw(st.sampled_from([0, 4, 7, 127, 128, 129, 2 ** 15, 2 ** 63]))
    k = data.draw(st.integers(2, 4))
    vertex = st.one_of(st.integers(-2, 9), st.integers(n - 2, n + 2))
    edge = st.lists(vertex, min_size=k - 1, max_size=k + 1).map(tuple)
    sorted_edge = st.lists(vertex, min_size=k, max_size=k, unique=True).map(
        lambda e: tuple(sorted(e))
    )
    edges = tuple(data.draw(st.lists(st.one_of(edge, sorted_edge, sorted_edge), max_size=8)))
    expected = outcome(lambda: _index_edge_by_edge(edges, n, k))
    assert outcome(lambda: Hypergraph(n, k, edges).edge_index) == expected


@pytest.mark.parametrize("n, k", [(12, 3), (10, 4)])
def test_relabelled_equals_the_checked_host(n, k):
    g = Hypergraph.complete(n, k)
    rng = Random(n * k)
    for _ in range(30):
        old_ids = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        inside = edges_within(g, old_ids)
        kept = [e for e in inside if rng.random() < 0.7]
        for edges in (inside, kept):
            sub = relabelled(g, old_ids, edges)
            checked = Hypergraph(len(old_ids), k, tuple(
                tuple(old_ids.index(v) for v in e) for e in edges
            ))
            assert sub == checked and sub.edge_index == checked.edge_index


def test_contains_answers_for_any_order_and_container():
    g = Hypergraph.from_edges(6, 3, [(0, 2, 4), (1, 3, 5)])
    for e in [(0, 2, 4), (1, 3, 5)]:
        for order in permutations(e):
            assert g.contains(order) and g.contains(list(order))
        assert g.contains(frozenset(e)) and g.contains(iter(e))
    for e in [(0, 1, 2), (4, 2), (0, 2, 4, 5)]:
        for order in permutations(e):
            assert not g.contains(order) and not g.contains(list(order))


def test_cached_property_computes_once_and_stores_the_value():
    calls = []

    class Box:
        @cached_property
        def value(self):
            """The value."""
            calls.append(1)
            return 42

    box = Box()
    assert box.value == 42 and box.value == 42 and calls == [1]
    assert box.__dict__["value"] == 42
    assert Box.value.__doc__ == "The value."


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(4, 7))
    k = draw(st.integers(2, 3))
    g = Hypergraph.complete(n, k)
    chosen = draw(st.sets(st.sampled_from(g.edges), max_size=12))
    return Hypergraph.from_edges(n, k, sorted(chosen))


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.data())
def test_degree_double_counting(g, data):
    size = data.draw(st.integers(0, g.k - 1))
    s = frozenset(data.draw(st.permutations(range(g.n)))[:size])
    rest = [v for v in range(g.n) if v not in s]
    total = sum(
        relative_degree(g, s | {v}, set(range(g.n)) - s - {v}) for v in rest
    )
    assert degree(g, s) * (g.k - len(s)) == total


@st.composite
def hosts_with_sets(draw):
    """A host of any density with a vertex set s (|s| <= k, maybe empty)
    and a target w that may meet s, from a single vertex to all of them."""
    n = draw(st.integers(4, 8))
    k = draw(st.integers(2, min(4, n - 1)))
    complete = Hypergraph.complete(n, k)
    chosen = draw(st.sets(st.sampled_from(complete.edges)))
    g = Hypergraph.from_edges(n, k, sorted(chosen))
    s = frozenset(draw(st.permutations(range(n)))[:draw(st.integers(0, k))])
    w = draw(st.sets(st.integers(0, n - 1)))
    return g, s, w


@settings(max_examples=150, deadline=None)
@given(hosts_with_sets())
def test_relative_degree_matches_bruteforce(case):
    g, s, w = case
    expected = sum(1 for e in g.edges if s <= set(e) and set(e) - s <= w)
    assert relative_degree(g, s, w) == expected


@settings(max_examples=100, deadline=None)
@given(hosts_with_sets())
def test_min_j_degree_within_matches_bruteforce(case):
    g, _, w = case
    for j in range(1, min(g.k - 1, len(w)) + 1):
        expected = min(
            sum(1 for e in g.edges if set(s) <= set(e) <= w)
            for s in combinations(sorted(w), j)
        )
        assert min_j_degree_within(g, w, j) == expected


def test_relative_degree_on_a_small_part_leaves_the_index_unbuilt():
    # Only the three completions inside the part are looked up; the 1,711
    # edges through vertex 0 are never listed, so the per-vertex index is
    # never built.
    g = Hypergraph.complete(60, 3)
    assert relative_degree(g, {0}, {1, 2, 3}) == 3
    assert "by_vertex" not in g.__dict__


def test_edges_within_matches_bruteforce():
    g = Hypergraph.complete(7, 3)
    w = {0, 2, 3, 5}
    expected = [e for e in g.edges if set(e) <= w]
    assert sorted(edges_within(g, w)) == sorted(expected)


def test_parameters_identities():
    p = Parameters(k=3, j=1, path_len=2, pairs_per_part=2,
                   epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5)
    assert p.part_count == 5
    assert p.split_size == 10
    assert p.sample_size == 50


def test_parameters_validation():
    with pytest.raises(InvalidInput):
        Parameters(k=3, j=3, path_len=1, pairs_per_part=1,
                   epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5)
    with pytest.raises(InvalidInput):
        Parameters(k=3, j=1, path_len=1, pairs_per_part=1,
                   epsilon=1.5, mu=0.05, gamma=0.01, beta=0.5)


@pytest.mark.parametrize(
    "name", ["sample_budget", "partition_budget", "claim_budget"]
)
def test_pipeline_config_rejects_budgets_below_one(name):
    for value in (0, -1):
        with pytest.raises(InvalidInput, match=name):
            PipelineConfig(**{name: value})
    assert getattr(PipelineConfig(**{name: 1}), name) == 1


def test_pipeline_config_mode_rule():
    small, large = Hypergraph.complete(49, 3), Hypergraph.complete(50, 3)
    assert PipelineConfig().is_structural(small)
    assert not PipelineConfig().is_structural(large)
    for g in (small, large):
        assert PipelineConfig(structural=True).is_structural(g)
        assert not PipelineConfig(structural=False).is_structural(g)


def test_parse_roundtrip():
    g = Hypergraph.from_edges(6, 3, [(0, 1, 2), (1, 3, 5)])
    assert parse_hypergraph(format_hypergraph(g)) == g


def test_parse_reports_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_hypergraph("3 6\n0 1 2\n0 1 2\n")
    assert err.value.line == 3

    with pytest.raises(FormatError) as err:
        parse_hypergraph("3 6\n2 1 0\n")
    assert err.value.line == 2

    with pytest.raises(FormatError) as err:
        parse_hypergraph("3 6\n0 1 9\n")
    assert err.value.line == 2

    # The first bad line is named, whichever check refuses it: the header's
    # k and n, an edge, or a token that is not an integer.
    for text, line in [
        ("3 6\n0 1 2\n0 1\n", 3),            # wrong length
        ("3 6\n0 1 2\n0 1 2 3\n", 3),        # too long
        ("3 6\n# c\n0 0 1\n", 3),            # a repeated vertex
        ("3 6\n0 1 2\n3 4 6\n", 3),          # a vertex >= n
        ("3 6\n-1 0 1\n", 2),                # a negative vertex
        ("1 6\n0\n", 1),                     # k < 2
        ("# c\n\n3 -1\n", 3),                # n < 0
        ("1 -1\n0 x\n", 1),                  # k < 2 before a bad token
        ("3 6\n0 1 9\n0 x\n", 2),            # a bad edge before a bad token
        ("3 6\n0 1 2\n0 x\n0 1 2\n", 3),     # a bad token before a duplicate
        ("3 6\n0 1 2\n1 2 3\n3 4 7\n1 2 3\n", 4),  # the first of two bad edges
    ]:
        with pytest.raises(FormatError) as err:
            parse_hypergraph(text)
        assert err.value.line == line, text


def test_data_lines_numbers_each_data_line():
    assert list(data_lines("# head\n\n 1 2 \n#\n3\n")) == [(3, (1, 2)), (5, (3,))]
    with pytest.raises(FormatError, match="^line 2: non-integer token in '1 x'$"):
        list(data_lines("# head\n1 x\n"))


def test_parse_ignores_comments_and_blanks():
    g = parse_hypergraph("# header\n3 6\n\n0 1 2\n# done\n")
    assert g.edges == ((0, 1, 2),)
