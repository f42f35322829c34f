from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from loosehc.hypergraph import (
    FormatError,
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    data_lines,
    degree,
    edges_within,
    format_hypergraph,
    induced,
    min_j_degree,
    min_j_degree_within,
    parse_hypergraph,
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
    "name", ["sample_budget", "partition_budget", "partition_tries", "claim_budget"]
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


def test_data_lines_numbers_each_data_line():
    assert list(data_lines("# head\n\n 1 2 \n#\n3\n")) == [(3, (1, 2)), (5, (3,))]
    with pytest.raises(FormatError, match="^line 2: non-integer token in '1 x'$"):
        list(data_lines("# head\n1 x\n"))


def test_parse_ignores_comments_and_blanks():
    g = parse_hypergraph("# header\n3 6\n\n0 1 2\n# done\n")
    assert g.edges == ((0, 1, 2),)
