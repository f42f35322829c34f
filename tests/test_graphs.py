from hypothesis import given, settings, strategies as st

import pytest

from loosehc.graphs import Digraph, PairGraph
from loosehc.hypergraph import InvalidInput

pairs = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(pairs, max_size=20), st.sets(st.integers(0, 9), max_size=6))
def test_contained_pairs_matches_edges_inside(edges, vertices):
    graph = PairGraph.from_pairs(edges)
    assert graph.contained_pairs(vertices) == bool(graph.edges_inside(vertices))


@pytest.mark.parametrize("make, message", [
    (lambda: PairGraph.from_pairs([(0, 1), (3, 3)]), r"pair \(3, 3\) must be sorted and distinct"),
    (lambda: PairGraph(frozenset({(2, 1)})), r"pair \(2, 1\) must be sorted and distinct"),
    (lambda: Digraph.from_arcs(3, [(0, 1), (2, 2)]), r"bad arc \(2, 2\)"),
    (lambda: Digraph.from_arcs(3, [(0, 3)]), r"bad arc \(0, 3\)"),
], ids=["loop-pair", "unsorted-pair", "loop-arc", "arc-off-graph"])
def test_degenerate_pairs_and_arcs_are_invalid_input(make, message):
    with pytest.raises(InvalidInput, match=message):
        make()
