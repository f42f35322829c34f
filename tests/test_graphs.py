from hypothesis import given, settings, strategies as st

from loosehc.graphs import PairGraph

pairs = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(pairs, max_size=20), st.sets(st.integers(0, 9), max_size=6))
def test_contained_pairs_matches_edges_inside(edges, vertices):
    graph = PairGraph.from_pairs(edges)
    assert graph.contained_pairs(vertices) == bool(graph.edges_inside(vertices))
