from itertools import permutations
from math import factorial

import pytest

from loosehc import oracles
from loosehc.colouring import Colouring
from loosehc.constructions import first_prefix_colouring
from loosehc.cycles import LooseCycle, LoosePath, validate_loose_cycle
from loosehc.graphs import Digraph, PairGraph
from loosehc.hypergraph import Hypergraph, InvalidInput
from loosehc.oracles import (
    EnumerationBudget,
    enumerate_loose_hamilton_cycles,
    exists_rainbow_loose_hc,
    exists_rainbow_tight_hc,
    find_hamilton_dicycle,
    find_loose_hamilton_path,
    find_tight_hamilton_cycle,
    uniform_random_hamilton_cycle,
)


def brute_force_cycles(g: Hypergraph) -> set[LooseCycle]:
    """Independent ordering-level enumeration: validate every vertex
    permutation and deduplicate by canonical form.  (Position 0 of an
    ordering is a connection vertex, so no vertex can be pinned there.)"""
    found = set()
    for ordering in permutations(range(g.n)):
        result = validate_loose_cycle(g, ordering)
        if isinstance(result, LooseCycle):
            found.add(result)
    return found


def test_enumeration_matches_bruteforce_k6():
    g = Hypergraph.complete(6, 3)
    result = enumerate_loose_hamilton_cycles(g)
    assert result.complete
    assert set(result.cycles) == brute_force_cycles(g)
    assert len(result.cycles) == 120  # n! / (c * 2 * ((k-2)!)^c)


def test_enumeration_matches_bruteforce_sparse():
    base = Hypergraph.complete(6, 3)
    g = Hypergraph.from_edges(6, 3, base.edges[::2])
    result = enumerate_loose_hamilton_cycles(g)
    assert result.complete
    assert set(result.cycles) == brute_force_cycles(g)


def test_enumeration_count_k8():
    g = Hypergraph.complete(8, 3)
    result = enumerate_loose_hamilton_cycles(g)
    assert result.complete
    assert len(result.cycles) == 5040
    assert result.nodes == 10_824  # one node per extension step, as budgets count


def test_enumeration_trivial_cases():
    sparse = Hypergraph.from_edges(6, 3, [(0, 1, 2), (2, 3, 4)])
    assert enumerate_loose_hamilton_cycles(sparse).cycles == ()
    tiny = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
    # n = 4 admits no loose Hamilton cycle (fewer than 3 edges would fit).
    assert enumerate_loose_hamilton_cycles(tiny).cycles == ()


def test_enumeration_every_cycle_validates():
    g = Hypergraph.complete(6, 3)
    for cycle in enumerate_loose_hamilton_cycles(g).cycles:
        assert isinstance(validate_loose_cycle(g, cycle.vertices), LooseCycle)


def test_enumeration_invariant_under_relabelling():
    g = Hypergraph.from_edges(6, 3, Hypergraph.complete(6, 3).edges[:14])
    base = len(enumerate_loose_hamilton_cycles(g).cycles)
    perm = [3, 0, 5, 1, 4, 2]
    relabelled = Hypergraph.from_edges(
        6, 3, [tuple(sorted(perm[v] for v in e)) for e in g.edges]
    )
    assert len(enumerate_loose_hamilton_cycles(relabelled).cycles) == base


def test_enumeration_budget_partial():
    g = Hypergraph.complete(8, 3)
    result = enumerate_loose_hamilton_cycles(g, EnumerationBudget(node_limit=50))
    assert not result.complete


def test_enumeration_budget_keeps_the_cycles_found_before_the_limit():
    g = first_prefix_colouring(8, 3).graph
    result = enumerate_loose_hamilton_cycles(g, EnumerationBudget(node_limit=1000))
    assert not result.complete
    assert result.nodes == 1001  # the node past the limit stops the search
    assert len(result.cycles) == 850


def test_find_loose_hamilton_path_examples():
    g = Hypergraph.complete(7, 3)
    p = find_loose_hamilton_path(g, 0, 1)
    assert isinstance(p, LoosePath)
    assert p.length == 3
    assert p.endvertices == {0, 1}
    assert p.vertex_set == set(range(7))
    for e in p.edges:
        assert g.contains(e)

    single = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
    p = find_loose_hamilton_path(single, 0, 2)
    assert p is not None and p.edges == ((0, 1, 2),)

    assert find_loose_hamilton_path(single, 0, 1, [(0, 1)]) is None

    with pytest.raises(InvalidInput):
        find_loose_hamilton_path(Hypergraph.complete(6, 3), 0, 1)


def test_find_loose_hamilton_path_avoids_forbidden_pairs():
    g = Hypergraph.complete(7, 3)
    forbidden = PairGraph.from_pairs([(2, 3), (4, 5), (2, 6)])
    p = find_loose_hamilton_path(g, 0, 1, forbidden)
    assert p is not None
    for e in p.edges:
        assert not forbidden.contained_pairs(e)
    # Pairs outside the host's vertices forbid nothing.
    outside = [(-1, 2), (3, 40)]
    assert find_loose_hamilton_path(g, 0, 1, outside) == find_loose_hamilton_path(g, 0, 1)


def test_exists_rainbow_loose_hc():
    g = Hypergraph.complete(6, 3)
    mono = Colouring.constant(g)
    assert exists_rainbow_loose_hc(g, mono).status == "absent"

    injective = Colouring.injective(g)
    result = exists_rainbow_loose_hc(g, injective)
    assert result.status == "found"
    assert isinstance(validate_loose_cycle(g, result.witness.vertices), LooseCycle)


def test_exists_rainbow_loose_hc_budget_unknown():
    g = Hypergraph.complete(8, 3)
    mono = Colouring.constant(g)
    result = exists_rainbow_loose_hc(g, mono, EnumerationBudget(node_limit=10))
    assert result.status == "unknown"


def test_tight_cycle_search():
    g = Hypergraph.complete(5, 3)
    assert find_tight_hamilton_cycle(g) is not None
    result = exists_rainbow_tight_hc(g, Colouring.injective(g))
    assert result.status == "found"
    assert exists_rainbow_tight_hc(g, Colouring.constant(g)).status == "absent"
    with pytest.raises(InvalidInput):
        find_tight_hamilton_cycle(Hypergraph.complete(8, 4))


def test_uniform_random_cycle_reproducible():
    g = Hypergraph.complete(6, 3)
    a = uniform_random_hamilton_cycle(g, seed=7)
    b = uniform_random_hamilton_cycle(g, seed=7)
    assert a == b
    assert isinstance(validate_loose_cycle(g, a.vertices), LooseCycle)


def test_uniform_random_cycle_single_choice():
    g = Hypergraph.from_edges(6, 3, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
    only = enumerate_loose_hamilton_cycles(g).cycles
    assert len(only) == 1
    for seed in range(5):
        assert uniform_random_hamilton_cycle(g, seed) == only[0]


def test_uniform_random_cycle_draws_lie_in_the_host():
    """Complete hosts draw a permutation, others sample the enumeration;
    either way every draw is a cycle of the host."""
    complete = Hypergraph.complete(6, 3)
    missing_one = Hypergraph.from_edges(6, 3, complete.edges[1:])
    assert not missing_one.is_complete()
    for g in (complete, missing_one):
        cycles = set(enumerate_loose_hamilton_cycles(g).cycles)
        for seed in range(30):
            assert uniform_random_hamilton_cycle(g, seed) in cycles


def test_enumeration_builds_each_cycle_once(monkeypatch):
    built = []

    def counting_loose_cycle(*args):
        built.append(args)
        return LooseCycle(*args)

    monkeypatch.setattr(oracles, "LooseCycle", counting_loose_cycle)
    result = enumerate_loose_hamilton_cycles(Hypergraph.complete(8, 3))
    assert len(result.cycles) == 5040
    assert len(built) == 5040


def test_enumeration_count_k9_uniformity_4():
    g = Hypergraph.complete(9, 4)
    result = enumerate_loose_hamilton_cycles(g)
    assert result.complete
    # n! / (2m ((k-2)!)^m) with m = n / (k-1) = 3 edges
    assert len(result.cycles) == factorial(9) // (2 * 3 * factorial(2) ** 3) == 7560


def test_find_hamilton_dicycle_examples():
    complete3 = Digraph.from_arcs(3, [(u, v) for u in range(3) for v in range(3) if u != v])
    assert find_hamilton_dicycle(complete3) == (0, 1, 2)

    aux = Digraph.from_arcs(4, [(0, 3), (1, 0), (1, 3), (2, 1), (3, 1), (3, 2)])
    assert find_hamilton_dicycle(aux) == (0, 3, 2, 1)

    triangle = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert find_hamilton_dicycle(triangle) == (0, 1, 2)

    acyclic = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    assert find_hamilton_dicycle(acyclic) is None
