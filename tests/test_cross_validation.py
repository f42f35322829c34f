"""Oracle-versus-oracle checks on independently computed ground truth."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from loosehc.colouring import Colouring, is_rainbow
from loosehc.cycles import (
    LooseCycle,
    LoosePath,
    _canonical_cycle_vertices,
    validate_loose_cycle,
)
from loosehc.hypergraph import Hypergraph
from loosehc.oracles import (
    EnumerationBudget,
    _BudgetClock,
    _cycle_walks,
    enumerate_loose_hamilton_cycles,
    exists_rainbow_loose_hc,
    exists_rainbow_tight_hc,
    find_loose_hamilton_path,
    find_tight_hamilton_cycle,
)
from loosehc.rng import stream


@st.composite
def cycle_symmetries(draw):
    k = draw(st.sampled_from([3, 4]))
    count = draw(st.integers(3, 4))
    n = count * (k - 1)
    base = list(draw(st.permutations(range(n))))
    rotation = draw(st.integers(0, count - 1))
    reflect = draw(st.booleans())
    shuffles = draw(st.randoms(use_true_random=False))
    return k, n, base, rotation, reflect, shuffles


@settings(max_examples=60, deadline=None)
@given(cycle_symmetries())
def test_canonical_form_invariant_under_symmetries(case):
    k, n, base, rotation, reflect, rng = case
    other = base[rotation * (k - 1):] + base[: rotation * (k - 1)]
    if reflect:
        other = [other[0], *reversed(other[1:])]
    # permute the interior vertices of each edge independently
    for i in range(n // (k - 1)):
        lo = i * (k - 1) + 1
        interior = other[lo: lo + k - 2]
        rng.shuffle(interior)
        other[lo: lo + k - 2] = interior
    assert LooseCycle(tuple(base), k) == LooseCycle(tuple(other), k)


@st.composite
def shuffled_sub_hosts(draw):
    """A random sub-host of K_n^(k), k in {3, 4, 5}, with its edges in a
    random order, and a random colouring of them or none."""
    k = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(3, 4 if k < 5 else 3)) * (k - 1)
    rng = draw(st.randoms(use_true_random=False))
    keep = draw(st.floats(0.3, 1.0))
    edges = [e for e in combinations(range(n), k) if rng.random() < keep]
    rng.shuffle(edges)
    g = Hypergraph(n, k, tuple(edges))
    colours = draw(st.sampled_from([None, 2, n]))
    chi = None if colours is None else Colouring(
        g, tuple(rng.randrange(colours) for _ in edges)
    )
    return g, chi


@settings(max_examples=60, deadline=None)
@given(shuffled_sub_hosts())
def test_enumerated_walks_are_canonical(case):
    # The oracles build their cycles from these walks without
    # canonicalising them again.
    g, chi = case
    clock = _BudgetClock(EnumerationBudget(node_limit=3000))
    colour_of = chi.by_edge if chi is not None else None
    for walk in _cycle_walks(g, clock, colour_of):
        assert walk == _canonical_cycle_vertices(walk, g.k)


def brute_force_path(g, a, b, forbidden=frozenset()):
    """Permutation-level spanning-path existence, independent of the
    backtracking oracle."""
    banned = {frozenset(p) for p in forbidden}
    middle = [v for v in range(g.n) if v not in (a, b)]
    for perm in permutations(middle):
        ordering = (a, *perm, b)
        path = LoosePath(ordering, g.k)
        edges_ok = all(g.contains(e) for e in path.edges)
        if edges_ok and not any(
            any(pair <= set(e) for pair in banned) for e in path.edges
        ):
            return True
    return False


@pytest.mark.parametrize("k", [3, 4])
def test_path_oracle_matches_bruteforce_on_random_graphs(k):
    full = Hypergraph.complete(7, k)
    for seed in range(12):
        gen = stream(seed, "path-oracle-graphs")
        keep = [e for e in full.edges if gen.random() < 0.35]
        g = Hypergraph.from_edges(7, k, keep)
        forbidden = [(0, 3)] if seed % 2 else []
        found = find_loose_hamilton_path(g, 0, 1, forbidden)
        expected = brute_force_path(g, 0, 1, forbidden)
        assert (found is not None) == expected, (seed, keep)
        if found is not None:
            assert found.endvertices == {0, 1}
            for e in found.edges:
                assert g.contains(e)


def test_rainbow_search_matches_filtered_enumeration():
    full = Hypergraph.complete(6, 3)
    for seed in range(8):
        gen = stream(seed, "rainbow-cross")
        keep = [e for e in full.edges if gen.random() < 0.6]
        g = Hypergraph.from_edges(6, 3, keep)
        colours = tuple(int(gen.integers(6)) for _ in keep)
        chi = Colouring(g, colours)
        enumerated = enumerate_loose_hamilton_cycles(g)
        assert enumerated.complete
        rainbow = [c for c in enumerated.cycles if is_rainbow(chi, c.edge_sequence)]
        result = exists_rainbow_loose_hc(g, chi)
        assert (result.status == "found") == bool(rainbow), (seed, len(rainbow))
        if result.status == "found":
            witness = validate_loose_cycle(g, result.witness.vertices)
            assert isinstance(witness, LooseCycle)
            assert is_rainbow(chi, witness.edge_sequence)
            assert witness in set(rainbow)


def boundary_colouring(g, colours, gen):
    """Exactly `colours` colours on g's edges, each used at least once."""
    assignment = [i % colours for i in range(len(g.edges))]
    gen.shuffle(assignment)
    return Colouring(g, tuple(int(c) for c in assignment))


@pytest.mark.parametrize("n", [8, 10])
def test_rainbow_search_at_the_colour_count_boundary(n):
    # A loose cycle of K_n^(3) has n / 2 edges.  With that many colours the
    # search must run; with one fewer the colour count proves absence.
    full = Hypergraph.complete(n, 3)
    edges = n // 2
    outcomes = set()
    for seed in range(6):
        gen = stream(seed, "rainbow-boundary", n)
        keep = [e for e in full.edges if gen.random() < (0.6 if n == 8 else 0.4)]
        g = Hypergraph.from_edges(n, 3, keep)
        enumerated = enumerate_loose_hamilton_cycles(g)
        assert enumerated.complete
        for colours in (edges, edges - 1):
            chi = boundary_colouring(g, colours, gen)
            rainbow = {c for c in enumerated.cycles if is_rainbow(chi, c.edge_sequence)}
            result = exists_rainbow_loose_hc(g, chi)
            assert (result.status == "found") == bool(rainbow), (seed, colours)
            if result.status == "found":
                assert result.witness in rainbow
            else:
                assert result.status == "absent" and result.witness is None
            outcomes.add((colours, result.status, bool(enumerated.cycles)))
    assert outcomes == {(edges, "found", True), (edges - 1, "absent", True)}


def brute_force_tight_cycle(g, chi=None):
    """Lexicographically first ordering starting at 0 with order[1] <
    order[-1] whose every cyclic window of three is an edge (of pairwise
    distinct colours under chi), by trying every permutation."""
    n = g.n
    for rest in permutations(range(1, n)):
        order = (0, *rest)
        if order[1] > order[-1]:
            continue
        windows = [tuple(sorted(order[(i + d) % n] for d in range(3))) for i in range(n)]
        if not all(w in g.edge_set for w in windows):
            continue
        if chi is not None and len({chi.by_edge[w] for w in windows}) < n:
            continue
        return order
    return None


def test_tight_oracle_witness_matches_bruteforce_on_random_graphs():
    outcomes = set()
    for seed in range(40):
        gen = stream(seed, "tight-oracle-graphs")
        n = 5 + seed % 4
        full = Hypergraph.complete(n, 3)
        keep = [e for e in full.edges if gen.random() < 0.75]
        g = Hypergraph.from_edges(n, 3, keep)
        chi = Colouring(g, tuple(int(gen.integers(n + 3)) for _ in keep))
        for colouring in (None, chi):
            found = find_tight_hamilton_cycle(g, colouring)
            expected = brute_force_tight_cycle(g, colouring)
            assert (found.vertices if found else None) == expected, (seed, colouring)
            outcomes.add((colouring is None, expected is None))
    assert len(outcomes) == 4  # found and absent, with and without colours


def test_tight_search_at_the_colour_count_boundary():
    # A tight cycle on n vertices has n windows: n colours leave the search
    # to decide, n - 1 colours settle it before the first node.
    outcomes = set()
    for seed in range(16):
        gen = stream(seed, "tight-boundary")
        n = 6 + seed % 4
        full = Hypergraph.complete(n, 3)
        keep = [e for e in full.edges if gen.random() < 0.8]
        g = Hypergraph.from_edges(n, 3, keep)
        for colours in (n, n - 1):
            chi = boundary_colouring(g, colours, gen)
            expected = brute_force_tight_cycle(g, chi)
            result = exists_rainbow_tight_hc(g, chi)
            witness = result.witness.vertices if result.witness else None
            assert witness == expected, (seed, colours)
            assert result.status == ("absent" if expected is None else "found")
            outcomes.add((colours == n, result.status))
    assert outcomes == {(True, "found"), (True, "absent"), (False, "absent")}
