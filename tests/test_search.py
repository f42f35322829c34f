from dataclasses import replace

from loosehc.colouring import Colouring, is_rainbow
from loosehc.constructions import first_prefix_colouring
from loosehc.cycles import LooseCycle, validate_loose_cycle
from loosehc.hypergraph import Hypergraph, Parameters, PipelineConfig
from loosehc.oracles import uniform_random_hamilton_cycle
from loosehc.rng import child_seed, stream
import loosehc.search as search
from loosehc.search import find_conflicts, find_rainbow_hamilton_cycle


def desk_params():
    return Parameters(k=3, j=1, path_len=1, pairs_per_part=1,
                      epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5)


def bounded_random_colouring(g, seed, max_class_size=2):
    """Random colouring with classes of at most the given size."""
    gen = stream(seed, "test-colouring")
    order = list(gen.permutation(len(g.edges)))
    colours = [0] * len(g.edges)
    colour = 0
    for i in range(0, len(order), max_class_size):
        for j in order[i: i + max_class_size]:
            colours[j] = colour
        colour += 1
    return Colouring(g, tuple(colours))


def test_find_conflicts_rainbow_is_empty():
    g = Hypergraph.complete(8, 3)
    cycle = validate_loose_cycle(g, range(8))
    assert find_conflicts(cycle, Colouring.injective(g), 1) == []


def test_find_conflicts_tags_kinds():
    g = Hypergraph.complete(8, 3)
    cycle = validate_loose_cycle(g, range(8))
    assignment = list(range(len(g.edges)))
    idx = {e: i for i, e in enumerate(g.edges)}
    # adjacent pair: consecutive cycle edges share a vertex
    assignment[idx[(2, 3, 4)]] = assignment[idx[(0, 1, 2)]]
    chi = Colouring(g, tuple(assignment))
    found = find_conflicts(cycle, chi, 1)
    assert len(found) == 1 and found[0].kind == "adjacent"

    assignment = list(range(len(g.edges)))
    assignment[idx[(4, 5, 6)]] = assignment[idx[(0, 1, 2)]]
    chi = Colouring(g, tuple(assignment))
    found = find_conflicts(cycle, chi, 1)
    assert len(found) == 1 and found[0].kind == "disjoint"


def test_search_injective_succeeds_immediately():
    g = Hypergraph.complete(12, 3)
    result = find_rainbow_hamilton_cycle(g, Colouring.injective(g),
                                         desk_params(), seed=1)
    assert result.success and result.steps == 0 and result.restarts == 0


def test_search_prefix_colouring_succeeds():
    chi = first_prefix_colouring(8, 3)
    result = find_rainbow_hamilton_cycle(chi.graph, chi, desk_params(), seed=2)
    assert result.success
    assert is_rainbow(chi, result.cycle.edge_sequence)


def test_search_bounded_colouring_n12():
    g = Hypergraph.complete(12, 3)
    successes = 0
    for seed in range(8):
        chi = bounded_random_colouring(g, seed)
        result = find_rainbow_hamilton_cycle(g, chi, desk_params(),
                                             seed=seed, max_steps=200)
        if result.success:
            successes += 1
            checked = validate_loose_cycle(g, result.cycle.vertices)
            assert isinstance(checked, LooseCycle)
            assert is_rainbow(chi, result.cycle.edge_sequence)
    assert successes >= 7  # recorded benchmark; validity above is the gate


def test_search_supplied_start_cycle():
    g = Hypergraph.complete(12, 3)
    start = uniform_random_hamilton_cycle(g, seed=5)
    chi = bounded_random_colouring(g, 3)
    result = find_rainbow_hamilton_cycle(g, chi, desk_params(), seed=3,
                                         start=start, max_steps=100)
    assert result.success


def test_search_resolves_forced_conflict_by_switching():
    # Force a conflict on the start cycle; at n = 12 the switching geometry
    # exists, so the step should go through an actual switching.
    g = Hypergraph.complete(12, 3)
    start = validate_loose_cycle(g, range(12))
    assert isinstance(start, LooseCycle)
    assignment = list(range(len(g.edges)))
    idx = {e: i for i, e in enumerate(g.edges)}
    assignment[idx[start.edge_sequence[3]]] = assignment[idx[start.edge_sequence[0]]]
    chi = Colouring(g, tuple(assignment))
    result = find_rainbow_hamilton_cycle(g, chi, desk_params(), seed=0,
                                         start=start, max_steps=50)
    assert result.success
    actions = [s["action"] for s in result.log.steps]
    assert actions.count("switch") >= 1
    assert is_rainbow(chi, result.cycle.edge_sequence)


def test_search_passes_its_pipeline_config_to_each_step(monkeypatch):
    # One colour everywhere: every step finds a conflict and asks for a
    # switching, which the stand-in refuses.
    g = Hypergraph.complete(12, 3)
    pipeline = PipelineConfig(sample_budget=7, partition_budget=3, partition_tries=2,
                              claim_budget=11, require_events=True)
    received = []

    def refuse(g, chi, cycle, anchor, params, config):
        received.append(config)
        return None

    monkeypatch.setattr(search, "sample_switching", refuse)
    result = find_rainbow_hamilton_cycle(g, Colouring.constant(g), desk_params(),
                                         seed=1, max_steps=2, pipeline=pipeline)
    assert not result.success and result.restarts == 2
    assert [c.seed for c in received] == [child_seed(1, "search-step", s) for s in range(2)]
    assert all(replace(c, seed=pipeline.seed) == pipeline for c in received)
