from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product
from math import comb

import pytest

from loosehc import sampler, switchbuild
from loosehc.colouring import Colouring
from loosehc.cycles import LooseCycle, increasing_path, validate_loose_cycle
from loosehc.hypergraph import (
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    UnmeetableGate,
    host_too_small,
)
from loosehc.oracles import find_hamilton_dicycle
from loosehc.rng import stream
from loosehc.sampler import (
    BudgetExhausted,
    SampledSplitting,
    accept_suitable,
    build_aux_digraph,
    build_viable_partition,
    check_events,
    exact_binomial_hit,
    estimate_suitable_fraction,
    partition_conditions,
    sample_splitting,
    sample_transverse_partition,
    vertices_close,
    wilson_interval,
    _draw_transverse_partition,
)
from loosehc.splitting import (
    Splitting,
    TransversePartition,
    is_suitable,
    partition_is_transverse,
    validate_rerouting,
    validate_splitting,
)


def complete_cycle(n):
    g = Hypergraph.complete(n, 3)
    cycle = validate_loose_cycle(g, range(n))
    assert isinstance(cycle, LooseCycle)
    return g, cycle


def desk_params(**overrides):
    base = dict(k=3, j=1, path_len=1, pairs_per_part=1,
                epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5, threshold=0.0)
    base.update(overrides)
    return Parameters(**base)


def brute_force_close(cycle, u, v, path_len):
    """Oracle: scan every run of at most 2t+1 consecutive edges."""
    c = cycle.edge_count
    for start in range(c):
        for length in range(1, min(2 * path_len + 1, c) + 1):
            run = [cycle.edge_sequence[(start + i) % c] for i in range(length)]
            if any(u in e for e in run) and any(v in e for e in run):
                return True
    return False


def test_close_examples():
    _, cycle = complete_cycle(8)
    # vertices in consecutive edges are close for any t >= 1
    assert vertices_close(cycle, 1, 3, 1) is True
    assert vertices_close(cycle, 5, 5, 1) is True

    _, c20 = complete_cycle(20)
    # interior of edge 1 vs interior of edge 5 at t = 1: every common run
    # needs more than 2t+1 = 3 edges
    assert vertices_close(c20, 3, 11, 1) is False
    assert brute_force_close(c20, 3, 11, 1) is False

    # a spread set: no two of its vertices are close
    _, c30 = complete_cycle(30)
    assert not any(vertices_close(c30, u, v, 1) for u, v in combinations((1, 11, 21), 2))


def test_close_matches_bruteforce():
    _, cycle = complete_cycle(14)
    for u in range(0, 14, 3):
        for v in range(0, 14, 2):
            for t in (1, 2):
                assert vertices_close(cycle, u, v, t) == brute_force_close(cycle, u, v, t)


def test_sample_splitting_probability_and_determinism():
    _, cycle = complete_cycle(8)
    anchor = increasing_path(cycle, (0, 1, 2), 1)
    s = sample_splitting(cycle, anchor, 3, 1, seed=4)
    again = sample_splitting(cycle, anchor, 3, 1, seed=4)
    assert s.sampled_positions == again.sampled_positions
    assert len(s.all_paths) == len(s.paths) + 1
    assert s.all_paths[0] is anchor  # anchor normalized to index 0


def test_sample_splitting_rejects_probability_above_one():
    _, cycle = complete_cycle(8)
    anchor = increasing_path(cycle, (0, 1, 2), 1)
    with pytest.raises(InvalidInput):
        sample_splitting(cycle, anchor, 6, 1, seed=0)


def test_sample_splitting_mean_edges():
    _, cycle = complete_cycle(30)
    anchor = increasing_path(cycle, (0, 1, 2), 1)
    trials = 10_000
    total = sum(
        len(sample_splitting(cycle, anchor, 4, 1, seed=99, trial=i).sampled_positions)
        for i in range(trials)
    )
    mean = total / trials
    p = 6 / 30
    sigma = (15 * p * (1 - p) / trials) ** 0.5
    assert abs(mean - 3.0) <= 3 * sigma


def test_bernoulli_positions_match_the_per_edge_scan():
    # The positions are those of the per-edge scan `draws[i] < p` over the
    # trial's stream, as plain ints, for every seed and trial.
    _, cycle = complete_cycle(24)
    anchor = increasing_path(cycle, (0, 1, 2), 1)
    p = 2 * 2 / 24
    for seed in range(40):
        for trial in range(5):
            draws = stream(seed, "edge-sample", trial).random(cycle.edge_count)
            expected = tuple(i for i in range(cycle.edge_count) if draws[i] < p)
            got = sample_splitting(cycle, anchor, 3, 1, seed=seed, trial=trial)
            assert got.sampled_positions == expected
            assert all(type(i) is int for i in got.sampled_positions)


def test_exact_size_draws_distinct_sorted_positions():
    _, cycle = complete_cycle(30)
    anchor = increasing_path(cycle, (0, 1, 2), 1)
    for trial in range(200):
        s = sample_splitting(cycle, anchor, 4, 1, seed=8, trial=trial, exact_size=True)
        assert s.size == 4 and len(set(s.sampled_positions)) == 3
        assert list(s.sampled_positions) == sorted(s.sampled_positions)
        assert all(type(i) is int and 0 <= i < 15 for i in s.sampled_positions)
    with pytest.raises(InvalidInput):  # 16 positions on a 15-edge cycle
        sample_splitting(cycle, anchor, 17, 1, seed=0, exact_size=True)


def accepted_bernoulli_positions(cycle, anchor, path_count, path_len, seed, count):
    """The definition the exact-size draw is conditioned from: Bernoulli
    samples of path_count - 1 positions that validate_splitting accepts."""
    accepted, trial = [], 0
    while len(accepted) < count:
        sample = sample_splitting(cycle, anchor, path_count, path_len, seed=seed, trial=trial)
        trial += 1
        if sample.size == path_count and isinstance(
            validate_splitting(cycle, sample.all_paths, "balanced", path_len), Splitting
        ):
            accepted.append(sample.sampled_positions)
    return accepted


@pytest.mark.parametrize("path_len, draws", [(1, 2000), (2, 1000)], ids=["t1", "t2"])
def test_exact_size_draws_follow_the_accepted_bernoulli_samples(path_len, draws):
    # Three paths on K24's twelve cycle edges, the anchor at position 5: a
    # chi-square test of homogeneity over the C(12 - 3t - 1, 2) accepted
    # position pairs (28 at t = 1, 10 at t = 2).
    from scipy.stats import chi2_contingency

    _, cycle = complete_cycle(24)
    anchor = increasing_path(cycle, cycle.edge_sequence[5], path_len)
    exact = [
        sample_splitting(cycle, anchor, 3, path_len, seed=17, trial=trial,
                         exact_size=True).sampled_positions
        for trial in range(draws)
    ]
    reference = accepted_bernoulli_positions(cycle, anchor, 3, path_len, 18, draws)
    cells = sorted(set(reference))
    assert len(cells) == comb(12 - 3 * path_len - 1, 2) and set(exact) <= set(cells)
    table = [[Counter(exact)[q] for q in cells], [Counter(reference)[q] for q in cells]]
    assert min(min(row) for row in table) > 40
    assert chi2_contingency(table).pvalue > 0.001


@pytest.mark.parametrize("n, path_count, path_len", [(14, 3, 1), (20, 3, 2), (24, 4, 1)])
def test_exact_size_draws_reach_every_disjoint_splitting_and_nothing_else(
    n, path_count, path_len
):
    # Every placement of the other paths that validate_splitting accepts
    # around the anchor, found by brute force over all position sets, is
    # drawn, and no other: C(c - m*t - 1, m - 1) of them.
    _, cycle = complete_cycle(n)
    c = cycle.edge_count
    anchor = increasing_path(cycle, cycle.edge_sequence[2], path_len)
    valid = {
        positions for positions in combinations(range(c), path_count - 1)
        if isinstance(validate_splitting(
            cycle, SampledSplitting(cycle, anchor, positions, path_len).all_paths,
            "balanced", path_len,
        ), Splitting)
    }
    assert len(valid) == comb(c - path_count * path_len - 1, path_count - 1)
    drawn = {
        sample_splitting(cycle, anchor, path_count, path_len, seed=4, trial=trial,
                         exact_size=True).sampled_positions
        for trial in range(40 * len(valid))
    }
    assert drawn == valid


def test_exact_size_draw_refuses_a_host_too_small():
    # Three disjoint one-edge paths need six cycle edges; K10's cycle has five.
    _, cycle = complete_cycle(10)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    message = "host-too-small: 3 disjoint paths of 1 edges need 6 cycle edges, the host has 5"
    with pytest.raises(InvalidInput) as err:
        sample_splitting(cycle, anchor, 3, 1, seed=0, exact_size=True)
    assert str(err.value) == message
    assert host_too_small(5, 3, 1) is not None and host_too_small(6, 3, 1) is None


@pytest.mark.parametrize("k, t, quota", list(product((3, 4, 5), (1, 2), (1, 2))))
def test_host_size_bound_is_exact(k, t, quota):
    # m paths of t edges fit on a cycle of exactly m*(t + 1) edges, with a
    # one-edge gap after each; one edge fewer has room for no splitting.
    params = desk_params(k=k, path_len=t, pairs_per_part=quota)
    m, need = params.split_size, params.split_size * (t + 1)
    preflight = PipelineConfig(structural=True)
    for edges in (need, need - 1):
        cycle = LooseCycle(tuple(range(edges * (k - 1))), k)
        anchor = increasing_path(cycle, cycle.edge_sequence[0], t)
        g = Hypergraph(cycle.n, k, ())
        refusal = preflight.refusal(g, params)
        if edges == need:
            assert refusal is None
            sample = sample_splitting(cycle, anchor, m, t, seed=0, exact_size=True)
            assert isinstance(
                validate_splitting(cycle, sample.all_paths, "balanced", t), Splitting
            )
        else:
            assert refusal.gate == "host-too-small"
            with pytest.raises(UnmeetableGate) as err:
                sample_splitting(cycle, anchor, m, t, seed=0, exact_size=True)
            assert err.value.gate == "host-too-small" and str(err.value) == str(refusal)


def test_estimate_refuses_a_host_too_small(monkeypatch):
    # No Bernoulli sample on K10's 5-edge cycle holds three disjoint paths,
    # so every trial would be rejected and the estimate would read 0.0.
    g, cycle = complete_cycle(10)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    keys = []
    monkeypatch.setattr(sampler, "stream", lambda *key: keys.append(key))
    with pytest.raises(UnmeetableGate) as err:
        estimate_suitable_fraction(g, Colouring.injective(g), cycle, anchor, desk_params(),
                                   200, PipelineConfig(seed=1))
    assert str(err.value) == (
        "host-too-small: 3 disjoint paths of 1 edges need 6 cycle edges, the host has 5"
    )
    assert keys == []


def test_check_events_injective_never_fires_colour_pairs():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, (0, 1, 2), 1)
    for trial in range(50):
        s = sample_splitting(cycle, anchor, 3, 1, seed=7, trial=trial)
        events = check_events(s, g, chi, epsilon=0.2, path_count=3)
        assert events.flags["spread-colour-pair"] is False
        assert events.flags["almost-spread-colour-pair"] is False


def test_check_events_adjacent_paths_are_close():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    neighbour = increasing_path(cycle, cycle.edge_sequence[1], 1)
    s = replace(sample_splitting(cycle, anchor, 3, 1, seed=0), sampled_positions=(1,))
    assert s.paths == (neighbour,)
    events = check_events(s, g, chi, epsilon=0.2, path_count=3)
    assert events.flags["close-paths"] is True


def test_check_events_degree_on_complete_host():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    far = [increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (5, 10)]
    s = replace(sample_splitting(cycle, anchor, 3, 1, seed=0), sampled_positions=(5, 10))
    assert s.paths == tuple(far)
    events = check_events(s, g, chi, epsilon=0.2, path_count=3)
    # C(9-1, 2) = 28 >= (3*eps/4)*9^2 = 12.15 would fail; bound uses M = 9
    assert events.flags["low-sample-degree"] is False
    assert not events.any


def test_check_events_low_sample_degree_matches_bruteforce():
    # A half-density host around the cycle: the event fires on some samples
    # and not on others, at j = 1 and j = 2.
    full, full_cycle = complete_cycle(30)
    keep = stream(5, "test-host").random(len(full.edges)) < 0.5
    cycle_edges = set(full_cycle.edge_sequence)
    g = Hypergraph.from_edges(30, 3, [
        e for e, kept in zip(full.edges, keep) if kept or e in cycle_edges
    ])
    cycle = validate_loose_cycle(g, range(30))
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    fired = set()
    for j in (1, 2):
        bound = (3 * 0.2 / 4) * 9 ** (3 - j)
        for trial in range(12):
            sample = sample_splitting(cycle, anchor, 3, 1, seed=11, trial=trial)
            events = check_events(sample, g, chi, epsilon=0.2, path_count=3, j=j)
            everything = sample.vertices
            expected = None
            for s in combinations(sorted(everything), j):
                deg = sum(1 for e in g.edges if set(s) <= set(e) <= everything)
                if deg < bound:
                    expected = {"set": s, "degree": deg, "bound": bound}
                    break
            assert events.flags["low-sample-degree"] is (expected is not None)
            assert events.witnesses.get("low-sample-degree") == expected
            fired.add(expected is not None)
    assert fired == {True, False}


def test_accept_suitable_positive_rate_and_suitability():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    accepted = 0
    for trial in range(3000):
        s = sample_splitting(cycle, anchor, params.split_size, params.path_len,
                             seed=13, trial=trial)
        outcome = accept_suitable(s, g, chi, params)
        if outcome.accepted:
            accepted += 1
            assert outcome.splitting is not None
            # double-checked against the predicate module
            assert is_suitable(outcome.splitting, anchor, chi, g, params.epsilon).ok
    assert accepted > 0


def test_accepted_samples_have_spread_transverse_sets():
    # Rejecting close cross-path pairs makes every transverse set spread.
    from itertools import combinations, product as iproduct

    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    seen = 0
    for trial in range(3000):
        s = sample_splitting(cycle, anchor, params.split_size, params.path_len,
                             seed=13, trial=trial)
        outcome = accept_suitable(s, g, chi, params)
        if not outcome.accepted:
            continue
        seen += 1
        paths = outcome.splitting.paths
        for pair_of_paths in combinations(range(len(paths)), 2):
            for u, v in iproduct(paths[pair_of_paths[0]].vertices,
                                 paths[pair_of_paths[1]].vertices):
                assert not vertices_close(cycle, u, v, params.path_len)
        if seen >= 3:
            break
    assert seen > 0


def test_estimate_parallel_matches_serial():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    config = PipelineConfig(seed=5)
    serial = estimate_suitable_fraction(g, chi, cycle, anchor, params, 200, config, jobs=1)
    parallel = estimate_suitable_fraction(g, chi, cycle, anchor, params, 200, config, jobs=2)
    assert serial.records == parallel.records
    assert serial.successes == parallel.successes


def test_estimate_starts_one_worker_per_chunk(monkeypatch):
    # Trials go to workers 64 at a time, so 30 trials need no pool and 200
    # trials need four workers, however many jobs are allowed.  The pool is
    # replaced by one that maps in-process, so no worker is started.
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(sampler, "ProcessPoolExecutor", RecordingPool)
    g, cycle = complete_cycle(12)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    config = PipelineConfig(seed=5)
    serial = estimate_suitable_fraction(g, chi, cycle, anchor, desk_params(), 30, config, jobs=8)
    assert created == []
    pooled = estimate_suitable_fraction(g, chi, cycle, anchor, desk_params(), 200, config, jobs=8)
    assert created == [4]
    assert pooled.records[:30] == serial.records


def test_accept_suitable_rejects_wrong_size():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    s = sample_splitting(cycle, anchor, params.split_size, params.path_len, seed=1)
    if len(s.all_paths) != params.split_size:
        outcome = accept_suitable(s, g, chi, params)
        assert not outcome.accepted
        assert any(r.startswith("size") for r in outcome.reasons)


def splitting_n12(g=None):
    g = g or Hypergraph.complete(12, 3)
    cycle = validate_loose_cycle(g, range(12))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    return s


def sequential_transverse_partition(splitting, gen):
    """The definition the partition draw is conditioned from: each round
    takes one unused vertex from every path, uniformly; the last part
    collects the leftovers."""
    remaining = [list(p.vertices) for p in splitting.paths]
    parts = []
    for _ in range(len(remaining[0]) - 1):
        parts.append(frozenset(bucket.pop(int(gen.integers(len(bucket)))) for bucket in remaining))
    parts.append(frozenset(bucket[0] for bucket in remaining))
    return TransversePartition(tuple(parts))


def meets_exit_quota(splitting, partition, quota):
    exit_set = set(splitting.exits)
    return all(len(part & exit_set) == quota for part in partition.parts)


def test_draw_transverse_partition_shape():
    # Every draw is a transverse partition into t(k-1)+1 parts that meets
    # the exit quota.
    for k, t, quota in [(3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 2)]:
        _, _, _, splitting = complete_on_sample(k, t, quota)
        for i in range(50):
            partition = _draw_transverse_partition(splitting, quota, stream(3, "test-draw", i))
            assert len(partition.parts) == t * (k - 1) + 1
            assert all(len(p) == splitting.size for p in partition.parts)
            assert partition_is_transverse(splitting, partition)
            assert meets_exit_quota(splitting, partition, quota)


def test_exit_quota_frequency_matches_product_formula():
    # Exact acceptance probability of the exit quota under the uniform
    # process: product over rounds of P[Bin(available, 1/(T-h+1)) = quota].
    t, k, quota = 1, 3, 1
    part_count = t * (k - 1) + 1
    m = part_count * quota
    exact = Fraction(1)
    for h in range(1, t * (k - 1) + 1):
        available = m - (h - 1) * quota
        p = Fraction(1, part_count - h + 1)
        exact *= comb(available, quota) * p ** quota * (1 - p) ** (available - quota)
    assert exact == Fraction(2, 9)

    s = splitting_n12()
    trials = 4000
    hits = sum(
        meets_exit_quota(s, sequential_transverse_partition(s, stream(21, "freq", i)), quota)
        for i in range(trials)
    )
    freq = hits / trials
    sigma = (float(exact) * (1 - float(exact)) / trials) ** 0.5
    assert abs(freq - float(exact)) <= 4 * sigma


def test_partition_draws_follow_the_quota_accepted_sequential_process():
    # On K12's splitting the 3! exit arrangements times 2^3 placements of the
    # other vertices give 48 labelled partitions that meet the quota: a
    # chi-square test of homogeneity of the draws against the sequential
    # process's draws that meet it.
    from scipy.stats import chi2_contingency

    s = splitting_n12()
    draws = 2000
    exact = [_draw_transverse_partition(s, 1, stream(31, "exact", i)).parts
             for i in range(draws)]
    reference, i = [], 0
    while len(reference) < draws:
        partition = sequential_transverse_partition(s, stream(32, "reference", i))
        i += 1
        if meets_exit_quota(s, partition, 1):
            reference.append(partition.parts)
    cells = sorted(set(reference), key=lambda parts: [sorted(p) for p in parts])
    assert len(cells) == 48 and set(exact) <= set(cells)
    table = [[Counter(exact)[q] for q in cells], [Counter(reference)[q] for q in cells]]
    assert min(min(row) for row in table) > 15
    assert chi2_contingency(table).pvalue > 0.001


def test_sample_transverse_partition_structural():
    g = Hypergraph.complete(12, 3)
    s = splitting_n12(g)
    partition = sample_transverse_partition(s, g, desk_params(), PipelineConfig(seed=2))
    report = partition_conditions(s, partition, desk_params(), g, structural=True)
    assert report.ok and report.conditions == {"exit-quota": True}


def test_sample_transverse_partition_strict_config():
    # On 12 vertices the size rule picks structural mode; the config can
    # override it, and then every condition gates the partition.  (At
    # epsilon = 0.2 the degree bound 1.125 exceeds the single edge a vertex
    # has into its own part, so epsilon is lowered to make it satisfiable.)
    g = Hypergraph.complete(12, 3)
    s = splitting_n12(g)
    # At j = 2 the bound 0.375 is met by the one edge a pair has into its
    # own part.
    config = PipelineConfig(seed=2, structural=False)
    for params in (desk_params(epsilon=0.05), desk_params(j=2)):
        partition = sample_transverse_partition(s, g, params, config)
        assert partition_conditions(s, partition, params, g, structural=False).conditions == {
            "exit-quota": True, "entry-bound": True, "relative-degree": True,
        }


def test_build_aux_digraph_frozen_example():
    g = Hypergraph.complete(16, 3)
    cycle = validate_loose_cycle(g, range(16))
    paths = tuple(
        increasing_path(cycle, cycle.edge_sequence[p], 1) for p in (0, 2, 4, 6)
    )
    s = validate_splitting(cycle, paths, "balanced", 1)
    assert isinstance(s, Splitting)
    # exits are 2, 6, 10, 14; put them in parts 0, 0, 1, 1
    partition = TransversePartition((
        frozenset({2, 6, 9, 13}),
        frozenset({0, 5, 10, 14}),
        frozenset({1, 4, 8, 12}),
    ))
    digraph = build_aux_digraph(partition, s)
    assert digraph.arcs == frozenset(
        {(0, 3), (1, 0), (1, 3), (2, 1), (3, 1), (3, 2)}
    )
    assert find_hamilton_dicycle(digraph) == (0, 3, 2, 1)


def test_build_aux_digraph_single_part_exits():
    s = splitting_n12()
    # all exits '2, 6, 10' in one part
    partition = TransversePartition((
        frozenset({2, 6, 10}),
        frozenset({0, 4, 8}),
        frozenset({1, 5, 9}),
    ))
    assert build_aux_digraph(partition, s).arcs == frozenset()


def test_build_viable_partition_frozen_n12():
    s = splitting_n12()
    drawn = TransversePartition((
        frozenset({0, 5, 10}),
        frozenset({2, 4, 9}),
        frozenset({1, 6, 8}),
    ))
    digraph = build_aux_digraph(drawn, s)
    assert digraph.arcs == frozenset({(0, 2), (1, 0), (2, 1)})
    dicycle = find_hamilton_dicycle(digraph)
    assert dicycle == (0, 2, 1)
    swapped, rerouting = build_viable_partition(s, drawn, dicycle)
    assert set(rerouting.pairs) == {(0, 6), (2, 8), (4, 10)}
    assert swapped.parts == (
        frozenset({1, 4, 10}),
        frozenset({2, 5, 8}),
        frozenset({0, 6, 9}),
    )
    assert isinstance(validate_rerouting(s, rerouting.pairs), type(rerouting))


def test_build_viable_partition_demands_quota():
    s = splitting_n12()
    partition = TransversePartition((
        frozenset({2, 6, 10}),
        frozenset({0, 4, 8}),
        frozenset({1, 5, 9}),
    ))
    with pytest.raises(InvalidInput):
        build_viable_partition(s, partition, (0, 1, 2))


def test_estimate_positive_rate_injective():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    estimate = estimate_suitable_fraction(
        g, chi, cycle, anchor, params, 1200, PipelineConfig(seed=5)
    )
    assert estimate.successes > 0
    assert estimate.rate > 0
    lo, hi = estimate.interval
    assert 0 <= lo <= estimate.rate <= hi <= 1


def test_estimate_zero_rate_monochromatic():
    g, cycle = complete_cycle(30)
    chi = Colouring.constant(g)
    params = desk_params()
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    estimate = estimate_suitable_fraction(
        g, chi, cycle, anchor, params, 600, PipelineConfig(seed=6)
    )
    assert estimate.successes == 0
    flagged = [
        r for r in estimate.records
        if "events" in r and r["events"].get("heavy-colour-set")
    ]
    assert flagged, "geometrically valid samples must be rejected by colour mass"


def no_partition_budget(*args):
    raise BudgetExhausted("transverse-partition", "no acceptable partition in 200 attempts")


@pytest.mark.parametrize("draw, outcome", [
    (no_partition_budget, "budget-exhausted"),
    (lambda *args: None, "no-dicycle"),
], ids=["budget-exhausted", "no-dicycle"])
def test_estimate_records_why_an_accepted_sample_has_no_partition(monkeypatch, draw, outcome):
    # At seed 8 on K30 the only accepted sample among the first 81 is trial 80.
    monkeypatch.setattr(sampler, "draw_viable_partition", draw)
    g, cycle = complete_cycle(30)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    estimate = estimate_suitable_fraction(
        g, Colouring.injective(g), cycle, anchor, desk_params(), 81, PipelineConfig(seed=8),
        jobs=1,
    )
    assert estimate.successes == 0
    assert [(r["trial"], r["partition"], r["viable"]) for r in estimate.records
            if "partition" in r] == [(80, outcome, False)]
    assert [r["trial"] for r in estimate.records if r["accepted"]] == [80]


def test_estimate_requires_trials():
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    with pytest.raises(InvalidInput):
        estimate_suitable_fraction(g, chi, cycle, anchor, desk_params(),
                                   0, PipelineConfig(seed=1))


@pytest.mark.parametrize("structural", [True, False], ids=["structural", "strict"])
def test_estimate_seeded_outcomes(structural):
    # Seeded outcomes on K_30 under the injective colouring: seven of the
    # 1200 samples pass the event gate, and structurally each yields a
    # viable partition.  The strict degree bound 1.125 at m = 3 exceeds the
    # C(2, 2) = 1 edge a vertex has into its own part, so the strict run is
    # refused before its first draw.
    g, cycle = complete_cycle(30)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    config = PipelineConfig(seed=5, partition_budget=200, structural=structural)
    if not structural:
        with pytest.raises(InvalidInput, match="relative-degree"):
            estimate_suitable_fraction(g, chi, cycle, anchor, desk_params(), 1200, config)
        return
    estimate = estimate_suitable_fraction(g, chi, cycle, anchor, desk_params(), 1200, config)
    assert estimate.successes == 7
    assert sum(r["accepted"] for r in estimate.records) == 7
    assert Counter(r["partition"] for r in estimate.records if "partition" in r) == {}


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_exact_binomial_hit_examples():
    r = exact_binomial_hit(4, Fraction(1, 2))
    assert r.prob_hit == Fraction(3, 8)
    assert r.mean == 2 and r.passes and r.in_regime

    r = exact_binomial_hit(100, "0.05")
    assert r.mean == 5 and r.passes and r.in_regime

    r = exact_binomial_hit(10, 0.3)
    assert r.mean == 3
    assert r.prob_hit == comb(10, 3) * Fraction(3, 10) ** 3 * Fraction(7, 10) ** 7
    assert r.in_regime  # 3^2 = 9 <= 10

    r = exact_binomial_hit(10, Fraction(1, 2))
    assert r.mean == 5 and not r.in_regime


def test_exact_binomial_hit_rejections():
    with pytest.raises(InvalidInput):
        exact_binomial_hit(10, Fraction(1, 3))  # mean not integral
    with pytest.raises(InvalidInput):
        exact_binomial_hit(10, Fraction(1, 20))  # zero mean


def events_by_definition(sample, g, chi, close, *, epsilon, path_count, j):
    """Oracle: the five events scanned straight from their definitions,
    with close(u, v) deciding closeness on the sample's cycle.  Each witness
    is the first hit in lexicographic order; equal-coloured pairs are
    scanned class by class, classes in the order of their first edge."""
    cycle, t, k = sample.cycle, sample.anchor.length, g.k
    sampled = sorted(sample.sampled_vertices)
    everything = sorted(sample.vertices)
    paths = sample.all_paths

    def spread(vertices):
        return not any(close(u, v) for u, v in combinations(sorted(vertices), 2))

    found = {}
    host_colours = {chi.colour(e) for e in cycle.edge_sequence}
    for s in combinations(sampled, k - 1):
        if not spread(s):
            continue
        count = sum(1 for v in everything if v not in s
                    and g.contains((*s, v)) and chi.colour((*s, v)) in host_colours)
        if count >= epsilon * path_count / 4:
            found["heavy-colour-set"] = {"set": s, "count": count}
            break

    inside = [e for e in combinations(sampled, k) if e in g.edge_set]
    classes = {}
    for e in inside:
        classes.setdefault(chi.colour(e), []).append(e)
    for colour, edges in classes.items():
        for e, f in combinations(edges, 2):
            cut = len(set(e) & set(f))
            union = set(e) | set(f)
            close_pairs = [p for p in combinations(sorted(union), 2) if close(*p)]
            if cut <= 1 and not close_pairs:
                found.setdefault("spread-colour-pair", {"colour": colour, "pair": (e, f)})
            if cut == 0 and len(close_pairs) == 1:
                found.setdefault("almost-spread-colour-pair",
                                 {"colour": colour, "pair": (e, f)})

    induced = [e for e in combinations(everything, k) if e in g.edge_set]
    bound = (3 * epsilon / 4) * ((t * (k - 1) + 1) * path_count) ** (k - j)
    for s in combinations(everything, j):
        deg = sum(1 for e in induced if set(s) <= set(e))
        if deg < bound:
            found["low-sample-degree"] = {"set": s, "degree": deg, "bound": bound}
            break

    for (i, p), (i2, q) in combinations(enumerate(paths), 2):
        pairs = [(u, v) for u in p.vertices for v in q.vertices if close(u, v)]
        if pairs:
            found["close-paths"] = {"paths": (i, i2), "pair": pairs[0]}
            break
    return found


def test_check_events_matches_definitions():
    # A half-density host around the cycle of K_60, random-class colourings,
    # drawn samples, and samples whose sampled paths are pairwise far (one
    # every fifth edge).
    full, full_cycle = complete_cycle(60)
    keep = stream(8, "test-host").random(len(full.edges)) < 0.5
    cycle_edges = set(full_cycle.edge_sequence)
    g = Hypergraph.from_edges(60, 3, [
        e for e, kept in zip(full.edges, keep) if kept or e in cycle_edges
    ])
    cycle = validate_loose_cycle(g, range(60))
    samples = []
    for t in (1, 2):
        anchor = increasing_path(cycle, cycle.edge_sequence[0], t)
        samples += [sample_splitting(cycle, anchor, 4, t, seed=3, trial=trial)
                    for trial in range(3)]
    samples += [replace(samples[0], sampled_positions=far)
                for far in ((5, 10, 15, 20, 25), (2, 7, 12, 17, 22, 27))]
    colourings = []
    for class_size in (4, 60):
        order = stream(class_size, "test-colouring").permutation(len(g.edges))
        colours = [0] * len(g.edges)
        for rank, i in enumerate(order):
            colours[i] = rank // class_size
        colourings.append(Colouring(g, tuple(colours)))
    # One colour on two disjoint edges through the middles of pairwise far
    # paths: a spread pair that is not almost spread.
    middles = [p.vertices[1] for p in samples[-1].paths]
    e, f = next((e, f) for e in combinations(middles, 3)
                for f in [tuple(v for v in middles if v not in e)]
                if e in g.edge_set and f in g.edge_set)
    assignment = list(range(len(g.edges)))
    assignment[g.edges.index(f)] = assignment[g.edges.index(e)]
    colourings.append(Colouring(g, tuple(assignment)))
    seen = {}
    for sample in samples:
        close = cache(partial(brute_force_close, cycle, path_len=sample.anchor.length))
        for chi, j, epsilon in product(colourings, (1, 2), (0.2, 1.0)):
            events = check_events(sample, g, chi, epsilon=epsilon, path_count=4, j=j)
            expected = events_by_definition(sample, g, chi, close, epsilon=epsilon,
                                            path_count=4, j=j)
            assert list(events.flags) == [
                "heavy-colour-set", "spread-colour-pair", "almost-spread-colour-pair",
                "low-sample-degree", "close-paths",
            ]
            assert events.witnesses == expected
            for name, hit in events.flags.items():
                assert hit is (name in expected)
                seen.setdefault(name, set()).add(hit)
    assert seen == {name: {True, False} for name in events.flags}, seen


def preflight_refusal(g, params, *, structural, events):
    refusal = PipelineConfig(structural=structural, require_events=events).refusal(g, params)
    return None if refusal is None else refusal.gate


@cache
def complete_on_sample(k, t, quota):
    """A balanced sample of m = part_count * quota paths of t edges, one at
    every (t + 1)-th edge of the identity loose cycle, with its splitting
    and the injective colouring of a host made of the cycle's edges and
    every k-set of the sample's vertices: all the edges the degree gates of
    this sample and its partitions read, as on the complete host."""
    part_count = t * (k - 1) + 1
    m = part_count * quota
    cycle = LooseCycle(tuple(range(m * (t + 1) * (k - 1))), k)
    positions = tuple(range(0, m * (t + 1), t + 1))
    anchor = increasing_path(cycle, cycle.edge_sequence[0], t)
    sample = SampledSplitting(cycle, anchor, positions[1:], t)
    g = Hypergraph.from_edges(cycle.n, k, sorted(
        set(cycle.edge_sequence) | set(combinations(sorted(sample.vertices), k))
    ))
    splitting = validate_splitting(cycle, sample.all_paths, "balanced", t)
    assert isinstance(splitting, Splitting)
    return g, Colouring.injective(g), sample, splitting


# k = 4, t = 2, m~ = 2 is left out: its sample has 98 vertices, and the
# C(98, 4) = 3.6 million edges inside it are too many for a unit test.  At
# k = 5 only t = m~ = 1 fits: its sample has 25 vertices and C(25, 5) =
# 53,130 edges.
GATE_GRID = [(k, j, t, quota) for k in (3, 4) for j in range(1, k)
             for t in (1, 2) for quota in (1, 2) if (k, t, quota) != (4, 2, 2)]
GATE_GRID += [(5, j, 1, 1) for j in range(1, 5)]


@pytest.mark.parametrize("k, j, t, quota", GATE_GRID)
def test_preflight_refuses_exactly_the_gates_no_sample_meets(k, j, t, quota):
    # On a host that is complete on the sample every degree is the most any
    # host allows, so the first drawn partition and the balanced sample fail
    # a degree gate exactly when no draw can meet it.
    g, chi, sample, splitting = complete_on_sample(k, t, quota)
    partition = _draw_transverse_partition(splitting, quota, stream(0, "transverse-partition", 0))
    for epsilon, threshold in ((0.05, 0.0), (0.2, 0.0), (0.5, 0.3)):
        params = desk_params(k=k, j=j, path_len=t, pairs_per_part=quota,
                             epsilon=epsilon, threshold=threshold)
        events = check_events(sample, g, chi, epsilon=epsilon, path_count=params.split_size,
                              j=j, threshold=threshold)
        expected = "low-sample-degree" if events.flags["low-sample-degree"] else None
        assert preflight_refusal(g, params, structural=True, events=True) == expected
        report = partition_conditions(splitting, partition, params, g, structural=False)
        for beta in (0.2, 0.5):
            params = replace(params, beta=beta)
            refused = preflight_refusal(g, params, structural=False, events=False)
            if refused == "entry-bound":
                # Pigeonhole: some part holds quota of the m entries.
                most = max(len(part & set(splitting.entries)) for part in partition.parts)
                assert beta * params.split_size < quota <= most
                continue
            expected = None if report.conditions["relative-degree"] else "relative-degree"
            assert refused == expected
    assert preflight_refusal(g, params, structural=True, events=False) is None


def test_refused_runs_open_no_stream(monkeypatch):
    # On K_12 forced strict, the bound 1.125 exceeds the C(2, 2) = 1 edge a
    # vertex has into its own part.
    g, cycle = complete_cycle(12)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    config = PipelineConfig(seed=1, structural=False, require_events=True)
    keys = []
    real_stream = sampler.stream
    monkeypatch.setattr(sampler, "stream", lambda *key: keys.append(key) or real_stream(*key))
    message = "relative-degree: bound 1.125 > 1 = C(2, 2) edges a j-set has into its own part"
    refusals = [
        lambda: switchbuild.sample_switching(g, chi, cycle, anchor, desk_params(), config),
        lambda: estimate_suitable_fraction(g, chi, cycle, anchor, desk_params(), 5, config),
        lambda: sample_transverse_partition(splitting_n12(g), g, desk_params(), config),
    ]
    for refused in refusals:
        with pytest.raises(UnmeetableGate) as err:
            refused()
        assert str(err.value) == message and err.value.gate == "relative-degree"
    # A threshold of 1 puts the sample bound at 1.15 * 9^2 > C(8, 2) = 28.
    with pytest.raises(UnmeetableGate, match="^low-sample-degree: "):
        estimate_suitable_fraction(g, chi, cycle, anchor, desk_params(threshold=1.0), 5,
                                   replace(config, structural=True))
    # Some part holds at least one of the three entries, above beta * m = 0.3.
    with pytest.raises(UnmeetableGate, match="^entry-bound: "):
        switchbuild.sample_switching(g, chi, cycle, anchor, desk_params(beta=0.1, epsilon=0.05),
                                     replace(config, require_events=False))
    assert keys == []


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("entry", ["switch", "estimate", "partition"])
def test_parameters_of_another_uniformity_are_refused_before_any_draw(monkeypatch, entry, k):
    # Parameters of another k failed late on K24: at k = 4 sample_switching
    # raised a bare KeyError; at k = 2 it spent its whole budget and
    # returned None, and estimate_suitable_fraction reported rate 0.0.
    g, cycle = complete_cycle(24)
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    splitting = splitting_n12()
    params, config = desk_params(k=k), PipelineConfig(seed=1)
    runs = {
        "switch": lambda: switchbuild.sample_switching(g, chi, cycle, anchor, params, config),
        "estimate": lambda: estimate_suitable_fraction(g, chi, cycle, anchor, params, 5, config),
        "partition": lambda: sample_transverse_partition(splitting, g, params, config),
    }
    keys = []
    monkeypatch.setattr(sampler, "stream", lambda *key: keys.append(key))
    with pytest.raises(InvalidInput) as err:
        runs[entry]()
    assert str(err.value) == f"parameters for k = {k} do not fit a 3-uniform host"
    assert not isinstance(err.value, UnmeetableGate)
    assert keys == []


def test_sample_transverse_partition_raises_once_its_budget_is_spent(monkeypatch):
    # Every draw meets the exit quota, so the budget is spent on a strict
    # gate that can still fail: entry-bound at beta * m = 1.5 wants the three
    # entries in three parts.  (At j = 2 relative-degree holds on K12.)  At
    # seed 0 the first three draws miss it and the fourth meets it, so a
    # budget of three is spent on three gated draws.
    g = Hypergraph.complete(12, 3)
    s = splitting_n12(g)
    params = desk_params(j=2, beta=0.5)
    config = PipelineConfig(seed=0, partition_budget=3, structural=False)
    gated = []
    real_conditions = sampler.partition_conditions

    def traced_conditions(*args):
        report = real_conditions(*args)
        gated.append(report.conditions)
        return report

    monkeypatch.setattr(sampler, "partition_conditions", traced_conditions)
    with pytest.raises(BudgetExhausted) as err:
        sample_transverse_partition(s, g, params, config)
    assert err.value.stage == "transverse-partition"
    assert str(err.value) == "transverse-partition: no acceptable partition in 3 attempts"
    missed = {"exit-quota": True, "entry-bound": False, "relative-degree": True}
    met = dict.fromkeys(missed, True)
    assert gated == [missed] * 3
    partition = sample_transverse_partition(s, g, params, replace(config, partition_budget=4))
    assert gated[3:] == [missed] * 3 + [met]
    assert partition_conditions(s, partition, params, g, structural=False).ok


def test_draw_viable_partition_is_none_without_a_dicycle(monkeypatch):
    g = Hypergraph.complete(12, 3)
    monkeypatch.setattr(sampler, "find_hamilton_dicycle", lambda digraph: None)
    assert sampler.draw_viable_partition(splitting_n12(g), g, desk_params(), PipelineConfig(seed=2)) is None
