"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5 checks the three-part pair-coloured graph at n in {6, 9, 12}.
Whether it has a tight Hamilton cycle is cross-checked against an
enumeration of cyclic part-label sequences: at n = 9 (three odd parts)
there is none, at n = 6 and n = 12 there are some, and at every n none is
rainbow.
"""

from fractions import Fraction
from itertools import combinations
from math import isqrt, sqrt


from loosehc.colouring import Colouring, is_rainbow
from loosehc.constructions import first_prefix_colouring, tight_counterexample
from loosehc.cycles import (
    LooseCycle,
    TightCycle,
    increasing_path,
    validate_loose_cycle,
    validate_tight_cycle,
)
from loosehc.graphs import Digraph, PairGraph
from loosehc.hypergraph import Hypergraph, InvalidInput, Parameters, min_j_degree
from loosehc.oracles import (
    enumerate_loose_hamilton_cycles,
    exists_rainbow_tight_hc,
    find_hamilton_dicycle,
    find_tight_hamilton_cycle,
    uniform_random_hamilton_cycle,
)
from loosehc.rng import stream
from loosehc.sampler import (
    check_events,
    exact_binomial_hit,
    sample_splitting,
)
from loosehc.search import find_rainbow_hamilton_cycle
from loosehc.splitting import (
    Rerouting,
    Splitting,
    is_feasible,
    is_suitable,
    is_switching,
    rerouting_cycle_count,
    validate_rerouting,
    validate_splitting,
)
from loosehc.switchbuild import PipelineConfig, sample_switching
from loosehc.tiling import (
    TilingInfeasible,
    TilingRequest,
    build_path_tiling,
    validate_path_tiling,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def desk_params(**overrides):
    base = dict(k=3, j=1, path_len=1, pairs_per_part=1,
                epsilon=0.2, mu=0.05, gamma=0.01, beta=0.5, threshold=0.0)
    base.update(overrides)
    return Parameters(**base)


def test_criterion_1_definition_conformance():
    """200 seeded end-to-end builds; every produced switching passes
    is_switching and is_feasible via the independent predicates."""
    params = desk_params()
    produced = 0
    failures = []
    per_n = {10: 0, 12: 0, 14: 0}
    refused = {10: 0, 12: 0, 14: 0}
    for build in range(200):
        n = (10, 12, 14)[build % 3]
        g = Hypergraph.complete(n, 3)
        cycle = validate_loose_cycle(g, range(n))
        chi = Colouring.injective(g)
        anchor = increasing_path(
            cycle, cycle.edge_sequence[build % cycle.edge_count], 1
        )
        try:
            result = sample_switching(
                g, chi, cycle, anchor, params,
                PipelineConfig(seed=build, sample_budget=600),
            )
        except InvalidInput as exc:
            assert str(exc).startswith("host-too-small: "), exc
            refused[n] += 1
            continue
        if result is None:
            continue
        produced += 1
        per_n[n] += 1
        sw = result.switching
        check = is_switching(sw.anchor, sw.host, sw.splitting,
                             sw.new_cycle, sw.new_splitting, graph=g)
        feas = is_feasible(sw, chi)
        if not check.ok or not feas.ok:
            failures.append((build, n, str(check), str(feas)))
    # The splitting geometry needs n >= 12: every n = 10 build is refused.
    n10_refused = refused == {10: 67, 12: 0, 14: 0}
    ok = not failures and produced > 0 and per_n[10] == 0 and n10_refused
    report(1, ok, f"{produced} switchings produced over 200 builds "
                  f"(n=10 correctly refused: {n10_refused}); "
                  f"predicate failures: {len(failures)}")
    assert produced > 0
    assert per_n[10] == 0 and n10_refused, refused
    assert failures == [], failures[:2]


def test_criterion_2_path_tiling():
    """Tilings on complete 3-graphs: all produced outputs satisfy the five
    invariants; divisibility-impossible requests are rejected as such."""
    invariant_failures = []
    rejected = []
    built = 0
    for m_prime in (7, 9, 11):
        g = Hypergraph.complete(m_prime, 3)
        t = (m_prime - 1) // 2
        for pairs_per in (1, 2):
            for case in range(30):
                gen = stream(1000 + m_prime, "acceptance-conflicts", case)
                conflict_edges = set()
                attempts = 0
                while len(conflict_edges) < 3 and attempts < 50:
                    attempts += 1
                    u, v = sorted(int(x) for x in gen.choice(m_prime, 2, replace=False))
                    trial = conflict_edges | {(u, v)}
                    if PairGraph.from_pairs(trial).max_degree() <= 4:
                        conflict_edges = trial
                conflicts = PairGraph.from_pairs(conflict_edges)
                if pairs_per == 1:
                    pair_list = ((0, 1),)
                else:
                    pair_list = ((0, 1), (2, 3))
                request = TilingRequest(g, pair_list, conflicts, t)
                try:
                    tiling = build_path_tiling(request, desk_params(), PipelineConfig(seed=case))
                except TilingInfeasible as exc:
                    rejected.append((m_prime, pairs_per, case, exc.stage))
                    continue
                built += 1
                check = validate_path_tiling(request, tiling)
                if not check.ok:
                    invariant_failures.append((m_prime, pairs_per, case, str(check)))
    # Two paths cannot cover an odd number of vertices when k = 3: every
    # pairs_per = 2 request must be rejected at the divisibility stage.
    wrong_rejections = [r for r in rejected if not (r[1] == 2 and r[3] == "divisibility")]
    ok = not invariant_failures and not wrong_rejections and built == 90
    report(2, ok, f"{built} tilings built, {len(invariant_failures)} invariant "
                  f"failures, {len(rejected)} divisibility rejections")
    assert built == 90  # all feasible (m', 1) cases build
    assert invariant_failures == []
    assert wrong_rejections == []


def _all_bounded_splittings(cycle: LooseCycle):
    """Every splitting of the cycle: disjoint runs of >= 1 edge with >= 1
    edge gaps, enumerated over run start/length choices."""
    c = cycle.edge_count

    def runs_from(position: int, chosen: list[tuple[int, int]], first_start: int):
        if position >= first_start + c:
            if chosen:
                last_start, last_len = chosen[-1]
                if last_start + last_len < first_start + c:
                    yield list(chosen)
            return
        yield from runs_from(position + 1, chosen, first_start)
        for length in range(1, c):
            if position + length >= first_start + c:
                break
            chosen.append((position, length))
            yield from runs_from(position + length + 1, chosen, first_start)
            chosen.pop()

    seen = set()
    for first_start in range(c):
        for runs in runs_from(first_start, [], first_start):
            if runs[0][0] != first_start:
                continue
            key = frozenset((s % c, l) for s, l in runs)
            if key in seen:
                continue
            seen.add(key)
            paths = [
                increasing_path(cycle, cycle.edge_sequence[s % c], l)
                for s, l in runs
            ]
            max_len = max(l for _, l in runs)
            s = validate_splitting(cycle, paths, "bounded", max_len)
            if isinstance(s, Splitting):
                yield s


def test_criterion_3_rerouting():
    """Identity pairings always validate; the traversal check agrees with
    an independent union-find computation on every pairing."""
    identity_checked = 0
    identity_failures = 0
    for n in (6, 8):
        g = Hypergraph.complete(n, 3)
        result = enumerate_loose_hamilton_cycles(g)
        assert result.complete
        for cycle in result.cycles:
            for s in _all_bounded_splittings(cycle):
                pairs = [tuple(sorted(p.endvertices)) for p in s.paths]
                identity_checked += 1
                if not isinstance(validate_rerouting(s, pairs), Rerouting):
                    identity_failures += 1

    def matchings(items):
        if not items:
            yield []
            return
        first = items[0]
        for i in range(1, len(items)):
            rest = items[1:i] + items[i + 1:]
            for sub in matchings(rest):
                yield [(first, items[i])] + sub

    g8 = Hypergraph.from_edges(8, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7)])
    h8 = validate_loose_cycle(g8, range(8))
    assert isinstance(h8, LooseCycle)
    agreement_checked = 0
    disagreements = 0
    for count in (2, 3):
        candidates = [
            s for s in _all_bounded_splittings(h8)
            if s.size == count and all(p.length == 1 for p in s.paths)
        ]
        if count == 3:
            assert candidates == []  # 3 disjoint paths need >= 6 edge slots
        for s in candidates:
            for pairing in matchings(sorted(s.endvertices)):
                agreement_checked += 1
                traversal_ok = isinstance(validate_rerouting(s, pairing), Rerouting)
                union_find_ok = rerouting_cycle_count(s, pairing) == 1
                if traversal_ok != union_find_ok:
                    disagreements += 1
    ok = identity_failures == 0 and disagreements == 0
    report(3, ok, f"{identity_checked} identity validations, "
                  f"{agreement_checked} pairings cross-checked, "
                  f"{identity_failures + disagreements} failures")
    assert identity_failures == 0
    assert disagreements == 0
    assert identity_checked > 70_000


def test_criterion_4_dicycle_sweep():
    """Every digraph on at most 5 vertices with min in/out degree >= n'/2
    has a Hamilton dicycle found by the oracle."""
    from itertools import combinations as combos, product

    checked = 0
    misses = 0
    for n in range(1, 6):
        need = (n + 1) // 2  # smallest integer >= n/2
        per_vertex = []
        for v in range(n):
            others = [u for u in range(n) if u != v]
            options = [
                frozenset(c)
                for size in range(need, n)
                for c in combos(others, size)
            ]
            per_vertex.append(options)
        if any(not opts for opts in per_vertex):
            continue
        for outs in product(*per_vertex):
            in_deg = [0] * n
            for v in range(n):
                for u in outs[v]:
                    in_deg[u] += 1
            if min(in_deg) < need:
                continue
            checked += 1
            d = Digraph.from_arcs(n, [(v, u) for v in range(n) for u in outs[v]])
            if find_hamilton_dicycle(d) is None:
                misses += 1
    ok = misses == 0 and checked > 0
    report(4, ok, f"{checked} qualifying digraphs swept, {misses} misses")
    # 1 digraph qualifies at n' in {2, 3}, 108 at n' = 4, 780 at n' = 5.
    assert checked == 890
    assert misses == 0


def _admissible_part_sequence_exists(sizes: list[int]) -> bool:
    """Whether some cyclic sequence of part labels, with label i used
    sizes[i] times, has every window of three consecutive labels meeting
    exactly two parts.  The three-part graph is symmetric within each part,
    so such a sequence exists exactly when it has a tight Hamilton cycle."""
    n = sum(sizes)
    remaining = list(sizes)
    labels: list[int] = []

    def meets_two(window) -> bool:
        return len(set(window)) == 2

    def extend() -> bool:
        if len(labels) == n:
            return all(
                meets_two([labels[(i + j) % n] for j in range(3)])
                for i in range(n - 2, n)
            )
        for part in range(len(sizes)):
            if not remaining[part]:
                continue
            labels.append(part)
            remaining[part] -= 1
            if (len(labels) < 3 or meets_two(labels[-3:])) and extend():
                return True
            labels.pop()
            remaining[part] += 1
        return False

    return extend()


def test_criterion_5_tight_counterexample():
    """Degree, class size, tight-cycle existence and rainbow absence at
    n in {6, 9, 12}.  Existence must agree with the part-label enumeration;
    it holds at n = 6 and n = 12 and fails at n = 9, where three odd parts
    admit no label sequence.  The paper's example is asymptotic (codegree
    about 2n/3 against a tight-cycle threshold of about n/2), so nothing
    promises a tight cycle at every small n; what must hold at every n is
    that no tight Hamilton cycle is rainbow."""
    expected = {6: True, 9: False, 12: True}
    failures = []
    existence = {}
    for n in expected:
        g, chi = tight_counterexample(n)
        if min_j_degree(g, 2) != 2 * (n // 3 - 1):
            failures.append(f"n={n}: degree {min_j_degree(g, 2)}")
        if max(chi.class_sizes.values()) > n:
            failures.append(f"n={n}: class {max(chi.class_sizes.values())}")
        witness = find_tight_hamilton_cycle(g)
        existence[n] = witness is not None
        if existence[n] != _admissible_part_sequence_exists([n // 3] * 3):
            failures.append(f"n={n}: oracle existence {existence[n]} "
                            f"disagrees with the part-label enumeration")
        if witness is not None and not isinstance(
            validate_tight_cycle(g, witness.vertices), TightCycle
        ):
            failures.append(f"n={n}: witness {witness.vertices} is not a tight cycle")
        if exists_rainbow_tight_hc(g, chi).status != "absent":
            failures.append(f"n={n}: rainbow absence not definitive")
    ok = not failures and existence == expected
    report(5, ok, f"tight Hamilton cycle exists: {existence}; "
                  + ("all sub-claims hold" if not failures else f"failed: {failures}"))
    assert failures == [], failures
    assert existence == expected, existence


def test_criterion_6_prefix_colouring():
    """On the complete 3-graph with 8 vertices: every loose Hamilton cycle
    is rainbow under the prefix colouring, and every 4-set of vertices
    carries two equal-coloured triples."""
    chi = first_prefix_colouring(8, 3)
    g = chi.graph
    result = enumerate_loose_hamilton_cycles(g)
    assert result.complete
    non_rainbow = sum(
        not is_rainbow(chi, c.edge_sequence) for c in result.cycles
    )
    quads_without_repeat = 0
    for quad in combinations(range(8), 4):
        colours = [chi.colour(tr) for tr in combinations(quad, 3)]
        if len(set(colours)) == len(colours):
            quads_without_repeat += 1
    ok = non_rainbow == 0 and quads_without_repeat == 0
    report(6, ok, f"{len(result.cycles)} cycles all rainbow: {non_rainbow == 0}; "
                  f"4-sets without repeats: {quads_without_repeat}")
    assert non_rainbow == 0
    assert quads_without_repeat == 0


def test_criterion_7_binomial_hit():
    """Exact pmf at the mean beats 1/(4*sqrt(mean)) for every n <= 200 and
    integer mean up to sqrt(n)."""
    violations = []
    checked = 0
    for n in range(1, 201):
        for lam in range(1, isqrt(n) + 1):
            checked += 1
            result = exact_binomial_hit(n, Fraction(lam, n))
            if not result.passes or not result.in_regime:
                violations.append((n, lam))
    ok = not violations
    report(7, ok, f"{checked} (n, mean) pairs verified exactly, "
                  f"{len(violations)} violations")
    assert checked > 1500
    assert violations == []


def test_criterion_8_sampler_statistics():
    """At (k=3, n=30, m=4, t=1): the sampled edge count concentrates on
    m-1 = 3; colour-pair events never fire under an injective colouring;
    accepted samples (none exist at this geometry) would pass is_suitable."""
    g = Hypergraph.complete(30, 3)
    cycle = validate_loose_cycle(g, range(30))
    chi = Colouring.injective(g)
    anchor = increasing_path(cycle, cycle.edge_sequence[0], 1)
    trials = 10_000
    m, t = 4, 1
    total_edges = 0
    colour_event_fires = 0
    accepted = []
    suitable_fail = 0
    for trial in range(trials):
        sample = sample_splitting(cycle, anchor, m, t, seed=321, trial=trial)
        total_edges += len(sample.sampled_positions)
        checked = None
        if len(sample.all_paths) == m:
            checked = validate_splitting(cycle, sample.all_paths, "balanced", t)
        evaluate = isinstance(checked, Splitting) or trial < 500
        if evaluate:
            events = check_events(sample, g, chi, epsilon=0.2, path_count=m)
            if events.flags["spread-colour-pair"] or events.flags["almost-spread-colour-pair"]:
                colour_event_fires += 1
            if isinstance(checked, Splitting) and not events.any:
                accepted.append(checked)
                if not is_suitable(checked, anchor, chi, g, 0.2).ok:
                    suitable_fail += 1
    mean = total_edges / trials
    p = (m - 1) * (3 - 1) / 30
    sigma = sqrt(cycle.edge_count * p * (1 - p) / trials)
    mean_ok = abs(mean - (m - 1)) <= 3 * sigma
    ok = mean_ok and colour_event_fires == 0 and suitable_fail == 0
    report(8, ok, f"mean sampled edges {mean:.4f} (target 3 +- {3 * sigma:.4f}); "
                  f"colour events fired {colour_event_fires}; "
                  f"{len(accepted)} accepted, {suitable_fail} unsuitable")
    assert mean_ok
    assert colour_event_fires == 0
    assert suitable_fail == 0


def test_criterion_9_uniform_sampling():
    """Empirical frequencies over 10^4 draws on the 6-vertex complete
    3-graph are uniform across the 120 enumerated cycles."""
    from scipy.stats import chisquare

    g = Hypergraph.complete(6, 3)
    cycles = enumerate_loose_hamilton_cycles(g).cycles
    index = {c: i for i, c in enumerate(cycles)}
    draws = 10_000
    counts = [0] * len(cycles)
    for i in range(draws):
        counts[index[uniform_random_hamilton_cycle(g, seed=777_000 + i)]] += 1
    expected = draws / len(cycles)
    sigma = sqrt(draws * (1 / len(cycles)) * (1 - 1 / len(cycles)))
    worst = max(abs(c - expected) for c in counts)
    within = worst <= 5 * sigma
    stat, pvalue = chisquare(counts)
    ok = within and pvalue > 0.001
    report(9, ok, f"worst deviation {worst:.1f} (5 sigma = {5 * sigma:.1f}); "
                  f"chi-square p = {pvalue:.4f}")
    assert within
    assert pvalue > 0.001


def test_criterion_10_search():
    """Seeded searches on complete hosts with class sizes at most 2:
    validity of every returned cycle is a hard gate; the success rate is a
    recorded benchmark with an 18-of-20 floor per host size."""
    params = desk_params()
    validity_failures = 0
    rates = {}
    for n in (8, 10, 12):
        g = Hypergraph.complete(n, 3)
        successes = 0
        for seed in range(20):
            gen = stream(9000 + n, "acceptance-colouring", seed)
            order = [int(v) for v in gen.permutation(len(g.edges))]
            colours = [0] * len(g.edges)
            for c, i in enumerate(range(0, len(order), 2)):
                for j in order[i: i + 2]:
                    colours[j] = c
            chi = Colouring(g, tuple(colours))
            result = find_rainbow_hamilton_cycle(
                g, chi, params, seed=seed, max_steps=500
            )
            if result.success:
                successes += 1
                checked = validate_loose_cycle(g, result.cycle.vertices)
                if not isinstance(checked, LooseCycle) or not is_rainbow(
                    chi, result.cycle.edge_sequence
                ):
                    validity_failures += 1
        rates[n] = successes
    ok = validity_failures == 0 and all(s >= 18 for s in rates.values())
    report(10, ok, f"successes per host size: {rates} (floor 18/20); "
                   f"validity failures: {validity_failures}")
    assert validity_failures == 0
    assert all(s >= 18 for s in rates.values()), rates
