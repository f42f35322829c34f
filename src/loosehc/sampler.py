"""Randomized constructions: edge-sampled splittings, the deterministic
event checkers gating their acceptance, transverse-partition sampling, the
auxiliary digraph whose Hamilton dicycles encode reroutings, and the swap
construction that turns a sampled partition into a viable one.

Randomness is confined to the samplers; every acceptance decision is made
by deterministic scans of the realized sample.
"""

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import comb, sqrt
from typing import Iterator

import numpy as np

from .colouring import Colouring
from .cycles import LooseCycle, LoosePath, increasing_path, subpath_run
from .graphs import Digraph
from .hypergraph import (
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    cached_property,
    edges_within,
    host_too_small,
    relative_degree,
    relative_degree_bound,
    sample_degree_bound,
)
from .oracles import find_hamilton_dicycle
from .rng import child_seed, stream
from .splitting import (
    CheckReport,
    Rerouting,
    Splitting,
    TransversePartition,
    is_suitable,
    is_viable,
    partition_is_transverse,
    paths_in_cyclic_order,
    validate_rerouting,
    validate_splitting,
)


CUT_BATCH = 16  # cut sets distinct_exact_splittings draws per generator call


class BudgetExhausted(Exception):
    """A resampling loop ran out of attempts; carries the stage name."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


def vertices_close(cycle: LooseCycle, u: int, v: int, path_len: int) -> bool:
    """True iff some edge through u and some edge through v lie on a common
    sub-path of the cycle with at most 2*path_len + 1 edges."""
    c = cycle.edge_count
    reach = 2 * path_len
    positions = cycle.positions_by_vertex
    for a in positions[u]:
        for b in positions[v]:
            d = abs(a - b)
            if d <= reach or c - d <= reach:
                return True
    return False


def _anchor_start(cycle: LooseCycle, anchor: LoosePath, path_len: int) -> int:
    """The cycle position of the anchor's first edge.  No splitting holds
    an anchor that is not a sub-path of the cycle with path_len edges, so
    such an anchor raises InvalidInput."""
    run = subpath_run(cycle, anchor)
    if run is None or anchor.length != path_len:
        vertices = " ".join(map(str, anchor.vertices))
        raise InvalidInput(
            f"anchor {vertices} is not a sub-path of the cycle with {path_len} edges"
        )
    return run[0]


@dataclass(frozen=True)
class SampledSplitting:
    """An anchored path plus the edge sample its other paths grow from.

    The paths are grown on first use, so a sample rejected on its size
    alone never builds them.
    """

    cycle: LooseCycle
    anchor: LoosePath
    sampled_positions: tuple[int, ...]
    path_len: int
    anchor_start: int  # cycle position of the anchor's first edge

    @cached_property
    def paths(self) -> tuple[LoosePath, ...]:
        """A forward path of path_len edges from each sampled position."""
        return tuple(
            increasing_path(self.cycle, self.cycle.edge_sequence[i], self.path_len)
            for i in self.sampled_positions
        )

    @cached_property
    def all_paths(self) -> tuple[LoosePath, ...]:
        """All paths with the anchor at index 0 and the rest following the
        host's cyclic order from the anchor's position.  (The rerouting
        machinery reads index i+1 as "the next path around the cycle".)"""
        start, c = self.anchor_start, self.cycle.edge_count
        order = sorted(
            range(len(self.sampled_positions)),
            key=lambda i: (self.sampled_positions[i] - start) % c,
        )
        return (self.anchor, *(self.paths[i] for i in order))

    @property
    def size(self) -> int:
        """Number of paths, the anchor included, without growing them."""
        return len(self.sampled_positions) + 1

    @property
    def sampled_vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p.vertices)

    @property
    def vertices(self) -> frozenset[int]:
        return self.sampled_vertices | self.anchor.vertex_set


def sample_splitting(
    cycle: LooseCycle,
    anchor: LoosePath,
    path_count: int,
    path_len: int,
    seed: int,
    trial: int = 0,
    *,
    exact_size: bool = False,
) -> SampledSplitting:
    """Sample the cycle's edges a forward path of the given length grows
    from, when the sample's paths are first read.  Deterministic given
    (seed, trial).

    By default each edge is sampled independently with probability
    p = (path_count-1)*(k-1)/n.  With exact_size the draw is that sample
    conditioned on its size, path_count - 1, and on validate_splitting
    accepting it, so the paths avoid the anchor and each other.  The
    c - path_count*path_len edges off the paths then form path_count gaps
    of at least one edge, one after each path, the anchor's first.  The
    gaps are a uniform composition, drawn as path_count - 1 cut points among
    its c - path_count*path_len - 1 interior slots, and path i starts
    cut_i + i*path_len edges after the anchor's start.  A host too small
    for any such splitting raises host-too-small.  An anchor that is not a
    sub-path of the cycle with path_len edges is refused before any draw.
    """
    n, k = cycle.n, cycle.k
    p = (path_count - 1) * (k - 1) / n
    if p > 1:
        raise InvalidInput(f"edge probability {p} exceeds 1")
    c = cycle.edge_count
    if not 1 <= path_len <= c:
        raise InvalidInput(f"path length must lie in [1, {c}], got {path_len}")
    start = _anchor_start(cycle, anchor, path_len)
    gen = stream(seed, "edge-sample", trial)
    if exact_size:
        slots = _cut_slots(c, path_count, path_len)
        cuts = gen.choice(slots, path_count - 1, replace=False, shuffle=False) + 1
        positions = _cut_positions(sorted(cuts.tolist()), start, c, path_len)
    else:
        positions = tuple(np.flatnonzero(gen.random(c) < p).tolist())
    return SampledSplitting(cycle, anchor, positions, path_len, start)


def _cut_slots(c: int, path_count: int, path_len: int) -> int:
    """The interior slots an exact-size splitting's cuts are drawn among;
    a host too small for any such splitting raises host-too-small."""
    refusal = host_too_small(c, path_count, path_len)
    if refusal is not None:
        raise refusal
    return c - path_count * path_len - 1


def _cut_positions(cuts, start: int, c: int, path_len: int) -> tuple[int, ...]:
    """The sampled positions of an exact-size splitting whose cuts, in
    ascending order and counted from 1, are given: path i starts
    cut_i + i*path_len edges after the anchor's start."""
    return tuple(sorted(
        (start + cut + i * path_len) % c for i, cut in enumerate(cuts, start=1)
    ))


def distinct_exact_splittings(
    cycle: LooseCycle,
    anchor: LoosePath,
    path_count: int,
    path_len: int,
    seed: int,
) -> Iterator[tuple[int, SampledSplitting]]:
    """Distinct exact-size splittings around the anchor, as (trial, draw)
    with trial 0, 1, ..., all from the one stream (seed, "splitting-window").

    Each draw has the law of sample_splitting(..., exact_size=True), and a
    draw equal to an earlier one is skipped, so each splitting comes out
    uniformly among those not yet out.  The draws stop once all
    C(c - path_count*path_len - 1, path_count - 1) splittings are out.  The
    anchor and the host size are refused as sample_splitting refuses them,
    before the stream opens.
    """
    c = cycle.edge_count
    start = _anchor_start(cycle, anchor, path_len)
    slots = _cut_slots(c, path_count, path_len)
    total = comb(slots, path_count - 1)
    gen = stream(seed, "splitting-window")
    seen: set[tuple[int, ...]] = set()
    while len(seen) < total:
        # The first path_count - 1 slots of a uniform order of the slots
        # are a uniform set of cuts; one call orders CUT_BATCH rows.
        rows = gen.random((CUT_BATCH, slots)).argsort(axis=1)[:, :path_count - 1]
        for row in (np.sort(rows, axis=1) + 1).tolist():
            cuts = tuple(row)
            if cuts in seen:
                continue
            trial = len(seen)
            seen.add(cuts)
            yield trial, SampledSplitting(
                cycle, anchor, _cut_positions(cuts, start, c, path_len), path_len, start
            )


@dataclass
class EventReport:
    flags: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)

    @property
    def any(self) -> bool:
        return any(self.flags.values())


def check_events(
    sample: SampledSplitting,
    g: Hypergraph,
    chi: Colouring,
    *,
    epsilon: float,
    path_count: int,
    j: int = 1,
    threshold: float = 0.0,
) -> EventReport:
    """Deterministic checkers for the five rejection events of a sample.

    A vertex set is spread when no two of its vertices are close in the
    sense of vertices_close.  heavy-colour-set: some spread (k-1)-set in
    the sampled vertices lies in at least epsilon*m/4 edges (within the
    whole sample) that repeat a host colour.  spread-colour-pair: two
    equal-coloured edges meeting in at most one vertex whose union is
    spread inside the sampled vertices.  almost-spread-colour-pair: the
    disjoint variant with exactly one close pair in the union.
    low-sample-degree: the sample's induced j-degree falls below
    (threshold + 3*epsilon/4) * M^(k-j).  close-paths: two distinct paths
    carry close vertices.

    Cost: one call enumerates the edges induced on the sample's vertices
    once, and reads each edge's colour once.  The heavy-set counts, the
    colour buckets of the sampled vertices and the j-degrees all come from
    that one list.  Each vertex pair goes through vertices_close at most
    once per call.  Every witness is the first hit of the lexicographic
    scan that the definitions above describe.
    """
    cycle, t = sample.cycle, sample.anchor.length
    k, m = g.k, path_count
    flags: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    sampled_set = sample.sampled_vertices
    sampled = sorted(sampled_set)
    everything = sorted(sample.vertices)
    host_colours = set(chi.colours(cycle.edge_sequence))

    closeness: dict[tuple[int, int], bool] = {}

    def close(u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        hit = closeness.get(key)
        if hit is None:
            hit = closeness[key] = vertices_close(cycle, u, v, t)
        return hit

    induced = edges_within(g, everything)
    heavy_sets: list[tuple[int, ...]] = []
    inside: list[tuple[tuple[int, ...], int]] = []
    for e, colour in zip(induced, chi.colours(induced)):
        if colour in host_colours:
            heavy_sets.extend(s for s in combinations(e, k - 1) if sampled_set.issuperset(s))
        if sampled_set.issuperset(e):
            inside.append((e, colour))
    heavy_counts = Counter(heavy_sets)
    degrees = Counter(chain.from_iterable(map(combinations, induced, repeat(j))))
    if comb(len(sampled), k) < len(g.edges):
        inside.sort()  # the order in which edges_within(g, sampled) lists them

    flags["heavy-colour-set"] = False
    allowance = epsilon * m / 4
    for s in combinations(sampled, k - 1):
        count = heavy_counts.get(s, 0)
        if count >= allowance and not any(close(u, v) for u, v in combinations(s, 2)):
            flags["heavy-colour-set"] = True
            witnesses["heavy-colour-set"] = {"set": s, "count": count}
            break

    by_colour: dict[int, list[tuple[int, ...]]] = {}
    for e, colour in inside:
        by_colour.setdefault(colour, []).append(e)
    flags["spread-colour-pair"] = False
    flags["almost-spread-colour-pair"] = False
    for colour, edges in by_colour.items():
        if len(edges) < 2:
            continue
        for e, f in combinations(edges, 2):
            cut = len(set(e) & set(f))
            if cut > 1:
                continue
            union = sorted(set(e) | set(f))
            close_count = sum(close(u, v) for u, v in combinations(union, 2))
            if not close_count and not flags["spread-colour-pair"]:
                flags["spread-colour-pair"] = True
                witnesses["spread-colour-pair"] = {"colour": colour, "pair": (e, f)}
            if cut == 0 and close_count == 1 and not flags["almost-spread-colour-pair"]:
                flags["almost-spread-colour-pair"] = True
                witnesses["almost-spread-colour-pair"] = {"colour": colour, "pair": (e, f)}
        if flags["spread-colour-pair"] and flags["almost-spread-colour-pair"]:
            break

    part_count = t * (k - 1) + 1
    bound = sample_degree_bound(threshold, epsilon, part_count * m, k, j)
    flags["low-sample-degree"] = False
    for s in combinations(everything, j):
        deg = degrees[s]
        if deg < bound:
            flags["low-sample-degree"] = True
            witnesses["low-sample-degree"] = {"set": s, "degree": deg, "bound": bound}
            break

    flags["close-paths"] = False
    for (i, p), (i2, q) in combinations(enumerate(sample.all_paths), 2):
        pair = next(
            ((u, v) for u in p.vertices for v in q.vertices if close(u, v)), None
        )
        if pair is not None:
            flags["close-paths"] = True
            witnesses["close-paths"] = {"paths": (i, i2), "pair": pair}
            break

    return EventReport(flags, witnesses)


@dataclass
class AcceptanceResult:
    accepted: bool
    reasons: list[str]
    events: EventReport | None = None
    splitting: Splitting | None = None

    def __bool__(self) -> bool:
        return self.accepted


def accept_suitable(
    sample: SampledSplitting,
    g: Hypergraph,
    chi: Colouring,
    params: Parameters,
) -> AcceptanceResult:
    """Accept a sample iff it is a balanced splitting of the right size and
    none of the rejection events fire.  Acceptance implies suitability for
    the anchor, which is asserted rather than trusted."""
    reasons: list[str] = []
    if sample.size != params.split_size:
        reasons.append(f"size: {sample.size} paths, want {params.split_size}")
        return AcceptanceResult(False, reasons)
    checked = validate_splitting(
        sample.cycle, sample.all_paths, "balanced", params.path_len
    )
    if not isinstance(checked, Splitting):
        reasons.append(f"invalid-splitting: {checked}")
        return AcceptanceResult(False, reasons)
    events = check_events(
        sample, g, chi,
        epsilon=params.epsilon,
        path_count=params.split_size,
        j=params.j,
        threshold=params.threshold,
    )
    if events.any:
        reasons.extend(name for name, hit in events.flags.items() if hit)
        return AcceptanceResult(False, reasons, events)
    suitable = is_suitable(checked, sample.anchor, chi, g, params.epsilon)
    assert suitable.ok, f"accepted sample must be suitable: {suitable}"
    return AcceptanceResult(True, [], events, checked)


def _draw_transverse_partition(
    splitting: Splitting, quota: int, gen
) -> TransversePartition:
    """A uniform transverse partition among those that meet the exit quota.

    The exits take a uniform arrangement of the parts, each repeated quota
    times; each path's other vertices then take an independent uniform
    bijection onto the parts its exit did not take.  That is the sequential
    uniform process (each round takes one unused vertex from every path,
    the last part collects the leftovers) conditioned on exit-quota.
    """
    paths, exits = splitting.paths, splitting.exits
    part_count = len(paths[0].vertices)
    exit_parts = gen.permutation(np.repeat(np.arange(part_count), quota)).tolist()
    others = gen.permuted(
        [[h for h in range(part_count) if h != e] for e in exit_parts], axis=1
    ).tolist()
    parts: list[set[int]] = [set() for _ in range(part_count)]
    for path, x, e, row in zip(paths, exits, exit_parts, others):
        parts[e].add(x)
        for v, h in zip([v for v in path.vertices if v != x], row):
            parts[h].add(v)
    return TransversePartition(tuple(frozenset(p) for p in parts))


def partition_conditions(
    splitting: Splitting,
    partition: TransversePartition,
    params: Parameters,
    g: Hypergraph,
    structural: bool,
) -> CheckReport:
    """Acceptance conditions for a sampled transverse partition.

    exit-quota: every part holds exactly pairs_per_part path exits.
    entry-bound: no part holds more than beta*m path entries.
    relative-degree: every j-set of the splitting vertices keeps degree
    (threshold + 5*epsilon/8) * m^(k-j) into every part.
    Structural mode gates on exit-quota alone.
    """
    entries, exits = splitting.entries, splitting.exits
    conditions: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    m = splitting.size
    exit_set = set(exits)
    entry_set = set(entries)

    quota = params.pairs_per_part
    conditions["exit-quota"] = all(
        len(part & exit_set) == quota for part in partition.parts
    )
    if not structural:
        cap = params.beta * m
        conditions["entry-bound"] = all(
            len(part & entry_set) <= cap for part in partition.parts
        )
        bound = relative_degree_bound(params.threshold, params.epsilon, m, g.k, params.j)
        degree_ok = True
        for s in combinations(sorted(splitting.vertex_set), params.j):
            for h, part in enumerate(partition.parts):
                count = relative_degree(g, s, part)
                if count < bound:
                    degree_ok = False
                    witnesses["relative-degree"] = {"set": s, "part": h, "degree": count}
                    break
            if not degree_ok:
                break
        conditions["relative-degree"] = degree_ok
    return CheckReport(all(conditions.values()), conditions, witnesses)


def sample_transverse_partition(
    splitting: Splitting,
    g: Hypergraph,
    params: Parameters,
    config: PipelineConfig,
) -> TransversePartition:
    """Resample uniform transverse partitions that meet the exit quota
    until the conditions hold, and return the first that does.

    Draws at most config.partition_budget partitions, one stream of
    config.seed each, and gates every draw in the mode
    config.is_structural(g) picks for the host g: exit-quota is checked
    again on each, and strict mode also gates entry-bound and
    relative-degree.  Before the first draw it raises what
    config.refusal(g, params) returns.
    """
    refusal = config.refusal(g, params)
    if refusal is not None:
        raise refusal
    if splitting.size != params.split_size:
        raise InvalidInput(
            f"splitting has {splitting.size} paths, parameters say {params.split_size}"
        )
    structural = config.is_structural(g)
    for attempt in range(config.partition_budget):
        gen = stream(config.seed, "transverse-partition", attempt)
        partition = _draw_transverse_partition(splitting, params.pairs_per_part, gen)
        if partition_conditions(splitting, partition, params, g, structural).ok:
            return partition
    raise BudgetExhausted(
        "transverse-partition",
        f"no acceptable partition in {config.partition_budget} attempts",
    )


def build_aux_digraph(
    partition: TransversePartition, splitting: Splitting
) -> Digraph:
    """Arc i -> i' iff the exit of path i and the exit of path i'-1 live in
    different parts.  (i -> i+1 never appears: that compares an exit with
    itself.)"""
    if not paths_in_cyclic_order(splitting):
        raise InvalidInput("paths must be indexed in cyclic order around the host")
    m = splitting.size
    exits = splitting.exits
    part_of = partition.part_of
    arcs = [
        (i, ip)
        for i in range(m)
        for ip in range(m)
        if i != ip and part_of[exits[i]] != part_of[exits[(ip - 1) % m]]
    ]
    return Digraph.from_arcs(m, arcs)


def build_viable_partition(
    splitting: Splitting,
    partition: TransversePartition,
    dicycle: tuple[int, ...],
) -> tuple[TransversePartition, Rerouting]:
    """Turn a sampled partition plus a Hamilton dicycle into a rerouting
    and the swapped partition that hosts it.

    The rerouting pairs the entry of path i with the exit of path i'-1
    along each arc i -> i'.  For each i the entry is then swapped with the
    unique vertex of path i sitting in the pair's target part, so every
    pair ends up inside one part, exactly quota-many per part.
    """
    m = splitting.size
    if sorted(dicycle) != list(range(m)):
        raise InvalidInput("dicycle must span all path indices")
    if not paths_in_cyclic_order(splitting):
        raise InvalidInput("paths must be indexed in cyclic order around the host")
    entries, exits = splitting.entries, splitting.exits
    part_count = len(partition.parts)
    quota, rem = divmod(m, part_count)
    if rem:
        raise InvalidInput("part count must divide the splitting size")
    exit_counts = [
        len(part & set(exits)) for part in partition.parts
    ]
    if any(c != quota for c in exit_counts):
        raise InvalidInput("partition does not hold the exit quota")

    successor = {dicycle[i]: dicycle[(i + 1) % m] for i in range(m)}
    part_of = dict(partition.part_of)
    pairs = []
    for i in range(m):
        ip = successor[i]
        partner = exits[(ip - 1) % m]
        pairs.append(tuple(sorted((entries[i], partner))))
        target = part_of[partner]
        assert part_of[exits[i]] != target, "dicycle arc breaks the digraph rule"
        inside = [v for v in splitting.paths[i].vertices if part_of[v] == target]
        assert len(inside) == 1, "transversality guarantees a unique swap vertex"
        w = inside[0]
        assert w != exits[i]
        part_of[entries[i]], part_of[w] = part_of[w], part_of[entries[i]]

    new_parts = [set() for _ in range(part_count)]
    for v, h in part_of.items():
        new_parts[h].add(v)
    swapped = TransversePartition(tuple(frozenset(p) for p in new_parts))
    assert partition_is_transverse(splitting, swapped)

    per_part = [0] * part_count
    for a, b in pairs:
        ha = swapped.part_of[a]
        assert ha == swapped.part_of[b], "pair split across parts"
        per_part[ha] += 1
    assert all(c == quota for c in per_part)

    rerouting = validate_rerouting(splitting, pairs)
    assert isinstance(rerouting, Rerouting), f"swap construction broke: {rerouting}"

    entry_set = set(entries)
    for old, new in zip(partition.parts, swapped.parts):
        assert len(old - new) <= len(old & entry_set) + quota
    return swapped, rerouting


def draw_viable_partition(
    splitting: Splitting,
    g: Hypergraph,
    params: Parameters,
    config: PipelineConfig,
) -> tuple[TransversePartition, Rerouting] | None:
    """One switching step's partition: sample a transverse partition, find
    a Hamilton dicycle of its auxiliary digraph and swap the partition
    around it.

    Returns the swapped partition and its rerouting, or None when the
    digraph has no Hamilton dicycle.  BudgetExhausted from the partition
    sampler passes through.
    """
    partition = sample_transverse_partition(splitting, g, params, config)
    dicycle = find_hamilton_dicycle(build_aux_digraph(partition, splitting))
    if dicycle is None:
        return None
    return build_viable_partition(splitting, partition, dicycle)


@dataclass(frozen=True)
class FractionEstimate:
    successes: int
    trials: int
    rate: float
    interval: tuple[float, float]
    records: tuple[dict, ...]


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def _estimate_trial(args) -> dict:
    g, chi, cycle, anchor, params, config, trial = args
    sample = sample_splitting(
        cycle, anchor, params.split_size, params.path_len, config.seed, trial
    )
    record: dict = {"trial": trial, "sampled_edges": len(sample.sampled_positions)}
    outcome = accept_suitable(sample, g, chi, params)
    record["accepted"] = outcome.accepted
    record["reasons"] = outcome.reasons
    if outcome.events is not None:
        record["events"] = dict(outcome.events.flags)
    record["viable"] = False
    if outcome.accepted:
        try:
            drawn = draw_viable_partition(
                outcome.splitting, g, params,
                replace(config, seed=child_seed(config.seed, "estimate-partition", trial)),
            )
        except BudgetExhausted:
            record["partition"] = "budget-exhausted"
            return record
        if drawn is None:
            record["partition"] = "no-dicycle"
            return record
        swapped, _ = drawn
        verdict = is_viable(
            outcome.splitting, swapped, g,
            epsilon=params.epsilon,
            pairs_per_part=params.pairs_per_part,
            threshold=params.threshold,
            j=params.j,
        )
        record["viable"] = bool(verdict.ok)
        record["viable_conditions"] = dict(verdict.conditions)
    return record


def estimate_suitable_fraction(
    g: Hypergraph,
    chi: Colouring,
    cycle: LooseCycle,
    anchor: LoosePath,
    params: Parameters,
    trials: int,
    config: PipelineConfig,
    jobs: int = 1,
) -> FractionEstimate:
    """Monte-Carlo fraction of samples that are accepted as suitable and
    admit a viable partition, with a 95% Wilson interval.

    Trial i samples its splitting from config.seed and draws its partition
    under a child seed of it; config also sets the partition budget and
    mode.  Trials own independent streams, so results are identical for any
    job count; records are merged in trial order.  Workers take trials in
    chunks of 64, so at most ceil(trials / 64) of them are started, and
    none when that is one.  Every trial runs the event gate, so the trials
    run under config with require_events set, and before the first draw it
    raises what that config's refusal returns, or the refusal of an anchor
    that is not a sub-path of the cycle with params.path_len edges.
    """
    if trials < 1:
        raise InvalidInput("need at least one trial")
    config = replace(config, require_events=True)
    refusal = config.refusal(g, params)
    if refusal is not None:
        raise refusal
    _anchor_start(cycle, anchor, params.path_len)
    args = [(g, chi, cycle, anchor, params, config, trial) for trial in range(trials)]
    chunk = 64
    workers = min(jobs, -(-trials // chunk))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_estimate_trial, args, chunksize=chunk))
    else:
        records = [_estimate_trial(a) for a in args]
    successes = sum(1 for r in records if r["accepted"] and r["viable"])
    return FractionEstimate(
        successes=successes,
        trials=trials,
        rate=successes / trials,
        interval=wilson_interval(successes, trials),
        records=tuple(records),
    )


@dataclass(frozen=True)
class BinomialHit:
    trials: int
    prob_hit: Fraction
    mean: int
    bound: float
    passes: bool
    in_regime: bool


def exact_binomial_hit(n: int, p) -> BinomialHit:
    """Exact probability that a binomial(n, p) variable equals its mean,
    compared against 1/(4*sqrt(mean)) in exact arithmetic.

    p may be a Fraction, a string like "1/20" or "0.05", or a float (which
    is read through its decimal representation).  The mean n*p must be a
    positive integer; means above sqrt(n) are computed but flagged as
    outside the regime.
    """
    if isinstance(p, float):
        p = Fraction(str(p))
    else:
        p = Fraction(p)
    if not 0 < p <= 1:
        raise InvalidInput(f"p must lie in (0, 1], got {p}")
    mean_frac = n * p
    if mean_frac.denominator != 1:
        raise InvalidInput(f"n*p = {mean_frac} is not an integer")
    lam = int(mean_frac)
    if lam < 1:
        raise InvalidInput("the bound is undefined for a zero mean")
    prob = comb(n, lam) * p ** lam * (1 - p) ** (n - lam)
    # prob >= 1/(4*sqrt(lam))  <=>  16 * lam * prob^2 >= 1, exactly.
    passes = 16 * lam * prob * prob >= 1
    return BinomialHit(
        trials=n,
        prob_hit=prob,
        mean=lam,
        bound=1 / (4 * sqrt(lam)),
        passes=passes,
        in_regime=lam * lam <= n,
    )
