"""Covering a vertex set by short loose paths with prescribed endpoints.

The pipeline mirrors an absorption-style construction: set aside small
reservoir sets to fix divisibility later, randomly partition the remaining
vertices into one block per requested path, repair blocks that trap
conflict edges by moving single vertices, fix the (k-1)-divisibility of
each block from the reservoirs, and finally find a spanning loose path in
each block with an exhaustive oracle (standing in for an asymptotic
existence guarantee that is out of reach at this scale).

Stages that cannot change the answer are skipped.  With one pair there
are no reservoirs and the partition is forced, so only the claim gate
runs before the whole vertex set is tiled as one block.  A block of
exactly k vertices is its own path when the host holds it as an edge and
no conflict pair lies inside it; only otherwise does the oracle run.

Every stage is deterministic given (request, seed); failures carry the
stage name.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .cycles import LoosePath
from .graphs import PairGraph
from .hypergraph import Hypergraph, InvalidInput, Parameters, PipelineConfig, induced, relative_degree
from .oracles import find_loose_hamilton_path
from .rng import stream
from .splitting import CheckReport


class TilingInfeasible(Exception):
    """A pipeline stage could not be completed; names the stage."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


@dataclass(frozen=True)
class TilingRequest:
    """Inputs for one tiling: host graph, endpoint pairs, conflict graph,
    and the base path length t (paths may have length up to 2t)."""

    graph: Hypergraph
    pairs: tuple[tuple[int, int], ...]
    conflicts: PairGraph
    path_len: int

    def __post_init__(self) -> None:
        n, k = self.graph.n, self.graph.k
        if self.path_len < 1:
            raise InvalidInput("path length must be >= 1")
        if not self.pairs:
            raise InvalidInput("need at least one endpoint pair")
        seen: set[int] = set()
        for pair in self.pairs:
            if len(pair) != 2 or pair[0] == pair[1]:
                raise InvalidInput(f"{pair} is not a pair of distinct vertices")
            for v in pair:
                if not 0 <= v < n:
                    raise InvalidInput(f"pair vertex {v} outside [0, {n})")
                if v in seen:
                    raise InvalidInput(f"pairs overlap at vertex {v}")
                seen.add(v)
        for u, v in self.conflicts.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInput(f"conflict edge ({u}, {v}) outside [0, {n})")
        cap = 2 * self.path_len * k * k
        if self.conflicts.max_degree() > cap:
            raise InvalidInput(
                f"conflict graph degree {self.conflicts.max_degree()} exceeds {cap}"
            )

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    @property
    def pair_vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.pairs for v in p)


@dataclass(frozen=True)
class PathTiling:
    paths: tuple[LoosePath, ...]


def choose_reservoirs(req: TilingRequest) -> tuple[tuple[int, ...], ...]:
    """Reservoir sets W[1..pair_count-1] of size k-2, plus empty sentinels
    W[0] and W[pair_count].

    Each W[i] avoids conflict-graph neighbours of the two adjacent pairs
    and of W[i-1], and induces no conflict edge itself, so the only
    possible conflict edges near the pairs are the pair edges.

    A reservoir vertex lands in the extended sets of both adjacent blocks,
    so candidates are ranked by conflict degree first (vertices with
    conflict neighbours poison every block at small scale), then by id;
    the choice is still deterministic.
    """
    k = req.graph.k
    mt = req.pair_count
    b = req.conflicts
    available = sorted(
        set(range(req.graph.n)) - req.pair_vertices,
        key=lambda v: (len(b.neighbours(v)), v),
    )
    reservoirs: list[tuple[int, ...]] = [()]
    for i in range(1, mt):
        banned: set[int] = set()
        for anchor in (*req.pairs[i - 1], *req.pairs[i], *reservoirs[i - 1]):
            banned |= b.neighbours(anchor)
        chosen: list[int] = []
        for v in available:
            if len(chosen) == k - 2:
                break
            if v in banned:
                continue
            if any(b.has_edge(v, w) for w in chosen):
                continue
            chosen.append(v)
        if len(chosen) < k - 2:
            raise TilingInfeasible(
                "reservoirs", f"no conflict-free set of size {k - 2} for slot {i}"
            )
        reservoirs.append(tuple(chosen))
        available = [v for v in available if v not in set(chosen)]
    reservoirs.append(())
    return tuple(reservoirs)


def _block_plus(req, reservoirs, parts, p: int) -> set[int]:
    return set(parts[p]) | set(req.pairs[p]) | set(reservoirs[p]) | set(reservoirs[p + 1])


def _trapped(req, reservoirs, parts, p: int) -> list[tuple[int, int]]:
    """The conflict edges block p traps: those inside its extended set
    other than its own pair.  The block is good when there are none."""
    plus = _block_plus(req, reservoirs, parts, p)
    pair = tuple(sorted(req.pairs[p]))
    return [e for e in req.conflicts.edges_inside(plus) if e != pair]


def _covers(part, trapped) -> list[int]:
    """The block's vertices that lie in every trapped edge, sorted.  A bad
    block none of whose vertices covers its trapped edges is very bad."""
    return sorted(set(part).intersection(*trapped))


def sample_claim_partition(
    req: TilingRequest, reservoirs, params: Parameters, config: PipelineConfig
) -> Iterator[list[set[int]]]:
    """Uniform independent assignments of the free vertices into one block
    per pair, one draw for each of the config.claim_budget attempts;
    yields each assignment that meets the acceptance conditions, in
    attempt order.  A forced partition (one pair, or no free vertex) is
    the same at every attempt, so it is drawn and gated once.

    Conditions: "part-sizes" (each block size within beta*t of
    (t-1)*(k-1)), "no-very-bad" (every block's trapped conflict edges
    share a vertex of the block), "bad-count" (at most t^3 k^3 blocks trap
    any conflict edge) and "part-degrees" (relative degree of every j-set
    into each extended block; skipped in structural mode).

    In structural mode the size window is widened just enough to include
    the expected block size (which the asymptotic window can exclude at
    desk scale), and the two goodness conditions gate only the first 100
    attempts: with very few blocks they can be unsatisfiable outright,
    while the downstream spanning-path oracle enforces conflict avoidance
    regardless.

    When no whole block sizes in the window add up to the number of free
    vertices, every draw would fail "part-sizes", so the sampler refuses
    before its first draw.  When the budget ends on rejected attempts it
    raises "claim-partition" with the failures counted since the last
    accepted one.
    """
    g, k, t = req.graph, req.graph.k, req.path_len
    mt = req.pair_count
    free = sorted(
        set(range(g.n)) - req.pair_vertices - {v for w in reservoirs for v in w}
    )
    structural = config.is_structural(g)
    centre = (t - 1) * (k - 1)
    low = centre - params.beta * t
    high = centre + params.beta * t
    if structural:
        mean = centre + (k - 2) / mt
        low = min(low, math.floor(mean))
        high = max(high, math.ceil(mean))
    smallest, largest = max(0, math.ceil(low)), math.floor(high)
    if not mt * smallest <= len(free) <= mt * largest:
        raise TilingInfeasible(
            "claim-partition",
            f"part-sizes: no {mt} block sizes in [{smallest}, {largest}] "
            f"add up to {len(free)}, the number of free vertices",
        )
    bad_cap = t ** 3 * k ** 3
    degree_floor = params.threshold + 3 * params.epsilon / 16
    # With a single block (or nothing to assign) the partition is unique:
    # no draw is needed, and in structural mode the goodness gate is
    # pointless.
    forced = mt == 1 or not free
    attempts = 1 if forced else config.claim_budget
    failures: dict[str, int] = {}
    for attempt in range(attempts):
        if forced:
            assignment = [0] * len(free)
        else:
            gen = stream(config.seed, "claim-partition", attempt)
            assignment = gen.integers(mt, size=len(free))
        parts: list[set[int]] = [set() for _ in range(mt)]
        for v, p in zip(free, assignment):
            parts[int(p)].add(v)

        gated = not structural or (not forced and attempt < 100)
        sized = all(low <= len(part) <= high for part in parts)
        trapped = [_trapped(req, reservoirs, parts, p) for p in range(mt)] if sized and gated else []
        if not sized:
            failure = "part-sizes"
        elif any(edges and not _covers(part, edges) for part, edges in zip(parts, trapped)):
            failure = "no-very-bad"
        elif sum(map(bool, trapped)) > bad_cap:
            failure = "bad-count"
        elif not structural and any(
            relative_degree(g, s, plus) < degree_floor * len(plus) ** (k - params.j)
            for plus in (_block_plus(req, reservoirs, parts, p) for p in range(mt))
            for s in combinations(free, params.j)
        ):
            failure = "part-degrees"
        else:
            yield parts
            failures = {}
            continue
        failures[failure] = failures.get(failure, 0) + 1
    if failures:
        raise TilingInfeasible(
            "claim-partition",
            f"no acceptable partition in {attempts} attempts "
            f"(failures: {failures})",
        )


def repair_bad_parts(req: TilingRequest, reservoirs, parts) -> list[set[int]]:
    """Move one vertex out of each bad block into a block that stays good.

    For a bad block, the moved vertex must cover all its trapped non-pair
    conflict edges (guaranteed possible when the block is not very bad).
    Targets are originally good blocks, distinct across moves; all choices
    are lexicographically least valid.

    The trapped edges are read once: a free vertex z is no pair or
    reservoir vertex, so removing it leaves block p good iff z covers
    p's trapped edges, and a target q that is still untouched stays good
    with z added iff z has no conflict neighbour in q's extended set.

    Unfixable blocks are left in place: the spanning-path oracle
    downstream enforces conflict avoidance regardless, and at small scale
    (few blocks) there may simply be no valid target even though the
    tiling itself is feasible.
    """
    parts = [set(p) for p in parts]
    trapped = [_trapped(req, reservoirs, parts, p) for p in range(req.pair_count)]
    targets = [q for q, edges in enumerate(trapped) if not edges]
    for p, edges in enumerate(trapped):
        moves = (
            (z, q)
            for z in (_covers(parts[p], edges) if edges else ())
            for q in targets
            if req.conflicts.neighbours(z).isdisjoint(_block_plus(req, reservoirs, parts, q))
        )
        for z, q in moves:
            parts[p].discard(z)
            parts[q].add(z)
            targets.remove(q)
            break
    return parts


def fix_divisibility(req: TilingRequest, reservoirs, parts) -> list[frozenset[int]]:
    """Distribute reservoir vertices so every final block has size 1 mod
    (k-1), consuming all leftovers by the last block."""
    k = req.graph.k
    mt = req.pair_count
    finals: list[frozenset[int]] = []
    carry: tuple[int, ...] = ()  # unused reservoir vertices passed forward
    for p in range(mt):
        need = (len(parts[p]) + len(carry) + 1) % (k - 1) if k > 2 else 0
        take = 0 if need == 0 else (k - 1 - need)
        pool = sorted(reservoirs[p + 1])
        if take > len(pool):
            raise AssertionError(
                f"internal: block {p} needs {take} reservoir vertices, "
                f"has {len(pool)}; caller corrupted the sizes"
            )
        plus = tuple(pool[:take])
        finals.append(
            frozenset(parts[p]) | frozenset(carry) | frozenset(req.pairs[p]) | frozenset(plus)
        )
        carry = tuple(pool[take:])
    if carry:
        raise AssertionError("internal: reservoir vertices left over after the last block")
    covered: set[int] = set()
    for p, block in enumerate(finals):
        if k > 2 and (len(block) - 1) % (k - 1) != 0:
            raise AssertionError(f"internal: block {p} has size {len(block)}")
        if covered & block:
            raise AssertionError("internal: final blocks overlap")
        covered |= block
    if covered != set(range(req.graph.n)):
        raise AssertionError("internal: final blocks do not cover the graph")
    return finals


def build_path_tiling(
    req: TilingRequest, params: Parameters, config: PipelineConfig | None = None
) -> PathTiling:
    """Run the full pipeline and spell every block into a loose path.

    The spanning path inside each block is found by the exhaustive
    backtracking oracle, constrained to avoid every hyperedge containing a
    conflict pair.  A block of exactly k vertices skips the oracle when it
    is a host edge with no conflict pair inside: that edge, from one end of
    its pair to the other, is its only path.  A request with one pair runs
    the claim gate once and tiles all n vertices as its block, with no
    reservoirs, repair, divisibility top-up or retries, since none of them
    can change a forced partition.  Any stage that cannot complete raises
    TilingInfeasible naming the stage.  Of the parameters only epsilon,
    beta, threshold and j are read; the path length and pair count come
    from the request.
    """
    config = config or PipelineConfig()
    g, k = req.graph, req.graph.k
    mt = req.pair_count
    if k > 2 and g.n % (k - 1) != mt % (k - 1):
        raise TilingInfeasible(
            "divisibility",
            f"{mt} loose paths cover {mt} mod {k - 1} vertices mod {k - 1}, "
            f"but n = {g.n} is {g.n % (k - 1)} mod {k - 1}",
        )
    if g.n < 2 * mt + (k - 2) * (mt - 1):
        raise TilingInfeasible("reservoirs", "not enough vertices for pairs and reservoirs")
    if mt == 1:
        # The reservoirs are the empty sentinels and the claim partition is
        # forced, so repair and the divisibility top-up leave it unchanged
        # and there is nothing to retry.  The sampler still gates it once.
        next(sample_claim_partition(req, ((), ()), params, config))
        return PathTiling(tuple(_tile_blocks(req, [frozenset(range(g.n))])))
    reservoirs = choose_reservoirs(req)
    # A partition that passes the claim conditions can still strand the
    # spanning-path stage at desk scale, so the tail of the pipeline moves
    # on to the next accepted partition, at most 25 times.  A partition
    # that was tried before, the same block for each pair, ends the tiling.
    tried: set[tuple[frozenset[int], ...]] = set()
    for parts in sample_claim_partition(req, reservoirs, params, config):
        parts = repair_bad_parts(req, reservoirs, parts)
        key = tuple(map(frozenset, parts))
        if key in tried:
            raise failure
        tried.add(key)
        finals = fix_divisibility(req, reservoirs, parts)
        try:
            return PathTiling(tuple(_tile_blocks(req, finals)))
        except TilingInfeasible as exc:
            failure = exc
        if len(tried) == 25:
            break
    # The sampler yields at least once or raises, so a failure is set here.
    raise failure


def _tile_blocks(req: TilingRequest, finals) -> list[LoosePath]:
    g, k = req.graph, req.graph.k
    paths: list[LoosePath] = []
    for p, block in enumerate(finals):
        a, b = req.pairs[p]
        if len(block) == k:
            # The block's one possible loose path is the block itself, in
            # the vertex order the oracle's closing step gives.  Otherwise
            # the oracle runs, so a refusal still comes from it.
            edge = tuple(sorted(block))
            if g.contains(edge) and not req.conflicts.contained_pairs(edge):
                paths.append(LoosePath((a, *(v for v in edge if v != a and v != b), b), k))
                continue
        sub, old_ids = induced(g, block)
        to_new = {v: i for i, v in enumerate(old_ids)}
        forbidden = PairGraph.from_pairs(
            (to_new[u], to_new[v]) for u, v in req.conflicts.edges_inside(block)
        )
        found = find_loose_hamilton_path(sub, to_new[a], to_new[b], forbidden)
        if found is None:
            raise TilingInfeasible(
                "ham-path", f"no conflict-free spanning path in block {p}"
            )
        path = LoosePath(tuple(old_ids[v] for v in found.vertices), k)
        if path.length > 2 * req.path_len:
            raise TilingInfeasible(
                "ham-path", f"block {p} forces length {path.length} > {2 * req.path_len}"
            )
        paths.append(path)
    return paths


def validate_path_tiling(req: TilingRequest, tiling: PathTiling) -> CheckReport:
    """Independent check of the five output invariants: cover,
    disjointness, prescribed endpoints, length bound, conflict avoidance.
    (Edge membership in the host is checked alongside.)"""
    conditions: dict[str, bool] = {}
    witnesses: dict[str, object] = {}

    seen: set[int] = set()
    disjoint = True
    for path in tiling.paths:
        if seen & path.vertex_set:
            disjoint = False
            witnesses["disjoint"] = sorted(seen & path.vertex_set)
        seen |= path.vertex_set
    conditions["disjoint"] = disjoint
    conditions["cover"] = seen == set(range(req.graph.n))
    if not conditions["cover"]:
        witnesses["cover"] = sorted(set(range(req.graph.n)) - seen)

    conditions["endpoints"] = len(tiling.paths) == req.pair_count and all(
        path.endvertices == set(pair)
        for path, pair in zip(tiling.paths, req.pairs)
    )
    conditions["length"] = all(p.length <= 2 * req.path_len for p in tiling.paths)

    edges_ok = True
    conflict_free = True
    for path in tiling.paths:
        for e in path.edges:
            if not req.graph.contains(e):
                edges_ok = False
                witnesses["edges-present"] = e
            if req.conflicts.contained_pairs(e):
                conflict_free = False
                witnesses["conflict-free"] = e
    conditions["edges-present"] = edges_ok
    conditions["conflict-free"] = conflict_free
    return CheckReport(all(conditions.values()), conditions, witnesses)
