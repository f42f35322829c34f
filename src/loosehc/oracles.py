"""Exhaustive ground-truth searches at desk scale.

Everything here is exact: enumeration and backtracking, never sampling.
Budget-limited searches return explicit tri-state results so that running
out of budget can never masquerade as a proof of absence.
"""

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .colouring import Colouring
from .cycles import LooseCycle, LoosePath, TightCycle, validate_tight_cycle
from .graphs import Digraph, PairGraph
from .hypergraph import Hypergraph, InvalidInput
from .rng import stream


@dataclass(frozen=True)
class EnumerationBudget:
    node_limit: int = 50_000_000
    time_limit: float = 300.0

    def __post_init__(self) -> None:
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise InvalidInput("budget limits must be positive")


@dataclass
class _BudgetClock:
    budget: EnumerationBudget
    nodes: int = 0
    started: float = field(default_factory=time.monotonic)
    exhausted: bool = False

    def tick(self) -> bool:
        """Count a node; True while within budget."""
        if self.exhausted:
            return False
        self.nodes += 1
        if self.nodes > self.budget.node_limit or (
            self.nodes % 4096 == 0
            and time.monotonic() - self.started > self.budget.time_limit
        ):
            self.exhausted = True
            return False
        return True


@dataclass(frozen=True)
class EnumerationResult:
    cycles: tuple[LooseCycle, ...]
    complete: bool
    nodes: int


@dataclass(frozen=True)
class RainbowSearchResult:
    """Tri-state outcome: found / absent / unknown (budget exceeded)."""

    status: str  # "found" | "absent" | "unknown"
    witness: LooseCycle | TightCycle | None = None


def _loose_walks(by_vertex, walk, used, end, remaining, tick, colour_of=None, colours=None):
    """Extend walk by `remaining` loose edges, yielding each finished walk.

    Each new edge meets `used` only in the walk's current last vertex, and
    only the last edge contains `end`, which closes the walk.  tick() counts
    a node; once it returns False the search stops.  With colour_of set, a
    branch that repeats a colour in `colours` is pruned, so only rainbow
    walks come out.
    """
    if not tick():
        return
    current = walk[-1]
    last = remaining == 1
    for e in by_vertex.get(current, ()):
        e_set = set(e)
        if (e_set & used) != {current} or (end in e_set) != last:
            continue
        if colour_of is not None:
            c = colour_of(e)
            if c in colours:
                continue
        others = e_set - {current}
        if last:
            yield (*walk, *sorted(others - {end}), end)
            continue
        if colour_of is not None:
            colours.add(c)
        used |= others
        for nxt in sorted(others):
            walk.extend(sorted(others - {nxt}))
            walk.append(nxt)
            yield from _loose_walks(
                by_vertex, walk, used, end, remaining - 1, tick, colour_of, colours
            )
            del walk[-len(others):]
        used -= others
        if colour_of is not None:
            colours.discard(c)


def _cycle_walks(g: Hypergraph, clock: _BudgetClock, colour_of=None):
    """Vertex walks of the loose Hamilton cycles of g, each cycle once.

    The first edge of a walk is the cycle's least edge, the anchor; the rest
    of the cycle is a spanning loose path from the anchor's exit back to its
    entry.  Requiring entry < exit fixes the direction.
    """
    if g.n % (g.k - 1) != 0:
        raise InvalidInput(f"(k-1) = {g.k - 1} must divide n = {g.n}")
    count = g.n // (g.k - 1)
    if count < 3 or len(g.edges) < count:
        return
    for anchor in g.edges:
        by_vertex: dict[int, list[tuple[int, ...]]] = {}
        for e in g.edges:
            if e > anchor:
                for v in e:
                    by_vertex.setdefault(v, []).append(e)
        for entry, exit_ in combinations(anchor, 2):
            interior = [v for v in anchor if v != entry and v != exit_]
            colours = {colour_of(anchor)} if colour_of else None
            for walk in _loose_walks(
                by_vertex, [entry, *interior, exit_], set(anchor) - {entry},
                entry, count - 1, clock.tick, colour_of, colours,
            ):
                yield walk[:-1]
            if clock.exhausted:
                return


def enumerate_loose_hamilton_cycles(
    g: Hypergraph, budget: EnumerationBudget | None = None
) -> EnumerationResult:
    """All distinct loose Hamilton cycles of g, in canonical form."""
    clock = _BudgetClock(budget or EnumerationBudget())
    found = [LooseCycle(walk, g.k) for walk in _cycle_walks(g, clock)]
    cycles = tuple(sorted(found, key=lambda c: c.vertices))
    return EnumerationResult(cycles, complete=not clock.exhausted, nodes=clock.nodes)


def exists_rainbow_loose_hc(
    g: Hypergraph, chi: Colouring, budget: EnumerationBudget | None = None
) -> RainbowSearchResult:
    """First rainbow loose Hamilton cycle in enumeration order, if any."""
    clock = _BudgetClock(budget or EnumerationBudget())
    for walk in _cycle_walks(g, clock, colour_of=chi.colour):
        return RainbowSearchResult("found", LooseCycle(walk, g.k))
    return RainbowSearchResult("unknown" if clock.exhausted else "absent")


def find_loose_hamilton_path(
    g: Hypergraph,
    a: int,
    b: int,
    forbidden_pairs: PairGraph | Iterable[Iterable[int]] = (),
) -> LoosePath | None:
    """A spanning loose path from a to b, or definitive absence.

    No chosen hyperedge may contain a forbidden pair of vertices.  The search
    has no budget, so None is a proof of absence.
    """
    if (g.n - 1) % (g.k - 1) != 0:
        raise InvalidInput(f"no loose path spans {g.n} vertices with k = {g.k}")
    if not (0 <= a < g.n and 0 <= b < g.n) or a == b:
        raise InvalidInput(f"endpoints {a}, {b} must be distinct vertices")
    if not isinstance(forbidden_pairs, PairGraph):
        forbidden_pairs = PairGraph.from_pairs(forbidden_pairs)
    allowed: dict[int, list[tuple[int, ...]]] = {}
    for e in g.edges:
        if forbidden_pairs.contained_pairs(e):
            continue
        for v in e:
            allowed.setdefault(v, []).append(e)
    length = (g.n - 1) // (g.k - 1)
    for walk in _loose_walks(allowed, [a], {a}, b, length, lambda: True):
        return LoosePath(walk, g.k)
    return None


def find_tight_hamilton_cycle(
    g: Hypergraph, chi: Colouring | None = None
) -> TightCycle | None:
    """Exhaustive tight Hamilton cycle search for 3-graphs; with a colouring,
    only rainbow cycles count.  Symmetry is cut by fixing the start vertex
    and the direction."""
    if g.k != 3:
        raise InvalidInput("tight-cycle machinery supports k = 3 only")
    if g.n > 12:
        raise InvalidInput("tight-cycle search is limited to n <= 12")
    if g.n < 3:
        return None
    n = g.n

    def windows_ok(order: list[int], colours: set[int], i: int) -> int | None:
        """Colour of window ending at position i, or None if not an edge or
        a repeated colour (when rainbow mode is on)."""
        window = order[i - 2: i + 1]
        if not g.contains(window):
            return None
        if chi is None:
            return -1
        c = chi.colour(window)
        return None if c in colours else c

    def search(order: list[int], used: set[int], colours: set[int]):
        i = len(order) - 1
        if i >= 2:
            c = windows_ok(order, colours, i)
            if c is None:
                return
            if chi is not None:
                colours.add(c)
        if len(order) == n:
            closing = []
            ok = order[1] < order[-1]  # one direction per cyclic ordering
            if ok:
                for j in range(2):
                    window = [order[(n - 2 + j + d) % n] for d in range(3)]
                    if not g.contains(window):
                        ok = False
                        break
                    if chi is not None:
                        c = chi.colour(window)
                        if c in colours or c in closing:
                            ok = False
                            break
                        closing.append(c)
            if ok:
                yield tuple(order)
        else:
            for v in sorted(set(range(n)) - used):
                order.append(v)
                used.add(v)
                yield from search(order, used, colours)
                used.discard(v)
                order.pop()
        if i >= 2 and chi is not None:
            colours.discard(c)

    for ordering in search([0], {0}, set()):
        result = validate_tight_cycle(g, ordering)
        assert isinstance(result, TightCycle)
        return result
    return None


def exists_rainbow_tight_hc(g: Hypergraph, chi: Colouring) -> RainbowSearchResult:
    """Exhaustive search for a rainbow tight Hamilton cycle (k = 3 only)."""
    witness = find_tight_hamilton_cycle(g, chi)
    if witness is None:
        return RainbowSearchResult("absent")
    return RainbowSearchResult("found", witness)


def uniform_random_hamilton_cycle(
    g: Hypergraph, seed: int, budget: EnumerationBudget | None = None
) -> LooseCycle:
    """A uniformly random loose Hamilton cycle.

    For complete hosts a random vertex permutation already induces a uniform
    cycle (every cycle arises from the same number of orderings), which
    avoids enumerating the whole set.  Otherwise the enumerated canonical
    set is sampled directly.
    """
    if g.is_complete():
        if g.n % (g.k - 1) != 0 or g.n // (g.k - 1) < 3:
            raise InvalidInput("graph has no loose Hamilton cycle")
        gen = stream(seed, "uniform-cycle")
        perm = tuple(int(v) for v in gen.permutation(g.n))
        return LooseCycle(perm, g.k)
    result = enumerate_loose_hamilton_cycles(g, budget)
    if not result.complete:
        raise InvalidInput("enumeration budget exceeded; cannot sample uniformly")
    if not result.cycles:
        raise InvalidInput("graph has no loose Hamilton cycle")
    gen = stream(seed, "uniform-cycle")
    return result.cycles[int(gen.integers(len(result.cycles)))]


def find_hamilton_dicycle(d: Digraph) -> tuple[int, ...] | None:
    """A Hamilton dicycle of d (as a vertex tuple starting at 0), or None.

    Exact backtracking; branches are ordered most-constrained-first.
    """
    n = d.n
    if n == 0:
        return None
    if n == 1:
        return None  # no self-arcs, so no dicycle on one vertex
    outs = d.out_neighbours
    arc_set = d.arcs

    def remaining_out(v: int, used: set[int]) -> int:
        return sum(1 for w in outs[v] if w not in used)

    def search(walk: list[int], used: set[int]):
        current = walk[-1]
        if len(walk) == n:
            if (current, 0) in arc_set:
                yield tuple(walk)
            return
        candidates = [v for v in outs[current] if v not in used]
        candidates.sort(key=lambda v: (remaining_out(v, used), v))
        for v in candidates:
            walk.append(v)
            used.add(v)
            yield from search(walk, used)
            used.discard(v)
            walk.pop()

    for cycle in search([0], {0}):
        return cycle
    return None
