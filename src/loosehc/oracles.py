"""Exhaustive ground-truth searches at desk scale.

Everything here is exact: enumeration and backtracking, never sampling.
Budget-limited searches return explicit tri-state results so that running
out of budget can never masquerade as a proof of absence.
"""

import time
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable

from .colouring import Colouring, is_rainbow
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


def _loose_index(n: int, edges, banned=()) -> list[list[tuple]]:
    """For each vertex v, (mask, others, e) for the edges e through v in the
    given order: mask has a bit per vertex of e, others is e without v.
    Edges whose mask covers a mask in `banned` are left out."""
    index: list[list[tuple]] = [[] for _ in range(n)]
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        if banned and any(mask & b == b for b in banned):
            continue
        for i, v in enumerate(e):
            index[v].append((mask, e[:i] + e[i + 1:], e))
    return index


def _closing_index(index, end) -> dict[int, list[tuple]]:
    """For each vertex v, the entries of index[v] whose edge holds `end`, in
    index order: the only edges that can close a walk at v."""
    closing: dict[int, list[tuple]] = {}
    for mask, others, e in index[end]:
        for v in others:
            closing.setdefault(v, []).append((mask, tuple(u for u in e if u != v), e))
    return closing


def _loose_walks(index, closing, walk, used, end, remaining, tick, colour_of=None,
                 colours=None):
    """Extend walk by `remaining` loose edges, yielding each finished walk.

    `used` is the bitmask of the walk's vertices.  Each new edge meets it
    only in the walk's current last vertex, and only the last edge contains
    `end`, which closes the walk; that edge comes from closing, the
    _closing_index of index at end.  tick() counts a node; once it returns
    False the search stops.  With colour_of (edge -> colour) set, a branch
    that repeats a colour in `colours` is pruned, so only rainbow walks
    come out.
    """
    if not tick():
        return
    current = walk[-1]
    bit, end_bit = 1 << current, 1 << end
    if remaining == 1:
        for mask, others, e in closing.get(current, ()):
            if mask & used != bit or (colour_of is not None and colour_of[e] in colours):
                continue
            yield (*walk, *(v for v in others if v != end), end)
        return
    for mask, others, e in index[current]:
        if mask & used != bit or mask & end_bit:
            continue
        if colour_of is not None:
            c = colour_of[e]
            if c in colours:
                continue
            colours.add(c)
        for i, nxt in enumerate(others):
            walk.extend(others[:i] + others[i + 1:])
            walk.append(nxt)
            yield from _loose_walks(
                index, closing, walk, used | mask, end, remaining - 1, tick, colour_of,
                colours,
            )
            del walk[-len(others):]
        if colour_of is not None:
            colours.discard(c)


def _cycle_walks(g: Hypergraph, clock: _BudgetClock, colour_of=None):
    """Vertex walks of the loose Hamilton cycles of g, each cycle once and
    in LooseCycle's canonical form.

    The first edge of a walk is the cycle's least edge, the anchor: the
    index keeps only edges above it.  The rest of the cycle is a spanning
    loose path from the anchor's exit back to its entry, and entry < exit
    fixes the direction.  Edges are sorted tuples, so every interior comes
    out sorted.

    With colour_of (edge -> colour) set, only rainbow walks come out.  Each
    edge of a walk takes a new colour, so when the host's edges carry fewer
    colours than a cycle has edges there is none, and the search ends
    before its first node.
    """
    if g.n % (g.k - 1) != 0:
        raise InvalidInput(f"(k-1) = {g.k - 1} must divide n = {g.n}")
    count = g.n // (g.k - 1)
    if count < 3 or len(g.edges) < count:
        return
    if colour_of is not None and len({colour_of[e] for e in g.edges}) < count:
        return
    full = _loose_index(g.n, g.edges)
    for anchor in g.edges:
        index = [[entry for entry in entries if entry[2] > anchor] for entries in full]
        mask = sum(1 << v for v in anchor)
        for entry, exit_ in combinations(anchor, 2):
            interior = [v for v in anchor if v != entry and v != exit_]
            used_colours = {colour_of[anchor]} if colour_of is not None else None
            for walk in _loose_walks(
                index, _closing_index(index, entry), [entry, *interior, exit_],
                mask & ~(1 << entry), entry, count - 1, clock.tick, colour_of, used_colours,
            ):
                yield walk[:-1]
            if clock.exhausted:
                return


def enumerate_loose_hamilton_cycles(
    g: Hypergraph, budget: EnumerationBudget | None = None
) -> EnumerationResult:
    """All distinct loose Hamilton cycles of g, in canonical form."""
    clock = _BudgetClock(budget or EnumerationBudget())
    walks = sorted(_cycle_walks(g, clock))
    cycles = tuple(LooseCycle._from_canonical(walk, g.k) for walk in walks)
    return EnumerationResult(cycles, complete=not clock.exhausted, nodes=clock.nodes)


def count_loose_hamilton_cycles(
    g: Hypergraph, budget: EnumerationBudget | None = None
) -> tuple[int, bool]:
    """The number of cycles enumerate_loose_hamilton_cycles finds under the
    same budget, and whether the count is complete; no cycle is kept."""
    clock = _BudgetClock(budget or EnumerationBudget())
    count = sum(1 for _ in _cycle_walks(g, clock))
    return count, not clock.exhausted


def exists_rainbow_loose_hc(
    g: Hypergraph, chi: Colouring, budget: EnumerationBudget | None = None
) -> RainbowSearchResult:
    """First rainbow loose Hamilton cycle in enumeration order, if any."""
    clock = _BudgetClock(budget or EnumerationBudget())
    # A plain dict for the search, which reads a colour at every node.
    colour_of = dict(zip(g.edges, chi.colours(g.edges)))
    for walk in _cycle_walks(g, clock, colour_of):
        return RainbowSearchResult("found", LooseCycle._from_canonical(walk, g.k))
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
    # A pair with a vertex outside the host lies in no edge.
    banned = [1 << u | 1 << v for u, v in forbidden_pairs.edges if 0 <= u and v < g.n]
    index = _loose_index(g.n, g.edges, banned)
    length = (g.n - 1) // (g.k - 1)
    for walk in _loose_walks(index, _closing_index(index, b), [a], 1 << a, b, length,
                             lambda: True):
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
    rainbow = chi is not None
    # Each of the n windows takes a new colour, so fewer colours leave none.
    if rainbow:
        colour_of = dict(zip(g.edges, chi.colours(g.edges)))
        if len(set(colour_of.values())) < n:
            return None
    # third[a][b]: (c, colour of {a, b, c}) for every edge {a, b, c}, by c.
    third: list[list[list[tuple[int, int | None]]]] = [
        [[] for _ in range(n)] for _ in range(n)
    ]
    for e in g.edges:
        colour = colour_of[e] if rainbow else None
        for a, b, c in permutations(e):
            third[a][b].append((c, colour))
    for row in third:
        for entries in row:
            entries.sort()

    def closes(order: list[int], colours: set[int]) -> bool:
        if order[1] > order[-1]:  # one direction per cyclic ordering
            return False
        closing: list[int] = []
        for window in ((order[-2], order[-1], order[0]), (order[-1], order[0], order[1])):
            edge = tuple(sorted(window))
            if not g.contains(edge):
                return False
            if rainbow:
                c = colour_of[edge]
                if c in colours or c in closing:
                    return False
                closing.append(c)
        return True

    def extend(order: list[int], used: int, colours: set[int]) -> tuple[int, ...] | None:
        """First completion of order; each child closes a window that is an
        edge, with a new colour in rainbow mode."""
        if len(order) == n:
            return tuple(order) if closes(order, colours) else None
        for v, c in third[order[-2]][order[-1]]:
            if used >> v & 1 or c in colours:
                continue
            order.append(v)
            if rainbow:
                colours.add(c)
            found = extend(order, used | 1 << v, colours)
            if rainbow:
                colours.discard(c)
            order.pop()
            if found is not None:
                return found
        return None

    for second in range(1, n):
        ordering = extend([0, second], 1 | 1 << second, set())
        if ordering is not None:
            result = validate_tight_cycle(g, ordering)
            assert isinstance(result, TightCycle)
            return result
    return None


def exists_rainbow_tight_hc(g: Hypergraph, chi: Colouring) -> RainbowSearchResult:
    """Exhaustive search for a rainbow tight Hamilton cycle (k = 3 only)."""
    witness = find_tight_hamilton_cycle(g, chi)
    if witness is None:
        return RainbowSearchResult("absent")
    order, n = witness.vertices, len(witness.vertices)
    windows = [tuple(order[(i + j) % n] for j in range(g.k)) for i in range(n)]
    assert is_rainbow(chi, windows), f"tight witness {order} is not rainbow"
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
