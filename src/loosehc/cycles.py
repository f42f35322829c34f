"""Loose paths, loose Hamilton cycles with an oriented edge order, and tight
cycles (used only by the 3-uniform verification paths).

A loose cycle is stored canonically: the oriented edge sequence is rotated to
start at its lexicographically least edge, the direction with the smaller
vertex sequence is kept, and edge interiors are sorted.  Canonical form makes
cycle counting and deduplication well-defined.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from .hypergraph import Hypergraph, InvalidInput, cached_property, data_lines


@dataclass(frozen=True)
class Violation:
    """First violated constraint of a validator, with a stable kind tag."""

    kind: str
    detail: str
    position: int | None = None

    def __str__(self) -> str:
        where = f" at position {self.position}" if self.position is not None else ""
        return f"{self.kind}{where}: {self.detail}"


@dataclass(frozen=True)
class LoosePath:
    """A loose path of length t on t*(k-1)+1 ordered vertices.

    The one permitted repeat is last == first, representing the traversal of
    a full cycle, which closes on its start vertex.
    """

    vertices: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidInput("uniformity must be >= 2")
        if (len(self.vertices) - 1) % (self.k - 1) != 0 or len(self.vertices) < self.k:
            raise InvalidInput(
                f"{len(self.vertices)} vertices do not form whole edges of size {self.k}"
            )
        body = self.vertices if self.vertices[0] != self.vertices[-1] else self.vertices[:-1]
        if len(set(body)) != len(body):
            raise InvalidInput("path vertices must be pairwise distinct")

    @property
    def length(self) -> int:
        return (len(self.vertices) - 1) // (self.k - 1)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        k = self.k
        return tuple(
            tuple(sorted(self.vertices[i * (k - 1): i * (k - 1) + k]))
            for i in range(self.length)
        )

    @property
    def endvertices(self) -> frozenset[int]:
        return frozenset((self.vertices[0], self.vertices[-1]))

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @property
    def interior(self) -> frozenset[int]:
        return self.vertex_set - self.endvertices


def _canonical_cycle_vertices(seq: Sequence[int], k: int) -> tuple[int, ...]:
    n, step = len(seq), k - 1
    # Edge i is ring[i*step : i*step + k]; the last edge wraps to seq[0].
    ring = (*seq, seq[0])
    edges = [tuple(sorted(ring[i: i + k])) for i in range(0, n, step)]
    start = edges.index(min(edges)) * step
    # The reflection has the same least edge, entered from its other end.
    # The two candidates differ in their first vertex, so the direction that
    # enters the least edge at its smaller end wins.
    if ring[start] < ring[start + step]:
        rotated = ring[start:n] + ring[:start]
    else:
        rotated = tuple(ring[(start + step - i) % n] for i in range(n))
    normal: list[int] = []
    for i in range(0, n, step):
        normal.append(rotated[i])
        normal.extend(sorted(rotated[i + 1: i + step]))
    return tuple(normal)


@dataclass(frozen=True)
class LooseCycle:
    """A loose Hamilton cycle, stored as its canonical vertex sequence.

    Edge i is vertices[i*(k-1) .. i*(k-1)+k-1] with indices mod n; the stored
    direction is the cycle's fixed orientation.
    """

    vertices: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        n, k = len(self.vertices), self.k
        if k < 2:
            raise InvalidInput("uniformity must be >= 2")
        if n % (k - 1) != 0:
            raise InvalidInput(f"(k-1) = {k - 1} does not divide n = {n}")
        if n // (k - 1) < 3:
            # With fewer than 3 edges the two "consecutive" edges would
            # intersect in more than one vertex.
            raise InvalidInput(f"a loose cycle needs at least 3 edges, got {n // (k - 1)}")
        if len(set(self.vertices)) != n:
            raise InvalidInput("cycle vertices must be pairwise distinct")
        object.__setattr__(
            self, "vertices", _canonical_cycle_vertices(self.vertices, self.k)
        )

    @classmethod
    def _from_canonical(cls, vertices: tuple[int, ...], k: int) -> "LooseCycle":
        """The cycle of a walk that is already in canonical form, taken as
        is: no checks, no second canonicalisation.  For the exact oracles,
        whose walks are canonical by construction."""
        cycle = object.__new__(cls)
        object.__setattr__(cycle, "vertices", vertices)
        object.__setattr__(cycle, "k", k)
        return cycle

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.vertices) // (self.k - 1)

    @cached_property
    def edge_sequence(self) -> tuple[tuple[int, ...], ...]:
        n, k = self.n, self.k
        return tuple(
            tuple(sorted(self.vertices[(i * (k - 1) + j) % n] for j in range(k)))
            for i in range(self.edge_count)
        )

    @cached_property
    def edge_position(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.edge_sequence)}

    @cached_property
    def positions_by_vertex(self) -> dict[int, tuple[int, ...]]:
        """Edge positions containing each vertex (one or two of them)."""
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edge_sequence):
            for v in e:
                out[v].append(i)
        return {v: tuple(ps) for v, ps in out.items()}

    def vertex_at(self, index: int) -> int:
        return self.vertices[index % self.n]

    def edges_avoiding(self, banned: frozenset[int]) -> list[tuple[int, ...]]:
        return [e for e in self.edge_sequence if banned.isdisjoint(e)]


def validate_loose_cycle(g: Hypergraph, ordering: Sequence[int]) -> LooseCycle | Violation:
    """Check a candidate vertex ordering and return the canonical cycle.

    The report names the first violated constraint: divisibility, vertex
    count, repeated/unknown vertices, or the missing edge position.
    """
    k, n = g.k, g.n
    if n % (k - 1) != 0:
        return Violation("divisibility", f"(k-1) = {k - 1} does not divide n = {n}")
    if n // (k - 1) < 3:
        return Violation("too-short", f"a loose cycle needs at least 3 edges, n = {n}")
    if len(ordering) != n:
        return Violation("vertex-count", f"expected {n} vertices, got {len(ordering)}")
    if len(set(ordering)) != len(ordering):
        return Violation("repeated-vertex", "ordering repeats a vertex")
    if set(ordering) != set(range(n)):
        return Violation("missing-vertex", "ordering does not cover 0..n-1")
    for i in range(n // (k - 1)):
        window = [ordering[(i * (k - 1) + j) % n] for j in range(k)]
        if not g.contains(window):
            return Violation(
                "missing-edge", f"{tuple(sorted(window))} is not an edge", position=i
            )
    return LooseCycle(tuple(ordering), k)


def increasing_path(cycle: LooseCycle, edge: Iterable[int], length: int) -> LoosePath:
    """The path made of `edge` and the length-1 edges that follow it in the
    cycle's orientation.  length == edge_count yields the closed traversal."""
    e = tuple(sorted(edge))
    if e not in cycle.edge_position:
        raise InvalidInput(f"{e} is not an edge of the cycle")
    if not 1 <= length <= cycle.edge_count:
        raise InvalidInput(
            f"path length must lie in [1, {cycle.edge_count}], got {length}"
        )
    k, n = cycle.k, cycle.n
    start = cycle.edge_position[e] * (k - 1)
    vertices = tuple(
        cycle.vertices[(start + i) % n] for i in range(length * (k - 1) + 1)
    )
    return LoosePath(vertices, k)


def subpath_run(cycle: LooseCycle, path: LoosePath) -> tuple[int, int] | None:
    """If the path's edges form a consecutive run in the cycle, return
    (first edge position, length); otherwise None."""
    positions = set()
    for e in path.edges:
        pos = cycle.edge_position.get(e)
        if pos is None:
            return None
        positions.add(pos)
    if len(positions) != path.length:
        return None
    c = cycle.edge_count
    for p in positions:
        if {(p + i) % c for i in range(path.length)} == positions:
            return (p, path.length)
    return None


def entry_exit(
    cycle: LooseCycle, path: LoosePath, run: tuple[int, int] | None = None
) -> tuple[int, int]:
    """Endpoints of a sub-path in traversal order: the vertex met first when
    walking the cycle's orientation into the path, then the one met last.
    A caller that already holds the path's subpath_run passes it as run."""
    if run is None:
        run = subpath_run(cycle, path)
    if run is None:
        raise InvalidInput("path is not a consecutive sub-path of the cycle")
    start, length = run
    k = cycle.k
    entry = cycle.vertex_at(start * (k - 1))
    exit_ = cycle.vertex_at(start * (k - 1) + length * (k - 1))
    if path.endvertices != {entry, exit_}:
        raise InvalidInput(
            "path endpoints do not match its position on the cycle "
            f"(declared {set(path.endvertices)}, structural {{{entry}, {exit_}}})"
        )
    return entry, exit_


@dataclass(frozen=True)
class TightCycle:
    """A cyclic vertex ordering in which every k consecutive vertices form an
    edge of the host graph."""

    vertices: tuple[int, ...]
    k: int


def validate_tight_cycle(g: Hypergraph, ordering: Sequence[int]) -> TightCycle | Violation:
    n, k = g.n, g.k
    if len(ordering) != n:
        return Violation("vertex-count", f"expected {n} vertices, got {len(ordering)}")
    if len(set(ordering)) != len(ordering):
        return Violation("repeated-vertex", "ordering repeats a vertex")
    if set(ordering) != set(range(n)):
        return Violation("missing-vertex", "ordering does not cover 0..n-1")
    for i in range(n):
        window = [ordering[(i + j) % n] for j in range(k)]
        if len(set(window)) != k or not g.contains(window):
            return Violation(
                "missing-window", f"{tuple(sorted(window))} is not an edge", position=i
            )
    return TightCycle(tuple(ordering), k)


def parse_vertex_line(text: str) -> tuple[int, ...]:
    """One vertex sequence (a cycle or a path): the integers of every data
    line, in order."""
    return tuple(v for _, numbers in data_lines(text) for v in numbers)


def format_vertex_line(vertices: Iterable[int]) -> str:
    return " ".join(str(v) for v in vertices)
