"""Small 2-uniform helpers: directed graphs for the rerouting construction
and plain graphs used as conflict constraints."""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .hypergraph import InvalidInput, cached_property


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.arcs:
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInput(f"bad arc ({u}, {v})")

    @cached_property
    def out_neighbours(self) -> tuple[tuple[int, ...], ...]:
        outs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.arcs):
            outs[u].append(v)
        return tuple(tuple(o) for o in outs)

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        return cls(n, frozenset((u, v) for u, v in arcs))


@dataclass(frozen=True)
class PairGraph:
    """An undirected graph on integer vertices, stored as sorted pairs."""

    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u >= v:
                raise InvalidInput(f"pair ({u}, {v}) must be sorted and distinct")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "PairGraph":
        return cls(frozenset(tuple(sorted(p)) for p in pairs))

    @classmethod
    def empty(cls) -> "PairGraph":
        return cls(frozenset())

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {}
        for u, v in self.edges:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def neighbours(self, v: int) -> frozenset[int]:
        return self.adjacency.get(v, frozenset())

    def max_degree(self) -> int:
        return max((len(s) for s in self.adjacency.values()), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def edges_inside(self, vertices: Iterable[int]) -> list[tuple[int, int]]:
        inside = set(vertices)
        return sorted(
            (u, v) for u, v in self.edges if u in inside and v in inside
        )

    def contained_pairs(self, vertices: Iterable[int]) -> bool:
        """True iff some edge of this graph lies inside the vertex set.

        Looks up the pairs of the set, so a small set costs little
        whatever the size of the graph.
        """
        return any(pair in self.edges for pair in combinations(sorted(set(vertices)), 2))
