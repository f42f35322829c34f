"""Edge colourings, the global boundedness check and rainbow predicates."""

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .hypergraph import FormatError, Hypergraph, InvalidInput, data_lines


@dataclass(frozen=True)
class Colouring:
    """A total map from the edges of a hypergraph to colour ids.

    Colour ids are arbitrary non-negative integers with no ordering
    semantics.  The colouring stores only its assignment tuple; the colour
    of an edge e is assignment[graph.edge_index[e]], so every colouring of
    a host shares the host's one index.  The class sizes are derived once
    and cached for check_global_bound and the CLI's construct command.
    """

    graph: Hypergraph
    assignment: tuple[int, ...]  # colour of graph.edges[i]

    def __post_init__(self) -> None:
        if len(self.assignment) != len(self.graph.edges):
            raise InvalidInput(
                f"colouring has {len(self.assignment)} entries for "
                f"{len(self.graph.edges)} edges"
            )
        if self.assignment and min(self.assignment) < 0:
            raise InvalidInput("colour ids must be non-negative")

    @property
    def by_edge(self) -> "EdgeColours":
        """A read-only edge -> colour mapping over the host's index."""
        return EdgeColours(self.graph.edge_index, self.assignment)

    @cached_property
    def class_sizes(self) -> dict[int, int]:
        return dict(Counter(self.assignment))

    def colour(self, edge: Iterable[int]) -> int:
        e = tuple(sorted(edge))
        try:
            return self.assignment[self.graph.edge_index[e]]
        except KeyError:
            raise InvalidInput(f"edge {e} is not in the coloured hypergraph")

    @classmethod
    def injective(cls, graph: Hypergraph) -> "Colouring":
        """Every edge its own colour."""
        return cls(graph, tuple(range(len(graph.edges))))

    @classmethod
    def constant(cls, graph: Hypergraph, colour: int = 0) -> "Colouring":
        return cls(graph, (colour,) * len(graph.edges))


class EdgeColours(Mapping):
    """The colours of a host's edges as a mapping, stored as nothing but
    the host's edge index and the colouring's assignment tuple."""

    __slots__ = ("_index", "_assignment")

    def __init__(self, index: dict[tuple[int, ...], int], assignment: tuple[int, ...]):
        self._index, self._assignment = index, assignment

    def __getitem__(self, edge: tuple[int, ...]) -> int:
        return self._assignment[self._index[edge]]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def check_global_bound(chi: Colouring, mu: float, n: int, k: int) -> bool:
    """True iff every colour class has size at most mu * n^(k-1)."""
    if mu <= 0:
        raise InvalidInput(f"mu must be positive, got {mu}")
    bound = mu * n ** (k - 1)
    return all(size <= bound for size in chi.class_sizes.values())


def is_rainbow(chi: Colouring, edges: Iterable[Iterable[int]]) -> bool:
    """True iff all the given edges have pairwise distinct colours."""
    seen: set[int] = set()
    for e in edges:
        c = chi.colour(e)
        if c in seen:
            return False
        seen.add(c)
    return True


def shares_colour(
    chi: Colouring,
    first: Iterable[Iterable[int]],
    second: Iterable[Iterable[int]],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All pairs (e, f) with e in first, f in second, e != f, same colour."""
    second_by_colour: dict[int, list[tuple[int, ...]]] = {}
    for f in second:
        f = tuple(sorted(f))
        second_by_colour.setdefault(chi.colour(f), []).append(f)
    conflicts = []
    for e in first:
        e = tuple(sorted(e))
        for f in second_by_colour.get(chi.colour(e), ()):
            if e != f:
                conflicts.append((e, f))
    return conflicts


def parse_colouring(text: str, graph: Hypergraph) -> Colouring:
    """Parse the .col format: line i colours edge i of the companion graph.

    Blank lines and '#' comments are ignored; a count mismatch is an error.
    """
    colours: list[int] = []
    for lineno, numbers in data_lines(text):
        if len(numbers) != 1:
            raise FormatError(lineno, f"expected one colour, got {len(numbers)}")
        c = numbers[0]
        if c < 0:
            raise FormatError(lineno, f"colour must be non-negative, got {c}")
        colours.append(c)
    if len(colours) != len(graph.edges):
        raise InvalidInput(
            f"colouring has {len(colours)} entries for {len(graph.edges)} edges"
        )
    return Colouring(graph, tuple(colours))


def format_colouring(chi: Colouring) -> str:
    return "\n".join(str(c) for c in chi.assignment) + "\n"
