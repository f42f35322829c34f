"""k-uniform hypergraphs on dense integer vertices, degrees, induced subgraphs.

Vertices are 0..n-1 and edges are stored as strictly sorted k-tuples, so the
exhaustive oracles can use set/bitmask tricks freely.  All types here are
immutable after construction.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator


class InvalidInput(ValueError):
    """A caller violated a documented precondition."""


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph.  Edge order is preserved (it matters for
    pairing a colouring file with an edge file)."""

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidInput(f"uniformity must be >= 2, got {self.k}")
        if self.n < 0:
            raise InvalidInput(f"vertex count must be >= 0, got {self.n}")
        seen = set()
        for e in self.edges:
            if len(e) != self.k or len(set(e)) != self.k:
                raise InvalidInput(f"edge {e} does not have {self.k} distinct vertices")
            if list(e) != sorted(e):
                raise InvalidInput(f"edge {e} is not sorted")
            if e[0] < 0 or e[-1] >= self.n:
                raise InvalidInput(f"edge {e} has a vertex outside [0, {self.n})")
            if e in seen:
                raise InvalidInput(f"duplicate edge {e}")
            seen.add(e)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @cached_property
    def by_vertex(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each vertex, the edges containing it."""
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                buckets[v].append(e)
        return tuple(tuple(b) for b in buckets)

    def contains(self, vertices: Iterable[int]) -> bool:
        return tuple(sorted(vertices)) in self.edge_set

    def is_complete(self) -> bool:
        return len(self.edges) == comb(self.n, self.k)

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, k, tuple(tuple(sorted(e)) for e in edges))

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, tuple(combinations(range(n), k)))


def _check_vertex_set(g: Hypergraph, s: Iterable[int], name: str) -> frozenset[int]:
    s = frozenset(s)
    if not s <= g.vertex_set:  # only a failing set is scanned, to name its vertex
        for v in s:
            if not 0 <= v < g.n:
                raise InvalidInput(f"{name} contains vertex {v} outside [0, {g.n})")
    return s


def degree(g: Hypergraph, s: Iterable[int]) -> int:
    """Number of edges containing every vertex of s.  Requires |s| <= k."""
    s = _check_vertex_set(g, s, "S")
    if len(s) > g.k:
        raise InvalidInput(f"|S| = {len(s)} exceeds uniformity {g.k}")
    if not s:
        return len(g.edges)
    v = min(s)
    return sum(1 for e in g.by_vertex[v] if s.issubset(e))


def relative_degree(g: Hypergraph, s: Iterable[int], w: Iterable[int]) -> int:
    """Number of edges e with s <= e and e - s contained in w.

    e - s never meets s, so it is a (k - |s|)-subset of w - s.  Each such
    subset is looked up in the edge set, so the cost follows w rather than
    the host.
    """
    s = _check_vertex_set(g, s, "S")
    w = _check_vertex_set(g, w, "W")
    if len(s) > g.k:
        raise InvalidInput(f"|S| = {len(s)} exceeds uniformity {g.k}")
    if not s:
        return len(edges_within(g, w))
    return sum(
        1
        for c in combinations(sorted(w - s), g.k - len(s))
        if tuple(sorted((*s, *c))) in g.edge_set
    )


def min_j_degree(g: Hypergraph, j: int) -> int:
    """Minimum degree over all j-element vertex sets, counted in one pass
    over the edges."""
    if not 1 <= j <= g.k - 1:
        raise InvalidInput(f"degree type j must satisfy 1 <= j <= {g.k - 1}, got {j}")
    if g.n < j:
        raise InvalidInput(f"need at least j = {j} vertices, have {g.n}")
    return min_j_degree_within(g, range(g.n), j)


def edges_within(g: Hypergraph, w: Iterable[int]) -> list[tuple[int, ...]]:
    """Edges of g entirely contained in w (no relabelling)."""
    w = _check_vertex_set(g, w, "W")
    if comb(len(w), g.k) < len(g.edges):
        return [e for e in combinations(sorted(w), g.k) if e in g.edge_set]
    return [e for e in g.edges if w.issuperset(e)]


def induced(g: Hypergraph, w: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Induced subgraph on w, relabelled to 0..|w|-1.

    Returns (subgraph, old_ids) where old_ids[new] is the original vertex id.
    """
    old_ids = tuple(sorted(_check_vertex_set(g, w, "W")))
    to_new = {v: i for i, v in enumerate(old_ids)}
    sub_edges = tuple(
        tuple(to_new[v] for v in e) for e in edges_within(g, old_ids)
    )
    return Hypergraph(len(old_ids), g.k, sub_edges), old_ids


def min_j_degree_within(g: Hypergraph, w: Iterable[int], j: int) -> int:
    """Minimum j-degree of the subgraph induced on w, without relabelling.
    The degrees are counted in one pass over the edges inside w; a j-set of
    w in no such edge counts 0."""
    w = sorted(_check_vertex_set(g, w, "W"))
    degrees = Counter(s for e in edges_within(g, w) for s in combinations(e, j))
    return min(degrees[s] for s in combinations(w, j))


@dataclass(frozen=True)
class Parameters:
    """The global parameter record for the splitting/switching pipeline.

    The exact identities part_count = path_len*(k-1)+1,
    split_size = part_count*pairs_per_part and
    sample_size = part_count*split_size always hold (they are derived).
    No ordering between the real parameters is enforced: desk-scale runs
    deliberately use values far outside any asymptotic regime.
    """

    k: int
    j: int
    path_len: int       # length of the anchored paths in a balanced splitting
    pairs_per_part: int  # rerouting pairs demanded inside each part
    epsilon: float
    mu: float
    gamma: float
    beta: float
    threshold: float = 0.0  # stand-in for the (unknown) degree threshold constant

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidInput("k must be >= 2")
        if not 1 <= self.j <= self.k - 1:
            raise InvalidInput(f"j must satisfy 1 <= j <= {self.k - 1}")
        if self.path_len < 1:
            raise InvalidInput("path length must be >= 1")
        if self.pairs_per_part < 1:
            raise InvalidInput("pairs per part must be >= 1")
        for name in ("epsilon", "mu", "gamma", "beta"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidInput(f"{name} must lie in (0, 1), got {value}")
        if self.threshold < 0:
            raise InvalidInput("threshold must be >= 0")

    @cached_property
    def part_count(self) -> int:
        """Number of parts in a transverse partition (= vertices per path)."""
        return self.path_len * (self.k - 1) + 1

    @cached_property
    def split_size(self) -> int:
        """Number of paths in a splitting (= size of each part)."""
        return self.part_count * self.pairs_per_part

    @cached_property
    def sample_size(self) -> int:
        """Total vertex count of a balanced splitting."""
        return self.part_count * self.split_size


@dataclass(frozen=True)
class PipelineConfig:
    """Seed, budgets and mode of one run of the switching pipeline.

    Each search step, each partition draw, each build and each part's
    tiling runs on a copy with a child seed: dataclasses.replace(config,
    seed=...).
    """

    seed: int = 0
    sample_budget: int = 2000    # splittings sampled per switching
    partition_budget: int = 500  # transverse partitions drawn per splitting
    claim_budget: int = 1000     # claim partitions drawn per tiling
    structural: bool | None = None  # None: decided by is_structural
    require_events: bool = False    # strict acceptance through the event gate

    def __post_init__(self) -> None:
        for name in ("sample_budget", "partition_budget", "claim_budget"):
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be >= 1, got {getattr(self, name)}")

    def is_structural(self, g: Hypergraph) -> bool:
        """Structural mode gates on the constructions' shape alone and
        relaxes the asymptotic conditions; unless set explicitly it holds on
        graphs with fewer than 50 vertices.  Callers pass the graph the gate
        reads: the host for the partition gate, the part's induced graph for
        each part's tiling."""
        return self.structural if self.structural is not None else g.n < 50

    def refusal(self, g: Hypergraph, params: Parameters) -> InvalidInput | None:
        """The pre-flight of a run on the host g: the refusal of its first
        check that no draw can pass, or None.  It draws nothing; each
        sampler raises what it returns before its first draw.

        Parameters for another uniformity than g's get a plain InvalidInput.
        Then come the UnmeetableGates, in order.  With require_events (the
        event gate runs), low-sample-degree: a sample has M = sample_size
        vertices, so a j-set lies in at most C(M - j, k - j) of its edges.
        When is_structural(g) is False (the partition gate is strict),
        entry-bound: some of the part_count parts holds pairs_per_part of
        the m = split_size entries; and relative-degree: some j-set lies
        inside a part of m vertices, with at most C(m - j, k - j) edges
        into it.  The complete host attains both degree maxima.  Last comes
        host_too_small, on the n/(k - 1) edges every Hamilton cycle of g has.
        """
        k, j = params.k, params.j
        if k != g.k:
            return InvalidInput(f"parameters for k = {k} do not fit a {g.k}-uniform host")
        if self.require_events:
            size = params.sample_size
            bound = sample_degree_bound(params.threshold, params.epsilon, size, k, j)
            best = comb(size - j, k - j)
            if best < bound:
                return UnmeetableGate(
                    "low-sample-degree",
                    f"bound {bound:g} > {best} = C({size - j}, {k - j}) "
                    f"edges a j-set has inside a sample of {size} vertices",
                )
        if not self.is_structural(g):
            m, quota = params.split_size, params.pairs_per_part
            cap = params.beta * m
            if cap < quota:
                return UnmeetableGate(
                    "entry-bound",
                    f"cap {cap:g} = beta*m < {quota}: some part holds at "
                    f"least {quota} of the {m} entries",
                )
            bound = relative_degree_bound(params.threshold, params.epsilon, m, k, j)
            best = comb(m - j, k - j)
            if best < bound:
                return UnmeetableGate(
                    "relative-degree",
                    f"bound {bound:g} > {best} = C({m - j}, {k - j}) "
                    f"edges a j-set has into its own part",
                )
        return host_too_small(g.n // (k - 1), params.split_size, params.path_len)


class UnmeetableGate(InvalidInput):
    """A gate that no draw of a run can meet: UnmeetableGate(gate, detail),
    with the message "gate: detail".  Both stay in args, so building one
    runs no Python __init__ on a refusal path of a few microseconds."""

    @property
    def gate(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


def sample_degree_bound(threshold: float, epsilon: float, size: int, k: int, j: int) -> float:
    """The low-sample-degree event's bound: each j-set of a sample on size
    vertices must lie in at least this many of the sample's edges."""
    return (threshold + 3 * epsilon / 4) * size ** (k - j)


def relative_degree_bound(threshold: float, epsilon: float, m: int, k: int, j: int) -> float:
    """The strict partition gate's bound: each j-set of a splitting of m
    paths must keep at least this many edges into each part."""
    return (threshold + 5 * epsilon / 8) * m ** (k - j)


def host_too_small(edge_count: int, path_count: int, path_len: int) -> UnmeetableGate | None:
    """The refusal of a host cycle with too few edges for any disjoint
    splitting of path_count paths of path_len edges, or None.

    Two paths are vertex-disjoint only when at least one edge of the cycle
    separates them, so the paths need path_count*(path_len + 1) edges.
    """
    need = path_count * (path_len + 1)
    if edge_count >= need:
        return None
    return UnmeetableGate(
        "host-too-small",
        f"{path_count} disjoint paths of {path_len} edges need {need} cycle edges, "
        f"the host has {edge_count}",
    )


class FormatError(InvalidInput):
    """A text input violated its format; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def data_lines(text: str) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The 1-based line number and the integers of each data line.

    Blank lines and lines starting with '#' are not data; a token that is
    not an integer raises FormatError with its line number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield lineno, tuple(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(lineno, f"non-integer token in {line!r}")


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the .hg format: header "k n", then one sorted edge per line.

    Blank lines and lines starting with '#' are ignored.  Violations raise
    FormatError with the offending line number.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, numbers in data_lines(text):
        if header is None:
            if len(numbers) != 2:
                raise FormatError(lineno, 'header must be "k n"')
            header = (numbers[0], numbers[1])
            if header[0] < 2:
                raise FormatError(lineno, f"uniformity k must be >= 2, got {header[0]}")
            if header[1] < 0:
                raise FormatError(lineno, f"vertex count must be >= 0, got {header[1]}")
            continue
        k, n = header
        if len(numbers) != k:
            raise FormatError(lineno, f"expected {k} vertices, got {len(numbers)}")
        if list(numbers) != sorted(numbers) or len(set(numbers)) != k:
            raise FormatError(lineno, f"edge {numbers} must be strictly ascending")
        if numbers[0] < 0 or numbers[-1] >= n:
            raise FormatError(lineno, f"edge {numbers} has a vertex outside [0, {n})")
        if numbers in seen:
            raise FormatError(lineno, f"duplicate edge {numbers}")
        seen.add(numbers)
        edges.append(numbers)
    if header is None:
        raise FormatError(1, "empty input: missing header")
    return Hypergraph(header[1], header[0], tuple(edges))


def format_hypergraph(g: Hypergraph) -> str:
    lines = [f"{g.k} {g.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.edges)
    return "\n".join(lines) + "\n"
