"""k-uniform hypergraphs on dense integer vertices, degrees, induced subgraphs.

Vertices are 0..n-1 and edges are stored as strictly sorted k-tuples, so the
exhaustive oracles can use set/bitmask tricks freely.  All types here are
immutable after construction.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from operator import index as as_index
from typing import Iterable, Iterator

import numpy as np


class InvalidInput(ValueError):
    """A caller violated a documented precondition."""


class cached_property:
    """functools.cached_property without its lock: the first read of the
    attribute computes it and stores it in the instance's __dict__, where
    every later read finds it before this descriptor.  Before Python 3.12
    the stdlib version takes an RLock on each first read.  Frozen
    dataclasses can use it, since the value bypasses __setattr__."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph.  Edge order is preserved (it matters for
    pairing a colouring file with an edge file).

    edge_index maps each edge to its position in edges.  It is the host's
    one membership index, and every colouring of the host reads its colours
    through it.  Every edge is checked to be a strictly ascending k-tuple
    of vertices in [0, n), and no edge may repeat; see _bulk_index.  Only
    relabelled builds a host without the checks.
    """

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]
    edge_index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise InvalidInput(f"uniformity must be >= 2, got {self.k}")
        if self.n < 0:
            raise InvalidInput(f"vertex count must be >= 0, got {self.n}")
        index = _bulk_index(self.edges, self.n, self.k)
        if index is None:
            index = _index_edge_by_edge(self.edges, self.n, self.k)
        object.__setattr__(self, "edge_index", index)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    @property
    def edge_set(self) -> dict[tuple[int, ...], int]:
        """The edge index, under the name the benchmark and the tests read."""
        return self.edge_index

    @cached_property
    def by_vertex(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each vertex, the edges containing it."""
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                buckets[v].append(e)
        return tuple(tuple(b) for b in buckets)

    def contains(self, vertices: Iterable[int]) -> bool:
        """Whether the vertices form an edge, in any order.  A tuple is
        looked up as given first: an edge tuple is already sorted."""
        index = self.edge_index
        return (isinstance(vertices, tuple) and vertices in index) or (
            tuple(sorted(vertices)) in index
        )

    def is_complete(self) -> bool:
        return len(self.edges) == comb(self.n, self.k)

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, k, tuple(tuple(sorted(e)) for e in edges))

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, tuple(combinations(range(n), k)))


def _bulk_index(
    edges: tuple[tuple[int, ...], ...], n: int, k: int
) -> dict[tuple[int, ...], int] | None:
    """The edge index, when every edge passes the host's checks in bulk;
    None when any check fails or raises.

    The index finds a repeated edge by its size.  The vertices go through
    operator.index into one m-by-k array of the narrowest signed type that
    holds -n, so every vertex in [0, n) fits (past 64 bits the array holds
    Python ints).  A vertex that is not an integer raises instead of being
    converted, and one the type cannot hold raises OverflowError.  The
    array's rows must be strictly ascending, with the first column at least
    0 and the last below n.
    """
    try:
        m = len(edges)
        index = dict(zip(edges, range(m)))
        if len(index) != m or not set(map(len, edges)) <= {k}:
            return None
        dtype = np.min_scalar_type(-as_index(n))
        a = np.fromiter(
            map(as_index, chain.from_iterable(edges)), dtype, count=m * k
        ).reshape(m, k)
    except (TypeError, ValueError, OverflowError):
        return None
    if m and not (
        (a[:, 1:] > a[:, :-1]).all() and a[:, 0].min() >= 0 and a[:, -1].max() < n
    ):
        return None
    return index


def _index_edge_by_edge(
    edges: tuple[tuple[int, ...], ...], n: int, k: int
) -> dict[tuple[int, ...], int]:
    """The edge index, built by checking one edge at a time: the first bad
    edge raises, named in the message and at error.position.  It reads
    edges that _bulk_index refused, so every error is the same as ever."""
    index: dict[tuple[int, ...], int] = {}
    try:
        for position, e in enumerate(edges):
            if len(e) != k or len(set(e)) != k:
                raise InvalidInput(f"edge {e} does not have {k} distinct vertices")
            if list(e) != sorted(e):
                raise InvalidInput(f"edge {e} is not sorted")
            if e[0] < 0 or e[-1] >= n:
                raise InvalidInput(f"edge {e} has a vertex outside [0, {n})")
            if e in index:
                raise InvalidInput(f"duplicate edge {e}")
            index[e] = position
    except InvalidInput as error:
        error.position = position
        raise
    return index


def relabelled(
    g: Hypergraph, old_ids: tuple[int, ...], edges: Iterable[tuple[int, ...]]
) -> Hypergraph:
    """The host on len(old_ids) vertices whose edges are the given edges of
    g, each vertex renamed to its rank in old_ids, built without the
    host's checks.

    old_ids must be strictly ascending and hold every vertex of the edges,
    which must be distinct edges of g.  The renaming then preserves order,
    so each new edge stays a strictly ascending k-tuple inside the new
    range, and distinct edges stay distinct: everything the checks test.
    """
    to_new = {v: i for i, v in enumerate(old_ids)}
    new_edges = tuple(tuple(to_new[v] for v in e) for e in edges)
    sub = object.__new__(Hypergraph)
    object.__setattr__(sub, "n", len(old_ids))
    object.__setattr__(sub, "k", g.k)
    object.__setattr__(sub, "edges", new_edges)
    object.__setattr__(sub, "edge_index", dict(zip(new_edges, range(len(new_edges)))))
    return sub


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
    index = g.edge_index
    return sum(
        1
        for c in combinations(sorted(w - s), g.k - len(s))
        if tuple(sorted((*s, *c))) in index
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
        index = g.edge_index
        return [e for e in combinations(sorted(w), g.k) if e in index]
    return [e for e in g.edges if w.issuperset(e)]


def induced(g: Hypergraph, w: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Induced subgraph on w, relabelled to 0..|w|-1.

    Returns (subgraph, old_ids) where old_ids[new] is the original vertex id.
    """
    old_ids = tuple(sorted(_check_vertex_set(g, w, "W")))
    return relabelled(g, old_ids, edges_within(g, old_ids)), old_ids


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
    FormatError with the first offending line's number.  Hypergraph checks
    k, n and the edges, and its error is mapped to the header's or the
    edge's line.
    """
    rows = data_lines(text)
    first = next(rows, None)
    if first is None:
        raise FormatError(1, "empty input: missing header")
    header_line, header = first
    if len(header) != 2:
        raise FormatError(header_line, 'header must be "k n"')
    edge_lines, edges, bad_token = [], [], None
    try:
        for lineno, numbers in rows:
            edge_lines.append(lineno)
            edges.append(numbers)
    except FormatError as error:  # a bad line before it is named first
        bad_token = error
    try:
        g = Hypergraph(header[1], header[0], tuple(edges))
    except InvalidInput as error:
        position = getattr(error, "position", None)
        line = header_line if position is None else edge_lines[position]
        raise FormatError(line, str(error)) from None
    if bad_token is not None:
        raise bad_token
    return g


def format_hypergraph(g: Hypergraph) -> str:
    lines = [f"{g.k} {g.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.edges)
    return "\n".join(lines) + "\n"
