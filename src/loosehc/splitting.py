"""Splittings of a Hamilton cycle and the predicates built on them:
transversality, reroutings, switchings, feasibility, suitability, viability.

These predicates are exhaustive scans with early exit and witness reporting.
They are the test oracles for the constructive modules, so completeness
beats speed; nothing here samples.
"""

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Sequence

from .colouring import Colouring, is_rainbow, shares_colour
from .cycles import LooseCycle, LoosePath, Violation, entry_exit, subpath_run
from .graphs import Digraph
from .hypergraph import (
    Hypergraph,
    InvalidInput,
    cached_property,
    edges_within,
    min_j_degree_within,
)
from .oracles import find_hamilton_dicycle


@dataclass
class CheckReport:
    """Outcome of a multi-condition predicate.

    conditions maps a stable condition id to pass/fail; witnesses carries
    the offending sets for failed conditions (and occasional notes).
    """

    ok: bool
    conditions: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        lines = [f"ok={self.ok}"]
        for name, passed in self.conditions.items():
            line = f"condition={name} {'pass' if passed else 'FAIL'}"
            if name in self.witnesses:
                line += f" witness={self.witnesses[name]!r}"
            lines.append(line)
        return "\n".join(lines)


def same_path(p: LoosePath, q: LoosePath) -> bool:
    """Presentation-insensitive path equality (a path equals its reverse)."""
    return p.k == q.k and (p.vertices == q.vertices or p.vertices == q.vertices[::-1])


@dataclass(frozen=True)
class Splitting:
    """Vertex-disjoint loose sub-paths of a host Hamilton cycle."""

    host: LooseCycle
    paths: tuple[LoosePath, ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p.vertices)

    @cached_property
    def endvertices(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p.endvertices)

    @cached_property
    def interiors(self) -> frozenset[int]:
        return self.vertex_set - self.endvertices

    @cached_property
    def path_of(self) -> dict[int, int]:
        return {v: i for i, p in enumerate(self.paths) for v in p.vertices}

    @cached_property
    def runs(self) -> tuple[tuple[int, int] | None, ...]:
        """Each path's subpath_run on the host: (first edge position,
        length), or None if it is not a consecutive sub-path."""
        return tuple(subpath_run(self.host, p) for p in self.paths)

    @cached_property
    def _ends(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            entry_exit(self.host, p, run) for p, run in zip(self.paths, self.runs)
        )

    @cached_property
    def entries(self) -> tuple[int, ...]:
        """Each path's endpoint met first in the host's orientation."""
        return tuple(entry for entry, _ in self._ends)

    @cached_property
    def exits(self) -> tuple[int, ...]:
        """Each path's endpoint met last in the host's orientation."""
        return tuple(exit_ for _, exit_ in self._ends)

    @cached_property
    def host_arcs(self) -> tuple[tuple[int, ...], ...]:
        """The maximal stretches of the host that avoid the interiors, as
        vertex runs.  There is exactly one arc between consecutive paths."""
        host = self.host
        banned = self.interiors
        if not banned:
            raise InvalidInput(
                "splitting has no interior vertices; the host cannot be cut "
                "(needs k >= 3 or paths of length >= 2)"
            )
        c = host.edge_count
        kept = [i for i in range(c) if banned.isdisjoint(host.edge_sequence[i])]
        if not kept:
            raise InvalidInput("no edges of the host survive outside the interiors")
        kept_set = set(kept)
        arcs: list[tuple[int, ...]] = []
        vertices, n, step = host.vertices, host.n, host.k - 1
        for start in kept:
            if (start - 1) % c in kept_set:
                continue
            run = 1
            while (start + run) % c in kept_set:
                run += 1
            # Some edge holds an interior, so an arc is shorter than the
            # host and wraps past its last vertex at most once.
            first, end = start * step, (start + run) * step + 1
            arcs.append(vertices[first:end] if end <= n else vertices[first:] + vertices[:end - n])
        return tuple(arcs)

    def index_of(self, path: LoosePath) -> int | None:
        for i, p in enumerate(self.paths):
            if same_path(p, path):
                return i
        return None


def validate_splitting(
    host: LooseCycle,
    paths: Sequence[LoosePath],
    mode: str,
    length: int,
) -> Splitting | Violation:
    """Check disjointness, membership in the host and the length mode.

    mode is "balanced" (every path has exactly the given length) or
    "bounded" (at most).  Violations name the offending path index.
    """
    if mode not in ("balanced", "bounded"):
        raise InvalidInput(f"mode must be 'balanced' or 'bounded', got {mode!r}")
    if not paths:
        return Violation("empty", "a splitting needs at least one path")
    used: set[int] = set()
    for i, p in enumerate(paths):
        if p.k != host.k:
            return Violation("uniformity", f"path {i} has k = {p.k}", position=i)
        if p.vertices[0] == p.vertices[-1]:
            return Violation("closed-path", f"path {i} closes on itself", position=i)
        if mode == "balanced" and p.length != length:
            return Violation(
                "length", f"path {i} has length {p.length}, expected {length}", position=i
            )
        if mode == "bounded" and p.length > length:
            return Violation(
                "length", f"path {i} has length {p.length} > bound {length}", position=i
            )
        for e in p.edges:
            if e not in host.edge_position:
                return Violation(
                    "non-subpath", f"path {i} uses {e}, not an edge of the host", position=i
                )
        overlap = used & p.vertex_set
        if overlap:
            return Violation(
                "overlap", f"path {i} shares vertices {sorted(overlap)}", position=i
            )
        used |= p.vertex_set
    return Splitting(host, tuple(paths))


def is_transverse(splitting: Splitting, vertices: Iterable[int]) -> bool:
    """True iff the set meets every path of the splitting at most once."""
    s = frozenset(vertices)
    if not s <= splitting.vertex_set:
        raise InvalidInput("set is not contained in the splitting's vertices")
    seen: set[int] = set()
    for v in s:
        i = splitting.path_of[v]
        if i in seen:
            return False
        seen.add(i)
    return True


@dataclass(frozen=True)
class TransversePartition:
    """A partition of the splitting vertices, each part transverse."""

    parts: tuple[frozenset[int], ...]

    @cached_property
    def part_of(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for h, part in enumerate(self.parts):
            for v in part:
                if v in out:
                    raise InvalidInput(f"vertex {v} appears in two parts")
                out[v] = h
        return out


def partition_is_transverse(splitting: Splitting, partition: TransversePartition) -> bool:
    covered = frozenset(partition.part_of)
    if covered != splitting.vertex_set:
        return False
    return all(is_transverse(splitting, part) for part in partition.parts)


@dataclass(frozen=True)
class Rerouting:
    """A pairing of the splitting endvertices whose identification closes
    the cut-open host back into a single cycle."""

    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out


def _normalize_pairs(pairs: Iterable[Iterable[int]]) -> tuple[tuple[int, int], ...]:
    out = []
    for p in pairs:
        p = tuple(sorted(p))
        if len(p) != 2 or p[0] == p[1]:
            raise InvalidInput(f"{p} is not a pair of distinct vertices")
        out.append(p)
    return tuple(sorted(out))


def validate_rerouting(
    splitting: Splitting, pairs: Iterable[Iterable[int]]
) -> Rerouting | Violation:
    """Contract each pair in the cut-open host and accept iff the traversal
    closes into exactly one cycle."""
    pairs = _normalize_pairs(pairs)
    flat = [v for p in pairs for v in p]
    if len(set(flat)) != len(flat) or set(flat) != set(splitting.endvertices):
        return Violation(
            "not-a-pairing",
            f"pairs must partition the endvertices {sorted(splitting.endvertices)}",
        )
    arcs = splitting.host_arcs
    if len(arcs) != splitting.size:
        raise InvalidInput(
            f"internal: {len(arcs)} arcs for {splitting.size} paths"
        )
    other_end: dict[int, int] = {}
    for arc in arcs:
        other_end[arc[0]] = arc[-1]
        other_end[arc[-1]] = arc[0]
    partner = Rerouting(pairs).partner
    start = arcs[0][0]
    current = start
    visited = 0
    while True:
        current = other_end[current]  # traverse the arc
        visited += 1
        current = partner[current]  # jump through the identified pair
        if current == start:
            break
        if visited > len(arcs):
            raise InvalidInput("internal: traversal failed to terminate")
    if visited != len(arcs):
        return Violation(
            "multiple-cycles",
            f"traversal closed after {visited} of {len(arcs)} arcs",
        )
    return Rerouting(pairs)


def rerouting_cycle_count(splitting: Splitting, pairs: Iterable[Iterable[int]]) -> int:
    """Independent cycle-structure computation: union-find over the arcs
    with one union per contracted pair.  The contracted multigraph is
    2-regular, so its cycle count equals its component count."""
    pairs = _normalize_pairs(pairs)
    arcs = splitting.host_arcs
    arc_of: dict[int, int] = {}
    for i, arc in enumerate(arcs):
        arc_of[arc[0]] = i
        arc_of[arc[-1]] = i
    parent = list(range(len(arcs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(arc_of[a]), find(arc_of[b])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(arcs))})


@dataclass(frozen=True)
class Switching:
    """A local rewrite of a Hamilton cycle around one anchored path."""

    anchor: LoosePath
    host: LooseCycle
    splitting: Splitting
    new_cycle: LooseCycle
    new_splitting: Splitting


def is_switching(
    anchor: LoosePath,
    host: LooseCycle,
    splitting: Splitting,
    new_cycle: LooseCycle,
    new_splitting: Splitting,
    graph: Hypergraph | None = None,
) -> CheckReport:
    """Check the defining conditions of a switching.

    Shape requirements (sizes, balancedness, membership of the anchor) are
    reported first; then "outside-unchanged" (the two cycles agree outside
    the splitting interiors, edge for edge) and "anchor-transverse" (the
    anchor's vertices land in distinct new paths).
    """
    conditions: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    t = anchor.length

    shape_ok = True
    detail = []
    if splitting.index_of(anchor) is None:
        shape_ok, detail = False, ["anchor is not a path of the splitting"]
    if splitting.size != new_splitting.size:
        shape_ok = False
        detail.append(f"sizes differ: {splitting.size} vs {new_splitting.size}")
    check_old = validate_splitting(host, splitting.paths, "balanced", t)
    if isinstance(check_old, Violation):
        shape_ok = False
        detail.append(f"old splitting: {check_old}")
    check_new = validate_splitting(new_cycle, new_splitting.paths, "bounded", 2 * t)
    if isinstance(check_new, Violation):
        shape_ok = False
        detail.append(f"new splitting: {check_new}")
    if graph is not None:
        missing = [e for e in new_cycle.edge_sequence if not graph.contains(e)]
        if missing or new_cycle.n != graph.n:
            shape_ok = False
            detail.append(f"new cycle is not a Hamilton cycle of the graph: {missing[:3]}")
    conditions["shape"] = shape_ok
    if not shape_ok:
        witnesses["shape"] = "; ".join(detail)
        return CheckReport(False, conditions, witnesses)

    outside_old = sorted(host.edges_avoiding(splitting.interiors))
    outside_new = sorted(new_cycle.edges_avoiding(new_splitting.interiors))
    conditions["outside-unchanged"] = outside_old == outside_new
    if not conditions["outside-unchanged"]:
        old_only = [e for e in outside_old if e not in set(outside_new)]
        new_only = [e for e in outside_new if e not in set(outside_old)]
        witnesses["outside-unchanged"] = {"old_only": old_only, "new_only": new_only}

    anchor_vs = anchor.vertex_set
    if anchor_vs <= new_splitting.vertex_set:
        conditions["anchor-transverse"] = is_transverse(new_splitting, anchor_vs)
    else:
        conditions["anchor-transverse"] = False
        witnesses["anchor-transverse"] = "anchor vertices not covered by the new splitting"

    ok = all(conditions.values())
    if ok:
        # Agreeing outside the interiors forces equal endvertex sets.
        assert splitting.endvertices == new_splitting.endvertices
    return CheckReport(ok, conditions, witnesses)


def is_feasible(switching: Switching, chi: Colouring) -> CheckReport:
    """Check that the fresh edges keep the colouring conflict-free.

    "internal-rainbow": the new edges outside the anchor are rainbow;
    "no-outside-collision": none of them repeats a colour of the part of
    the host that the switching left untouched.
    """
    conditions: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    new = switching.new_cycle
    inside = switching.new_splitting.vertex_set - switching.anchor.vertex_set
    fresh = [e for e in new.edge_sequence if set(e) <= inside]
    conditions["internal-rainbow"] = is_rainbow(chi, fresh)
    if not conditions["internal-rainbow"]:
        witnesses["internal-rainbow"] = shares_colour(chi, fresh, fresh)[:3]
    untouched = switching.host.edges_avoiding(switching.splitting.interiors)
    collisions = shares_colour(chi, fresh, untouched)
    conditions["no-outside-collision"] = not collisions
    if collisions:
        witnesses["no-outside-collision"] = collisions[:3]
    return CheckReport(all(conditions.values()), conditions, witnesses)


def _transverse_subsets(
    splitting: Splitting, paths: Sequence[int], size: int
) -> Iterable[tuple[int, ...]]:
    """All transverse subsets of the given size using only the given paths."""
    for chosen in combinations(paths, size):
        for combo in product(*(splitting.paths[i].vertices for i in chosen)):
            yield combo


def is_suitable(
    splitting: Splitting,
    anchor: LoosePath,
    chi: Colouring,
    g: Hypergraph,
    epsilon: float,
) -> CheckReport:
    """Colour-sparsity conditions that make a splitting usable for rewiring.

    "heavy-colour-set": no transverse (k-1)-set outside the anchor lies in
    more than epsilon*m/4 edges (inside the splitting) that repeat a host
    colour.  "adjacent-repeat": no two equal-coloured edges sharing exactly
    one vertex fit inside a common transverse set outside the anchor.
    "disjoint-repeat-support": any two disjoint equal-coloured transverse
    edges outside the anchor meet two common paths.
    """
    anchor_index = splitting.index_of(anchor)
    if anchor_index is None:
        raise InvalidInput("anchor is not a path of the splitting")
    k = g.k
    m = splitting.size
    conditions: dict[str, bool] = {}
    witnesses: dict[str, object] = {}

    host_colours = set(chi.colours(splitting.host.edge_sequence))
    split_vertices = sorted(splitting.vertex_set)
    inside = edges_within(g, split_vertices)
    repeats = {
        e for e, colour in zip(inside, chi.colours(inside)) if colour in host_colours
    }
    other_paths = [i for i in range(m) if i != anchor_index]
    allowance = epsilon * m / 4

    conditions["heavy-colour-set"] = True
    for s in _transverse_subsets(splitting, other_paths, k - 1):
        s_set = set(s)
        count = 0
        for v in split_vertices:
            if v not in s_set and tuple(sorted((*s, v))) in repeats:
                count += 1
        if count > allowance:
            conditions["heavy-colour-set"] = False
            witnesses["heavy-colour-set"] = {"set": tuple(sorted(s)), "count": count}
            break

    outside = splitting.vertex_set - anchor.vertex_set
    by_colour: dict[int, list[tuple[int, ...]]] = {}
    outside_edges = edges_within(g, outside)
    for e, colour in zip(outside_edges, chi.colours(outside_edges)):
        by_colour.setdefault(colour, []).append(e)

    conditions["adjacent-repeat"] = True
    conditions["disjoint-repeat-support"] = True
    for colour, edges in by_colour.items():
        if len(edges) < 2:
            continue
        for e, f in combinations(edges, 2):
            cut = len(set(e) & set(f))
            if cut == 1 and conditions["adjacent-repeat"]:
                if is_transverse(splitting, set(e) | set(f)):
                    conditions["adjacent-repeat"] = False
                    witnesses["adjacent-repeat"] = {"colour": colour, "pair": (e, f)}
            elif cut == 0 and conditions["disjoint-repeat-support"]:
                if is_transverse(splitting, e) and is_transverse(splitting, f):
                    common = {splitting.path_of[v] for v in e} & {
                        splitting.path_of[v] for v in f
                    }
                    if len(common) < 2:
                        conditions["disjoint-repeat-support"] = False
                        witnesses["disjoint-repeat-support"] = {
                            "colour": colour,
                            "pair": (e, f),
                            "common_paths": sorted(common),
                        }
        if not conditions["adjacent-repeat"] and not conditions["disjoint-repeat-support"]:
            break

    ok = all(conditions.values())
    if ok:
        # Implied: no transverse set hosts two disjoint equal-coloured edges.
        for colour, edges in by_colour.items():
            for e, f in combinations(edges, 2):
                if not set(e) & set(f):
                    assert not is_transverse(splitting, set(e) | set(f)), (colour, e, f)
    return CheckReport(ok, conditions, witnesses)


def paths_in_cyclic_order(splitting: Splitting) -> bool:
    """True iff path indices follow the host's cyclic order (so that the
    untouched stretch after path i ends at path i+1)."""
    runs = splitting.runs
    if any(r is None for r in runs):
        return False
    c = splitting.host.edge_count
    base = runs[0][0]
    offsets = [(r[0] - base) % c for r in runs]
    return offsets == sorted(offsets)


def search_quota_rerouting(
    splitting: Splitting,
    partition: TransversePartition,
    pairs_per_part: int,
) -> Rerouting | None | str:
    """Search for a rerouting whose pairs sit inside single parts, exactly
    pairs_per_part of them per part.

    Tries the directed-cycle construction first (pairs of the form
    {entry_i, exit_of_previous}); falls back to exhaustive matching search
    for splittings of size at most 8.  Returns "incomplete" when neither
    route settles the question.
    """
    m = splitting.size
    part_of = partition.part_of
    entries, exits = splitting.entries, splitting.exits

    quota = [0] * len(partition.parts)
    for v in entries:
        quota[part_of[v]] += 1
    if all(q == pairs_per_part for q in quota) and paths_in_cyclic_order(splitting):
        # A pair {entry_i, exit_(i'-1)} lands in the part of entry_i, so the
        # per-part quotas are already forced; any Hamilton dicycle of the
        # same-part digraph gives a rerouting meeting them.
        arcs = [
            (i, ip)
            for i in range(m)
            for ip in range(m)
            if i != ip and ip != (i + 1) % m
            and part_of[entries[i]] == part_of[exits[(ip - 1) % m]]
        ]
        dicycle = find_hamilton_dicycle(Digraph.from_arcs(m, arcs))
        if dicycle is not None:
            pairs = [
                tuple(sorted((entries[dicycle[j]], exits[(dicycle[(j + 1) % m] - 1) % m])))
                for j in range(m)
            ]
            checked = validate_rerouting(splitting, pairs)
            if isinstance(checked, Rerouting):
                return checked

    if m > 8:
        return "incomplete"

    endpoints = sorted(splitting.endvertices)
    counts = [0] * len(partition.parts)

    def match(remaining: list[int], pairs: list[tuple[int, int]]):
        if not remaining:
            yield list(pairs)
            return
        a = remaining[0]
        h = part_of[a]
        for b in remaining[1:]:
            if part_of[b] != h or counts[h] >= pairs_per_part:
                continue
            counts[h] += 1
            pairs.append((a, b))
            rest = [v for v in remaining[1:] if v != b]
            yield from match(rest, pairs)
            pairs.pop()
            counts[h] -= 1

    for pairs in match(endpoints, []):
        # counts are exactly the quota here: the matcher never exceeds it
        # and the totals force equality.
        checked = validate_rerouting(splitting, pairs)
        if isinstance(checked, Rerouting):
            return checked
    return None


def is_viable(
    splitting: Splitting,
    partition: TransversePartition,
    g: Hypergraph,
    epsilon: float,
    pairs_per_part: int,
    threshold: float,
    j: int,
) -> CheckReport:
    """Check that a transverse partition supports the cycle rewrite.

    "pair-quota": some rerouting puts exactly pairs_per_part pairs inside
    each part (the search is exhaustive for splittings of size <= 8).
    "part-degree": every part induces a subgraph with j-degree at least
    (threshold + epsilon/2) * m^(k-j).
    """
    conditions: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    m = splitting.size
    if not partition_is_transverse(splitting, partition):
        raise InvalidInput("partition is not transverse for this splitting")
    if any(len(part) != m for part in partition.parts):
        raise InvalidInput("every part must have size equal to the splitting size")

    found = search_quota_rerouting(splitting, partition, pairs_per_part)
    if found == "incomplete":
        conditions["pair-quota"] = False
        witnesses["pair-quota"] = "search incomplete for size > 8"
    else:
        conditions["pair-quota"] = found is not None
        if found is not None:
            witnesses["pair-quota"] = found

    bound = (threshold + epsilon / 2) * m ** (g.k - j)
    conditions["part-degree"] = True
    for h, part in enumerate(partition.parts):
        deg = min_j_degree_within(g, part, j)
        if deg < bound:
            conditions["part-degree"] = False
            witnesses["part-degree"] = {"part": h, "degree": deg, "bound": bound}
            break
    return CheckReport(all(conditions.values()), conditions, witnesses)
