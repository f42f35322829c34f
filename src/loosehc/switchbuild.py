"""Building feasible switchings part by part.

Given a suitable splitting, a viable partition and its rerouting, each part
is retiled in turn: the part's induced graph is filtered of edges that
repeat a host colour, a conflict graph lifted from the earlier parts'
trimmed path collections rules out pairwise colour collisions, and the
tiling module covers the part by short paths between the rerouting pairs.
Gluing all paths to the untouched stretches of the host yields the new
Hamilton cycle.

The builder checks its result through the predicate module, is_switching
and is_feasible, and returns both reports; callers assert on those reports
rather than run the predicates a second time.  Those two predicates are the
only checks of a built switching: nothing is trusted from construction.
Each check the builder keeps has no other owner: the inputs' shape,
validate_path_tiling on each part, the trimmed edges' colours, and the
assembled walk's closing.  LooseCycle checks the new cycle's vertices and
shape, TilingRequest the conflict graph's degree cap, and is_switching
that every new cycle edge is a host edge.
"""

from dataclasses import dataclass, replace

from .colouring import Colouring
from .cycles import LooseCycle, LoosePath
from .graphs import PairGraph
from .hypergraph import (
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    edges_within,
    relabelled,
)
from .rng import child_seed
from .sampler import (
    BudgetExhausted,
    accept_suitable,
    draw_viable_partition,
    sample_splitting,
)
from .splitting import (
    CheckReport,
    Rerouting,
    Splitting,
    Switching,
    TransversePartition,
    is_feasible,
    is_switching,
    partition_is_transverse,
    validate_splitting,
)
from .tiling import TilingInfeasible, TilingRequest, build_path_tiling, validate_path_tiling


@dataclass
class SwitchBuildResult:
    switching: Switching
    switching_report: CheckReport
    feasibility: CheckReport


def part_labels(splitting: Splitting, partition: TransversePartition) -> list[list[int]]:
    """labels[h][i] is the unique vertex of part h on path i."""
    m = splitting.size
    labels = []
    for part in partition.parts:
        row: list[int | None] = [None] * m
        for v in part:
            row[splitting.path_of[v]] = v
        if any(v is None for v in row):
            raise InvalidInput("each part must meet every path exactly once")
        labels.append(row)
    return labels


def build_conflict_graph(
    splitting: Splitting,
    labels: list[list[int]],
    trimmed_so_far: list[list[tuple[int, ...]]],
    h: int,
) -> PairGraph:
    """Lift every vertex pair covered by an earlier part's trimmed edges to
    the current part's labels.  Pairs touching the anchor path never join.
    TilingRequest checks the result against the 2tk^2 degree cap."""
    vertex_path = splitting.path_of
    pairs: set[tuple[int, int]] = set()
    for prior in range(h):
        for e in trimmed_so_far[prior]:
            indices = [vertex_path[v] for v in e]
            assert 0 not in indices, "trimmed edges avoid the anchor's vertex"
            for a in range(len(indices)):
                for b in range(a + 1, len(indices)):
                    u = labels[h][indices[a]]
                    v = labels[h][indices[b]]
                    pairs.add((min(u, v), max(u, v)))
    return PairGraph(frozenset(pairs))


def _filtered_part_edges(
    g: Hypergraph,
    chi: Colouring,
    host_colours: set[int],
    part: frozenset[int],
    anchor_vertex: int,
) -> list[tuple[int, ...]]:
    """Edges of g inside the part, minus those avoiding the anchor's vertex
    that repeat a host colour."""
    edges = edges_within(g, part)
    return [
        e for e, colour in zip(edges, chi.colours(edges))
        if anchor_vertex in e or colour not in host_colours
    ]


def _assemble_cycle(
    g: Hypergraph,
    splitting: Splitting,
    new_paths: list[LoosePath],
) -> LooseCycle:
    """Alternate the host's untouched stretches with the new paths.
    LooseCycle checks the walk; is_switching checks its edges."""
    arcs = splitting.host_arcs
    arc_at: dict[int, tuple[int, ...]] = {}
    for arc in arcs:
        arc_at[arc[0]] = arc
        arc_at[arc[-1]] = arc
    path_at: dict[int, LoosePath] = {}
    for p in new_paths:
        for v in p.endvertices:
            path_at[v] = p

    seq: list[int] = []
    start_arc = arcs[0]
    seq.extend(start_arc)
    current = start_arc[-1]
    for step in range(len(arcs)):
        path = path_at[current]
        walk = path.vertices if path.vertices[0] == current else path.vertices[::-1]
        assert walk[0] == current
        seq.extend(walk[1:])
        current = walk[-1]
        if step < len(arcs) - 1:
            arc = arc_at[current]
            walk = arc if arc[0] == current else arc[::-1]
            assert walk[0] == current
            seq.extend(walk[1:])
            current = walk[-1]
    assert seq[0] == seq[-1] and len(seq) == g.n + 1, "assembly did not close"
    return LooseCycle(tuple(seq[:-1]), g.k)


def build_feasible_switching(
    host: LooseCycle,
    anchor: LoosePath,
    splitting: Splitting,
    partition: TransversePartition,
    rerouting: Rerouting,
    g: Hypergraph,
    chi: Colouring,
    params: Parameters,
    config: PipelineConfig | None = None,
) -> SwitchBuildResult:
    """Construct the new cycle and its bounded splitting from a splitting,
    a viable partition and a rerouting with the per-part pair quota.

    The anchor must be the splitting's first path.  Per-part tilings use
    deterministic child seeds of config.seed, so the build is reproducible.
    With config.require_events the splitting is known to be suitable, and
    the feasibility it promises is asserted.  Raises TilingInfeasible
    (naming "part-h:stage") if any part cannot be tiled.
    """
    config = config or PipelineConfig()
    if splitting.index_of(anchor) != 0:
        raise InvalidInput("the anchor must be the splitting's path 0")
    if not partition_is_transverse(splitting, partition):
        raise InvalidInput("partition is not transverse")
    m = splitting.size
    t = anchor.length
    part_count = len(partition.parts)
    quota, rem = divmod(m, part_count)
    if rem:
        raise InvalidInput("part count must divide the splitting size")

    pairs_by_part: list[list[tuple[int, int]]] = [[] for _ in range(part_count)]
    for a, b in rerouting.pairs:
        ha, hb = partition.part_of[a], partition.part_of[b]
        if ha != hb:
            raise InvalidInput(f"rerouting pair ({a}, {b}) straddles parts")
        pairs_by_part[ha].append((a, b))
    if any(len(ps) != quota for ps in pairs_by_part):
        raise InvalidInput("rerouting does not meet the per-part pair quota")

    labels = part_labels(splitting, partition)
    host_colours = set(chi.colours(host.edge_sequence))

    new_paths: list[LoosePath] = []
    trimmed: list[list[tuple[int, ...]]] = []
    for h in range(part_count):
        part = partition.parts[h]
        anchor_vertex = labels[h][0]
        conflict = build_conflict_graph(splitting, labels, trimmed, h)
        kept = _filtered_part_edges(g, chi, host_colours, part, anchor_vertex)

        old_ids = tuple(sorted(part))
        to_new = {v: i for i, v in enumerate(old_ids)}
        request = TilingRequest(
            relabelled(g, old_ids, kept),
            tuple(tuple(sorted((to_new[a], to_new[b]))) for a, b in pairs_by_part[h]),
            PairGraph.from_pairs((to_new[u], to_new[v]) for u, v in conflict.edges),
            t,
        )
        try:
            tiling = build_path_tiling(
                request, params,
                replace(config, seed=child_seed(config.seed, "part-tiling", h)),
            )
        except TilingInfeasible as exc:
            raise TilingInfeasible(f"part-{h}:{exc.stage}", exc.detail) from exc
        report = validate_path_tiling(request, tiling)
        assert report.ok, f"part {h} tiling failed validation: {report}"

        part_paths = [
            LoosePath(tuple(old_ids[v] for v in p.vertices), g.k)
            for p in tiling.paths
        ]
        new_paths.extend(part_paths)
        edges_here = [
            e for p in part_paths for e in p.edges if anchor_vertex not in e
        ]
        # The filter guarantees trimmed edges never repeat a host colour.
        assert host_colours.isdisjoint(chi.colours(edges_here))
        trimmed.append(edges_here)

    # is_switching validates the new splitting ("shape") and compares the
    # edges outside it with the host's ("outside-unchanged").  The trimmed
    # edges avoid the anchor, so they are among is_feasible's fresh edges,
    # and "internal-rainbow" covers their colours across and within parts.
    new_cycle = _assemble_cycle(g, splitting, new_paths)
    new_split = Splitting(new_cycle, tuple(new_paths))
    switching_report = is_switching(
        anchor, host, splitting, new_cycle, new_split, graph=g
    )
    assert switching_report.ok, f"builder emitted a non-switching: {switching_report}"
    switching = Switching(anchor, host, splitting, new_cycle, new_split)
    feasibility = is_feasible(switching, chi)
    if config.require_events:
        assert feasibility.ok, f"suitability promised feasibility: {feasibility}"
    return SwitchBuildResult(switching, switching_report, feasibility)


def sample_switching(
    g: Hypergraph,
    chi: Colouring,
    host: LooseCycle,
    anchor: LoosePath,
    params: Parameters,
    config: PipelineConfig | None = None,
) -> SwitchBuildResult | None:
    """End-to-end: sample splittings around the anchor, build a viable
    partition with its rerouting, and retile the parts into a switching.

    Each trial draws one splitting from the Bernoulli model conditioned on
    its size and on validate_splitting accepting it, so no draw is spent on
    a sample of the wrong size or shape; validate_splitting (or, with
    config.require_events, accept_suitable) still checks every draw.  It
    then draws one viable partition and builds; a spent partition budget,
    a missing dicycle or an untileable part moves on to the next trial.

    Returns None when the budgets run out; the caller decides what that
    means (the whole pipeline is a heuristic at desk scale).  Before the
    first draw it raises what config.refusal returns, and sample_splitting
    refuses an anchor that is not a sub-path of the host with
    params.path_len edges.
    """
    config = config or PipelineConfig()
    refusal = config.refusal(g, params)
    if refusal is not None:
        raise refusal
    for trial in range(config.sample_budget):
        sample = sample_splitting(
            host, anchor, params.split_size, params.path_len, config.seed, trial,
            exact_size=True,
        )
        if config.require_events:
            splitting = accept_suitable(sample, g, chi, params).splitting
        else:
            splitting = validate_splitting(
                host, sample.all_paths, "balanced", params.path_len
            )
        if not isinstance(splitting, Splitting):
            continue
        # trial * 1000 is the key the pinned seeded searches and the
        # benchmark digests were drawn under; another key moves every draw.
        partition_seed = child_seed(config.seed, "pipeline-partition", trial * 1000)
        try:
            drawn = draw_viable_partition(
                splitting, g, params, replace(config, seed=partition_seed)
            )
            if drawn is None:
                continue
            swapped, rerouting = drawn
            return build_feasible_switching(
                host, anchor, splitting, swapped, rerouting, g, chi, params,
                replace(config, seed=child_seed(config.seed, "pipeline-build", trial)),
            )
        except (BudgetExhausted, TilingInfeasible):
            continue
    return None
