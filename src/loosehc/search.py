"""Switching-driven local search for a rainbow loose Hamilton cycle.

Start from a random Hamilton cycle; while some colour repeats on the
cycle, wrap one offending edge in an anchored path, sample a splitting
around it, and apply a feasible switching, which scatters the anchor's
vertices across distinct new paths and never creates repeats away from
them.  When the host is too small for the switching geometry (or budgets
run out), the step falls back to redrawing a fresh random cycle.  The
search is a heuristic: exhausting the step budget is a report, not an
error.
"""

from dataclasses import dataclass, field, replace

from .colouring import Colouring, is_rainbow
from .cycles import LooseCycle, Violation, increasing_path, validate_loose_cycle
from .hypergraph import (
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    unmeetable_gate,
)
from .oracles import uniform_random_hamilton_cycle
from .rng import child_seed
from .switchbuild import sample_switching


@dataclass(frozen=True)
class Conflict:
    """Two equal-coloured cycle edges, with the anchored path that would
    cover them in a switching step."""

    colour: int
    first: tuple[int, ...]
    second: tuple[int, ...]
    kind: str  # "adjacent" (edges share a vertex) or "disjoint"
    cyclic_distance: int
    anchor_start: int  # edge position where the covering path begins


def find_conflicts(cycle: LooseCycle, chi: Colouring, path_len: int) -> list[Conflict]:
    """All equal-coloured edge pairs of the cycle, nearest pairs first.

    The covering path starts at the first edge and also covers the second
    when the pair fits within one anchored path.
    """
    positions_by_colour: dict[int, list[int]] = {}
    for pos, e in enumerate(cycle.edge_sequence):
        positions_by_colour.setdefault(chi.by_edge[e], []).append(pos)
    c = cycle.edge_count
    conflicts = []
    for colour, positions in positions_by_colour.items():
        if len(positions) < 2:
            continue
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                a, b = positions[i], positions[j]
                d = min((b - a) % c, (a - b) % c)
                e, f = cycle.edge_sequence[a], cycle.edge_sequence[b]
                kind = "adjacent" if set(e) & set(f) else "disjoint"
                if (b - a) % c <= path_len - 1:
                    start = a
                elif (a - b) % c <= path_len - 1:
                    start = b
                else:
                    start = a
                conflicts.append(Conflict(colour, e, f, kind, d, start))
    conflicts.sort(key=lambda x: (x.cyclic_distance, x.first, x.second))
    return conflicts


@dataclass
class SearchLog:
    steps: list[dict] = field(default_factory=list)

    def note(self, **kwargs) -> None:
        self.steps.append(kwargs)


@dataclass
class SearchResult:
    success: bool
    cycle: LooseCycle
    steps: int
    restarts: int
    log: SearchLog

    def __bool__(self) -> bool:
        return self.success


def find_rainbow_hamilton_cycle(
    g: Hypergraph,
    chi: Colouring,
    params: Parameters,
    seed: int,
    max_steps: int = 500,
    start: LooseCycle | None = None,
    pipeline: PipelineConfig | None = None,
) -> SearchResult:
    """Local search: resolve one conflict per step by a feasible switching,
    falling back to a fresh random Hamilton cycle when no switching can be
    built within budget.  Any returned success is re-validated.

    Each restart's log entry names its reason: the strict gate that no
    sample can meet (found once, before the first step), "host-too-small"
    for a host below the switching geometry, or "budget-exhausted" when
    sample_switching found nothing.
    """
    if g.n % (g.k - 1) != 0:
        raise InvalidInput(f"(k-1) = {g.k - 1} must divide n = {g.n}")
    if start is not None and isinstance(validate_loose_cycle(g, start.vertices), Violation):
        raise InvalidInput("the start cycle is not a loose Hamilton cycle of the host")
    log = SearchLog()
    cycle = start if start is not None else uniform_random_hamilton_cycle(
        g, child_seed(seed, "search-start")
    )
    restarts = 0
    base_pipeline = pipeline or PipelineConfig(sample_budget=400, partition_tries=10)
    refusal = unmeetable_gate(
        params,
        strict_partition=not base_pipeline.is_structural(g),
        events=base_pipeline.require_events,
    )
    if refusal is not None:
        blocked = refusal.gate
    elif g.n < params.split_size * (params.path_len + 1) * (g.k - 1):
        blocked = "host-too-small"
    else:
        blocked = None
    conflicts = find_conflicts(cycle, chi, params.path_len)
    for step in range(max_steps):
        if not conflicts:
            checked = validate_loose_cycle(g, cycle.vertices)
            assert isinstance(checked, LooseCycle)
            assert is_rainbow(chi, cycle.edge_sequence)
            log.note(step=step, action="done", conflicts=0)
            return SearchResult(True, cycle, step, restarts, log)

        target = conflicts[0]
        anchor = increasing_path(
            cycle, cycle.edge_sequence[target.anchor_start], params.path_len
        )
        cfg = replace(base_pipeline, seed=child_seed(seed, "search-step", step))
        built = None
        if blocked is None:
            built = sample_switching(g, chi, cycle, anchor, params, cfg)
        if built is None:
            # No switching available: redraw and keep searching.
            restarts += 1
            cycle = uniform_random_hamilton_cycle(
                g, child_seed(seed, "search-restart", restarts)
            )
            log.note(step=step, action="restart", conflicts=len(conflicts),
                     reason=blocked or "budget-exhausted")
            conflicts = find_conflicts(cycle, chi, params.path_len)
            continue

        # The builder ran is_switching and is_feasible on this very switching.
        switching = built.switching
        report = built.switching_report
        assert report.ok, f"pipeline produced a non-switching: {report}"
        feasible = built.feasibility
        assert feasible.ok, f"pipeline produced an infeasible switching: {feasible}"
        log.note(
            step=step, action="switch",
            conflicts=len(conflicts),
            colour=target.colour, kind=target.kind,
        )
        cycle = switching.new_cycle
        new_conflicts = find_conflicts(cycle, chi, params.path_len)
        avoids = anchor.vertex_set.isdisjoint
        before = sum(avoids(x.first + x.second) for x in conflicts)
        after = sum(avoids(x.first + x.second) for x in new_conflicts)
        assert after <= before, "feasible switchings never add conflicts off the anchor"
        conflicts = new_conflicts
    return SearchResult(False, cycle, max_steps, restarts, log)
