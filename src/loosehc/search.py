"""Switching-driven local search for a rainbow loose Hamilton cycle.

Start from a random Hamilton cycle; while some colour repeats on the
cycle, wrap one offending edge in an anchored path, sample a splitting
around it, and apply a feasible switching, which scatters the anchor's
vertices across distinct new paths and never creates repeats away from
them.  Each splitting draw is a disjoint splitting of the size the
switching needs, and each partition draw already meets the exit quota, so
no step spends a draw on a splitting of the wrong size or shape, or on a
partition that misses the quota.  The step falls back to redrawing a
fresh random cycle when the host is too small for the switching geometry,
when the budgets run out, and when STALL_STEPS switch steps since the last
(re)start have brought no new low in the conflict count, so a search held
in a basin leaves it.  The conflict list of the cycle in hand decides
success, the cycle from the last step included.  The search is a
heuristic: exhausting the step budget is a report, not an error.  Its one
proof is the colour count: a colouring with fewer colours than a cycle has
edges leaves no rainbow cycle, and the search answers absent at once.
"""

from dataclasses import dataclass, field, replace

from .colouring import Colouring, has_fewer_colours, is_rainbow
from .cycles import LooseCycle, Violation, increasing_path, validate_loose_cycle
from .hypergraph import Hypergraph, InvalidInput, Parameters, PipelineConfig, UnmeetableGate
from .oracles import uniform_random_hamilton_cycle
from .rng import child_seed
from .switchbuild import sample_switching

STALL_STEPS = 50  # switch steps without a new conflict low before a redraw
# Each switch step runs on a copy of this config with its own child seed.
PIPELINE = PipelineConfig(sample_budget=400)


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
    for pos, colour in enumerate(chi.colours(cycle.edge_sequence)):
        positions_by_colour.setdefault(colour, []).append(pos)
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
    conflicts: int  # conflict count of the returned cycle
    log: SearchLog
    absent: bool = False  # proven: no rainbow Hamilton cycle exists

    def __bool__(self) -> bool:
        return self.success


def find_rainbow_hamilton_cycle(
    g: Hypergraph,
    chi: Colouring,
    params: Parameters,
    seed: int,
    max_steps: int = 500,
    start: LooseCycle | None = None,
) -> SearchResult:
    """Local search: resolve one conflict per step by a feasible switching,
    redrawing a fresh random Hamilton cycle when no switching can be built
    within budget or the search has stalled.  Any returned success is
    re-validated, whether its cycle came from the last step or an earlier
    one.

    Before the first draw it runs PIPELINE.refusal once: parameters of
    another uniformity are raised, and an UnmeetableGate turns every step
    into a restart without sampling.  Each restart's log entry names its
    reason: that gate ("relative-degree", "host-too-small", ...),
    "budget-exhausted" when sample_switching found nothing, or "stalled"
    after STALL_STEPS switch steps without a new low in the conflict count
    since the last (re)start.  Each switch entry records the conflict count
    before and after the step.

    When chi has fewer colours than a cycle has edges, n/(k-1), no cycle
    is rainbow: the search draws its start cycle, logs the proof
    ("colour-count") and returns with absent set, before any switch step.
    """
    if g.n % (g.k - 1) != 0:
        raise InvalidInput(f"(k-1) = {g.k - 1} must divide n = {g.n}")
    if start is not None and isinstance(validate_loose_cycle(g, start.vertices), Violation):
        raise InvalidInput("the start cycle is not a loose Hamilton cycle of the host")
    refusal = PIPELINE.refusal(g, params)
    if refusal is not None and not isinstance(refusal, UnmeetableGate):
        raise refusal
    blocked = refusal and refusal.gate
    log = SearchLog()
    cycle = start if start is not None else uniform_random_hamilton_cycle(
        g, child_seed(seed, "search-start")
    )
    restarts = 0
    conflicts = find_conflicts(cycle, chi, params.path_len)
    if has_fewer_colours(chi, cycle.edge_count):
        log.note(step=0, action="absent", proof="colour-count",
                 conflicts=len(conflicts))
        return SearchResult(False, cycle, 0, 0, len(conflicts), log, absent=True)
    low, stalled = len(conflicts), 0
    step = 0
    while conflicts and step < max_steps:
        reason = blocked or ("stalled" if stalled >= STALL_STEPS else None)
        built = None
        if reason is None:
            target = conflicts[0]
            anchor = increasing_path(
                cycle, cycle.edge_sequence[target.anchor_start], params.path_len
            )
            cfg = replace(PIPELINE, seed=child_seed(seed, "search-step", step))
            built = sample_switching(g, chi, cycle, anchor, params, cfg)
        if built is None:
            # No switching available, or none has helped lately: redraw.
            restarts += 1
            cycle = uniform_random_hamilton_cycle(
                g, child_seed(seed, "search-restart", restarts)
            )
            log.note(step=step, action="restart", conflicts=len(conflicts),
                     reason=reason or "budget-exhausted")
            conflicts = find_conflicts(cycle, chi, params.path_len)
            low, stalled = len(conflicts), 0
        else:
            # The builder ran is_switching and is_feasible on this very switching.
            report = built.switching_report
            assert report.ok, f"pipeline produced a non-switching: {report}"
            feasible = built.feasibility
            assert feasible.ok, f"pipeline produced an infeasible switching: {feasible}"
            cycle = built.switching.new_cycle
            new_conflicts = find_conflicts(cycle, chi, params.path_len)
            avoids = anchor.vertex_set.isdisjoint
            before = sum(avoids(x.first + x.second) for x in conflicts)
            after = sum(avoids(x.first + x.second) for x in new_conflicts)
            assert after <= before, "feasible switchings never add conflicts off the anchor"
            log.note(
                step=step, action="switch",
                conflicts=len(conflicts), after=len(new_conflicts),
                colour=target.colour, kind=target.kind,
            )
            conflicts = new_conflicts
            if len(conflicts) < low:
                low, stalled = len(conflicts), 0
            else:
                stalled += 1
        step += 1
    if conflicts:
        return SearchResult(False, cycle, step, restarts, len(conflicts), log)
    checked = validate_loose_cycle(g, cycle.vertices)
    assert isinstance(checked, LooseCycle)
    assert is_rainbow(chi, cycle.edge_sequence)
    log.note(step=step, action="done", conflicts=0)
    return SearchResult(True, cycle, step, restarts, 0, log)
