"""Switching-driven local search for a rainbow loose Hamilton cycle.

Start from a random Hamilton cycle; while some colour repeats on the
cycle, pick one conflict uniformly from a seeded stream, wrap its first
edge in an anchored path, sample a splitting around it, and build a
feasible switching, which scatters the anchor's vertices across distinct
new paths and never creates repeats away from them.  Repeats can still
land on the anchor, so the search keeps the new cycle only when it has no
more conflicts than the one in hand, and otherwise holds its cycle; a
search that kept every switching and aimed at the nearest conflict
cycled.  This is the non-increasing acceptance and uniform flaw choice of
the focused swap walk of Harris and Srinivasan (the Lovász Local Lemma on
permutations, SODA 2014), applied to the paper's move, which is itself
unchanged.  Where the move is forced (k = 3, t = m~ = 1, where each
splitting has one switching, whatever the partition draw), a step also
picks the move the walk would: it scores its seeded splitting draws by
the conflict count their forced rewiring leaves, read from the colour
counts of the cycle in hand, and builds the first draw that lowers the
count, or else the lowest of the first WINDOW draws.  The built cycle's
count must equal the prediction.  Each splitting draw is a disjoint
splitting of the size the switching needs, and each partition draw
already meets the exit quota, so no step spends a draw on a splitting of
the wrong size or shape, or on a partition that misses the quota.  The
step falls back to redrawing a fresh random cycle when the host is too
small for the switching geometry, when the budgets run out, and when
STALL_STEPS switch steps since the last (re)start, kept or not, have
brought no new low in the conflict count, so a search held in a basin
leaves it.  The conflict list of the cycle in hand decides success, the
cycle from the last step included.  The search is a heuristic: exhausting
the step budget is a report, not an error.  Its one proof is the colour
count: a colouring with fewer colours than a cycle has edges leaves no
rainbow cycle, and the search answers absent at once.
"""

from collections import Counter
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Iterator

from .colouring import Colouring, has_fewer_colours, is_rainbow
from .cycles import LooseCycle, LoosePath, Violation, increasing_path, validate_loose_cycle
from .hypergraph import Hypergraph, InvalidInput, Parameters, PipelineConfig, UnmeetableGate
from .oracles import uniform_random_hamilton_cycle
from .rng import child_seed
from .sampler import SampledSplitting, sample_splitting
from .switchbuild import build_switching, forced_rewiring

STALL_STEPS = 50  # switch steps without a new conflict low before a redraw
WINDOW = 10  # scored draws a step compares when none lowers the count
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


def rewired_conflict_count(
    counts: Counter, held: int, removed: list[int], added: list[int]
) -> int:
    """The conflict count of a cycle once edges of the removed colours give
    way to edges of the added ones, from the cycle's colour counts and its
    conflict count, held.  A colour met b times whose count moves by d
    changes the number of equal-coloured pairs by
    C(b + d, 2) - C(b, 2) = d(2b + d - 1)/2."""
    change = Counter(added)
    change.subtract(removed)
    for colour, d in change.items():
        held += d * (2 * counts[colour] + d - 1) // 2
    return held


def _draws_to_build(
    g: Hypergraph,
    chi: Colouring,
    cycle: LooseCycle,
    anchor: LoosePath,
    params: Parameters,
    config: PipelineConfig,
    held: int,
) -> Iterator[tuple[int, SampledSplitting, int | None]]:
    """The step's seeded splitting draws in the order it tries to build
    them, each as (trial, draw, predicted conflict count).

    Where forced_rewiring gives the edges a draw's switching adds, each
    draw is scored before anything is built: its predicted count comes
    from the held cycle's colour counts, with the three path edges out and
    the three forced edges in, and a draw with a forced edge outside the
    host is skipped.  A draw that lowers the held count comes out at once;
    otherwise every WINDOW scored draws give up their lowest, the earliest
    on ties, and a budget that ends mid-window gives up the lowest so far.
    Elsewhere nothing is scored: every draw comes out, in order, with None.
    """
    counts = Counter(chi.colours(cycle.edge_sequence))
    by_count = itemgetter(2)
    window: list[tuple[int, SampledSplitting, int]] = []
    for trial in range(config.sample_budget):
        sample = sample_splitting(
            cycle, anchor, params.split_size, params.path_len, config.seed, trial,
            exact_size=True,
        )
        added = forced_rewiring(sample, params)
        if added is None:
            yield trial, sample, None
            continue
        if not all(map(g.contains, added)):
            continue
        positions = (sample.anchor_start, *sample.sampled_positions)
        removed = chi.colours([cycle.edge_sequence[p] for p in positions])
        predicted = rewired_conflict_count(counts, held, removed, chi.colours(added))
        draw = (trial, sample, predicted)
        if predicted < held:
            yield draw
            continue
        window.append(draw)
        if len(window) == WINDOW:
            yield min(window, key=by_count)
            window = []
    if window:
        yield min(window, key=by_count)


def find_rainbow_hamilton_cycle(
    g: Hypergraph,
    chi: Colouring,
    params: Parameters,
    seed: int,
    max_steps: int = 500,
    start: LooseCycle | None = None,
) -> SearchResult:
    """Local search: aim each step at one conflict, drawn uniformly by
    child_seed(seed, "search-target", step), and build a feasible switching
    around it; keep the new cycle when its conflict count is at most the
    current one, and hold the current cycle otherwise.  A fresh random
    Hamilton cycle is drawn when no switching can be built within budget
    or the search has stalled.  The builder's reports and the off-anchor
    check are asserted on every built switching, kept or not.  Any
    returned success is re-validated, whether its cycle came from the last
    step or an earlier one.

    A step's splittings are the seeded draws sample_splitting makes under
    the step's config at trials 0, 1, ..., and each is built through
    build_switching.  Where forced_rewiring gives the edges a draw's
    switching adds (k = 3, t = m~ = 1), the step scores its draws before
    building any: each gets the conflict count its switching would leave,
    and a draw that would add a non-edge is skipped.  It builds the first
    draw that lowers the count, or else the lowest of the first WINDOW
    scored draws, the earliest on ties, and asserts that the built cycle's
    count equals the prediction.  A worse switching is still built, and
    then rejected.  Elsewhere it builds the first draw that passes its
    gate, as sample_switching does.  A draw that fails its gate or does not
    build is passed over.

    Before the first draw it runs PIPELINE.refusal once: parameters of
    another uniformity are raised, and an UnmeetableGate turns every step
    into a restart without sampling.  Each restart's log entry names its
    reason: that gate ("relative-degree", "host-too-small", ...),
    "budget-exhausted" when no draw of the sample budget built, or
    "stalled" after STALL_STEPS switch steps, kept or not, without a new
    low in the conflict count since the last (re)start.  Each switch entry
    records the target's index in the conflict list ("target"), the trial
    whose draw was built ("trial"), the conflict count of the cycle in
    hand ("conflicts") and of the built cycle ("after"), and whether the
    built cycle was kept ("kept").

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
            index = child_seed(seed, "search-target", step) % len(conflicts)
            target = conflicts[index]
            anchor = increasing_path(
                cycle, cycle.edge_sequence[target.anchor_start], params.path_len
            )
            cfg = replace(PIPELINE, seed=child_seed(seed, "search-step", step))
            for trial, sample, predicted in _draws_to_build(
                g, chi, cycle, anchor, params, cfg, len(conflicts)
            ):
                built = build_switching(g, chi, sample, params, cfg, trial)
                if built is not None:
                    break
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
            new_cycle = built.switching.new_cycle
            new_conflicts = find_conflicts(new_cycle, chi, params.path_len)
            avoids = anchor.vertex_set.isdisjoint
            before = sum(avoids(x.first + x.second) for x in conflicts)
            after = sum(avoids(x.first + x.second) for x in new_conflicts)
            assert after <= before, "feasible switchings never add conflicts off the anchor"
            assert predicted is None or predicted == len(new_conflicts), (
                f"the forced rewiring predicted {predicted} conflicts, "
                f"the built cycle has {len(new_conflicts)}"
            )
            kept = len(new_conflicts) <= len(conflicts)
            log.note(
                step=step, action="switch", kept=kept, target=index, trial=trial,
                conflicts=len(conflicts), after=len(new_conflicts),
                colour=target.colour, kind=target.kind,
            )
            if kept:
                cycle, conflicts = new_cycle, new_conflicts
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
