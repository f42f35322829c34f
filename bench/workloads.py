"""The benchmark's workloads: inputs made from a seed, the fixed op list of
one pass, and an independent check of every op's output.

Each workload builds its inputs in ``setup`` and hands the library only
those inputs.  ``call`` is the timed library call; ``summarize`` turns its
result into plain data for the digest; ``check`` judges it with the
library's validity predicates, outside any timing or tracing.

Ops call the library through module attributes (``search.find_...``) so a
tracer that rewraps those attributes sees every call.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from loosehc import oracles, search, switchbuild
from loosehc.colouring import Colouring, is_rainbow
from loosehc.constructions import tight_counterexample
from loosehc.cycles import LooseCycle, increasing_path, validate_loose_cycle
from loosehc.hypergraph import Hypergraph, InvalidInput, Parameters
from loosehc.sampler import BudgetExhausted
from loosehc.splitting import is_feasible, is_switching

K = 3


def params_for(mu: float) -> Parameters:
    """t = m~ = 1 with the CLI's default epsilon, gamma, beta and threshold."""
    return Parameters(k=K, j=1, path_len=1, pairs_per_part=1,
                      epsilon=0.2, mu=mu, gamma=0.01, beta=0.5)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    label: str  # names the op in failure reports


@dataclass(frozen=True)
class Verdict:
    ok: bool      # the output passed its independent check
    found: bool   # the op ended with a checked answer (see README)


def digest(records: list) -> str:
    """sha256 of the summaries of all ops of one pass, in op order."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def host(n: int, tracer) -> Hypergraph:
    """The complete 3-graph with its cached indices built, as in set-up."""
    g = Hypergraph.complete(n, K)
    with tracer.span("hypergraph.index"):
        g.edge_set, g.by_vertex
    tracer.count("hypergraph.edges", len(g.edges))
    return g


def colouring(g: Hypergraph, colours, tracer) -> Colouring:
    with tracer.span("colouring.build"):
        chi = Colouring(g, tuple(colours.tolist()))
        chi.by_edge
    return chi


def random_class_colouring(g: Hypergraph, mu: float, rng, tracer) -> Colouring:
    """Edges in seeded random order, cut into classes of ceil(mu * n^2)."""
    size = math.ceil(mu * g.n ** 2)
    colours = np.empty(len(g.edges), dtype=np.int64)
    colours[rng.permutation(len(g.edges))] = np.arange(len(g.edges)) // size
    return colouring(g, colours, tracer)


def _error(raw: BaseException) -> dict:
    return {"raised": type(raw).__name__, "stage": getattr(raw, "stage", None),
            "detail": str(raw)}


# At n = 12 a search either succeeds within a few steps or cycles through
# all 500 steps (about 2 s).  So search-small draws its 12-vertex instances
# from a fixed seed, this many colourings per mu with one search each: a
# seed-dependent number of 2 s outliers would swamp every rate of the
# workload.
N12_COLOURINGS = 6


class SearchSmall:
    """``find_rainbow_hamilton_cycle`` with default budgets on complete
    3-graphs below the n = 50 mode switch, under random colourings whose
    classes hold ceil(mu * n^2) edges.  One op is one search."""

    name = "search-small"
    setup_repeats = 3
    # p90 lies where search times thin out; it takes about a thousand
    # distinct searches to pin it down, so one pass of them suffices.
    min_passes = 1

    def __init__(self, sizes=(12, 24, 36, 48), mus=(0.05, 0.1), colourings=48, searches=3):
        self.sizes, self.mus = sizes, mus
        self.colourings, self.searches = colourings, searches

    def setup(self, seed: int, tracer) -> list[Op]:
        fixed, seeded = np.random.default_rng(0), np.random.default_rng(seed)
        ops = []
        for n in self.sizes:
            g = host(n, tracer)
            rng = fixed if n == 12 else seeded
            colourings, searches = (
                (N12_COLOURINGS, 1) if n == 12 else (self.colourings, self.searches)
            )
            for mu in self.mus:
                for i in range(colourings):
                    chi = random_class_colouring(g, mu, rng, tracer)
                    for _ in range(searches):
                        op_seed = int(rng.integers(2 ** 31))
                        ops.append(Op("search", (g, chi, params_for(mu), op_seed),
                                      f"n={n} mu={mu} colouring #{i} seed={op_seed}"))
        return ops

    def call(self, op: Op):
        g, chi, params, op_seed = op.args
        return search.find_rainbow_hamilton_cycle(g, chi, params, seed=op_seed)

    def summarize(self, op: Op, raw) -> dict:
        if isinstance(raw, BaseException):
            return _error(raw)
        return {"found": raw.success, "cycle": list(raw.cycle.vertices),
                "steps": raw.steps, "restarts": raw.restarts}

    def check(self, op: Op, raw) -> Verdict:
        return check_search(op.args[0], op.args[1], raw)


def check_search(g: Hypergraph, chi: Colouring, result) -> Verdict:
    """The returned cycle is always a loose Hamilton cycle of g; a search
    that reports success must return a rainbow one."""
    if isinstance(result, BaseException):
        return Verdict(False, False)
    checked = validate_loose_cycle(g, result.cycle.vertices)
    if not isinstance(checked, LooseCycle) or checked.vertices != result.cycle.vertices:
        return Verdict(False, False)
    if result.success and not is_rainbow(chi, checked.edge_sequence):
        return Verdict(False, False)
    return Verdict(True, bool(result.success))


# The strict bound fails every partition, so in large-strict each accepted
# sample spends this many partition_conditions calls.  One keeps an op's
# time in small steps, one call per accepted sample.
PARTITION_BUDGET = 1


class LargeStrict:
    """One ``sample_switching`` call with the event gate on K_120^(3) under
    the injective colouring.  At n >= 50 the mode is strict, and its
    relative-degree bound (1.125 at m = 3) can never hold, so the correct
    outcome is no switching."""

    name = "large-strict"
    setup_repeats = 3
    # Ops are long (each accepts about ten samples), so one pass suffices.
    min_passes = 1

    def __init__(self, n=120, rounds=2, sample_budget=60):
        self.n, self.rounds, self.sample_budget = n, rounds, sample_budget

    def setup(self, seed: int, tracer) -> list[Op]:
        rng = np.random.default_rng(seed)
        g = host(self.n, tracer)
        with tracer.span("colouring.build"):
            chi = Colouring.injective(g)
            chi.by_edge
        cycle = LooseCycle(tuple(range(self.n)), K)
        params = params_for(0.05)
        # Every host edge anchors ``rounds`` ops, in seeded order: how often a
        # sample passes the event gate depends on where the anchor sits, and
        # a seeded draw of anchor positions moved the work by an eighth.
        positions = np.concatenate([rng.permutation(cycle.edge_count) for _ in range(self.rounds)])
        ops = []
        for position in positions:
            edge = cycle.edge_sequence[int(position)]
            anchor = increasing_path(cycle, edge, params.path_len)
            config = switchbuild.PipelineConfig(
                seed=int(rng.integers(2 ** 31)), sample_budget=self.sample_budget,
                partition_budget=PARTITION_BUDGET, require_events=True,
            )
            ops.append(Op("switch", (g, chi, cycle, anchor, params, config),
                          f"anchor={edge} seed={config.seed}"))
        return ops

    def call(self, op: Op):
        return switchbuild.sample_switching(*op.args)

    def summarize(self, op: Op, raw) -> dict:
        if isinstance(raw, BaseException):
            return _error(raw)
        if raw is None:
            return {"switching": None}
        sw = raw.switching
        return {"switching": list(sw.new_cycle.vertices),
                "paths": [list(p.vertices) for p in sw.new_splitting.paths]}

    def check(self, op: Op, raw) -> Verdict:
        return check_switching(op.args[0], op.args[1], raw)


# The partition sampler's stage and the condition ids of the partition and
# tiling gates.  A refusal names one as its stage, or leads its message with
# it in the library's "stage: detail" form.
GATES = ("transverse-partition", "exit-quota", "entry-bound", "relative-degree",
         "part-sizes", "part-degrees", "no-very-bad", "bad-count")


def named_gate(refusal: Exception) -> str:
    return getattr(refusal, "stage", None) or str(refusal).partition(":")[0]


def check_switching(g: Hypergraph, chi: Colouring, result) -> Verdict:
    """No switching, a refusal that names a gate, or a switching that
    passes ``is_switching`` and ``is_feasible``."""
    if result is None:
        return Verdict(True, True)
    if isinstance(result, (BudgetExhausted, InvalidInput)):
        ok = named_gate(result) in GATES
        return Verdict(ok, ok)
    if isinstance(result, BaseException):
        return Verdict(False, False)
    sw = result.switching
    ok = (is_switching(sw.anchor, sw.host, sw.splitting, sw.new_cycle,
                       sw.new_splitting, graph=g).ok
          and is_feasible(sw, chi).ok)
    return Verdict(ok, ok)


def loose_cycle_count(n: int, k: int) -> int:
    """Loose Hamilton cycles of K_n^(k): n! / (2 m ((k-2)!)^m), m = n/(k-1)."""
    m = n // (k - 1)
    return math.factorial(n) // (2 * m * math.factorial(k - 2) ** m)


def relabelled(g: Hypergraph, chi: Colouring, perm) -> tuple[Hypergraph, Colouring]:
    """An isomorphic copy: vertex v becomes perm[v], colours move with edges."""
    edges = [tuple(sorted(int(perm[v]) for v in e)) for e in g.edges]
    h = Hypergraph(g.n, g.k, tuple(edges))
    return h, Colouring(h, chi.assignment)


class OracleExhaustive:
    """The exact oracles on instances whose answers are known a priori:
    enumeration of K_8^(3) (5,040 cycles), rainbow loose cycles of K_8^(3)
    under 3-colourings (absent: a cycle has 4 edges), and rainbow tight
    cycles of the three-part construction at n = 9 and 12 (absent)."""

    name = "oracle-exhaustive"
    setup_repeats = 5
    min_passes = 3

    def __init__(self, enumerations=4, loose=32, tight_sizes=(9, 12), tight_each=32):
        self.enumerations, self.loose = enumerations, loose
        self.tight_sizes, self.tight_each = tight_sizes, tight_each

    def setup(self, seed: int, tracer) -> list[Op]:
        rng = np.random.default_rng(seed)
        ops = []
        k8 = host(8, tracer)
        for i in range(self.enumerations):
            # Edge order is the only freedom K_8 has; it steers the search.
            order = rng.permutation(len(k8.edges))
            g = Hypergraph(k8.n, K, tuple(k8.edges[j] for j in order))
            with tracer.span("hypergraph.index"):
                g.edge_set, g.by_vertex
            ops.append(Op("enumerate", (g,), f"K8 #{i}"))
        for i in range(self.loose):
            chi = colouring(k8, rng.integers(3, size=len(k8.edges)), tracer)
            ops.append(Op("rainbow-loose", (k8, chi), f"K8 3-colouring #{i}"))
        for n in self.tight_sizes:
            with tracer.span("colouring.build"):
                base = tight_counterexample(n)
            for i in range(self.tight_each):
                with tracer.span("colouring.build"):
                    g, chi = relabelled(*base, rng.permutation(n))
                    g.edge_set, chi.by_edge
                ops.append(Op("rainbow-tight", (g, chi), f"tight n={n} #{i}"))
        return ops

    def call(self, op: Op):
        if op.kind == "enumerate":
            return oracles.enumerate_loose_hamilton_cycles(*op.args)
        if op.kind == "rainbow-loose":
            return oracles.exists_rainbow_loose_hc(*op.args)
        return oracles.exists_rainbow_tight_hc(*op.args)

    def summarize(self, op: Op, raw) -> dict:
        if isinstance(raw, BaseException):
            return _error(raw)
        if op.kind == "enumerate":
            cycles = hashlib.sha256(repr([c.vertices for c in raw.cycles]).encode())
            return {"count": len(raw.cycles), "complete": raw.complete,
                    "cycles": cycles.hexdigest()}
        witness = raw.witness.vertices if raw.witness is not None else None
        return {"status": raw.status, "witness": witness}

    def check(self, op: Op, raw) -> Verdict:
        if op.kind == "enumerate":
            return check_enumeration(op.args[0], raw)
        return check_absent(raw)


def check_enumeration(g: Hypergraph, result) -> Verdict:
    """A complete run that finds exactly the closed-form number of cycles."""
    if isinstance(result, BaseException):
        return Verdict(False, False)
    ok = result.complete and len(result.cycles) == loose_cycle_count(g.n, g.k)
    return Verdict(ok, ok)


def check_absent(result) -> Verdict:
    """Instances built to have no rainbow cycle must be reported absent."""
    if isinstance(result, BaseException):
        return Verdict(False, False)
    ok = result.status == "absent" and result.witness is None
    return Verdict(ok, ok)


WORKLOADS: dict[str, type] = {
    w.name: w for w in (SearchSmall, LargeStrict, OracleExhaustive)
}
