"""Spans and counters recorded from outside the library.

The tracer wraps the public functions of each loosehc module in place, in
every module namespace that bound them with ``from ... import``, so calls
between library modules are seen too.  ``LooseCycle`` keeps its class: only
its ``__init__`` is wrapped, so ``isinstance`` still holds.  Counts are read
from the values the library returns or raises, never from its internals.

A span records its name, start, end, parent span and op id, and stays in
memory until the run ends.  A layer's self time is its spans' duration
minus the part covered by their child spans; spans of one thread nest, so
that part is the sum of the direct children's durations.
"""

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext

from loosehc.sampler import BudgetExhausted

# Tiling stages named by ``TilingInfeasible.stage``; the switching builder
# prefixes them with the part as ``part-h:stage``.  With t = m~ = 1 and
# k = 3 there are three parts.
TILING_STAGES = ("divisibility", "reservoirs", "claim-partition", "repair", "ham-path")
PARTS = 3
# ``AcceptanceResult.reasons``: the two shape checks, then the five events.
REJECT_REASONS = (
    "size", "invalid-splitting", "heavy-colour-set", "spread-colour-pair",
    "almost-spread-colour-pair", "low-sample-degree", "close-paths",
)

# (module, attribute, metric prefix).  A dotted attribute is a method of a
# class in that module.
TARGETS = (
    ("hypergraph", "Hypergraph.complete", "hypergraph.complete"),
    ("colouring", "is_rainbow", "colouring.is_rainbow"),
    ("cycles", "LooseCycle.__init__", "cycles.LooseCycle"),
    ("cycles", "validate_loose_cycle", "cycles.validate_loose_cycle"),
    ("splitting", "validate_splitting", "splitting.validate_splitting"),
    ("splitting", "is_switching", "splitting.is_switching"),
    ("splitting", "is_feasible", "splitting.is_feasible"),
    ("splitting", "is_suitable", "splitting.is_suitable"),
    ("tiling", "build_path_tiling", "tiling.build_path_tiling"),
    ("switchbuild", "sample_switching", "switchbuild.sample_switching"),
    ("switchbuild", "build_feasible_switching", "switchbuild.build_feasible_switching"),
    ("sampler", "partition_conditions", "sampler.partition_conditions"),
    ("sampler", "sample_transverse_partition", "sampler.sample_transverse_partition"),
    ("sampler", "sample_splitting", "sampler.sample_splitting"),
    ("sampler", "accept_suitable", "sampler.accept_suitable"),
    ("sampler", "check_events", "sampler.check_events"),
    ("sampler", "build_aux_digraph", "sampler.build_aux_digraph"),
    ("sampler", "build_viable_partition", "sampler.build_viable_partition"),
    ("oracles", "enumerate_loose_hamilton_cycles", "oracles.enumerate_loose_hamilton_cycles"),
    ("oracles", "exists_rainbow_loose_hc", "oracles.exists_rainbow_loose_hc"),
    ("oracles", "exists_rainbow_tight_hc", "oracles.exists_rainbow_tight_hc"),
    ("oracles", "find_loose_hamilton_path", "oracles.find_loose_hamilton_path"),
    ("oracles", "find_hamilton_dicycle", "oracles.find_hamilton_dicycle"),
    ("oracles", "uniform_random_hamilton_cycle", "oracles.uniform_random_hamilton_cycle"),
    ("search", "find_rainbow_hamilton_cycle", "search.find_rainbow_hamilton_cycle"),
    ("search", "find_conflicts", "search.find_conflicts"),
    ("rng", "stream", "rng.stream"),
)


def _timed(prefix: str) -> list[str]:
    return [f"{prefix}.calls", f"{prefix}.self_s"]


# Every per-layer metric a traced run reports, with its unit.  Spans opened
# by the benchmark's own set-up code: hypergraph.index (first access of
# edge_set and by_vertex) and colouring.build.
PER_LAYER: dict[str, str] = {
    name: ("s" if name.endswith("_s") else "ratio" if name.endswith("_yield") else "count")
    for name in [
        "hypergraph.complete.self_s", "hypergraph.index.self_s", "hypergraph.edges",
        "colouring.build.self_s", *_timed("colouring.is_rainbow"),
        *_timed("cycles.LooseCycle"), *_timed("cycles.validate_loose_cycle"),
        *_timed("splitting.validate_splitting"), *_timed("splitting.is_switching"),
        *_timed("splitting.is_feasible"), *_timed("splitting.is_suitable"),
        *_timed("tiling.build_path_tiling"),
        *(f"tiling.infeasible.{s}" for s in TILING_STAGES),
        *_timed("switchbuild.sample_switching"), "switchbuild.sample_switching.none",
        *_timed("switchbuild.build_feasible_switching"),
        "switchbuild.build_feasible_switching.ok",
        *(f"switchbuild.infeasible.part-{h}.{s}" for h in range(PARTS) for s in TILING_STAGES),
        "switchbuild.build_yield",
        *_timed("sampler.partition_conditions"),
        *_timed("sampler.sample_transverse_partition"),
        "sampler.sample_transverse_partition.budget_exhausted",
        *_timed("sampler.sample_splitting"),
        *_timed("sampler.accept_suitable"), "sampler.accept_suitable.accepted",
        *_timed("sampler.check_events"),
        *(f"sampler.reject.{r}" for r in REJECT_REASONS),
        *_timed("sampler.build_aux_digraph"), *_timed("sampler.build_viable_partition"),
        *_timed("oracles.enumerate_loose_hamilton_cycles"),
        "oracles.enumerate_loose_hamilton_cycles.nodes",
        *_timed("oracles.exists_rainbow_loose_hc"), *_timed("oracles.exists_rainbow_tight_hc"),
        *_timed("oracles.find_loose_hamilton_path"), "oracles.find_loose_hamilton_path.absent",
        *_timed("oracles.find_hamilton_dicycle"), "oracles.find_hamilton_dicycle.none",
        *_timed("oracles.uniform_random_hamilton_cycle"),
        *_timed("search.find_rainbow_hamilton_cycle"), *_timed("search.find_conflicts"),
        "search.steps", "search.switch_steps", "search.restarts",
        *_timed("rng.stream"),
        "trace.untraced_s", "trace.traced_s", "trace.overhead_s",
    ]
}


class NullTracer:
    """The untraced run: spans and counts cost nothing."""

    op_id = 0

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, by: int = 1) -> None:
        pass


class Tracer:
    """In-memory spans in flat arrays, plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._open: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] += by

    def layer_stats(self) -> dict[str, float]:
        """calls and self_s for every span name, plus the counters."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        stats: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += self.end[i] - self.start[i] - covered[i]
        stats.update(self.counts)
        built = stats["switchbuild.build_feasible_switching.calls"]
        stats["switchbuild.build_yield"] = (
            stats["switchbuild.build_feasible_switching.ok"] / built if built else 0.0
        )
        return dict(stats)


def _reasons(tracer: Tracer, result) -> None:
    if result.accepted:
        tracer.count("sampler.accept_suitable.accepted")
    for reason in result.reasons:
        tracer.count(f"sampler.reject.{reason.split(':')[0]}")


def _search(tracer: Tracer, result) -> None:
    tracer.count("search.steps", result.steps)
    tracer.count("search.restarts", result.restarts)
    tracer.count(
        "search.switch_steps",
        sum(1 for step in result.log.steps if step.get("action") == "switch"),
    )


def _if_none(counter: str):
    def hook(tracer: Tracer, result) -> None:
        if result is None:
            tracer.count(counter)
    return hook


def _stage(prefix: str):
    """Count an exception by the stage it names (``part-h:stage`` becomes
    ``part-h.stage``: a metric name has no colons)."""
    def hook(tracer: Tracer, exc: BaseException) -> None:
        stage = getattr(exc, "stage", None)
        if stage is not None:
            tracer.count(f"{prefix}.{stage.replace(':', '.')}")
    return hook


def _nodes(tracer: Tracer, result) -> None:
    tracer.count("oracles.enumerate_loose_hamilton_cycles.nodes", result.nodes)


def _built(tracer: Tracer, result) -> None:
    tracer.count("switchbuild.build_feasible_switching.ok")


def _budget(tracer: Tracer, exc: BaseException) -> None:
    if isinstance(exc, BudgetExhausted):
        tracer.count("sampler.sample_transverse_partition.budget_exhausted")


# metric prefix -> (hook on the returned value, hook on a raised exception)
HOOKS = {
    "sampler.accept_suitable": (_reasons, None),
    "sampler.sample_transverse_partition": (None, _budget),
    "switchbuild.sample_switching": (_if_none("switchbuild.sample_switching.none"), None),
    "switchbuild.build_feasible_switching": (_built, _stage("switchbuild.infeasible")),
    "tiling.build_path_tiling": (None, _stage("tiling.infeasible")),
    "oracles.enumerate_loose_hamilton_cycles": (_nodes, None),
    "oracles.find_loose_hamilton_path": (
        _if_none("oracles.find_loose_hamilton_path.absent"), None),
    "oracles.find_hamilton_dicycle": (_if_none("oracles.find_hamilton_dicycle.none"), None),
    "search.find_rainbow_hamilton_cycle": (_search, None),
}


def _wrap(tracer: Tracer, name: str, fn):
    on_result, on_error = HOOKS.get(name, (None, None))

    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index)
            if on_error is not None:
                on_error(tracer, exc)
            raise
        tracer.close(index)
        if on_result is not None:
            on_result(tracer, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    modules = [module for key, module in sys.modules.items()
               if key == "loosehc" or key.startswith("loosehc.")]
    undo: list[tuple[object, str, object]] = []
    for module_name, attr, name in TARGETS:
        module = sys.modules[f"loosehc.{module_name}"]
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            if isinstance(original, classmethod):
                replacement = classmethod(_wrap(tracer, name, original.__func__))
            else:
                replacement = _wrap(tracer, name, original)
            undo.append((owner, method, original))
            setattr(owner, method, replacement)
            continue
        original = getattr(module, attr)
        replacement = _wrap(tracer, name, original)
        for bound in modules:
            for key, value in list(vars(bound).items()):
                if value is original:
                    undo.append((bound, key, original))
                    setattr(bound, key, replacement)

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore
