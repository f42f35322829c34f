"""Measuring one workload: the untraced run for end-to-end metrics and the
traced run for per-layer metrics.  Both check every op.

The host's CPU speed drifts by a quarter over minutes (process CPU time
drifts with it), which no run of a few seconds can average out.  So a
fixed reference computation is timed before every op, and each op's time
t is reported scaled to a host on which the reference takes exactly
``REFERENCE_S``: t * REFERENCE_S / r, where r is the median of the
reference readings around the op.  Set-up is scaled by readings taken
before and after it.  The raw wall-clock figures are reported alongside.
"""

import gc
import resource
import statistics
import time

from tracing import PER_LAYER, NullTracer, Tracer, install
from workloads import digest

REFERENCE_S = 0.001
SETUP_REFERENCES = 5
REFERENCE_WINDOW = 5


def reference_work() -> int:
    """A fixed mix of the tuple, sort, set and dict work the library does;
    about a millisecond."""
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for i in range(1000):
        key = tuple(sorted((i % 97, i % 13, i % 7)))
        counts[key] = counts.get(key, 0) + 1
        total += len(set(key) | {i % 5})
    return total


def reference_s(repeats: int = 1) -> float:
    """Seconds per reference computation, over ``repeats`` of them."""
    started = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - started) / repeats


def local_reference(refs: list[float], i: int) -> float:
    """The reference time around op i: the median of the readings within
    REFERENCE_WINDOW of it.  One reading is too noisy to divide by."""
    return statistics.median(refs[max(0, i + 1 - REFERENCE_WINDOW): i + 1 + REFERENCE_WINDOW])


def scaled(latencies: list[float], refs: list[float]) -> list[float]:
    """Each op's seconds on a host where the reference takes REFERENCE_S."""
    return [t * REFERENCE_S / local_reference(refs, i) for i, t in enumerate(latencies)]


def host_reference_s() -> float:
    return statistics.median(reference_s() for _ in range(SETUP_REFERENCES))


def scaled_setup(workload, seed: int, tracer) -> tuple[list, float]:
    """Build the inputs; returns them with the scaled set-up seconds."""
    before = host_reference_s()
    started = time.perf_counter()
    ops = workload.setup(seed, tracer)
    took = time.perf_counter() - started
    return ops, took * REFERENCE_S / statistics.mean((before, host_reference_s()))


def run_pass(workload, ops, tracer, references: list[float]) -> tuple[list[float], list]:
    """Run every op once; returns per-op seconds and raw results.  An op
    that raises is kept as its exception, for the check to judge.
    ``references`` gets a reference reading before each op and after the
    last; a reading lasts about a tenth of the op before it, so a long op
    is compared with a long stretch of the host's speed."""
    latencies, results = [], []
    repeats = 1
    for op_id, op in enumerate(ops, start=1):
        tracer.op_id = op_id
        references.append(reference_s(repeats))
        started = time.perf_counter()
        try:
            raw = workload.call(op)
        except Exception as exc:  # judged by the workload's check
            raw = exc
        latencies.append(time.perf_counter() - started)
        results.append(raw)
        repeats = 1 + int(latencies[-1] / (10 * REFERENCE_S))
    references.append(reference_s(repeats))
    return latencies, results


def judge(workload, ops, results) -> tuple[list, int, int, list[str]]:
    """Summaries for the digest, failed and found counts, failure labels."""
    records, failed, found, failures = [], 0, 0, []
    for op, raw in zip(ops, results):
        records.append(workload.summarize(op, raw))
        verdict = workload.check(op, raw)
        found += verdict.found
        if not verdict.ok:
            failed += 1
            failures.append(f"{op.label}: {records[-1]}")
    return records, failed, found, failures


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: set-up several times, then whole passes over the
    fixed op list, at least ``workload.min_passes`` and more while another
    pass fits in ``seconds``.  Times are scaled by the reference readings
    next to them; each op's time is its median over the passes."""
    null = NullTracer()
    setups, ops = [], None
    for _ in range(workload.setup_repeats):
        ops = None  # release the previous copy before building the next
        ops, setup_s = scaled_setup(workload, seed, null)
        setups.append(setup_s)
    # The inputs of a whole pass are far more objects than one caller holds;
    # keep the cyclic collector from rescanning them during every op.
    gc.freeze()

    passes, raw_passes, references, digests, failures = [], [], [], [], []
    failed = found = 0
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        refs: list[float] = []
        latencies, results = run_pass(workload, ops, null, refs)
        records, pass_failed, pass_found, pass_failures = judge(workload, ops, results)
        raw_passes.append(latencies)
        passes.append(scaled(latencies, refs))
        references += refs
        digests.append(digest(records))
        failed += pass_failed
        found += pass_found
        failures += pass_failures
        last = time.perf_counter() - pass_started
        if len(passes) >= workload.min_passes and time.perf_counter() - started + last > seconds:
            break

    per_op = [statistics.median(times) for times in zip(*passes)]
    p50, p90 = (statistics.quantiles(per_op, n=10, method="inclusive")[i] for i in (4, 8))
    raw_per_op = [statistics.median(times) for times in zip(*raw_passes)]
    attempted = len(ops) * len(passes)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digests[0],
        "deterministic": len(set(digests)) == 1,
        "passes": len(passes),
        "op_samples": len(per_op),
        "beyond_p90": sum(1 for x in per_op if x > p90),
        "host_speed": REFERENCE_S / statistics.median(references),
        "raw_ops_per_s": len(raw_per_op) / sum(raw_per_op),
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
            "op_p50_ms": (1000 * p50, "ms"),
            "op_p90_ms": (1000 * p90, "ms"),
            "found_ratio": (found / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def setup_and_pass(workload, seed: int, tracer) -> tuple[list, list, float, float]:
    """Set-up and one pass; returns ops, raw results, the scaled seconds of
    both, and the pass's scale factor (scaled over raw op seconds)."""
    ops, setup_s = scaled_setup(workload, seed, tracer)
    gc.freeze()
    refs: list[float] = []
    latencies, results = run_pass(workload, ops, tracer, refs)
    pass_s = sum(scaled(latencies, refs))
    return ops, results, setup_s + pass_s, pass_s / sum(latencies)


def traced(workload, seed: int) -> dict:
    """One untraced set-up and pass, then both again under the tracer.
    Both passes must give the same digest; per-layer counts are for one
    pass, so they repeat exactly for the same seed.  Times are scaled by
    the reference like the untraced run's; self times by their pass's
    overall factor."""
    ops, results, untraced_s, _ = setup_and_pass(workload, seed, NullTracer())
    plain_records, plain_failed, _, plain_failures = judge(workload, ops, results)
    ops = results = None  # release the first copy before building the second

    tracer = Tracer()
    restore = install(tracer)
    try:
        ops, results, traced_s, scale = setup_and_pass(workload, seed, tracer)
    finally:
        restore()
    records, failed, _, failures = judge(workload, ops, results)

    stats = {name: value * scale if name.endswith("self_s") else value
             for name, value in tracer.layer_stats().items()}
    stats.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                  "trace.overhead_s": traced_s - untraced_s})
    return {
        "attempted": 2 * len(ops),
        "failed": plain_failed + failed,
        "failures": plain_failures + failures,
        "digest": digest(records),
        "deterministic": digest(records) == digest(plain_records),
        "unlisted": sorted(set(tracer.counts) - set(PER_LAYER)),
        "metrics": {name: (stats.get(name, 0), unit) for name, unit in PER_LAYER.items()},
    }
