"""Tests of the benchmark itself: its checkers must catch bad outputs, each
workload must run clean at a tiny size, and the traced run must agree with
the untraced one.  Run with ``python3 -m pytest bench`` from the root of a
source checkout."""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from loosehc.colouring import Colouring  # noqa: E402
from loosehc.cycles import LooseCycle  # noqa: E402
from loosehc.hypergraph import InvalidInput  # noqa: E402
from loosehc.oracles import RainbowSearchResult  # noqa: E402
from loosehc.sampler import BudgetExhausted  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, LargeStrict, OracleExhaustive, SearchSmall, loose_cycle_count,
)

TINY = {
    "search-small": lambda: SearchSmall(sizes=(24,), mus=(0.1,), colourings=2, searches=2),
    "large-strict": lambda: LargeStrict(n=60, rounds=1, sample_budget=2),
    "oracle-exhaustive": lambda: OracleExhaustive(
        enumerations=1, loose=1, tight_sizes=(9,), tight_each=1),
}


def judged(workload, op, raw) -> int:
    """Failed-op count of one op with the given output."""
    return harness.judge(workload, [op], [raw])[1]


def first_op(workload, kind=None):
    ops = workload.setup(7, tracing.NullTracer())
    return next(op for op in ops if kind is None or op.kind == kind)


def test_corrupted_cycle_counts_as_failed():
    workload = TINY["search-small"]()
    op = first_op(workload)
    result = workload.call(op)
    assert judged(workload, op, result) == 0
    assert result.success
    # Two vertices dropped: no longer a Hamilton cycle of the host.
    short = LooseCycle(result.cycle.vertices[:-2], 3)
    assert judged(workload, op, dataclasses.replace(result, cycle=short)) == 1
    # A reported success must be rainbow under the op's colouring.
    g, chi = op.args[0], op.args[1]
    constant = Colouring.constant(g)
    recoloured = dataclasses.replace(op, args=(g, constant, *op.args[2:]))
    assert judged(workload, recoloured, result) == 1
    assert judged(workload, recoloured, dataclasses.replace(result, success=False)) == 0


def test_wrong_enumeration_count_counts_as_failed():
    workload = TINY["oracle-exhaustive"]()
    op = first_op(workload, "enumerate")
    result = workload.call(op)
    assert len(result.cycles) == loose_cycle_count(8, 3) == 5040
    assert judged(workload, op, result) == 0
    assert judged(workload, op, dataclasses.replace(result, cycles=result.cycles[:-1])) == 1
    assert judged(workload, op, dataclasses.replace(result, complete=False)) == 1


def test_found_on_absent_instance_counts_as_failed():
    workload = TINY["oracle-exhaustive"]()
    for kind in ("rainbow-loose", "rainbow-tight"):
        op = first_op(workload, kind)
        assert judged(workload, op, workload.call(op)) == 0
        assert judged(workload, op, RainbowSearchResult("found")) == 1
        assert judged(workload, op, RainbowSearchResult("unknown")) == 1


def test_switching_outcomes():
    workload = TINY["large-strict"]()
    op = first_op(workload)
    assert judged(workload, op, None) == 0
    gate = BudgetExhausted("transverse-partition", "relative-degree can never hold")
    assert judged(workload, op, gate) == 0
    assert judged(workload, op, InvalidInput("relative-degree: 1.125 > 1 at m = 3")) == 0
    # A refusal must name the gate, not merely mention one in passing.
    assert judged(workload, op, BudgetExhausted("aggregate", "no relative-degree gate")) == 1
    assert judged(workload, op, InvalidInput("the relative-degree gate failed")) == 1
    assert judged(workload, op, RuntimeError("boom")) == 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_untraced_and_traced(name):
    workload = TINY[name]()
    workload.min_passes = 2
    plain = harness.measure(workload, seed=3, seconds=0)
    assert plain["failed"] == 0 and plain["deterministic"], plain["failures"]
    assert plain["passes"] == 2
    assert all(value > 0 for value, _ in plain["metrics"].values())

    traced = harness.traced(TINY[name](), seed=3)
    assert traced["failed"] == 0 and traced["deterministic"], traced["failures"]
    assert traced["digest"] == plain["digest"]
    assert set(traced["metrics"]) == set(tracing.PER_LAYER)
    assert traced["unlisted"] == []


def test_tracer_restores_the_library():
    import loosehc.sampler as sampler
    import loosehc.switchbuild as switchbuild

    before = (sampler.find_hamilton_dicycle, switchbuild.sample_switching,
              LooseCycle.__dict__["__init__"])
    restore = tracing.install(tracing.Tracer())
    try:
        assert sampler.find_hamilton_dicycle is not before[0]
        assert isinstance(LooseCycle((0, 1, 2, 3, 4, 5), 3), LooseCycle)
    finally:
        restore()
    after = (sampler.find_hamilton_dicycle, switchbuild.sample_switching,
             LooseCycle.__dict__["__init__"])
    assert after == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    stats = tracer.layer_stats()
    total = tracer.end[0] - tracer.start[0]
    assert stats["outer.calls"] == stats["inner.calls"] == 1
    assert stats["outer.self_s"] + stats["inner.self_s"] == pytest.approx(total)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    plain = harness.measure(TINY["oracle-exhaustive"](), seed=1, seconds=0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in plain["metrics"].items()
    }
