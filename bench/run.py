"""loosehc benchmark: one workload per process, every op checked.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload search-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see README.md).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it reports the workload's output digest and failed_ratio.
``--workload all`` runs each workload in a fresh process, one after the
other, and prints a table.

The library is imported from ``src/`` next to this directory, never from an
installed copy; without that source tree the benchmark exits with code 2.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("search-small", "large-strict", "oracle-exhaustive")


def run_one(args) -> int:
    if not (SRC / "loosehc" / "__init__.py").is_file():
        print(f"error: no loosehc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import loosehc

    if Path(loosehc.__file__).resolve().parent != SRC / "loosehc":
        print(f"error: imported loosehc from {loosehc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Imported only now: the harness imports loosehc from the checked tree.
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = harness.traced(workload, args.seed)
    else:
        result = harness.measure(workload, args.seed, args.seconds)
    for line in result["failures"][:20]:
        print(f"failed op: {line}", file=sys.stderr)
    report = {key: value for key, value in result.items()
              if key not in ("metrics", "failures", "attempted", "failed")}
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failed_ratio=result["failed"] / result["attempted"])
    print(json.dumps(report, sort_keys=True))
    correct = result["failed"] == 0 and result["deterministic"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak RSS are its own."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, "-B", __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        summary[name] = result
        print(f"{name}  digest {report['digest']}  correct {result['correct']}  "
              f"attempted {result['attempted']}  failed {result['failed']}")
        print(f"  {'failed_ratio':<48} {report['failed_ratio']:>14.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
