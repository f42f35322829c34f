"""Command-line interface.

Machine-readable reports go to stdout as JSON lines; the human summary and
the run manifest go to stderr.  Identical inputs, flags and seed produce
byte-identical stdout (timings appear only with --timings, and only on
stderr-side records otherwise).

Exit codes: 0 success, 1 definitive negative result, 2 invalid input,
3 budget exhaustion or a search that did not settle its question.
"""

import argparse
import json
import os
import platform
import sys
import time
from math import comb
from pathlib import Path

from . import __version__
from .colouring import (
    Colouring,
    check_global_bound,
    format_colouring,
    is_rainbow,
    parse_colouring,
)
from .cycles import (
    LooseCycle,
    LoosePath,
    Violation,
    format_vertex_line,
    parse_vertex_line,
    validate_loose_cycle,
)
from .graphs import PairGraph
from .hypergraph import (
    FormatError,
    Hypergraph,
    InvalidInput,
    Parameters,
    PipelineConfig,
    data_lines,
    format_hypergraph,
    min_j_degree,
    parse_hypergraph,
)
from .oracles import (
    EnumerationBudget,
    count_loose_hamilton_cycles,
    enumerate_loose_hamilton_cycles,
    exists_rainbow_loose_hc,
    exists_rainbow_tight_hc,
    find_loose_hamilton_path,
)
from .sampler import (
    accept_suitable,
    check_events,
    estimate_suitable_fraction,
    sample_splitting,
)
from .search import find_rainbow_hamilton_cycle
from .splitting import (
    Splitting,
    TransversePartition,
    partition_is_transverse,
    search_quota_rerouting,
    validate_splitting,
)
from .switchbuild import build_feasible_switching, sample_switching
from .tiling import TilingInfeasible, TilingRequest, build_path_tiling, validate_path_tiling
from . import constructions

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

# Parameters.mu and .gamma: flags on the parameter subcommands, fixed for tile.
DEFAULT_MU = 0.05
DEFAULT_GAMMA = 0.01


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def human(message: str) -> None:
    sys.stderr.write(message + "\n")


def _load_graph(path: str) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text())


def _load_colouring(path: str, g: Hypergraph) -> Colouring:
    return parse_colouring(Path(path).read_text(), g)


def _load_cycle(path: str, g: Hypergraph) -> LooseCycle:
    ordering = parse_vertex_line(Path(path).read_text())
    result = validate_loose_cycle(g, ordering)
    if isinstance(result, Violation):
        raise InvalidInput(f"cycle file {path}: {result}")
    return result


def _load_vertex_lines(path: str) -> list[tuple[int, ...]]:
    return [row for _, row in data_lines(Path(path).read_text())]


def _load_pairs(path: str) -> list[tuple[int, ...]]:
    rows = []
    for lineno, row in data_lines(Path(path).read_text()):
        if len(row) != 2:
            raise FormatError(lineno, f"expected two vertices, got {len(row)}")
        rows.append(row)
    return rows


def _path_spec(spec: str, k: int) -> LoosePath:
    text = Path(spec[1:]).read_text() if spec.startswith("@") else spec
    return LoosePath(parse_vertex_line(text), k)


def _params_from_args(args, k: int) -> Parameters:
    params = Parameters(
        k=k, j=args.j, path_len=args.t, pairs_per_part=args.mtilde,
        epsilon=args.epsilon, mu=args.mu, gamma=args.gamma, beta=args.beta,
        threshold=args.threshold,
    )
    if getattr(args, "m", None) is not None and args.m != params.split_size:
        raise InvalidInput(
            f"--m {args.m} disagrees with t={args.t}, mtilde={args.mtilde} "
            f"(split size {params.split_size})"
        )
    return params


def _note_hypotheses(args, g: Hypergraph, chi: Colouring, params: Parameters) -> None:
    """Record for the manifest whether the input meets the theorem's
    hypotheses: a colouring whose classes hold at most mu*n^(k-1) edges, and
    a host whose minimum j-degree is at least (threshold + gamma)*C(n-j, k-j)."""
    degree = min_j_degree(g, params.j)
    needed = (params.threshold + params.gamma) * comb(g.n - params.j, g.k - params.j)
    args.hypotheses = {
        "global_bound": check_global_bound(chi, params.mu, g.n, g.k),
        "min_j_degree": degree,
        "j_degree_needed": needed,
        "above_threshold": degree >= needed,
    }


def _load_anchored(args) -> tuple[Hypergraph, Colouring, LooseCycle, LoosePath, Parameters]:
    """The host, colouring, cycle, anchor and parameters of sample, estimate
    and switch, loaded in that order, with the hypotheses noted."""
    g = _load_graph(args.hg)
    chi = _load_colouring(args.col, g)
    cycle = _load_cycle(args.cycle, g)
    anchor = _path_spec(args.p0, g.k)
    params = _params_from_args(args, g.k)
    _note_hypotheses(args, g, chi, params)
    return g, chi, cycle, anchor, params


def _add_parameter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=int, required=True, help="anchored path length")
    p.add_argument("--mtilde", type=int, required=True, help="rerouting pairs per part")
    p.add_argument("--m", type=int, help="splitting size (checked against t, mtilde)")
    p.add_argument("--j", type=int, default=1, help="degree type")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--mu", type=float, default=DEFAULT_MU)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.0,
                   help="stand-in for the degree threshold constant")


def cmd_enumerate(args) -> int:
    g = _load_graph(args.hg)
    budget = EnumerationBudget(args.node_limit, args.time_limit)
    # Without --witness nothing needs the cycles, so none is kept.
    if args.witness:
        result = enumerate_loose_hamilton_cycles(g, budget)
        count, complete = len(result.cycles), result.complete
    else:
        count, complete = count_loose_hamilton_cycles(g, budget)
    emit({"type": "enumeration", "count": count, "complete": complete, "n": g.n, "k": g.k})
    if args.witness:
        Path(args.witness).write_text(
            "".join(format_vertex_line(c.vertices) + "\n" for c in result.cycles)
        )
    human(f"{count} loose Hamilton cycles"
          + ("" if complete else " (budget exceeded, partial)"))
    return EXIT_OK if complete else EXIT_BUDGET


def cmd_rainbow_exists(args) -> int:
    g = _load_graph(args.hg)
    chi = _load_colouring(args.col, g)
    if args.tight:
        result = exists_rainbow_tight_hc(g, chi)
    else:
        budget = EnumerationBudget(args.node_limit, args.time_limit)
        result = exists_rainbow_loose_hc(g, chi, budget)
    record = {"type": "rainbow-exists", "mode": "tight" if args.tight else "loose",
              "status": result.status}
    if result.witness is not None:
        record["witness"] = list(result.witness.vertices)
    emit(record)
    human(f"rainbow {'tight' if args.tight else 'loose'} Hamilton cycle: {result.status}")
    return {"found": EXIT_OK, "absent": EXIT_NEGATIVE, "unknown": EXIT_BUDGET}[result.status]


def cmd_ham_path(args) -> int:
    g = _load_graph(args.hg)
    forbidden = PairGraph.from_pairs(_load_pairs(args.forbid)) if args.forbid else PairGraph.empty()
    path = find_loose_hamilton_path(g, args.a, args.b, forbidden)
    if path is None:
        emit({"type": "ham-path", "status": "absent"})
        human("no spanning loose path")
        return EXIT_NEGATIVE
    emit({"type": "ham-path", "status": "found", "path": list(path.vertices)})
    human(f"path: {format_vertex_line(path.vertices)}")
    return EXIT_OK


def cmd_sample(args) -> int:
    g, chi, cycle, anchor, params = _load_anchored(args)
    accepted = 0
    for trial in range(args.trials):
        started = time.monotonic()
        sample = sample_splitting(
            cycle, anchor, params.split_size, params.path_len, args.seed, trial
        )
        outcome = accept_suitable(sample, g, chi, params)
        events = outcome.events or check_events(
            sample, g, chi, epsilon=params.epsilon, path_count=params.split_size,
            j=params.j, threshold=params.threshold,
        )
        record = {
            "type": "sample-trial", "trial": trial,
            "sampled_edges": len(sample.sampled_positions),
            "accepted": outcome.accepted,
            "reasons": outcome.reasons,
            "events": dict(events.flags),
        }
        if args.timings:
            record["elapsed_ms"] = round(1000 * (time.monotonic() - started), 3)
        emit(record)
        accepted += outcome.accepted
    human(f"{accepted}/{args.trials} trials accepted")
    return EXIT_OK


def cmd_estimate(args) -> int:
    g, chi, cycle, anchor, params = _load_anchored(args)
    estimate = estimate_suitable_fraction(
        g, chi, cycle, anchor, params, args.trials,
        PipelineConfig(seed=args.seed, partition_budget=200, structural=not args.strict),
        jobs=args.jobs,
    )
    for record in estimate.records:
        emit({"type": "estimate-trial", **record})
    emit({
        "type": "estimate", "trials": estimate.trials,
        "successes": estimate.successes, "rate": estimate.rate,
        "wilson95": list(estimate.interval),
    })
    human(f"rate {estimate.rate:.4f} "
          f"[{estimate.interval[0]:.4f}, {estimate.interval[1]:.4f}] over {estimate.trials} trials")
    return EXIT_OK


def cmd_tile(args) -> int:
    g = _load_graph(args.hg)
    if args.k is not None and args.k != g.k:
        raise InvalidInput(f"--k {args.k} disagrees with the file's uniformity {g.k}")
    pairs = tuple(tuple(sorted(p)) for p in _load_pairs(args.pairs))
    conflicts = PairGraph.from_pairs(_load_pairs(args.conflicts)) if args.conflicts else PairGraph.empty()
    request = TilingRequest(g, pairs, conflicts, args.t)
    params = Parameters(
        k=g.k, j=args.j, path_len=args.t, pairs_per_part=len(pairs),
        epsilon=args.epsilon, mu=DEFAULT_MU, gamma=DEFAULT_GAMMA, beta=args.beta,
        threshold=args.threshold,
    )
    config = PipelineConfig(
        seed=args.seed, claim_budget=args.claim_budget,
        structural=False if args.strict else None,
    )
    try:
        tiling = build_path_tiling(request, params, config)
    except TilingInfeasible as exc:
        emit({"type": "tiling", "status": "infeasible", "stage": exc.stage,
              "detail": exc.detail})
        human(f"infeasible at stage {exc.stage}: {exc.detail}")
        return EXIT_NEGATIVE
    report = validate_path_tiling(request, tiling)
    emit({
        "type": "tiling", "status": "ok",
        "paths": [list(p.vertices) for p in tiling.paths],
        "valid": report.ok,
        "conditions": report.conditions,
    })
    human(f"tiled {g.n} vertices into {len(tiling.paths)} paths; valid={report.ok}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _switching_record(result) -> dict:
    sw = result.switching
    return {
        "type": "switching",
        "status": "ok",
        "new_cycle": list(sw.new_cycle.vertices),
        "new_paths": [list(p.vertices) for p in sw.new_splitting.paths],
        "is_switching": result.switching_report.conditions,
        "is_feasible": result.feasibility.conditions,
        "feasible": result.feasibility.ok,
    }


def cmd_switch(args) -> int:
    g, chi, cycle, anchor, params = _load_anchored(args)
    if args.sample:
        result = sample_switching(
            g, chi, cycle, anchor, params,
            PipelineConfig(seed=args.seed, require_events=args.strict),
        )
        if result is None:
            emit({"type": "switching", "status": "budget-exhausted"})
            human("no switching found within budget")
            return EXIT_BUDGET
    else:
        if not args.splitting or not args.partition:
            raise InvalidInput("either --sample or both --splitting and --partition")
        if args.strict:
            raise InvalidInput("--strict gates sampled splittings; it needs --sample")
        paths = [LoosePath(row, g.k) for row in _load_vertex_lines(args.splitting)]
        checked = validate_splitting(cycle, paths, "balanced", params.path_len)
        if isinstance(checked, Violation):
            raise InvalidInput(f"splitting file: {checked}")
        # search_quota_rerouting's dicycle shortcut needs the paths in cyclic
        # order, so the file's line order must not decide the answer.  Path 0,
        # the anchor, stays first; violations above name the file's lines.
        runs, c = checked.runs, cycle.edge_count
        order = sorted(range(1, checked.size), key=lambda i: (runs[i][0] - runs[0][0]) % c)
        checked = Splitting(cycle, (checked.paths[0], *(checked.paths[i] for i in order)))
        partition = TransversePartition(
            tuple(frozenset(row) for row in _load_vertex_lines(args.partition))
        )
        if not partition_is_transverse(checked, partition):
            raise InvalidInput("partition file is not transverse for the splitting")
        rerouting = search_quota_rerouting(checked, partition, params.pairs_per_part)
        if rerouting == "incomplete":
            emit({"type": "switching", "status": "incomplete"})
            human("the rerouting search did not settle the per-part quota")
            return EXIT_BUDGET
        if rerouting is None:
            emit({"type": "switching", "status": "no-rerouting"})
            human("no rerouting meets the per-part quota")
            return EXIT_NEGATIVE
        try:
            result = build_feasible_switching(
                cycle, anchor, checked, partition, rerouting, g, chi, params,
                PipelineConfig(seed=args.seed),
            )
        except TilingInfeasible as exc:
            emit({"type": "switching", "status": "infeasible", "stage": exc.stage})
            human(f"infeasible at {exc.stage}")
            return EXIT_NEGATIVE
    emit(_switching_record(result))
    human(f"switching built; feasible={result.feasibility.ok}")
    return EXIT_OK if result.feasibility.ok else EXIT_NEGATIVE


def cmd_construct(args) -> int:
    if args.what == "tight-cx":
        g, chi = constructions.tight_counterexample(args.n)
    else:
        chi = constructions.first_prefix_colouring(args.n, args.k)
        g = chi.graph
    Path(args.out + ".hg").write_text(format_hypergraph(g))
    Path(args.out + ".col").write_text(format_colouring(chi))
    emit({
        "type": "construct", "what": args.what, "n": g.n, "k": g.k,
        "edges": len(g.edges), "colours": len(chi.class_sizes),
        "max_class": max(chi.class_sizes.values()),
        "files": [args.out + ".hg", args.out + ".col"],
    })
    human(f"wrote {args.out}.hg and {args.out}.col")
    return EXIT_OK


def cmd_search(args) -> int:
    g = _load_graph(args.hg)
    chi = _load_colouring(args.col, g)
    params = _params_from_args(args, g.k)
    _note_hypotheses(args, g, chi, params)
    start = _load_cycle(args.start, g) if args.start else None
    result = find_rainbow_hamilton_cycle(
        g, chi, params, seed=args.seed, max_steps=args.max_steps, start=start
    )
    status = "found" if result.success else "absent" if result.absent else "budget-exhausted"
    emit({
        "type": "search",
        "status": status,
        "steps": result.steps, "restarts": result.restarts,
        "cycle": list(result.cycle.vertices),
        "remaining_conflicts": result.conflicts,
    })
    if result.absent:
        human(f"no rainbow cycle exists: fewer colours than the cycle's "
              f"{result.cycle.edge_count} edges")
    else:
        human(("rainbow cycle found" if result.success else "no rainbow cycle")
              + f" after {result.steps} steps ({result.restarts} restarts)")
    return {"found": EXIT_OK, "absent": EXIT_NEGATIVE, "budget-exhausted": EXIT_BUDGET}[status]


def cmd_verify(args) -> int:
    g = _load_graph(args.hg)
    chi = _load_colouring(args.col, g)
    ordering = parse_vertex_line(Path(args.cycle).read_text())
    checked = validate_loose_cycle(g, ordering)
    if isinstance(checked, Violation):
        emit({"type": "verify", "status": "invalid-cycle", "violation": str(checked)})
        human(f"not a loose Hamilton cycle: {checked}")
        return EXIT_NEGATIVE
    rainbow = is_rainbow(chi, checked.edge_sequence)
    emit({"type": "verify", "status": "rainbow" if rainbow else "not-rainbow"})
    human("rainbow" if rainbow else "valid cycle but not rainbow")
    return EXIT_OK if rainbow else EXIT_NEGATIVE


def _add_anchored_command(sub, name: str, summary: str, handler, own_flags) -> None:
    """A subcommand that loads its inputs through _load_anchored: the shared
    input flags, then its own flags, then the parameter flags."""
    p = sub.add_parser(name, help=summary)
    for flag in ("--hg", "--col", "--cycle"):
        p.add_argument(flag, required=True)
    p.add_argument("--p0", required=True, help='anchor path, e.g. "0 1 2" or @file')
    p.add_argument("--seed", type=int, required=True)
    for flag, options in own_flags:
        p.add_argument(flag, **options)
    _add_parameter_flags(p)
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loosehc",
        description="Loose Hamilton cycles: rainbow search, switchings, "
                    "path tilings and exhaustive oracles.",
    )
    parser.add_argument("--manifest", help="also write the run manifest to this file")
    parser.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1),
                        help="worker processes where supported (estimate); "
                             "results are merged deterministically")
    parser.add_argument("--timings", action="store_true",
                        help="include timing fields in stdout records")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate loose Hamilton cycles")
    p.add_argument("--hg", required=True)
    p.add_argument("--node-limit", type=int, default=50_000_000)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--witness", help="write one cycle per line to this file")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("rainbow-exists", help="decide rainbow Hamilton cycle existence")
    p.add_argument("--hg", required=True)
    p.add_argument("--col", required=True)
    p.add_argument("--tight", action="store_true", help="tight cycles (k = 3)")
    p.add_argument("--node-limit", type=int, default=50_000_000)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.set_defaults(handler=cmd_rainbow_exists)

    p = sub.add_parser("ham-path", help="spanning loose path between two vertices")
    p.add_argument("--hg", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--forbid", help="file of vertex pairs no edge may contain")
    p.set_defaults(handler=cmd_ham_path)

    _add_anchored_command(sub, "sample", "sample splittings and check the events", cmd_sample, (
        ("--trials", dict(type=int, default=1)),
    ))
    _add_anchored_command(sub, "estimate", "Monte-Carlo suitable+viable fraction", cmd_estimate, (
        ("--trials", dict(type=int, required=True)),
        ("--strict", dict(action="store_true",
                          help="gate partitions on all conditions, not just the quota")),
    ))

    p = sub.add_parser("tile", help="cover a graph by paths with given endpoints")
    p.add_argument("--hg", required=True)
    p.add_argument("--pairs", required=True, help="file: one endpoint pair per line")
    p.add_argument("--conflicts", help="file: forbidden vertex pairs")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, help="uniformity (checked against the file)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--claim-budget", type=int, default=1000)
    p.add_argument("--strict", action="store_true",
                   help="enforce the verbatim claim-partition conditions "
                        "(default: only on graphs with 50 or more vertices)")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=0.0)
    p.set_defaults(handler=cmd_tile)

    _add_anchored_command(sub, "switch", "build a feasible switching", cmd_switch, (
        ("--sample", dict(action="store_true",
                          help="sample the splitting and partition internally")),
        ("--splitting", dict(help="file: one path per line")),
        ("--partition", dict(help="file: one part per line")),
        ("--strict", dict(action="store_true", help="require the event gate before building")),
    ))

    p = sub.add_parser("construct", help="emit the explicit colourings")
    p.add_argument("what", choices=["tight-cx", "prefix"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("search", help="local search for a rainbow Hamilton cycle")
    p.add_argument("--hg", required=True)
    p.add_argument("--col", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=500)
    p.add_argument("--start", help="file with a starting cycle")
    _add_parameter_flags(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("verify", help="validate a cycle and its rainbowness")
    p.add_argument("--hg", required=True)
    p.add_argument("--col", required=True)
    p.add_argument("--cycle", required=True)
    p.set_defaults(handler=cmd_verify)

    return parser


def _manifest_flag(argv: list) -> str | None:
    """The --manifest value of a command line that argparse rejected."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--manifest", nargs="?")
    return pre.parse_known_args(argv)[0].manifest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        args = argparse.Namespace(command=None, manifest=_manifest_flag(argv))
        code = EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    else:
        try:
            code = args.handler(args)
        except (FormatError, InvalidInput, FileNotFoundError) as exc:
            human(f"error: {exc}")
            code = EXIT_INVALID
    manifest = {
        "command": args.command,
        "argv": argv,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "python": platform.python_version(),
        "wall_time_s": round(time.monotonic() - started, 3),
        "exit_code": code,
    }
    if hasattr(args, "hypotheses"):
        manifest["hypotheses"] = args.hypotheses
    human("manifest: " + json.dumps(manifest, sort_keys=True))
    if args.manifest:
        Path(args.manifest).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
