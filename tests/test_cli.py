import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loosehc
from loosehc import cli
from loosehc.cli import main
from loosehc.colouring import Colouring, format_colouring
from loosehc.constructions import first_prefix_colouring, tight_counterexample
from loosehc.cycles import LooseCycle, format_vertex_line
from loosehc.hypergraph import Hypergraph, format_hypergraph
from loosehc.search import find_conflicts


@pytest.fixture
def files(tmp_path):
    g = Hypergraph.complete(12, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "g.col").write_text(format_colouring(Colouring.injective(g)))
    (tmp_path / "cycle.txt").write_text(format_vertex_line(range(12)) + "\n")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    return code, records, captured.err


def test_enumerate(tmp_path, capsys):
    g = Hypergraph.complete(6, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    code, records, _ = run(capsys, "enumerate", "--hg", tmp_path / "g.hg")
    assert code == 0
    assert records[0]["count"] == 120 and records[0]["complete"]


def test_enumerate_without_witness_builds_no_cycle(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a cycle was built")

    monkeypatch.setattr(LooseCycle, "__post_init__", refuse)
    monkeypatch.setattr(LooseCycle, "_from_canonical", refuse)
    g = Hypergraph.complete(8, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    code, records, err = run(capsys, "enumerate", "--hg", tmp_path / "g.hg")
    assert code == 0
    assert records == [{"type": "enumeration", "count": 5040, "complete": True,
                        "n": 8, "k": 3}]
    assert "5040 loose Hamilton cycles\n" in err
    code, records, err = run(
        capsys, "enumerate", "--hg", tmp_path / "g.hg", "--node-limit", 1000
    )
    assert code == 3 and records[0]["count"] == 850 and not records[0]["complete"]
    assert "850 loose Hamilton cycles (budget exceeded, partial)" in err
    with pytest.raises(AssertionError, match="a cycle was built"):
        main(["enumerate", "--hg", str(tmp_path / "g.hg"),
              "--witness", str(tmp_path / "cycles.txt")])


def test_enumerate_witness_lists_the_sorted_cycles(tmp_path, capsys):
    g = Hypergraph.complete(6, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    code, records, _ = run(capsys, "enumerate", "--hg", tmp_path / "g.hg",
                           "--witness", tmp_path / "cycles.txt")
    lines = (tmp_path / "cycles.txt").read_text().splitlines()
    assert code == 0 and records[0]["count"] == len(lines) == 120
    cycles = [tuple(int(v) for v in line.split()) for line in lines]
    assert cycles == sorted(cycles)
    assert all(LooseCycle(c, 3).vertices == c for c in cycles)


def test_rainbow_exists_proves_absence_within_any_budget(tmp_path, capsys):
    # One colour for a cycle of 4 edges: absent before the first node.
    g = Hypergraph.complete(8, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "g.col").write_text(format_colouring(Colouring.constant(g)))
    code, records, _ = run(capsys, "rainbow-exists", "--hg", tmp_path / "g.hg",
                           "--col", tmp_path / "g.col", "--node-limit", 1)
    assert code == 1
    assert records == [{"type": "rainbow-exists", "mode": "loose", "status": "absent"}]


def test_verify_rainbow(files, capsys):
    code, records, _ = run(
        capsys, "verify", "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt",
    )
    assert code == 0
    assert records[0]["status"] == "rainbow"


def test_verify_invalid_cycle(files, capsys):
    (files / "bad.txt").write_text("0 1 2 3 4 5 6 7 8 9 10 10\n")
    code, records, _ = run(
        capsys, "verify", "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "bad.txt",
    )
    assert code == 1
    assert records[0]["status"] == "invalid-cycle"


def test_rainbow_exists_tight_counterexample(tmp_path, capsys):
    g, chi = tight_counterexample(6)
    (tmp_path / "cx.hg").write_text(format_hypergraph(g))
    (tmp_path / "cx.col").write_text(format_colouring(chi))
    code, records, _ = run(
        capsys, "rainbow-exists", "--hg", tmp_path / "cx.hg",
        "--col", tmp_path / "cx.col", "--tight",
    )
    assert code == 1
    assert records[0]["status"] == "absent"


def test_malformed_hg_exits_2(tmp_path, capsys):
    (tmp_path / "bad.hg").write_text("3 6\n0 1 2\n0 1 2\n")
    code, _, err = run(capsys, "enumerate", "--hg", tmp_path / "bad.hg")
    assert code == 2
    assert "line 3" in err


def test_unknown_flag_exits_2(files, capsys):
    code = main(["enumerate", "--hg", str(files / "g.hg"), "--nope"])
    assert code == 2


def test_ham_path(tmp_path, capsys):
    g = Hypergraph.complete(7, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    code, records, _ = run(
        capsys, "ham-path", "--hg", tmp_path / "g.hg", "--a", 0, "--b", 1
    )
    assert code == 0
    assert len(records[0]["path"]) == 7


def test_construct_and_search_roundtrip(tmp_path, capsys):
    code, records, _ = run(
        capsys, "construct", "prefix", "--n", 8, "--k", 3,
        "--out", tmp_path / "prefix",
    )
    assert code == 0
    code, records, _ = run(
        capsys, "search",
        "--hg", tmp_path / "prefix.hg", "--col", tmp_path / "prefix.col",
        "--t", 1, "--mtilde", 1, "--seed", 7, "--max-steps", 50,
    )
    assert code == 0
    assert records[0]["status"] == "found"


def test_sample_subcommand(files, capsys):
    code, records, _ = run(
        capsys, "sample",
        "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt", "--p0", "0 1 2",
        "--seed", 3, "--trials", 5, "--t", 1, "--mtilde", 1,
    )
    assert code == 0
    assert len(records) == 5
    assert all(r["type"] == "sample-trial" for r in records)


def test_switch_sample_mode(files, capsys):
    code, records, _ = run(
        capsys, "switch",
        "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt", "--p0", "0 1 2",
        "--seed", 3, "--t", 1, "--mtilde", 1, "--sample",
    )
    assert code == 0
    assert records[0]["feasible"] is True


def test_switch_sample_refuses_a_host_too_small(tmp_path, capsys):
    # K10's cycle has 5 edges; three disjoint one-edge paths need 6.
    g = Hypergraph.complete(10, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "g.col").write_text(format_colouring(Colouring.injective(g)))
    (tmp_path / "cycle.txt").write_text(format_vertex_line(range(10)) + "\n")
    code, records, err = run(
        capsys, "switch",
        "--hg", tmp_path / "g.hg", "--col", tmp_path / "g.col",
        "--cycle", tmp_path / "cycle.txt", "--p0", "0 1 2",
        "--seed", 3, "--t", 1, "--mtilde", 1, "--sample",
    )
    assert code == 2 and records == []
    assert ("error: host-too-small: 3 disjoint paths of 1 edges need 6 cycle edges, "
            "the host has 5\n") in err


def test_estimate_refuses_a_host_too_small(tmp_path, capsys):
    # Every Bernoulli sample on K10's 5-edge cycle fails validate_splitting,
    # so the estimate is refused before its first trial, not reported as 0.
    chi = first_prefix_colouring(10, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(chi.graph))
    (tmp_path / "g.col").write_text(format_colouring(chi))
    (tmp_path / "cycle.txt").write_text(format_vertex_line(range(10)) + "\n")
    code, records, err = run(
        capsys, "estimate",
        "--hg", tmp_path / "g.hg", "--col", tmp_path / "g.col",
        "--cycle", tmp_path / "cycle.txt", "--p0", "0 1 2",
        "--seed", 1, "--trials", 200, "--t", 1, "--mtilde", 1,
    )
    assert code == 2 and records == []
    assert ("error: host-too-small: 3 disjoint paths of 1 edges need 6 cycle edges, "
            "the host has 5\n") in err


def test_switch_explicit_files(files, capsys):
    (files / "splitting.txt").write_text("0 1 2\n4 5 6\n8 9 10\n")
    (files / "partition.txt").write_text("1 4 10\n2 5 8\n0 6 9\n")
    code, records, _ = run(
        capsys, "switch",
        "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt", "--p0", "0 1 2",
        "--seed", 1, "--t", 1, "--mtilde", 1,
        "--splitting", files / "splitting.txt",
        "--partition", files / "partition.txt",
    )
    assert code == 0
    assert records[0]["feasible"] is True
    assert len(records[0]["new_paths"]) == 3


def test_switch_explicit_files_refuses_strict(files, capsys):
    (files / "splitting.txt").write_text("0 1 2\n4 5 6\n8 9 10\n")
    (files / "partition.txt").write_text("1 4 10\n2 5 8\n0 6 9\n")
    code, records, err = run(
        capsys, "switch",
        "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt", "--p0", "0 1 2",
        "--seed", 1, "--t", 1, "--mtilde", 1, "--strict",
        "--splitting", files / "splitting.txt",
        "--partition", files / "partition.txt",
    )
    assert code == 2 and records == []
    assert "error:" in err and "--sample" in err


def test_tile_subcommand(tmp_path, capsys):
    g = Hypergraph.complete(7, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "pairs.txt").write_text("0 1\n")
    code, records, _ = run(
        capsys, "tile", "--hg", tmp_path / "g.hg",
        "--pairs", tmp_path / "pairs.txt", "--t", 3, "--seed", 1,
    )
    assert code == 0
    assert records[0]["valid"] is True


def test_tile_empty_pairs_exits_2(tmp_path, capsys):
    g = Hypergraph.complete(8, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "empty.txt").write_text("")
    code, records, err = run(
        capsys, "tile", "--hg", tmp_path / "g.hg",
        "--pairs", tmp_path / "empty.txt", "--t", 3, "--seed", 1,
    )
    assert code == 2 and records == []
    assert "error:" in err and "Traceback" not in err


def test_tile_refuses_a_claim_budget_below_one(tmp_path, capsys):
    g = Hypergraph.complete(7, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "pairs.txt").write_text("0 1\n")
    code, records, err = run(
        capsys, "tile", "--hg", tmp_path / "g.hg",
        "--pairs", tmp_path / "pairs.txt", "--t", 3, "--seed", 1, "--claim-budget", 0,
    )
    assert code == 2 and records == []
    assert "claim_budget" in err


def test_estimate_subcommand_deterministic_stdout(files, capsys):
    args = [
        "estimate", "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt", "--p0", "0 1 2",
        "--seed", 5, "--trials", 30, "--t", 1, "--mtilde", 1,
    ]
    code1, records1, _ = run(capsys, *args)
    code2, records2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert records1 == records2
    assert records1[-1]["type"] == "estimate"


def test_manifest_written(files, capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    code, _, err = run(
        capsys, "--manifest", manifest,
        "verify", "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt",
    )
    assert code == 0
    data = json.loads(manifest.read_text())
    assert data["command"] == "verify"
    assert data["version"] == loosehc.__version__
    assert "manifest:" in err


def test_manifest_written_on_error_exit(files, capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    code, records, err = run(
        capsys, "--manifest", manifest,
        "search", "--hg", tmp_path / "missing.hg", "--col", files / "g.col",
        "--t", 1, "--mtilde", 1, "--seed", 1,
    )
    assert code == 2 and records == []
    data = json.loads(manifest.read_text())
    assert data["command"] == "search" and data["exit_code"] == 2
    assert "error:" in err and "manifest:" in err


def test_manifest_written_when_argparse_rejects(files, capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    code, records, err = run(
        capsys, "--manifest", manifest, "enumerate", "--hg", files / "g.hg", "--nope",
    )
    assert code == 2 and records == []
    data = json.loads(manifest.read_text())
    assert data["command"] is None and data["exit_code"] == 2
    assert "--nope" in data["argv"]
    assert "manifest:" in err


@pytest.fixture(scope="module")
def k54(tmp_path_factory):
    # At n = 54 the partition gate is strict by size, and its bound 1.125
    # at m = 3 exceeds the one edge a vertex has into its own part.
    path = tmp_path_factory.mktemp("k54")
    g = Hypergraph.complete(54, 3)
    (path / "g.hg").write_text(format_hypergraph(g))
    (path / "g.col").write_text(format_colouring(Colouring.injective(g)))
    (path / "cycle.txt").write_text(format_vertex_line(range(54)) + "\n")
    return path


@pytest.mark.parametrize("command", [
    ["switch", "--sample"], ["estimate", "--strict", "--trials", 5],
], ids=["switch", "estimate"])
def test_unmeetable_gate_exits_2_naming_it(k54, capsys, tmp_path, command):
    manifest = tmp_path / "manifest.json"
    code, records, err = run(
        capsys, "--manifest", manifest, *command,
        "--hg", k54 / "g.hg", "--col", k54 / "g.col", "--cycle", k54 / "cycle.txt",
        "--p0", "0 1 2", "--seed", 1, "--t", 1, "--mtilde", 1,
    )
    assert code == 2 and records == []
    assert "error: relative-degree: bound 1.125 > 1" in err
    data = json.loads(manifest.read_text())
    assert data["exit_code"] == 2
    assert data["hypotheses"] == {
        "global_bound": True, "min_j_degree": 1378,
        "j_degree_needed": pytest.approx(13.78), "above_threshold": True,
    }


def test_search_on_a_strict_host_still_succeeds(k54, capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    code, records, _ = run(
        capsys, "--manifest", manifest, "search",
        "--hg", k54 / "g.hg", "--col", k54 / "g.col",
        "--seed", 1, "--t", 1, "--mtilde", 1,
    )
    assert code == 0 and records[0]["status"] == "found"
    assert json.loads(manifest.read_text())["hypotheses"]["above_threshold"] is True


def test_switch_sample_strict_on_k30(tmp_path, capsys):
    # At n = 30 the partition gate is structural, so --strict adds only the
    # event gate, which this host and colouring can pass.
    g = Hypergraph.complete(30, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "g.col").write_text(format_colouring(Colouring.injective(g)))
    (tmp_path / "cycle.txt").write_text(format_vertex_line(range(30)) + "\n")
    code, records, _ = run(
        capsys, "switch",
        "--hg", tmp_path / "g.hg", "--col", tmp_path / "g.col",
        "--cycle", tmp_path / "cycle.txt", "--p0", "0 1 2",
        "--seed", 1, "--t", 1, "--mtilde", 1, "--sample", "--strict",
    )
    assert code == 0
    assert records[0]["feasible"] is True


def run_with_manifest(capsys, tmp_path, *argv):
    manifest = tmp_path / "manifest.json"
    code, records, _ = run(capsys, "--manifest", manifest, *argv)
    return code, records, json.loads(manifest.read_text())["exit_code"]


def test_tile_strict_t1_refuses_the_claim_partition(tmp_path, capsys):
    # The strict window at t = 1 is [-0.5, 0.5], but K5 with one pair
    # leaves three free vertices.
    (tmp_path / "g.hg").write_text(format_hypergraph(Hypergraph.complete(5, 3)))
    (tmp_path / "pairs.txt").write_text("0 1\n")
    assert run_with_manifest(
        capsys, tmp_path, "tile", "--hg", tmp_path / "g.hg", "--pairs", tmp_path / "pairs.txt",
        "--t", 1, "--seed", 1, "--strict",
    ) == (1, [{
        "type": "tiling", "status": "infeasible", "stage": "claim-partition",
        "detail": "part-sizes: no 1 block sizes in [0, 0] add up to 3, the number of free vertices",
    }], 1)


def test_switch_sample_reports_an_exhausted_budget(files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample_switching", lambda *args: None)
    assert run_with_manifest(
        capsys, files, "switch", "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "cycle.txt", "--p0", "0 1 2",
        "--seed", 3, "--t", 1, "--mtilde", 1, "--sample",
    ) == (3, [{"type": "switching", "status": "budget-exhausted"}], 3)


def switch_from_files(capsys, files, hg, col, partition):
    (files / "splitting.txt").write_text("0 1 2\n4 5 6\n8 9 10\n")
    (files / "partition.txt").write_text(partition)
    return run_with_manifest(
        capsys, files, "switch", "--hg", hg, "--col", col,
        "--cycle", files / "cycle.txt", "--p0", "0 1 2",
        "--seed", 1, "--t", 1, "--mtilde", 1,
        "--splitting", files / "splitting.txt", "--partition", files / "partition.txt",
    )


def test_switch_from_files_without_a_quota_rerouting(files, capsys):
    # Every entry lies in the first part, which then needs all three pairs.
    assert switch_from_files(
        capsys, files, files / "g.hg", files / "g.col", "0 4 8\n1 5 9\n2 6 10\n"
    ) == (1, [{"type": "switching", "status": "no-rerouting"}], 1)


# Nine one-edge paths on K36's identity cycle (t = 1, m~ = 3): the exact
# draw at seed 1, and the partition that draw_viable_partition gives for it
# at seed 0.
K36_PATHS = ["0 1 2", "4 5 6", "8 9 10", "12 13 14", "16 17 18", "20 21 22",
             "24 25 26", "28 29 30", "32 33 34"]
K36_PARTITION = "0 5 10 12 17 22 25 28 34\n1 6 8 13 18 20 24 30 33\n2 4 9 14 16 21 26 29 32\n"
K36_ORDERS = {
    "cyclic-order": K36_PATHS,
    "reversed": K36_PATHS[:1] + K36_PATHS[:0:-1],
    "shuffled": K36_PATHS[:1] + [K36_PATHS[i] for i in (5, 2, 8, 1, 7, 3, 6, 4)],
}


def k36_switch(tmp_path, paths, partition) -> list:
    """The command line of switch from files on K36, with the splitting
    file's lines in the given order."""
    g = Hypergraph.complete(36, 3)
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "g.col").write_text(format_colouring(Colouring.injective(g)))
    (tmp_path / "cycle.txt").write_text(format_vertex_line(range(36)) + "\n")
    (tmp_path / "splitting.txt").write_text("\n".join(paths) + "\n")
    (tmp_path / "partition.txt").write_text(partition)
    return [
        "switch", "--hg", tmp_path / "g.hg", "--col", tmp_path / "g.col",
        "--cycle", tmp_path / "cycle.txt", "--p0", "0 1 2",
        "--seed", 1, "--t", 1, "--mtilde", 3,
        "--splitting", tmp_path / "splitting.txt", "--partition", tmp_path / "partition.txt",
    ]


def test_switch_from_files_reads_the_splitting_in_cyclic_order(tmp_path, capsys):
    # search_quota_rerouting's dicycle shortcut needs the paths in cyclic
    # order, and at m = 9 no exhaustive search backs it up.  The CLI sorts
    # the non-anchor paths, so every line order finds the rerouting and
    # reaches the build, which fails in part 1.
    outputs = {}
    for name, paths in K36_ORDERS.items():
        code = main([str(a) for a in k36_switch(tmp_path, paths, K36_PARTITION)])
        outputs[name] = code, capsys.readouterr().out
    expected = (1, '{"stage": "part-1:reservoirs", "status": "infeasible", '
                   '"type": "switching"}\n')
    assert outputs == {name: expected for name in K36_ORDERS}


@pytest.mark.parametrize("order", ["cyclic-order", "reversed"])
def test_switch_from_files_reports_an_unsettled_rerouting_search(tmp_path, capsys, order):
    # K36_PARTITION with 4 and 5 swapped: 4 entries in the first part and 2
    # in the last, so the dicycle shortcut cannot meet the quota of 3 pairs
    # a part, and m = 9 is too large to search exhaustively.  So
    # "no-rerouting" would be unproven.
    unbalanced = "0 4 10 12 17 22 25 28 34\n1 6 8 13 18 20 24 30 33\n2 5 9 14 16 21 26 29 32\n"
    assert run_with_manifest(
        capsys, tmp_path, *k36_switch(tmp_path, K36_ORDERS[order], unbalanced)
    ) == (3, [{"type": "switching", "status": "incomplete"}], 3)


def test_switch_from_files_with_an_untileable_part(files, capsys):
    # With t = 1 the first part {1, 4, 10} must be the one edge between its
    # pair (4, 10); that edge is missing from the host.
    g = Hypergraph.complete(12, 3)
    g = Hypergraph(12, 3, tuple(e for e in g.edges if e != (1, 4, 10)))
    (files / "h.hg").write_text(format_hypergraph(g))
    (files / "h.col").write_text(format_colouring(Colouring.injective(g)))
    assert switch_from_files(
        capsys, files, files / "h.hg", files / "h.col", "1 4 10\n2 5 8\n0 6 9\n"
    ) == (1, [{"type": "switching", "status": "infeasible", "stage": "part-0:ham-path"}], 1)


@pytest.mark.parametrize("n", [12, 10], ids=["after-a-switch", "after-a-restart"])
def test_failed_search_reports_the_conflicts_of_the_cycle_it_prints(tmp_path, capsys, n):
    # Colour 0 on every edge meeting {0, 1, 2, 3}, which a cycle covers
    # with two edges, and a colour of its own on every other edge: no cycle
    # is rainbow, though the colour count proves nothing.  K12 switches,
    # K10 is too small to switch and restarts.
    g = Hypergraph.complete(n, 3)
    chi = Colouring(g, [0 if e[0] < 4 else i + 1 for i, e in enumerate(g.edges)])
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "g.col").write_text(format_colouring(chi))
    code, records, _ = run(
        capsys, "search", "--hg", tmp_path / "g.hg", "--col", tmp_path / "g.col",
        "--t", 1, "--mtilde", 1, "--seed", 0, "--max-steps", 1,
    )
    assert code == 3 and records[0]["status"] == "budget-exhausted"
    cycle = LooseCycle(tuple(records[0]["cycle"]), 3)
    assert records[0]["remaining_conflicts"] == len(find_conflicts(cycle, chi, 1))


def test_search_reports_absent_when_the_colours_run_out(tmp_path, capsys):
    # Classes of 44 edges in edge order give K12 5 colours for its 6-edge
    # cycles: absent, exit 1, as rainbow-exists answers, with no step taken.
    g = Hypergraph.complete(12, 3)
    chi = Colouring(g, [i // 44 for i in range(len(g.edges))])
    (tmp_path / "g.hg").write_text(format_hypergraph(g))
    (tmp_path / "g.col").write_text(format_colouring(chi))
    code, records, err = run(
        capsys, "search", "--hg", tmp_path / "g.hg", "--col", tmp_path / "g.col",
        "--t", 1, "--mtilde", 1, "--seed", 0,
    )
    assert code == 1
    assert [(r["status"], r["steps"], r["restarts"]) for r in records] == [("absent", 0, 0)]
    cycle = LooseCycle(tuple(records[0]["cycle"]), 3)
    assert records[0]["remaining_conflicts"] == len(find_conflicts(cycle, chi, 1)) > 0
    assert "no rainbow cycle exists" in err
    code, records, _ = run(capsys, "rainbow-exists", "--hg", tmp_path / "g.hg",
                           "--col", tmp_path / "g.col")
    assert code == 1 and records[0]["status"] == "absent"


def test_commented_cycle_and_anchor_files_load(files, capsys):
    (files / "commented.txt").write_text("# a cycle\n\n" + format_vertex_line(range(12)) + "\n")
    (files / "anchor.txt").write_text("# the anchor\n0 1 2\n\n")
    code, records, _ = run(
        capsys, "verify", "--hg", files / "g.hg", "--col", files / "g.col",
        "--cycle", files / "commented.txt",
    )
    assert (code, records) == (0, [{"type": "verify", "status": "rainbow"}])

    def sample(cycle, p0):
        return run(capsys, "sample", "--hg", files / "g.hg", "--col", files / "g.col",
                   "--cycle", cycle, "--p0", p0, "--seed", 3, "--trials", 3,
                   "--t", 1, "--mtilde", 1)[:2]

    plain = sample(files / "cycle.txt", "0 1 2")
    assert plain[0] == 0 and len(plain[1]) == 3
    assert sample(files / "commented.txt", f"@{files / 'anchor.txt'}") == plain


@pytest.mark.parametrize("argv, text, message", [
    (["verify", "--hg", "g.hg", "--col", "g.col", "--cycle", "bad.txt"],
     "0 1 2\n# more\n3 x\n", "line 3: non-integer token in '3 x'"),
    (["sample", "--hg", "g.hg", "--col", "g.col", "--cycle", "cycle.txt", "--p0", "@bad.txt",
      "--seed", 1, "--t", 1, "--mtilde", 1],
     "0 1\n2 y\n", "line 2: non-integer token in '2 y'"),
    (["verify", "--hg", "g.hg", "--col", "bad.txt", "--cycle", "cycle.txt"],
     "0\n1 2\n", "line 2: expected one colour, got 2"),
    (["tile", "--hg", "g.hg", "--pairs", "bad.txt", "--t", 1, "--seed", 1],
     "0 1\n\n2 3 4\n", "line 3: expected two vertices, got 3"),
], ids=["cycle", "anchor", "colouring", "pairs"])
def test_bad_input_lines_exit_2_naming_the_line(files, capsys, monkeypatch, argv, text, message):
    monkeypatch.chdir(files)
    (files / "bad.txt").write_text(text)
    code, records, err = run(capsys, *argv)
    assert (code, records) == (2, [])
    assert f"error: {message}\n" in err


def test_cli_starts_from_a_source_checkout(files):
    src = Path(loosehc.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "loosehc.cli", "verify", "--hg", "g.hg", "--col", "g.col",
         "--cycle", "cycle.txt"],
        cwd=files, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == '{"status": "rainbow", "type": "verify"}\n'
    manifest = done.stderr.splitlines()[-1]
    assert manifest.startswith("manifest: ")
    assert json.loads(manifest.removeprefix("manifest: "))["exit_code"] == 0
