"""Seeded CLI commands pinned byte for byte.

Each command runs in-process in one working directory, with relative paths,
so stdout holds no path of the machine.  The pins are the exit code, the
sha256 of stdout and the sha256 of every file the command writes.  A change
that moves any of them changes what the CLI answers for a fixed seed.
"""

import hashlib
import json

import pytest

from loosehc.cli import main
from loosehc.cycles import format_vertex_line

ANCHORED = ("--col", "p12.col", "--cycle", "cycle12.txt", "--p0", "0 1 2",
            "--t", "1", "--mtilde", "1")

# (name, argv, files the command writes), run in this order: the construct
# commands write the hosts and colourings the later commands read.
COMMANDS = [
    ("construct-prefix-8", ["construct", "prefix", "--n", "8", "--out", "p8"],
     ["p8.hg", "p8.col"]),
    ("construct-prefix-12", ["construct", "prefix", "--n", "12", "--out", "p12"],
     ["p12.hg", "p12.col"]),
    ("construct-prefix-24", ["construct", "prefix", "--n", "24", "--out", "p24"],
     ["p24.hg", "p24.col"]),
    ("construct-tight-cx-9", ["construct", "tight-cx", "--n", "9", "--out", "cx9"],
     ["cx9.hg", "cx9.col"]),
    ("enumerate-8", ["enumerate", "--hg", "p8.hg", "--witness", "cycles8.txt"],
     ["cycles8.txt"]),
    ("rainbow-exists-loose-8", ["rainbow-exists", "--hg", "p8.hg", "--col", "p8.col"], []),
    ("rainbow-exists-tight-9",
     ["rainbow-exists", "--tight", "--hg", "cx9.hg", "--col", "cx9.col"], []),
    ("ham-path-9", ["ham-path", "--hg", "cx9.hg", "--a", "0", "--b", "8"], []),
    ("sample-12", ["sample", "--hg", "p12.hg", *ANCHORED, "--seed", "3", "--trials", "5"],
     []),
    ("estimate-12",
     ["--jobs", "1", "estimate", "--hg", "p12.hg", *ANCHORED, "--seed", "5",
      "--trials", "20"], []),
    ("tile-12", ["tile", "--hg", "p12.hg", "--pairs", "pairs12.txt", "--t", "3",
                 "--seed", "1"], []),
    ("switch-sample-12",
     ["switch", "--sample", "--hg", "p12.hg", *ANCHORED, "--seed", "3"], []),
    ("search-12-mod8", ["search", "--hg", "p12.hg", "--col", "mod8.col", "--t", "1",
                        "--mtilde", "1", "--seed", "2", "--max-steps", "60"], []),
    ("search-24", ["search", "--hg", "p24.hg", "--col", "p24.col", "--t", "1",
                   "--mtilde", "1", "--seed", "7", "--max-steps", "200"], []),
    ("verify-12", ["verify", "--hg", "p12.hg", "--col", "p12.col",
                   "--cycle", "cycle12.txt"], []),
]

# name -> (exit code, sha256 of stdout, {written file: sha256})
PINS = {
    "construct-prefix-8": (
        0, "7bd253247d07f76a882825f149898e3e3cbda120127079609eed6100fc35a66b",
        {
            "p8.hg": "460d49eacfb7082ad4b8080fdbbe568cc609407fa2104fc63fd33f7c58f20e06",
            "p8.col": "7b4740c40d29a70a55fc60c08ea8c281816905963424a087803be7f925c96e20",
        },
    ),
    "construct-prefix-12": (
        0, "79a48c204e56a6523ab18c7d83f68f516ee3affc6abd2fc8136f8efa2db364e6",
        {
            "p12.hg": "132f59a0c0f3a381895693ab216683ae77280780123f10eedc14cfba26b54478",
            "p12.col": "59fb10a34882ae91a022a72eabc7228b54d770963390431d29dd1a6b34b95b72",
        },
    ),
    "construct-prefix-24": (
        0, "49f4d3ce2ef405d8f18905e02ddd9f6512c5997510833b2dd64fa9f61f6b1004",
        {
            "p24.hg": "94cdb83c4f29e6a805cd3f837f89b2d5978e878f22334f0ff78ae779a596b404",
            "p24.col": "9ab879a56972dcf83410c56ea2315f4909314b22129013ddb7d17c760a849dbc",
        },
    ),
    "construct-tight-cx-9": (
        0, "5e489d4694105d88ddfd0ad3ed8bd6adbd7c2e1d72e315638754b47d8ff571e4",
        {
            "cx9.hg": "260c1ba687c416fa97c8d7c190962224a208e098e92cf67b07091308748c0f99",
            "cx9.col": "0501569e08eb8ca23fa6d98630f68283da9b6ccc18f9ebe7b8b075345c66ec2c",
        },
    ),
    "enumerate-8": (
        0, "73c0cc2b7a623c545c553e92da7e70d263f814ac9dbbe69d63f98b30f94fb088",
        {
            "cycles8.txt": "c48541d93db65152ae5e030d4f3ef71d11f7a4a06449115afb5ad0933d1b47bd",
        },
    ),
    "rainbow-exists-loose-8": (
        0, "42f62dd999e3e24e0c3863e5358fb099f6cf290e1961be4ce13902f12e6f9b46",
        {},
    ),
    "rainbow-exists-tight-9": (
        1, "56a29b7dbf5a5c79f5f01239468912580e82d7325e2e0d48992bf3513dde704f",
        {},
    ),
    "ham-path-9": (
        0, "864e71069375cf1ac24cfbc8a1c3b8c5ddc167d27c0c8f8cb831492518c96689",
        {},
    ),
    "sample-12": (
        0, "f80fbd53f1acaf30b883d00b6481b932008ea45d4fe5fd8f2ef51880021b14c8",
        {},
    ),
    "estimate-12": (
        0, "01933792ddb3c560cb712075c9470ea21de4999cd3fce997418b1749a7b9cbcd",
        {},
    ),
    "tile-12": (
        0, "2f3d1e9a266a01956877b8b0da66e57f0d28e46214b9bbf7306bfdf3db1d325f",
        {},
    ),
    "switch-sample-12": (
        0, "24782f74ec17f00d1fcd483d6d1a2e21b2f57c8ff330656520c4fb842cb1c742",
        {},
    ),
    "search-12-mod8": (
        0, "349841771ef0e26611c8882c3dd35f9a570ea1183aa943429da288f59bf6a427",
        {},
    ),
    "search-24": (
        0, "49eabf66e16d3b4f907e8db28256163015799397366b907f4c62d43d0a92b6cb",
        {},
    ),
    "verify-12": (
        0, "dfbb73f3d8f35d1e42c4d270a1faf57207f2bb3c315b2b655741f86df068a045",
        {},
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(tmp_path, capsys, monkeypatch) -> dict:
    """Every command's exit code, stdout digest and written-file digests."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cycle12.txt").write_text(format_vertex_line(range(12)) + "\n")
    (tmp_path / "pairs12.txt").write_text("0 1\n2 3\n")
    # Edge i of K12 takes colour i mod 8, so the search needs switchings.
    (tmp_path / "mod8.col").write_text("".join(f"{i % 8}\n" for i in range(220)))
    capsys.readouterr()
    results = {}
    for name, argv, written in COMMANDS:
        code = main(argv)
        out = capsys.readouterr().out
        results[name] = (
            code,
            sha256(out.encode()),
            {f: sha256((tmp_path / f).read_bytes()) for f in written},
        )
    return results


def test_seeded_cli_stdout_is_pinned(tmp_path, capsys, monkeypatch):
    results = run_commands(tmp_path, capsys, monkeypatch)
    assert results == PINS, json.dumps(results, indent=1)
