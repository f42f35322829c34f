"""Rules over the package's source: every module declares its imports at
the top, none inside a function body, only colouring.py and
hypergraph.py know how colours are stored, and only hypergraph.py builds
a host without its checks."""

import ast
import re
from pathlib import Path

import loosehc


def function_local_imports(source: str) -> list[int]:
    """Line numbers of import statements nested in a function or lambda."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found.update(
                inner.lineno for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return sorted(found)


def test_detector_sees_nested_imports():
    source = "import os\n\ndef f():\n    if os:\n        from math import pi\n"
    assert function_local_imports(source) == [5]


def test_no_function_local_imports():
    package = Path(loosehc.__file__).parent
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if (lines := function_local_imports(path.read_text()))
    }
    assert offenders == {}


def test_only_the_colouring_and_the_host_know_how_colours_are_stored():
    # Every other module reads colours through Colouring.colours, so a new
    # representation edits colouring.py and hypergraph.py alone.
    package = Path(loosehc.__file__).parent
    stored = re.compile(r"edge_index|\.assignment")
    offenders = sorted(
        path.name for path in package.glob("*.py")
        if path.name not in ("colouring.py", "hypergraph.py")
        and stored.search(path.read_text())
    )
    assert offenders == []


def test_only_the_host_module_builds_a_host_without_its_checks():
    # hypergraph.relabelled is the one host built through object.__new__;
    # every other host goes through Hypergraph.__post_init__.
    package = Path(loosehc.__file__).parent
    unchecked = re.compile(r"__new__\(\s*Hypergraph\b")
    builders = sorted(
        path.name for path in package.glob("*.py") if unchecked.search(path.read_text())
    )
    assert builders == ["hypergraph.py"]
