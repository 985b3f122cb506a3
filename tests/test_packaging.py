"""The package depends on numpy alone: every import in src/agd is from the
standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "agd").glob("*.py"))


def imported_modules(path):
    """(line, top-level module) of every absolute import in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_found():
    assert {"graphs.py", "cli.py", "autodiff.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = [f"{path.name}:{line} imports {name}"
               for line, name in imported_modules(path) if name not in allowed]
    assert not foreign, foreign


def test_a_foreign_import_is_caught(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import json\nfrom . import graphs\n"
                      "def f():\n    from scipy import linalg\n")
    assert [name for _, name in imported_modules(source)] == ["json", "scipy"]
