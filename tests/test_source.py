"""Checks on the source tree itself: the benchmark's hook targets exist, and
no library module keeps an import it does not use."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "poistop").glob("*.py")
                 if p.name != "__init__.py")


def load_hooks():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_benchmark_hook_targets_exist():
    # bench/tracing.py replaces each target in its owner's own namespace
    # (a classmethod as the descriptor), so a deleted or renamed name fails
    # every traced benchmark run
    hooks = load_hooks()
    assert hooks
    for module, attr, *_ in hooks:
        *path, leaf = attr.split(".")
        owner = functools.reduce(getattr, path,
                                 importlib.import_module(module))
        assert vars(owner).get(leaf) is not None, f"{module}.{attr}"


def imported_names(tree):
    """Module-level imports: bound name -> line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"
