"""The benchmark looks up package functions by name and calls them with the
arguments it was written for; each name must exist and each call must bind."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from sphreg import cli

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _bench_module("tracing")
    missing = [f"sphreg.{module}.{name}" for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"sphreg.{module}"), name, None))]
    assert tracing.TRACED and missing == []


def _package_names(tree: ast.Module) -> dict:
    """The script's names for package modules and for objects imported from them."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sphreg":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    getattr(module, alias.name) if hasattr(module, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    return names


def _resolve(node: ast.expr, names: dict):
    """The package object that ``node`` (a name or a chain of attributes)
    stands for, or None if it is not one; a missing attribute raises."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, names)
        return None if base is None else getattr(base, node.attr)
    return None


def _calls(tree: ast.Module, names: dict):
    """(line, callable, call node's positional arguments, keyword names) for
    each call of a package function, and for each job tuple that holds a
    package function followed by the tuple of its arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            function = _resolve(node.func, names)
            if callable(function):
                yield node.lineno, function, node.args, [kw.arg for kw in node.keywords]
        elif isinstance(node, ast.Tuple):
            for item, following in zip(node.elts, node.elts[1:]):
                function = _resolve(item, names)
                if callable(function) and isinstance(following, ast.Tuple):
                    yield node.lineno, function, following.elts, []


@pytest.mark.parametrize("script", ["quadrature.py", "exact.py"])
def test_bench_calls_bind_to_the_current_signatures(script):
    tree = ast.parse((ROOT / "bench" / script).read_text(encoding="utf-8"))
    checked, bad = 0, []
    for line, function, args, keywords in _calls(tree, _package_names(tree)):
        where = f"bench/{script}:{line} {function.__qualname__}"
        if any(isinstance(arg, ast.Starred) for arg in args) or None in keywords:
            bad.append(f"{where}: unpacked arguments cannot be checked")
            continue
        try:
            inspect.signature(function).bind(*args, **dict.fromkeys(keywords))
        except TypeError as exc:
            bad.append(f"{where}: {exc}")
        checked += 1
    assert checked and bad == []


def test_every_cli_invocation_parses(tmp_path):
    invocations = _bench_module("clirun").make_round(0, 0, str(tmp_path))
    bad = []
    for invocation in invocations:
        try:
            cli.build_parser().parse_args(invocation["argv"])
        except SystemExit:
            bad.append(invocation["argv"])
    assert invocations and bad == []
