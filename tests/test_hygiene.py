"""Tooling guards on the package source: no assert statements, no private
names imported across modules, no unbounded caches, no jsonschema import,
even when a schema rejects a document, no dataclasses import, nor inspect
loaded by importing the command line, no unused imports, and one root
class for structural failures; and a time limit on every test."""

import ast
import importlib
import inspect
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
from toricfans.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src" / "toricfans"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text("utf-8"), filename=str(path))


def test_no_assert_statements():
    # asserts vanish under python -O; invariants raise errors.InternalError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_names_imported_across_modules():
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def _unbounded_caches(tree):
    """Lines using functools.cache or lru_cache with maxsize None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad = any(alias.name == "cache" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            bad = node.attr == "cache" and isinstance(node.value, ast.Name) and node.value.id == "functools"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            bad = any(isinstance(size, ast.Constant) and size.value is None for size in sizes)
        else:
            bad = False
        if bad:
            yield node.lineno


def test_caches_are_bounded():
    # a long-lived process sees ever new inputs, so every cache needs a size bound
    for bad in ("from functools import cache", "functools.cache", "lru_cache(maxsize=None)",
                "functools.lru_cache(None)"):
        assert list(_unbounded_caches(ast.parse(bad))) == [1]
    assert list(_unbounded_caches(ast.parse("lru_cache(maxsize=64)"))) == []
    found = [f"{path.name}:{line}" for path, tree in _modules() for line in _unbounded_caches(tree)]
    assert found == []


def _imported_packages(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_no_module_imports_jsonschema():
    # the compiled checkers word their own rejections; jsonschema is a test oracle only
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if "jsonschema" in _imported_packages(node)
    ]
    assert found == []


def _package_env():
    paths = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_schema_rejection_leaves_jsonschema_unloaded():
    env = _package_env()
    document = '{"version": "1", "kind": "monoid", "payload": {"lattice_rank": "two"}}'
    probe = (
        "import io, sys, toricfans.cli as cli; sys.stdin = io.StringIO(sys.argv[1]); "
        "code = cli.main(['validate']); print(code, 'jsonschema' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, document], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["2", "False"]
    assert result.stderr == "error: schema violation for kind 'monoid' at (root): 'cone' is a required property\n"


def test_no_module_imports_dataclasses():
    # value classes derive from frozen.Frozen or NamedTuple, which build without generated code
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if "dataclasses" in _imported_packages(node)
    ]
    assert found == []


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect():
    # every command pays its start-up; these two (and ast, dis and tokenize
    # behind inspect) cost about a tenth of it
    probe = (
        "import sys; before = set(sys.modules); import toricfans.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert (result.stdout, result.stderr) == ("\n", "")


def _unused_imports(tree):
    """Names a module imports and never reads: the project runs no linter,
    and a deletion tends to leave its imports behind."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    assert _unused_imports(ast.parse("import os.path\nfrom typing import Sequence\nx: Sequence = os")) == []
    assert _unused_imports(ast.parse("from a import b, c as d\nb()")) == [(1, "d")]
    found = [f"{path.name}:{line} {name}" for path, tree in _modules() for line, name in _unused_imports(tree)]
    assert found == []


DOMAIN_ERRORS = {
    "cone": {"NotPointed", "NotAFace"},
    "monoid": {"NegativeOnFace"},
    "diagram": {"NotTight", "NotTightSubdiagram", "NotJoinClosed", "IncompatibleFamily", "NegativeOnSub"},
    "stackyfan": {"InfiniteCokernel", "IncompatibleBetas", "RaysDoNotSpan"},
}


def _value_errors(name):
    """The ValueError subclasses that module toricfans.<name> defines."""
    module = importlib.import_module(f"toricfans.{name}")
    return [
        cls for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__ and issubclass(cls, ValueError)
    ]


def test_structural_failures_are_domain_errors():
    # the command line answers exit 1 for exactly these, and docs/formats.md lists them;
    # the solver's and the decoder's errors stay plain ValueErrors
    for name, expected in DOMAIN_ERRORS.items():
        found = {cls.__name__: issubclass(cls, DomainError) for cls in _value_errors(name)}
        assert found == dict.fromkeys(expected, True)
    for name in ("intlin", "documents"):
        errors = _value_errors(name)
        assert errors and not any(issubclass(cls, DomainError) for cls in errors)


def test_each_test_runs_under_a_time_limit():
    remaining = signal.alarm(0)
    signal.alarm(remaining)
    assert 0 < remaining <= conftest.TEST_TIME_LIMIT_S
    with pytest.raises(pytest.fail.Exception, match=f"test ran longer than {conftest.TEST_TIME_LIMIT_S} s"):
        conftest._out_of_time(signal.SIGALRM, None)
