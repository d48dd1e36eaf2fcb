"""Every exported name resolves, so a deleted function leaves no stale
entry, and the CLI starts without the stdlib modules it does not need."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import twistlines

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(twistlines.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"twistlines.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(twistlines.__file__).read_text(encoding="utf-8"))
    republished = [
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert republished
    for module_name in republished:
        module = importlib.import_module(f"twistlines.{module_name}")
        for name in module.__all__:
            assert getattr(twistlines, name) is getattr(module, name), name


def modules_after(code):
    """The modules a fresh interpreter holds after running ``code`` with
    this checkout's src first on its path."""
    src = str(Path(twistlines.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    show = f"{code}; import sys; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", show], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_the_cli_starts_without_dataclasses_inspect_or_json():
    # compared with a bare start in the same environment, so what the
    # host's site imports is left out
    added = modules_after("import twistlines.cli") - modules_after("pass")
    assert "twistlines.cli" in added
    assert added & {"dataclasses", "inspect", "json"} == set()
