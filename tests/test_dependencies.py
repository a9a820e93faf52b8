"""The runtime dependencies in pyproject.toml are exactly what capdual imports."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import capdual

ROOT = Path(__file__).resolve().parent.parent

# Runs the FFT-powered prefactor rows, the tilted duality rows on one axis
# (direct jumps by the law of S_32 for the qubit, with the rows between read
# in one windowed product) and on two axes and more (FFT jumps by the law of
# S_32 at theta = (1/2, 0) and of S_24 at theta = (1/4, 1/3), with the rows
# between read through the laws of S_P .. S_J; steps every k on the 3-D
# support at theta = (1/8, 1/8, 1/4)), the exact projection table and the
# CLI, then prints every scipy module that got imported.
SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

from capdual.cli import main
from capdual.core import WeightedVector
from capdual.projection import (duality_report, prefactor_sequence,
                                projection_norm_table)

cross = WeightedVector.from_terms(
    2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}).normalized()
prefactor_sequence(cross, ks=[40, 42, 100])
qubit = WeightedVector.from_terms(1, {(-1,): 0.7071067811865476, (1,): 0.7071067811865476})
duality_report(qubit, (0,), 200)
duality_report(cross, ("1/2", 0), 96)
cross_plus_one = WeightedVector.from_terms(
    2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0, (1, 1): 1.0}).normalized()
duality_report(cross_plus_one, ("1/4", "1/3"), 96)
simplex_plus = WeightedVector.from_terms(3, {
    (0, 0, 0): 0.5, (1, 0, 0): 0.9, (0, 1, 0): 0.7, (0, 0, 1): 0.6, (4, 4, 4): 0.4})
duality_report(simplex_plus, ("1/8", "1/8", "1/4"), 16)
projection_norm_table(cross, 10)
config = {
    "experiment": "prefactor",
    "instance": {"vector": {"n": 1, "terms": [
        {"weight": [-1], "amplitude": 0.7071067811865476},
        {"weight": [1], "amplitude": 0.7071067811865476}]}},
    "ks": [100, 1000],
    "tolerances": {"target": 0.7978845608, "abs_tol": 1e-3},
}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "prefactor.json"
    path.write_text(json.dumps(config))
    code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
print(json.dumps({"exit": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_no_scipy_module_is_imported():
    env = dict(os.environ, PYTHONPATH=str(Path(capdual.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"exit": 0, "scipy": []}


def _third_party_imports(package: Path) -> set[str]:
    names = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "capdual"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert _third_party_imports(ROOT / "src" / "capdual") == declared


def test_public_names_resolve():
    # the benchmark's tracer wraps what __all__ names, so a stale entry left
    # behind by a deletion must fail here, not as an AttributeError there
    mods = [capdual] + [importlib.import_module(f"capdual.{info.name}")
                        for info in pkgutil.iter_modules(capdual.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in mods
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(mods) >= 8
    assert missing == []


def _bench_capdual_names() -> list[tuple[str, object, str]]:
    """(where, capdual object, name) for every name the benchmark imports
    from capdual or reads off a capdual module alias, such as
    `capacity.theta_capacity` after `from capdual import capacity`."""
    uses = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "capdual" or alias.name.startswith("capdual."):
                        mod = importlib.import_module(alias.name)
                        aliases[alias.asname or alias.name.split(".")[0]] = (
                            mod if alias.asname else capdual)
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "capdual"):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    uses.append((f"{path.name}:{node.lineno}", mod, alias.name))
                    obj = getattr(mod, alias.name, None)
                    if inspect.ismodule(obj):
                        aliases[alias.asname or alias.name] = obj
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                uses.append((f"{path.name}:{node.lineno}", aliases[node.value.id], node.attr))
    return uses


def test_bench_names_resolve():
    # a deletion from capdual that the benchmark still calls must fail here,
    # not in a benchmark run
    uses = _bench_capdual_names()
    missing = [f"{where}: {mod.__name__}.{name}" for where, mod, name in uses
               if not hasattr(mod, name)]
    assert len(uses) >= 30
    assert missing == []
