"""Checks on the source tree itself: where the scalar-rounding arithmetic may
live, and that the benchmark's traced functions exist."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qdelta").glob("*.py"))


def _spans_constants() -> dict:
    """TRACED and FALLBACK from bench/spans.py, read without running it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in ("TRACED", "FALLBACK")}


@pytest.mark.parametrize("pattern, allowed", [
    # qalg holds the array arithmetic rounded as CPython's scalars.
    (r"np\.float_power", {"qalg.py"}),
    (r"functools\.reduce", {"qalg.py"}),
    # scatter takes the modulus of its (re, im) pairs directly.
    (r"np\.hypot", {"qalg.py", "scatter.py"}),
])
def test_rounding_helpers_live_in_qalg(pattern, allowed):
    found = [f"{path.name}:{n}" for path in SOURCES if path.name not in allowed
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(pattern, line)]
    assert found == []


def test_traced_functions_resolve():
    constants = _spans_constants()
    assert set(constants) == {"TRACED", "FALLBACK"}
    pairs = [(mod, name) for mod, names in constants["TRACED"].items() for name in names]
    missing = [f"{mod}.{name}" for mod, name in pairs + [constants["FALLBACK"]]
               if not callable(getattr(importlib.import_module(f"qdelta.{mod}"), name, None))]
    assert missing == []
