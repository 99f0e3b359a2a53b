"""`rng.bits` is the package's one uniform-bit draw.

Every 0/1 array in the package (EPR outcomes, hidden bits, pad keys,
BB84 strings) comes from `cenizk.rng.bits`, looked up on the module at
call time, so replacing that one attribute changes the draw everywhere.
"""

import ast
from pathlib import Path

import pytest

import cenizk
import cenizk.rng
from cenizk.harness import run_session, serialize_transcript

PACKAGE_DIR = Path(cenizk.__file__).resolve().parent


def _const(node, value) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _bit_draws_and_imports(tree: ast.AST) -> list[str]:
    """`<gen>.integers(0, 2, ...)` calls and `from ...rng import bits` in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "integers":
            bounds = list(node.args[:2]) + [kw.value for kw in node.keywords if kw.arg in ("low", "high")]
            if len(bounds) == 2 and _const(bounds[0], 0) and _const(bounds[1], 2):
                found.append(f"line {node.lineno}: integers(0, 2, ...)")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rng":
            if any(alias.name == "bits" for alias in node.names):
                found.append(f"line {node.lineno}: from {'.' * node.level}{node.module} import bits")
    return found


def test_scan_sees_both_patterns():
    tree = ast.parse("from .rng import bits\nx = g.integers(0, 2, size=3, dtype=np.uint8)\ny = g.integers(0, 256)\n")
    assert sorted(_bit_draws_and_imports(tree)) == ["line 1: from .rng import bits", "line 2: integers(0, 2, ...)"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "rng.py"))
def test_no_bit_draw_outside_rng(path):
    tree = ast.parse((PACKAGE_DIR / path).read_text(), filename=path)
    assert _bit_draws_and_imports(tree) == []


@pytest.mark.parametrize("protocol", ["epr", "crs-toy", "crs-dry"])
def test_one_patch_reaches_every_session(protocol, monkeypatch):
    expected = serialize_transcript(run_session(protocol, None, 0))
    honest_bits = cenizk.rng.bits
    calls = []

    def counting(gen, shape):
        calls.append(shape)
        return honest_bits(gen, shape)

    monkeypatch.setattr(cenizk.rng, "bits", counting)
    assert serialize_transcript(run_session(protocol, None, 0)) == expected
    assert calls, f"a default {protocol} session drew no bits through cenizk.rng.bits"
