"""Tooling checks on the public surface: every name a cenizk module
exports resolves, and every function the layered benchmark traces
(perfbench/spans.py TARGETS) exists where the tracer looks for it, so a
rename or deletion fails here rather than in `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import cenizk

MODULES = sorted(m.name for m in pkgutil.iter_modules(cenizk.__path__))
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, qual) for layer, quals in spans.TARGETS.items() for qual in quals]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cenizk.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"cenizk.{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("layer,qual", _traced_targets())
def test_traced_target_exists(layer, qual):
    obj = importlib.import_module(f"cenizk.{layer}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
