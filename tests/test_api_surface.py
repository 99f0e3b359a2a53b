"""Tooling checks on the public surface: every cenizk module imports on
its own (so an import cycle fails here), every name it exports resolves,
and every function the layered benchmark traces (perfbench/spans.py
TARGETS) exists where the tracer looks for it, so a rename or deletion
fails here rather than in `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cenizk

MODULES = sorted(m.name for m in pkgutil.iter_modules(cenizk.__path__))
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE_ROOT = Path(cenizk.__file__).resolve().parents[1]


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, qual) for layer, quals in spans.TARGETS.items() for qual in quals]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    # a fresh interpreter has no other cenizk module loaded, so a cycle
    # through this module cannot be hidden by an earlier import
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import cenizk.{name}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
