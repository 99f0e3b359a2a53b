"""Tests of the benchmark itself (not part of the package's own suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostclock  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = bench_run.load_units()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTERS = (
    "epr.pairs_measured",
    "epr_protocol.deleted_blocks",
    "hbg.positions_verified",
    "state.terms_in",
    "state.peak_terms",
    "wire.bytes",
    "hbnizk.useful_reps_ratio",
)


def _final(result: dict, metrics: dict, raw: dict | None = None) -> tuple[list[str], dict]:
    lines = bench_run.report(result, metrics, {}, UNITS, raw)
    return lines, json.loads(lines[-1])


def _namespace_snapshot() -> dict:
    """Every function-valued attribute of every cenizk module and class."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "cenizk" or mod is None:
            continue
        for attr, value in vars(mod).items():
            if callable(value):
                snap[(mod_name, attr)] = value
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    snap[(mod_name, attr, meth)] = fn
    return snap


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_prints_every_end_to_end_metric(name):
    result = worker.run(name, seed=3, seconds=0, trace=False, min_samples=2)
    metrics, raw = bench_run.end_to_end(result, [result])
    lines, final = _final(result, metrics, raw)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 2
    assert f"failed_ratio 0 ratio (0 of {final['attempted']} ops)" in lines
    for spec in SPEC["end_to_end"]:
        entry = final["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"] and entry["value"] > 0
        assert any(line.startswith(f"{spec['name']} ") and line.endswith(f" {spec['unit']}") for line in lines)
    assert set(final["metrics"]) == {spec["name"] for spec in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_restores_originals(name):
    before = _namespace_snapshot()
    result = worker.run(name, seed=3, seconds=0, trace=True)
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert result["problems"] == [] and result["failed"] == 0
    _, final = _final(result, result["metrics"])
    assert set(final["metrics"]) == {spec["name"] for spec in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert final["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_timings_are_scaled_by_the_calibration_kernel():
    timings = [0.010, 0.020, 0.030, 0.040]
    clock = hostclock.HostClock()
    clock.samples = [0.002] * 4
    fast = clock.scaled(timings, [0, 1, 2, 3])
    clock.samples = [0.004] * 4
    slow = clock.scaled([2 * t for t in timings], [0, 1, 2, 3])
    assert fast == pytest.approx(slow)
    assert fast[0] == pytest.approx(0.010 * hostclock.REFERENCE_S / 0.002)
    # one slow kernel run among its neighbours does not move an op's scale
    clock.samples = [0.002, 0.002, 0.009, 0.002]
    assert clock.scaled([0.010], [2])[0] == pytest.approx(fast[0])
    # ops between two kernel runs share the earlier one
    assert clock.before_op() == clock.before_op() == 4
    with pytest.raises(ValueError):
        clock.scaled(timings, [0])
    # with half the work following the kernel, a kernel twice as slow
    # as the reference means an op 1.5 times as slow
    half = hostclock.HostClock(0.5)
    half.samples = [2 * hostclock.REFERENCE_S]
    assert half.scaled([0.015], [0])[0] == pytest.approx(0.010)


def test_tracer_wraps_every_namespace_holding_a_function():
    worker.load_program()
    import cenizk.crs_protocol
    import cenizk.epr
    import cenizk.state

    original = cenizk.state.apply_oracle
    method = cenizk.epr.EprNetwork.__dict__["measure_blocks"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cenizk.state.apply_oracle is not original
        assert cenizk.crs_protocol.apply_oracle is cenizk.state.apply_oracle
        assert cenizk.epr.EprNetwork.__dict__["measure_blocks"] is not method
    finally:
        tracer.restore()
    assert cenizk.state.apply_oracle is original and cenizk.crs_protocol.apply_oracle is original
    assert cenizk.epr.EprNetwork.__dict__["measure_blocks"] is method


def test_self_time_excludes_traced_children():
    worker.load_program()
    from cenizk import harness

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        harness.run_session("crs-toy", harness.default_crs_params(), 4)
    finally:
        tracer.restore()
    # run_session's span covers the crs_* spans, so its self time is a sliver of their sum
    crs_total = sum(tracer.self_s[f"crs_protocol.{f}"] for f in ("crs_setup", "crs_prove", "crs_verify", "crs_cert"))
    assert 0 < tracer.self_s["harness.run_session"] < crs_total
    assert tracer.calls["state.apply_oracle"] >= 4


def test_counters_repeat_across_runs_with_one_seed():
    first = worker.run("derived-sound", seed=8, seconds=0, trace=True)["metrics"]
    second = worker.run("derived-sound", seed=8, seconds=0, trace=True)["metrics"]
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}


WRONG_VERDICTS = {
    "epr-c1": ("cenizk.epr_protocol", "epr_cert", lambda *a, **k: False),
    "crs-toy": ("cenizk.crs_protocol", "crs_cert", lambda *a, **k: False),
    "cezk-tiny": ("cenizk.epr_protocol", "epr_cert", lambda *a, **k: False),
    "derived-sound": ("cenizk.attacks", "derived_verify", lambda *a, **k: 1),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrong_verdict_raises_failed_ratio(name, monkeypatch):
    worker.load_program()
    module, attr, fake = WRONG_VERDICTS[name]
    monkeypatch.setattr(importlib.import_module(module), attr, fake)
    result = worker.run(name, seed=3, seconds=0, trace=False, min_samples=2)
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]
    lines, final = _final(result, bench_run.end_to_end(result, [result])[0])
    assert final["correct"] is False
    assert any(line.startswith("failed_ratio 1 ") for line in lines)


def _cli(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *extra, "perfbench/run.py", "--workload", "derived-sound", "--seed", "5", "--seconds", "0.2", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_cli_prints_environment_and_result_last():
    proc = _cli(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    for key in ("nproc", "python", "numpy", "git_commit", "seed", "assertions", "blas_threads"):
        assert key in env
    assert env["assertions"] is True and env["threads"] == 1
    for name in ("ops_per_s", "op_ms_p50", "op_ms_p90", "setup_s", "calibration_ms"):
        assert any(line.startswith(f"raw {name} ") for line in lines)
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"} and final["correct"] is True


def test_cli_refuses_optimized_python():
    proc = _cli(ROOT, "-O")
    assert proc.returncode == 2 and proc.stdout == ""


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
