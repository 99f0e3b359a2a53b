"""Benchmark worker: sets up one workload and measures it in this process.

Run by `run.py`, one worker at a time:

    python3 perfbench/worker.py --workload epr-c1 --seed 1 --seconds 20 \
        --trace 0 --role run --t-spawn <time.monotonic() at spawn>

With `--role probe` it stops after set-up and reports only its set-up
time. The last stdout line is a JSON object for `run.py`; diagnostics
go to stderr.

Ops run closed loop: one caller, the next op starts after the previous
one returns. Measurement runs whole passes of a workload's inputs until
`--seconds` have passed and at least MIN_SAMPLES ops are timed, so every
run sees the same input mix and p90 has ten samples beyond it. End-to-end
timings are scaled to a reference host speed by `hostclock`; the raw
wall-clock figures are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SAMPLES = 100  # p90 with ten samples beyond it
MIN_TRACED_PASSES = 2  # counters are compared pass against pass
SETUP_CAL_RUNS = 9  # calibration kernel runs that scale setup_s
HARD_CAP_S = 120.0  # a measurement phase never runs longer, whatever MIN_SAMPLES asks


class SetupError(RuntimeError):
    """The program or its checkout cannot be benchmarked."""


def load_program(root: Path = ROOT):
    """Import cenizk from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "cenizk" / "__init__.py").is_file():
        raise SetupError(f"no cenizk package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cenizk

    if Path(cenizk.__file__).resolve().parent != (src / "cenizk").resolve():
        raise SetupError(f"cenizk imported from {cenizk.__file__}, not from {src}")
    return cenizk


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "assertions": __debug__,
        "threads": threading.active_count(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _run_pass(wl, inputs, latencies: list, tracer=None, clock=None, scale_index: list | None = None) -> int:
    """Time one op per input; returns how many failed their check. With a
    `clock`, `scale_index` gets the kernel sample that scales each op."""
    failed = 0
    for inp in inputs:
        if clock is not None:
            scale_index.append(clock.before_op())
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = wl.op(inp)
        except Exception:  # a raising op is a failed op; keep measuring
            result = None
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if result is None or not wl.check(inp, result):
            failed += 1
        del result  # the next op must not overlap this op's arrays in RSS
    return failed


def _measure(wl, seconds: float, min_samples: int, inputs_for, clock):
    """Whole passes until `seconds` and `min_samples` are both reached.
    Returns (latencies, the clock's sample index for each op, failed)."""
    latencies: list[float] = []
    scale_index: list[int] = []
    failed = 0
    passes = 0
    start = time.perf_counter()
    while True:
        failed += _run_pass(wl, inputs_for(passes), latencies, clock=clock, scale_index=scale_index)
        passes += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= min_samples) or elapsed >= HARD_CAP_S:
            return latencies, scale_index, failed


def _setup(wl) -> list[str]:
    """Warm-up ops, run twice on one input: outputs must pass their check
    and repeat byte for byte. Returns the problems found."""
    problems = []
    inp = wl.warmup_input()
    first = wl.op(inp)
    second = wl.op(inp)
    if not (wl.check(inp, first) and wl.check(inp, second)):
        problems.append(f"warm-up op on input {inp} failed its check")
    if wl.fingerprint(first) != wl.fingerprint(second):
        problems.append(f"input {inp} gave different outputs on a rerun")
    return problems


def _timings(latencies: list[float]) -> dict:
    ms = sorted(1000.0 * t for t in latencies)
    deciles = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else [ms[0]] * 9
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1000.0),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": deciles[8],
    }


def _traced(wl, seconds: float, inputs0: list):
    """Alternate untraced and traced passes over the pass-0 inputs until
    `seconds` have passed. Interleaving keeps drift out of the overhead
    figure; fixed inputs make every traced pass count the same. Returns
    (latencies, failed, per-layer metrics, problems)."""
    import spans

    tracer = spans.Tracer()
    lat_u: list[float] = []
    lat_t: list[float] = []
    failed = 0
    first_counts = None
    problems: list[str] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        failed += _run_pass(wl, inputs0, lat_u)
        tracer.counters.clear()
        tracer.install()
        try:
            failed += _run_pass(wl, inputs0, lat_t, tracer)
        finally:
            tracer.restore()
        rounds += 1
        counts = tracer.counter_values()
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            diff = {k: (first_counts[k], v) for k, v in counts.items() if v != first_counts[k]}
            problems.append(f"traced pass {rounds} counted differently from pass 1: {diff}")
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and rounds >= MIN_TRACED_PASSES) or elapsed >= HARD_CAP_S:
            break

    ops = len(lat_t)
    per_op = len(inputs0)
    metrics = {}
    for name in spans.span_names():
        metrics[f"{name}.self_ms"] = 1000.0 * tracer.self_s[name] / ops
        metrics[f"{name}.calls"] = tracer.calls[name] / ops
    for name in ("epr.pairs_measured", "epr_protocol.deleted_blocks", "hbg.positions_verified", "state.terms_in", "wire.bytes"):
        metrics[name] = first_counts[name] / per_op
    metrics["state.peak_terms"] = first_counts["state.peak_terms"]
    reps = first_counts["hbnizk.reps"]
    metrics["hbnizk.useful_reps_ratio"] = first_counts["hbnizk.useful_reps"] / reps if reps else 0.0
    untraced = len(lat_u) / sum(lat_u)
    traced = ops / sum(lat_t)
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.traced_ops_per_s"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
    return lat_u + lat_t, failed, metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool, role: str = "run", t_spawn: float | None = None, min_samples: int = MIN_SAMPLES) -> dict:
    """Set up and (for role "run") measure one workload in this process."""
    t_spawn = time.monotonic() if t_spawn is None else t_spawn
    load_program()
    import hostclock
    import workloads

    wl = workloads.make(workload, seed)
    problems = _setup(wl)
    inputs0 = wl.inputs(0)
    setup_raw_s = time.monotonic() - t_spawn
    clock = hostclock.HostClock(wl.interpreter_share)
    setup_s = setup_raw_s * clock.scale_now(SETUP_CAL_RUNS)
    if role == "probe":
        return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}

    raw = {}
    if trace:
        latencies, failed, metrics, more = _traced(wl, seconds, inputs0)
        problems += more
    else:
        latencies, scale_index, failed = _measure(wl, seconds, min_samples, lambda p: inputs0 if p == 0 else wl.inputs(p), clock)
        metrics = _timings(clock.scaled(latencies, scale_index))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = _timings(latencies)
        raw["calibration_ms"] = 1000.0 * statistics.median(clock.samples)
    return {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "raw": raw,
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "env": environment(),
    }


def main(argv: list[str] | None = None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not __debug__:
        print("refusing to run under python -O: SparseState invariant checks would be skipped", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "probe"), default="run")
    parser.add_argument("--t-spawn", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.role, args.t_spawn)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
