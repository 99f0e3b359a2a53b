"""Layered benchmark for cenizk. See perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Starts one worker process that sets up the workload and measures it in a
single thread, then SETUP_PROBES more workers that only set up, one at a
time, so that `setup_s` is a median. Prints the environment, one line
per metric with its unit, the unscaled wall-clock timings (see
hostclock.py) and, as the last line, the JSON result:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # extra set-up-only workers; setup_s is the median of 1 + SETUP_PROBES
RUN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


class BenchError(RuntimeError):
    pass


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would walk up into an enclosing repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, role: str, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ]
    t_spawn = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t-spawn", repr(t_spawn)], stdout=subprocess.PIPE, text=True, timeout=timeout, env=child_env()
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics and the unscaled timings; each worker result
    in `setups` gives one set-up time."""
    metrics = dict(result["metrics"], setup_s=statistics.median(r["setup_s"] for r in setups))
    raw = dict(result["raw"], setup_s=statistics.median(r["setup_raw_s"] for r in setups))
    return metrics, raw


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_units() -> dict:
    spec = load_spec()
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def report(result: dict, metrics: dict, env: dict, units: dict, raw: dict | None = None) -> list[str]:
    """Printed lines; the last is the JSON result."""
    attempted, failed = result["attempted"], result["failed"]
    lines = ["env " + json.dumps(env, sort_keys=True)]
    lines += [f"problem {p}" for p in result["problems"]]
    lines.append(f"samples {attempted}")
    lines.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    raw_units = dict(units, calibration_ms="ms")
    lines += [f"raw {name} {value:.6g} {raw_units[name]} (wall clock, unscaled)" for name, value in (raw or {}).items()]
    final = {
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    lines.append(json.dumps(final))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cenizk layered benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: SparseState invariant checks would be skipped", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cenizk" / "__init__.py").is_file():
        print(f"no cenizk source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = load_units()
    try:
        result = run_worker(args, "run", RUN_TIMEOUT_S)
        setups = [result]
        raw = None
        if args.trace:
            metrics = result["metrics"]
        else:
            setups += [run_worker(args, "probe", PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
            metrics, raw = end_to_end(result, setups)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = dict(result["env"], git_commit=git_commit(), workload=args.workload, seed=args.seed, setup_samples=len(setups))
    print("\n".join(report(result, metrics, env, units, raw)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
