"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each listed public function with a wrapper
that records a `time.perf_counter` span and the layer's counters. A
function is replaced in every `cenizk.*` module namespace that holds it,
because callers that did `from .state import apply_oracle` look it up in
their own module; methods are replaced on their class. `restore()` puts
every original object back.

Self time is a span's duration minus the durations of the traced spans
nested directly inside it. Spans are aggregated as they close (sum of
self time and call count per function) instead of being stored, so a
long traced run holds no growing span list.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# layer (module under cenizk) -> traced functions; "Class.method" for methods
TARGETS: dict[str, tuple[str, ...]] = {
    "epr": ("EprNetwork.measure_blocks", "EprNetwork.half_state"),
    "epr_protocol": ("epr_setup", "epr_prove", "epr_verify", "epr_delete", "epr_cert", "epr_sim"),
    "hbnizk": ("hb_prove", "hb_verify", "hb_simulate"),
    "hbg": ("hbg_setup", "hbg_genbits", "hbg_verify_batch", "restrict_opening"),
    "state": (
        "prep_bb84",
        "apply_oracle",
        "project",
        "measure",
        "append_register",
        "drop_last_register",
        "dump_lines",
    ),
    "crs_protocol": ("crs_setup", "crs_prove", "crs_verify", "crs_cert"),
    "attacks": ("derived_soundness_adversary", "derived_verify", "commit_bits"),
    "wire": ("encode", "decode"),
    "harness": ("run_session", "serialize_transcript", "deserialize_transcript"),
    "rng": ("stream",),
}

# counters that must repeat exactly for identical inputs
EXACT_COUNTERS = (
    "epr.pairs_measured",
    "epr_protocol.deleted_blocks",
    "hbnizk.useful_reps",
    "hbnizk.reps",
    "hbg.positions_verified",
    "state.terms_in",
    "state.peak_terms",
    "wire.bytes",
)


def span_names() -> list[str]:
    """Metric prefix of every traced function, e.g. "epr.measure_blocks"."""
    return [f"{layer}.{qual.rsplit('.', 1)[-1]}" for layer, quals in TARGETS.items() for qual in quals]


# ---------------------------------------------------------------------
# counter hooks: (counters, args, kwargs, result) after a call returns
# ---------------------------------------------------------------------


def _terms(obj) -> int:
    amps = getattr(obj, "amps", None)
    return len(amps) if amps is not None else 0


def _state_hook(c: Counter, args, kwargs, result) -> None:
    state_in = args[0] if args else kwargs.get("state")
    n_in = _terms(state_in)
    c["state.terms_in"] += n_in
    parts = result if isinstance(result, tuple) else (result,)
    peak = max([n_in] + [_terms(p) for p in parts])
    if peak > c["state.peak_terms"]:
        c["state.peak_terms"] = peak


def _useful_reps(c: Counter, proof) -> None:
    from cenizk.hbnizk import RepUseful

    c["hbnizk.reps"] += len(proof.reps)
    c["hbnizk.useful_reps"] += sum(isinstance(rep, RepUseful) for rep in proof.reps)


def _verify_batch_hook(c: Counter, args, kwargs, result) -> None:
    indices = args[2] if len(args) > 2 else kwargs["indices"]
    c["hbg.positions_verified"] += len(indices)


HOOKS = {
    "epr.measure_blocks": lambda c, a, k, r: c.update({"epr.pairs_measured": int(r.size)}),
    "epr_protocol.epr_delete": lambda c, a, k, r: c.update({"epr_protocol.deleted_blocks": len(r[0].blocks)}),
    "hbnizk.hb_prove": lambda c, a, k, r: _useful_reps(c, r[1]),
    "hbnizk.hb_simulate": lambda c, a, k, r: _useful_reps(c, r[2]),
    "hbg.hbg_verify_batch": _verify_batch_hook,
    "wire.encode": lambda c, a, k, r: c.update({"wire.bytes": len(r)}),
    "wire.decode": lambda c, a, k, r: c.update({"wire.bytes": len(a[0] if a else k["data"])}),
}
for _name in span_names():
    if _name.startswith("state."):
        HOOKS[_name] = _state_hook  # prep_bb84 has no input state; its output still counts toward the peak


class Tracer:
    """Span and counter recorder; inactive outside `active` windows."""

    def __init__(self):
        self.active = False
        self.self_s = {name: 0.0 for name in span_names()}
        self.calls = {name: 0 for name in span_names()}
        self.counters: Counter = Counter()
        self._stack: list[float] = []
        self._replaced: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self.self_s[name] += duration - children
                self.calls[name] += 1
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer already installed")
        for layer, quals in TARGETS.items():
            module = importlib.import_module(f"cenizk.{layer}")
            for qual in quals:
                name = f"{layer}.{qual.rsplit('.', 1)[-1]}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._replaced.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(name, original))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "cenizk" or mod is None:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replaced.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)
        self.active = False

    def counter_values(self) -> dict[str, int]:
        return {name: int(self.counters[name]) for name in EXACT_COUNTERS}
