"""Two-party in-process session harness, transcripts, and experiments.

A session drives the honest algorithms through an in-process channel:
classical payloads are recorded as length-prefixed binary messages,
quantum registers stay behind handles inside the process (the message
encoder cannot serialize them, which doubles as the structural check).
(params, seed) fully determine every byte of a transcript.

Experiments are registered by name and produce ExperimentReport rows
with acceptance counts and Hoeffding intervals; the acceptance suite
and the CLI share this registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import wire
from .graphs import (
    canonical_cycle,
    complete_digraph,
    non_hamiltonian_triangle,
    triangle_both_cycles,
)
from .hbnizk import HbParams
from .rng import stream

MAGIC = b"CENZ1"
VERSION = 1


class TranscriptError(ValueError):
    """Corrupt or incompatible transcript bytes."""


@dataclass
class Transcript:
    protocol: str
    params: dict
    seed: int
    messages: list = field(default_factory=list)  # (role, step, payload bytes)
    verdicts: dict = field(default_factory=dict)
    records: list = field(default_factory=list)  # measurement records

    def add_message(self, role: str, step: str, payload) -> None:
        self.messages.append((role, step, wire.encode(payload)))

    def add_record(self, role: str, step: str, bases: np.ndarray, outcomes: np.ndarray, label: str) -> None:
        self.records.append(
            {
                "role": role,
                "step": step,
                "count": int(np.asarray(outcomes).size),
                "bases": np.packbits(np.asarray(bases, dtype=np.uint8).ravel()),
                "outcomes": np.packbits(np.asarray(outcomes, dtype=np.uint8).ravel()),
                "rng_label": label,
            }
        )


def serialize_transcript(t: Transcript) -> bytes:
    body = wire.encode(
        {
            "protocol": t.protocol,
            "params": t.params,
            "seed": t.seed,
            "messages": [[role, step, payload] for role, step, payload in t.messages],
            "verdicts": t.verdicts,
            "records": t.records,
        }
    )
    return MAGIC + VERSION.to_bytes(2, "big") + body


def deserialize_transcript(data: bytes) -> Transcript:
    if len(data) < 7 or data[:5] != MAGIC:
        raise TranscriptError("bad magic header")
    version = int.from_bytes(data[5:7], "big")
    if version != VERSION:
        raise TranscriptError(f"unsupported transcript version {version}")
    try:
        body = wire.decode(data[7:])
    except wire.WireError as exc:
        raise TranscriptError(str(exc)) from exc
    if not isinstance(body, dict):
        raise TranscriptError("transcript body must be a dict")
    try:
        t = Transcript(body["protocol"], body["params"], body["seed"])
        t.messages = [(m[0], m[1], m[2]) for m in body["messages"]]
        t.verdicts = body["verdicts"]
        t.records = body["records"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TranscriptError("transcript body missing fields") from exc
    return t


def transcript_text(t: Transcript) -> str:
    lines = [f"protocol {t.protocol} seed {t.seed}"]
    for key in sorted(t.params):
        lines.append(f"param {key} = {t.params[key]}")
    for role, step, payload in t.messages:
        lines.append(f"message {role}/{step} ({len(payload)} bytes)")
    for rec in t.records:
        lines.append(
            f"measured {rec['role']}/{rec['step']}: {rec['count']} qubits (rng {rec['rng_label']})"
        )
    for key in sorted(t.verdicts):
        lines.append(f"verdict {key} = {t.verdicts[key]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------

EPR_STAGES = ("setup", "prove", "verify", "delete", "certify")
CRS_STAGES = ("setup", "prove", "verify", "certify")


def default_epr_params() -> dict:
    return {"n": 3, "reps": 1, "m": 3, "b": 1, "k": 4, "hbg": "dealer", "hbg_s": 12}


def default_crs_params() -> dict:
    return {"lam": 2, "witness": "1011", "sig_width": 16}


def _require_params(params, keys, what: str) -> None:
    """ValueError naming every key of `keys` that params lacks."""
    if not isinstance(params, dict):
        raise ValueError(f"{what} params must be a dict, got {type(params).__name__}")
    missing = [key for key in keys if key not in params]
    if missing:
        raise ValueError(f"{what} params missing {', '.join(missing)}")


def _epr_protocol_params(params: dict):
    from .epr_protocol import EprParams

    _require_params(params, default_epr_params(), "epr")
    hb = HbParams(
        n=int(params["n"]),
        repetitions=int(params["reps"]),
        matrix_side=int(params["m"]),
        block_len=int(params["b"]),
    )
    return EprParams(
        hb=hb, block_width=int(params["k"]), hbg_mode=params["hbg"], hbg_s=int(params["hbg_s"])
    )


def _epr_instance(params: dict):
    n = int(params["n"])
    return complete_digraph(n), canonical_cycle(n)


def run_session(protocol: str, params: dict | None, seed: int, stop_after: str | None = None) -> Transcript:
    """Drive the honest parties end to end (or through stop_after)."""
    if protocol == "epr":
        return _run_epr_session(params or default_epr_params(), seed, stop_after)
    if protocol == "crs-toy":
        return _run_crs_session(params or default_crs_params(), seed, stop_after)
    if protocol == "crs-dry":
        return _run_dry_session(params or default_crs_params(), seed)
    raise ValueError(f"unknown protocol {protocol!r}")


def _run_epr_session(params: dict, seed: int, stop_after: str | None) -> Transcript:
    from . import epr_protocol as ep

    stop = stop_after or "certify"
    if stop not in EPR_STAGES:
        raise ValueError(f"unknown stage {stop!r}")
    pp = _epr_protocol_params(params)
    x, witness = _epr_instance(params)
    t = Transcript("epr", dict(params), seed)

    crs, network = ep.epr_setup(pp, stream(seed, "setup"))
    t.add_message("setup", "crs", {"s": crs.s, "hbg": params["hbg"]})
    if stop == "setup":
        return t

    proof, prover = ep.epr_prove(pp, crs, network, x, witness, stream(seed, "prove"))
    t.add_message("prover", "proof", _epr_proof_payload(proof))
    t.add_record("prover", "measure-theta-basis", prover.theta, prover.y, "prove")
    if stop == "prove":
        return t

    b, residual = ep.epr_verify(pp, crs, network, x, proof, stream(seed, "verify"))
    t.verdicts["verify"] = int(b)
    if stop == "verify":
        return t

    cert, _ = ep.epr_delete(pp, residual, stream(seed, "delete"))
    t.add_message("verifier", "deletion-cert", {"blocks": cert.blocks, "outcomes": cert.outcomes})
    t.add_record("verifier", "measure-hadamard", np.ones_like(cert.outcomes), cert.outcomes, "delete")
    if stop == "delete":
        return t

    ok = ep.epr_cert(pp, cert, prover)
    t.verdicts["certify"] = bool(ok)
    return t


def _epr_proof_payload(proof) -> dict:
    return {
        "I": proof.I,
        "com": proof.com.data,
        "theta_I": proof.theta_I,
        "op": wire.opening_payload(proof.op_I),
        "pi_hb": wire.hbproof_payload(proof.pi_hb),
    }


def _crs_instance(params: dict):
    """(CrsParams, witness bits, toy statement) from session params."""
    from .crs_nizk import toy_encode
    from .crs_protocol import CrsParams

    _require_params(params, default_crs_params(), "crs-toy")
    pp = CrsParams(lam=int(params["lam"]), sig_width=int(params["sig_width"]))
    w = np.array([int(c) for c in params["witness"]], dtype=np.uint8)
    return pp, w, toy_encode(w)


def _run_crs_session(params: dict, seed: int, stop_after: str | None) -> Transcript:
    from . import crs_protocol as cp
    from .state import dump_lines

    stop = stop_after or "certify"
    if stop not in CRS_STAGES:
        raise ValueError(f"unknown stage {stop!r}")
    pp, w, x = _crs_instance(params)
    t = Transcript("crs-toy", dict(params), seed)

    crs = cp.crs_setup(stream(seed, "setup"))
    t.add_message("setup", "crs", {"in": crs.crs_in.tag, "out": crs.crs_out.tag})
    if stop == "setup":
        return t

    sigma, key = cp.crs_prove(pp, crs, x, w, stream(seed, "prove"))
    t.add_message(
        "prover",
        "proof",
        {"state_dump": "\n".join(dump_lines(sigma.state)), "ct0": sigma.ct0, "ct1": sigma.ct1},
    )
    # the revocation-verification key is entirely classical
    t.add_message(
        "prover",
        "prover-key",
        {
            "theta": key.theta,
            "k0": key.k0,
            "k1": key.k1,
            "y": key.y,
            "prfk": key.prfk,
            "preimages": key.preimages,
            "crs_out": key.crs_out.tag,
        },
    )
    if stop == "prove":
        return t

    b, residual = cp.crs_verify(pp, crs, x, sigma, stream(seed, "verify"))
    t.verdicts["verify"] = int(b)
    if stop == "verify":
        return t

    ok = cp.crs_cert(pp, key, x, residual, stream(seed, "certify"))
    t.verdicts["certify"] = bool(ok)
    return t


def _run_dry_session(params: dict, seed: int) -> Transcript:
    from . import crs_protocol as cp
    from .crs_nizk import CompiledSpec

    _require_params(params, ("lam",), "crs-dry")
    t = Transcript("crs-dry", dict(params), seed)
    hb = HbParams(n=3, repetitions=1, matrix_side=3, block_len=1)
    spec = CompiledSpec(hb=hb, hbg_mode="dealer")
    crs = cp.crs_setup_dry(spec, stream(seed, "setup"))
    x, witness = triangle_both_cycles()[0], canonical_cycle(3)
    record = cp.crs_prove_dry(cp.CrsParams(lam=int(params["lam"])), crs, x, witness, stream(seed, "prove"))
    t.add_message("prover", "dry-run", {"ell": record.ell, "ct0": record.ct0, "ct1": record.ct1})
    for name, ok in record.checks.items():
        t.verdicts[name] = bool(ok)
    return t


# ---------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    trials: int
    successes: int
    estimate: float
    ci_halfwidth: float
    wall_clock: float
    extra: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = [
            f"experiment {self.name}",
            f"trials {self.trials}",
            f"successes {self.successes}",
            f"estimate {self.estimate:.6f}",
            f"ci_halfwidth {self.ci_halfwidth:.6f}",
            f"wall_clock_s {self.wall_clock:.3f}",
        ]
        for key in sorted(self.extra):
            lines.append(f"{key} {self.extra[key]}")
        return "\n".join(lines)


def hoeffding_halfwidth(trials: int, alpha: float = 0.05) -> float:
    if trials <= 0:
        return 0.0
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))


def _report(name, trials, successes, t0, extra=None) -> ExperimentReport:
    est = successes / trials if trials else 0.0
    return ExperimentReport(
        name, trials, successes, est, hoeffding_halfwidth(trials), time.time() - t0, extra or {}
    )


def _exp_epr_honest(trials: int, params: dict | None, seed: int) -> ExperimentReport:
    from . import epr_protocol as ep

    params = params or default_epr_params()
    pp = _epr_protocol_params(params)
    x, witness = _epr_instance(params)
    t0 = time.time()
    good = 0
    for trial in range(trials):
        rng = stream(seed, "epr-honest", trial)
        crs, network = ep.epr_setup(pp, rng)
        proof, prover = ep.epr_prove(pp, crs, network, x, witness, rng)
        b, residual = ep.epr_verify(pp, crs, network, x, proof, rng)
        cert, _ = ep.epr_delete(pp, residual, rng)
        good += int(b == 1 and ep.epr_cert(pp, cert, prover))
    return _report("epr-honest", trials, good, t0)


def _exp_epr_soundness(trials: int, params: dict | None, seed: int, prover_kind: str) -> ExperimentReport:
    from . import epr_protocol as ep

    params = params or {**default_epr_params(), "n": 3, "reps": 20, "m": 27, "b": 8, "k": 6}
    pp = _epr_protocol_params(params)
    x = non_hamiltonian_triangle()
    t0 = time.time()
    accepted = 0
    for trial in range(trials):
        rng = stream(seed, "epr-soundness", prover_kind, trial)
        crs, network = ep.epr_setup(pp, rng)
        ep.premeasure_all_z(pp, network, rng)  # the measure-first verifier
        if prover_kind == "greedy":
            proof = ep.greedy_basis_prover(pp, crs, network, x, rng)
        else:
            proof = ep.forged_proof_prover(pp, crs, network, x, rng)
        accepted += ep.hypothetical_verifier(pp, crs, network, x, proof, rng)
    return _report(f"epr-soundness-{prover_kind}", trials, accepted, t0)


def _exp_epr_single_rep(trials: int, params: dict | None, seed: int) -> ExperimentReport:
    """Greedy prover at one repetition, next to the matrix-level
    Monte-Carlo oracle for the coverable-block rate."""
    from . import epr_protocol as ep
    from .hbnizk import rep_coverable

    params = params or {**default_epr_params(), "n": 3, "reps": 1, "m": 27, "b": 8, "k": 6}
    pp = _epr_protocol_params(params)
    x = non_hamiltonian_triangle()
    t0 = time.time()
    accepted = 0
    for trial in range(trials):
        rng = stream(seed, "epr-single", trial)
        crs, network = ep.epr_setup(pp, rng)
        ep.premeasure_all_z(pp, network, rng)
        proof = ep.greedy_basis_prover(pp, crs, network, x, rng, genbits_tries=1)
        accepted += ep.hypothetical_verifier(pp, crs, network, x, proof, rng)
    oracle_rng = stream(seed, "epr-single-oracle")
    oracle_trials = max(4 * trials, 2000)
    hits = 0
    for _ in range(oracle_trials):
        block = oracle_rng.integers(0, 2, size=pp.hb.bits_per_rep, dtype=np.uint8)
        hits += rep_coverable(block, x, pp.hb, oracle_rng)
    oracle = hits / oracle_trials
    p_hat = accepted / trials
    sigma = math.sqrt(
        oracle * (1 - oracle) / oracle_trials + max(p_hat * (1 - p_hat), 1.0 / trials) / trials
    )
    return _report(
        "epr-single-rep",
        trials,
        accepted,
        t0,
        {"oracle_estimate": oracle, "oracle_trials": oracle_trials, "sigma": sigma},
    )


def _exp_deletion(trials: int, params: dict | None, seed: int, which: str) -> ExperimentReport:
    from . import attacks

    t0 = time.time()
    rng = stream(seed, "deletion", which)
    if which == "honest-td":
        exp = attacks.DeletionExperiment(int((params or {}).get("lam", 3)))
        est = attacks.td_estimate(exp, rng)
        return _report("deletion-honest-td", 1, 1, t0, {"td": est.value, "exact": est.exact})
    if which == "leaking-td":
        exp = attacks.DeletionExperiment(
            int((params or {}).get("lam", 2)), attacks.Z_THETA_LEAKING, attacks.ADV_BASIS_INFORMED
        )
        est = attacks.td_estimate(exp, rng)
        return _report("deletion-leaking-td", 1, 1, t0, {"td": est.value, "exact": est.exact})
    if which == "keep-state":
        lam = int((params or {}).get("lam", 4))
        exp = attacks.DeletionExperiment(lam, attacks.Z_PLAIN, attacks.ADV_KEEP_STATE)
        hits = sum(attacks.run_deletion_experiment(exp, 0, rng).accepted for _ in range(trials))
        return _report("deletion-keep-state", trials, hits, t0, {"analytic": 0.75**lam})
    raise ValueError(f"unknown deletion experiment {which!r}")


def _exp_crs_honest(trials: int, params: dict | None, seed: int) -> ExperimentReport:
    from . import crs_protocol as cp

    pp, w, x = _crs_instance(params or default_crs_params())
    t0 = time.time()
    good = 0
    for trial in range(trials):
        rng = stream(seed, "crs-honest", trial)
        crs = cp.crs_setup(rng)
        sigma, key = cp.crs_prove(pp, crs, x, w, rng)
        b, residual = cp.crs_verify(pp, crs, x, sigma, rng)
        ok = cp.crs_cert(pp, key, x, residual, rng)
        good += int(b == 1 and ok)
    return _report("crs-honest", trials, good, t0)


def _exp_attack(trials: int, params: dict | None, seed: int, which: str) -> ExperimentReport:
    from . import attacks
    from . import crs_protocol as cp
    from .crs_nizk import toy_encode

    t0 = time.time()
    if which == "split-strawman":
        sp = attacks.StrawmanParams()
        g, w, _ = triangle_both_cycles()
        wins = 0
        for trial in range(trials):
            out = attacks.split_attack(sp, g, w, stream(seed, which, trial))
            wins += int(out.cert_accepts and out.verify_accepts)
        return _report(which, trials, wins, t0)
    if which == "split-crs":
        pp = cp.CrsParams()
        w = np.array([1, 0, 1, 1], dtype=np.uint8)
        x = toy_encode(w)
        wins = 0
        for trial in range(trials):
            rng = stream(seed, which, trial)
            crs = cp.crs_setup(rng)
            out = attacks.split_attack_on_crs(pp, crs, x, w, rng)
            wins += int(out.cert_accepts and out.verify_accepts)
        return _report(which, trials, wins, t0)
    if which == "clone":
        pp = cp.CrsParams()
        w = np.array([1, 0, 1, 1], dtype=np.uint8)
        x = toy_encode(w)
        wins = 0
        for trial in range(trials):
            rng = stream(seed, which, trial)
            crs = cp.crs_setup(rng)
            sigma, key = cp.crs_prove(pp, crs, x, w, rng)
            clone = cp.clone_attack(pp, sigma)
            va = cp.verify_clone_half(pp, x, clone, "original", rng)
            vb = cp.verify_clone_half(pp, x, clone, "copy", rng)
            wins += int(va == 1 and vb == 1)
        return _report(which, trials, wins, t0)
    if which == "derived-complete":
        sp = attacks.StrawmanParams()
        g, w, _ = triangle_both_cycles()
        wins = 0
        for trial in range(trials):
            rng = stream(seed, which, trial)
            pkg = attacks.derived_prove(sp, g, w, rng)
            wins += attacks.derived_verify(sp, g, pkg, rng)
        return _report(which, trials, wins, t0)
    if which == "derived-sound":
        sp = attacks.StrawmanParams()
        bad = non_hamiltonian_triangle()
        wins = 0
        for trial in range(trials):
            rng = stream(seed, which, trial)
            pkg = attacks.derived_soundness_adversary(sp, bad, rng)
            wins += attacks.derived_verify(sp, bad, pkg, rng)
        return _report(which, trials, wins, t0)
    raise ValueError(f"unknown attack {which!r}")


def _exp_hbg_binding(trials: int, params: dict | None, seed: int) -> ExperimentReport:
    from . import hbg as hbg_mod

    params = params or {}
    s = int(params.get("s", 12))
    k = int(params.get("k", 8))
    t0 = time.time()
    equivocations = 0
    mismatches = 0
    for trial in range(trials):
        rng = stream(seed, "hbg-binding", trial)
        crs = hbg_mod.hbg_setup(k, "naor", rng, s=s)
        com, r, _ = hbg_mod.hbg_genbits(crs, rng)
        res = hbg_mod.hbg_open(crs, com)
        equivocations += int(res.equivocal.any())
        mismatches += int(not np.array_equal(res.bits, r))
    good = trials - max(equivocations, mismatches)
    return _report(
        "hbg-binding", trials, good, t0, {"equivocations": equivocations, "open_mismatches": mismatches}
    )


_EXPERIMENTS = {
    "epr-honest": _exp_epr_honest,
    "epr-soundness-greedy": lambda t, p, s: _exp_epr_soundness(t, p, s, "greedy"),
    "epr-soundness-forged": lambda t, p, s: _exp_epr_soundness(t, p, s, "forged"),
    "epr-single-rep": _exp_epr_single_rep,
    "deletion-honest-td": lambda t, p, s: _exp_deletion(t, p, s, "honest-td"),
    "deletion-leaking-td": lambda t, p, s: _exp_deletion(t, p, s, "leaking-td"),
    "deletion-keep-state": lambda t, p, s: _exp_deletion(t, p, s, "keep-state"),
    "crs-honest": _exp_crs_honest,
    "split-strawman": lambda t, p, s: _exp_attack(t, p, s, "split-strawman"),
    "split-crs": lambda t, p, s: _exp_attack(t, p, s, "split-crs"),
    "clone": lambda t, p, s: _exp_attack(t, p, s, "clone"),
    "derived-complete": lambda t, p, s: _exp_attack(t, p, s, "derived-complete"),
    "derived-sound": lambda t, p, s: _exp_attack(t, p, s, "derived-sound"),
    "hbg-binding": _exp_hbg_binding,
}


def experiment_names() -> list[str]:
    return sorted(_EXPERIMENTS)


def run_experiment(name: str, trials: int, params: dict | None, seed: int) -> ExperimentReport:
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; known: {', '.join(experiment_names())}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials == 0:
        return ExperimentReport(name, 0, 0, 0.0, 0.0, 0.0, {})
    return _EXPERIMENTS[name](trials, params, seed)


__all__ = [
    "EPR_STAGES",
    "ExperimentReport",
    "Transcript",
    "TranscriptError",
    "default_crs_params",
    "default_epr_params",
    "deserialize_transcript",
    "experiment_names",
    "hoeffding_halfwidth",
    "run_experiment",
    "run_session",
    "serialize_transcript",
    "transcript_text",
]
