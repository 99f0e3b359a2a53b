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

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import attacks, wire
from . import crs_protocol as cp
from . import epr_protocol as ep
from . import hbg as hbg_mod
from . import rng as rng_mod
from .attacks import hoeffding_halfwidth
from .bits import as_bit_array
from .crs_nizk import CompiledSpec, toy_encode
from .graphs import (
    canonical_cycle,
    complete_digraph,
    non_hamiltonian_triangle,
    triangle_both_cycles,
)
from .hbnizk import HbParams, rep_coverable
from .rng import stream
from .state import dump_lines

MAGIC = b"CENZ1"
VERSION = 4


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

    def add_record(self, role: str, step: str, bases: np.ndarray, outcomes: np.ndarray, width: int, label: str) -> None:
        """Record whole blocks' basis and outcome words as they are."""
        self.records.append(
            {
                "role": role,
                "step": step,
                "count": len(outcomes) * width,
                "bases": bases,
                "outcomes": outcomes,
                "rng_label": label,
            }
        )


def serialize_transcript(t: Transcript) -> bytes:
    """MAGIC, VERSION and the wire-encoded body, joined in one copy."""
    return wire.encode(
        {
            "protocol": t.protocol,
            "params": t.params,
            "seed": t.seed,
            "messages": [[role, step, payload] for role, step, payload in t.messages],
            "verdicts": t.verdicts,
            "records": t.records,
        },
        prefix=MAGIC + VERSION.to_bytes(2, "big"),
    )


def deserialize_transcript(data: bytes) -> Transcript:
    """The transcript in data; its arrays are read-only views into data."""
    if len(data) < 7 or data[:5] != MAGIC:
        raise TranscriptError("bad magic header")
    version = int.from_bytes(data[5:7], "big")
    if version != VERSION:
        raise TranscriptError(f"unsupported transcript version {version}")
    try:
        body = wire.decode(memoryview(data)[7:])
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


# Size caps on session and experiment params, so that a params dict (a
# replayed transcript's among them) cannot ask for an unbounded run. Each
# cap sits above every shape the acceptance suite and the benchmark run:
# the largest EPR session is criterion 1's 4,915,200 pairs, every CRS
# session uses lam=2 and sig_width=16, the deletion experiments run at
# lam 2-8 (8 in the deletion digest) and every seed width is 8, 10 or 12.
# A key "a*b" caps the product of params a, b.
SIZE_CAPS = {
    # reps*m*m*b*k is the EPR pair count (hidden bits times block width);
    # a block's bases and outcomes are one byte each, so k is at most 8;
    # the generator's seed width is at most hbg.SEED_BITS_MAX
    "epr": {"reps*m*m*b*k": 1 << 23, "k": 8, "hbg_s": hbg_mod.SEED_BITS_MAX},
    # toy states hold up to 2^(8*lam) terms; the OWF images have 64 bits
    "crs-toy": {"lam": 3, "sig_width": 64},
    # the dry run hashes 2*ell encoding positions per unit of lam (4,160
    # at its fixed triangle statement); it refuses every sig_width but 16
    "crs-dry": {"lam": 16},
    # prep_bb84 builds 2^wt(theta) terms, up to 2^lam, on every trial
    **dict.fromkeys(("deletion-honest-td", "deletion-leaking-td", "deletion-keep-state"), {"lam": 8}),
    # G is one table over all 2^s seeds (s at most hbg.SEED_BITS_MAX); each
    # trial commits k bits and Open tests 2k rows against G's image
    "hbg-binding": {"s": hbg_mod.SEED_BITS_MAX, "k": 1024},
}


def _require_params(params, defaults: dict, what: str) -> dict:
    """The params a run takes: a copy of defaults when params is None, else
    params itself, which must be complete. ValueError naming every key of
    params not in defaults, every key of defaults not in params, the first
    key whose value is not exactly of the default value's type (a bool is
    no int), the first integer (a size) below 1, or the first size above
    its SIZE_CAPS cap under what, the run's family."""
    params = dict(defaults) if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"{what} params must be a dict, got {type(params).__name__}")
    unknown = [str(key) for key in params if key not in defaults]
    if unknown:
        raise ValueError(f"{what} has no param {', '.join(unknown)}; known: {', '.join(defaults) or 'none'}")
    missing = [key for key in defaults if key not in params]
    if missing:
        raise ValueError(f"{what} params missing {', '.join(missing)}")
    for key, default in defaults.items():
        if type(params[key]) is not type(default):
            raise ValueError(f"{what} param {key} must be a {type(default).__name__}, got {params[key]!r}")
        if isinstance(default, int) and params[key] < 1:
            raise ValueError(f"{what} param {key} must be at least 1, got {params[key]!r}")
    for name, cap in SIZE_CAPS.get(what, {}).items():
        size = math.prod(params[key] for key in name.split("*"))
        if size > cap:
            raise ValueError(f"{what} param {name} must be at most {cap}, got {size}")
    return params


def _epr_protocol_params(params: dict) -> ep.EprParams:
    """EprParams from checked epr params; a dealer run refuses hbg_s."""
    if params["hbg"] == "dealer":
        _refuse_unread(params, default_epr_params(), ("hbg_s",), "epr", "a dealer session")
    hb = HbParams(n=params["n"], repetitions=params["reps"], matrix_side=params["m"], block_len=params["b"])
    return ep.EprParams(hb=hb, block_width=params["k"], hbg_mode=params["hbg"], hbg_s=params["hbg_s"])


def run_session(protocol: str, params: dict | None, seed: int, stop_after: str | None = None) -> Transcript:
    """Drive the honest parties end to end (or through stop_after).

    params is None (the protocol's defaults) or a complete dict. stop_after
    must be one of the protocol's stages. The classical dry run is a single
    step, so every crs-dry stage gives its whole record."""
    if protocol not in _SESSIONS:
        raise ValueError(f"unknown protocol {protocol!r}")
    stages, defaults, run = _SESSIONS[protocol]
    if stop_after is not None and stop_after not in stages:
        raise ValueError(f"{protocol} has no stage {stop_after!r}; stages: {', '.join(stages)}")
    _require_count(seed, "seed")
    return run(_require_params(params, defaults, protocol), seed, stop_after or stages[-1])


def _require_count(value, what: str) -> None:
    """ValueError unless value is a Python or numpy integer (a bool is none) of at least 0."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, got {value!r}")


def _refuse_unread(params: dict, defaults: dict, keys: tuple, what: str, session: str) -> None:
    """ValueError naming the first of keys, params the session never reads,
    that is not its default: one session has one transcript."""
    for key in keys:
        if params[key] != defaults[key]:
            raise ValueError(f"{what} param {key} must be {defaults[key]!r}: {session} never reads it")


def _run_epr_session(params: dict, seed: int, stop: str) -> Transcript:
    pp = _epr_protocol_params(params)
    x, witness = complete_digraph(pp.hb.n), canonical_cycle(pp.hb.n)
    t = Transcript("epr", dict(params), seed)

    crs, network = ep.epr_setup(pp, stream(seed, "setup"))
    t.add_message("setup", "crs", {"s": np.packbits(crs.s), "hbg": params["hbg"]})
    if stop == "setup":
        return t

    proof, prover = ep.epr_prove(pp, crs, network, x, witness, stream(seed, "prove"))
    t.add_message("prover", "proof", _epr_proof_payload(proof))
    t.add_record("prover", "measure-theta-basis", prover.theta, prover.y, pp.block_width, "prove")
    if stop == "prove":
        return t

    b, residual = ep.epr_verify(pp, crs, network, x, proof, stream(seed, "verify"))
    t.verdicts["verify"] = int(b)
    if stop == "verify":
        return t

    cert, _ = ep.epr_delete(pp, residual, stream(seed, "delete"))
    t.add_message("verifier", "deletion-cert", {"blocks": cert.blocks, "outcomes": cert.outcomes})
    hadamard = np.full_like(cert.outcomes, (1 << pp.block_width) - 1)
    t.add_record("verifier", "measure-hadamard", hadamard, cert.outcomes, pp.block_width, "delete")
    if stop == "delete":
        return t

    ok = ep.epr_cert(pp, cert, prover)
    t.verdicts["certify"] = bool(ok)
    return t


def _epr_proof_payload(proof) -> dict:
    return {
        "opened": np.packbits(proof.opened),
        "com": proof.com.data,
        "theta_I": proof.theta_I,
        "op": wire.opening_payload(proof.op_I),
        "pi_hb": wire.hbproof_payload(proof.pi_hb),
    }


def _crs_params(params: dict, what: str):
    """(CrsParams, witness bits) from checked crs-toy or crs-dry params."""
    pp = cp.CrsParams(lam=params["lam"], sig_width=params["sig_width"])
    try:
        w = as_bit_array(params["witness"])
    except ValueError:
        raise ValueError(f"{what} param witness must be a 0/1 string, got {params['witness']!r}") from None
    return pp, w


def _crs_instance(params: dict):
    """(CrsParams, witness bits, toy statement) from session params."""
    pp, w = _crs_params(params, "crs-toy")
    return pp, w, toy_encode(w)


def _run_crs_session(params: dict, seed: int, stop: str) -> Transcript:
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

    ok = cp.crs_cert(pp, key, residual, stream(seed, "certify"))
    t.verdicts["certify"] = bool(ok)
    return t


def _run_dry_session(params: dict, seed: int, stop: str) -> Transcript:
    # the rehearsal proves a fixed triangle cycle and signs honestly, so
    # it reads neither witness nor sig_width; both are validated, then refused
    pp, _ = _crs_params(params, "crs-dry")
    _refuse_unread(params, default_crs_params(), ("witness", "sig_width"), "crs-dry", "the dry run")
    t = Transcript("crs-dry", dict(params), seed)
    hb = HbParams(n=3, repetitions=1, matrix_side=3, block_len=1)
    spec = CompiledSpec(hb=hb, hbg_mode="dealer")
    crs = cp.crs_setup_dry(spec, stream(seed, "setup"))
    x, witness = triangle_both_cycles()[0], canonical_cycle(3)
    record = cp.crs_prove_dry(pp, crs, x, witness, stream(seed, "prove"))
    t.add_message("prover", "dry-run", {"ell": record.ell, "ct0": record.ct0, "ct1": record.ct1})
    for name, ok in record.checks.items():
        t.verdicts[name] = bool(ok)
    return t


# protocol -> (stages, default params, session body)
_SESSIONS = {
    "epr": (EPR_STAGES, default_epr_params(), _run_epr_session),
    "crs-toy": (CRS_STAGES, default_crs_params(), _run_crs_session),
    "crs-dry": (CRS_STAGES, default_crs_params(), _run_dry_session),
}


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


def _per_trial(trial, trials: int, seed: int, *label):
    """The trial loop: successes of trial(rng) over trials, trial t on stream(seed, *label, t)."""
    return trials, sum(bool(trial(stream(seed, *label, t))) for t in range(trials)), {}


def _epr_honest(trials: int, params: dict, seed: int):
    pp = _epr_protocol_params(params)
    x, witness = complete_digraph(pp.hb.n), canonical_cycle(pp.hb.n)

    def trial(rng):
        out, _, _ = ep.run_cezk_real(pp, x, witness, ep.honest_delete_vstar, rng)
        return out != ep.BOT and out["verdict"] == 1

    return _per_trial(trial, trials, seed, "epr-honest")


def _measure_first(pp, prove):
    """trial(rng): the verifier measures every pair in Z before the proof
    arrives, then judges prove(pp, crs, network, x, rng) for a non-Hamiltonian x."""
    x = non_hamiltonian_triangle()

    def trial(rng):
        crs, network = ep.epr_setup(pp, rng)
        ep.premeasure_all_z(pp, network, rng)
        proof = prove(pp, crs, network, x, rng)
        return ep.hypothetical_verifier(pp, crs, network, x, proof, rng)

    return trial


def _epr_soundness_greedy(trials: int, params: dict, seed: int):
    trial = _measure_first(_epr_protocol_params(params), ep.greedy_basis_prover)
    return _per_trial(trial, trials, seed, "epr-soundness", "greedy")


def _epr_soundness_forged(trials: int, params: dict, seed: int):
    trial = _measure_first(_epr_protocol_params(params), ep.forged_proof_prover)
    return _per_trial(trial, trials, seed, "epr-soundness", "forged")


def _epr_single_rep(trials: int, params: dict, seed: int):
    """Greedy prover at one repetition, next to the matrix-level
    Monte-Carlo oracle for the coverable-block rate."""
    pp = _epr_protocol_params(params)
    trial = _measure_first(pp, functools.partial(ep.greedy_basis_prover, genbits_tries=1))
    _, accepted, _ = _per_trial(trial, trials, seed, "epr-single")
    x = non_hamiltonian_triangle()
    oracle_rng = stream(seed, "epr-single-oracle")
    oracle_trials = max(4 * trials, 2000)
    hits = 0
    for _ in range(oracle_trials):
        block = rng_mod.bits(oracle_rng, pp.hb.bits_per_rep)
        hits += rep_coverable(block, x, pp.hb, oracle_rng)
    oracle = hits / oracle_trials
    p_hat = accepted / trials
    sigma = math.sqrt(
        oracle * (1 - oracle) / oracle_trials + max(p_hat * (1 - p_hat), 1.0 / trials) / trials
    )
    return trials, accepted, {"oracle_estimate": oracle, "oracle_trials": oracle_trials, "sigma": sigma}


def _td(exp: attacks.DeletionExperiment, seed: int, label: str):
    """One trace-distance estimate, reported as 1 trial and 1 success."""
    est = attacks.td_estimate(exp, stream(seed, "deletion", label))
    return 1, 1, {"td": est.value, "exact": est.exact}


def _deletion_honest_td(trials: int, params: dict, seed: int):
    return _td(attacks.DeletionExperiment(params["lam"]), seed, "honest-td")


def _deletion_leaking_td(trials: int, params: dict, seed: int):
    return _td(attacks.DeletionExperiment(params["lam"], attacks.ADV_BASIS_INFORMED), seed, "leaking-td")


def _deletion_keep_state(trials: int, params: dict, seed: int):
    """Every trial draws from the one stream of the experiment."""
    lam = params["lam"]
    rate = attacks.keep_state_acceptance(lam, trials, stream(seed, "deletion", "keep-state"))
    return trials, round(rate * trials), {"analytic": 0.75**lam}


def _crs_honest(trials: int, params: dict, seed: int):
    pp, w, x = _crs_instance(params)

    def trial(rng):
        crs = cp.crs_setup(rng)
        sigma, key = cp.crs_prove(pp, crs, x, w, rng)
        b, residual = cp.crs_verify(pp, crs, x, sigma, rng)
        ok = cp.crs_cert(pp, key, residual, rng)
        return b == 1 and ok

    return _per_trial(trial, trials, seed, "crs-honest")


def _hbg_binding(trials: int, params: dict, seed: int):
    """Counts equivocations and open mismatches, so it keeps its own loop."""
    equivocations = 0
    mismatches = 0
    for trial in range(trials):
        rng = stream(seed, "hbg-binding", trial)
        crs = hbg_mod.hbg_setup(params["k"], "naor", rng, s=params["s"])
        com, r, _ = hbg_mod.hbg_genbits(crs, rng)
        res = hbg_mod.hbg_open(crs, com)
        equivocations += int(res.equivocal.any())
        mismatches += int(not np.array_equal(res.bits, r))
    good = trials - max(equivocations, mismatches)
    return trials, good, {"equivocations": equivocations, "open_mismatches": mismatches}


def _split_strawman(rng) -> bool:
    g, w, _ = triangle_both_cycles()
    out = attacks.split_attack(attacks.StrawmanParams(), g, w, rng)
    return out.cert_accepts and out.verify_accepts


def _split_crs(rng) -> bool:
    pp, w, x = _crs_instance(default_crs_params())
    out = attacks.split_attack_on_crs(pp, cp.crs_setup(rng), x, w, rng)
    return out.cert_accepts and out.verify_accepts


def _clone(rng) -> bool:
    pp, w, x = _crs_instance(default_crs_params())
    crs = cp.crs_setup(rng)
    sigma, _ = cp.crs_prove(pp, crs, x, w, rng)
    clone = cp.clone_attack(pp, sigma)
    va = cp.verify_clone_half(pp, x, clone, clone.original, rng)
    vb = cp.verify_clone_half(pp, x, clone, clone.copy, rng)
    return va == 1 and vb == 1


def _derived_complete(rng) -> bool:
    sp = attacks.StrawmanParams()
    g, w, _ = triangle_both_cycles()
    return attacks.derived_verify(sp, g, attacks.derived_prove(sp, g, w, rng), rng) == 1


def _derived_sound(rng) -> bool:
    sp = attacks.StrawmanParams()
    bad = non_hamiltonian_triangle()
    return attacks.derived_verify(sp, bad, attacks.derived_soundness_adversary(sp, bad, rng), rng) == 1


# attack name -> trial(rng) on the attack's fixed instance (cenizk run-attack)
_ATTACKS = {
    "split-strawman": _split_strawman,
    "split-crs": _split_crs,
    "clone": _clone,
    "derived-complete": _derived_complete,
    "derived-sound": _derived_sound,
}


def _attack(name: str, trials: int, params: dict, seed: int):
    """Experiment of attack `name`: trial t on stream(seed, name, t)."""
    return _per_trial(_ATTACKS[name], trials, seed, name)


_SOUNDNESS_PARAMS = {**default_epr_params(), "reps": 20, "m": 27, "b": 8, "k": 6}

# experiment -> (family, default params, body). The family names the params
# in error messages and keys SIZE_CAPS: the EPR experiments take epr params
# and crs-honest takes crs-toy params.
_EXPERIMENTS = {
    "epr-honest": ("epr", default_epr_params(), _epr_honest),
    "epr-soundness-greedy": ("epr", _SOUNDNESS_PARAMS, _epr_soundness_greedy),
    "epr-soundness-forged": ("epr", _SOUNDNESS_PARAMS, _epr_soundness_forged),
    "epr-single-rep": ("epr", {**_SOUNDNESS_PARAMS, "reps": 1}, _epr_single_rep),
    "deletion-honest-td": ("deletion-honest-td", {"lam": 3}, _deletion_honest_td),
    "deletion-leaking-td": ("deletion-leaking-td", {"lam": 2}, _deletion_leaking_td),
    "deletion-keep-state": ("deletion-keep-state", {"lam": 4}, _deletion_keep_state),
    "crs-honest": ("crs-toy", default_crs_params(), _crs_honest),
    "hbg-binding": ("hbg-binding", {"s": 12, "k": 8}, _hbg_binding),
    **{name: (name, {}, functools.partial(_attack, name)) for name in _ATTACKS},
}


def default_params(name: str) -> dict:
    """A copy of the default params of session protocol or experiment name."""
    if name in _SESSIONS:
        return dict(_SESSIONS[name][1])
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown protocol or experiment {name!r}")
    return dict(_EXPERIMENTS[name][1])


def experiment_names() -> list[str]:
    return sorted(_EXPERIMENTS)


def attack_names() -> list[str]:
    return sorted(_ATTACKS)


def run_experiment(name: str, trials: int, params: dict | None, seed: int) -> ExperimentReport:
    """trials of experiment name; params is None (its defaults) or a complete dict."""
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; known: {', '.join(experiment_names())}")
    _require_count(seed, "seed")
    _require_count(trials, "trials")
    family, defaults, run = _EXPERIMENTS[name]
    params = _require_params(params, defaults, family)
    if trials == 0:
        return ExperimentReport(name, 0, 0, 0.0, 0.0, 0.0, {})
    t0 = time.time()
    trials, successes, extra = run(trials, params, seed)
    return ExperimentReport(
        name, trials, successes, successes / trials, hoeffding_halfwidth(trials), time.time() - t0, extra
    )


__all__ = [
    "EPR_STAGES",
    "ExperimentReport",
    "Transcript",
    "TranscriptError",
    "attack_names",
    "default_crs_params",
    "default_epr_params",
    "default_params",
    "deserialize_transcript",
    "experiment_names",
    "hoeffding_halfwidth",
    "run_experiment",
    "run_session",
    "serialize_transcript",
    "transcript_text",
]
