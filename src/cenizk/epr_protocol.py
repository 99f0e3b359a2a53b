"""Certified-everlasting NIZK over shared EPR pairs.

One hidden bit per EPR block. The hidden-bits generator fixes a basis
word theta_i for each of the ell blocks of k <= 8 pairs; both parties
measure their halves in those bases, and hidden bit i is the XOR of
block i's computational positions, masked by the public string s.
Bases and outcomes travel as block words, one uint8 per block (the
`bits` word convention: bit j is pair j). Opening a bit means opening
its block's word through the generator; deleting a bit means
Hadamard-measuring the block and returning the outcome word, which the
prover checks against its recorded word on theta's set bits.

The opened set is the hidden-bits layer's (ell,) bool mask over blocks;
deletion covers the rest. An all-True mask skips every index array. A
rejected well-shaped mask stays the verifier's opened set; a malformed
one opens nothing.

The prover certification reference is the recorded y: the prover's own
theta-basis measurement already produced the Hadamard-position values
Cert compares against, so no re-measurement happens (the certificate
bits at theta=0 positions are ignored by definition).

Everything here is batch-first numpy so a session with millions of
pairs stays inside a handful of vector operations on block words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hbg as hbg_mod
from . import rng as rng_mod
from .bits import check_deletion_cert, flat_mask, int_array, masked_parity, opened_rows, words_fit
from .epr import ROLE_P, ROLE_V, EprNetwork
from .graphs import CycleWitness, Digraph
from .hbnizk import (
    HbParams,
    HbProof,
    RepRevealAll,
    cheat_prove,
    hb_prove,
    hb_simulate,
    hb_verify,
)

BOT = "bot"


@dataclass(frozen=True)
class EprParams:
    hb: HbParams
    block_width: int = 6
    hbg_mode: str = "dealer"
    hbg_s: int = 12

    @property
    def num_blocks(self) -> int:
        return self.hb.total_bits


@dataclass(frozen=True)
class EprCrs:
    crs_bg: object
    s: np.ndarray  # one mask bit per block


@dataclass(frozen=True)
class EprProof:
    opened: np.ndarray  # (ell,) bool mask of opened hidden bits == opened blocks
    pi_hb: HbProof
    com: hbg_mod.HbgCommitment
    theta_I: np.ndarray  # (opened count,) basis words of the opened blocks only
    op_I: object  # generator openings restricted to the opened blocks' pairs


@dataclass(frozen=True)
class EprProverState:
    y: np.ndarray  # (ell,) recorded outcome words
    theta: np.ndarray  # (ell,) basis words
    opened: np.ndarray
    network: EprNetwork


@dataclass(frozen=True)
class EprVerifierState:
    opened: np.ndarray  # the blocks verification opened: a well-shaped mask
    network: EprNetwork


@dataclass(frozen=True)
class EprDeletionCert:
    blocks: np.ndarray  # the unopened block indices, sorted
    outcomes: np.ndarray  # (len(blocks),) Hadamard outcome words


# ---------------------------------------------------------------------
# the five algorithms
# ---------------------------------------------------------------------


def epr_setup(params: EprParams, rng: np.random.Generator) -> tuple[EprCrs, EprNetwork]:
    crs_bg = hbg_mod.hbg_setup(params.num_blocks, params.hbg_mode, rng, s=params.hbg_s, width=params.block_width)
    s = rng_mod.bits(rng, params.num_blocks)
    return EprCrs(crs_bg, s), EprNetwork(params.num_blocks, params.block_width)


def epr_prove(
    params: EprParams,
    crs: EprCrs,
    network: EprNetwork,
    x: Digraph,
    witness: CycleWitness,
    rng: np.random.Generator,
) -> tuple[EprProof, EprProverState]:
    com, theta, opening = hbg_mod.hbg_genbits(crs.crs_bg, rng)
    y = network.measure_blocks(ROLE_P, theta, rng)
    opened, pi_hb = hb_prove(masked_parity(theta, y) ^ crs.s, x, witness, params.hb)
    return _assemble_proof(params, opened, pi_hb, com, theta, opening), EprProverState(y, theta, opened, network)


def _assemble_proof(
    params: EprParams, opened: np.ndarray, pi_hb: HbProof, com, theta: np.ndarray, opening
) -> EprProof:
    """The proof for an opened mask: theta's words and the generator
    openings on its blocks."""
    op_I = hbg_mod.restrict_opening(opening, opened, params.block_width)
    return EprProof(opened, pi_hb, com, opened_rows(theta, opened), op_I)


def epr_verify(
    params: EprParams,
    crs: EprCrs,
    network: EprNetwork,
    x: Digraph,
    proof: EprProof,
    rng: np.random.Generator,
) -> tuple[int, EprVerifierState]:
    """The verifier's half, read in theta_I on the opened blocks. The
    prover measures the whole network first (`epr_prove`), so this is a
    re-read of a collapsed network. A malformed proof rejects; it never
    raises."""
    opened, ell = getattr(proof, "opened", None), params.num_blocks
    if not _hbg_accepts(crs, proof):
        # a rejected mask stays the opened set if well shaped; a malformed one opens nothing
        return 0, EprVerifierState(opened if flat_mask(opened, ell) else np.zeros(ell, dtype=bool), network)
    blocks = None if opened.all() else np.flatnonzero(opened)
    y_I = network.measure_blocks(ROLE_V, proof.theta_I, rng, blocks=blocks)
    return _hidden_bits_verdict(params, crs, x, proof, y_I), EprVerifierState(opened, network)


def _hbg_accepts(crs: EprCrs, proof: EprProof) -> bool:
    """hbg_verify_batch on proof's fields; a missing field (no EprProof) opens nothing."""
    com, opened, theta_I, op_I = (getattr(proof, f, None) for f in ("com", "opened", "theta_I", "op_I"))
    return hbg_mod.hbg_verify_batch(crs.crs_bg, com, opened, theta_I, op_I)


def _hidden_bits_verdict(params: EprParams, crs: EprCrs, x: Digraph, proof: EprProof, y_I: np.ndarray) -> int:
    """hb_verify on the opened hidden bits r_I = parity(y_I) ^ s_I."""
    r_I = masked_parity(proof.theta_I, y_I) ^ opened_rows(crs.s, proof.opened)
    return int(hb_verify(proof.opened, r_I, x, getattr(proof, "pi_hb", None), params.hb))


def epr_delete(
    params: EprParams, residual: EprVerifierState, rng: np.random.Generator
) -> tuple[EprDeletionCert, EprVerifierState]:
    unopened = np.flatnonzero(~residual.opened)
    bases = np.full(len(unopened), (1 << params.block_width) - 1, dtype=np.uint8)
    outcomes = residual.network.measure_blocks(ROLE_V, bases, rng, blocks=unopened)
    return EprDeletionCert(unopened, outcomes), residual


def epr_cert(params: EprParams, cert: EprDeletionCert, prover: EprProverState) -> bool:
    """Accept iff the certificate names exactly the unopened blocks, as an
    integer array, and its outcomes are unsigned block words that match
    the recorded y on theta's set bits (theta=0 positions are ignored).
    A malformed certificate, or another object, rejects; it never raises."""
    blocks, outcomes = getattr(cert, "blocks", None), getattr(cert, "outcomes", None)
    unopened = np.flatnonzero(~prover.opened)
    if not (int_array(blocks) and np.array_equal(blocks, unopened) and words_fit(outcomes, params.block_width)):
        return False
    return check_deletion_cert(outcomes, prover.y[unopened], prover.theta[unopened])


# ---------------------------------------------------------------------
# hypothetical measure-first verifier (soundness experiments only)
# ---------------------------------------------------------------------


def premeasure_all_z(params: EprParams, network: EprNetwork, rng: np.random.Generator) -> np.ndarray:
    """Collapse every verifier half in the computational basis."""
    return network.measure_blocks(ROLE_V, np.zeros(params.num_blocks, dtype=np.uint8), rng)


def hypothetical_verifier(
    params: EprParams,
    crs: EprCrs,
    network: EprNetwork,
    x: Digraph,
    proof: EprProof,
    rng: np.random.Generator,
) -> int:
    """Measures all V registers in Z (if not already collapsed), then
    verifies from the computational-basis values alone. Never used in
    certification flows."""
    y_all = premeasure_all_z(params, network, rng)
    if not _hbg_accepts(crs, proof):
        return 0
    return _hidden_bits_verdict(params, crs, x, proof, opened_rows(y_all, proof.opened))


# ---------------------------------------------------------------------
# malicious provers (soundness experiments)
# ---------------------------------------------------------------------


def forged_proof_prover(
    params: EprParams, crs: EprCrs, network: EprNetwork, x: Digraph, rng: np.random.Generator
) -> EprProof:
    """Fabricates com, theta claims and openings out of thin air; the
    generator verification rejects these outright."""
    ell = params.num_blocks
    com = hbg_mod.HbgCommitment(rng.integers(0, 256, size=16, dtype=np.uint8).tobytes())
    theta_I = rng_mod.blocks(rng, ell, params.block_width)
    op = hbg_mod.DealerOpening(rng.integers(0, 256, size=16, dtype=np.uint8).tobytes())
    pi_hb = HbProof(tuple(RepRevealAll() for _ in range(params.hb.repetitions)))
    return EprProof(np.ones(ell, dtype=bool), pi_hb, com, theta_I, op)


def greedy_basis_prover(
    params: EprParams,
    crs: EprCrs,
    network: EprNetwork,
    x: Digraph,
    rng: np.random.Generator,
    genbits_tries: int = 8,
) -> EprProof:
    """Fabricated-useful-claim adversary at the protocol layer.

    Measures its half fully in Z (so every derived hidden bit is known
    in advance: the computational-basis values are what both parties'
    parities use), then re-rolls GenBits greedily, keeping the basis
    draw whose hidden string leaves the most repetitions answerable by
    a cover-map claim. Note the honest reveal-all answer for unuseful
    blocks is excluded by construction: that escape is the analytic
    (1-q)^rho term the desk experiments do not re-measure."""
    y = network.measure_blocks(ROLE_P, np.zeros(params.num_blocks, dtype=np.uint8), rng)

    best = None
    best_good = -1
    for _ in range(genbits_tries):
        com, theta, opening = hbg_mod.hbg_genbits(crs.crs_bg, rng)
        opened, pi_hb, coverable = cheat_prove(masked_parity(theta, y) ^ crs.s, x, params.hb, rng)
        if coverable > best_good:
            best_good = coverable
            best = (com, theta, opening, pi_hb, opened)
        if coverable == params.hb.repetitions:
            break
    com, theta, opening, pi_hb, opened = best
    return _assemble_proof(params, opened, pi_hb, com, theta, opening)


# ---------------------------------------------------------------------
# CE-ZK experiment: real flow, simulator, verifier strategies
# ---------------------------------------------------------------------

VStar = Callable[..., tuple[EprDeletionCert, object]]


def honest_delete_vstar(params, crs, network, x, proof, rng):
    """Verify, then delete everything unopened; classical output."""
    b, residual = epr_verify(params, crs, network, x, proof, rng)
    cert, _ = epr_delete(params, residual, rng)
    out = {
        "verdict": b,
        "cert_blocks": tuple(int(i) for i in cert.blocks),
        "cert_bits": tuple(int(v) for v in cert.outcomes),
    }
    return cert, out


def keep_two_blocks_vstar(params, crs, network, x, proof, rng):
    """Honest verify + delete, additionally handing back the first two
    deleted blocks' post-measurement qubits as a quantum register."""
    b, residual = epr_verify(params, crs, network, x, proof, rng)
    cert, _ = epr_delete(params, residual, rng)
    if len(cert.blocks) < 2:
        return cert, {"verdict": b, "tag": "no-deletion", "qstate": None}
    keep = cert.blocks[:2]
    pairs = [(int(i), j) for i in keep for j in range(params.block_width)]
    qstate = residual.network.half_state(ROLE_V, pairs)
    return cert, {"verdict": b, "tag": "kept", "qstate": qstate}


def run_cezk_real(params, x, witness, vstar: VStar, rng):
    """Real CE-ZK experiment: honest setup/prove, adversarial verifier,
    prover-side certification gate."""
    crs, network = epr_setup(params, rng)
    proof, prover = epr_prove(params, crs, network, x, witness, rng)
    return _cert_gate(params, crs, x, proof, prover, vstar, rng)


def epr_sim(params, x, vstar: VStar, rng):
    """Witness-free simulator for the CE-ZK experiment (final hybrid):
    hidden-bits layer simulated, s backfilled on opened positions,
    honest generator and EPR mechanics, prover-side Cert gate."""
    ell, k = params.num_blocks, params.block_width
    crs_bg = hbg_mod.hbg_setup(ell, params.hbg_mode, rng, s=params.hbg_s, width=k)
    com, theta, opening = hbg_mod.hbg_genbits(crs_bg, rng)
    network = EprNetwork(ell, k)
    opened, r_I, pi_hb = hb_simulate(x, params.hb, rng)
    y = network.measure_blocks(ROLE_P, theta, rng)
    t = masked_parity(theta, y)
    s = rng_mod.bits(rng, ell)
    s[opened] = t[opened] ^ r_I
    proof = _assemble_proof(params, opened, pi_hb, com, theta, opening)
    return _cert_gate(params, EprCrs(crs_bg, s), x, proof, EprProverState(y, theta, opened, network), vstar, rng)


def _cert_gate(params, crs, x, proof, prover: EprProverState, vstar: VStar, rng):
    """(output, crs, proof): V* runs on the prover's network and its
    output is kept only if the prover certifies its deletion, else BOT."""
    cert, output = vstar(params, crs, prover.network, x, proof, rng)
    return (output if epr_cert(params, cert, prover) else BOT), crs, proof


__all__ = [
    "BOT",
    "EprCrs",
    "EprDeletionCert",
    "EprParams",
    "EprProof",
    "EprProverState",
    "EprVerifierState",
    "epr_cert",
    "epr_delete",
    "epr_prove",
    "epr_setup",
    "epr_sim",
    "epr_verify",
    "forged_proof_prover",
    "greedy_basis_prover",
    "honest_delete_vstar",
    "hypothetical_verifier",
    "keep_two_blocks_vstar",
    "premeasure_all_z",
    "run_cezk_real",
]
