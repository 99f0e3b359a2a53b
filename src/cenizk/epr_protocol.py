"""Certified-everlasting NIZK over shared EPR pairs.

One hidden bit per EPR block. The hidden-bits generator fixes a basis
string theta across all ell*k pairs; both parties measure their halves
in that basis, and hidden bit i is the XOR of block i's computational
positions, masked by the public string s. Opening a bit means opening
its block's theta entries through the generator; deleting a bit means
Hadamard-measuring the block and returning the outcomes, which the
prover checks against its recorded values wherever theta is 1.

The prover certification reference is the recorded y: the prover's own
theta-basis measurement already produced the Hadamard-position values
Cert compares against, so no re-measurement happens (the certificate
bits at theta=0 positions are ignored by definition).

Everything here is batch-first numpy so a session with millions of
pairs stays inside a handful of vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hbg as hbg_mod
from . import rng as rng_mod
from .bits import check_deletion_cert, masked_parity
from .epr import ROLE_P, ROLE_V, EprNetwork, prep_epr
from .graphs import CycleWitness, Digraph
from .hbnizk import (
    HbParams,
    HbProof,
    RepRevealAll,
    _opened_set_ok,
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

    @property
    def num_pairs(self) -> int:
        return self.num_blocks * self.block_width


@dataclass(frozen=True)
class EprCrs:
    crs_bg: object
    s: np.ndarray  # one mask bit per block


@dataclass(frozen=True)
class EprProof:
    I: np.ndarray  # opened hidden-bit indices == opened blocks
    pi_hb: HbProof
    com: hbg_mod.HbgCommitment
    theta_I: np.ndarray  # (|I|, k) basis rows for opened blocks only
    op_I: object  # generator openings restricted to opened positions


@dataclass(frozen=True)
class EprProverState:
    y: np.ndarray  # (ell, k) recorded outcomes
    theta: np.ndarray  # (ell, k)
    I: np.ndarray
    network: EprNetwork


@dataclass(frozen=True)
class EprVerifierState:
    I: np.ndarray  # the blocks verification opened: a valid opened set
    network: EprNetwork


@dataclass(frozen=True)
class EprDeletionCert:
    blocks: np.ndarray  # the unopened block indices, sorted
    outcomes: np.ndarray  # (len(blocks), k) Hadamard outcomes


def _every_block(I: np.ndarray, ell: int) -> bool:
    """Whether a valid opened set is all of 0..ell-1.

    Only for an I that passed `_opened_set_ok(I, ell)` (hb_prove's and
    the verifier state's are valid by construction, a proof's only after
    validation): such an I is strictly increasing inside [0, ell), so it
    is every block exactly when it has ell entries. At the
    criterion-1 shape almost every repetition is reveal-all, and this
    lets the session skip index arrays that would span every pair."""
    return len(I) == ell


def _opened_rows(a: np.ndarray, I: np.ndarray, ell: int) -> np.ndarray:
    """a[I] for a valid opened set I; a itself (no copy) when I is every block."""
    return a if _every_block(I, ell) else a[I]


def _block_positions(I: np.ndarray, ell: int, k: int) -> np.ndarray | range:
    """Generator positions of the blocks of a valid opened set I."""
    if _every_block(I, ell):
        return range(ell * k)
    return (I[:, None] * k + np.arange(k)).ravel()


def _unopened_blocks(ell: int, I: np.ndarray) -> np.ndarray:
    """The blocks outside a valid opened set I, sorted."""
    if _every_block(I, ell):
        return np.empty(0, dtype=np.int64)
    mask = np.ones(ell, dtype=bool)
    mask[I] = False
    return np.flatnonzero(mask).astype(np.int64)


# ---------------------------------------------------------------------
# the five algorithms
# ---------------------------------------------------------------------


def epr_setup(params: EprParams, rng: np.random.Generator) -> tuple[EprCrs, EprNetwork]:
    crs_bg = hbg_mod.hbg_setup(params.num_pairs, params.hbg_mode, rng, s=params.hbg_s)
    s = rng_mod.bits(rng, params.num_blocks)
    return EprCrs(crs_bg, s), prep_epr(params.num_blocks, params.block_width)


def epr_prove(
    params: EprParams,
    crs: EprCrs,
    network: EprNetwork,
    x: Digraph,
    witness: CycleWitness,
    rng: np.random.Generator,
) -> tuple[EprProof, EprProverState]:
    ell, k = params.num_blocks, params.block_width
    com, theta_flat, opening = hbg_mod.hbg_genbits(crs.crs_bg, rng)
    theta = theta_flat.reshape(ell, k)
    y = network.measure_blocks(ROLE_P, theta, rng)
    t = masked_parity(theta, y)
    r = t ^ crs.s
    I, pi_hb = hb_prove(r, x, witness, params.hb)
    return _assemble_proof(params, I, pi_hb, com, theta, opening), EprProverState(y, theta, I, network)


def _assemble_proof(
    params: EprParams, I: np.ndarray, pi_hb: HbProof, com, theta: np.ndarray, opening
) -> EprProof:
    """The proof for a valid opened set I: theta's rows and the generator
    openings on I's blocks."""
    op_I = hbg_mod.restrict_opening(opening, _block_positions(I, params.num_blocks, params.block_width))
    return EprProof(I, pi_hb, com, _opened_rows(theta, I, params.num_blocks), op_I)


def epr_verify(
    params: EprParams,
    crs: EprCrs,
    network: EprNetwork,
    x: Digraph,
    proof: EprProof,
    rng: np.random.Generator,
) -> tuple[int, EprVerifierState]:
    I, ell = np.asarray(proof.I, dtype=np.int64), params.num_blocks
    if not _opening_ok(params, crs, proof, I):
        # a rejected I opens each of its in-range entries once
        return 0, EprVerifierState(np.unique(I[(I >= 0) & (I < ell)]), network)
    blocks = None if _every_block(I, ell) else I
    y_I = network.measure_blocks(ROLE_V, proof.theta_I, rng, blocks=blocks)
    return _hidden_bits_verdict(params, crs, x, proof, I, y_I), EprVerifierState(I, network)


def _opening_ok(params: EprParams, crs: EprCrs, proof: EprProof, I: np.ndarray) -> bool:
    """I is a valid opened set and the generator opens theta on its blocks."""
    k = params.block_width
    if not _opened_set_ok(I, params.num_blocks) or proof.theta_I.shape != (len(I), k):
        return False
    positions = _block_positions(I, params.num_blocks, k)
    return bool(hbg_mod.hbg_verify_batch(crs.crs_bg, proof.com, positions, proof.theta_I.ravel(), proof.op_I))


def _hidden_bits_verdict(
    params: EprParams, crs: EprCrs, x: Digraph, proof: EprProof, I: np.ndarray, y_I: np.ndarray
) -> int:
    """hb_verify on the opened hidden bits r_I = parity(y_I) ^ s_I, for an
    I that `_opening_ok` has validated (so it is not checked again)."""
    r_I = masked_parity(proof.theta_I, y_I) ^ _opened_rows(crs.s, I, params.num_blocks)
    return int(hb_verify(I, r_I, x, proof.pi_hb, params.hb, opened_ok=True))


def epr_delete(
    params: EprParams, residual: EprVerifierState, rng: np.random.Generator
) -> tuple[EprDeletionCert, EprVerifierState]:
    ell, k = params.num_blocks, params.block_width
    unopened = _unopened_blocks(ell, residual.I)
    bases = np.ones((len(unopened), k), dtype=np.uint8)
    outcomes = residual.network.measure_blocks(ROLE_V, bases, rng, blocks=unopened)
    return EprDeletionCert(unopened, outcomes), residual


def epr_cert(params: EprParams, cert: EprDeletionCert, prover: EprProverState) -> bool:
    """Accept iff the certificate covers every unopened block and matches
    the recorded y wherever theta is 1 (theta=0 positions are ignored)."""
    ell = params.num_blocks
    unopened = _unopened_blocks(ell, prover.I)
    blocks = np.asarray(cert.blocks, dtype=np.int64)
    if blocks.shape != unopened.shape or np.any(blocks != unopened):
        return False
    if cert.outcomes.shape != (len(blocks), params.block_width):
        return False
    return check_deletion_cert(cert.outcomes, prover.y[blocks], prover.theta[blocks])


# ---------------------------------------------------------------------
# hypothetical measure-first verifier (soundness experiments only)
# ---------------------------------------------------------------------


def premeasure_all_z(params: EprParams, network: EprNetwork, rng: np.random.Generator) -> np.ndarray:
    """Collapse every verifier half in the computational basis."""
    bases = np.zeros((params.num_blocks, params.block_width), dtype=np.uint8)
    return network.measure_blocks(ROLE_V, bases, rng)


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
    I = np.asarray(proof.I, dtype=np.int64)
    if not _opening_ok(params, crs, proof, I):
        return 0
    return _hidden_bits_verdict(params, crs, x, proof, I, _opened_rows(y_all, I, params.num_blocks))


# ---------------------------------------------------------------------
# malicious provers (soundness experiments)
# ---------------------------------------------------------------------


def forged_proof_prover(
    params: EprParams, crs: EprCrs, network: EprNetwork, x: Digraph, rng: np.random.Generator
) -> EprProof:
    """Fabricates com, theta claims and openings out of thin air; the
    generator verification rejects these outright."""
    ell, k = params.num_blocks, params.block_width
    com = hbg_mod.HbgCommitment(rng.integers(0, 256, size=16, dtype=np.uint8).tobytes())
    I = np.arange(ell, dtype=np.int64)
    theta_I = rng_mod.bits(rng, (ell, k))
    op = hbg_mod.DealerOpening(rng.integers(0, 256, size=16, dtype=np.uint8).tobytes())
    pi_hb = HbProof(tuple(RepRevealAll() for _ in range(params.hb.repetitions)))
    return EprProof(I, pi_hb, com, theta_I, op)


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
    ell, k = params.num_blocks, params.block_width
    z_bases = np.zeros((ell, k), dtype=np.uint8)
    y = network.measure_blocks(ROLE_P, z_bases, rng)

    best = None
    best_good = -1
    for _ in range(genbits_tries):
        com, theta_flat, opening = hbg_mod.hbg_genbits(crs.crs_bg, rng)
        theta = theta_flat.reshape(ell, k)
        t = masked_parity(theta, y)
        r = t ^ crs.s
        I, pi_hb, coverable = cheat_prove(r, x, params.hb, rng)
        if coverable > best_good:
            best_good = coverable
            best = (com, theta, opening, pi_hb, I)
        if coverable == params.hb.repetitions:
            break
    com, theta, opening, pi_hb, I = best
    return _assemble_proof(params, I, pi_hb, com, theta, opening)


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
        "cert_bits": tuple(int(v) for v in cert.outcomes.ravel()),
    }
    return cert, out


def delete_then_remeasure_vstar(params, crs, network, x, proof, rng):
    """Honest deletion followed by a Z remeasurement of the deleted
    qubits; the extra outcomes join the classical output."""
    cert, out = honest_delete_vstar(params, crs, network, x, proof, rng)
    rebases = np.zeros((len(cert.blocks), params.block_width), dtype=np.uint8)
    re_out = network.measure_blocks(ROLE_V, rebases, rng, blocks=cert.blocks)
    return cert, {**out, "remeasured": tuple(int(v) for v in re_out.ravel())}


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
    crs_bg = hbg_mod.hbg_setup(params.num_pairs, params.hbg_mode, rng, s=params.hbg_s)
    com, theta_flat, opening = hbg_mod.hbg_genbits(crs_bg, rng)
    theta = theta_flat.reshape(ell, k)
    network = prep_epr(ell, k)
    I, r_I, pi_hb = hb_simulate(x, params.hb, rng)
    y = network.measure_blocks(ROLE_P, theta, rng)
    t = masked_parity(theta, y)
    s = rng_mod.bits(rng, ell)
    s[I] = t[I] ^ r_I
    proof = _assemble_proof(params, I, pi_hb, com, theta, opening)
    return _cert_gate(params, EprCrs(crs_bg, s), x, proof, EprProverState(y, theta, I, network), vstar, rng)


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
    "delete_then_remeasure_vstar",
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
