"""Certified-everlasting NIZK over shared EPR pairs.

One hidden bit per EPR block. The hidden-bits generator fixes a basis
string theta across all ell*k pairs; both parties measure their halves
in that basis, and hidden bit i is the XOR of block i's computational
positions, masked by the public string s. Opening a bit means opening
its block's theta entries through the generator; deleting a bit means
Hadamard-measuring the block and returning the outcomes, which the
prover checks against its recorded values wherever theta is 1.

The opened set is the hidden-bits layer's (ell,) bool mask over blocks;
deletion covers the rest. An all-True mask skips every index array over
the pairs. A rejected well-shaped mask stays the verifier's opened set;
a malformed one opens nothing.

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
    _well_shaped,
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
    opened: np.ndarray  # (ell,) bool mask of opened hidden bits == opened blocks
    pi_hb: HbProof
    com: hbg_mod.HbgCommitment
    theta_I: np.ndarray  # (opened count, k) basis rows for opened blocks only
    op_I: object  # generator openings restricted to opened positions


@dataclass(frozen=True)
class EprProverState:
    y: np.ndarray  # (ell, k) recorded outcomes
    theta: np.ndarray  # (ell, k)
    opened: np.ndarray
    network: EprNetwork


@dataclass(frozen=True)
class EprVerifierState:
    opened: np.ndarray  # the blocks verification opened: a well-shaped mask
    network: EprNetwork


@dataclass(frozen=True)
class EprDeletionCert:
    blocks: np.ndarray  # the unopened block indices, sorted
    outcomes: np.ndarray  # (len(blocks), k) Hadamard outcomes


def _opened_rows(a: np.ndarray, opened: np.ndarray) -> np.ndarray:
    """a[opened]; a itself (no copy) when every block is opened."""
    return a if opened.all() else a[opened]


def _block_positions(opened: np.ndarray, k: int) -> np.ndarray | range:
    """Generator positions of the blocks of a well-shaped mask."""
    if opened.all():
        return range(len(opened) * k)
    return np.flatnonzero(np.repeat(opened, k))


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
    opened, pi_hb = hb_prove(r, x, witness, params.hb)
    return _assemble_proof(params, opened, pi_hb, com, theta, opening), EprProverState(y, theta, opened, network)


def _assemble_proof(
    params: EprParams, opened: np.ndarray, pi_hb: HbProof, com, theta: np.ndarray, opening
) -> EprProof:
    """The proof for an opened mask: theta's rows and the generator
    openings on its blocks."""
    op_I = hbg_mod.restrict_opening(opening, _block_positions(opened, params.block_width))
    return EprProof(opened, pi_hb, com, _opened_rows(theta, opened), op_I)


def epr_verify(
    params: EprParams,
    crs: EprCrs,
    network: EprNetwork,
    x: Digraph,
    proof: EprProof,
    rng: np.random.Generator,
) -> tuple[int, EprVerifierState]:
    opened, ell = proof.opened, params.num_blocks
    if not _opening_ok(params, crs, proof):
        # a rejected mask stays the opened set if well shaped; a malformed one opens nothing
        return 0, EprVerifierState(opened if _well_shaped(opened, ell) else np.zeros(ell, dtype=bool), network)
    blocks = None if opened.all() else np.flatnonzero(opened)
    y_I = network.measure_blocks(ROLE_V, proof.theta_I, rng, blocks=blocks)
    return _hidden_bits_verdict(params, crs, x, proof, y_I), EprVerifierState(opened, network)


def _opening_ok(params: EprParams, crs: EprCrs, proof: EprProof) -> bool:
    """The opened mask is well shaped and the generator opens theta on its blocks."""
    opened, k = proof.opened, params.block_width
    if not _well_shaped(opened, params.num_blocks) or proof.theta_I.shape != (np.count_nonzero(opened), k):
        return False
    positions = _block_positions(opened, k)
    return bool(hbg_mod.hbg_verify_batch(crs.crs_bg, proof.com, positions, proof.theta_I.ravel(), proof.op_I))


def _hidden_bits_verdict(params: EprParams, crs: EprCrs, x: Digraph, proof: EprProof, y_I: np.ndarray) -> int:
    """hb_verify on the opened hidden bits r_I = parity(y_I) ^ s_I."""
    r_I = masked_parity(proof.theta_I, y_I) ^ _opened_rows(crs.s, proof.opened)
    return int(hb_verify(proof.opened, r_I, x, proof.pi_hb, params.hb))


def epr_delete(
    params: EprParams, residual: EprVerifierState, rng: np.random.Generator
) -> tuple[EprDeletionCert, EprVerifierState]:
    unopened = np.flatnonzero(~residual.opened)
    bases = np.ones((len(unopened), params.block_width), dtype=np.uint8)
    outcomes = residual.network.measure_blocks(ROLE_V, bases, rng, blocks=unopened)
    return EprDeletionCert(unopened, outcomes), residual


def epr_cert(params: EprParams, cert: EprDeletionCert, prover: EprProverState) -> bool:
    """Accept iff the certificate covers every unopened block and matches
    the recorded y wherever theta is 1 (theta=0 positions are ignored)."""
    unopened = np.flatnonzero(~prover.opened)
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
    if not _opening_ok(params, crs, proof):
        return 0
    return _hidden_bits_verdict(params, crs, x, proof, _opened_rows(y_all, proof.opened))


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
    theta_I = rng_mod.bits(rng, (ell, k))
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
        opened, pi_hb, coverable = cheat_prove(r, x, params.hb, rng)
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
