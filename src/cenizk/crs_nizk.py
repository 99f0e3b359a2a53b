"""Classical NIZKs used inside the certified-everlasting constructions.

Two proof systems live here:

* CompiledNizk: hidden-bits NIZK lifted to the CRS model. The CRS is
  (crs_bg, s) with s a uniform mask; the prover derives the hidden
  string as r = r_bg XOR s from generator output r_bg and ships the
  per-position openings for the revealed set. Statistically sound at
  desk scale; the simulator back-solves s on the revealed positions,
  which keeps the simulated CRS statistically close to real.

* ToyNizk: a 4-bit-witness / 8-bit-statement linear-code proof with
  proof length 4. Perfectly complete and perfectly sound (the code map
  is injective), no zero-knowledge whatsoever; it exists so the
  quantum-superposition construction can run with a 16-qubit encoding
  register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hbg as hbg_mod
from .bits import as_bit_array, int_to_bits
from .graphs import CycleWitness, Digraph
from .hbnizk import HbParams, HbProof, hb_prove, hb_simulate, hb_verify

# ---------------------------------------------------------------------
# toy linear-code NIZK (proof length 4)
# ---------------------------------------------------------------------

TOY_WITNESS_BITS = 4
TOY_STATEMENT_BITS = 8
TOY_PROOF_BITS = 4

# generator of an [8,4] systematic linear code; the identity block makes
# the encoding injective
_TOY_GENERATOR = np.array(
    [
        [1, 0, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 0, 1],
        [0, 0, 0, 1, 1, 1, 1, 0],
    ],
    dtype=np.uint8,
)


@dataclass(frozen=True)
class ToyCrs:
    tag: bytes  # distinctness marker; the toy scheme needs no structure


def toy_setup(rng: np.random.Generator) -> ToyCrs:
    return ToyCrs(rng.integers(0, 256, size=8, dtype=np.uint8).tobytes())


def toy_encode(w: np.ndarray) -> np.ndarray:
    w = as_bit_array(w)
    if len(w) != TOY_WITNESS_BITS:
        raise ValueError(f"witness must have {TOY_WITNESS_BITS} bits")
    return (w @ _TOY_GENERATOR % 2).astype(np.uint8)


def toy_prove(crs: ToyCrs, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    x = as_bit_array(x)
    pi = as_bit_array(w)
    if len(x) != TOY_STATEMENT_BITS:
        raise ValueError(f"statement must have {TOY_STATEMENT_BITS} bits")
    if not np.array_equal(toy_encode(pi), x):
        raise ValueError("witness does not encode to the statement")
    return pi


def toy_verify(crs: ToyCrs, x: np.ndarray, pi: np.ndarray) -> int:
    try:
        x = as_bit_array(x)
        pi = as_bit_array(pi)
    except ValueError:
        return 0
    if len(x) != TOY_STATEMENT_BITS or len(pi) != TOY_PROOF_BITS:
        return 0
    return int(np.array_equal(toy_encode(pi), x))


def toy_statements() -> list[np.ndarray]:
    """All 2^8 candidate statements, codewords first unneeded: plain order."""
    return [int_to_bits(v, TOY_STATEMENT_BITS) for v in range(1 << TOY_STATEMENT_BITS)]


# ---------------------------------------------------------------------
# hidden-bits -> CRS compiler
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledCrs:
    crs_bg: object
    s: np.ndarray  # uniform mask, |s| = hb.total_bits


@dataclass(frozen=True)
class CompiledProof:
    com: hbg_mod.HbgCommitment
    I: np.ndarray
    r_bg_I: np.ndarray  # generator bits claimed at the revealed positions
    opening: object
    pi_hb: HbProof


@dataclass(frozen=True)
class CompiledSpec:
    """Everything fixed about one compiled-NIZK deployment."""

    hb: HbParams
    hbg_mode: str = "dealer"
    hbg_s: int = 12


def compiled_setup(spec: CompiledSpec, rng: np.random.Generator) -> CompiledCrs:
    crs_bg = hbg_mod.hbg_setup(spec.hb.total_bits, spec.hbg_mode, rng, s=spec.hbg_s)
    s = rng.integers(0, 2, size=spec.hb.total_bits, dtype=np.uint8)
    return CompiledCrs(crs_bg, s)


def compiled_prove(
    spec: CompiledSpec,
    crs: CompiledCrs,
    x: Digraph,
    witness: CycleWitness,
    rng: np.random.Generator,
) -> CompiledProof:
    com, r_bg, opening = hbg_mod.hbg_genbits(crs.crs_bg, rng)
    r = r_bg ^ crs.s
    I, pi_hb = hb_prove(r, x, witness, spec.hb)
    return CompiledProof(com, I, r_bg[I].copy(), opening, pi_hb)


def compiled_verify(spec: CompiledSpec, crs: CompiledCrs, x: Digraph, proof: CompiledProof) -> int:
    if not hbg_mod.hbg_verify_batch(crs.crs_bg, proof.com, proof.I, proof.r_bg_I, proof.opening):
        return 0
    r_I = proof.r_bg_I ^ crs.s[proof.I]
    return int(hb_verify(proof.I, r_I, x, proof.pi_hb, spec.hb))


def compiled_sim(
    spec: CompiledSpec, x: Digraph, rng: np.random.Generator
) -> tuple[CompiledCrs, CompiledProof]:
    """Witness-free simulator producing (crs', proof').

    Runs the generator honestly, simulates the hidden-bits layer, then
    sets s := r_bg XOR r_hb on the revealed positions and uniform
    elsewhere, so crs' matches the real CRS distribution statistically.
    """
    crs_bg = hbg_mod.hbg_setup(spec.hb.total_bits, spec.hbg_mode, rng, s=spec.hbg_s)
    com, r_bg, opening = hbg_mod.hbg_genbits(crs_bg, rng)
    I, r_I, pi_hb = hb_simulate(x, spec.hb, rng)
    s = rng.integers(0, 2, size=spec.hb.total_bits, dtype=np.uint8)
    s[I] = r_bg[I] ^ r_I
    return CompiledCrs(crs_bg, s), CompiledProof(com, I, r_bg[I].copy(), opening, pi_hb)


__all__ = [
    "CompiledCrs",
    "CompiledProof",
    "CompiledSpec",
    "TOY_PROOF_BITS",
    "TOY_STATEMENT_BITS",
    "TOY_WITNESS_BITS",
    "ToyCrs",
    "compiled_prove",
    "compiled_setup",
    "compiled_sim",
    "compiled_verify",
    "toy_encode",
    "toy_prove",
    "toy_setup",
    "toy_statements",
    "toy_verify",
]
