"""Classical NIZKs used inside the certified-everlasting constructions.

Two proof systems live here:

* CompiledNizk: hidden-bits NIZK lifted to the CRS model. The CRS is
  (crs_bg, s) with s a uniform mask; the prover derives the hidden
  string as r = r_bg XOR s from generator output r_bg and ships the
  per-position openings for the revealed set. Statistically sound at
  desk scale. It is the inner proof of the CRS construction's dry run.

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
from . import rng as rng_mod
from .bits import as_bit_array, int_to_bits, opened_rows
from .graphs import CycleWitness, Digraph
from .hbnizk import HbParams, HbProof, hb_prove, hb_verify

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
    opened: np.ndarray  # (hb.total_bits,) bool mask of the revealed positions
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
    s = rng_mod.bits(rng, spec.hb.total_bits)
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
    opened, pi_hb = hb_prove(r, x, witness, spec.hb)
    return CompiledProof(com, opened, opened_rows(r_bg, opened), hbg_mod.restrict_opening(opening, opened), pi_hb)


def compiled_verify(spec: CompiledSpec, crs: CompiledCrs, x: Digraph, proof: CompiledProof) -> int:
    # hbg_verify_batch checks the opened mask
    opened = proof.opened
    if not hbg_mod.hbg_verify_batch(crs.crs_bg, proof.com, opened, proof.r_bg_I, proof.opening):
        return 0
    return int(hb_verify(opened, proof.r_bg_I ^ opened_rows(crs.s, opened), x, proof.pi_hb, spec.hb))


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
    "compiled_verify",
    "toy_encode",
    "toy_prove",
    "toy_setup",
    "toy_statements",
    "toy_verify",
]
