"""Hidden-bits generator with two instantiations.

naor mode: per position i the CRS carries a random shift u_i of 3s
bits; committing to bit r_i means publishing c_i = G(seed_i) XOR
(r_i * u_i) for a fresh s-bit seed. Binding is statistical: a fixed
c_i lies in the image coset of at most one bit value except with
probability ~2^-s over the CRS, and the inefficient Open recovers the
committed string by scanning all 2^s seeds. Hiding is computational
(the PRG); commitments are NOT succinct (|com| grows with k), which is
why asymptotic soundness statements downstream stay analytic.

dealer mode: a trusted-registry test double with perfect binding and
hiding, for protocol-logic experiments that want an ideal generator.

The PRG also ships a deliberately broken identity mode used as the
negative control in the hiding tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

OPEN_SEED_LIMIT = 22  # brute-force Open guard: at most 2^22 seeds

PRG_BLAKE = "blake"
PRG_IDENTITY = "identity"


@dataclass(frozen=True)
class HbgParams:
    k: int
    s: int

    def __post_init__(self):
        if self.k < 1 or self.s < 2:
            raise ValueError("need k >= 1 and s >= 2")

    @property
    def out_bits(self) -> int:
        return 3 * self.s

    @property
    def out_bytes(self) -> int:
        return (self.out_bits + 7) // 8


def _mask_top(buf: bytes, out_bits: int) -> bytes:
    extra = 8 * len(buf) - out_bits
    if extra == 0:
        return buf
    first = buf[0] & (0xFF >> extra)
    return bytes([first]) + buf[1:]


def prg_expand(seed: int, params: HbgParams, mode: str = PRG_BLAKE) -> bytes:
    """G: s-bit seed -> 3s-bit string (packed big-endian, top bits zero)."""
    if seed >> params.s:
        raise ValueError("seed wider than s bits")
    if mode == PRG_BLAKE:
        raw = hashlib.blake2b(
            seed.to_bytes(8, "big"), digest_size=params.out_bytes, person=b"hbg-prg"
        ).digest()
        return _mask_top(raw, params.out_bits)
    if mode == PRG_IDENTITY:
        return seed.to_bytes(params.out_bytes, "big")
    raise ValueError(f"unknown prg mode {mode!r}")


@lru_cache(maxsize=8)
def _prg_image(s: int, out_bytes: int, mode: str) -> dict[bytes, int]:
    params = HbgParams(k=1, s=s)
    assert params.out_bytes == out_bytes
    return {prg_expand(seed, params, mode): seed for seed in range(1 << s)}


# ---------------------------------------------------------------------
# CRS / commitment / opening containers
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class NaorCrs:
    params: HbgParams
    u: np.ndarray  # (k, out_bytes) uint8 shifts
    prg_mode: str = PRG_BLAKE

    mode = "naor"


class DealerRegistry:
    """Mutable trusted-party ledger; confined to one harness thread."""

    def __init__(self):
        self._entries: dict[bytes, tuple[np.ndarray, bytes]] = {}

    def register(self, com: bytes, bits: np.ndarray, receipt: bytes) -> None:
        self._entries[com] = (bits.copy(), receipt)

    def lookup(self, com: bytes):
        return self._entries.get(com)


@dataclass(frozen=True)
class DealerCrs:
    params: HbgParams
    registry: DealerRegistry

    mode = "dealer"


@dataclass(frozen=True)
class HbgCommitment:
    data: bytes  # naor: k * out_bytes packed c_i values; dealer: opaque handle

    def chunk(self, i: int, out_bytes: int) -> bytes:
        return self.data[i * out_bytes : (i + 1) * out_bytes]


@dataclass(frozen=True)
class NaorOpening:
    seeds: np.ndarray  # (k,) uint64


@dataclass(frozen=True)
class SubsetOpening:
    """Naor openings restricted to the positions a proof actually reveals;
    seeds for unopened positions never leave the prover."""

    positions: np.ndarray  # sorted global positions
    seeds: np.ndarray  # aligned with positions

    def seed_at(self, i: int) -> int | None:
        loc = int(np.searchsorted(self.positions, i))
        if loc < len(self.positions) and self.positions[loc] == i:
            return int(self.seeds[loc])
        return None


@dataclass(frozen=True)
class DealerOpening:
    receipt: bytes


def restrict_opening(opening, positions: np.ndarray):
    """Project a full opening onto a revealed-position subset."""
    positions = np.asarray(positions, dtype=np.int64)
    if isinstance(opening, NaorOpening):
        return SubsetOpening(positions.copy(), opening.seeds[positions].copy())
    if isinstance(opening, DealerOpening):
        return opening
    raise ValueError("unknown opening type")


@dataclass(frozen=True)
class HbgOpenResult:
    bits: np.ndarray
    equivocal: np.ndarray  # positions where both cosets contain c_i
    garbage: np.ndarray  # positions in neither coset (defaulted to 0)


# ---------------------------------------------------------------------
# the four algorithms
# ---------------------------------------------------------------------


def hbg_setup(
    k: int, mode: str, rng: np.random.Generator, s: int = 12, prg_mode: str = PRG_BLAKE
):
    params = HbgParams(k=k, s=s)
    if mode == "naor":
        u = rng.integers(0, 256, size=(k, params.out_bytes), dtype=np.uint8)
        extra = 8 * params.out_bytes - params.out_bits
        if extra:
            u[:, 0] &= 0xFF >> extra
        return NaorCrs(params, u, prg_mode)
    if mode == "dealer":
        return DealerCrs(params, DealerRegistry())
    raise ValueError(f"unknown hbg mode {mode!r}")


def hbg_genbits(crs, rng: np.random.Generator):
    """(com, r, openings) for k fresh hidden bits."""
    params = crs.params
    r = rng.integers(0, 2, size=params.k, dtype=np.uint8)
    if crs.mode == "naor":
        seeds = rng.integers(0, 1 << params.s, size=params.k, dtype=np.uint64)
        chunks = bytearray()
        for i in range(params.k):
            g = np.frombuffer(prg_expand(int(seeds[i]), params, crs.prg_mode), dtype=np.uint8)
            c = (g ^ crs.u[i]) if r[i] else g
            chunks += c.tobytes()
        return HbgCommitment(bytes(chunks)), r, NaorOpening(seeds)
    if crs.mode == "dealer":
        com = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
        receipt = hashlib.blake2b(com, digest_size=16, person=b"hbg-receipt").digest()
        crs.registry.register(com, r, receipt)
        return HbgCommitment(com), r, DealerOpening(receipt)
    raise ValueError(f"unknown hbg mode {crs.mode!r}")


def hbg_verify(crs, com: HbgCommitment, i: int, r_i: int, opening) -> bool:
    """Accept iff position i of com opens to bit r_i under the given proof."""
    params = crs.params
    if not 0 <= i < params.k:
        return False
    if crs.mode == "naor":
        if isinstance(opening, NaorOpening):
            seed = int(opening.seeds[i])
        elif isinstance(opening, SubsetOpening):
            found = opening.seed_at(i)
            if found is None:
                return False
            seed = found
        else:
            return False
        if seed >> params.s:
            return False
        c = np.frombuffer(com.chunk(i, params.out_bytes), dtype=np.uint8)
        if len(c) != params.out_bytes:
            return False
        target = (c ^ crs.u[i]) if r_i else c
        return target.tobytes() == prg_expand(seed, params, crs.prg_mode)
    if crs.mode == "dealer":
        entry = crs.registry.lookup(com.data)
        if entry is None or not isinstance(opening, DealerOpening):
            return False
        bits, receipt = entry
        return opening.receipt == receipt and int(bits[i]) == int(r_i)
    return False


def hbg_verify_batch(crs, com: HbgCommitment, indices: np.ndarray, bits: np.ndarray, opening) -> bool:
    """All-positions-at-once verification used on protocol hot paths."""
    indices = np.asarray(indices, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.uint8)
    params = crs.params
    if len(indices) != len(bits) or (len(indices) and (indices.min() < 0 or indices.max() >= params.k)):
        return False
    if crs.mode == "dealer":
        entry = crs.registry.lookup(com.data)
        if entry is None or not isinstance(opening, DealerOpening) or opening.receipt != entry[1]:
            return False
        return bool(np.all(entry[0][indices] == bits))
    return all(hbg_verify(crs, com, int(i), int(b), opening) for i, b in zip(indices, bits))


def hbg_open(crs, com: HbgCommitment) -> HbgOpenResult:
    """Inefficient deterministic Open: exhaustive seed scan per position.

    r_i = 0 if some seed explains c_i directly, else 1 if some seed
    explains c_i XOR u_i, else a fixed default 0 with the garbage flag
    set; positions explainable both ways are flagged equivocal.
    """
    if crs.mode != "naor":
        raise ValueError("Open is defined for the naor instantiation only")
    params = crs.params
    if params.s > OPEN_SEED_LIMIT:
        raise ValueError(f"brute-force Open capped at s <= {OPEN_SEED_LIMIT}")
    image = _prg_image(params.s, params.out_bytes, crs.prg_mode)
    bits = np.zeros(params.k, dtype=np.uint8)
    equivocal = np.zeros(params.k, dtype=bool)
    garbage = np.zeros(params.k, dtype=bool)
    for i in range(params.k):
        c = np.frombuffer(com.chunk(i, params.out_bytes), dtype=np.uint8)
        as_zero = c.tobytes() in image
        as_one = (c ^ crs.u[i]).tobytes() in image
        if as_zero and as_one:
            equivocal[i] = True
            bits[i] = 0
        elif as_one:
            bits[i] = 1
        elif not as_zero:
            garbage[i] = True
            bits[i] = 0
    return HbgOpenResult(bits, equivocal, garbage)


__all__ = [
    "DealerCrs",
    "SubsetOpening",
    "restrict_opening",
    "DealerOpening",
    "DealerRegistry",
    "HbgCommitment",
    "HbgOpenResult",
    "HbgParams",
    "NaorCrs",
    "NaorOpening",
    "OPEN_SEED_LIMIT",
    "PRG_BLAKE",
    "PRG_IDENTITY",
    "hbg_genbits",
    "hbg_open",
    "hbg_setup",
    "hbg_verify",
    "hbg_verify_batch",
    "prg_expand",
]
