"""Hidden-bits generator with two instantiations.

The output is k words of `width` bits, one per position (the EPR
protocol takes one per block, in the `bits` word convention). naor
commits each bit of a word: bit j of word i is committed bit i*width+j.

naor mode: per committed bit the CRS carries a random shift u of 3s
bits; committing to bit b means publishing c = G(seed) XOR (b * u)
for a fresh s-bit seed. Binding is statistical: a fixed
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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng as rng_mod
from .bits import pack_rows, unpack_rows

OPEN_SEED_LIMIT = 22  # brute-force Open guard: at most 2^22 seeds

PRG_BLAKE = "blake"
PRG_IDENTITY = "identity"


@dataclass(frozen=True)
class HbgParams:
    k: int  # positions
    s: int
    width: int = 1  # bits per position

    def __post_init__(self):
        if self.k < 1 or self.s < 2 or not 1 <= self.width <= 8:
            raise ValueError("need k >= 1, s >= 2 and 1 <= width <= 8 (one byte per position)")

    @property
    def committed(self) -> int:  # committed bits: width per position
        return self.k * self.width

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
    u: np.ndarray  # (committed, out_bytes) uint8 shifts
    prg_mode: str = PRG_BLAKE

    mode = "naor"


@dataclass(frozen=True)
class DealerCrs:
    params: HbgParams
    # the trusted party's mutable ledger, confined to one harness thread:
    # commitment -> (read-only registered bits, receipt)
    registry: dict[bytes, tuple[np.ndarray, bytes]] = field(default_factory=dict, compare=False)

    mode = "dealer"


@dataclass(frozen=True)
class HbgCommitment:
    data: bytes  # naor: committed * out_bytes packed c values; dealer: opaque handle

    def chunk(self, i: int, out_bytes: int) -> bytes:
        return self.data[i * out_bytes : (i + 1) * out_bytes]


@dataclass(frozen=True)
class NaorOpening:
    seeds: np.ndarray  # (committed,) uint64


@dataclass(frozen=True)
class SubsetOpening:
    """Naor openings restricted to the committed bits a proof actually
    reveals; seeds for unopened bits never leave the prover."""

    positions: np.ndarray  # sorted committed-bit positions
    seeds: np.ndarray  # aligned with positions

    def seed_at(self, i: int) -> int | None:
        loc = int(np.searchsorted(self.positions, i))
        if loc < len(self.positions) and self.positions[loc] == i:
            return int(self.seeds[loc])
        return None


@dataclass(frozen=True)
class DealerOpening:
    receipt: bytes


def _position_array(positions) -> np.ndarray:
    """Positions as an int64 array; a range becomes the matching arange."""
    if isinstance(positions, range):
        return np.arange(positions.start, positions.stop, positions.step, dtype=np.int64)
    return np.asarray(positions, dtype=np.int64)


def restrict_opening(opening, blocks: np.ndarray | range, width: int = 1):
    """Project a full opening onto the committed bits [i*width, (i+1)*width)
    of the revealed blocks i (a bool mask, an index array or a range). A
    dealer opening is position-free and comes back as is, positions unbuilt."""
    if isinstance(opening, DealerOpening):
        return opening
    if isinstance(opening, NaorOpening):
        blocks = np.flatnonzero(blocks) if getattr(blocks, "dtype", None) == bool else _position_array(blocks)
        positions = (blocks[:, None] * width + np.arange(width)).ravel()
        return SubsetOpening(positions, opening.seeds[positions])
    raise ValueError("unknown opening type")


@dataclass(frozen=True)
class HbgOpenResult:
    bits: np.ndarray  # one word per position
    equivocal: np.ndarray  # positions with a bit whose c lies in both cosets
    garbage: np.ndarray  # positions with a bit in neither coset (defaulted to 0)


# ---------------------------------------------------------------------
# the four algorithms
# ---------------------------------------------------------------------


def hbg_setup(
    k: int, mode: str, rng: np.random.Generator, s: int = 12, prg_mode: str = PRG_BLAKE, width: int = 1
):
    """CRS for k positions of width bits each."""
    params = HbgParams(k=k, s=s, width=width)
    if mode == "naor":
        u = rng.integers(0, 256, size=(params.committed, params.out_bytes), dtype=np.uint8)
        extra = 8 * params.out_bytes - params.out_bits
        if extra:
            u[:, 0] &= 0xFF >> extra
        return NaorCrs(params, u, prg_mode)
    if mode == "dealer":
        return DealerCrs(params)
    raise ValueError(f"unknown hbg mode {mode!r}")


def hbg_genbits(crs, rng: np.random.Generator):
    """(com, r, openings) for k fresh width-bit words; r is read-only uint8."""
    params = crs.params
    r = rng_mod.blocks(rng, params.k, params.width)
    r.flags.writeable = False
    if crs.mode == "naor":
        seeds = rng.integers(0, 1 << params.s, size=params.committed, dtype=np.uint64)
        committed = unpack_rows(r, params.width).ravel().tolist()
        chunks = bytearray()
        for p, (seed, bit) in enumerate(zip(seeds.tolist(), committed)):
            g = np.frombuffer(prg_expand(seed, params, crs.prg_mode), dtype=np.uint8)
            chunks += ((g ^ crs.u[p]) if bit else g).tobytes()
        return HbgCommitment(bytes(chunks)), r, NaorOpening(seeds)
    if crs.mode == "dealer":
        com = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
        receipt = hashlib.blake2b(com, digest_size=16, person=b"hbg-receipt").digest()
        crs.registry[com] = (r, receipt)
        return HbgCommitment(com), r, DealerOpening(receipt)
    raise ValueError(f"unknown hbg mode {crs.mode!r}")


def _int_arrays(*arrays) -> bool:
    return all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in arrays)


def _naor_opening_ok(opening, committed: int) -> bool:
    """A naor opening holds one seed per committed bit it covers: all of
    them, or a flat seed array aligned with a flat position array. Seeds
    and positions are integer arrays."""
    if isinstance(opening, NaorOpening):
        return _int_arrays(opening.seeds) and opening.seeds.shape == (committed,)
    if isinstance(opening, SubsetOpening):
        return (
            _int_arrays(opening.positions, opening.seeds)
            and opening.positions.ndim == 1
            and opening.seeds.shape == opening.positions.shape
        )
    return False


def hbg_verify(crs, com: HbgCommitment, i: int, r_i: int, opening) -> bool:
    """Accept iff position i of com opens to the word r_i under the given proof."""
    params = crs.params
    if not 0 <= i < params.k:
        return False
    if crs.mode == "naor":
        r_i, w = int(r_i), params.width
        if not _naor_opening_ok(opening, params.committed) or r_i >> w:
            return False
        for j, p in enumerate(range(i * w, (i + 1) * w)):
            seed = int(opening.seeds[p]) if isinstance(opening, NaorOpening) else opening.seed_at(p)
            c = np.frombuffer(com.chunk(p, params.out_bytes), dtype=np.uint8)
            if seed is None or seed >> params.s or len(c) != params.out_bytes:
                return False
            if ((c ^ crs.u[p]) if (r_i >> j) & 1 else c).tobytes() != prg_expand(seed, params, crs.prg_mode):
                return False
        return True
    if crs.mode == "dealer":
        entry = crs.registry.get(com.data)
        if entry is None or not isinstance(opening, DealerOpening):
            return False
        bits, receipt = entry
        return opening.receipt == receipt and int(bits[i]) == int(r_i)
    return False


def hbg_verify_batch(
    crs, com: HbgCommitment, indices: np.ndarray | range, bits: np.ndarray, opening
) -> bool:
    """All-positions-at-once verification used on protocol hot paths.

    indices is an array of positions or a range, bits their words; dealer
    mode compares the registered words once, a contiguous range (step 1)
    as one slice of them."""
    bits = np.asarray(bits, dtype=np.uint8)
    params = crs.params
    if isinstance(indices, range) and indices.step == 1:
        take = slice(indices.start, indices.stop)
        lo, hi = indices.start, indices.stop - 1
    else:
        indices = take = _position_array(indices)
        lo, hi = (indices.min(), indices.max()) if len(indices) else (0, 0)
    if len(indices) != len(bits) or (len(indices) and (lo < 0 or hi >= params.k)):
        return False
    if crs.mode == "dealer":
        entry = crs.registry.get(com.data)
        if entry is None or not isinstance(opening, DealerOpening) or opening.receipt != entry[1]:
            return False
        return bool(np.array_equal(entry[0][take], bits))
    return _naor_opening_ok(opening, params.committed) and all(
        hbg_verify(crs, com, int(i), int(b), opening) for i, b in zip(indices, bits)
    )


def hbg_open(crs, com: HbgCommitment) -> HbgOpenResult:
    """Inefficient deterministic Open: exhaustive seed scan per position.

    Per committed bit: 0 if some seed explains c directly, else 1 if some
    seed explains c XOR u, else 0 flagged garbage; explainable both ways is
    equivocal. A position packs its bits and is flagged if any bit is.
    """
    if crs.mode != "naor":
        raise ValueError("Open is defined for the naor instantiation only")
    params = crs.params
    if params.s > OPEN_SEED_LIMIT:
        raise ValueError(f"brute-force Open capped at s <= {OPEN_SEED_LIMIT}")
    image = _prg_image(params.s, params.out_bytes, crs.prg_mode)
    as_zero, as_one = np.zeros((2, params.committed), dtype=bool)
    for i in range(params.committed):
        c = np.frombuffer(com.chunk(i, params.out_bytes), dtype=np.uint8)
        as_zero[i], as_one[i] = c.tobytes() in image, (c ^ crs.u[i]).tobytes() in image
    words = (params.k, params.width)
    return HbgOpenResult(
        pack_rows((as_one & ~as_zero).reshape(words)),
        (as_zero & as_one).reshape(words).any(axis=1),
        (~(as_zero | as_one)).reshape(words).any(axis=1),
    )


__all__ = [
    "DealerCrs",
    "SubsetOpening",
    "restrict_opening",
    "DealerOpening",
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
