"""Hidden-bits generator with two instantiations.

The output is k words of `width` bits, one per position (the EPR
protocol takes one per block, in the `bits` word convention). naor
commits each bit of a word: bit j of word i is committed bit i*width+j.

naor mode: per committed bit the CRS carries a random shift u of 3s
bits; committing to bit b means publishing c = G(seed) XOR (b * u) for a
fresh s-bit seed. Binding is statistical: a fixed c_i lies in the image
coset of at most one bit value except with probability ~2^-s over the
CRS, and the inefficient Open recovers the committed string by testing
c and c XOR u against G's image of all 2^s seeds. Hiding is
computational (the PRG); commitments are NOT succinct (|com| grows with
k), which is why asymptotic soundness statements downstream stay analytic.

G is one fixed function: `_expand` hashes one seed (the hiding tests
swap a broken `_expand` in as their negative control). `_g_table(s)` is
G at every s-bit seed, hashed once per s and G's only cache; GenBits,
batch verification, `prg_expand` and Open (G's image) read it.
s lies in 2..SEED_BITS_MAX, so the table has at most 2^16 rows. The
commitment relation (`_commitments`) runs in passes of _PASS_BITS
committed bits: GenBits builds com with it and batch verification checks
com's rows against it.

The opened set is one (k,) bool mask over positions, the only form
`restrict_opening` and `hbg_verify_batch` accept; `hbg_verify` is the
batch at a one-position mask. A naor opening is the seeds of the
committed bits of the opened positions, in position order; their
positions follow from the mask and the width, so no seed of a closed
position leaves the prover and no position travels.

dealer mode: a trusted-registry test double with perfect binding and
hiding, for protocol-logic experiments that want an ideal generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng as rng_mod
from .bits import flat_mask, int_array, opened_rows, pack_rows, unpack_rows, words_fit

SEED_BITS_MAX = 16  # s lies in 2..SEED_BITS_MAX: G's table has at most 2^16 rows
_PASS_BITS = 1 << 16  # committed bits per pass of the commitment relation


@dataclass(frozen=True)
class HbgParams:
    k: int  # positions
    s: int
    width: int = 1  # bits per position

    def __post_init__(self):
        if self.k < 1 or not 2 <= self.s <= SEED_BITS_MAX or not 1 <= self.width <= 8:
            raise ValueError(f"need k >= 1, 2 <= s <= {SEED_BITS_MAX} and 1 <= width <= 8 (one byte per position)")

    @property
    def committed(self) -> int:  # committed bits: width per position
        return self.k * self.width

    @property
    def out_bits(self) -> int:
        return 3 * self.s

    @property
    def out_bytes(self) -> int:
        return (self.out_bits + 7) // 8


def _expand(seed: int, n: int) -> bytes:
    """One seed's n bytes of G, before the top bits are masked."""
    return hashlib.blake2b(seed.to_bytes(8, "big"), digest_size=n, person=b"hbg-prg").digest()


@lru_cache(maxsize=8)
def _g_table(s: int) -> np.ndarray:
    """G at every s-bit seed: a read-only (2^s, out_bytes) uint8 array whose
    row x is G(x), big-endian with the top bits zero."""
    params = HbgParams(k=1, s=s)
    n = params.out_bytes
    table = np.frombuffer(bytearray(b"".join(_expand(x, n) for x in range(1 << s))), np.uint8).reshape(-1, n)
    table[:, 0] &= 0xFF >> (8 * n - params.out_bits)
    table.flags.writeable = False
    return table


def prg_expand(seed: int, params: HbgParams) -> bytes:
    """G at one seed: s-bit seed -> 3s-bit string (packed big-endian, top bits zero)."""
    if seed >> params.s:
        raise ValueError("seed wider than s bits")
    return _g_table(params.s)[seed].tobytes()


# ---------------------------------------------------------------------
# CRS / commitment / opening containers
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class NaorCrs:
    params: HbgParams
    u: np.ndarray  # (committed, out_bytes) uint8 shifts

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


@dataclass(frozen=True)
class NaorOpening:
    seeds: np.ndarray  # one per committed bit of the opened positions, in position order


@dataclass(frozen=True)
class DealerOpening:
    receipt: bytes


def restrict_opening(opening, opened: np.ndarray, width: int = 1):
    """The opening of the positions set in opened, a (k,) bool mask: a naor
    opening keeps the seeds of their committed bits. A dealer opening is
    position-free, and an opening of every position is already that opening;
    both come back as is."""
    if isinstance(opening, NaorOpening) and not opened.all():
        return NaorOpening(opening.seeds[np.repeat(opened, width)])
    if isinstance(opening, (NaorOpening, DealerOpening)):
        return opening
    raise ValueError("unknown opening type")


@dataclass(frozen=True)
class HbgOpenResult:
    bits: np.ndarray  # one word per position
    equivocal: np.ndarray  # positions with a bit whose c lies in both cosets
    garbage: np.ndarray  # positions with a bit in neither coset (defaulted to 0)


# ---------------------------------------------------------------------
# the four algorithms
# ---------------------------------------------------------------------


def hbg_setup(k: int, mode: str, rng: np.random.Generator, s: int = 12, width: int = 1):
    """CRS for k positions of width bits each."""
    params = HbgParams(k=k, s=s, width=width)
    if mode == "naor":
        u = rng.integers(0, 256, size=(params.committed, params.out_bytes), dtype=np.uint8)
        u[:, 0] &= 0xFF >> (8 * params.out_bytes - params.out_bits)
        return NaorCrs(params, u)
    if mode == "dealer":
        return DealerCrs(params)
    raise ValueError(f"unknown hbg mode {mode!r}")


def _passes(n: int):
    """Slices of at most _PASS_BITS over n committed bits."""
    return (slice(lo, lo + _PASS_BITS) for lo in range(0, n, _PASS_BITS))


def _commitments(crs: NaorCrs, u: np.ndarray, seeds: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """c = G(seed) ^ bit * u, one row per committed bit with its shift row in u;
    seeds must lie in [0, 2^s). The gather copies, so the table stays as is."""
    rows = _g_table(crs.params.s)[seeds]
    rows ^= u * bits[:, None]
    return rows


def hbg_genbits(crs, rng: np.random.Generator):
    """(com, r, openings) for k fresh width-bit words; r is read-only uint8."""
    params = crs.params
    r = rng_mod.blocks(rng, params.k, params.width)
    r.flags.writeable = False
    if crs.mode == "naor":
        seeds = rng.integers(0, 1 << params.s, size=params.committed, dtype=np.uint64)
        bits = unpack_rows(r, params.width).ravel()
        com = b"".join(_commitments(crs, crs.u[p], seeds[p], bits[p]).tobytes() for p in _passes(params.committed))
        return HbgCommitment(com), r, NaorOpening(seeds)
    if crs.mode == "dealer":
        com = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
        receipt = hashlib.blake2b(com, digest_size=16, person=b"hbg-receipt").digest()
        crs.registry[com] = (r, receipt)
        return HbgCommitment(com), r, DealerOpening(receipt)
    raise ValueError(f"unknown hbg mode {crs.mode!r}")


def hbg_verify(crs, com: HbgCommitment, i: int, r_i: int, opening) -> bool:
    """Accept iff position i of com opens to the word r_i: the batch at a one-position mask."""
    if not all(isinstance(v, (int, np.integer)) for v in (i, r_i)) or not (0 <= r_i < 256 and 0 <= i < crs.params.k):
        return False
    return hbg_verify_batch(crs, com, np.arange(crs.params.k) == i, np.array([r_i], dtype=np.uint8), opening)


def hbg_verify_batch(crs, com: HbgCommitment, opened: np.ndarray, words: np.ndarray, opening) -> bool:
    """Accept iff com (bytes data) opens each position set in opened, a
    (k,) bool mask, to its word in words (`words_fit`, one per set entry,
    in order). Dealer mode compares the registered words once. Naor mode
    takes one seed per committed bit of the opened positions, in order,
    and checks com's rows, exactly `committed` of them, against the
    relation by pass."""
    params = crs.params
    if not (isinstance(com, HbgCommitment) and isinstance(com.data, bytes)) or not words_fit(words, params.width):
        return False
    if not flat_mask(opened, params.k) or words.shape != (np.count_nonzero(opened),):
        return False
    if crs.mode == "dealer":
        entry = crs.registry.get(com.data)
        if entry is None or not isinstance(opening, DealerOpening) or opening.receipt != entry[1]:
            return False
        return bool(np.array_equal(opened_rows(entry[0], opened), words))
    seeds = opening.seeds if isinstance(opening, NaorOpening) else None
    if len(com.data) != params.committed * params.out_bytes or not int_array(seeds):
        return False
    if seeds.shape != (words.size * params.width,) or (len(seeds) and (seeds.min() < 0 or int(seeds.max()) >> params.s)):
        return False
    committed = np.repeat(opened, params.width)
    bits = unpack_rows(words.astype(np.uint8), params.width).ravel()
    rows = np.frombuffer(com.data, dtype=np.uint8).reshape(params.committed, params.out_bytes)
    lo = 0
    for part in _passes(params.committed):
        take = committed[part]
        hi = lo + np.count_nonzero(take)
        u = opened_rows(crs.u[part], take)
        if not np.array_equal(opened_rows(rows[part], take), _commitments(crs, u, seeds[lo:hi], bits[lo:hi])):
            return False
        lo = hi
    return True


def hbg_open(crs, com: HbgCommitment) -> HbgOpenResult:
    """Inefficient deterministic Open: exhaustive seed scan per position.

    Per committed bit: 0 if some seed explains c directly, else 1 if some
    seed explains c XOR u, else 0 flagged garbage; explainable both ways is
    equivocal. A position packs its bits and is flagged if any bit is.
    """
    if crs.mode != "naor":
        raise ValueError("Open is defined for the naor instantiation only")
    params = crs.params
    c = np.frombuffer(com.data, dtype=np.uint8).reshape(params.committed, params.out_bytes)  # else ValueError
    # rows as big-endian integers: c and c ^ u, each searched for in G's sorted image
    weights = 256 ** np.arange(params.out_bytes - 1, -1, -1)
    image, tested = np.sort(_g_table(params.s) @ weights), np.concatenate([c, c ^ crs.u]) @ weights
    as_zero, as_one = (image[np.searchsorted(image, tested).clip(max=len(image) - 1)] == tested).reshape(2, -1)
    words = (params.k, params.width)
    return HbgOpenResult(
        pack_rows((as_one & ~as_zero).reshape(words)),
        (as_zero & as_one).reshape(words).any(axis=1),
        (~(as_zero | as_one)).reshape(words).any(axis=1),
    )


__all__ = [
    "DealerCrs",
    "restrict_opening",
    "DealerOpening",
    "HbgCommitment",
    "HbgOpenResult",
    "HbgParams",
    "NaorCrs",
    "NaorOpening",
    "SEED_BITS_MAX",
    "hbg_genbits",
    "hbg_open",
    "hbg_setup",
    "hbg_verify",
    "hbg_verify_batch",
    "prg_expand",
]
