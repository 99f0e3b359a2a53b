"""Bitstring plumbing shared across the protocol modules.

Bitstrings travel as numpy uint8 0/1 arrays (protocol layer), as
Python ints paired with a width (sparse statevector keys: index 0 of
the array is the int's most significant bit, character 0 of the
printed bitstring), and as words packing one row each (EPR blocks,
block parities: bit j, value 1 << j, is entry j of the row).
An opened set is a flat bool mask (`flat_mask`), and `opened_rows`
is the one way to take the opened rows of an array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def as_bit_array(bits: Sequence[int] | str | np.ndarray) -> np.ndarray:
    """Coerce "0110", [0,1,1,0] or an array to a uint8 0/1 array."""
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or not np.all(arr <= 1):
        raise ValueError("expected a flat 0/1 bitstring")
    return arr.astype(np.uint8)


def bits_to_int(bits: np.ndarray | Sequence[int] | str) -> int:
    arr = as_bit_array(bits)
    value = 0
    for b in arr.tolist():
        value = (value << 1) | b
    return value


def int_to_bits(value: int, width: int) -> np.ndarray:
    if value < 0 or value >> width:
        raise ValueError(f"value does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def pack_rows(rows) -> np.ndarray:
    """(..., w) 0/1 rows (nonzero counts as 1) as (...,) words of the
    narrowest unsigned dtype that holds w <= 64 bits; empty rows give 0."""
    packed = np.packbits(rows, axis=-1, bitorder="little")
    size = next((n for n in (1, 2, 4, 8) if n >= packed.shape[-1]), None)
    if size is None:
        raise ValueError(f"rows of {np.shape(rows)[-1]} bits do not fit in one word")
    if packed.shape[-1] != size:
        packed = np.concatenate([packed, np.zeros((*packed.shape[:-1], size - packed.shape[-1]), np.uint8)], axis=-1)
    return packed.view(f"<u{size}")[..., 0]


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of `pack_rows` for uint8 words: (..., width) 0/1 uint8 rows."""
    return np.unpackbits(words[..., None], axis=-1, count=width, bitorder="little")


def int_array(a) -> bool:
    """a is a numpy array of a signed or unsigned integer dtype."""
    return isinstance(a, np.ndarray) and a.dtype.kind in "iu"


def flat_mask(a, n: int) -> bool:
    """a is a flat bool mask of n entries: the one opened-set rule."""
    return isinstance(a, np.ndarray) and a.dtype == bool and a.shape == (n,)


def opened_rows(a: np.ndarray, opened: np.ndarray) -> np.ndarray:
    """a[opened] for a flat bool mask over a's first axis; a itself, with
    no copy, when every entry is opened: the one opened-rows rule."""
    return a if opened.all() else a[opened]


def bit_array(a, n: int) -> bool:
    """a is a flat bool or integer array of n entries, each 0 or 1 (no cast first)."""
    return isinstance(a, np.ndarray) and a.dtype.kind in "biu" and a.shape == (n,) and bool(((a == 0) | (a == 1)).all())


def words_fit(a, width: int) -> bool:
    """a is unsigned integer words with no bit at or above width (no cast first)."""
    return isinstance(a, np.ndarray) and a.dtype.kind == "u" and not int(a.max(initial=0)) >> width


def masked_parity(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Parity of each word of y over the bits where theta's word is 0, as
    uint8: the block parity behind every hidden bit and pad bit (a set
    theta bit marks a Hadamard position). theta and y are words of one
    shape and packing, taken as given: EPR block bytes, or `pack_rows`.
    """
    if theta.shape != y.shape:
        raise ValueError(f"theta has shape {theta.shape} but y has shape {y.shape}")
    # one buffer worked in place: at 819,200 blocks a fresh temporary's
    # first-touch pages cost more than the arithmetic
    out = np.invert(theta, out=np.empty(theta.shape, theta.dtype))
    out &= y
    np.bitwise_count(out, out=out)
    out &= 1
    return out.astype(np.uint8, copy=False)


def check_deletion_cert(cert: np.ndarray, y: np.ndarray, theta: np.ndarray) -> bool:
    """Hadamard-basis certificate check: cert equals y on every set bit
    of theta, whose convention is `masked_parity`'s. All three are words
    of one packing (a 0/1 array is one-bit words); a cert of another
    shape than y fails."""
    return np.shape(cert) == np.shape(y) and not ((cert ^ y) & theta).any()
