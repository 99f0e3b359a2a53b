"""Bitstring plumbing shared across the protocol modules.

Bitstrings travel in two forms: numpy uint8 0/1 arrays (protocol
layer, vectorizable) and Python ints paired with a width (sparse
statevector keys). Conversions here fix one convention: index 0 of
the array is the most significant bit of the int, matching character
position 0 of the printed bitstring.
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


# Below this many rows one reduce call over the last axis is cheaper than
# the word-column loop; above it the loop wins (the two cross near 256
# rows of 6; at 819200 x 6 the reduce over the short last axis takes ~6x
# as long as the three-column XOR of 2-byte words).
_COLUMN_XOR_MIN_ROWS = 256


def _fold(a: np.ndarray, op: np.ufunc) -> np.ndarray:
    """op (np.bitwise_xor or np.bitwise_and) over the last axis of a uint8
    array: one `op.reduce` for few rows; for many, each row's k bytes read
    as k/w words of w bytes (w the largest of 8, 4, 2, 1 dividing k), the
    word columns combined and the result's bytes folded."""
    k = a.shape[-1]
    if k == 0 or a.size < _COLUMN_XOR_MIN_ROWS * k:
        return op.reduce(a, axis=-1)
    w = next(w for w in (8, 4, 2, 1) if k % w == 0)
    words = np.ascontiguousarray(a).reshape(-1, k).view(f"u{w}")
    out = op(words[:, 0], words[:, 1]) if k > w else words[:, 0].copy()
    for j in range(2, k // w):
        op(out, words[:, j], out=out)
    while w > 1:
        w //= 2
        op(out, out >> (8 * w), out=out)
    return out.astype(np.uint8).reshape(a.shape[:-1])


# Rows per chunk of a large 2-D `masked_parity`: a chunk's temporaries are
# reused, where one pass over 819,200 rows takes fresh pages on every call.
_PARITY_CHUNK_ROWS = 16384


def masked_parity(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """XOR of y over the positions where theta == 0, along the last axis.

    The block parity behind every hidden bit and pad bit: theta marks
    Hadamard-basis positions, whose values never enter the parity. Both
    arguments must already be 0/1 integer arrays of one shape (no
    coercion: the EPR path calls this on millions of entries). An empty
    last axis gives 0; a 1-D pair gives a numpy scalar.
    """
    if theta.shape != y.shape:
        raise ValueError(f"theta has shape {theta.shape} but y has shape {y.shape}")
    if theta.ndim == 2 and len(theta) > (c := _PARITY_CHUNK_ROWS):
        return np.concatenate([masked_parity(theta[i : i + c], y[i : i + c]) for i in range(0, len(theta), c)])
    masked = np.greater(y, theta).view(np.uint8)  # y & (theta ^ 1) on bits, in one pass
    return _fold(masked, np.bitwise_xor)


def check_deletion_cert(cert: np.ndarray, y: np.ndarray, theta: np.ndarray) -> bool:
    """Hadamard-basis certificate check: cert equals y wherever theta is 1.

    Same theta convention as `masked_parity` (1 marks a Hadamard
    position); computational positions are not checked. Any matching
    shapes, e.g. one block or a (blocks, width) matrix.
    """
    mask = theta == 1
    return bool(np.all(cert[mask] == y[mask]))
