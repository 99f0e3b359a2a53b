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


def masked_parity(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """XOR of y over the positions where theta == 0, along the last axis.

    The block parity behind every hidden bit and pad bit: theta marks
    Hadamard-basis positions, whose values never enter the parity. Both
    arguments must already be 0/1 integer arrays of one shape (no
    coercion: the EPR path calls this on millions of entries). An empty
    last axis gives 0; a 1-D pair gives a numpy scalar.
    """
    return np.bitwise_xor.reduce(y & (theta ^ 1), axis=-1).astype(np.uint8)
