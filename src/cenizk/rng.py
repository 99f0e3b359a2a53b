"""Deterministic randomness streams.

Every randomized operation in the package draws from an explicit
numpy Generator. Streams are derived from a base seed plus string
labels, so a session seed fully determines every artifact and
independent trials can run on independent streams. `bits` is the one
way a uniform 0/1 array is drawn; callers reach it as `rng.bits` so a
single attribute decides the draw everywhere. A large draw is cut from
32-bit words, taken two to a raw 64-bit output where the generator
buffers half-words, with the bits and whole state of `integers(0, 2)`;
`bits(gen, shape, count=k)` cuts k consecutive draws from one word draw.
`blocks` draws generator and EPR block words: one masked byte each.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Below this many entries `bits` calls integers(0, 2); above it the word
# draw wins (they cross near 1,500-2,000 entries on a 2-vCPU host; at
# 4.9M entries the word draw takes about a third of the time).
_WORD_DRAW_MIN = 2048


def _label_words(*labels: object) -> list[int]:
    # numpy integers hash as the Python int of the same value
    labels = tuple(int(x) if isinstance(x, np.integer) else x for x in labels)
    digest = hashlib.blake2b(repr(labels).encode(), digest_size=16).digest()
    return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Child generator for (seed, labels); same arguments, same stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(_label_words(*labels)))
    return np.random.Generator(np.random.PCG64(ss))


def bits(gen: np.random.Generator, shape, count: int = 1) -> np.ndarray:
    """`gen.integers(0, 2, size=shape, dtype=np.uint8)`, same gen state after.

    numpy spends one byte of a buffered `next_uint32` per entry: entry i
    is the top bit of little-endian byte i % 4 of word i // 4, and the
    last word's unused bytes are dropped, so large draws shift whole
    words' bytes: from `random_raw` once count * n reaches
    `_WORD_DRAW_MIN`, else (and on MT19937) from one uint32 `integers`.
    With count > 1 the result stacks count such consecutive draws,
    shape (count, *shape), cut from one word draw: each draw starts on
    a fresh word, so row j is words [j*w, (j+1)*w) for w = ceil(n/4).
    """
    n = math.prod(shape) if isinstance(shape, tuple) else int(shape)
    if count == 1 and n < _WORD_DRAW_MIN:
        return gen.integers(0, 2, size=shape, dtype=np.uint8)
    row = -(-n // 4) * 4
    words = count * row // 4
    if count * n < _WORD_DRAW_MIN or "has_uint32" not in (state := gen.bit_generator.state):
        out = gen.integers(0, 1 << 32, size=words, dtype=np.uint32)
    else:  # next_uint32 splits a raw output low half first, buffering the high half
        held = state["has_uint32"]
        raw = gen.bit_generator.random_raw((words - held + 1) // 2).astype("<u8", copy=False).view("<u4")
        after = gen.bit_generator.state  # as integers leaves it: odd last half buffered, uinteger the last high half
        after["has_uint32"], after["uinteger"] = (words - held) % 2, int(raw[-1])
        gen.bit_generator.state = after
        out = (np.append(np.uint32(state["uinteger"]), raw) if held else raw)[:words]
    out = out.astype("<u4", copy=False).view(np.uint8)
    out >>= 7
    if count == 1:
        return out[:n].reshape(shape)
    return out.reshape(count, row)[:, :n].reshape((count, *shape) if isinstance(shape, tuple) else (count, n))


def blocks(gen: np.random.Generator, n: int, width: int) -> np.ndarray:
    """n uniform words of width <= 8 bits as (n,) uint8: word i is byte i
    of the little-endian `random_raw` outputs, masked. Advances the bit
    generator by ceil(n/8) raw outputs; its buffered half-word stays."""
    out = gen.bit_generator.random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
    out &= (1 << width) - 1
    return out
