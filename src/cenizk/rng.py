"""Deterministic randomness streams.

Every randomized operation in the package draws from an explicit
numpy Generator. Streams are derived from a base seed plus string
labels, so a session seed fully determines every artifact and
independent trials can run on independent streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_words(*labels: object) -> list[int]:
    # numpy integers hash as the Python int of the same value
    labels = tuple(int(x) if isinstance(x, np.integer) else x for x in labels)
    digest = hashlib.blake2b(repr(labels).encode(), digest_size=16).digest()
    return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]


def stream(seed: int, *labels: object) -> np.random.Generator:
    """Child generator for (seed, labels); same arguments, same stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(_label_words(*labels)))
    return np.random.Generator(np.random.PCG64(ss))
