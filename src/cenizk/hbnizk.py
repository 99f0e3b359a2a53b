"""NIZK for directed Hamiltonicity in the hidden-bits model.

A hidden random string is carved into repetitions of m*m*b bits; each
b-bit slice decodes to one boolean matrix entry (1 iff all-ones, so
entries are 1 with probability 2^-b). A matrix is *useful* when its
one-entries form a single directed n-cycle on n distinct vertices.

Per repetition the prover either opens the whole block (matrix not
useful; the verifier re-decodes and checks non-usefulness) or, for a
useful matrix, maps the witness cycle onto the hidden cycle and opens
every bit outside the n cycle vertices plus every inside entry that is
a non-edge of the statement. All opened entries must decode to zero;
the n hidden cycle entries sit on witness edges and stay closed.

Soundness rests on genuinely useful blocks: a cheating prover for a
non-Hamiltonian statement can never answer one, because covering the
hidden cycle with claimed statement edges would exhibit a Hamiltonian
cycle. Blocks that are not useful admit two answers: the honest
reveal-all (which completeness forces the verifier to accept, so it is
also the trivial cheat when *every* block is unuseful) and a fabricated
useful-claim whose unopened entries hide the block's ones. The
soundness error is therefore (1 - useful_probability)^repetitions plus
the fabricated-claim rate; production parameterizations pick
repetitions large against 1/useful_probability, which is out of reach
on a desk, so the soundness experiments here measure the
fabricated-claim adversary (cheat_prove) and treat the reveal-all term
analytically.

The opened set is a (total_bits,) bool mask; any such mask is valid, so
the verifier checks only dtype and shape. It receives only the opened
values r_I, in mask order; unopened hidden bits never cross the interface.
hb_verify decodes every repetition of the hidden string, closed bits read as 0.

usefulness is the one decoding reference. Blocks of at most
_TABLE_MAX_BITS bits (the criterion-3 fixtures: 4 bits at m=2, b=1
and 9 bits at m=3, b=1) are decoded by table lookup: usefulness fills
a table over every block value once per (m, b, n), and hb_prove,
hb_verify and hb_simulate pack the blocks of all repetitions with one
dot product and look them up. Larger blocks (criterion 1: 40,960
bits) share one bits_to_matrix; usefulness sees only the matrices
with n ones. required_mask is cached per (map, statement, m, b).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng as rng_mod
from .bits import flat_mask
from .graphs import CycleWitness, Digraph, require_witness


@dataclass(frozen=True)
class HbParams:
    """Hidden-bit consumption: k' = matrix_side^2 * block_len per
    repetition, k = repetitions * k' in total."""

    n: int
    repetitions: int
    matrix_side: int
    block_len: int

    def __post_init__(self):
        if self.matrix_side < self.n:
            raise ValueError("matrix_side must be at least n")
        if min(self.n, self.repetitions, self.block_len) < 1:
            raise ValueError("all parameters must be positive")

    @property
    def bits_per_rep(self) -> int:
        return self.matrix_side * self.matrix_side * self.block_len

    @property
    def total_bits(self) -> int:
        return self.repetitions * self.bits_per_rep


@dataclass(frozen=True)
class RepRevealAll:
    pass


@dataclass(frozen=True)
class RepUseful:
    vertex_map: tuple[int, ...]  # graph vertex a -> matrix vertex map[a]


@dataclass(frozen=True)
class HbProof:
    reps: tuple  # one RepRevealAll | RepUseful per repetition


# ---------------------------------------------------------------------
# block decoding and the usefulness test
# ---------------------------------------------------------------------


def bits_to_matrix(block: np.ndarray, m: int, b: int) -> np.ndarray:
    """Decode (..., m*m*b) hidden bits to (..., m, m) matrices (entry = all-nonzero slice):
    each slice read as words of w bytes (w the largest of 8, 4, 2, 1 dividing
    b), the words ANDed, then the bytes of the result."""
    block = np.asarray(block, dtype=np.uint8)
    if block.shape[-1:] != (m * m * b,):
        raise ValueError(f"block must have {m * m * b} bits")
    block = (block != 0).view(np.uint8) if block.max(initial=0) > 1 else block
    w = next(w for w in (8, 4, 2, 1) if b % w == 0)
    words = np.ascontiguousarray(block).reshape(-1, b).view(f"u{w}")
    out = words[:, 0] & words[:, 1] if b > w else words[:, 0].copy()  # worked in place from here
    for j in range(2, b // w):
        out &= words[:, j]
    while w > 1:
        w //= 2
        out &= out >> (8 * w)
    return out.astype(np.uint8).view(bool).reshape(*block.shape[:-1], m, m)


def usefulness(matrix: np.ndarray, n: int) -> Optional[CycleWitness]:
    """The hidden cycle when the ones form a single directed n-cycle, else
    None: a CycleWitness over matrix vertices, walked from the smallest.

    That is: n >= 2, and the ones are a permutation of n vertices (n
    ones, one in each of n rows, the same n columns) whose orbit from
    the smallest vertex has length n.
    """
    ones = np.argwhere(matrix).tolist()
    succ = dict(ones)
    if n < 2 or len(ones) != n or len(succ) != n or set(succ.values()) != set(succ):
        return None
    orbit = [min(succ)]
    for _ in range(n - 1):
        orbit.append(succ[orbit[-1]])
        if orbit[-1] == orbit[0]:
            return None
    return CycleWitness(tuple(orbit))


# Blocks of at most this many bits are decoded by table lookup (larger
# ones in one batched pass). Filling the table takes one usefulness call
# per block value: 4,096 (about 40 ms) at the cap, 65,536 (0.6 s) at 16.
_TABLE_MAX_BITS = 12


@functools.lru_cache(maxsize=32)
def _block_decoder(m: int, b: int, n: int) -> Callable[[np.ndarray], list[Optional[CycleWitness]]]:
    """Decoder for a (reps, m*m*b) block array: usefulness of each row.

    Up to _TABLE_MAX_BITS bits, one dot product packs every row to an
    integer (block bit i is integer bit i), which indexes a table that
    usefulness fills once per block value. Larger blocks take one
    batched bits_to_matrix; rows without exactly n ones are None (as
    usefulness gives) and only the rest reach usefulness."""
    kp = m * m * b
    if kp > _TABLE_MAX_BITS:
        return lambda blocks: [
            usefulness(mat, n) if np.count_nonzero(mat) == n else None for mat in bits_to_matrix(blocks, m, b)
        ]
    weights = 1 << np.arange(kp, dtype=np.int64)
    every_block = (np.arange(1 << kp)[:, None] >> np.arange(kp)) & 1
    table = tuple(usefulness(mat, n) for mat in bits_to_matrix(every_block, m, b))
    return lambda blocks: [table[code] for code in (blocks @ weights).tolist()]


def useful_probability(m: int, b: int, n: int) -> float:
    """Closed-form chance a uniform block decodes to a useful matrix:
    the oracle the tests check the block decoder against.

    C(m,n) vertex choices times (n-1)! directed cycles, each pattern
    with probability p^n (1-p)^(m^2-n) at entry probability p = 2^-b.
    """
    p = 2.0**-b
    return math.comb(m, n) * math.factorial(n - 1) * p**n * (1.0 - p) ** (m * m - n)


# ---------------------------------------------------------------------
# opened-position bookkeeping
# ---------------------------------------------------------------------


def required_mask(vertex_map: tuple[int, ...], x: Digraph, params: HbParams) -> np.ndarray:
    """(bits_per_rep,) mask of the bits a useful-claim must open: all of
    them except the entries carrying statement edges under the map.
    Cached; the returned array is read-only."""
    return _required_mask(tuple(vertex_map), x.n, x.adjacency.tobytes(), params.matrix_side, params.block_len)


@functools.lru_cache(maxsize=64)
def _required_mask(vertex_map: tuple[int, ...], n: int, adjacency: bytes, m: int, b: int) -> np.ndarray:
    mask = np.ones(m * m * b, dtype=bool)
    for a, c in np.argwhere(np.frombuffer(adjacency, dtype=bool).reshape(n, n)):
        start = (vertex_map[a] * m + vertex_map[c]) * b
        mask[start : start + b] = False
    mask.flags.writeable = False
    return mask


def _opened_mask(vmaps: list[Optional[tuple[int, ...]]], x: Digraph, params: HbParams) -> np.ndarray:
    """(repetitions, bits_per_rep) read-only mask of opened bits: the
    whole block of a reveal-all repetition (map None), required_mask of
    a useful-claim. The EPR prover's state and its proof share it."""
    mask = np.ones((params.repetitions, params.bits_per_rep), dtype=bool)
    for rep, vmap in enumerate(vmaps):
        if vmap is not None:
            mask[rep] = required_mask(vmap, x, params)
    mask.flags.writeable = False
    return mask


def _proof(vmaps: list[Optional[tuple[int, ...]]]) -> HbProof:
    return HbProof(tuple(RepRevealAll() if vmap is None else RepUseful(vmap) for vmap in vmaps))


def _anchored_map(witness: CycleWitness, hidden: CycleWitness) -> tuple[int, ...]:
    # Anchor graph vertex 0 to the smallest hidden-cycle vertex (the first
    # of hidden.order), then walk both cycles in step; the unique map
    # wrapping the witness cycle onto the hidden one under that anchoring.
    n = len(witness.order)
    start = witness.order.index(0)
    vmap = [0] * n
    for step, h in enumerate(hidden.order):
        vmap[witness.order[(start + step) % n]] = h
    return tuple(vmap)


def _valid_map(vertex_map, params: HbParams) -> bool:
    # n distinct matrix vertices, each exactly an int as wire.hbproof_from_payload reads them
    if not isinstance(vertex_map, (tuple, list)) or len(vertex_map) != params.n:
        return False
    if any(type(v) is not int or not 0 <= v < params.matrix_side for v in vertex_map):
        return False
    return len(set(vertex_map)) == params.n


# ---------------------------------------------------------------------
# prove / verify / simulate
# ---------------------------------------------------------------------


def hb_prove(
    r: np.ndarray, x: Digraph, witness: CycleWitness, params: HbParams
) -> tuple[np.ndarray, HbProof]:
    """Deterministic hidden-bits prover. Returns (opened, proof) with
    opened the (total_bits,) mask of opened bits."""
    require_witness(x, witness)
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (params.total_bits,):
        raise ValueError(f"hidden string must have {params.total_bits} bits")
    decode = _block_decoder(params.matrix_side, params.block_len, params.n)
    hidden = decode(r.reshape(params.repetitions, params.bits_per_rep))
    vmaps = [None if cycle is None else _anchored_map(witness, cycle) for cycle in hidden]
    return _opened_mask(vmaps, x, params).ravel(), _proof(vmaps)


def hb_verify(opened: np.ndarray, r_I: np.ndarray, x: Digraph, proof: HbProof, params: HbParams) -> bool:
    """Accept iff every repetition checks out. opened must be a
    (total_bits,) bool mask and r_I hold one bit (a bool or an integer
    0 or 1) per opened bit. Malformed input rejects, it never raises."""
    try:
        r_I = np.asarray(r_I)
    except (TypeError, ValueError):
        return False
    # only bool or integer 0s and 1s, checked before the cast could wrap or truncate
    if r_I.dtype.kind not in "biu" or r_I.max(initial=0) > 1 or r_I.min(initial=0) < 0:
        return False
    reps = proof.reps if isinstance(proof, HbProof) else None
    if not isinstance(reps, (tuple, list)) or len(reps) != params.repetitions:
        return False
    if not flat_mask(opened, params.total_bits) or r_I.shape != (np.count_nonzero(opened),):
        return False
    hidden = r_I.astype(np.uint8, copy=False)
    if hidden.size < opened.size:  # the hidden string, every closed bit read as 0
        hidden = np.zeros(opened.size, dtype=np.uint8)
        hidden[opened] = r_I
    shape = (params.repetitions, params.bits_per_rep)
    hidden, rows = hidden.reshape(shape), opened.reshape(shape)
    full = rows.all(axis=1)
    cycles = _block_decoder(params.matrix_side, params.block_len, params.n)(hidden)
    for rep, rep_proof in enumerate(reps):
        if isinstance(rep_proof, RepRevealAll):  # whole, and decoding as not useful
            if not full[rep] or cycles[rep] is not None:
                return False
        elif not isinstance(rep_proof, RepUseful) or not _valid_map(rep_proof.vertex_map, params):
            return False
        elif (rows[rep] != required_mask(rep_proof.vertex_map, x, params)).any():
            return False
        # required_mask opens whole entries, each of which must decode to 0;
        # the closed ones, on statement edges under the map, read as 0
        elif hidden[rep].reshape(-1, params.block_len).all(axis=1).any():
            return False
    return True


def hb_simulate(
    x: Digraph, params: HbParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, HbProof]:
    """Witness-free simulator: (opened, r_I, proof).

    Samples every block uniformly in one draw; not-useful blocks are
    revealed honestly. For a useful block only the anchored map's
    distribution matters, and for the real prover that map is a uniform
    anchored bijection onto the hidden cycle's vertices regardless of
    the witness, so the simulator samples it directly, after the blocks,
    in repetition order. Opened values are the true zeros of the sampled
    block.
    """
    decode = _block_decoder(params.matrix_side, params.block_len, params.n)
    blocks = rng_mod.bits(rng, params.bits_per_rep, count=params.repetitions).reshape(params.repetitions, -1)
    vmaps = []
    for rep, hidden in enumerate(decode(blocks)):
        if hidden is None:
            vmaps.append(None)
        else:
            w = sorted(hidden.order)
            vmaps.append(tuple([w[0]] + [int(v) for v in rng.permutation(w[1:])]))
            blocks[rep] = 0  # a useful claim opens only entries that decode to 0
    mask = _opened_mask(vmaps, x, params)
    return mask.ravel(), blocks[mask], _proof(vmaps)


# ---------------------------------------------------------------------
# soundness-experiment adversary
# ---------------------------------------------------------------------


def cover_map(
    ones: list[tuple[int, int]], x: Digraph, m: int, rng: np.random.Generator
) -> tuple[int, ...] | None:
    """Injective map [n] -> [m] whose statement-edge image covers every
    one-entry, or None when no such map exists. The matrix vertices the
    ones touch, in order of first appearance, take the lexicographically
    first tuple of distinct graph vertices that puts every one-entry on a
    statement edge; the other graph vertices land, in increasing order,
    on the untouched matrix vertices in shuffled order."""
    touched = list(dict.fromkeys(w for uv in ones for w in uv))
    pairs = [(touched.index(u), touched.index(v)) for u, v in ones]
    for image in itertools.permutations(range(x.n), len(touched)):
        if all(x.has_edge(image[i], image[j]) for i, j in pairs):
            break
    else:
        return None
    placed = dict(zip(image, touched))  # graph vertex -> matrix vertex
    free = [mv for mv in range(m) if mv not in touched]
    rng.shuffle(free)
    it = iter(free)
    return tuple(placed[a] if a in placed else next(it) for a in range(x.n))


def _block_cover(
    matrix: np.ndarray, x: Digraph, params: HbParams, rng: np.random.Generator
) -> tuple[int, ...] | None:
    """cover_map of the one-entries of one decoded repetition matrix."""
    ones = [(int(u), int(v)) for u, v in np.argwhere(matrix)]
    return cover_map(ones, x, params.matrix_side, rng)


def cheat_prove(
    r: np.ndarray, x: Digraph, params: HbParams, rng: np.random.Generator
) -> tuple[np.ndarray, HbProof, int]:
    """Fabricated-useful-claim adversary: every repetition claims a
    useful matrix, hiding its ones behind a cover map when one exists.
    Returns (opened, proof, coverable_count); the proof verifies iff
    every repetition was coverable."""
    vmaps = []
    coverable = 0
    blocks = np.asarray(r, dtype=np.uint8).reshape(params.repetitions, params.bits_per_rep)
    for matrix in bits_to_matrix(blocks, params.matrix_side, params.block_len):
        vmap = _block_cover(matrix, x, params, rng)
        if vmap is None:
            # no covering embedding; claim an arbitrary map and lose
            vmap = tuple(range(params.n))
        else:
            coverable += 1
        vmaps.append(vmap)
    return _opened_mask(vmaps, x, params).ravel(), _proof(vmaps), coverable


def rep_coverable(block: np.ndarray, x: Digraph, params: HbParams, rng: np.random.Generator) -> bool:
    """Oracle-side predicate: can one repetition block be answered by a
    fabricated useful-claim?"""
    return _block_cover(bits_to_matrix(block, params.matrix_side, params.block_len), x, params, rng) is not None


__all__ = [
    "HbParams",
    "cheat_prove",
    "cover_map",
    "rep_coverable",
    "HbProof",
    "RepRevealAll",
    "RepUseful",
    "bits_to_matrix",
    "hb_prove",
    "hb_simulate",
    "hb_verify",
    "required_mask",
    "useful_probability",
    "usefulness",
]
