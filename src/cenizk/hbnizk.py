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

The verifier receives only the opened values r_I; unopened hidden bits
never cross the interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

    @classmethod
    def defaults(cls, n: int, repetitions: int) -> "HbParams":
        # classical FLS-style sizing; validated empirically through the
        # usefulness-rate oracle rather than taken on faith
        return cls(n=n, repetitions=repetitions, matrix_side=n**3, block_len=math.ceil(5 * math.log2(n)))


@dataclass(frozen=True)
class RepRevealAll:
    pass


@dataclass(frozen=True)
class RepUseful:
    vertex_map: tuple[int, ...]  # graph vertex a -> matrix vertex map[a]


@dataclass(frozen=True)
class HbProof:
    reps: tuple  # one RepRevealAll | RepUseful per repetition


@dataclass(frozen=True)
class HiddenCycle:
    """One-entries of a useful matrix: a directed n-cycle."""

    successor: tuple[tuple[int, int], ...]  # sorted (u, succ(u)) pairs

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(u for u, _ in self.successor)

    def successor_of(self, u: int) -> int:
        for a, c in self.successor:
            if a == u:
                return c
        raise KeyError(u)


# ---------------------------------------------------------------------
# block decoding and the usefulness test
# ---------------------------------------------------------------------


def bits_to_matrix(block: np.ndarray, m: int, b: int) -> np.ndarray:
    """Decode m*m*b hidden bits to the boolean matrix (entry = all-ones slice)."""
    block = np.asarray(block, dtype=np.uint8)
    if block.shape != (m * m * b,):
        raise ValueError(f"block must have {m * m * b} bits")
    return block.reshape(m, m, b).all(axis=2)


def usefulness(matrix: np.ndarray, n: int) -> Optional[HiddenCycle]:
    """HiddenCycle when the ones form a single directed n-cycle, else None.

    Requires exactly n ones globally, occupying n distinct rows and n
    distinct columns over the same vertex set, forming one cycle.
    """
    ones = np.argwhere(matrix)
    if len(ones) != n:
        return None
    rows = [int(u) for u, _ in ones]
    cols = [int(v) for _, v in ones]
    if len(set(rows)) != n or len(set(cols)) != n or set(rows) != set(cols):
        return None
    succ = {int(u): int(v) for u, v in ones}
    if any(u == v for u, v in succ.items()):
        return None
    # walk the functional graph: one orbit covering all n vertices
    start = min(succ)
    seen = []
    cur = start
    for _ in range(n):
        seen.append(cur)
        cur = succ[cur]
    if cur != start or len(set(seen)) != n:
        return None
    return HiddenCycle(tuple(sorted(succ.items())))


def useful_probability(m: int, b: int, n: int) -> float:
    """Closed-form chance a uniform block decodes to a useful matrix.

    C(m,n) vertex choices times (n-1)! directed cycles, each pattern
    with probability p^n (1-p)^(m^2-n) at entry probability p = 2^-b.
    """
    p = 2.0**-b
    return math.comb(m, n) * math.factorial(n - 1) * p**n * (1.0 - p) ** (m * m - n)


# ---------------------------------------------------------------------
# opened-position bookkeeping
# ---------------------------------------------------------------------


def _entry_bits(u: int, v: int, m: int, b: int) -> slice:
    start = (u * m + v) * b
    return slice(start, start + b)


def required_positions(vertex_map: tuple[int, ...], x: Digraph, params: HbParams) -> np.ndarray:
    """Bit positions (within one block) a useful-claim must open: all of
    them except the entries carrying statement edges under the map."""
    m, b = params.matrix_side, params.block_len
    mask = np.ones(params.bits_per_rep, dtype=bool)
    for a, c in x.edges():
        mask[_entry_bits(vertex_map[a], vertex_map[c], m, b)] = False
    return np.flatnonzero(mask)


def _anchored_map(witness: CycleWitness, hidden: HiddenCycle) -> tuple[int, ...]:
    # Anchor graph vertex 0 to the smallest hidden-cycle vertex, then
    # walk both cycles in step; the unique map wrapping the witness
    # cycle onto the hidden one under that anchoring.
    n = len(witness.order)
    vmap = [0] * n
    g = 0
    h = min(hidden.vertices)
    for _ in range(n):
        vmap[g] = h
        g = witness.successor_of(g)
        h = hidden.successor_of(h)
    return tuple(vmap)


def _opened_set_ok(I: np.ndarray, bound: int) -> bool:
    """I is a flat, strictly increasing index array inside [0, bound)."""
    return I.ndim == 1 and not (len(I) and (np.any(np.diff(I) <= 0) or I[0] < 0 or I[-1] >= bound))


def _valid_map(vertex_map, params: HbParams) -> bool:
    if len(vertex_map) != params.n:
        return False
    if any((not 0 <= v < params.matrix_side) for v in vertex_map):
        return False
    return len(set(vertex_map)) == params.n


# ---------------------------------------------------------------------
# prove / verify / simulate
# ---------------------------------------------------------------------


def hb_prove(
    r: np.ndarray, x: Digraph, witness: CycleWitness, params: HbParams
) -> tuple[np.ndarray, HbProof]:
    """Deterministic hidden-bits prover. Returns (I, proof) with I the
    sorted global indices of opened bits."""
    require_witness(x, witness)
    r = np.asarray(r, dtype=np.uint8)
    if r.shape != (params.total_bits,):
        raise ValueError(f"hidden string must have {params.total_bits} bits")
    kp = params.bits_per_rep
    reps = []
    opened = []
    for rep in range(params.repetitions):
        block = r[rep * kp : (rep + 1) * kp]
        hidden = usefulness(bits_to_matrix(block, params.matrix_side, params.block_len), params.n)
        if hidden is None:
            reps.append(RepRevealAll())
            opened.append(rep * kp + np.arange(kp, dtype=np.int64))
        else:
            vmap = _anchored_map(witness, hidden)
            reps.append(RepUseful(vmap))
            opened.append(rep * kp + required_positions(vmap, x, params))
    return np.concatenate(opened), HbProof(tuple(reps))


def hb_verify(
    I: np.ndarray, r_I: np.ndarray, x: Digraph, proof: HbProof, params: HbParams
) -> bool:
    """Accept iff every repetition checks out. Malformed input rejects,
    it never raises."""
    try:
        I = np.asarray(I, dtype=np.int64)
        r_I = np.asarray(r_I, dtype=np.uint8)
    except (TypeError, ValueError):
        return False
    if len(proof.reps) != params.repetitions or I.shape != r_I.shape:
        return False
    if not _opened_set_ok(I, params.total_bits):
        return False
    kp = params.bits_per_rep
    m, b = params.matrix_side, params.block_len
    bounds = np.searchsorted(I, np.arange(params.repetitions + 1) * kp)
    for rep, rep_proof in enumerate(proof.reps):
        idx = I[bounds[rep] : bounds[rep + 1]] - rep * kp
        vals = r_I[bounds[rep] : bounds[rep + 1]]
        if isinstance(rep_proof, RepRevealAll):
            if len(idx) != kp:
                return False
            if usefulness(bits_to_matrix(vals, m, b), params.n) is not None:
                return False
        elif isinstance(rep_proof, RepUseful):
            if not _valid_map(rep_proof.vertex_map, params):
                return False
            need = required_positions(rep_proof.vertex_map, x, params)
            if len(idx) != len(need) or np.any(idx != need):
                return False
            # every opened entry is fully opened by construction of the
            # required set; it must decode to 0 (some bit clear)
            block = np.ones(kp, dtype=np.uint8)
            block[idx] = vals
            matrix = bits_to_matrix(block, m, b)
            for a, c in x.edges():
                matrix[rep_proof.vertex_map[a], rep_proof.vertex_map[c]] = False
            if np.any(matrix):
                return False
        else:
            return False
    return True


def hb_simulate(
    x: Digraph, params: HbParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, HbProof]:
    """Witness-free simulator: (I, r_I, proof).

    Samples each block uniformly; not-useful blocks are revealed
    honestly. For a useful block only the anchored map's distribution
    matters, and for the real prover that map is a uniform anchored
    bijection onto the hidden cycle's vertices regardless of the
    witness, so the simulator samples it directly. Opened values are
    the true zeros of the sampled block.
    """
    kp = params.bits_per_rep
    reps = []
    opened = []
    values = []
    for rep in range(params.repetitions):
        block = rng.integers(0, 2, size=kp, dtype=np.uint8)
        hidden = usefulness(bits_to_matrix(block, params.matrix_side, params.block_len), params.n)
        if hidden is None:
            reps.append(RepRevealAll())
            opened.append(rep * kp + np.arange(kp, dtype=np.int64))
            values.append(block)
        else:
            w = sorted(hidden.vertices)
            rest = rng.permutation(w[1:])
            vmap = tuple([w[0]] + [int(v) for v in rest])
            reps.append(RepUseful(vmap))
            need = required_positions(vmap, x, params)
            opened.append(rep * kp + need)
            values.append(np.zeros(len(need), dtype=np.uint8))
    return np.concatenate(opened), np.concatenate(values), HbProof(tuple(reps))


def amplify(params: HbParams, repetitions: int) -> HbParams:
    """Parallel-repetition wrapper: same scheme, rho-fold hidden-bit
    consumption, accept only if every repetition accepts."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return HbParams(params.n, repetitions, params.matrix_side, params.block_len)


# ---------------------------------------------------------------------
# soundness-experiment adversary
# ---------------------------------------------------------------------


def cover_map(
    ones: list[tuple[int, int]], x: Digraph, m: int, rng: np.random.Generator
) -> tuple[int, ...] | None:
    """Injective map [n] -> [m] whose statement-edge image covers every
    one-entry, or None when no such map exists. Small backtracking over
    the (few) one-entries; unconstrained graph vertices land on random
    free matrix vertices."""
    n = x.n
    if any(u == v for u, v in ones):
        return None  # a self-loop entry can never sit on a statement edge
    if len({w for uv in ones for w in uv}) > n or len(ones) > len(x.edges()):
        return None

    assign: dict[int, int] = {}  # matrix vertex -> graph vertex
    used: set[int] = set()

    def place(idx: int) -> bool:
        if idx == len(ones):
            return True
        u, v = ones[idx]
        a_opts = [assign[u]] if u in assign else [a for a in range(n) if a not in used]
        for a in a_opts:
            fresh_u = u not in assign
            if fresh_u:
                assign[u] = a
                used.add(a)
            c_opts = [assign[v]] if v in assign else [c for c in range(n) if c not in used]
            for c in c_opts:
                if x.has_edge(a, c):
                    fresh_v = v not in assign
                    if fresh_v:
                        assign[v] = c
                        used.add(c)
                    if place(idx + 1):
                        return True
                    if fresh_v:
                        del assign[v]
                        used.discard(c)
            if fresh_u:
                del assign[u]
                used.discard(a)
        return False

    if not place(0):
        return None
    vmap = [-1] * n
    for mv, gv in assign.items():
        vmap[gv] = mv
    free = [mv for mv in range(m) if mv not in assign]
    rng.shuffle(free)
    it = iter(free)
    for a in range(n):
        if vmap[a] < 0:
            vmap[a] = int(next(it))
    return tuple(vmap)


def cheat_prove(
    r: np.ndarray, x: Digraph, params: HbParams, rng: np.random.Generator
) -> tuple[np.ndarray, HbProof, int]:
    """Fabricated-useful-claim adversary: every repetition claims a
    useful matrix, hiding its ones behind a cover map when one exists.
    Returns (I, proof, coverable_count); the proof verifies iff every
    repetition was coverable."""
    kp = params.bits_per_rep
    reps = []
    opened = []
    coverable = 0
    for rep in range(params.repetitions):
        block = r[rep * kp : (rep + 1) * kp]
        matrix = bits_to_matrix(block, params.matrix_side, params.block_len)
        ones = [(int(u), int(v)) for u, v in np.argwhere(matrix)]
        vmap = cover_map(ones, x, params.matrix_side, rng)
        if vmap is None:
            # no covering embedding; claim an arbitrary map and lose
            vmap = tuple(range(params.n))
        else:
            coverable += 1
        reps.append(RepUseful(vmap))
        opened.append(rep * kp + required_positions(vmap, x, params))
    return np.concatenate(opened), HbProof(tuple(reps)), coverable


def rep_coverable(block: np.ndarray, x: Digraph, params: HbParams, rng: np.random.Generator) -> bool:
    """Oracle-side predicate: can one repetition block be answered by a
    fabricated useful-claim?"""
    matrix = bits_to_matrix(block, params.matrix_side, params.block_len)
    ones = [(int(u), int(v)) for u, v in np.argwhere(matrix)]
    return cover_map(ones, x, params.matrix_side, rng) is not None


__all__ = [
    "HbParams",
    "cheat_prove",
    "cover_map",
    "rep_coverable",
    "HbProof",
    "HiddenCycle",
    "RepRevealAll",
    "RepUseful",
    "amplify",
    "bits_to_matrix",
    "hb_prove",
    "hb_simulate",
    "hb_verify",
    "required_positions",
    "useful_probability",
    "usefulness",
]
