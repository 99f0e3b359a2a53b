"""Sparse statevector engine.

States are complex-amplitude maps over computational-basis bitstrings,
which is the only representation the protocols here need: every state
is either a BB84 state (2^wt(theta) terms), an EPR product, or such a
state with function registers attached by XOR oracles, so the term
count never exceeds the BB84 support. Amplitudes are double-precision
complex; every protocol amplitude is +/-2^(-m/2) for small m, so
doubles are exact enough.

Conventions:
  * qubit q of an n-qubit state is bit (n-1-q) of the integer key, so
    the printed bitstring reads left to right in qubit order;
  * X-basis outcome bit 0 means the +1 eigenstate |+>, bit 1 means |->;
  * X-basis measurement is realized by pairwise term combination, never
    by a global Hadamard, so sparsity never grows. One pass over the
    terms yields both outcomes. The measured qubit is afterwards
    "retired": its key bit is pinned to 0 and further operations on it
    are usage errors;
  * `measure_flag` is exactly the sequence append_register(state, 1),
    apply_oracle into that flag, project (or measure) the flag in Z,
    drop_last_register: the same keys, amplitudes, dict order and
    probabilities for both flag values, from one pass that splits the
    terms instead of four whole-state passes;
  * a register (a qubit list, most significant first) is read and
    written through its spans: the maximal runs of consecutive qubits
    it lists. Each span is one shift and one mask on the integer key,
    so a register of two contiguous blocks costs two operations per
    term whatever its width.

Randomized operations take an explicit numpy Generator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .bits import as_bit_array

PRUNE_EPS = 1e-12
NORM_TOL = 1e-9
DENSE_QUBIT_LIMIT = 12

SQRT_HALF = math.sqrt(0.5)


class SimUsageError(ValueError):
    """Misuse of the engine: bad indices, retired qubits, width mismatch."""


@dataclass(frozen=True)
class Bb84Descriptor:
    """Encoding bitstring y under basis string theta (1 = Hadamard)."""

    y: np.ndarray
    theta: np.ndarray

    def __init__(self, y, theta):
        object.__setattr__(self, "y", as_bit_array(y))
        object.__setattr__(self, "theta", as_bit_array(theta))
        if len(self.y) != len(self.theta):
            raise SimUsageError("y and theta must have equal length")

    def __len__(self) -> int:
        return len(self.y)


class SparseState:
    """Sparse amplitude map over n-qubit basis bitstrings."""

    __slots__ = ("num_qubits", "amps", "retired")

    def __init__(self, num_qubits: int, amps: dict[int, complex], retired: frozenset[int] = frozenset()):
        self.num_qubits = num_qubits
        self.amps = amps
        self.retired = retired
        if __debug__:
            self._check()

    # -- invariants ---------------------------------------------------

    def _check(self) -> None:
        mags = list(map(abs, self.amps.values()))
        norm = sum(map(operator.mul, mags, mags))
        assert abs(norm - 1.0) <= NORM_TOL, f"norm drifted: {norm}"
        assert not mags or min(mags) >= PRUNE_EPS, "unpruned tiny term"
        limit = 1 << self.num_qubits
        assert not mags or (min(self.amps) >= 0 and max(self.amps) < limit), "key out of range"

    def norm_sq(self) -> float:
        return _sq_norm(self.amps)

    def num_terms(self) -> int:
        return len(self.amps)

    def _bit(self, qubit: int) -> int:
        return 1 << (self.num_qubits - 1 - qubit)

    def _require_live(self, indices: Sequence[int]) -> None:
        for q in indices:
            if not 0 <= q < self.num_qubits:
                raise SimUsageError(f"qubit {q} out of range")
            if q in self.retired:
                raise SimUsageError(f"qubit {q} was already measured out")
        if len(set(indices)) != len(indices):
            raise SimUsageError("indices must be distinct")

    def equals(self, other: "SparseState", tol: float = NORM_TOL) -> bool:
        """Amplitude-map equality within tol (exact keys, close amplitudes)."""
        if self.num_qubits != other.num_qubits or set(self.amps) != set(other.amps):
            return False
        return all(abs(self.amps[k] - other.amps[k]) <= tol for k in self.amps)


def _normalized(num_qubits: int, amps: dict[int, complex], prob: float, retired: frozenset[int]) -> SparseState:
    """amps scaled to unit norm, prob being their squared norm summed in
    dict order; terms that fall below PRUNE_EPS are dropped."""
    norm = math.sqrt(prob)
    out = {k: a / norm for k, a in amps.items() if abs(a) / norm >= PRUNE_EPS}
    return SparseState(num_qubits, out, retired)


# ---------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------


def prep_bb84(desc: Bb84Descriptor) -> SparseState:
    """BB84 state H^theta_1|y_1> x ... x H^theta_n|y_n>.

    The support is every z agreeing with y on the computational
    positions; the sign of term z is (-1)^(sum over Hadamard positions
    of y_j z_j) and every magnitude is 2^(-wt(theta)/2).
    """
    n = len(desc)
    y, theta = desc.y.tolist(), desc.theta.tolist()
    had = [j for j in range(n) if theta[j]]
    mag = 2.0 ** (-len(had) / 2.0)
    base = 0
    for yj, tj in zip(y, theta):
        base = (base << 1) | (yj & (tj ^ 1))
    # Doubling over the Hadamard positions, last one first, lists the
    # support in the order of a counter whose least significant bit is
    # the last Hadamard position.
    keys = [base]
    signs = [0]
    for j in reversed(had):
        bit = 1 << (n - 1 - j)
        keys += [k | bit for k in keys]
        signs += [s ^ 1 for s in signs] if y[j] else signs
    amp = [complex(mag), complex(-mag)]
    return SparseState(n, dict(zip(keys, map(amp.__getitem__, signs))))


def append_register(state: SparseState, width: int) -> SparseState:
    """Zero-initialized ancilla register appended after the last qubit."""
    if width < 1:
        raise SimUsageError("register width must be >= 1")
    amps = {k << width: a for k, a in state.amps.items()}
    return SparseState(state.num_qubits + width, amps, state.retired)


def drop_last_register(state: SparseState, width: int) -> SparseState:
    """Remove the trailing register; every key must agree on its value.

    Legal only once the register is a classical product factor (for
    example a measured flag qubit), so dropping it is a partial trace
    with no information loss.
    """
    if width < 1 or width > state.num_qubits:
        raise SimUsageError("bad register width")
    mask = (1 << width) - 1
    values = {k & mask for k in state.amps}
    if len(values) != 1:
        raise SimUsageError("trailing register is still entangled; cannot drop")
    retired = frozenset(q for q in state.retired if q < state.num_qubits - width)
    return SparseState(state.num_qubits - width, {k >> width: a for k, a in state.amps.items()}, retired)


# ---------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------


# (probability, post-selected state, or (0.0, None) below PRUNE_EPS)
_Outcome = tuple[float, Optional[SparseState]]


def _sq_norm(amps: dict[int, complex]) -> float:
    """Sum of |a|^2 over amps, in dict order."""
    return sum(map(pow, map(abs, amps.values()), repeat(2)))


def _x_pairs(state: SparseState, qubit: int) -> tuple[dict[int, complex], dict[int, complex]]:
    """Unnormalized projections onto X outcomes 0 (|+>) and 1 (|->), from
    one pass over the terms.

    Pairwise combination: each (z, z^bit) pair contributes one term to
    each outcome, keyed with the qubit's bit cleared, so the term count
    never grows.
    """
    bit = state._bit(qubit)
    get = state.amps.get
    plus: dict[int, complex] = {}
    minus: dict[int, complex] = {}
    # pair representatives in the order their first member is listed
    for rep in dict.fromkeys(map(operator.and_, state.amps, repeat(~bit))):
        a0 = get(rep, 0.0)
        a1 = get(rep | bit, 0.0)
        amp = (a0 + a1) * SQRT_HALF
        if amp:  # a complex is truthy iff its modulus is above 0
            plus[rep] = amp
        amp = (a0 - a1) * SQRT_HALF
        if amp:
            minus[rep] = amp
    return plus, minus


def _split(
    state: SparseState, qubit: int, basis: str
) -> tuple[tuple[dict[int, complex], dict[int, complex]], frozenset[int]]:
    """Unnormalized post-selections of one qubit on outcomes 0 and 1 (their
    Born probabilities are their _sq_norm) and the retired set afterwards."""
    if basis == "Z":
        bit = state._bit(qubit)
        zero = {k: a for k, a in state.amps.items() if not k & bit}
        one = {k: a for k, a in state.amps.items() if k & bit}
        return (zero, one), state.retired
    if basis == "X":
        return _x_pairs(state, qubit), state.retired | {qubit}
    raise SimUsageError(f"unknown basis {basis!r}")


def measure(
    state: SparseState,
    indices: Sequence[int],
    bases: Sequence[str],
    rng: np.random.Generator,
) -> tuple[np.ndarray, SparseState]:
    """Born-rule measurement of the given qubits, one basis letter each.

    Returns (outcomes, collapsed state). Z-measured qubits stay live in
    their collapsed value; X-measured qubits are retired.
    """
    if len(indices) != len(bases):
        raise SimUsageError("need one basis per index")
    state._require_live(indices)
    outcomes = np.zeros(len(indices), dtype=np.uint8)
    current = state
    for pos, (q, b) in enumerate(zip(indices, bases)):
        branches, retired = _split(current, q, b)
        # the draw picks the first outcome when below its probability:
        # Z reports 1 below P[1], X reports 0 (|+>) below P[+]
        first = 1 if b == "Z" else 0
        prob = _sq_norm(branches[first])
        outcome = first if rng.random() < prob else first ^ 1
        if outcome != first:
            prob = _sq_norm(branches[outcome])
        outcomes[pos] = outcome
        current = _normalized(current.num_qubits, branches[outcome], prob, retired)
    return outcomes, current


def _post_selected(num_qubits: int, keep: dict[int, complex], prob: float, retired: frozenset[int]) -> _Outcome:
    """One branch as project returns it."""
    if prob < PRUNE_EPS:
        return 0.0, None
    return prob, _normalized(num_qubits, keep, prob, retired)


def project(state: SparseState, index: int, basis: str, value: int) -> _Outcome:
    """Born probability of the outcome plus the post-selected state.

    Returns (prob, state) or (prob, None) when the probability is below
    the prune threshold.
    """
    state._require_live([index])
    branches, retired = _split(state, index, basis)
    keep = branches[bool(value)]
    return _post_selected(state.num_qubits, keep, _sq_norm(keep), retired)


def measure_flag(
    state: SparseState, in_reg: Sequence[int], f: Callable[[int], int]
) -> tuple[_Outcome, _Outcome]:
    """Both branches of: append a one-qubit flag register, XOR f(in_reg)
    into it, measure the flag in Z and drop it.

    Returns ((prob, state) for flag 0, (prob, state) for flag 1): exactly
    what append_register, apply_oracle, project on that value and
    drop_last_register give (keys, amplitudes, dict order and the
    (0.0, None) of a branch below PRUNE_EPS), from one pass that splits
    the terms and one normalisation per non-empty branch. f must map
    every in_reg value to 0 or 1.
    """
    state._require_live(in_reg)
    amps = state.amps
    flags = list(map(f, _read(amps, _spans(state.num_qubits, in_reg))))
    if flags and (min(flags) < 0 or max(flags) > 1):
        raise SimUsageError("oracle output negative or wider than out_reg")
    if 0 not in flags:
        parts = ({}, amps)
    elif 1 not in flags:
        parts = (amps, {})
    else:
        parts = (
            dict(compress(amps.items(), map(operator.not_, flags))),
            dict(compress(amps.items(), flags)),
        )
    return tuple(_post_selected(state.num_qubits, keep, _sq_norm(keep), state.retired) for keep in parts)


# ---------------------------------------------------------------------
# register spans and classical-oracle entangling maps
# ---------------------------------------------------------------------


def _spans(num_qubits: int, reg: Sequence[int]) -> list[tuple[int, int, int]]:
    """(shift, width, mask) of each maximal run of consecutive qubits in
    reg, most significant first: run q..q+w-1 is (key >> shift) & mask."""
    runs: list[list[int]] = []  # [first qubit, width]
    for q in reg:
        if runs and q == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([int(q), 1])
    return [(num_qubits - q - w, w, (1 << w) - 1) for q, w in runs]


def _read(keys, spans: list[tuple[int, int, int]]) -> list[int]:
    """The register value of each key: one pass over keys per span."""
    if not spans:
        return [0] * len(keys)
    shift, _, mask = spans[0]
    values = [(k >> shift) & mask for k in keys]
    for shift, width, mask in spans[1:]:
        values = [(v << width) | ((k >> shift) & mask) for v, k in zip(values, keys)]
    return values


def _deposit(values: list[int], spans: list[tuple[int, int, int]]) -> list[int]:
    """For each value, the key mask that holds it in the register."""
    if len(spans) == 1:
        shift = spans[0][0]
        return [v << shift for v in values]
    out = []
    for v in values:
        m = 0
        for shift, width, mask in reversed(spans):
            m |= (v & mask) << shift
            v >>= width
        out.append(m)
    return out


def apply_oracle(
    state: SparseState,
    in_reg: Sequence[int],
    out_reg: Sequence[int],
    f: Callable[[int], int],
) -> SparseState:
    """XOR-oracle |z>|t> -> |z>|t ^ f(z)>.

    in_reg/out_reg list qubits most-significant first; f maps the
    in_reg value to an out_reg-width value. Applying the same oracle
    twice is the identity (exact, amplitudes untouched).
    """
    state._require_live(list(in_reg) + list(out_reg))
    if set(in_reg) & set(out_reg):
        raise SimUsageError("in_reg and out_reg must be disjoint")
    n = state.num_qubits
    ys = list(map(f, _read(state.amps, _spans(n, in_reg))))
    if ys and (min(ys) < 0 or max(ys) >> len(out_reg)):
        raise SimUsageError("oracle output negative or wider than out_reg")
    keys = map(operator.xor, state.amps, _deposit(ys, _spans(n, out_reg)))
    return SparseState(n, dict(zip(keys, state.amps.values())), state.retired)


# ---------------------------------------------------------------------
# density matrices and trace distance
# ---------------------------------------------------------------------


def density_matrix(state: SparseState, subset: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the given qubits (dense, <= 12 qubits)."""
    state._require_live(subset)
    if len(subset) > DENSE_QUBIT_LIMIT:
        raise SimUsageError(f"dense density matrix capped at {DENSE_QUBIT_LIMIT} qubits")
    spans = _spans(state.num_qubits, subset)
    rest_mask = (1 << state.num_qubits) - 1
    for shift, _, mask in spans:
        rest_mask &= ~(mask << shift)
    dim = 1 << len(subset)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    groups: dict[int, list[tuple[int, complex]]] = {}
    for (k, a), s in zip(state.amps.items(), _read(state.amps, spans)):
        groups.setdefault(k & rest_mask, []).append((s, a))
    for terms in groups.values():
        for si, ai in terms:
            for sj, aj in terms:
                rho[si, sj] += ai * np.conj(aj)
    return rho


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """(1/2)||rho1 - rho2||_1 via the Hermitian eigenvalue decomposition."""
    if rho1.shape != rho2.shape:
        raise SimUsageError("density matrices must have equal shape")
    eigs = np.linalg.eigvalsh(rho1 - rho2)
    return float(0.5 * np.sum(np.abs(eigs)))


# ---------------------------------------------------------------------
# debug dump (golden-file format)
# ---------------------------------------------------------------------


def dump_lines(state: SparseState) -> list[str]:
    """Lines "bitstring real imag", sorted lexicographically by bitstring."""
    # fixed-width bitstrings sort as their integers do; each distinct
    # amplitude is formatted once, keyed with the signs of its parts
    # because 0.0 == -0.0 but the two print differently
    n = state.num_qubits
    texts: dict[tuple[complex, float, float], str] = {}
    lines = []
    for k, a in sorted(state.amps.items()):
        key = (a, math.copysign(1.0, a.real), math.copysign(1.0, a.imag))
        text = texts.get(key)
        if text is None:
            text = texts[key] = f"{a.real:.12e} {a.imag:.12e}"
        lines.append(f"{bin(k)[2:].zfill(n)} {text}")
    return lines


__all__ = [
    "Bb84Descriptor",
    "SimUsageError",
    "SparseState",
    "append_register",
    "apply_oracle",
    "density_matrix",
    "drop_last_register",
    "dump_lines",
    "measure",
    "measure_flag",
    "prep_bb84",
    "project",
    "trace_distance",
]
