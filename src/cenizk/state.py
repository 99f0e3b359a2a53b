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
    by a global Hadamard, so sparsity never grows. The measured qubit
    is afterwards "retired": its key bit is pinned to 0 and further
    operations on it are usage errors;
  * a register (a qubit list, most significant first) is read and
    written through its spans: the maximal runs of consecutive qubits
    it lists. Each span is one shift and one mask on the integer key,
    so a register of two contiguous blocks costs two operations per
    term whatever its width.

Randomized operations take an explicit numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
        norm = sum(abs(a) ** 2 for a in self.amps.values())
        assert abs(norm - 1.0) <= NORM_TOL, f"norm drifted: {norm}"
        assert all(abs(a) >= PRUNE_EPS for a in self.amps.values()), "unpruned tiny term"
        limit = 1 << self.num_qubits
        assert all(0 <= k < limit for k in self.amps), "key out of range"

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values())

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

    def copy(self) -> "SparseState":
        return SparseState(self.num_qubits, dict(self.amps), self.retired)

    def equals(self, other: "SparseState", tol: float = NORM_TOL) -> bool:
        """Amplitude-map equality within tol (exact keys, close amplitudes)."""
        if self.num_qubits != other.num_qubits or set(self.amps) != set(other.amps):
            return False
        return all(abs(self.amps[k] - other.amps[k]) <= tol for k in self.amps)


def _normalized(num_qubits: int, amps: dict[int, complex], retired: frozenset[int]) -> SparseState:
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
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
    had = [j for j in range(n) if desc.theta[j]]
    wt = len(had)
    base = 0
    for j in range(n):
        if desc.theta[j] == 0 and desc.y[j]:
            base |= 1 << (n - 1 - j)
    mag = 2.0 ** (-wt / 2.0)
    amps: dict[int, complex] = {}
    for assign in range(1 << wt):
        key = base
        sign_bits = 0
        for pos, j in enumerate(had):
            zj = (assign >> (wt - 1 - pos)) & 1
            if zj:
                key |= 1 << (n - 1 - j)
                sign_bits ^= desc.y[j]
        amps[key] = complex(mag if sign_bits == 0 else -mag)
    return SparseState(n, amps)


def zero_state(num_qubits: int) -> SparseState:
    return SparseState(num_qubits, {0: 1.0 + 0.0j})


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


def _measure_z(state: SparseState, qubit: int, rng: np.random.Generator) -> tuple[int, SparseState]:
    bit = state._bit(qubit)
    p1 = sum(abs(a) ** 2 for k, a in state.amps.items() if k & bit)
    outcome = 1 if rng.random() < p1 else 0
    keep = {k: a for k, a in state.amps.items() if bool(k & bit) == bool(outcome)}
    return outcome, _normalized(state.num_qubits, keep, state.retired)


def _x_pairs(state: SparseState, qubit: int, value: int) -> tuple[dict[int, complex], float]:
    """Unnormalized projection onto X outcome `value` and its probability.

    Pairwise combination: each (z, z^bit) pair contributes one term,
    keyed with the qubit's bit cleared, so the term count never grows.
    """
    bit = state._bit(qubit)
    keep: dict[int, complex] = {}
    prob = 0.0
    seen = set()
    for k in state.amps:
        rep = k & ~bit
        if rep in seen:
            continue
        seen.add(rep)
        a0 = state.amps.get(rep, 0.0)
        a1 = state.amps.get(rep | bit, 0.0)
        amp = ((a0 + a1) if value == 0 else (a0 - a1)) * SQRT_HALF
        if abs(amp) > 0.0:
            keep[rep] = amp
            prob += abs(amp) ** 2
    return keep, prob


def _measure_x(state: SparseState, qubit: int, rng: np.random.Generator) -> tuple[int, SparseState]:
    plus, p_plus = _x_pairs(state, qubit, 0)
    outcome = 0 if rng.random() < p_plus else 1
    chosen = plus if outcome == 0 else _x_pairs(state, qubit, 1)[0]
    retired = state.retired | {qubit}
    return outcome, _normalized(state.num_qubits, chosen, retired)


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
        if b == "Z":
            outcomes[pos], current = _measure_z(current, q, rng)
        elif b == "X":
            outcomes[pos], current = _measure_x(current, q, rng)
        else:
            raise SimUsageError(f"unknown basis {b!r}")
    return outcomes, current


def project(
    state: SparseState, index: int, basis: str, value: int
) -> tuple[float, SparseState | None]:
    """Born probability of the outcome plus the post-selected state.

    Returns (prob, state) or (prob, None) when the probability is below
    the prune threshold.
    """
    state._require_live([index])
    if basis == "Z":
        bit = state._bit(index)
        keep = {k: a for k, a in state.amps.items() if bool(k & bit) == bool(value)}
        prob = sum(abs(a) ** 2 for a in keep.values())
        retired = state.retired
    elif basis == "X":
        keep, prob = _x_pairs(state, index, value)
        retired = state.retired | {index}
    else:
        raise SimUsageError(f"unknown basis {basis!r}")
    if prob < PRUNE_EPS:
        return 0.0, None
    return prob, _normalized(state.num_qubits, keep, retired)


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


def _extract(key: int, spans: list[tuple[int, int, int]]) -> int:
    value = 0
    for shift, width, mask in spans:
        value = (value << width) | ((key >> shift) & mask)
    return value


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
    out_width = len(out_reg)
    in_spans = _spans(n, in_reg)
    # deposit walks the output value from its least significant end
    out_spans = _spans(n, out_reg)[::-1]
    amps: dict[int, complex] = {}
    for k, a in state.amps.items():
        y = f(_extract(k, in_spans))
        if y >> out_width:
            raise SimUsageError("oracle output wider than out_reg")
        for shift, width, mask in out_spans:
            k ^= (y & mask) << shift
            y >>= width
        amps[k] = a
    return SparseState(n, amps, state.retired)


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
    for k, a in state.amps.items():
        groups.setdefault(k & rest_mask, []).append((_extract(k, spans), a))
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
    rows = []
    for k, a in state.amps.items():
        bstr = format(k, f"0{state.num_qubits}b")
        rows.append(f"{bstr} {a.real:.12e} {a.imag:.12e}")
    return sorted(rows)


def state_from_descriptor_string(y: str, theta: str) -> SparseState:
    """BB84 state from printed bitstrings, e.g. ("01", "10")."""
    return prep_bb84(Bb84Descriptor(y, theta))


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
    "prep_bb84",
    "project",
    "state_from_descriptor_string",
    "trace_distance",
    "zero_state",
]
