"""Shared EPR-pair network.

The protocols only ever apply single-qubit Z/X measurements to
disjoint EPR pairs, so the network is stored in factored form: each
pair is either still entangled or has collapsed to a product of two
single-qubit pure states, tracked in flat numpy arrays. That makes a
session with millions of pairs a handful of vector operations while
staying an exact simulation: the tests cross-check `measure_blocks`,
through each of its three branches (first touch, all collapsed, mixed),
against the generic sparse engine.

Measurement rules per pair (derivable from (|00>+|11>)/sqrt(2), which
equals (|++>+|-->)/sqrt(2)):
  * first measurement of either half in basis b: outcome uniform, and
    both halves collapse to that basis/value (same-basis agreement);
  * re-measuring a collapsed half in its own basis repeats the value;
  * measuring it in the other basis gives a fresh uniform outcome and
    does not touch the partner qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .state import SimUsageError, SparseState

ROLE_P = "P"
ROLE_V = "V"

_UNSET = np.int8(-1)

# single-qubit pure states, keyed by (basis, value): Z0, Z1, X+, X-
_QUBIT_AMPS = {
    (0, 0): {0: 1.0 + 0j},
    (0, 1): {1: 1.0 + 0j},
    (1, 0): {0: np.sqrt(0.5) + 0j, 1: np.sqrt(0.5) + 0j},
    (1, 1): {0: np.sqrt(0.5) + 0j, 1: -np.sqrt(0.5) + 0j},
}


@dataclass
class EprNetwork:
    """ell blocks of width k; pair (i, j) couples qubits P^i_j and V^i_j."""

    block_count: int
    block_width: int
    basis: dict = field(repr=False, default=None)  # role -> int8 (ell, k), -1 unset
    value: dict = field(repr=False, default=None)  # role -> uint8 (ell, k)
    entangled: np.ndarray = field(repr=False, default=None)  # bool (ell, k)

    def __post_init__(self):
        if self.block_count * self.block_width < 1:
            raise SimUsageError("network needs at least one pair")
        shape = (self.block_count, self.block_width)
        if self.basis is None:
            self.basis = {r: np.full(shape, _UNSET, dtype=np.int8) for r in (ROLE_P, ROLE_V)}
            self.value = {r: np.zeros(shape, dtype=np.uint8) for r in (ROLE_P, ROLE_V)}
            self.entangled = np.ones(shape, dtype=bool)

    def _other(self, role: str) -> str:
        return ROLE_V if role == ROLE_P else ROLE_P

    # -- measurement ----------------------------------------------------

    def measure_blocks(
        self,
        role: str,
        bases: np.ndarray,
        rng: np.random.Generator,
        blocks: np.ndarray | None = None,
    ) -> np.ndarray:
        """Measure whole blocks of one half; bases is (num_blocks, k) 0=Z 1=X.

        Returns the (num_blocks, k) outcome matrix. Vectorized over all
        requested pairs.
        """
        if role not in (ROLE_P, ROLE_V):
            raise SimUsageError(f"unknown role {role!r}")
        whole = blocks is None
        if whole:
            blocks = slice(None)
            n_blocks = self.block_count
        else:
            blocks = np.asarray(blocks, dtype=np.int64)
            n_blocks = len(blocks)
        bases = np.asarray(bases, dtype=np.int8)
        if bases.shape != (n_blocks, self.block_width):
            raise SimUsageError("bases shape must be (num_blocks, block_width)")
        other = self._other(role)

        ent = self.entangled[blocks]
        if not ent.any():
            # every pair collapsed: re-reads are deterministic, only
            # basis changes draw fresh bits
            my_basis = self.basis[role][blocks]
            same = my_basis == bases
            if same.all():
                return self.value[role][blocks].copy()
            outcomes = self.value[role][blocks]
            fresh = rng.integers(0, 2, size=bases.shape, dtype=np.uint8)
            outcomes = np.where(same, outcomes, fresh)
            self.basis[role][blocks] = bases
            self.value[role][blocks] = outcomes
            return outcomes

        fresh = rng.integers(0, 2, size=bases.shape, dtype=np.uint8)
        if ent.all():
            # first touch everywhere: uniform outcomes collapse both halves
            outcomes = fresh
            for r in (role, other):
                self.basis[r][blocks] = bases
                self.value[r][blocks] = outcomes
            self.entangled[blocks] = False
            return outcomes

        my_basis = self.basis[role][blocks]
        my_value = self.value[role][blocks]
        outcomes = np.where(
            ent,
            fresh,  # first touch: uniform outcome, collapses the pair
            np.where(my_basis == bases, my_value, fresh),
        ).astype(np.uint8)
        self.basis[role][blocks] = bases
        self.value[role][blocks] = outcomes
        # partner collapses to the same basis/value only on first touch
        ob = self.basis[other][blocks]
        ov = self.value[other][blocks]
        self.basis[other][blocks] = np.where(ent, bases, ob)
        self.value[other][blocks] = np.where(ent, outcomes, ov)
        self.entangled[blocks] = False
        return outcomes

    # -- extraction to the generic engine --------------------------------

    def pair_state(self, block: int, pos: int) -> SparseState:
        """Joint state of one (P, V) pair as a 2-qubit SparseState."""
        if self.entangled[block, pos]:
            amps = {0b00: np.sqrt(0.5) + 0j, 0b11: np.sqrt(0.5) + 0j}
            return SparseState(2, amps)
        joint: dict[int, complex] = {}
        p = _QUBIT_AMPS[(int(self.basis[ROLE_P][block, pos]), int(self.value[ROLE_P][block, pos]))]
        v = _QUBIT_AMPS[(int(self.basis[ROLE_V][block, pos]), int(self.value[ROLE_V][block, pos]))]
        for kp, ap in p.items():
            for kv, av in v.items():
                joint[(kp << 1) | kv] = ap * av
        return SparseState(2, joint)

    def half_state(self, role: str, pairs: list[tuple[int, int]]) -> SparseState:
        """Product state of the chosen collapsed half-qubits.

        Raises if any requested pair is still entangled (its half alone
        would be mixed, which a SparseState cannot hold).
        """
        if len(pairs) > 12:
            raise SimUsageError("half_state capped at 12 qubits")
        amps: dict[int, complex] = {0: 1.0 + 0j}
        for block, pos in pairs:
            if self.entangled[block, pos]:
                raise SimUsageError("half of an entangled pair is mixed; measure first")
            q = _QUBIT_AMPS[(int(self.basis[role][block, pos]), int(self.value[role][block, pos]))]
            amps = {(k << 1) | kq: a * aq for k, a in amps.items() for kq, aq in q.items()}
        return SparseState(len(pairs), amps)


def prep_epr(block_count: int, block_width: int) -> EprNetwork:
    """Fresh network of block_count x block_width EPR pairs."""
    return EprNetwork(block_count, block_width)


__all__ = ["EprNetwork", "ROLE_P", "ROLE_V", "prep_epr"]
