"""Shared EPR-pair network.

The protocols only ever apply single-qubit Z/X measurements to
disjoint EPR pairs, and the prover measures every half first. The
network makes that its invariant: the first measurement covers every
pair, and a first touch of some blocks raises. So the network is
either fresh (every pair entangled, no arrays held) or collapsed
(every pair a product of two single-qubit pure states). Every
measurement covers whole blocks, so the records are one uint8 word per
block and role: bit j of a block's basis word and value word is pair
j's (the `bits` word convention). That makes a session with millions
of pairs a handful of vector operations while staying an exact
simulation: the tests cross-check `measure_blocks`, through its first
touch and its re-reads, against the generic sparse engine.

The records are shared while they agree:
  * the first measurement collapses both halves to the same
    basis/value, so both roles share one pair of arrays: the bases
    passed in (uint8, kept by reference) and the outcomes returned
    (made read-only);
  * a later measurement that changes a basis replaces that role's
    arrays: with the bases passed in and the outcomes returned when it
    covers the whole network, else with patched read-only copies.
Arrays the network hands out or was handed are therefore never written
to by the network; callers must not write to them either.

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

from . import rng as rng_mod
from .state import SimUsageError, SparseState

ROLE_P = "P"
ROLE_V = "V"
_ROLES = (ROLE_P, ROLE_V)

# single-qubit pure states, keyed by (basis, value): Z0, Z1, X+, X-
_QUBIT_AMPS = {
    (0, 0): {0: 1.0 + 0j},
    (0, 1): {1: 1.0 + 0j},
    (1, 0): {0: np.sqrt(0.5) + 0j, 1: np.sqrt(0.5) + 0j},
    (1, 1): {0: np.sqrt(0.5) + 0j, 1: -np.sqrt(0.5) + 0j},
}


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only (it is shared between the network and a caller)."""
    a.flags.writeable = False
    return a


def _patched(a: np.ndarray, blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A read-only copy of a with rows written at blocks."""
    a = a.copy()
    a[blocks] = rows
    return _frozen(a)


@dataclass
class EprNetwork:
    """ell blocks of width k <= 8; pair (i, j) couples qubits P^i_j and V^i_j."""

    block_count: int
    block_width: int
    # role -> uint8 (ell,) basis/value words; None while the network is
    # fresh. Both roles may hold the same array objects.
    _basis: dict | None = field(repr=False, default=None)
    _value: dict | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.block_count * self.block_width < 1 or self.block_width > 8:
            raise SimUsageError("network needs at least one pair, in blocks of at most 8 (one byte each)")

    # -- measurement ----------------------------------------------------

    def measure_blocks(
        self, role: str, bases: np.ndarray, rng: np.random.Generator, blocks: np.ndarray | None = None
    ) -> np.ndarray:
        """Measure whole blocks of one half; bases is one word per block,
        bit j the basis of pair j (0=Z 1=X). Returns the (num_blocks,) uint8
        outcome words, read-only when the network keeps them as its record;
        an empty block list draws nothing and allocates no record. On a
        fresh network only the whole network (blocks None) may be measured."""
        if role not in _ROLES:
            raise SimUsageError(f"unknown role {role!r}")
        if blocks is not None:
            blocks = np.asarray(blocks, dtype=np.int64)
        n_blocks = self.block_count if blocks is None else len(blocks)
        mask, bases = (1 << self.block_width) - 1, np.asarray(bases)
        in_range = bases.dtype.kind in "ui" and (bases.size == 0 or 0 <= bases.min() <= bases.max() <= mask)
        if bases.shape != (n_blocks,) or not in_range:
            raise SimUsageError("bases must be one block_width-bit word per block")
        bases = bases.astype(np.uint8, copy=False)
        if n_blocks == 0:
            return np.empty(0, dtype=np.uint8)

        if self._basis is None:
            if blocks is not None:
                raise SimUsageError("the first measurement must cover every pair")
            # uniform outcomes collapse both halves to one shared record
            outcomes = _frozen(rng_mod.blocks(rng, n_blocks, self.block_width))
            self._basis = dict.fromkeys(_ROLES, bases)
            self._value = dict.fromkeys(_ROLES, outcomes)
            return outcomes

        my_basis, my_value = self._basis[role], self._value[role]
        if blocks is not None:
            my_basis, my_value = my_basis[blocks], my_value[blocks]
        # re-reads are deterministic (the record itself when whole), only
        # basis changes draw fresh bits
        if my_basis is bases or np.array_equal(my_basis, bases):
            return my_value
        fresh = rng_mod.blocks(rng, n_blocks, self.block_width)
        same = ~(my_basis ^ bases) & mask
        outcomes = (my_value & same) | (fresh & ~same)
        if blocks is None:
            self._basis[role], self._value[role] = bases, _frozen(outcomes)
        else:
            self._basis[role] = _patched(self._basis[role], blocks, bases)
            self._value[role] = _patched(self._value[role], blocks, outcomes)
        return outcomes

    # -- extraction to the generic engine --------------------------------

    def half_state(self, role: str, pairs: list[tuple[int, int]]) -> SparseState:
        """Product state of the chosen collapsed half-qubits.

        Raises on a fresh network (the half of an entangled pair alone
        is mixed, which a SparseState cannot hold).
        """
        if len(pairs) > 12:
            raise SimUsageError("half_state capped at 12 qubits")
        if self._basis is None:
            raise SimUsageError("half of an entangled pair is mixed; measure first")
        basis, value = self._basis[role], self._value[role]
        amps: dict[int, complex] = {0: 1.0 + 0j}
        for block, pos in pairs:
            q = _QUBIT_AMPS[((int(basis[block]) >> pos) & 1, (int(value[block]) >> pos) & 1)]
            amps = {(k << 1) | kq: a * aq for k, a in amps.items() for kq, aq in q.items()}
        return SparseState(len(pairs), amps)


__all__ = ["EprNetwork", "ROLE_P", "ROLE_V"]
