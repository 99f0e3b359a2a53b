"""Shared EPR-pair network.

The protocols only ever apply single-qubit Z/X measurements to
disjoint EPR pairs, so the network is stored in factored form: each
pair is either still entangled or has collapsed to a product of two
single-qubit pure states. Every measurement covers whole blocks, so
the records are one uint8 word per block and role: bit j of a block's
basis word and value word is pair j's (the `bits` word convention).
That makes a session with millions of pairs a handful of vector
operations while staying an exact simulation: the tests cross-check
`measure_blocks`, through each of its three branches (first touch, all
collapsed, mixed), against the generic sparse engine.

The records are built lazily and shared while they agree:
  * a fresh network holds no arrays; every pair is entangled;
  * the first measurement of the whole network collapses both halves
    to the same basis/value, so both roles share one pair of arrays:
    the bases passed in (uint8, kept by reference) and the outcomes
    returned (made read-only);
  * a later measurement replaces a role's arrays when it covers the
    whole network, and otherwise copies that role's arrays once before
    writing its rows (copy on write). Arrays the network hands out or
    was handed are therefore never written to by the network; callers
    must not write to them either.
The per-block entangled mask is the only record of which blocks are
unmeasured. It is kept as an array only once some but not all blocks
are collapsed.

Measurement rules per pair (derivable from (|00>+|11>)/sqrt(2), which
equals (|++>+|-->)/sqrt(2)):
  * first measurement of either half in basis b: outcome uniform, and
    both halves collapse to that basis/value (same-basis agreement);
  * re-measuring a collapsed half in its own basis repeats the value;
  * measuring it in the other basis gives a fresh uniform outcome and
    does not touch the partner qubit.
"""

from __future__ import annotations

import functools
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


@dataclass
class EprNetwork:
    """ell blocks of width k <= 8; pair (i, j) couples qubits P^i_j and V^i_j."""

    block_count: int
    block_width: int
    # role -> uint8 (ell,) basis/value words; None until the first
    # measurement. Both roles may hold the same array objects.
    _basis: dict | None = field(repr=False, default=None)
    _value: dict | None = field(repr=False, default=None)
    # bool (ell,) mask of entangled blocks; None while every block is in
    # one state: all entangled (no records yet) or all collapsed
    _entangled: np.ndarray | None = field(repr=False, default=None)
    # roles whose record arrays the network alone holds (writable in place)
    _owned: set = field(repr=False, default_factory=set)

    def __post_init__(self):
        if self.block_count * self.block_width < 1 or self.block_width > 8:
            raise SimUsageError("network needs at least one pair, in blocks of at most 8 (one byte each)")

    def _is_entangled(self, block: int) -> bool:
        return self._basis is None if self._entangled is None else bool(self._entangled[block])

    def _own(self, role: str) -> None:
        """Make role's records private and writable: allocate them on the
        first partial touch, copy them on the first write after sharing."""
        if self._basis is None:
            self._basis = {r: np.zeros(self.block_count, dtype=np.uint8) for r in _ROLES}
            self._value = {r: np.zeros(self.block_count, dtype=np.uint8) for r in _ROLES}
            self._owned = set(_ROLES)
        elif role not in self._owned:
            self._basis[role] = self._basis[role].copy()
            self._value[role] = self._value[role].copy()
            self._owned.add(role)

    def _write(self, role: str, blocks, bases: np.ndarray, outcomes: np.ndarray) -> None:
        """Record role's bases/outcomes on blocks (None: the whole network)."""
        if blocks is None:
            self._basis[role] = bases
            self._value[role] = _frozen(outcomes)
            self._owned.discard(role)
        else:
            self._own(role)
            self._basis[role][blocks] = bases
            self._value[role][blocks] = outcomes

    # -- measurement ----------------------------------------------------

    def measure_blocks(
        self, role: str, bases: np.ndarray, rng: np.random.Generator, blocks: np.ndarray | None = None
    ) -> np.ndarray:
        """Measure whole blocks of one half; bases is one word per block,
        bit j the basis of pair j (0=Z 1=X). Returns the (num_blocks,) uint8
        outcome words, read-only when the network keeps them as its record;
        an empty block list draws nothing and allocates no record."""
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
        other = ROLE_V if role == ROLE_P else ROLE_P
        draw = functools.partial(rng_mod.blocks, rng, n_blocks, self.block_width)

        if self._basis is None and blocks is None:
            # first touch of the whole network: uniform outcomes collapse
            # both halves to one shared record
            outcomes = _frozen(draw())
            self._basis = dict.fromkeys(_ROLES, bases)
            self._value = dict.fromkeys(_ROLES, outcomes)
            self._owned = set()
            return outcomes

        def rows(a: np.ndarray) -> np.ndarray:
            return a if blocks is None else a[blocks]

        ent = None if self._entangled is None else rows(self._entangled)
        any_ent, all_ent = (self._basis is None,) * 2 if ent is None else (bool(ent.any()), bool(ent.all()))

        def reread(fresh: np.ndarray) -> np.ndarray:
            # collapsed pairs: the recorded value in the same basis, else fresh
            same = ~(rows(self._basis[role]) ^ bases) & mask
            return (rows(self._value[role]) & same) | (fresh & ~same)

        if not any_ent:
            # every pair collapsed: re-reads are deterministic (the
            # record itself when whole), only basis changes draw fresh bits
            my_basis = rows(self._basis[role])
            if my_basis is bases or np.array_equal(my_basis, bases):
                return rows(self._value[role])
            outcomes = reread(draw())
            self._write(role, blocks, bases, outcomes)
            return outcomes

        fresh = draw()
        if all_ent:
            # first touch everywhere: uniform outcomes collapse both halves
            outcomes = fresh
            self._write(role, blocks, bases, outcomes)
            self._write(other, blocks, bases, outcomes)
        else:
            # first touch of the entangled blocks: uniform outcomes
            # collapse the pair; the partner follows only there
            outcomes = np.where(ent, fresh, reread(fresh))
            partner_basis = np.where(ent, bases, rows(self._basis[other]))
            partner_value = np.where(ent, outcomes, rows(self._value[other]))
            self._write(role, blocks, bases, outcomes)
            self._write(other, blocks, partner_basis, partner_value)
        if blocks is None:
            self._entangled = None
        else:
            if self._entangled is None:
                self._entangled = np.ones(self.block_count, dtype=bool)
            self._entangled[blocks] = False
        return outcomes

    # -- extraction to the generic engine --------------------------------

    def _qubit(self, role: str, block: int, pos: int) -> dict:
        basis, value = (int(self._basis[role][block]) >> pos) & 1, (int(self._value[role][block]) >> pos) & 1
        return _QUBIT_AMPS[(basis, value)]

    def pair_state(self, block: int, pos: int) -> SparseState:
        """Joint state of one (P, V) pair as a 2-qubit SparseState."""
        if self._is_entangled(block):
            amps = {0b00: np.sqrt(0.5) + 0j, 0b11: np.sqrt(0.5) + 0j}
            return SparseState(2, amps)
        joint: dict[int, complex] = {}
        p = self._qubit(ROLE_P, block, pos)
        v = self._qubit(ROLE_V, block, pos)
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
            if self._is_entangled(block):
                raise SimUsageError("half of an entangled pair is mixed; measure first")
            q = self._qubit(role, block, pos)
            amps = {(k << 1) | kq: a * aq for k, a in amps.items() for kq, aq in q.items()}
        return SparseState(len(pairs), amps)


def prep_epr(block_count: int, block_width: int) -> EprNetwork:
    """Fresh network of block_count x block_width EPR pairs; allocates nothing."""
    return EprNetwork(block_count, block_width)


__all__ = ["EprNetwork", "ROLE_P", "ROLE_V", "prep_epr"]
