"""Executable negative results and the certified-deletion harness.

Three experiment families:

* A commit-and-open strawman protocol that derives its opening set
  from a hash of the commitments. Because the set depends only on
  classical data, a verifier can split the proof into the opened blocks
  (enough to verify) and the unopened blocks (enough to pass
  certification) - the splitting attack succeeds with certainty. The
  same split packaged as a prover is the derived proof system that is
  simultaneously statistically sound and witness-independent, which is
  the executable content of the impossibility argument. The forger
  draws and scores all its grinding attempts at once, as arrays. Blocks
  are rows of ys, thetas and commitments (`commit_bits` returns them);
  one lazily prepared id -> state map, `_BlockStates`, makes a block's
  BB84 state the first time its id is read.

* The same splitting attempt against the superposition CRS protocol,
  where it fails: any retained computational-basis copy of the
  encoding register dephases it, and the Hadamard certification then
  matches only with probability 2^-wt(theta).

* The BB84 certified-deletion experiment: an adversary holding
  Z(theta, b XOR parity, |y>^theta) returns a certificate checked on
  the Hadamard positions; valid deletion information-theoretically
  erases the computational-basis parity, making the masked bit
  unrecoverable. Exact trace distances at small sizes, Monte Carlo
  above.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import crs_protocol as cp
from . import rng as rng_mod
from .bits import check_deletion_cert, masked_parity, pack_rows
from .graphs import CycleWitness, Digraph, canonical_cycle, require_witness
from .hbnizk import usefulness
from .state import (
    Bb84Descriptor,
    SimUsageError,
    SparseState,
    measure,
    prep_bb84,
    trace_distance,
)

# ---------------------------------------------------------------------
# BB84 bit commitment blocks (parity-masked)
# ---------------------------------------------------------------------


class _BlockStates(Mapping):
    """Read-only id -> SparseState over the listed blocks, given as rows of
    ys and thetas: the one place a strawman block's encoding |y>^theta is
    prepared, the first time its id is read, so classical experiments
    (challenge grinding) stay cheap. An id not listed is a KeyError."""

    def __init__(self, ys: np.ndarray, thetas: np.ndarray, ids):
        self._ys, self._thetas = ys, thetas
        self._ids = ids
        self._listed = frozenset(ids)
        self._states: dict[int, SparseState] = {}

    def __getitem__(self, i) -> SparseState:
        if i not in self._listed:
            raise KeyError(i)
        i = int(i)
        if i not in self._states:
            self._states[i] = prep_bb84(Bb84Descriptor(self._ys[i], self._thetas[i]))
        return self._states[i]

    def __contains__(self, i) -> bool:
        return i in self._listed

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def _pads(draws) -> np.ndarray:
    """Block parities of stacked (ys, thetas) rows, packed in one call."""
    words = pack_rows(draws)
    return masked_parity(words[1], words[0])


def commit_bits(ms: np.ndarray, width: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch commit: two draws (ys, then thetas) for a whole block vector.
    Returns the (ys, thetas, cs) rows, c = m XOR parity(y over theta=0)."""
    draws = rng_mod.bits(rng, (len(ms), width), count=2)
    return *draws, np.asarray(ms, dtype=np.uint8) ^ _pads(draws)


def open_commit(block_state: SparseState, y: np.ndarray, theta: np.ndarray, c: int, rng) -> Optional[int]:
    """Receiver-side opening: measure in the claimed basis; every outcome
    must reproduce the claimed y, then the bit is c XOR parity."""
    outcomes, _ = measure(block_state, list(range(len(y))), ["X" if t else "Z" for t in theta], rng)
    if not np.array_equal(outcomes, y):
        return None
    return int(c) ^ int(_pads((y, theta)))


def deletion_cert_for_block(block_state: SparseState, rng) -> np.ndarray:
    width = block_state.num_qubits
    return measure(block_state, list(range(width)), ["X"] * width, rng)[0]


# ---------------------------------------------------------------------
# strawman protocol (commit-and-open with hash-derived opening set)
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class StrawmanParams:
    reps: int = 24
    width: int = 4  # qubits per commitment block

    def block_count(self, n_vertices: int) -> int:
        return self.reps * n_vertices * n_vertices


@dataclass
class StrawmanProof:
    """sigma: quantum blocks plus the classical package (commitment
    values, permutations/openings, the derived opening set)."""

    blocks: Mapping  # id -> SparseState of every (rep, u, v) block, row-major
    classical: dict


@dataclass
class StrawmanKey:
    """rho_P: everything the prover needs to check revocation."""

    ys: np.ndarray  # (blocks, width) rows, row-major like the blocks
    thetas: np.ndarray
    opened: set


def _fs_challenges(x: Digraph, cs, reps: int) -> np.ndarray:
    # opening set derived from classical commitment data only; cs is a
    # list of 0/1 ints or a uint8 array (same bytes)
    data = x.digest() + bytes(cs)
    digest = hashlib.blake2b(data, digest_size=(reps + 7) // 8, person=b"strawman-fs").digest()
    bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))[:reps]
    return bits.astype(np.uint8)


def _entry_id(rep: int, u: int, v: int, n: int) -> int:
    return rep * n * n + u * n + v


def _permuted_adjacency(x: Digraph, taus: np.ndarray) -> np.ndarray:
    """Adjacency matrices of x relabelled by each vertex permutation in
    the (r, n) stack taus: an (r, n, n) uint8 array."""
    permuted = np.zeros((len(taus), x.n, x.n), dtype=np.uint8)
    permuted[np.arange(len(taus))[:, None, None], taus[:, :, None], taus[:, None, :]] = x.adjacency
    return permuted


def _draw_reps(n: int, params: StrawmanParams, rng: np.random.Generator, attempts: int = 1):
    """The draws of `attempts` attempts: a uniform vertex permutation per
    repetition of every attempt, in one call, then the ys and thetas of
    every attempt's reps*n*n blocks, row-major, in one call. Returns the
    (attempts, reps, n) permutations, the (attempts, blocks, width) ys
    and thetas, and the (attempts, blocks) block parities."""
    taus = rng.permuted(np.tile(np.arange(n), (attempts * params.reps, 1)), axis=1)
    draws = rng_mod.bits(rng, (attempts, params.block_count(n), params.width), count=2)
    return taus.reshape(attempts, params.reps, n), *draws, _pads(draws)


def _opening_package(
    ys: np.ndarray, thetas: np.ndarray, cs: np.ndarray, taus: np.ndarray, cycle: CycleWitness, challenges: np.ndarray
) -> dict:
    """Open what the hash-derived challenges of cs ask for: every entry of
    a challenge-0 repetition (with its permutation), the tau-image of the
    cycle's edges in a challenge-1 one. ys, thetas and cs are the
    blocks' rows, taus the (reps, n) permutations. Returns the classical
    package."""
    n = taus.shape[1]
    openings = []
    for rep, (chal, tau) in enumerate(zip(challenges, taus)):
        if chal == 0:
            ids = [_entry_id(rep, a, c, n) for a in range(n) for c in range(n)]
            opening = {"kind": "full", "tau": [int(t) for t in tau], "ids": ids}
        else:
            ids = sorted(_entry_id(rep, int(tau[u]), int(tau[v]), n) for u, v in cycle.edges())
            opening = {"kind": "cycle", "ids": ids}
        opening.update(ys=[ys[i] for i in ids], thetas=[thetas[i] for i in ids])
        openings.append(opening)
    return {"cs": cs.tolist(), "openings": openings, "opened_ids": sorted(i for op in openings for i in op["ids"])}


def _verification_half(classical: dict, ys: np.ndarray, thetas: np.ndarray) -> dict:
    """What the splitting verifier keeps: the classical package and the
    opened blocks' states."""
    return {"classical": classical, "opened_states": _BlockStates(ys, thetas, classical["opened_ids"])}


def strawman_prove(
    params: StrawmanParams, x: Digraph, witness: CycleWitness, rng: np.random.Generator
) -> tuple[StrawmanProof, StrawmanKey]:
    require_witness(x, witness)
    taus, ys, thetas, pads = (a[0] for a in _draw_reps(x.n, params, rng))
    cs = _permuted_adjacency(x, taus).ravel() ^ pads
    challenges = _fs_challenges(x, cs, params.reps)
    classical = _opening_package(ys, thetas, cs, taus, witness, challenges)
    blocks = _BlockStates(ys, thetas, range(params.block_count(x.n)))
    return StrawmanProof(blocks, classical), StrawmanKey(ys, thetas, set(classical["opened_ids"]))


def strawman_verify(params: StrawmanParams, x: Digraph, package: dict, rng: np.random.Generator) -> int:
    """Verification needs only the opened blocks plus the classical
    package; that locality is exactly what the splitting attack uses.
    Per repetition: the kind its challenge asks for, then tau (challenge
    0) or exactly n ids (challenge 1), then every listed block opened in
    order, then the full matrix or the single cycle."""
    try:
        cs = package["classical"]["cs"]
        openings = package["classical"]["openings"]
        states = package["opened_states"]  # id -> SparseState
        n = x.n
        if len(cs) != params.block_count(n) or len(openings) != params.reps:
            return 0
        challenges = _fs_challenges(x, cs, params.reps)
        for rep, (chal, op) in enumerate(zip(challenges.tolist(), openings)):
            if not isinstance(op, dict) or op.get("kind") != ("full", "cycle")[chal]:
                return 0
            if chal == 0:
                # a permutation of exactly the ints 0..n-1, as hbnizk._valid_map reads a map
                tau = op["tau"]
                if any(type(t) is not int for t in tau) or sorted(tau) != list(range(n)):
                    return 0
            elif len(op["ids"]) != n:
                return 0
            bits = {}
            for i, yv, tv in zip(op["ids"], op["ys"], op["thetas"], strict=True):
                bits[i] = open_commit(states[i], yv, tv, cs[i], rng)
                if bits[i] is None or (chal == 1 and bits[i] != 1):  # a cycle opens ones only
                    return 0
            if chal == 0:
                full = [bits.get(_entry_id(rep, tau[u], tau[v], n)) for u in range(n) for v in range(n)]
                if full != x.adjacency.ravel().tolist():
                    return 0
            else:
                # the opened ones must form a single directed n-cycle
                cells = [i - rep * n * n for i in op["ids"]]
                if any(not 0 <= c < n * n for c in cells):
                    return 0
                matrix = np.zeros(n * n, dtype=bool)
                matrix[cells] = True
                if usefulness(matrix.reshape(n, n), n) is None:
                    return 0
        return 1
    except (KeyError, IndexError, TypeError, ValueError, SimUsageError):
        return 0


def strawman_cert(key: StrawmanKey, returned_states: Mapping, rng: np.random.Generator) -> bool:
    """X-measure every unopened block and match the recorded y on the
    Hadamard positions."""
    for i in range(len(key.ys)):
        if i in key.opened:
            continue
        if i not in returned_states:
            return False
        cert = deletion_cert_for_block(returned_states[i], rng)
        if not check_deletion_cert(cert, key.ys[i], key.thetas[i]):
            return False
    return True


# ---------------------------------------------------------------------
# the splitting attack and the derived proof system
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SplitOutcome:
    cert_accepts: bool
    verify_accepts: bool


def split_attack(
    params: StrawmanParams,
    x: Digraph,
    witness: CycleWitness,
    rng: np.random.Generator,
) -> SplitOutcome:
    """V* routes unopened blocks to the certification register and opened
    blocks (with cloned classical openings) to the verification
    register. Both sides accept with certainty on the strawman."""
    proof, key = strawman_prove(params, x, witness, rng)
    to_cert = {i: proof.blocks[i] for i in proof.blocks if i not in key.opened}
    package = _verification_half(proof.classical, key.ys, key.thetas)
    cert_ok = strawman_cert(key, to_cert, rng)
    verify_ok = bool(strawman_verify(params, x, package, rng))
    return SplitOutcome(cert_ok, verify_ok)


def derived_prove(
    params: StrawmanParams, x: Digraph, witness: CycleWitness, rng: np.random.Generator
) -> dict:
    """The derived prover: run the honest prover, apply the splitting
    verifier, output the verification half. Together with the strawman
    verifier this forms the statistically-sound, witness-independent
    proof system the impossibility argument constructs."""
    proof, key = strawman_prove(params, x, witness, rng)
    return _verification_half(proof.classical, key.ys, key.thetas)


def derived_verify(params: StrawmanParams, x: Digraph, package: dict, rng) -> int:
    return strawman_verify(params, x, package, rng)


def derived_soundness_adversary(
    params: StrawmanParams, x: Digraph, rng: np.random.Generator, grind_tries: int = 16
) -> dict:
    """Challenge-grinding forger for a false statement: prepares each
    repetition for one guessed challenge (an honest permuted commit for
    0, an everything-is-one commit for 1) in each of grind_tries
    attempts, hoping the hash-derived challenges land on the guesses.
    Every attempt is drawn and scored at once, as arrays; the first
    attempt with the most hits is kept (one that meets every challenge
    verifies), and only its opened blocks ever become states."""
    n, reps = x.n, params.reps
    guesses = rng_mod.bits(rng, (grind_tries, reps))
    taus, ys, thetas, pads = _draw_reps(n, params, rng, grind_tries)
    adjacency = _permuted_adjacency(x, taus.reshape(-1, n)).reshape(grind_tries, reps, n * n)
    # an everything-is-one commit can open any cycle
    cs = np.where(guesses[:, :, None] == 0, adjacency, np.uint8(1)).reshape(grind_tries, -1) ^ pads
    challenges = np.array([_fs_challenges(x, c, reps) for c in cs])
    best = int(np.argmax(np.count_nonzero(challenges == guesses, axis=1)))
    ys, thetas = ys[best], thetas[best]
    classical = _opening_package(ys, thetas, cs[best], taus[best], canonical_cycle(n), challenges[best])
    return _verification_half(classical, ys, thetas)


def split_attack_on_crs(crs_params, crs, x, witness, rng) -> SplitOutcome:
    """The analogous split against the superposition protocol: keep a
    computational-basis copy for verification, return the original for
    certification. Verification still accepts; certification now fails
    with probability 1 - 2^-wt(theta)."""
    sigma, key = cp.crs_prove(crs_params, crs, x, witness, rng)
    clone = cp.clone_attack(crs_params, sigma)
    verify_ok = bool(cp.verify_clone_half(crs_params, x, clone, clone.copy, rng))
    cert_ok = bool(cp.cert_original_after_clone(crs_params, key, clone, rng))
    return SplitOutcome(cert_ok, verify_ok)


# ---------------------------------------------------------------------
# certified-deletion experiment (the reduction target)
# ---------------------------------------------------------------------

ADV_HONEST_DELETER = "honest-deleter"
ADV_KEEP_STATE = "keep-state"
ADV_BASIS_INFORMED = "basis-informed"

EXACT_LAMBDA_LIMIT = 4


@dataclass(frozen=True)
class DeletionExperiment:
    """Z hands every adversary the masked bit; the basis-informed one also
    gets theta (the leaking negative control, which violates Z's
    semantic-security precondition)."""

    lam: int
    adversary: str = ADV_HONEST_DELETER


@dataclass(frozen=True)
class DeletionOutcome:
    accepted: bool
    output_state: Optional[SparseState]  # register B (None when empty)
    classical: dict


def run_deletion_experiment(
    exp: DeletionExperiment, b: int, rng: np.random.Generator
) -> DeletionOutcome:
    lam = exp.lam
    y, theta = draws = rng_mod.bits(rng, lam, count=2)
    masked = int(b) ^ int(_pads(draws))
    register = prep_bb84(Bb84Descriptor(y, theta))

    if exp.adversary == ADV_HONEST_DELETER:
        cert, _ = measure(register, list(range(lam)), ["X"] * lam, rng)
        out_state, classical = None, {}
    elif exp.adversary == ADV_KEEP_STATE:
        cert = rng_mod.bits(rng, lam)
        out_state, classical = register, {"masked_bit": masked}
    elif exp.adversary == ADV_BASIS_INFORMED:
        bases = ["Z" if t == 0 else "X" for t in theta]
        outcomes, _ = measure(register, list(range(lam)), bases, rng)
        recovered = masked ^ int(_pads((outcomes, theta)))
        cert = outcomes  # X positions carry the true y; Z positions unchecked
        out_state = SparseState(1, {int(recovered): 1.0 + 0.0j})
        classical = {"bit": int(recovered)}
    else:
        raise ValueError(f"unknown adversary {exp.adversary!r}")

    accepted = check_deletion_cert(cert, y, theta)
    return DeletionOutcome(accepted, out_state if accepted else None, classical if accepted else {})


@dataclass(frozen=True)
class TdEstimate:
    value: float
    exact: bool
    halfwidth: float = 0.0
    trials: int = 0


def _exact_output_matrix(exp: DeletionExperiment, b: int) -> np.ndarray:
    """Density matrix of the experiment output over bot + B, averaged
    over the (y, theta) mixture. Exact for the deterministic-branch
    adversaries at small lambda."""
    lam = exp.lam
    if lam > EXACT_LAMBDA_LIMIT:
        raise ValueError(f"exact mode capped at lambda <= {EXACT_LAMBDA_LIMIT}")
    out_dim = 2 if exp.adversary == ADV_BASIS_INFORMED else 1
    dim = 1 + out_dim  # index 0 is the bot flag
    rho = np.zeros((dim, dim), dtype=np.complex128)
    weight = 1.0 / (4**lam)
    for y_int in range(1 << lam):
        for th_int in range(1 << lam):
            # y and theta as words (the parity ignores their bit order)
            parity = int(masked_parity(np.uint64(th_int), np.uint64(y_int)))
            masked = int(b) ^ parity
            if exp.adversary == ADV_HONEST_DELETER:
                # always accepted, empty output
                rho[1, 1] += weight
            elif exp.adversary == ADV_BASIS_INFORMED:
                recovered = masked ^ parity  # = b exactly
                rho[1 + recovered, 1 + recovered] += weight
            else:
                raise ValueError("exact mode supports the deterministic adversaries only")
    return rho


def hoeffding_halfwidth(trials: int) -> float:
    """Two-sided Hoeffding half-width of a rate over trials at level 0.05."""
    if trials <= 0:
        return 0.0
    return math.sqrt(math.log(2.0 / 0.05) / (2.0 * trials))


def td_estimate(exp: DeletionExperiment, rng: np.random.Generator, trials: int = 10_000) -> TdEstimate:
    """Trace distance between Exp(0) and Exp(1): exact for lambda <= 4
    with deterministic-branch adversaries, else a Monte Carlo bound on
    the classical outcome distributions with a Hoeffding interval."""
    if exp.lam <= EXACT_LAMBDA_LIMIT and exp.adversary in (ADV_HONEST_DELETER, ADV_BASIS_INFORMED):
        value = trace_distance(_exact_output_matrix(exp, 0), _exact_output_matrix(exp, 1))
        return TdEstimate(value, exact=True)
    counts: list[dict] = [{}, {}]
    for b in (0, 1):
        for _ in range(trials):
            out = run_deletion_experiment(exp, b, rng)
            digest = ("bot",) if not out.accepted else ("ok", tuple(sorted(out.classical.items())))
            counts[b][digest] = counts[b].get(digest, 0) + 1
    keys = set(counts[0]) | set(counts[1])
    tv = 0.5 * sum(abs(counts[0].get(k, 0) - counts[1].get(k, 0)) / trials for k in keys)
    return TdEstimate(tv, exact=False, halfwidth=hoeffding_halfwidth(trials), trials=trials)


def keep_state_acceptance(lam: int, trials: int, rng: np.random.Generator) -> float:
    """Post-selection rate of the keep-the-state adversary; analytically
    the average of 2^-wt(theta), i.e. (3/4)^lambda."""
    exp = DeletionExperiment(lam, ADV_KEEP_STATE)
    hits = sum(run_deletion_experiment(exp, 0, rng).accepted for _ in range(trials))
    return hits / trials


__all__ = [
    "ADV_BASIS_INFORMED",
    "ADV_HONEST_DELETER",
    "ADV_KEEP_STATE",
    "DeletionExperiment",
    "DeletionOutcome",
    "SplitOutcome",
    "StrawmanKey",
    "StrawmanParams",
    "StrawmanProof",
    "TdEstimate",
    "check_deletion_cert",
    "commit_bits",
    "deletion_cert_for_block",
    "derived_prove",
    "derived_soundness_adversary",
    "derived_verify",
    "hoeffding_halfwidth",
    "keep_state_acceptance",
    "open_commit",
    "run_deletion_experiment",
    "split_attack",
    "split_attack_on_crs",
    "strawman_cert",
    "strawman_prove",
    "strawman_verify",
    "td_estimate",
]
