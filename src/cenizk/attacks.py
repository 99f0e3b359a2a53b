"""Executable negative results and the certified-deletion harness.

Three experiment families:

* A commit-and-open strawman protocol that derives its opening set
  from a hash of the commitments. Because the set depends only on
  classical data, a verifier can split the proof into the opened blocks
  (enough to verify) and the unopened blocks (enough to pass
  certification) - the splitting attack succeeds with certainty. The
  same split packaged as a prover is the derived proof system that is
  simultaneously statistically sound and witness-independent, which is
  the executable content of the impossibility argument.

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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import int_to_bits, masked_parity
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
# BB84 bit commitment block (parity-masked)
# ---------------------------------------------------------------------


@dataclass
class CommitBlock:
    """Commit one bit m: publish c = m XOR parity(y over theta=0) next to
    the quantum encoding |y>^theta; opening reveals (y, theta). The
    encoding is materialized on first use so classical experiments
    (challenge grinding) stay cheap."""

    y: np.ndarray
    theta: np.ndarray
    c: int
    _state: Optional[SparseState] = None

    @property
    def state(self) -> SparseState:
        if self._state is None:
            self._state = prep_bb84(Bb84Descriptor(self.y, self.theta))
        return self._state


def commit_bit(m: int, width: int, rng: np.random.Generator) -> CommitBlock:
    y = rng.integers(0, 2, size=width, dtype=np.uint8)
    theta = rng.integers(0, 2, size=width, dtype=np.uint8)
    c = int(m) ^ int(masked_parity(theta, y))
    return CommitBlock(y, theta, c)


def commit_bits(ms: np.ndarray, width: int, rng: np.random.Generator) -> list[CommitBlock]:
    """Batch commit: one sampling call for a whole block vector."""
    k = len(ms)
    ys = rng.integers(0, 2, size=(k, width), dtype=np.uint8)
    thetas = rng.integers(0, 2, size=(k, width), dtype=np.uint8)
    cs = np.asarray(ms, dtype=np.uint8) ^ masked_parity(thetas, ys)
    return [CommitBlock(ys[i], thetas[i], int(cs[i])) for i in range(k)]


def open_commit(block_state: SparseState, y: np.ndarray, theta: np.ndarray, c: int, rng) -> Optional[int]:
    """Receiver-side opening: measure in the claimed basis; every outcome
    must reproduce the claimed y, then the bit is c XOR parity."""
    width = len(y)
    outcomes, _ = measure(block_state, list(range(width)), ["X" if t else "Z" for t in theta], rng)
    if not np.array_equal(outcomes, y):
        return None
    return int(c) ^ int(masked_parity(theta, y))


def deletion_cert_for_block(block_state: SparseState, rng) -> np.ndarray:
    width = block_state.num_qubits
    outcomes, _ = measure(block_state, list(range(width)), ["X"] * width, rng)
    return outcomes


def check_deletion_cert(cert: np.ndarray, y: np.ndarray, theta: np.ndarray) -> bool:
    mask = theta == 1
    return bool(np.all(cert[mask] == y[mask]))


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

    blocks: list  # CommitBlock per (rep, u, v), row-major
    classical: dict


@dataclass
class StrawmanKey:
    """rho_P: everything the prover needs to check revocation."""

    ys: list
    thetas: list
    opened: set


def _fs_challenges(x: Digraph, cs: list[int], reps: int) -> np.ndarray:
    # opening set derived from classical commitment data only
    data = x.digest() + bytes(cs)
    digest = hashlib.blake2b(data, digest_size=(reps + 7) // 8, person=b"strawman-fs").digest()
    bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))[:reps]
    return bits.astype(np.uint8)


def _entry_id(rep: int, u: int, v: int, n: int) -> int:
    return rep * n * n + u * n + v


def _permuted_adjacency(x: Digraph, tau: np.ndarray) -> np.ndarray:
    """Adjacency matrix of x relabelled by the vertex permutation tau."""
    permuted = np.zeros((x.n, x.n), dtype=np.uint8)
    permuted[tau[:, None], tau] = x.adjacency
    return permuted


def _opening_package(
    x: Digraph, blocks: list, taus: list, cycle: CycleWitness, reps: int
) -> tuple[dict, set[int], np.ndarray]:
    """Open what the hash-derived challenges ask for: every entry of a
    challenge-0 repetition (with its permutation), the tau-image of the
    cycle's edges in a challenge-1 one. Returns (classical package,
    opened block ids, challenges)."""
    n = x.n
    cs = [b.c for b in blocks]
    challenges = _fs_challenges(x, cs, reps)
    openings = []
    opened_ids: set[int] = set()
    for rep, chal in enumerate(challenges):
        tau = taus[rep]
        if chal == 0:
            ids = [_entry_id(rep, a, c, n) for a in range(n) for c in range(n)]
            opening = {"kind": "full", "tau": [int(t) for t in tau], "ids": ids}
        else:
            ids = sorted(_entry_id(rep, int(tau[u]), int(tau[v]), n) for u, v in cycle.edges())
            opening = {"kind": "cycle", "ids": ids}
        opening["ys"] = [blocks[i].y for i in ids]
        opening["thetas"] = [blocks[i].theta for i in ids]
        openings.append(opening)
        opened_ids.update(ids)
    classical = {"cs": cs, "openings": openings, "opened_ids": sorted(opened_ids)}
    return classical, opened_ids, challenges


def strawman_prove(
    params: StrawmanParams, x: Digraph, witness: CycleWitness, rng: np.random.Generator
) -> tuple[StrawmanProof, StrawmanKey]:
    require_witness(x, witness)
    blocks = []
    taus = []
    for _ in range(params.reps):
        tau = rng.permutation(x.n)
        taus.append(tau)
        blocks.extend(commit_bits(_permuted_adjacency(x, tau).ravel(), params.width, rng))
    classical, opened_ids, _ = _opening_package(x, blocks, taus, witness, params.reps)
    proof = StrawmanProof(blocks, classical)
    key = StrawmanKey([b.y for b in blocks], [b.theta for b in blocks], opened_ids)
    return proof, key


def strawman_verify(
    params: StrawmanParams, x: Digraph, package: dict, rng: np.random.Generator
) -> int:
    """Verification needs only the opened blocks plus the classical
    package; that locality is exactly what the splitting attack uses."""
    try:
        cs = package["classical"]["cs"]
        openings = package["classical"]["openings"]
        opened_states = package["opened_states"]  # id -> SparseState
        n = x.n
        if len(cs) != params.block_count(n) or len(openings) != params.reps:
            return 0
        challenges = _fs_challenges(x, cs, params.reps)
        for rep, (chal, op) in enumerate(zip(challenges, openings)):
            if chal == 0:
                if op.get("kind") != "full":
                    return 0
                tau = op["tau"]
                if sorted(tau) != list(range(n)):
                    return 0
                bits = {}
                for i, yv, tv in zip(op["ids"], op["ys"], op["thetas"]):
                    m = open_commit(opened_states[i], yv, tv, cs[i], rng)
                    if m is None:
                        return 0
                    bits[i] = m
                for u in range(n):
                    for v in range(n):
                        i = _entry_id(rep, tau[u], tau[v], n)
                        if bits.get(i) != int(x.adjacency[u, v]):
                            return 0
                # off-permutation entries must be zero
                expected = {_entry_id(rep, tau[u], tau[v], n) for u in range(n) for v in range(n)}
                for a in range(n):
                    for c in range(n):
                        i = _entry_id(rep, a, c, n)
                        if i not in expected and bits.get(i) != 0:
                            return 0
            else:
                if op.get("kind") != "cycle" or len(op["ids"]) != n:
                    return 0
                for i, yv, tv in zip(op["ids"], op["ys"], op["thetas"]):
                    m = open_commit(opened_states[i], yv, tv, cs[i], rng)
                    if m != 1:
                        return 0
                # the opened ones must form a single directed n-cycle
                cells = [i - rep * n * n for i in op["ids"]]
                if any(not 0 <= c < n * n for c in cells):
                    return 0
                matrix = np.zeros(n * n, dtype=bool)
                matrix[cells] = True
                if usefulness(matrix.reshape(n, n), n) is None:
                    return 0
        return 1
    except (KeyError, IndexError, TypeError, SimUsageError):
        return 0


def strawman_cert(
    params: StrawmanParams,
    key: StrawmanKey,
    returned_states: dict,
    total_blocks: int,
    rng: np.random.Generator,
) -> bool:
    """X-measure every unopened block and match the recorded y on the
    Hadamard positions."""
    for i in range(total_blocks):
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
    withhold_opened: bool = False,
) -> SplitOutcome:
    """V* routes unopened blocks to the certification register and opened
    blocks (with cloned classical openings) to the verification
    register. Both sides accept with certainty on the strawman."""
    proof, key = strawman_prove(params, x, witness, rng)
    n_blocks = params.block_count(x.n)
    opened = set(proof.classical["opened_ids"])
    to_cert = {i: proof.blocks[i].state for i in range(n_blocks) if i not in opened}
    to_verify = {} if withhold_opened else {i: proof.blocks[i].state for i in opened}
    package = {"classical": proof.classical, "opened_states": to_verify}
    cert_ok = strawman_cert(params, key, to_cert, n_blocks, rng)
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
    opened = set(proof.classical["opened_ids"])
    package = {
        "classical": proof.classical,
        "opened_states": {i: proof.blocks[i].state for i in opened},
    }
    return package


def derived_verify(params: StrawmanParams, x: Digraph, package: dict, rng) -> int:
    return strawman_verify(params, x, package, rng)


def derived_soundness_adversary(
    params: StrawmanParams, x: Digraph, rng: np.random.Generator, grind_tries: int = 16
) -> dict:
    """Challenge-grinding forger for a false statement: prepares each
    repetition for one guessed challenge (an honest permuted commit for
    0, an everything-is-one commit for 1) and re-rolls hoping the
    hash-derived challenges land on the guesses."""
    cycle = canonical_cycle(x.n)
    best = None
    for _ in range(grind_tries):
        guesses = rng.integers(0, 2, size=params.reps, dtype=np.uint8)
        blocks = []
        taus = []
        for rep in range(params.reps):
            tau = rng.permutation(x.n)
            taus.append(tau)
            if guesses[rep] == 0:
                permuted = _permuted_adjacency(x, tau)
            else:
                permuted = np.ones((x.n, x.n), dtype=np.uint8)  # can open any cycle
            blocks.extend(commit_bits(permuted.ravel(), params.width, rng))
        classical, opened_ids, challenges = _opening_package(x, blocks, taus, cycle, params.reps)
        hits = int(np.sum(challenges == guesses))
        if best is None or hits > best[0]:
            best = (hits, blocks, classical, opened_ids)
        if hits == params.reps:
            break
    _, blocks, classical, opened_ids = best
    return {
        "classical": classical,
        "opened_states": {i: blocks[i].state for i in opened_ids},
    }


def split_attack_on_crs(crs_params, crs, x, witness, rng) -> SplitOutcome:
    """The analogous split against the superposition protocol: keep a
    computational-basis copy for verification, return the original for
    certification. Verification still accepts; certification now fails
    with probability 1 - 2^-wt(theta)."""
    from . import crs_protocol as cp

    sigma, key = cp.crs_prove(crs_params, crs, x, witness, rng)
    clone = cp.clone_attack(crs_params, sigma)
    verify_ok = bool(cp.verify_clone_half(crs_params, x, clone, "copy", rng))
    cert_ok = bool(cp.cert_original_after_clone(crs_params, key, x, clone, rng))
    return SplitOutcome(cert_ok, verify_ok)


# ---------------------------------------------------------------------
# certified-deletion experiment (the reduction target)
# ---------------------------------------------------------------------

Z_PLAIN = "plain-payload"
Z_THETA_LEAKING = "theta-leaking"

ADV_HONEST_DELETER = "honest-deleter"
ADV_KEEP_STATE = "keep-state"
ADV_BASIS_INFORMED = "basis-informed"

EXACT_LAMBDA_LIMIT = 4


@dataclass(frozen=True)
class DeletionExperiment:
    lam: int
    z_fixture: str = Z_PLAIN
    adversary: str = ADV_HONEST_DELETER

    def __post_init__(self):
        if self.z_fixture == Z_PLAIN and self.adversary == ADV_BASIS_INFORMED:
            raise ValueError("the basis-informed adversary needs the leaking fixture")


def _z_payload(exp: DeletionExperiment, theta: np.ndarray, masked_bit: int) -> dict:
    if exp.z_fixture == Z_PLAIN:
        return {"masked_bit": int(masked_bit)}
    if exp.z_fixture == Z_THETA_LEAKING:
        # negative control: violates the semantic-security precondition
        return {"masked_bit": int(masked_bit), "theta": theta.copy()}
    raise ValueError(f"unknown Z fixture {exp.z_fixture!r}")


def _assert_no_theta_leak(exp: DeletionExperiment, payload: dict) -> None:
    if exp.z_fixture != Z_THETA_LEAKING and "theta" in payload:
        raise AssertionError("Z fixture leaked theta despite declaring semantic security")


@dataclass(frozen=True)
class DeletionOutcome:
    accepted: bool
    output_state: Optional[SparseState]  # register B (None when empty)
    classical: dict


def run_deletion_experiment(
    exp: DeletionExperiment, b: int, rng: np.random.Generator
) -> DeletionOutcome:
    lam = exp.lam
    y = rng.integers(0, 2, size=lam, dtype=np.uint8)
    theta = rng.integers(0, 2, size=lam, dtype=np.uint8)
    masked = int(b) ^ int(masked_parity(theta, y))
    payload = _z_payload(exp, theta, masked)
    _assert_no_theta_leak(exp, payload)
    register = prep_bb84(Bb84Descriptor(y, theta))

    if exp.adversary == ADV_HONEST_DELETER:
        cert, _ = measure(register, list(range(lam)), ["X"] * lam, rng)
        out_state, classical = None, {}
    elif exp.adversary == ADV_KEEP_STATE:
        cert = rng.integers(0, 2, size=lam, dtype=np.uint8)
        out_state, classical = register, {"masked_bit": payload["masked_bit"]}
    elif exp.adversary == ADV_BASIS_INFORMED:
        leaked = payload["theta"]
        bases = ["Z" if t == 0 else "X" for t in leaked]
        outcomes, _ = measure(register, list(range(lam)), bases, rng)
        recovered = payload["masked_bit"] ^ int(masked_parity(leaked, outcomes))
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
            y = int_to_bits(y_int, lam)
            theta = int_to_bits(th_int, lam)
            masked = int(b) ^ int(masked_parity(theta, y))
            if exp.adversary == ADV_HONEST_DELETER:
                # always accepted, empty output
                rho[1, 1] += weight
            elif exp.adversary == ADV_BASIS_INFORMED:
                recovered = masked ^ int(masked_parity(theta, y))  # = b exactly
                rho[1 + recovered, 1 + recovered] += weight
            else:
                raise ValueError("exact mode supports the deterministic adversaries only")
    return rho


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
    halfwidth = float(np.sqrt(np.log(2 / 0.05) / (2 * trials)))
    return TdEstimate(tv, exact=False, halfwidth=halfwidth, trials=trials)


def keep_state_acceptance(lam: int, trials: int, rng: np.random.Generator) -> float:
    """Post-selection rate of the keep-the-state adversary; analytically
    the average of 2^-wt(theta), i.e. (3/4)^lambda."""
    exp = DeletionExperiment(lam, Z_PLAIN, ADV_KEEP_STATE)
    hits = sum(run_deletion_experiment(exp, 0, rng).accepted for _ in range(trials))
    return hits / trials


__all__ = [
    "ADV_BASIS_INFORMED",
    "ADV_HONEST_DELETER",
    "ADV_KEEP_STATE",
    "CommitBlock",
    "DeletionExperiment",
    "DeletionOutcome",
    "SplitOutcome",
    "StrawmanKey",
    "StrawmanParams",
    "StrawmanProof",
    "TdEstimate",
    "Z_PLAIN",
    "Z_THETA_LEAKING",
    "check_deletion_cert",
    "commit_bit",
    "commit_bits",
    "deletion_cert_for_block",
    "derived_prove",
    "derived_soundness_adversary",
    "derived_verify",
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
