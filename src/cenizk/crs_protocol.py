"""Certified-everlasting NIZK in the CRS model.

The inner proof is one-time-padded behind block parities of a BB84
state: bit i of pad^0 is the XOR of block i's computational-basis
values, blocks ell+1..2ell feed pad^1. The proof state attaches, in
superposition over the BB84 support, an outer proof of the OR
statement "some (theta, k0, k1) decrypts ct0 or ct1 to an accepted
inner proof" plus a one-time signature chain over the encoding
register. Verification evaluates the outer verifier into a fresh
register and measures it; certification checks the signature chain,
uncomputes proofs and signatures with the recorded PRF key, measures
the encoding register in the Hadamard basis and compares against the
recorded y wherever theta is 1.

Two execution modes:

* toy (full quantum): the inner NIZK is the 4-bit linear-code system,
  capping the encoding register at 2*ell*lambda = 16 qubits. The outer
  stand-in exhibits its witness under a PRF-derived mask: perfectly
  sound and complete, z-dependent (the encoding register stays
  genuinely entangled with the proof register), and deliberately not
  zero-knowledge, which is acceptable because this mode exercises
  soundness and revocation mechanics only.

* dry (classical): the compiled hidden-bits NIZK plays the inner role,
  a single z is sampled from the BB84 support classically, and every
  bookkeeping identity (pads, ciphertexts, OR statement, signature
  chain) is checked without any quantum state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import wire
from .bits import as_bit_array, bits_to_int, int_to_bits, masked_parity
from .crs_nizk import (
    TOY_PROOF_BITS,
    CompiledSpec,
    ToyCrs,
    compiled_prove,
    compiled_verify,
    toy_encode,
    toy_prove,
    toy_setup,
    toy_verify,
)
from .graphs import CycleWitness, Digraph
from .state import (
    Bb84Descriptor,
    SparseState,
    append_register,
    apply_oracle,
    drop_last_register,
    measure,
    prep_bb84,
    project,
)

# ---------------------------------------------------------------------
# parameters and containers
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CrsParams:
    """Toy-mode geometry. lam qubits per block, 2*ell blocks."""

    lam: int = 2
    ell: int = TOY_PROOF_BITS
    sig_width: int = 16  # OWF output bits per encoding position
    preimage_bits: int = 32
    owf_mode: str = "hash"  # "identity" is the negative-control fixture
    prf_mode: str = "hash"

    @property
    def r_qubits(self) -> int:
        return 2 * self.ell * self.lam

    @property
    def witness_bits(self) -> int:
        # omega_out = theta || k0 || k1
        return self.r_qubits + 2 * self.ell

    @property
    def proof_width(self) -> int:
        # outer proof = (omega ^ mask) || mask
        return 2 * self.witness_bits

    @property
    def sig_bits(self) -> int:
        return self.r_qubits * self.sig_width

    @property
    def total_qubits(self) -> int:
        return self.r_qubits + self.proof_width + self.sig_bits

    def registers(self) -> dict[str, list[int]]:
        r, p, s = self.r_qubits, self.proof_width, self.sig_bits
        return {
            "R": list(range(r)),
            "P": list(range(r, r + p)),
            "S": list(range(r + p, r + p + s)),
        }


@dataclass(frozen=True)
class CrsNizkCrs:
    crs_in: object  # ToyCrs (toy mode) or CompiledCrs (dry mode)
    crs_out: ToyCrs


@dataclass(frozen=True)
class CrsProofState:
    """The quantum proof: |psi> on R (x) P (x) S plus the two ciphertexts."""

    state: SparseState
    ct0: np.ndarray
    ct1: np.ndarray


@dataclass(frozen=True)
class CrsProverKey:
    theta: np.ndarray  # 2*ell*lam bits
    k0: np.ndarray
    k1: np.ndarray
    crs_out: ToyCrs
    y: np.ndarray
    prfk: bytes
    preimages: np.ndarray  # (r_qubits, 2) uint64 one-time preimages


@dataclass(frozen=True)
class OrStatement:
    x: np.ndarray
    crs_in: object
    ct0: np.ndarray
    ct1: np.ndarray
    z: np.ndarray  # the superposition term carried by this instance


# ---------------------------------------------------------------------
# pads
# ---------------------------------------------------------------------


def pad_half(theta: np.ndarray, z: np.ndarray, which: int, ell: int, lam: int) -> np.ndarray:
    """Bit i of the result: XOR of z over the computational-basis
    positions of block i (first ell blocks for which=0, next ell for
    which=1)."""
    rows = slice(0, ell) if which == 0 else slice(ell, 2 * ell)
    theta = as_bit_array(theta).reshape(2 * ell, lam)[rows]
    return masked_parity(theta, as_bit_array(z).reshape(2 * ell, lam)[rows])


def _pad_int(theta_int: int, z_int: int, which: int, ell: int, lam: int) -> int:
    # integer lane for the per-term oracles
    out = 0
    width = 2 * ell * lam
    base = which * ell
    for i in range(ell):
        shift = width - (base + i + 1) * lam
        t = (theta_int >> shift) & ((1 << lam) - 1)
        zb = (z_int >> shift) & ((1 << lam) - 1)
        out = (out << 1) | ((zb & ~t & ((1 << lam) - 1)).bit_count() & 1)
    return out


# ---------------------------------------------------------------------
# opaque primitives: PRF mask and one-time signature chain
# ---------------------------------------------------------------------


def _prf_mask_int(prfk: bytes, z_int: int, width: int, mode: str) -> int:
    if mode == "hash":
        digest = hashlib.blake2b(z_int.to_bytes(16, "big"), key=prfk, digest_size=16).digest()
        return int.from_bytes(digest, "big") & ((1 << width) - 1)
    if mode == "identity":
        return z_int & ((1 << width) - 1)
    raise ValueError(f"unknown prf mode {mode!r}")


def _owf_int(preimage: int, sig_width: int, mode: str) -> int:
    if mode == "hash":
        digest = hashlib.blake2b(
            int(preimage).to_bytes(8, "big"), digest_size=8, person=b"lamport-owf"
        ).digest()
        return int.from_bytes(digest, "big") & ((1 << sig_width) - 1)
    if mode == "identity":
        return int(preimage) & ((1 << sig_width) - 1)
    raise ValueError(f"unknown owf mode {mode!r}")


def _sig_table(params: CrsParams, preimages: np.ndarray) -> list[list[int]]:
    return [
        [_owf_int(preimages[i, b], params.sig_width, params.owf_mode) for b in (0, 1)]
        for i in range(len(preimages))
    ]


def _sig_int(z_int: int, table: list[list[int]], width: int) -> int:
    out = 0
    n = len(table)
    for i in range(n):
        bit = (z_int >> (n - 1 - i)) & 1
        out = (out << width) | table[i][bit]
    return out


# ---------------------------------------------------------------------
# OR statement and outer proof lane
# ---------------------------------------------------------------------


def build_or_statement(
    x: np.ndarray, crs_in, ct0: np.ndarray, ct1: np.ndarray, z: np.ndarray
) -> OrStatement:
    return OrStatement(as_bit_array(x), crs_in, as_bit_array(ct0), as_bit_array(ct1), as_bit_array(z))


def _inner_verify(crs_in, x: np.ndarray, candidate: np.ndarray) -> int:
    if isinstance(crs_in, ToyCrs):
        return toy_verify(crs_in, x, candidate)
    return _dry_inner_verify(crs_in, x, candidate)


def or_check(stmt: OrStatement, omega: tuple[np.ndarray, np.ndarray, np.ndarray]) -> int:
    """Evaluate the two decryption clauses with the supplied witness."""
    theta, k0, k1 = (as_bit_array(w) for w in omega)
    ell = len(stmt.ct0)
    lam = len(theta) // (2 * ell)
    cand0 = stmt.ct0 ^ k0 ^ pad_half(theta, stmt.z, 0, ell, lam)
    if _inner_verify(stmt.crs_in, stmt.x, cand0):
        return 1
    cand1 = stmt.ct1 ^ k1 ^ pad_half(theta, stmt.z, 1, ell, lam)
    return int(bool(_inner_verify(stmt.crs_in, stmt.x, cand1)))


class _ToyOuterLane:
    """Integer-lane outer prove/verify oracles for one (crs, x, ct) context.

    The outer proof for term z is (omega ^ mask_z) || mask_z with
    mask_z = F_prfk(z); verification unmasks and evaluates the OR
    statement. Witness-exhibiting, hence perfectly sound.
    """

    def __init__(self, params: CrsParams, x: np.ndarray, ct0: np.ndarray, ct1: np.ndarray):
        self.params = params
        self.x_int = bits_to_int(x)
        self.ct0_int = bits_to_int(ct0)
        self.ct1_int = bits_to_int(ct1)
        # toy-code image: proof value -> statement value
        self.encode_table = [bits_to_int(toy_encode(int_to_bits(w, TOY_PROOF_BITS))) for w in range(16)]

    def or_check_int(self, z_int: int, omega_int: int) -> int:
        p = self.params
        ell, lam = p.ell, p.lam
        theta_int = omega_int >> (2 * ell)
        k0_int = (omega_int >> ell) & ((1 << ell) - 1)
        k1_int = omega_int & ((1 << ell) - 1)
        cand0 = self.ct0_int ^ k0_int ^ _pad_int(theta_int, z_int, 0, ell, lam)
        if self.encode_table[cand0] == self.x_int:
            return 1
        cand1 = self.ct1_int ^ k1_int ^ _pad_int(theta_int, z_int, 1, ell, lam)
        return int(self.encode_table[cand1] == self.x_int)

    def prove_int(self, z_int: int, omega_int: int, prfk: bytes) -> int:
        w = self.params.witness_bits
        mask = _prf_mask_int(prfk, z_int, w, self.params.prf_mode)
        return ((omega_int ^ mask) << w) | mask

    def verify_int(self, z_int: int, pi_int: int) -> int:
        w = self.params.witness_bits
        mask = pi_int & ((1 << w) - 1)
        omega_int = (pi_int >> w) ^ mask
        return self.or_check_int(z_int, omega_int)


def _outer_verify_oracle(params: CrsParams, x: np.ndarray, ct0: np.ndarray, ct1: np.ndarray):
    """f_out: R||P value -> outer-verifier bit."""
    lane = _ToyOuterLane(params, x, ct0, ct1)
    width = params.proof_width
    mask = (1 << width) - 1
    return lambda zp: lane.verify_int(zp >> width, zp & mask)


def _sig_test_oracle(params: CrsParams, key: CrsProverKey):
    """f_test: R||S value -> 1 iff S holds the signature chain of R."""
    table = _sig_table(params, key.preimages)
    width = params.sig_bits
    mask = (1 << width) - 1
    return lambda zs: int((zs & mask) == _sig_int(zs >> width, table, params.sig_width))


def _oracle_into_flag(state: SparseState, in_reg: list[int], f) -> tuple[SparseState, int]:
    """Append a one-qubit flag register and XOR f(in_reg) into it."""
    flag = state.num_qubits
    return apply_oracle(append_register(state, 1), in_reg, [flag], f), flag


def _omega_int(key: CrsProverKey, params: CrsParams) -> int:
    # omega_out = theta || k0 || k1
    return (
        (bits_to_int(key.theta) << (2 * params.ell))
        | (bits_to_int(key.k0) << params.ell)
        | bits_to_int(key.k1)
    )


# ---------------------------------------------------------------------
# Setup / P / V / Cert (toy quantum mode)
# ---------------------------------------------------------------------


def crs_setup(rng: np.random.Generator) -> CrsNizkCrs:
    return CrsNizkCrs(toy_setup(rng), toy_setup(rng))


def crs_prove(
    params: CrsParams,
    crs: CrsNizkCrs,
    x: np.ndarray,
    witness: np.ndarray,
    rng: np.random.Generator,
) -> tuple[CrsProofState, CrsProverKey]:
    x = as_bit_array(x)
    n_r = params.r_qubits
    y = rng.integers(0, 2, size=n_r, dtype=np.uint8)
    theta = rng.integers(0, 2, size=n_r, dtype=np.uint8)
    pi_in = toy_prove(crs.crs_in, x, witness)
    k0 = rng.integers(0, 2, size=params.ell, dtype=np.uint8)
    k1 = rng.integers(0, 2, size=params.ell, dtype=np.uint8)
    ct0 = pi_in ^ pad_half(theta, y, 0, params.ell, params.lam) ^ k0
    ct1 = pad_half(theta, y, 1, params.ell, params.lam) ^ k1

    prfk = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
    preimages = rng.integers(0, 1 << params.preimage_bits, size=(n_r, 2), dtype=np.uint64)
    key = CrsProverKey(theta, k0, k1, crs.crs_out, y, prfk, preimages)

    state = prep_bb84(Bb84Descriptor(y, theta))
    state = append_register(state, params.proof_width)
    state = append_register(state, params.sig_bits)
    state = _attach_functional_registers(params, state, key, x, ct0, ct1)
    return CrsProofState(state, ct0, ct1), key


def _attach_functional_registers(
    params: CrsParams,
    state: SparseState,
    key: CrsProverKey,
    x: np.ndarray,
    ct0: np.ndarray,
    ct1: np.ndarray,
    regs: Optional[dict[str, list[int]]] = None,
) -> SparseState:
    """XOR outer proofs and signatures into P and S (default: the proof's
    own registers); an involution, so certification reuses it verbatim
    to uncompute."""
    regs = regs or params.registers()
    lane = _ToyOuterLane(params, x, ct0, ct1)
    omega = _omega_int(key, params)
    table = _sig_table(params, key.preimages)
    state = apply_oracle(
        state, regs["R"], regs["P"], lambda z: lane.prove_int(z, omega, key.prfk)
    )
    state = apply_oracle(
        state, regs["R"], regs["S"], lambda z: _sig_int(z, table, params.sig_width)
    )
    return state


def crs_verify(
    params: CrsParams,
    crs: CrsNizkCrs,
    x: np.ndarray,
    sigma: CrsProofState,
    rng: np.random.Generator,
) -> tuple[int, CrsProofState]:
    """Oracle the outer verifier into a fresh register, measure it, and
    hand back the post-measurement state either way (the rejecting
    branch is kept for diagnostics)."""
    prob1, accepted, rejected = _verify_branches(params, x, sigma)
    if rng.random() < prob1:
        return 1, CrsProofState(accepted, sigma.ct0, sigma.ct1)
    return 0, CrsProofState(rejected, sigma.ct0, sigma.ct1)


def crs_verify_prob(params: CrsParams, x: np.ndarray, sigma: CrsProofState) -> float:
    """Exact acceptance probability (the audit lane of verification)."""
    return _verify_branches(params, x, sigma)[0]


def _verify_branches(params: CrsParams, x: np.ndarray, sigma: CrsProofState):
    regs = params.registers()
    f_out = _outer_verify_oracle(params, x, sigma.ct0, sigma.ct1)
    state, flag = _oracle_into_flag(sigma.state, regs["R"] + regs["P"], f_out)
    prob1, acc = project(state, flag, "Z", 1)
    prob0, rej = project(state, flag, "Z", 0)
    accepted = drop_last_register(acc, 1) if acc is not None else None
    rejected = drop_last_register(rej, 1) if rej is not None else None
    return prob1, accepted, rejected


@dataclass(frozen=True)
class CertAudit:
    """Step-by-step record of one certification run."""

    sig_test_prob: float
    post_uncompute: Optional[SparseState]
    cert_bits: Optional[np.ndarray]
    accepted: bool


def cert_uncompute(
    params: CrsParams, key: CrsProverKey, x: np.ndarray, sigma: CrsProofState
) -> SparseState:
    """Uncompute outer proofs and signatures from the recorded key; on an
    undisturbed proof this returns exactly the BB84 state with zeroed
    P and S registers."""
    return _attach_functional_registers(params, sigma.state, key, x, sigma.ct0, sigma.ct1)


def crs_cert(
    params: CrsParams,
    key: CrsProverKey,
    x: np.ndarray,
    returned: CrsProofState,
    rng: np.random.Generator,
    audit: bool = False,
):
    """Signature test, uncompute, Hadamard measurement, y comparison."""
    result = _certify(params, key, x, returned.state, returned.ct0, returned.ct1, params.registers(), rng)
    return result if audit else result.accepted


def _certify(
    params: CrsParams,
    key: CrsProverKey,
    x: np.ndarray,
    state: SparseState,
    ct0: np.ndarray,
    ct1: np.ndarray,
    regs: dict[str, list[int]],
    rng: np.random.Generator,
) -> CertAudit:
    """crs_cert on the registers regs of state (the proof's own, or one
    half of a clone)."""
    state, flag = _oracle_into_flag(state, regs["R"] + regs["S"], _sig_test_oracle(params, key))
    prob, state = project(state, flag, "Z", 1)
    if state is None:
        return CertAudit(0.0, None, None, False)
    state = drop_last_register(state, 1)
    state = _attach_functional_registers(params, state, key, x, ct0, ct1, regs)
    cert_bits, _ = measure(state, regs["R"], ["X"] * len(regs["R"]), rng)
    ok = bool(np.all(cert_bits[key.theta == 1] == key.y[key.theta == 1]))
    return CertAudit(prob, state, cert_bits, ok)


def cert_match_probability(params: CrsParams, key: CrsProverKey, state: SparseState) -> float:
    """Exact probability that the Hadamard measurement of R matches the
    recorded y at every theta=1 position (audit lane for the uncomputed
    state)."""
    prob = 1.0
    current = state
    for j in np.flatnonzero(key.theta == 1):
        p, current = project(current, int(j), "X", int(key.y[j]))
        if current is None:
            return 0.0
        prob *= p
    return prob


# ---------------------------------------------------------------------
# cloning
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CloneResult:
    state: SparseState
    ct0: np.ndarray
    ct1: np.ndarray
    original: dict[str, list[int]]
    copy: dict[str, list[int]]


def clone_attack(params: CrsParams, sigma: CrsProofState) -> CloneResult:
    """Computational-basis copy of every register into a fresh twin.

    Verification reads only the computational basis, so both halves
    pass it; the Hadamard certification of either half now fails with
    overwhelming probability because the twin keeps a computational
    record of the encoding register.
    """
    n = params.total_qubits
    state = append_register(sigma.state, n)
    state = apply_oracle(state, list(range(n)), list(range(n, 2 * n)), lambda v: v)
    regs = params.registers()
    copy_regs = {name: [q + n for q in qs] for name, qs in regs.items()}
    return CloneResult(state, sigma.ct0, sigma.ct1, regs, copy_regs)


def verify_clone_half(
    params: CrsParams,
    x: np.ndarray,
    clone: CloneResult,
    half: str,
    rng: np.random.Generator,
) -> int:
    """Run outer verification against one clone half's R and P registers."""
    regs = clone.original if half == "original" else clone.copy
    f_out = _outer_verify_oracle(params, x, clone.ct0, clone.ct1)
    state, flag = _oracle_into_flag(clone.state, regs["R"] + regs["P"], f_out)
    outcome, _ = measure(state, [flag], ["Z"], rng)
    return int(outcome[0])


def cert_original_after_clone(
    params: CrsParams,
    key: CrsProverKey,
    x: np.ndarray,
    clone: CloneResult,
    rng: np.random.Generator,
) -> bool:
    """Certification of the original half while the twin is withheld."""
    return _certify(params, key, x, clone.state, clone.ct0, clone.ct1, clone.original, rng).accepted


# ---------------------------------------------------------------------
# classical dry-run mode (compiled inner NIZK, single sampled z)
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class DryRunRecord:
    ell: int
    z: np.ndarray
    ct0: np.ndarray
    ct1: np.ndarray
    checks: dict[str, bool]


def _compiled_proof_bits(proof) -> np.ndarray:
    payload = {
        "com": proof.com.data,
        "I": proof.I,
        "r": proof.r_bg_I,
        "op": wire.opening_payload(proof.opening),
        "pi": wire.hbproof_payload(proof.pi_hb),
    }
    raw = wire.encode(payload)
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).astype(np.uint8)


def _compiled_proof_from_bits(bits: np.ndarray):
    from .crs_nizk import CompiledProof
    from .hbg import HbgCommitment

    try:
        raw = np.packbits(bits).tobytes()
        payload = wire.decode(raw)
        return CompiledProof(
            HbgCommitment(payload["com"]),
            np.asarray(payload["I"], dtype=np.int64),
            np.asarray(payload["r"], dtype=np.uint8),
            wire.opening_from_payload(payload["op"]),
            wire.hbproof_from_payload(payload["pi"]),
        )
    except (wire.WireError, KeyError, TypeError, ValueError):
        return None


def _sig_chain_ok(chunks, table: list[list[int]], z) -> bool:
    """Certifier-side chain check: every chunk must be the OWF image of
    the preimage the z bit selects."""
    return all(chunks[i] == table[i][int(z[i])] for i in range(len(chunks)))


def _dry_inner_verify(crs_in, x, candidate_bits) -> int:
    # crs_in here is a (CompiledSpec, CompiledCrs) pair; see crs_setup_dry
    spec, crs = crs_in
    proof = _compiled_proof_from_bits(as_bit_array(candidate_bits))
    if proof is None:
        return 0
    return compiled_verify(spec, crs, x, proof)


def crs_setup_dry(spec: CompiledSpec, rng: np.random.Generator) -> CrsNizkCrs:
    from .crs_nizk import compiled_setup

    return CrsNizkCrs((spec, compiled_setup(spec, rng)), toy_setup(rng))


def crs_prove_dry(
    params: CrsParams,
    crs: CrsNizkCrs,
    x: Digraph,
    witness: CycleWitness,
    rng: np.random.Generator,
) -> DryRunRecord:
    """Classical rehearsal of the prover: one z sampled from the BB84
    support, every bookkeeping identity checked in the clear."""
    spec, inner_crs = crs.crs_in
    proof = compiled_prove(spec, inner_crs, x, witness, rng)
    pi_bits = _compiled_proof_bits(proof)
    ell = len(pi_bits)
    lam = params.lam
    n_r = 2 * ell * lam

    y = rng.integers(0, 2, size=n_r, dtype=np.uint8)
    theta = rng.integers(0, 2, size=n_r, dtype=np.uint8)
    # one support term: computational positions carry y, Hadamard free
    z = np.where(theta == 0, y, rng.integers(0, 2, size=n_r, dtype=np.uint8)).astype(np.uint8)

    k0 = rng.integers(0, 2, size=ell, dtype=np.uint8)
    k1 = rng.integers(0, 2, size=ell, dtype=np.uint8)
    pad0_y = pad_half(theta, y, 0, ell, lam)
    pad1_y = pad_half(theta, y, 1, ell, lam)
    ct0 = pi_bits ^ pad0_y ^ k0
    ct1 = pad1_y ^ k1

    preimages = rng.integers(0, 1 << params.preimage_bits, size=(n_r, 2), dtype=np.uint64)
    table = _sig_table(params, preimages)
    # signature chain, chunk-wise: chunk i is the OWF image of the
    # preimage selected by z_i
    chunks = [table[i][int(z[i])] for i in range(n_r)]
    sig_ok = _sig_chain_ok(chunks, table, z)
    # binding signal: flipping one z bit breaks the chain (barring an
    # OWF output collision at that position)
    z_flip = z.copy()
    z_flip[0] ^= 1
    flip_detected = not _sig_chain_ok(chunks, table, z_flip)
    images_differ = table[0][0] != table[0][1]
    sig_ok = sig_ok and (flip_detected or not images_differ)

    stmt = OrStatement(x, crs.crs_in, ct0, ct1, z)  # dry statements carry the graph itself
    checks = {
        "pad_matches_support_term": bool(
            np.array_equal(pad_half(theta, z, 0, ell, lam), pad0_y)
            and np.array_equal(pad_half(theta, z, 1, ell, lam), pad1_y)
        ),
        "ct0_unmasks_to_inner_proof": bool(
            np.array_equal(ct0 ^ k0 ^ pad_half(theta, z, 0, ell, lam), pi_bits)
        ),
        "inner_proof_verifies": bool(_dry_inner_verify(crs.crs_in, x, pi_bits)),
        "or_statement_true": bool(or_check(stmt, (theta, k0, k1))),
        "sig_chain_consistent": bool(sig_ok),
    }
    return DryRunRecord(ell, z, ct0, ct1, checks)


__all__ = [
    "CertAudit",
    "CloneResult",
    "CrsNizkCrs",
    "CrsParams",
    "CrsProofState",
    "CrsProverKey",
    "DryRunRecord",
    "OrStatement",
    "build_or_statement",
    "cert_match_probability",
    "cert_original_after_clone",
    "cert_uncompute",
    "clone_attack",
    "crs_cert",
    "crs_prove",
    "crs_prove_dry",
    "crs_setup",
    "crs_setup_dry",
    "crs_verify",
    "crs_verify_prob",
    "or_check",
    "pad_half",
    "verify_clone_half",
]
