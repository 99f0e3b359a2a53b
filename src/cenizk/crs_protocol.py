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

The outer-verifier bit and the signature-test bit are each measured
with `state.measure_flag`, which is exactly appending a flag qubit,
XORing the oracle into it, measuring it in Z and dropping it, done in
one pass. Outer proofs and signatures go into the contiguous P||S
register through one oracle.

A term's P||S value is a pure function of z and the prover key, so the
key memoises it in one memo per CrsParams, built once with its PRF and
signature chain: proving fills it, certification's signature test and
uncompute read it, and a z the prover never produced (a forged, cloned
or Z-measured term, or any z under a key rebuilt from its wire payload)
is computed on first use and stored. It is not in the wire payload.

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

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from . import rng as rng_mod
from . import wire
from .bits import as_bit_array, bit_array, bits_to_int, check_deletion_cert, int_array, int_to_bits, masked_parity
from .bits import pack_rows
from .crs_nizk import (
    TOY_PROOF_BITS,
    TOY_STATEMENT_BITS,
    CompiledProof,
    CompiledSpec,
    ToyCrs,
    compiled_prove,
    compiled_setup,
    compiled_verify,
    toy_encode,
    toy_prove,
    toy_setup,
)
from .graphs import CycleWitness, Digraph
from .hbg import HbgCommitment
from .state import (
    Bb84Descriptor,
    SparseState,
    append_register,
    apply_oracle,
    measure,
    measure_flag,
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
    sig_width: int = 16  # OWF output bits per encoding position
    ell: ClassVar[int] = TOY_PROOF_BITS
    preimage_bits: ClassVar[int] = 32

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
    """The prover's classical revocation key. `_ps_memo` maps CrsParams
    to this key's memo z -> P||S value, a cache that lives and dies with
    the key and is not in the wire payload."""

    theta: np.ndarray  # 2*ell*lam bits
    k0: np.ndarray
    k1: np.ndarray
    crs_out: ToyCrs
    y: np.ndarray
    prfk: bytes
    preimages: np.ndarray  # (r_qubits, 2) uint64 one-time preimages
    _ps_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)


# ---------------------------------------------------------------------
# pads
# ---------------------------------------------------------------------


def pad_half(theta: np.ndarray, z: np.ndarray, which: int, ell: int, lam: int) -> np.ndarray:
    """Bit i of the result: XOR of z over the computational-basis
    positions of block i (first ell blocks for which=0, next ell for
    which=1)."""
    rows = slice(0, ell) if which == 0 else slice(ell, 2 * ell)
    theta = as_bit_array(theta).reshape(2 * ell, lam)[rows]
    return masked_parity(pack_rows(theta), pack_rows(as_bit_array(z).reshape(2 * ell, lam)[rows]))


@functools.cache
def _pad_table(ell: int, lam: int) -> list[int]:
    """One half's pad indexed by its ell*lam masked bits (z & ~theta):
    bit i, most significant first, is the parity of block i's lam bits.
    Built on first use; 4,096 entries at ell=4, lam=3."""
    # every masked value as ell words of lam bits, block 0 most significant;
    # the mask is already applied, so no bit is a Hadamard position
    blocks = np.arange(ell - 1, -1, -1)
    words = (np.arange(1 << (ell * lam))[:, None] >> (lam * blocks)) & ((1 << lam) - 1)
    return (masked_parity(np.zeros_like(words), words) @ (1 << blocks)).tolist()


# ---------------------------------------------------------------------
# opaque primitives: PRF mask and one-time signature chain
# ---------------------------------------------------------------------


def _prf_mask(prfk: bytes, width: int) -> Callable[[int], int]:
    """z -> F_prfk(z), `width` bits. The keyed blake2b is set up once and
    copied per z, which gives the digest of blake2b(z, key=prfk)."""
    low = (1 << width) - 1
    keyed = hashlib.blake2b(key=prfk, digest_size=16)

    def prf(z_int: int) -> int:
        h = keyed.copy()
        h.update(z_int.to_bytes(16, "big"))
        return int.from_bytes(h.digest(), "big") & low

    return prf


_OWF_HASH = hashlib.blake2b(digest_size=8, person=b"lamport-owf")


def _owf_int(preimage: int, sig_width: int) -> int:
    """The sig_width-bit OWF image of a 64-bit preimage. The personalised
    blake2b is set up once and copied per preimage."""
    h = _OWF_HASH.copy()
    h.update(int(preimage).to_bytes(8, "big"))
    return int.from_bytes(h.digest(), "big") & ((1 << sig_width) - 1)


_SIG_CHUNK = 8  # z bits per lookup table


def _sig_lookup(params: CrsParams, preimages: np.ndarray):
    """z -> signature chain of z under the (r_qubits, 2) preimages: chunk
    i, sig_width bits with position 0 most significant, is table[i][z_i].

    The chain is base ^ (XOR of delta_i over the positions where z_i = 1),
    base holding every table[i][0] and delta_i the difference of
    position i's two images. The deltas are folded into one table per 8
    bits of z (base into the lowest), so a term costs one lookup per 8
    bits of z. Built once per key and CrsParams, with its memo."""
    pre = np.asarray(preimages, dtype=np.uint64).reshape(-1, 2).tolist()
    n, w = len(pre), params.sig_width
    # both OWF images of every encoding position: table[i][b] signs z_i = b
    table = [[_owf_int(p, w) for p in pair] for pair in pre]
    base = 0
    # deltas by bit of the integer z, least significant first
    deltas = []
    for i, (img0, img1) in enumerate(table):
        base |= img0 << ((n - 1 - i) * w)
        deltas.append((img0 ^ img1) << ((n - 1 - i) * w))
    deltas.reverse()
    chunks = []
    for lo in range(0, n, _SIG_CHUNK):
        folded = [0]
        for d in deltas[lo : lo + _SIG_CHUNK]:
            folded += [f ^ d for f in folded]
        chunks.append(folded)
    chunks[0] = [f ^ base for f in chunks[0]]
    low_mask = (1 << _SIG_CHUNK) - 1

    def sig(z: int) -> int:
        out = 0
        for folded in chunks:
            out ^= folded[z & low_mask]
            z >>= _SIG_CHUNK
        return out

    return sig


# ---------------------------------------------------------------------
# outer proof lane
# ---------------------------------------------------------------------

# toy-code image: proof value -> statement value
_TOY_ENCODE_TABLE = tuple(
    bits_to_int(toy_encode(int_to_bits(w, TOY_PROOF_BITS))) for w in range(1 << TOY_PROOF_BITS)
)


def _outer_verify(params: CrsParams, x: np.ndarray, ct0: np.ndarray, ct1: np.ndarray) -> Callable[[int], int]:
    """The toy outer-verify oracle on R||P values for one (x, ct) context.
    The outer proof for term z is (omega ^ mask_z) || mask_z with mask_z =
    F_prfk(z); the oracle unmasks it and evaluates the OR statement, its
    only evaluation in toy mode, with the pads read from `_pad_table`.
    Witness-exhibiting, hence perfectly sound."""
    ell, half = params.ell, params.ell * params.lam
    half_mask, k_mask = (1 << half) - 1, (1 << ell) - 1
    width, w = params.proof_width, params.witness_bits
    w_mask = (1 << w) - 1
    pad, encode = _pad_table(ell, params.lam), _TOY_ENCODE_TABLE
    x_int, ct0_int, ct1_int = bits_to_int(x), bits_to_int(ct0), bits_to_int(ct1)

    def verify(zp: int) -> int:
        # omega = theta || k0 || k1 is the XOR of the proof's halves;
        # the bits of z outside theta index the pads
        omega = ((zp >> w) ^ zp) & w_mask
        free = (zp >> width) & ~(omega >> (2 * ell))
        if encode[ct0_int ^ ((omega >> ell) & k_mask) ^ pad[(free >> half) & half_mask]] == x_int:
            return 1
        return int(encode[ct1_int ^ (omega & k_mask) ^ pad[free & half_mask]] == x_int)

    return verify


class _PsMemo(dict):
    """One key's z -> P||S value at one CrsParams; `fill` computes a miss."""

    __slots__ = ("fill",)

    def __missing__(self, z_int: int) -> int:
        value = self[z_int] = self.fill(z_int)
        return value


def _ps_memo(params: CrsParams, key: CrsProverKey) -> _PsMemo:
    """The key's memo for params, made on first use with `fill` bound to
    z -> (omega ^ mask_z) || mask_z || sig(z); its getitem is the P||S oracle."""
    memo = key._ps_memo.get(params)
    if memo is None:
        w, sig_bits = params.witness_bits, params.sig_bits
        top, spread = _omega_int(key, params) << (w + sig_bits), (1 << w) | 1
        prf, sig = _prf_mask(key.prfk, w), _sig_lookup(params, key.preimages)
        memo = key._ps_memo[params] = _PsMemo()
        # (omega ^ mask) || mask is (omega << w) ^ mask * (2^w + 1)
        memo.fill = lambda z_int: top ^ ((prf(z_int) * spread) << sig_bits) ^ sig(z_int)
    return memo


def _omega_int(key: CrsProverKey, params: CrsParams) -> int:
    # omega_out = theta || k0 || k1
    ell = params.ell
    return (bits_to_int(key.theta) << (2 * ell)) | (bits_to_int(key.k0) << ell) | bits_to_int(key.k1)


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
    y, theta = rng_mod.bits(rng, n_r, count=2)
    pi_in = toy_prove(crs.crs_in, x, witness)
    k0, k1 = rng_mod.bits(rng, params.ell, count=2)
    ct0 = pi_in ^ pad_half(theta, y, 0, params.ell, params.lam) ^ k0
    ct1 = pad_half(theta, y, 1, params.ell, params.lam) ^ k1

    prfk = rng.integers(0, 256, size=16, dtype=np.uint8).tobytes()
    preimages = rng.integers(0, 1 << params.preimage_bits, size=(n_r, 2), dtype=np.uint64)
    key = CrsProverKey(theta, k0, k1, crs.crs_out, y, prfk, preimages)

    state = append_register(prep_bb84(Bb84Descriptor(y, theta)), params.proof_width + params.sig_bits)
    state = _attach_functional_registers(params, state, key, params.registers())
    return CrsProofState(state, ct0, ct1), key


def _attach_functional_registers(
    params: CrsParams, state: SparseState, key: CrsProverKey, regs: dict[str, list[int]]
) -> SparseState:
    """XOR outer proofs and signatures into regs' P and S with one oracle
    on P||S; an involution, so certification reuses it verbatim to
    uncompute."""
    return apply_oracle(state, regs["R"], regs["P"] + regs["S"], _ps_memo(params, key).__getitem__)


def _holds_proof_state(params: CrsParams, sigma) -> bool:
    """sigma.state is a SparseState of total_qubits qubits: the one check
    on a proof state handed in from outside."""
    state = getattr(sigma, "state", None)
    return isinstance(state, SparseState) and state.num_qubits == params.total_qubits


def crs_verify(
    params: CrsParams,
    crs: CrsNizkCrs,
    x: np.ndarray,
    sigma: CrsProofState,
    rng: np.random.Generator,
) -> tuple[int, CrsProofState]:
    """Oracle the outer verifier into a fresh register, measure it, and
    hand back the post-measurement state either way (the rejecting
    branch is kept for diagnostics). A malformed proof or statement
    rejects with sigma handed back and no draw: x must hold
    TOY_STATEMENT_BITS bits and ct0 and ct1 ell bits each (`bit_array`),
    and sigma must hold a proof state (`_holds_proof_state`)."""
    if not (
        bit_array(x, TOY_STATEMENT_BITS)
        and all(bit_array(getattr(sigma, ct, None), params.ell) for ct in ("ct0", "ct1"))
        and _holds_proof_state(params, sigma)
    ):
        return 0, sigma
    regs = params.registers()
    (_, rejected), (prob1, accepted) = _verify_flag(params, x, sigma.state, sigma.ct0, sigma.ct1, regs)
    if rng.random() < prob1:
        return 1, CrsProofState(accepted, sigma.ct0, sigma.ct1)
    return 0, CrsProofState(rejected, sigma.ct0, sigma.ct1)


def crs_verify_prob(params: CrsParams, x: np.ndarray, sigma: CrsProofState) -> float:
    """Exact acceptance probability (the audit lane of verification)."""
    return _verify_flag(params, x, sigma.state, sigma.ct0, sigma.ct1, params.registers())[1][0]


def _verify_flag(
    params: CrsParams, x: np.ndarray, state: SparseState, ct0: np.ndarray, ct1: np.ndarray, regs: dict
):
    """Both branches of the outer-verifier flag on regs' R and P:
    ((prob, state) for reject, (prob, state) for accept)."""
    return measure_flag(state, regs["R"] + regs["P"], _outer_verify(params, x, ct0, ct1))


@dataclass(frozen=True)
class CertAudit:
    """Step-by-step record of one certification run."""

    sig_test_prob: float
    post_uncompute: Optional[SparseState]
    cert_bits: Optional[np.ndarray]
    accepted: bool


def cert_uncompute(params: CrsParams, key: CrsProverKey, sigma: CrsProofState) -> SparseState:
    """Uncompute outer proofs and signatures from the recorded key; on an
    undisturbed proof this returns exactly the BB84 state with zeroed
    P and S registers."""
    return _attach_functional_registers(params, sigma.state, key, params.registers())


def crs_cert(params: CrsParams, key: CrsProverKey, returned: CrsProofState, rng: np.random.Generator) -> bool:
    """Signature test, uncompute, Hadamard measurement, y comparison. A
    returned object that does not hold a proof state (`_holds_proof_state`)
    rejects with no draw; a malformed key raises ValueError first (`_require_key`)."""
    _require_key(params, key)
    if not _holds_proof_state(params, returned):
        return False
    return _certify(params, key, returned.state, params.registers(), rng).accepted


def _require_key(params: CrsParams, key: CrsProverKey) -> None:
    """ValueError naming every malformed field of a prover key: theta and
    y must be r_qubits bits and k0 and k1 ell bits (`bit_array`),
    preimages an (r_qubits, 2) integer array, prfk 16 bytes; a missing field is malformed."""
    theta, k0, k1, y, prfk, pre = (getattr(key, f, None) for f in ("theta", "k0", "k1", "y", "prfk", "preimages"))
    fields = {
        "theta": bit_array(theta, params.r_qubits),
        "k0": bit_array(k0, params.ell),
        "k1": bit_array(k1, params.ell),
        "y": bit_array(y, params.r_qubits),
        "prfk": isinstance(prfk, bytes) and len(prfk) == 16,
        "preimages": int_array(pre) and pre.shape == (params.r_qubits, 2),
    }
    bad = [name for name, ok in fields.items() if not ok]
    if bad:
        raise ValueError(f"malformed prover key field(s): {', '.join(bad)}")


def _certify(
    params: CrsParams, key: CrsProverKey, state: SparseState, regs: dict[str, list[int]], rng: np.random.Generator
) -> CertAudit:
    """crs_cert on the registers regs of state (the proof's own, or one
    half of a clone). The signature test compares S with the low bits of R's P||S value."""
    memo, width = _ps_memo(params, key), params.sig_bits
    mask = (1 << width) - 1
    _, (prob, state) = measure_flag(
        state, regs["R"] + regs["S"], lambda zs: int((zs & mask) == (memo[zs >> width] & mask))
    )
    if state is None:
        return CertAudit(0.0, None, None, False)
    state = _attach_functional_registers(params, state, key, regs)
    cert_bits, _ = measure(state, regs["R"], ["X"] * len(regs["R"]), rng)
    return CertAudit(prob, state, cert_bits, check_deletion_cert(cert_bits, key.y, key.theta))


def cert_match_probability(key: CrsProverKey, state: SparseState) -> float:
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
    _, (prob1, _) = _verify_flag(params, x, clone.state, clone.ct0, clone.ct1, regs)
    # one draw, outcome 1 below P[1], as a Z measurement of the flag
    return int(rng.random() < prob1)


def cert_original_after_clone(
    params: CrsParams,
    key: CrsProverKey,
    clone: CloneResult,
    rng: np.random.Generator,
) -> bool:
    """Certification of the original half while the twin is withheld."""
    return _certify(params, key, clone.state, clone.original, rng).accepted


# ---------------------------------------------------------------------
# classical dry-run mode (compiled inner NIZK, single sampled z)
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class DryRunRecord:
    ell: int
    ct0: np.ndarray
    ct1: np.ndarray
    checks: dict[str, bool]


def _compiled_proof_bits(proof) -> np.ndarray:
    payload = {
        "com": proof.com.data,
        "I": np.flatnonzero(proof.opened),
        "r": proof.r_bg_I,
        "op": wire.opening_payload(proof.opening),
        "pi": wire.hbproof_payload(proof.pi_hb),
    }
    raw = wire.encode(payload)
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).astype(np.uint8)


def _opened_from_indices(I, total_bits: int) -> np.ndarray:
    """The opened mask of a wire index list: ValueError unless I is a flat,
    strictly increasing integer array inside [0, total_bits)."""
    if not int_array(I) or I.ndim != 1 or (len(I) and ((I[1:] <= I[:-1]).any() or I[0] < 0 or I[-1] >= total_bits)):
        raise ValueError("opened positions must be strictly increasing inside the hidden string")
    opened = np.zeros(total_bits, dtype=bool)
    opened[I] = True
    return opened


def _compiled_proof_from_bits(bits: np.ndarray, total_bits: int):
    try:
        raw = np.packbits(bits).tobytes()
        payload = wire.decode(raw)
        return CompiledProof(
            HbgCommitment(payload["com"]),
            _opened_from_indices(payload["I"], total_bits),
            payload["r"],
            wire.opening_from_payload(payload["op"]),
            wire.hbproof_from_payload(payload["pi"]),
        )
    except (wire.WireError, KeyError, TypeError, ValueError):
        return None


def _lamport_sign(pre, z) -> list[int]:
    """The signature of z: chunk i is the preimage pre[i][z_i]."""
    return [pre[i][b] for i, b in enumerate(z)]


def _dry_inner_verify(crs_in, x, candidate_bits) -> int:
    # crs_in here is a (CompiledSpec, CompiledCrs) pair; see crs_setup_dry
    spec, crs = crs_in
    proof = _compiled_proof_from_bits(as_bit_array(candidate_bits), spec.hb.total_bits)
    if proof is None:
        return 0
    return compiled_verify(spec, crs, x, proof)


def crs_setup_dry(spec: CompiledSpec, rng: np.random.Generator) -> CrsNizkCrs:
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

    y, theta, free = rng_mod.bits(rng, n_r, count=3)
    # one support term: computational positions carry y, Hadamard free
    z = np.where(theta == 0, y, free)

    k0, k1 = rng_mod.bits(rng, ell, count=2)
    pad0_y = pad_half(theta, y, 0, ell, lam)
    pad1_y = pad_half(theta, y, 1, ell, lam)
    ct0 = pi_bits ^ pad0_y ^ k0
    ct1 = pad1_y ^ k1

    preimages = rng.integers(0, 1 << params.preimage_bits, size=(n_r, 2), dtype=np.uint64)
    pre = preimages.tolist()
    w = params.sig_width
    z_bits = z.tolist()
    chunks = _lamport_sign(pre, z_bits)
    # the Lamport check: chunk i must hash to the image of pre[i][z_i];
    # an honest chunk is that preimage, so it is never hashed
    sig_ok = len(chunks) == len(z_bits) and all(
        c == p[b] or _owf_int(c, w) == _owf_int(p[b], w) for c, p, b in zip(chunks, pre, z_bits)
    )

    pad0_z = pad_half(theta, z, 0, ell, lam)
    pad1_z = pad_half(theta, z, 1, ell, lam)
    cand0 = ct0 ^ k0 ^ pad0_z
    checks = {
        "pad_matches_support_term": bool(np.array_equal(pad0_z, pad0_y) and np.array_equal(pad1_z, pad1_y)),
        "ct0_unmasks_to_inner_proof": bool(np.array_equal(cand0, pi_bits)),
        "inner_proof_verifies": bool(_dry_inner_verify(crs.crs_in, x, pi_bits)),
        # the OR statement over the graph itself: clause 1 only if clause 0 fails
        "or_statement_true": bool(
            _dry_inner_verify(crs.crs_in, x, cand0) or _dry_inner_verify(crs.crs_in, x, ct1 ^ k1 ^ pad1_z)
        ),
        "sig_chain_consistent": bool(sig_ok),
    }
    return DryRunRecord(ell, ct0, ct1, checks)


__all__ = [
    "CertAudit",
    "CloneResult",
    "CrsNizkCrs",
    "CrsParams",
    "CrsProofState",
    "CrsProverKey",
    "DryRunRecord",
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
    "pad_half",
    "verify_clone_half",
]
