"""CRS-model protocol tests: pads, superposition mechanics, the
verify/certify pipeline, cloning, and the classical dry run."""

import math

import numpy as np
import pytest

from cenizk.bits import bits_to_int, int_to_bits, masked_parity
from cenizk.crs_nizk import CompiledSpec, toy_encode
from cenizk.crs_protocol import (
    CrsParams,
    CrsProofState,
    OrStatement,
    build_or_statement,
    cert_match_probability,
    cert_original_after_clone,
    cert_uncompute,
    clone_attack,
    crs_cert,
    crs_prove,
    crs_prove_dry,
    crs_setup,
    crs_setup_dry,
    crs_verify,
    crs_verify_prob,
    or_check,
    pad_half,
    verify_clone_half,
)
from cenizk.graphs import canonical_cycle, complete_digraph
from cenizk.hbnizk import HbParams
from cenizk.rng import stream
from cenizk.state import Bb84Descriptor, append_register, prep_bb84

PARAMS = CrsParams()
WITNESS = np.array([1, 0, 1, 1], dtype=np.uint8)
STATEMENT = toy_encode(WITNESS)


def support_terms(theta, y):
    """Enumerate the BB84 support (z agrees with y on computational
    positions, free on Hadamard positions)."""
    had = np.flatnonzero(theta == 1)
    base = y * (theta == 0)
    for assign in range(1 << len(had)):
        z = base.copy()
        for pos, j in enumerate(had):
            z[j] = (assign >> (len(had) - 1 - pos)) & 1
        yield z


class TestPad:
    def test_direct_formula(self):
        # one block slice, theta=00, z=10 -> bit 1 xor 0 = 1
        assert masked_parity(np.array([0, 0]), np.array([1, 0])) == 1

    def test_empty_xor(self):
        assert masked_parity(np.array([1, 1]), np.array([1, 0])) == 0

    def test_support_terms_share_the_pad_exhaustive(self):
        # lam = 3: for every (y, theta) pair and every support term z,
        # pad(theta, z) equals pad(theta, y) on both halves
        lam, ell = 3, 1
        for y_int in range(64):
            for th_int in range(64):
                y = int_to_bits(y_int, 6)
                theta = int_to_bits(th_int, 6)
                p0 = pad_half(theta, y, 0, ell, lam)
                p1 = pad_half(theta, y, 1, ell, lam)
                for z in support_terms(theta, y):
                    assert np.array_equal(pad_half(theta, z, 0, ell, lam), p0)
                    assert np.array_equal(pad_half(theta, z, 1, ell, lam), p1)


class TestSetupProve:
    def test_independent_crs_draws_distinct(self, rng):
        crs = crs_setup(rng)
        assert crs.crs_in.tag != crs.crs_out.tag

    def test_deterministic_under_seed(self):
        a = crs_setup(stream(4, "s"))
        b = crs_setup(stream(4, "s"))
        assert a.crs_in.tag == b.crs_in.tag

    def test_support_size(self, rng):
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        assert sigma.state.num_terms() == 1 << int(key.theta.sum())

    def test_every_support_term_satisfies_clause_zero(self, rng):
        # exhaustive over the support at ell=4, lam=2
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        for z in support_terms(key.theta, key.y):
            cand = sigma.ct0 ^ key.k0 ^ pad_half(key.theta, z, 0, PARAMS.ell, PARAMS.lam)
            from cenizk.crs_nizk import toy_verify

            assert toy_verify(crs.crs_in, STATEMENT, cand) == 1

    def test_signature_register_injective_over_support(self, rng):
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        n = PARAMS.total_qubits
        sig_mask = (1 << PARAMS.sig_bits) - 1
        sigs = {}
        for k_ in sigma.state.amps:
            z = k_ >> (PARAMS.proof_width + PARAMS.sig_bits)
            sig = k_ & sig_mask
            assert sigs.setdefault(sig, z) == z  # no two z share a signature
        assert len(sigs) == sigma.state.num_terms()


class TestOrStatement:
    def _honest(self, rng):
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        z = next(iter(support_terms(key.theta, key.y)))
        stmt = build_or_statement(STATEMENT, crs.crs_in, sigma.ct0, sigma.ct1, z)
        return crs, sigma, key, stmt

    def test_honest_accepts_via_clause_zero(self, rng):
        _, _, key, stmt = self._honest(rng)
        assert or_check(stmt, (key.theta, key.k0, key.k1)) == 1

    def test_swapped_ciphertext_accepts_via_clause_one(self, rng):
        # the hybrid-style fixture: place a valid inner proof in ct1 and
        # garbage in ct0; the OR statement stays true through clause 1
        crs = crs_setup(rng)
        theta = rng.integers(0, 2, size=PARAMS.r_qubits, dtype=np.uint8)
        y = rng.integers(0, 2, size=PARAMS.r_qubits, dtype=np.uint8)
        k0 = rng.integers(0, 2, size=PARAMS.ell, dtype=np.uint8)
        k1 = rng.integers(0, 2, size=PARAMS.ell, dtype=np.uint8)
        pi_in = WITNESS
        ct1 = pi_in ^ pad_half(theta, y, 1, PARAMS.ell, PARAMS.lam) ^ k1
        ct0 = rng.integers(0, 2, size=PARAMS.ell, dtype=np.uint8)  # garbage
        z = np.where(theta == 0, y, rng.integers(0, 2, size=PARAMS.r_qubits, dtype=np.uint8))
        stmt = build_or_statement(STATEMENT, crs.crs_in, ct0, ct1, z.astype(np.uint8))
        result = or_check(stmt, (theta, k0, k1))
        assert result == 1

    def test_flipped_computational_z_bit_rejects(self, rng):
        # code soundness: flipping a computational-basis position inside
        # the first half walks the clause-0 candidate off the code while
        # clause 1 keeps hiding the zero plaintext, so the OR collapses
        crs, sigma, key, stmt = self._honest(rng)
        half = PARAMS.ell * PARAMS.lam
        comp_first = [j for j in np.flatnonzero(key.theta == 0) if j < half]
        if not comp_first:
            pytest.skip("all-Hadamard draw in the first half")
        for j in comp_first:
            z = stmt.z.copy()
            z[j] ^= 1
            flipped = OrStatement(stmt.x, stmt.crs_in, stmt.ct0, stmt.ct1, z)
            assert or_check(flipped, (key.theta, key.k0, key.k1)) == 0

    def test_flipped_second_half_bit_keeps_clause_zero(self, rng):
        # the complementary fact: second-half flips only disturb the
        # already-false clause 1, the statement stays true via clause 0
        crs, sigma, key, stmt = self._honest(rng)
        half = PARAMS.ell * PARAMS.lam
        comp_second = [j for j in np.flatnonzero(key.theta == 0) if j >= half]
        if not comp_second:
            pytest.skip("all-Hadamard draw in the second half")
        z = stmt.z.copy()
        z[comp_second[0]] ^= 1
        flipped = OrStatement(stmt.x, stmt.crs_in, stmt.ct0, stmt.ct1, z)
        assert or_check(flipped, (key.theta, key.k0, key.k1)) == 1


class TestVerify:
    def test_honest_outcome_one_exact(self, rng):
        crs = crs_setup(rng)
        sigma, _ = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        assert crs_verify_prob(PARAMS, STATEMENT, sigma) == pytest.approx(1.0)

    def test_tampered_ciphertext_outcome_zero_exact(self, rng):
        crs = crs_setup(rng)
        sigma, _ = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        bad = CrsProofState(sigma.state, sigma.ct0 ^ np.array([1, 0, 0, 0], dtype=np.uint8), sigma.ct1)
        assert crs_verify_prob(PARAMS, STATEMENT, bad) == 0.0

    def test_gentle_measurement_preserves_state(self, rng):
        crs = crs_setup(rng)
        sigma, _ = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        b, residual = crs_verify(PARAMS, crs, STATEMENT, sigma, rng)
        assert b == 1
        assert residual.state.equals(sigma.state)


class TestCert:
    def test_honest_verify_then_cert(self, rng):
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        b, residual = crs_verify(PARAMS, crs, STATEMENT, sigma, rng)
        audit = crs_cert(PARAMS, key, STATEMENT, residual, rng, audit=True)
        assert b == 1 and audit.accepted
        assert audit.sig_test_prob == pytest.approx(1.0)

    def test_uncompute_recompute_identity(self):
        # skipping verification entirely: uncompute recovers |y>^theta
        # with zeroed P and S registers, exactly
        for trial in range(15):
            rng = stream(trial, "unc")
            crs = crs_setup(rng)
            sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
            post = cert_uncompute(PARAMS, key, STATEMENT, sigma)
            expected = append_register(
                append_register(prep_bb84(Bb84Descriptor(key.y, key.theta)), PARAMS.proof_width),
                PARAMS.sig_bits,
            )
            assert post.equals(expected, tol=1e-9)
            assert cert_match_probability(PARAMS, key, post) == pytest.approx(1.0)

    def test_z_measured_adversary_passes_at_analytic_rate(self):
        """An adversary that measures the encoding register in Z before
        returning passes certification with probability 2^-wt(theta)."""
        from cenizk.state import measure

        passes = 0
        expected = 0.0
        trials = 400
        for trial in range(trials):
            rng = stream(trial, "zadv")
            crs = crs_setup(rng)
            sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
            _, collapsed = measure(
                sigma.state, list(range(PARAMS.r_qubits)), ["Z"] * PARAMS.r_qubits, rng
            )
            returned = CrsProofState(collapsed, sigma.ct0, sigma.ct1)
            passes += int(crs_cert(PARAMS, key, STATEMENT, returned, rng))
            expected += 2.0 ** (-int(key.theta.sum()))
        sigma_bound = math.sqrt(trials) * 0.5
        assert abs(passes - expected) <= 3 * sigma_bound + 1

    def test_forged_signature_register_rejected(self, rng):
        # flipping signature bits on every term leaves nothing for the
        # Test projector: certification outputs bot
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        forged_amps = {k ^ 1: a for k, a in sigma.state.amps.items()}  # flip last S bit
        from cenizk.state import SparseState

        forged = CrsProofState(
            SparseState(sigma.state.num_qubits, forged_amps), sigma.ct0, sigma.ct1
        )
        assert crs_cert(PARAMS, key, STATEMENT, forged, rng) is False

    def test_partial_forgery_is_projected_out(self, rng):
        # one forged term dies under the Test projector: the signature
        # check passes with probability exactly 1 - 1/num_terms and the
        # surviving state has one term fewer
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        terms = sigma.state.num_terms()
        amps = dict(sigma.state.amps)
        some_key = next(iter(amps))
        amps[some_key ^ 1] = amps.pop(some_key)  # corrupt one term's signature
        from cenizk.state import SparseState

        mixed = CrsProofState(SparseState(sigma.state.num_qubits, amps), sigma.ct0, sigma.ct1)
        audit = crs_cert(PARAMS, key, STATEMENT, mixed, rng, audit=True)
        assert audit.sig_test_prob == pytest.approx(1.0 - 1.0 / terms)
        assert audit.post_uncompute.num_terms() == terms - 1


class TestClone:
    def test_both_clones_accepted(self):
        for trial in range(20):
            rng = stream(trial, "clone")
            crs = crs_setup(rng)
            sigma, _ = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
            clone = clone_attack(PARAMS, sigma)
            assert verify_clone_half(PARAMS, STATEMENT, clone, "original", rng) == 1
            assert verify_clone_half(PARAMS, STATEMENT, clone, "copy", rng) == 1

    def test_clones_classically_correlated(self, rng):
        crs = crs_setup(rng)
        sigma, _ = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        clone = clone_attack(PARAMS, sigma)
        n = PARAMS.total_qubits
        for key in clone.state.amps:
            original = key >> n
            copy = key & ((1 << n) - 1)
            assert original == copy  # same z (and registers) on both sides

    def test_original_cert_fails_after_cloning(self):
        passes = 0
        trials = 60
        for trial in range(trials):
            rng = stream(trial, "clonecert")
            crs = crs_setup(rng)
            sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
            clone = clone_attack(PARAMS, sigma)
            passes += int(cert_original_after_clone(PARAMS, key, STATEMENT, clone, rng))
        # expected pass rate is E[2^-wt(theta)] = (3/4)^16 ~ 1%
        assert passes <= 6


class TestDryRun:
    def test_bookkeeping_identities_thousand_runs(self):
        # every classical identity (pads, ciphertext unmasking, OR
        # statement, signature chain) across 1000 seeded rehearsals
        spec = CompiledSpec(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1))
        g, w = complete_digraph(3), canonical_cycle(3)
        for trial in range(1000):
            rng = stream(trial, "dry")
            crs = crs_setup_dry(spec, rng)
            record = crs_prove_dry(CrsParams(lam=2), crs, g, w, rng)
            assert all(record.checks.values()), record.checks


class TestNegativeControlFixtures:
    def test_identity_prf_masks_are_predictable(self, rng):
        params = CrsParams(prf_mode="identity")
        crs = crs_setup(rng)
        sigma, key = crs_prove(params, crs, STATEMENT, WITNESS, rng)
        # with the identity PRF the mask half of each outer proof equals
        # the (truncated) term index, so the witness is directly readable
        w_bits = params.witness_bits
        omega = (
            (bits_to_int(key.theta) << (2 * params.ell))
            | (bits_to_int(key.k0) << params.ell)
            | bits_to_int(key.k1)
        )
        for k_ in sigma.state.amps:
            z = k_ >> (params.proof_width + params.sig_bits)
            pi = (k_ >> params.sig_bits) & ((1 << params.proof_width) - 1)
            mask = pi & ((1 << w_bits) - 1)
            assert mask == (z & ((1 << w_bits) - 1))
            assert (pi >> w_bits) ^ mask == omega

    def test_identity_owf_exposes_preimages(self, rng):
        params = CrsParams(owf_mode="identity", sig_width=16)
        crs = crs_setup(rng)
        sigma, key = crs_prove(params, crs, STATEMENT, WITNESS, rng)
        # signature chunks ARE the (truncated) preimages under identity f
        for k_ in sigma.state.amps:
            z = k_ >> (params.proof_width + params.sig_bits)
            sig = k_ & ((1 << params.sig_bits) - 1)
            first_chunk = sig >> ((params.r_qubits - 1) * params.sig_width)
            z0 = (z >> (params.r_qubits - 1)) & 1
            assert first_chunk == int(key.preimages[0, z0]) & 0xFFFF
            break
