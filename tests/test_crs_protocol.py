"""CRS-model protocol tests: pads, superposition mechanics, the
verify/certify pipeline, cloning, and the classical dry run."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cenizk import crs_protocol, wire
from cenizk.attacks import hoeffding_halfwidth
from cenizk.bits import bits_to_int, int_to_bits, masked_parity, pack_rows
from cenizk.crs_nizk import CompiledSpec, ToyCrs, compiled_prove, compiled_setup, toy_encode
from cenizk.crs_protocol import (
    CrsParams,
    CrsProofState,
    CrsProverKey,
    cert_original_after_clone,
    cert_uncompute,
    clone_attack,
    crs_cert,
    crs_cert_prob,
    crs_prove,
    crs_prove_dry,
    crs_setup,
    crs_setup_dry,
    crs_verify,
    crs_verify_prob,
    pad_half,
    verify_clone_half,
    _certify,
    _omega_int,
    _outer_verify,
    _pad_table,
    _sig_lookup,
    _sig_test,
)
from cenizk.graphs import canonical_cycle, complete_digraph
from cenizk.harness import run_session
from cenizk.hbnizk import HbParams
from cenizk.rng import stream
from cenizk.state import Bb84Descriptor, SparseState, append_register, prep_bb84

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
        assert masked_parity(pack_rows([0, 0]), pack_rows([1, 0])) == 1

    def test_empty_xor(self):
        assert masked_parity(pack_rows([1, 1]), pack_rows([1, 0])) == 0

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


class TestPadInt:
    """`_pad_table`, the pad lookup the outer-verify oracle reads on every
    term, against `pad_half`."""

    @staticmethod
    def _agrees(theta_int, z_int, ell, lam, halves=(0, 1)):
        # the oracle's indexing: half 0 is the high ell*lam bits of the
        # 2*ell*lam-bit register, half 1 the low ones
        width, half = 2 * ell * lam, ell * lam
        theta, z = int_to_bits(theta_int, width), int_to_bits(z_int, width)
        masked = z_int & ~theta_int
        return all(
            _pad_table(ell, lam)[(masked >> ((1 - which) * half)) & ((1 << half) - 1)]
            == bits_to_int(pad_half(theta, z, which, ell, lam))
            for which in halves
        )

    @pytest.mark.parametrize("ell,lam", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
    def test_exhaustive(self, ell, lam):
        n = 1 << (2 * ell * lam)
        for theta_int in range(n):
            for z_int in range(n):
                assert self._agrees(theta_int, z_int, ell, lam)

    def test_exhaustive_over_the_read_half_at_ell2_lam3(self):
        # 2^24 (theta, z) pairs take minutes; a half's pad reads only its
        # own 6 bits of theta and z, so those run over every value while
        # the other half's bits are drawn at random
        ell, lam = 2, 3
        half = ell * lam
        others = stream(11, "pad-int").integers(0, 1 << half, size=(2, 2, 1 << (2 * half))).tolist()
        for which in (0, 1):
            read_shift, other_shift = (half, 0) if which == 0 else (0, half)
            for i, (t_other, z_other) in enumerate(zip(*others[which])):
                theta_int = ((i >> half) << read_shift) | (t_other << other_shift)
                z_int = ((i & ((1 << half) - 1)) << read_shift) | (z_other << other_shift)
                assert self._agrees(theta_int, z_int, ell, lam, halves=(which,))

    def test_every_z_at_ell4_lam1(self):
        # the protocols' ell = 4: every 8-bit z for eight seeded thetas
        ell, lam = PARAMS.ell, 1
        for theta_int in stream(13, "pad-int", lam).integers(0, 1 << 8, size=8).tolist():
            for z_int in range(1 << 8):
                assert self._agrees(theta_int, z_int, ell, lam)

    @pytest.mark.parametrize("lam,thetas", [(2, 8), (3, 4)])
    def test_every_read_half_at_ell4(self, lam, thetas):
        # ell = 4 at the larger lams: a half's pad reads its own 4*lam
        # bits of theta and z, so those bits of z run over every value,
        # with the other half's bits of z drawn at random, for seeded thetas
        ell = PARAMS.ell
        half = ell * lam
        g = stream(13, "pad-int", lam)
        for theta_int in g.integers(0, 1 << (2 * half), size=thetas).tolist():
            for which in (0, 1):
                read_shift, other_shift = (half, 0) if which == 0 else (0, half)
                for z_read, z_other in enumerate(g.integers(0, 1 << half, size=1 << half).tolist()):
                    z_int = (z_read << read_shift) | (z_other << other_shift)
                    assert self._agrees(theta_int, z_int, ell, lam, halves=(which,))

    def test_random_at_toy_shape(self):
        width = PARAMS.r_qubits
        draws = stream(12, "pad-int").integers(0, 1 << width, size=(2000, 2)).tolist()
        for theta_int, z_int in draws:
            assert self._agrees(theta_int, z_int, PARAMS.ell, PARAMS.lam)


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


def or_check(ct0, ct1, z, omega_int):
    """The outer-verify oracle on term z with the unmasked proof omega:
    the R||P value z || omega || 0."""
    verify = _outer_verify(PARAMS, STATEMENT, ct0, ct1)
    return verify((bits_to_int(z) << PARAMS.proof_width) | (omega_int << PARAMS.witness_bits))


class TestOrStatement:
    """The OR statement as verification evaluates it: the outer-verify
    oracle on integer z and an unmasked witness theta || k0 || k1."""

    def _honest(self, rng):
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        z = next(iter(support_terms(key.theta, key.y)))
        return (sigma.ct0, sigma.ct1), _omega_int(key, PARAMS), key, z

    def test_honest_accepts_via_clause_zero(self, rng):
        cts, omega, _, z = self._honest(rng)
        assert or_check(*cts, z, omega) == 1

    def test_swapped_ciphertext_accepts_via_clause_one(self, rng):
        # the hybrid-style fixture: place a valid inner proof in ct1 and
        # garbage in ct0; the OR statement stays true through clause 1
        theta = rng.integers(0, 2, size=PARAMS.r_qubits, dtype=np.uint8)
        y = rng.integers(0, 2, size=PARAMS.r_qubits, dtype=np.uint8)
        k0 = rng.integers(0, 2, size=PARAMS.ell, dtype=np.uint8)
        k1 = rng.integers(0, 2, size=PARAMS.ell, dtype=np.uint8)
        pi_in = WITNESS
        ct1 = pi_in ^ pad_half(theta, y, 1, PARAMS.ell, PARAMS.lam) ^ k1
        ct0 = rng.integers(0, 2, size=PARAMS.ell, dtype=np.uint8)  # garbage
        z = np.where(theta == 0, y, rng.integers(0, 2, size=PARAMS.r_qubits, dtype=np.uint8))
        omega = bits_to_int(np.concatenate([theta, k0, k1]))
        assert or_check(ct0, ct1, z, omega) == 1

    def test_flipped_computational_z_bit_rejects(self, rng):
        # code soundness: flipping a computational-basis position inside
        # the first half walks the clause-0 candidate off the code while
        # clause 1 keeps hiding the zero plaintext, so the OR collapses
        cts, omega, key, z = self._honest(rng)
        half = PARAMS.ell * PARAMS.lam
        comp_first = [j for j in np.flatnonzero(key.theta == 0) if j < half]
        if not comp_first:
            pytest.skip("all-Hadamard draw in the first half")
        for j in comp_first:
            flipped = z.copy()
            flipped[j] ^= 1
            assert or_check(*cts, flipped, omega) == 0

    def test_flipped_second_half_bit_keeps_clause_zero(self, rng):
        # the complementary fact: second-half flips only disturb the
        # already-false clause 1, the statement stays true via clause 0
        cts, omega, key, z = self._honest(rng)
        half = PARAMS.ell * PARAMS.lam
        comp_second = [j for j in np.flatnonzero(key.theta == 0) if j >= half]
        if not comp_second:
            pytest.skip("all-Hadamard draw in the second half")
        flipped = z.copy()
        flipped[comp_second[0]] ^= 1
        assert or_check(*cts, flipped, omega) == 1


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


class TestMalformedVerifyInput:
    """crs_verify rejects a statement or proof field of the wrong type,
    dtype, values or length with verdict 0, hands sigma back and draws
    nothing; nothing raises. One field of an honest toy session replaced
    at a time."""

    @staticmethod
    def _session():
        rng = stream(0, "probe-crs")
        crs = crs_setup(rng)
        sigma, _ = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        return rng, crs, sigma

    X = {
        "x_none": None,
        "x_list": STATEMENT.tolist(),
        "x_float": STATEMENT.astype(float),
        "x_holds_a_2": np.where(STATEMENT == 1, 2, 0).astype(np.uint8),
        "x_one_short": STATEMENT[:-1],
        "x_two_d": STATEMENT[:, None],
    }
    SIGMA = {
        "ct0_none": lambda s: replace(s, ct0=None),
        "ct0_list": lambda s: replace(s, ct0=s.ct0.tolist()),
        "ct0_float": lambda s: replace(s, ct0=s.ct0.astype(float)),
        "ct0_holds_a_2": lambda s: replace(s, ct0=s.ct0 | 2),
        "ct0_negative": lambda s: replace(s, ct0=-s.ct0.astype(np.int64)),
        "ct1_one_short": lambda s: replace(s, ct1=s.ct1[:-1]),
        "ct1_one_over": lambda s: replace(s, ct1=np.append(s.ct1, 0)),
        "ct1_str": lambda s: replace(s, ct1="0110"),
        "state_none": lambda s: replace(s, state=None),
        "state_too_few_qubits": lambda s: replace(s, state=SparseState(4, {0: 1.0 + 0.0j})),
        "sigma_none": lambda s: None,
    }

    def test_honest_session_accepts(self):
        rng, crs, sigma = self._session()
        assert crs_verify(PARAMS, crs, STATEMENT, sigma, rng)[0] == 1

    @pytest.mark.parametrize("how", sorted([*X, *SIGMA]))
    def test_rejects_without_a_draw(self, how):
        rng, crs, sigma = self._session()
        x = self.X.get(how, STATEMENT)
        bad = self.SIGMA[how](sigma) if how in self.SIGMA else sigma
        before = rng.bit_generator.state
        b, residual = crs_verify(PARAMS, crs, x, bad, rng)
        assert b == 0 and residual is bad
        assert rng.bit_generator.state == before


class TestMalformedCertInput:
    """crs_cert rejects a returned object that holds no proof state of
    total_qubits qubits with False, draws nothing and raises nothing."""

    RETURNED = {
        "none": lambda s: None,
        "wrong_type": lambda s: s.state,
        "state_none": lambda s: replace(s, state=None),
        "state_not_sparse": lambda s: replace(s, state=np.zeros(PARAMS.total_qubits)),
        "state_too_few_qubits": lambda s: replace(s, state=SparseState(4, {0: 1.0 + 0.0j})),
        "state_one_over": lambda s: replace(s, state=append_register(s.state, 1)),
    }

    @pytest.mark.parametrize("how", sorted(RETURNED))
    def test_rejects_without_a_draw(self, how):
        rng = stream(0, "probe-crs-cert")
        sigma, key = crs_prove(PARAMS, crs_setup(rng), STATEMENT, WITNESS, rng)
        before = rng.bit_generator.state
        assert crs_cert(PARAMS, key, self.RETURNED[how](sigma), rng) is False
        assert rng.bit_generator.state == before


class TestMalformedProverKey:
    """The prover key is the caller's own: crs_cert raises ValueError
    naming a malformed field, before any draw and whatever is returned."""

    KEYS = {
        "theta_list": ("theta", lambda k: k.theta.tolist()),
        "theta_none": ("theta", lambda k: None),
        "theta_float": ("theta", lambda k: k.theta.astype(float)),
        "theta_one_short": ("theta", lambda k: k.theta[:-1]),
        "theta_2d": ("theta", lambda k: k.theta.reshape(2, -1)),
        "y_with_twos": ("y", lambda k: k.y * 2),
        "y_negative": ("y", lambda k: -k.y.astype(np.int8)),
        "k0_one_over": ("k0", lambda k: np.append(k.k0, 0)),
        "k1_str": ("k1", lambda k: "0" * PARAMS.ell),
        "preimages_float": ("preimages", lambda k: k.preimages.astype(float)),
        "preimages_flat": ("preimages", lambda k: k.preimages.ravel()),
        "preimages_one_short": ("preimages", lambda k: k.preimages[:-1]),
        "prfk_none": ("prfk", lambda k: None),
        "prfk_short": ("prfk", lambda k: k.prfk[:-1]),
        "prfk_str": ("prfk", lambda k: k.prfk.hex()[:16]),
    }

    @pytest.mark.parametrize("how", sorted(KEYS))
    @pytest.mark.parametrize("returned", ["residual", "none"])
    def test_raises_without_a_draw(self, how, returned):
        rng = stream(0, "probe-crs-key")
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        _, residual = crs_verify(PARAMS, crs, STATEMENT, sigma, rng)
        field, bad = self.KEYS[how]
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"field\\(s\\): {field}$"):
            crs_cert(PARAMS, replace(key, **{field: bad(key)}), residual if returned == "residual" else None, rng)
        assert rng.bit_generator.state == before

    def test_names_every_malformed_field(self, rng):
        sigma, key = crs_prove(PARAMS, crs_setup(rng), STATEMENT, WITNESS, rng)
        with pytest.raises(ValueError, match="field\\(s\\): theta, prfk$"):
            crs_cert(PARAMS, replace(key, theta=None, prfk=None), sigma, rng)

    def test_a_key_of_another_type_names_every_field(self, rng):
        # an object() key raised AttributeError on its first field
        with pytest.raises(ValueError, match="field\\(s\\): theta, k0, k1, y, prfk, preimages$"):
            crs_cert(PARAMS, object(), None, rng)

    def test_integer_and_bool_bits_certify_alike(self):
        rng = stream(0, "probe-crs-key")
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        _, residual = crs_verify(PARAMS, crs, STATEMENT, sigma, rng)
        as_bool = replace(key, theta=key.theta.astype(bool), y=key.y.astype(bool))
        assert certify_alike((key, as_bool), residual.state, PARAMS.registers(), 0) == (pytest.approx(1.0), True)


class TestCert:
    def test_honest_verify_then_cert(self, rng):
        crs = crs_setup(rng)
        sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
        b, residual = crs_verify(PARAMS, crs, STATEMENT, sigma, rng)
        assert b == 1 and crs_cert(PARAMS, key, residual, rng)
        assert _sig_test(PARAMS, key, residual.state, PARAMS.registers())[:2] == (pytest.approx(1.0), False)

    def test_uncompute_recompute_identity(self):
        # skipping verification entirely: uncompute recovers |y>^theta
        # with zeroed P and S registers, exactly
        for trial in range(15):
            rng = stream(trial, "unc")
            crs = crs_setup(rng)
            sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
            post = cert_uncompute(PARAMS, key, sigma)
            expected = append_register(
                append_register(prep_bb84(Bb84Descriptor(key.y, key.theta)), PARAMS.proof_width),
                PARAMS.sig_bits,
            )
            assert post.equals(expected, tol=1e-9)
            assert crs_cert_prob(PARAMS, key, sigma) == pytest.approx(1.0)

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
            passes += int(crs_cert(PARAMS, key, returned, rng))
            expected += 2.0 ** (-int(key.theta.sum()))
        sigma_bound = math.sqrt(trials) * 0.5
        assert abs(passes - expected) <= 3 * sigma_bound + 1

    def test_cert_prob_is_exact_on_honest_and_z_measured_proofs(self):
        # 1 on an honest residual; 2^-wt(theta) once R is measured in Z,
        # one factor 1/2 per Hadamard position
        from cenizk.state import measure

        for trial in range(20):
            rng = stream(trial, "zadv")
            crs = crs_setup(rng)
            sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
            _, residual = crs_verify(PARAMS, crs, STATEMENT, sigma, stream(trial, "verify"))
            assert abs(crs_cert_prob(PARAMS, key, residual) - 1.0) <= 1e-9
            _, collapsed = measure(sigma.state, list(range(PARAMS.r_qubits)), ["Z"] * PARAMS.r_qubits, rng)
            returned = CrsProofState(collapsed, sigma.ct0, sigma.ct1)
            assert abs(crs_cert_prob(PARAMS, key, returned) - 2.0 ** -int(key.theta.sum())) <= 1e-9

    def test_half_forged_proof_passes_at_its_exact_rate(self):
        # every other term's signature corrupted: the signature test passes
        # with probability 1/2, and a pass is drawn, not taken for granted
        rng = stream(0, "half-forged")
        sigma, key = crs_prove(PARAMS, crs_setup(rng), STATEMENT, WITNESS, rng)
        amps = {k ^ (i % 2): a for i, (k, a) in enumerate(sigma.state.amps.items())}  # last S bit
        forged = CrsProofState(SparseState(sigma.state.num_qubits, amps), sigma.ct0, sigma.ct1)
        assert _sig_test(PARAMS, key, forged.state, PARAMS.registers())[:2] == (pytest.approx(0.5), True)
        exact = crs_cert_prob(PARAMS, key, forged)
        assert exact == pytest.approx(0.25)  # signature test 1/2, readout 1/2
        trials = 2000
        rate = sum(crs_cert(PARAMS, key, forged, stream(t, "half-forged-cert")) for t in range(trials)) / trials
        assert abs(rate - exact) <= 3 * hoeffding_halfwidth(trials)

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
        assert crs_cert(PARAMS, key, forged, rng) is False

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

        prob, both, post = _sig_test(PARAMS, key, SparseState(sigma.state.num_qubits, amps), PARAMS.registers())
        assert prob == pytest.approx(1.0 - 1.0 / terms) and both
        assert post.num_terms() == terms - 1


class TestClone:
    def test_both_clones_accepted(self):
        for trial in range(20):
            rng = stream(trial, "clone")
            crs = crs_setup(rng)
            sigma, _ = crs_prove(PARAMS, crs, STATEMENT, WITNESS, rng)
            clone = clone_attack(PARAMS, sigma)
            assert verify_clone_half(PARAMS, STATEMENT, clone, clone.original, rng) == 1
            assert verify_clone_half(PARAMS, STATEMENT, clone, clone.copy, rng) == 1

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
            passes += int(cert_original_after_clone(PARAMS, key, clone, rng))
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

    def test_corrupted_signature_chunk_breaks_the_chain(self, monkeypatch):
        # the certifier checks each chunk of the signature against its
        # public image, so one wrong preimage must fail the chain while
        # every other identity holds
        spec = CompiledSpec(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1))
        g, w = complete_digraph(3), canonical_cycle(3)
        honest_sign = crs_protocol._lamport_sign

        def corrupted_sign(pre, z):
            chunks = honest_sign(pre, z)
            chunks[17] ^= 1
            return chunks

        monkeypatch.setattr(crs_protocol, "_lamport_sign", corrupted_sign)
        rng = stream(0, "dry")
        record = crs_prove_dry(CrsParams(lam=2), crs_setup_dry(spec, rng), g, w, rng)
        assert record.checks.pop("sig_chain_consistent") is False
        assert all(record.checks.values()), record.checks


class TestCompiledProofDecode:
    """The dry run's inner proof travels as wire bytes that list its opened
    positions. Decoding turns the list back into the opened mask; a list
    that is not strictly increasing inside the hidden string, or an
    opening or proof payload that is not a dict, decodes to None."""

    SPEC = CompiledSpec(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1))

    def _proof_and_payload(self):
        g, w = complete_digraph(3), canonical_cycle(3)
        rng = stream(0, "decode")
        proof = compiled_prove(self.SPEC, compiled_setup(self.SPEC, rng), g, w, rng)
        bits = crs_protocol._compiled_proof_bits(proof)
        return proof, wire.decode(np.packbits(bits).tobytes())

    def _decode(self, payload):
        bits = np.unpackbits(np.frombuffer(wire.encode(payload), dtype=np.uint8))
        return crs_protocol._compiled_proof_from_bits(bits, self.SPEC.hb.total_bits)

    def test_round_trip_restores_the_mask(self):
        proof, payload = self._proof_and_payload()
        assert np.array_equal(payload["I"], np.flatnonzero(proof.opened))
        back = self._decode(payload)
        assert back.opened.dtype == bool and np.array_equal(back.opened, proof.opened)
        assert np.array_equal(back.r_bg_I, proof.r_bg_I) and back.pi_hb == proof.pi_hb

    @pytest.mark.parametrize(
        "key,value",
        [
            ("I", np.array([0, 2, 1])),
            ("I", np.array([0, 1, 1])),
            ("I", np.array([-1, 0])),
            ("I", np.array([0, 9])),
            ("I", np.array([[0, 1]])),
            ("op", [1]),
            ("pi", [1]),
        ],
        ids=["unsorted", "duplicate", "negative", "past-total-bits", "two-d", "op-list", "pi-list"],
    )
    def test_malformed_payload_decodes_to_none(self, key, value):
        _, payload = self._proof_and_payload()
        assert self._decode({**payload, key: value}) is None

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    @pytest.mark.parametrize(
        "key,cast",
        [
            ("r", lambda v: v.astype(float)),
            ("r", lambda v: v.tolist()),
            ("I", lambda v: v.astype(float)),
            ("I", lambda v: v.tolist()),
            ("com", list),
            ("com", lambda v: None),
            ("com", lambda v: 5),
        ],
        ids=["r-float", "r-list", "I-float", "I-list", "com-list", "com-none", "com-int"],
    )
    def test_inner_verifier_rejects_cast_fields(self, mode, key, cast):
        # each field would read as the honest value after a cast, so only a
        # check made before the cast rejects it
        spec = replace(self.SPEC, hbg_mode=mode, hbg_s=8)
        g, w, rng = complete_digraph(3), canonical_cycle(3), stream(0, "decode", mode)
        crs = compiled_setup(spec, rng)
        bits = crs_protocol._compiled_proof_bits(compiled_prove(spec, crs, g, w, rng))
        payload = wire.decode(np.packbits(bits).tobytes())
        assert crs_protocol._dry_inner_verify((spec, crs), g, bits) == 1
        bad = np.unpackbits(np.frombuffer(wire.encode({**payload, key: cast(payload[key])}), dtype=np.uint8))
        assert crs_protocol._dry_inner_verify((spec, crs), g, bad) == 0

    def test_payload_adapters_refuse_non_dicts(self):
        with pytest.raises(wire.WireError):
            wire.opening_from_payload([1])
        with pytest.raises(wire.WireError):
            wire.hbproof_from_payload([1])
        with pytest.raises(wire.WireError):
            wire.hbproof_from_payload({"kind": "all"})


def sig_table_reference(params, preimages):
    """Both OWF images of every position, from numpy scalars, under the
    module's OWF (a test's fake when one is swapped in)."""
    return [[crs_protocol._owf_int(preimages[i, b], params.sig_width) for b in (0, 1)] for i in range(len(preimages))]


@pytest.fixture
def identity_owf(monkeypatch):
    """A broken OWF for the test that takes it: a preimage's own low bits."""
    monkeypatch.setattr(crs_protocol, "_owf_int", lambda preimage, sig_width: int(preimage) & ((1 << sig_width) - 1))


@pytest.fixture
def identity_prf(monkeypatch):
    """A broken PRF for the test that takes it: z's own low bits."""
    monkeypatch.setattr(crs_protocol, "_prf_mask", lambda prfk, width: lambda z_int: z_int & ((1 << width) - 1))


def sig_int_reference(z_int, table, width):
    """The per-position signature chain the toy oracles used to build,
    position 0 most significant."""
    out = 0
    n = len(table)
    for i in range(n):
        bit = (z_int >> (n - 1 - i)) & 1
        out = (out << width) | table[i][bit]
    return out


def _preimages(params, seed):
    rng = stream(seed, "sig-lookup")
    return rng.integers(0, 1 << params.preimage_bits, size=(params.r_qubits, 2), dtype=np.uint64)


class TestSignatureLookup:
    @pytest.mark.parametrize("key_seed", [0, 1, 2])
    def test_matches_per_position_chain_on_every_z(self, key_seed):
        preimages = _preimages(PARAMS, key_seed)
        sig = _sig_lookup(PARAMS, preimages)
        table = sig_table_reference(PARAMS, preimages)
        assert all(sig(z) == sig_int_reference(z, table, PARAMS.sig_width) for z in range(1 << PARAMS.r_qubits))

    @pytest.mark.parametrize(
        "params",
        [CrsParams(sig_width=1), CrsParams(lam=1), CrsParams(lam=3, sig_width=5)],
    )
    def test_matches_per_position_chain_at_other_shapes(self, params):
        self._matches_per_position_chain(params)

    def test_matches_per_position_chain_under_an_identity_owf(self, identity_owf):
        self._matches_per_position_chain(PARAMS)

    @staticmethod
    def _matches_per_position_chain(params):
        preimages = _preimages(params, 7)
        sig = _sig_lookup(params, preimages)
        table = sig_table_reference(params, preimages)
        n = params.r_qubits
        zs = range(1 << n) if n <= 16 else stream(8, "sig-lookup").integers(0, 1 << n, 4096).tolist()
        assert all(sig(z) == sig_int_reference(z, table, params.sig_width) for z in zs)

    def test_one_session_builds_the_lookup_once(self, monkeypatch):
        # proving, the certifier's signature test and its uncompute all
        # sign with the one key's memo, which builds the chain once
        builds = []
        sig_lookup = crs_protocol._sig_lookup

        def counted_sig_lookup(*args):
            builds.append(args)
            return sig_lookup(*args)

        monkeypatch.setattr(crs_protocol, "_sig_lookup", counted_sig_lookup)
        run_session("crs-toy", None, 7)
        assert len(builds) == 1


def honest_session(seed):
    """A default crs-toy session up to certification, on the streams
    run_session uses: (crs, sigma after verification, key)."""
    crs = crs_setup(stream(seed, "setup"))
    sigma, key = crs_prove(PARAMS, crs, STATEMENT, WITNESS, stream(seed, "prove"))
    b, residual = crs_verify(PARAMS, crs, STATEMENT, sigma, stream(seed, "verify"))
    assert b == 1
    return crs, residual, key


def key_from_wire(seed):
    """The prover key of run_session's crs-toy transcript, rebuilt from
    its `prover-key` payload: a new key whose memo is empty."""
    transcript = run_session("crs-toy", None, seed)
    p = wire.decode(next(raw for _, step, raw in transcript.messages if step == "prover-key"))
    return CrsProverKey(p["theta"], p["k0"], p["k1"], ToyCrs(p["crs_out"]), p["y"], p["prfk"], p["preimages"])


def certify_alike(keys, state, regs, seed, label="certify"):
    """Certify regs of state under each key: the signature test's pass
    probability, the uncomputed state's keys, amplitudes and dict order,
    and the verdict on stream(seed, label) are the same for every key.
    Returns (pass probability, verdict)."""
    tests = [_sig_test(PARAMS, k, state, regs) for k in keys]
    verdicts = {_certify(PARAMS, k, state, regs, stream(seed, label)) for k in keys}
    (prob, both, post), *others = tests
    for other_prob, other_both, other_post in others:
        assert (other_prob, other_both) == (prob, both)
        assert list(other_post.amps.items()) == list(post.amps.items())
    assert len(verdicts) == 1
    return prob, verdicts.pop()


class TestPsMemo:
    """Each prover key memoises z -> P||S value. The memo is a cache:
    certification under a key rebuilt from the wire, which recomputes
    every value, certifies as the key that proved does."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rebuilt_key_certifies_the_default_sessions_alike(self, seed):
        _, residual, key = honest_session(seed)
        rebuilt = key_from_wire(seed)
        assert not rebuilt._ps_memo and key._ps_memo
        assert certify_alike((key, rebuilt), residual.state, PARAMS.registers(), seed) == (pytest.approx(1.0), True)

    def test_rebuilt_key_certifies_a_clone_alike(self):
        for seed in range(5):
            _, residual, key = honest_session(seed)
            clone = clone_attack(PARAMS, residual)
            keys = (key, key_from_wire(seed))
            _, verdict = certify_alike(keys, clone.state, clone.original, seed, "clonecert")
            for k in keys:
                assert cert_original_after_clone(PARAMS, k, clone, stream(seed, "clonecert")) == verdict

    def test_rebuilt_key_certifies_a_partial_forgery_alike(self):
        # the state of test_partial_forgery_is_projected_out: one term's
        # signature corrupted, so its z is in neither memo
        for seed in range(5):
            _, residual, key = honest_session(seed)
            amps = dict(residual.state.amps)
            some_key = next(iter(amps))
            amps[some_key ^ 1] = amps.pop(some_key)
            mixed = SparseState(residual.state.num_qubits, amps)
            prob, _ = certify_alike((key, key_from_wire(seed)), mixed, PARAMS.registers(), seed)
            assert prob == pytest.approx(1.0 - 1.0 / len(amps))

    @pytest.mark.parametrize("seed", range(5))
    def test_one_session_evaluates_the_prf_once_per_term(self, seed, monkeypatch):
        # proving fills the memo; the signature test and the uncompute
        # read it, so the PRF runs 2^wt(theta) times, not twice that
        calls = []
        prf_mask = crs_protocol._prf_mask

        def counted_prf_mask(*args):
            prf = prf_mask(*args)

            def counted(z_int):
                calls.append(z_int)
                return prf(z_int)

            return counted

        monkeypatch.setattr(crs_protocol, "_prf_mask", counted_prf_mask)
        _, residual, key = honest_session(seed)
        assert crs_cert(PARAMS, key, residual, stream(seed, "certify"))
        terms = 2 ** int(key.theta.sum())
        assert len(calls) == terms
        support = {k >> (PARAMS.proof_width + PARAMS.sig_bits) for k in residual.state.amps}
        assert list(key._ps_memo) == [PARAMS]
        assert set(key._ps_memo[PARAMS]) == support and len(support) == terms

    def test_other_params_get_their_own_memo(self):
        # at another sig_width the key computes its values afresh, as a
        # fresh key does, and the default params' values stay untouched
        _, residual, key = honest_session(0)
        before = list(key._ps_memo[PARAMS].items())
        other = CrsParams(sig_width=8)
        bb84 = prep_bb84(Bb84Descriptor(key.y, key.theta))
        sigma = CrsProofState(append_register(bb84, other.proof_width + other.sig_bits), residual.ct0, residual.ct1)
        attached = [cert_uncompute(other, k, sigma) for k in (key, key_from_wire(0))]
        assert list(attached[0].amps.items()) == list(attached[1].amps.items())
        assert set(key._ps_memo) == {PARAMS, other}
        assert list(key._ps_memo[PARAMS].items()) == before


class TestNegativeControlFixtures:
    """A broken PRF or OWF swapped in exposes what the real one hides;
    the outer proof's layout is (omega ^ mask) || mask."""

    def test_identity_prf_masks_are_predictable(self, rng, identity_prf):
        params = PARAMS
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

    def test_identity_owf_exposes_preimages(self, rng, identity_owf):
        params = PARAMS
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
