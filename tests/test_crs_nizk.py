"""Compiled (hidden-bits -> CRS) NIZK and toy linear-code NIZK tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cenizk.crs_nizk import (
    TOY_PROOF_BITS,
    TOY_STATEMENT_BITS,
    CompiledSpec,
    compiled_prove,
    compiled_setup,
    compiled_verify,
    toy_encode,
    toy_prove,
    toy_setup,
    toy_statements,
    toy_verify,
)
from cenizk.graphs import canonical_cycle, complete_digraph, non_hamiltonian_triangle
from cenizk.hbnizk import HbParams, cheat_prove, rep_coverable
from cenizk.hbg import HbgCommitment, hbg_genbits
from cenizk.rng import stream
from conftest import CHI2_CRIT_1DF, chi_square_uniform

TINY_SPEC = CompiledSpec(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1))


def wbits(v):
    return np.array([(v >> (3 - i)) & 1 for i in range(4)], dtype=np.uint8)


class TestToyNizk:
    def test_zero_witness(self, rng):
        crs = toy_setup(rng)
        x = toy_encode(wbits(0))
        assert toy_verify(crs, x, toy_prove(crs, x, wbits(0)))

    def test_generator_injective(self):
        codewords = {tuple(toy_encode(wbits(v))) for v in range(16)}
        assert len(codewords) == 16

    def test_exhaustive_soundness(self, rng):
        # every statement off the code rejects every 4-bit proof
        crs = toy_setup(rng)
        codewords = {tuple(toy_encode(wbits(v))) for v in range(16)}
        non_codewords = 0
        for x in toy_statements():
            if tuple(x) in codewords:
                continue
            non_codewords += 1
            for v in range(16):
                assert not toy_verify(crs, x, wbits(v))
        assert non_codewords == 2**TOY_STATEMENT_BITS - 2**TOY_PROOF_BITS

    def test_flipped_proof_bit_rejected(self, rng):
        crs = toy_setup(rng)
        w = wbits(0b1011)
        x = toy_encode(w)
        for pos in range(4):
            bad = w.copy()
            bad[pos] ^= 1
            assert not toy_verify(crs, x, bad)

    def test_length_mismatch_rejects(self, rng):
        crs = toy_setup(rng)
        x = toy_encode(wbits(3))
        assert not toy_verify(crs, x, np.array([1, 0, 1], dtype=np.uint8))
        assert not toy_verify(crs, x[:-1], wbits(3))

    def test_prove_requires_matching_witness(self, rng):
        crs = toy_setup(rng)
        x = toy_encode(wbits(5))
        with pytest.raises(ValueError):
            toy_prove(crs, x, wbits(6))


class TestCompiledNizk:
    def test_dimensions_and_determinism(self):
        crs_a = compiled_setup(TINY_SPEC, stream(3, "c"))
        crs_b = compiled_setup(TINY_SPEC, stream(3, "c"))
        assert len(crs_a.s) == TINY_SPEC.hb.total_bits
        assert np.array_equal(crs_a.s, crs_b.s)

    def test_s_marginal_uniform(self, rng):
        ones = np.zeros(TINY_SPEC.hb.total_bits)
        trials = 4000
        for _ in range(trials):
            ones += compiled_setup(TINY_SPEC, rng).s
        for count in ones:
            assert chi_square_uniform([count, trials - count]) < 2 * CHI2_CRIT_1DF

    def test_end_to_end_accepts(self, rng):
        g, w = complete_digraph(3), canonical_cycle(3)
        crs = compiled_setup(TINY_SPEC, rng)
        for _ in range(50):
            proof = compiled_prove(TINY_SPEC, crs, g, w, rng)
            assert compiled_verify(TINY_SPEC, crs, g, proof) == 1

    def test_proof_deterministic_given_seeds(self):
        g, w = complete_digraph(3), canonical_cycle(3)
        crs = compiled_setup(TINY_SPEC, stream(5, "s"))
        p1 = compiled_prove(TINY_SPEC, crs, g, w, stream(6, "p"))
        p2 = compiled_prove(TINY_SPEC, crs, g, w, stream(6, "p"))
        assert np.array_equal(p1.opened, p2.opened) and p1.pi_hb == p2.pi_hb

    def test_tampered_opening_rejected(self, rng):
        g, w = complete_digraph(3), canonical_cycle(3)
        crs = compiled_setup(TINY_SPEC, rng)
        proof = compiled_prove(TINY_SPEC, crs, g, w, rng)
        from cenizk.crs_nizk import CompiledProof

        bad_bits = proof.r_bg_I.copy()
        bad_bits[0] ^= 1
        tampered = CompiledProof(proof.com, proof.opened, bad_bits, proof.opening, proof.pi_hb)
        assert compiled_verify(TINY_SPEC, crs, g, tampered) == 0

    def test_opened_set_marginal(self, rng):
        # P[every bit opened] must match 1 - P[the block is useful]
        from cenizk.hbnizk import useful_probability

        g, w = complete_digraph(3), canonical_cycle(3)
        trials = 10_000
        crs = compiled_setup(TINY_SPEC, stream(8, "m"))
        full_real = 0
        for _ in range(trials):
            proof = compiled_prove(TINY_SPEC, crs, g, w, rng)
            full_real += proof.opened.all()
        p = 1 - useful_probability(3, 1, 3)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(full_real / trials - p) <= 3 * sigma

    def test_r_uniform_even_for_adversarial_generator_bits(self, rng):
        # a rigged generator emitting constant bits still faces a uniform
        # hidden string because the CRS mask s is uniform
        biased_r_bg = np.ones(TINY_SPEC.hb.total_bits, dtype=np.uint8)
        ones = np.zeros(TINY_SPEC.hb.total_bits)
        trials = 4000
        for _ in range(trials):
            crs = compiled_setup(TINY_SPEC, rng)
            ones += biased_r_bg ^ crs.s
        for count in ones:
            assert chi_square_uniform([count, trials - count]) < 2 * CHI2_CRIT_1DF

    def test_soundness_desk_scale_rho20(self):
        """500 adversarial attempts (random and greedy commitment
        choices) against the rho=20 compiled scheme on the false
        statement: all rejected."""
        from cenizk.crs_nizk import CompiledProof

        spec20 = CompiledSpec(hb=HbParams(n=3, repetitions=20, matrix_side=3, block_len=1))
        bad = non_hamiltonian_triangle()
        crs = compiled_setup(spec20, stream(77, "s20"))
        accepted = 0
        for trial in range(500):
            rng = stream(trial, "adv20")
            if trial % 2 == 0:
                # random adversary: honest generator run, fabricated claims
                com, r_bg, opening = hbg_genbits(crs.crs_bg, rng)
                r = r_bg ^ crs.s
                opened, pi_hb, _ = cheat_prove(r, bad, spec20.hb, rng)
                proof = CompiledProof(com, opened, r_bg[opened], opening, pi_hb)
            else:
                # greedy adversary: re-roll the commitment a few times
                best = None
                for _ in range(4):
                    com, r_bg, opening = hbg_genbits(crs.crs_bg, rng)
                    r = r_bg ^ crs.s
                    opened, pi_hb, coverable = cheat_prove(r, bad, spec20.hb, rng)
                    if best is None or coverable > best[0]:
                        best = (coverable, com, r_bg, opening, opened, pi_hb)
                _, com, r_bg, opening, opened, pi_hb = best
                proof = CompiledProof(com, opened, r_bg[opened], opening, pi_hb)
            accepted += compiled_verify(spec20, crs, bad, proof)
        assert accepted == 0

    def test_adversarial_best_com_bounded(self, rng):
        """Brute-forced best commitment over the dealer generator on a
        false statement: acceptance stays below the single-repetition
        coverable-rate oracle plus 3 sigma."""
        bad = non_hamiltonian_triangle()
        crs = compiled_setup(TINY_SPEC, stream(70, "a"))
        trials = 1500
        tries_per_trial = 5
        accepted = 0
        for _ in range(trials):
            best = None
            for _ in range(tries_per_trial):
                com, r_bg, opening = hbg_genbits(crs.crs_bg, rng)
                r = r_bg ^ crs.s
                opened, pi_hb, coverable = cheat_prove(r, bad, TINY_SPEC.hb, rng)
                if best is None or coverable > best[0]:
                    best = (coverable, com, r_bg, opening, opened, pi_hb)
                if coverable == TINY_SPEC.hb.repetitions:
                    break
            _, com, r_bg, opening, opened, pi_hb = best
            from cenizk.crs_nizk import CompiledProof

            proof = CompiledProof(com, opened, r_bg[opened], opening, pi_hb)
            accepted += compiled_verify(TINY_SPEC, crs, bad, proof)
        # oracle: fraction of uniform blocks answerable per repetition,
        # amplified by the adversary's re-rolls
        oracle_trials = 20_000
        hits = 0
        for _ in range(oracle_trials):
            block = rng.integers(0, 2, size=TINY_SPEC.hb.bits_per_rep, dtype=np.uint8)
            hits += rep_coverable(block, bad, TINY_SPEC.hb, rng)
        p1 = hits / oracle_trials
        bound = 1 - (1 - p1) ** tries_per_trial
        sigma = math.sqrt(max(bound * (1 - bound), 1e-6) / trials)
        assert accepted / trials <= bound + 3 * sigma


class TestNaorOpening:
    """With the naor generator a compiled proof ships seeds only for the
    revealed positions; a seed for a closed position would let the
    verifier open its hidden bit."""

    SPEC = CompiledSpec(
        hb=HbParams(n=3, repetitions=600, matrix_side=3, block_len=1), hbg_mode="naor", hbg_s=8
    )

    def test_prover_opens_exactly_the_revealed_set(self):
        from cenizk.hbg import NaorOpening

        g = complete_digraph(3)
        crs = compiled_setup(self.SPEC, stream(1, "naor-crs"))
        proof = compiled_prove(self.SPEC, crs, g, canonical_cycle(3), stream(1, "naor-prove"))
        _, _, full = hbg_genbits(crs.crs_bg, stream(1, "naor-prove"))  # compiled_prove's first draw
        assert 0 < np.count_nonzero(proof.opened) < len(proof.opened)  # some repetition is useful
        assert isinstance(proof.opening, NaorOpening)
        assert np.array_equal(proof.opening.seeds, full.seeds[proof.opened])
        assert compiled_verify(self.SPEC, crs, g, proof) == 1
        assert compiled_verify(self.SPEC, crs, g, replace(proof, opening=full)) == 0


class TestMalformedCompiledProof:
    """Replacing one field of an honest compiled proof rejects in both
    generator modes; nothing raises. r_bg_I must be unsigned words of one
    bit, as hbg_verify_batch requires."""

    CASES = {
        "r_bg_I_none": lambda p: replace(p, r_bg_I=None),
        "r_bg_I_float": lambda p: replace(p, r_bg_I=p.r_bg_I.astype(float)),
        "r_bg_I_list": lambda p: replace(p, r_bg_I=p.r_bg_I.tolist()),
        "r_bg_I_signed": lambda p: replace(p, r_bg_I=p.r_bg_I.astype(np.int64)),
        "r_bg_I_two_d": lambda p: replace(p, r_bg_I=p.r_bg_I[:, None]),
        "r_bg_I_two": lambda p: replace(p, r_bg_I=p.r_bg_I | 2),
        "com_none": lambda p: replace(p, com=None),
        "com_bytes": lambda p: replace(p, com=p.com.data),
        "com_data_list": lambda p: replace(p, com=HbgCommitment(list(p.com.data))),
        "com_data_none": lambda p: replace(p, com=HbgCommitment(None)),
        "opening_none": lambda p: replace(p, opening=None),
        "opened_none": lambda p: replace(p, opened=None),
        "opened_list": lambda p: replace(p, opened=p.opened.tolist()),
        "pi_hb_none": lambda p: replace(p, pi_hb=None),
    }

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    @pytest.mark.parametrize("how", sorted(CASES))
    def test_compiled_verify_rejects(self, how, mode):
        spec = replace(TINY_SPEC, hbg_mode=mode, hbg_s=8)
        g, rng = complete_digraph(3), stream(0, "malformed-compiled", mode)
        crs = compiled_setup(spec, rng)
        proof = compiled_prove(spec, crs, g, canonical_cycle(3), rng)
        assert compiled_verify(spec, crs, g, proof) == 1
        assert compiled_verify(spec, crs, g, self.CASES[how](proof)) == 0
