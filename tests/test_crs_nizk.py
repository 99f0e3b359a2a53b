"""Compiled (hidden-bits -> CRS) NIZK and toy linear-code NIZK tests."""

import math

import numpy as np
import pytest

from cenizk.crs_nizk import (
    TOY_PROOF_BITS,
    TOY_STATEMENT_BITS,
    CompiledSpec,
    compiled_prove,
    compiled_setup,
    compiled_sim,
    compiled_verify,
    toy_encode,
    toy_prove,
    toy_setup,
    toy_statements,
    toy_verify,
)
from cenizk.graphs import canonical_cycle, complete_digraph, non_hamiltonian_triangle
from cenizk.hbnizk import HbParams, cheat_prove, rep_coverable
from cenizk.hbg import hbg_genbits
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
        assert np.array_equal(p1.I, p2.I) and p1.pi_hb == p2.pi_hb

    def test_tampered_opening_rejected(self, rng):
        g, w = complete_digraph(3), canonical_cycle(3)
        crs = compiled_setup(TINY_SPEC, rng)
        proof = compiled_prove(TINY_SPEC, crs, g, w, rng)
        from cenizk.crs_nizk import CompiledProof

        bad_bits = proof.r_bg_I.copy()
        bad_bits[0] ^= 1
        tampered = CompiledProof(proof.com, proof.I, bad_bits, proof.opening, proof.pi_hb)
        assert compiled_verify(TINY_SPEC, crs, g, tampered) == 0

    def test_sim_proofs_verify(self, rng):
        g = complete_digraph(3)
        for _ in range(100):
            crs, proof = compiled_sim(TINY_SPEC, g, rng)
            assert compiled_verify(TINY_SPEC, crs, g, proof) == 1

    def test_sim_s_marginal_close_to_uniform(self, rng):
        # real setup draws s uniformly by construction; compare the
        # simulator's s distribution against the exact uniform law
        g = complete_digraph(3)
        samples = 100_000
        k = TINY_SPEC.hb.total_bits
        counts: dict = {}
        for _ in range(samples):
            crs, _pf = compiled_sim(TINY_SPEC, g, rng)
            key = tuple(int(b) for b in crs.s)
            counts[key] = counts.get(key, 0) + 1
        uniform = samples / 2**k
        tv = 0.5 * (
            sum(abs(c - uniform) for c in counts.values())
            + (2**k - len(counts)) * uniform
        ) / samples
        assert tv <= 0.05

    def test_sim_opened_set_marginal(self, rng):
        # P[|I| = everything] must match the real prover's marginal
        from cenizk.hbnizk import useful_probability

        g, w = complete_digraph(3), canonical_cycle(3)
        trials = 10_000
        crs = compiled_setup(TINY_SPEC, stream(8, "m"))
        full_real = 0
        full_sim = 0
        for _ in range(trials):
            proof = compiled_prove(TINY_SPEC, crs, g, w, rng)
            full_real += len(proof.I) == TINY_SPEC.hb.total_bits
            _, simp = compiled_sim(TINY_SPEC, g, rng)
            full_sim += len(simp.I) == TINY_SPEC.hb.total_bits
        p = 1 - useful_probability(3, 1, 3)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(full_real / trials - p) <= 3 * sigma
        assert abs(full_sim / trials - p) <= 3 * sigma

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
                I, pi_hb, _ = cheat_prove(r, bad, spec20.hb, rng)
                proof = CompiledProof(com, I, r_bg[I].copy(), opening, pi_hb)
            else:
                # greedy adversary: re-roll the commitment a few times
                best = None
                for _ in range(4):
                    com, r_bg, opening = hbg_genbits(crs.crs_bg, rng)
                    r = r_bg ^ crs.s
                    I, pi_hb, coverable = cheat_prove(r, bad, spec20.hb, rng)
                    if best is None or coverable > best[0]:
                        best = (coverable, com, r_bg, opening, I, pi_hb)
                _, com, r_bg, opening, I, pi_hb = best
                proof = CompiledProof(com, I, r_bg[I].copy(), opening, pi_hb)
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
                I, pi_hb, coverable = cheat_prove(r, bad, TINY_SPEC.hb, rng)
                if best is None or coverable > best[0]:
                    best = (coverable, com, r_bg, opening, I, pi_hb)
                if coverable == TINY_SPEC.hb.repetitions:
                    break
            _, com, r_bg, opening, I, pi_hb = best
            from cenizk.crs_nizk import CompiledProof

            proof = CompiledProof(com, I, r_bg[I].copy(), opening, pi_hb)
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
