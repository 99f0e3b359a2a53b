"""Shared-EPR protocol tests: completeness, deletion, the measure-first
verifier, adversaries, and the witness-free simulator."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cenizk.epr import ROLE_P, ROLE_V
from cenizk.epr_protocol import (
    BOT,
    EprDeletionCert,
    EprParams,
    epr_cert,
    epr_delete,
    epr_prove,
    epr_setup,
    epr_sim,
    epr_verify,
    forged_proof_prover,
    greedy_basis_prover,
    honest_delete_vstar,
    hypothetical_verifier,
    premeasure_all_z,
    run_cezk_real,
    _assemble_proof,
)
from cenizk.bits import flat_mask, unpack_rows
from cenizk.graphs import canonical_cycle, complete_digraph, non_hamiltonian_triangle
from cenizk.hbg import (
    NaorOpening,
    hbg_genbits,
    hbg_setup,
    hbg_verify,
    hbg_verify_batch,
    restrict_opening,
)
from cenizk.hbnizk import HbParams, HbProof, RepRevealAll
from cenizk.rng import stream
from cenizk.state import SimUsageError
from conftest import CHI2_CRIT_1DF, chi_square_uniform

TINY = EprParams(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1), block_width=4)
# geometry where useful repetitions (hence deletions) are common: the
# two-vertex statement at matrix_side 2 has useful rate 1/16 per rep
DELETING = EprParams(hb=HbParams(n=2, repetitions=8, matrix_side=2, block_len=1), block_width=2)


def two_vertex_instance():
    from cenizk.graphs import two_cycle_pair

    return two_cycle_pair()


class TestSetup:
    def test_dimensions(self, rng):
        crs, net = epr_setup(TINY, rng)
        assert len(crs.s) == TINY.num_blocks
        assert net.block_count == TINY.num_blocks
        assert net.block_width == TINY.block_width

    def test_s_uniform(self, rng):
        ones = 0
        trials = 3000
        for _ in range(trials):
            crs, _ = epr_setup(TINY, rng)
            ones += int(crs.s[0])
        assert chi_square_uniform([ones, trials - ones]) < CHI2_CRIT_1DF

    def test_network_is_epr(self, rng):
        # every half alone is mixed until the prover measures; then both
        # halves of each pair hold one state (same-basis agreement)
        g, w = complete_digraph(3), canonical_cycle(3)
        crs, net = epr_setup(TINY, rng)
        pairs = [(i, j) for i in range(TINY.num_blocks) for j in range(TINY.block_width)]
        for role, pair in itertools.product((ROLE_P, ROLE_V), pairs):
            with pytest.raises(SimUsageError, match="mixed"):
                net.half_state(role, [pair])
        epr_prove(TINY, crs, net, g, w, rng)
        for pair in pairs:
            assert net.half_state(ROLE_P, [pair]).amps == net.half_state(ROLE_V, [pair]).amps


class TestHonestSessions:
    def test_completeness_and_deletion_tiny(self):
        g, w = complete_digraph(3), canonical_cycle(3)
        for trial in range(40):
            rng = stream(trial, "honest")
            crs, net = epr_setup(TINY, rng)
            proof, prover = epr_prove(TINY, crs, net, g, w, rng)
            b, residual = epr_verify(TINY, crs, net, g, proof, rng)
            cert, _ = epr_delete(TINY, residual, rng)
            assert b == 1 and epr_cert(TINY, cert, prover)

    def test_completeness_with_real_deletions(self):
        g, w = two_vertex_instance()
        deletions_seen = 0
        for trial in range(60):
            rng = stream(trial, "honest-del")
            crs, net = epr_setup(DELETING, rng)
            proof, prover = epr_prove(DELETING, crs, net, g, w, rng)
            b, residual = epr_verify(DELETING, crs, net, g, proof, rng)
            cert, _ = epr_delete(DELETING, residual, rng)
            assert b == 1 and epr_cert(DELETING, cert, prover)
            deletions_seen += len(cert.blocks) > 0
        assert deletions_seen > 0  # useful repetitions actually occur here

    def test_hidden_bits_agree_across_parties(self, rng):
        # same-basis EPR correlation: the verifier recomputes exactly the
        # prover's parities on the opened blocks
        g, w = complete_digraph(3), canonical_cycle(3)
        crs, net = epr_setup(TINY, rng)
        proof, prover = epr_prove(TINY, crs, net, g, w, rng)
        theta_I = proof.theta_I
        y_v = net.measure_blocks(ROLE_V, theta_I, rng, blocks=np.flatnonzero(proof.opened))
        assert np.array_equal(y_v, prover.y[proof.opened])

    def test_r_marginal_uniform_over_runs(self, rng):
        g, w = complete_digraph(3), canonical_cycle(3)
        ones = 0
        trials = 2000
        for _ in range(trials):
            crs, net = epr_setup(TINY, rng)
            _, prover = epr_prove(TINY, crs, net, g, w, rng)
            y0, theta0 = (unpack_rows(a[:1], TINY.block_width)[0] for a in (prover.y, prover.theta))
            t0 = int(np.bitwise_xor.reduce(y0[theta0 == 0])) if np.any(theta0 == 0) else 0
            ones += t0 ^ int(crs.s[0])
        assert chi_square_uniform([ones, trials - ones]) < CHI2_CRIT_1DF

    def test_proof_reveals_theta_only_for_opened_blocks(self, rng):
        # basis-privacy precondition: unopened theta never leaves the prover
        g, w = two_vertex_instance()
        crs, net = epr_setup(DELETING, rng)
        proof, prover = epr_prove(DELETING, crs, net, g, w, rng)
        assert proof.theta_I.shape == (np.count_nonzero(proof.opened),)


class TestDeletion:
    def test_verifier_cannot_write_the_provers_opened_set(self, rng):
        # the proof's mask is the prover's: a V* that could open one more
        # block in place would keep it undeleted and still certify
        g, w = two_vertex_instance()
        crs, net = epr_setup(DELETING, rng)
        proof, prover = epr_prove(DELETING, crs, net, g, w, rng)
        _, residual = epr_verify(DELETING, crs, net, g, proof, rng)
        for opened in (proof.opened, prover.opened, residual.opened):
            with pytest.raises(ValueError):
                opened[0] = not opened[0]


    def test_cert_dimensions(self, rng):
        g, w = two_vertex_instance()
        crs, net = epr_setup(DELETING, rng)
        proof, prover = epr_prove(DELETING, crs, net, g, w, rng)
        _, residual = epr_verify(DELETING, crs, net, g, proof, rng)
        cert, _ = epr_delete(DELETING, residual, rng)
        assert cert.outcomes.shape == (len(cert.blocks),) and cert.outcomes.dtype == np.uint8
        assert not np.any(cert.outcomes >> DELETING.block_width)

    def test_flipped_cert_bit_at_hadamard_position(self):
        g, w = two_vertex_instance()
        for trial in range(300):
            rng = stream(trial, "flip")
            crs, net = epr_setup(DELETING, rng)
            proof, prover = epr_prove(DELETING, crs, net, g, w, rng)
            _, residual = epr_verify(DELETING, crs, net, g, proof, rng)
            cert, _ = epr_delete(DELETING, residual, rng)
            if len(cert.blocks) == 0:
                continue
            theta_rows = unpack_rows(prover.theta[cert.blocks], DELETING.block_width)
            hadamard = np.argwhere(theta_rows == 1)
            computational = np.argwhere(theta_rows == 0)
            if len(hadamard):
                bad = cert.outcomes.copy()
                bi, bj = hadamard[0]
                bad[bi] ^= 1 << bj
                assert not epr_cert(DELETING, EprDeletionCert(cert.blocks, bad), prover)
            if len(computational):
                ignored = cert.outcomes.copy()
                ci, cj = computational[0]
                ignored[ci] ^= 1 << cj
                assert epr_cert(DELETING, EprDeletionCert(cert.blocks, ignored), prover)
            return  # one deleting trial is enough
        pytest.fail("no trial produced a deletion")

    def test_missing_block_rejected(self, rng):
        g, w = two_vertex_instance()
        for trial in range(300):
            rng2 = stream(trial, "missing")
            crs, net = epr_setup(DELETING, rng2)
            proof, prover = epr_prove(DELETING, crs, net, g, w, rng2)
            _, residual = epr_verify(DELETING, crs, net, g, proof, rng2)
            cert, _ = epr_delete(DELETING, residual, rng2)
            if len(cert.blocks) == 0:
                continue
            short = EprDeletionCert(cert.blocks[:-1], cert.outcomes[:-1])
            assert not epr_cert(DELETING, short, prover)
            return
        pytest.fail("no trial produced a deletion")

    @staticmethod
    def _deleting_session():
        g, w = two_vertex_instance()
        for trial in range(300):
            rng = stream(trial, "malformed-cert")
            crs, net = epr_setup(DELETING, rng)
            proof, prover = epr_prove(DELETING, crs, net, g, w, rng)
            _, residual = epr_verify(DELETING, crs, net, g, proof, rng)
            cert, _ = epr_delete(DELETING, residual, rng)
            if len(cert.blocks) >= 2:
                return cert, prover
        pytest.fail("no trial deleted two blocks")

    @pytest.mark.parametrize(
        "how",
        ["str", "float", "float_half", "float_outcomes", "signed_outcomes", "bit_above_k", "list_blocks", "list_outcomes"],
    )
    def test_malformed_cert_rejects_without_raising(self, how):
        # blocks cast from "29" or 29.5 would certify block 29, and float
        # 0.0/1.0 outcomes would compare equal to the recorded words
        cert, prover = self._deleting_session()
        assert epr_cert(DELETING, cert, prover)
        blocks, outcomes = cert.blocks, cert.outcomes
        bad = {
            "str": (blocks.astype(str), outcomes),
            "float": (blocks.astype(float), outcomes),
            "float_half": (blocks + 0.5, outcomes),
            "float_outcomes": (blocks, outcomes.astype(float)),
            "signed_outcomes": (blocks, outcomes.astype(np.int64)),
            "bit_above_k": (blocks, outcomes | (1 << DELETING.block_width)),
            "list_blocks": (blocks.tolist(), outcomes),
            "list_outcomes": (blocks, outcomes.tolist()),
        }[how]
        assert epr_cert(DELETING, EprDeletionCert(*bad), prover) is False

    @pytest.mark.parametrize("how", ["none", "wrong_type", "no_blocks", "no_outcomes"])
    def test_other_objects_reject_without_raising(self, how):
        cert, prover = self._deleting_session()
        bad = {
            "none": None,
            "wrong_type": (cert.blocks, cert.outcomes),
            "no_blocks": SimpleNamespace(outcomes=cert.outcomes),
            "no_outcomes": SimpleNamespace(blocks=cert.blocks),
        }[how]
        assert epr_cert(DELETING, bad, prover) is False

    def test_z_basis_cheat_rate_matches_analytic(self):
        """Deleting in Z instead of Hadamard passes per block with
        probability 2^-wt(theta_i); compare against the analytic value
        averaged over the observed theta rows."""
        g, w = two_vertex_instance()
        passes = 0
        expected = 0.0
        blocks_seen = 0
        for trial in range(4000):
            rng = stream(trial, "zcheat")
            crs, net = epr_setup(DELETING, rng)
            proof, prover = epr_prove(DELETING, crs, net, g, w, rng)
            _, residual = epr_verify(DELETING, crs, net, g, proof, rng)
            unopened = np.flatnonzero(~residual.opened)
            if len(unopened) == 0:
                continue
            bases = np.zeros(len(unopened), dtype=np.int8)
            z_out = net.measure_blocks(ROLE_V, bases, rng, blocks=unopened)
            k = DELETING.block_width
            z_rows, y_rows = unpack_rows(z_out, k), unpack_rows(prover.y[unopened], k)
            theta_rows = unpack_rows(prover.theta[unopened], k)
            match = (z_rows == y_rows) | (theta_rows == 0)
            per_block = match.all(axis=1)
            passes += int(per_block.sum())
            blocks_seen += len(unopened)
            expected += float(np.sum(2.0 ** (-theta_rows.sum(axis=1).astype(np.int64))))
        assert blocks_seen > 100
        sigma = math.sqrt(blocks_seen) * 0.5
        assert abs(passes - expected) <= 3 * sigma


class TestHypotheticalVerifier:
    def test_agrees_with_real_verifier_on_honest_runs(self):
        g, w = complete_digraph(3), canonical_cycle(3)
        for trial in range(200):
            rng = stream(trial, "agree")
            crs, net = epr_setup(TINY, rng)
            proof, _ = epr_prove(TINY, crs, net, g, w, rng)
            b_real, _ = epr_verify(TINY, crs, net, g, proof, rng)
            # a fresh network with the same seed path for the paired run
            rng2 = stream(trial, "agree")
            crs2, net2 = epr_setup(TINY, rng2)
            proof2, _ = epr_prove(TINY, crs2, net2, g, w, rng2)
            b_tilde = hypothetical_verifier(TINY, crs2, net2, g, proof2, rng2)
            assert b_real == b_tilde == 1

    def test_measure_first_commutes_with_prover(self):
        """Verdict distribution of the greedy adversary is unchanged by
        whether the verifier pre-measures before or after the prover."""
        bad = non_hamiltonian_triangle()
        params = EprParams(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1), block_width=4)
        first, after = 0, 0
        trials = 1200
        for trial in range(trials):
            rng = stream(trial, "order-first")
            crs, net = epr_setup(params, rng)
            premeasure_all_z(params, net, rng)  # measure-first
            proof = greedy_basis_prover(params, crs, net, bad, rng, genbits_tries=1)
            first += hypothetical_verifier(params, crs, net, bad, proof, rng)

            rng = stream(trial, "order-after")
            crs, net = epr_setup(params, rng)
            proof = greedy_basis_prover(params, crs, net, bad, rng, genbits_tries=1)
            after += hypothetical_verifier(params, crs, net, bad, proof, rng)
        p = (first + after) / (2 * trials)
        sigma = math.sqrt(max(2 * p * (1 - p) / trials, 1e-9))
        assert abs(first - after) / trials <= 4 * sigma + 0.02


class TestFullOpenedSet:
    """An all-True mask stands for every block. A tampered mask must be
    rejected, and deletion must then cover the blocks it leaves closed:
    those of a well-shaped mask, or every block of a malformed one."""

    DELETED = {None: [], "shifted": list(range(9)), "missing": [1]}

    @staticmethod
    def _full_session(label):
        g, w = complete_digraph(3), canonical_cycle(3)
        for trial in range(50):
            rng = stream(trial, "full-set", label)
            crs, net = epr_setup(TINY, rng)
            proof, prover = epr_prove(TINY, crs, net, g, w, rng)
            if proof.opened.all():
                return g, crs, net, proof, rng
        raise AssertionError("no reveal-all session in 50 trials")

    @staticmethod
    def _tampered(proof, how):
        if how == "shifted":
            # one place along: block 0 closed and an entry past ell (malformed)
            return replace(proof, opened=np.r_[False, proof.opened])
        if how == "missing":
            # well shaped and consistent with theta_I and the generator, but
            # the reveal-all repetition is no longer wholly opened
            opened = proof.opened.copy()
            opened[1] = False
            return replace(proof, opened=opened, theta_I=proof.theta_I[opened])
        return proof

    @pytest.mark.parametrize("how", [None, "shifted", "missing"])
    def test_epr_verify_accepts_only_the_true_full_set(self, how):
        g, crs, net, proof, rng = self._full_session("verify")
        b, residual = epr_verify(TINY, crs, net, g, self._tampered(proof, how), rng)
        assert b == (1 if how is None else 0)
        assert flat_mask(residual.opened, TINY.num_blocks)

    @pytest.mark.parametrize("how", [None, "shifted", "missing"])
    def test_hypothetical_verifier_accepts_only_the_true_full_set(self, how):
        g, crs, net, proof, rng = self._full_session("hypothetical")
        assert hypothetical_verifier(TINY, crs, net, g, self._tampered(proof, how), rng) == (1 if how is None else 0)

    @pytest.mark.parametrize("how", [None, "shifted", "missing"])
    def test_delete_after_rejection_covers_the_missing_blocks(self, how):
        g, crs, net, proof, rng = self._full_session("delete")
        _, residual = epr_verify(TINY, crs, net, g, self._tampered(proof, how), rng)
        cert, _ = epr_delete(TINY, residual, rng)
        assert cert.blocks.dtype == np.int64 and cert.blocks.tolist() == self.DELETED[how]
        assert np.array_equal(cert.blocks, np.flatnonzero(~residual.opened))
        assert cert.outcomes.shape == (len(cert.blocks),)


class TestPartialOpening:
    """A partly opened proof at the criterion-1 shape: the generator
    opening is restricted from the block mask, and only a naor opening
    keeps part of itself, the seeds of the opened blocks' pairs."""

    PARAMS = EprParams(hb=HbParams(n=4, repetitions=20, matrix_side=64, block_len=10), block_width=6)

    def test_dealer_proof_builds_no_pair_array(self):
        params = self.PARAMS
        rng = stream(0, "partial-opening")
        crs_bg = hbg_setup(params.num_blocks, "dealer", rng, width=params.block_width)
        com, theta, opening = hbg_genbits(crs_bg, rng)
        opened = np.ones(params.num_blocks, dtype=bool)
        opened[: params.hb.bits_per_rep] = False  # one repetition closed
        pi_hb = HbProof(tuple(RepRevealAll() for _ in range(params.hb.repetitions)))
        tracemalloc.start()
        try:
            proof = _assemble_proof(params, opened, pi_hb, com, theta, opening)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert proof.op_I is opening and np.array_equal(proof.theta_I, theta[opened])
        assert peak < 8 * 2**20

    def test_naor_opening_covers_the_pairs_of_the_opened_blocks(self, rng):
        seeds = np.arange(40 * 3, dtype=np.uint64) * 7
        opened = rng.random(40) < 0.5
        full = NaorOpening(seeds)
        sub = restrict_opening(full, opened, 3)
        assert isinstance(sub, NaorOpening) and np.array_equal(sub.seeds, seeds[np.flatnonzero(np.repeat(opened, 3))])
        assert restrict_opening(full, np.ones(40, dtype=bool), 3) is full


class TestRejectedOpenedSet:
    """A rejected proof keeps a well-shaped mask as the verifier's opened
    set, so deletion covers exactly the blocks it leaves closed. Anything
    else in the opened field is malformed and opens nothing, so deletion
    covers every block: a mask of the wrong length or rank, a non-bool
    array (a uint8 mask with a 2) and the int64 index arrays the first
    eight cases hold, valid index sets among them."""

    EVERY = list(range(9))
    CASES = {
        "duplicates": ([0, 0, 2, 3, 4, 5, 6, 7, 8], EVERY),
        "swapped": ([0, 1, 3, 2, 4, 5, 6, 7, 8], EVERY),
        "negative": ([-1, 1, 2, 3, 4, 5, 6, 7, 8], EVERY),
        "past_ell": ([0, 1, 2, 3, 4, 5, 6, 7, 9], EVERY),
        "empty": ([], EVERY),
        "two_d": ([[0, 2], [4, 6]], EVERY),
        "all_out_of_range": ([-3, 9, 20], EVERY),
        "mixed": ([5, 3, 5, -2, 11, 0], EVERY),
        "mask_short": (np.ones(8, dtype=bool), EVERY),
        "mask_long": (np.ones(10, dtype=bool), EVERY),
        "mask_two_d": (np.ones((3, 3), dtype=bool), EVERY),
        "mask_uint8_with_a_2": (np.array([2, 1, 1, 1, 1, 1, 1, 1, 1], dtype=np.uint8), EVERY),
        "mask_all_false": (np.zeros(9, dtype=bool), EVERY),
        # well shaped, but theta_I holds nine words
        "mask_disagrees_with_theta_rows": (np.isin(np.arange(9), [1, 4], invert=True), [1, 4]),
    }

    @staticmethod
    def _opened(name):
        opened = TestRejectedOpenedSet.CASES[name][0]
        return opened if isinstance(opened, np.ndarray) else np.asarray(opened, dtype=np.int64)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_delete_covers_the_blocks_left_unopened(self, name):
        expected = self.CASES[name][1]
        g, crs, net, proof, rng = TestFullOpenedSet._full_session("rejected")
        b, residual = epr_verify(TINY, crs, net, g, replace(proof, opened=self._opened(name)), rng)
        cert, _ = epr_delete(TINY, residual, rng)
        assert b == 0
        assert cert.blocks.dtype == np.int64 and cert.blocks.tolist() == expected
        assert cert.outcomes.shape == (len(expected),)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_verifier_state_holds_a_valid_opened_set(self, name):
        expected = self.CASES[name][1]
        g, crs, net, proof, rng = TestFullOpenedSet._full_session("rejected")
        _, residual = epr_verify(TINY, crs, net, g, replace(proof, opened=self._opened(name)), rng)
        assert flat_mask(residual.opened, TINY.num_blocks)
        assert np.flatnonzero(~residual.opened).tolist() == expected

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_hypothetical_verifier_rejects(self, name):
        g, crs, net, proof, rng = TestFullOpenedSet._full_session("rejected-hypothetical")
        assert hypothetical_verifier(TINY, crs, net, g, replace(proof, opened=self._opened(name)), rng) == 0


class TestMalformedNaorOpening:
    """A naor opening whose seeds do not line up with the committed bits
    of the opened blocks, whose seeds are not an integer array, or that
    holds a negative seed, rejects in the protocol and in both generator checks; nothing raises."""

    PARAMS = EprParams(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1), block_width=4, hbg_mode="naor")

    @pytest.mark.parametrize(
        "how",
        ["seeds_short", "seeds_two_d", "naor_short", "naor_long", "object_seeds", "naor_float_seeds", "negative_seed"],
    )
    def test_epr_verify_rejects(self, how):
        g, w = complete_digraph(3), canonical_cycle(3)
        rng = stream(0, "naor-malformed")
        crs, net = epr_setup(self.PARAMS, rng)
        proof, _ = epr_prove(self.PARAMS, crs, net, g, w, rng)
        seeds, width = proof.op_I.seeds, self.PARAMS.block_width
        assert proof.opened.all()  # so the proof ships the prover's whole opening
        bad = {
            "seeds_short": NaorOpening(seeds[:-1]),
            "seeds_two_d": NaorOpening(seeds[:, None]),
            "naor_short": NaorOpening(seeds[:-width]),  # one block's seeds missing
            "naor_long": NaorOpening(np.append(seeds, seeds[:1])),
            "object_seeds": NaorOpening(seeds.astype(object)),
            "naor_float_seeds": NaorOpening(seeds.astype(float)),
            # an int64 -1 would index G's last row if the seed range went unchecked
            "negative_seed": NaorOpening(np.where(np.arange(seeds.size) == 0, -1, seeds.astype(np.int64))),
        }[how]
        words = list(zip(np.flatnonzero(proof.opened).tolist(), proof.theta_I.tolist()))
        assert epr_verify(self.PARAMS, crs, net, g, replace(proof, op_I=bad), rng)[0] == 0
        assert not hbg_verify_batch(crs.crs_bg, proof.com, proof.opened, proof.theta_I, bad)
        assert not any(hbg_verify(crs.crs_bg, proof.com, i, t, bad) for i, t in words)
        assert hbg_verify_batch(crs.crs_bg, proof.com, proof.opened, proof.theta_I, proof.op_I)
        for i, t in words:
            one = np.arange(self.PARAMS.num_blocks) == i
            assert hbg_verify(crs.crs_bg, proof.com, i, t, restrict_opening(proof.op_I, one, width))


class TestMalformedProof:
    """Replacing one field of an honest proof, or the whole proof with None
    or another object, rejects in both verifiers, in both generator modes;
    nothing raises. theta_I must be unsigned block words, like a deletion
    certificate's outcomes."""

    CASES = {
        "theta_I_list": lambda p: replace(p, theta_I=p.theta_I.tolist()),
        "theta_I_float": lambda p: replace(p, theta_I=p.theta_I.astype(float)),
        "theta_I_signed": lambda p: replace(p, theta_I=p.theta_I.astype(np.int64)),
        "theta_I_bit_above_k": lambda p: replace(p, theta_I=p.theta_I | (1 << DELETING.block_width)),
        "com_none": lambda p: replace(p, com=None),
        "com_bytes": lambda p: replace(p, com=p.com.data),
        "pi_hb_none": lambda p: replace(p, pi_hb=None),
        "proof_none": lambda p: None,
        "proof_not_a_proof": lambda p: object(),
    }

    @staticmethod
    def _session(mode):
        params = replace(DELETING, hbg_mode=mode)
        g, w = two_vertex_instance()
        rng = stream(0, f"malformed-proof-{mode}")
        crs, net = epr_setup(params, rng)
        proof, _ = epr_prove(params, crs, net, g, w, rng)
        return params, g, crs, net, proof, rng

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    @pytest.mark.parametrize("how", sorted(CASES))
    def test_epr_verify_rejects(self, how, mode):
        params, g, crs, net, proof, rng = self._session(mode)
        assert epr_verify(params, crs, net, g, proof, rng)[0] == 1
        assert epr_verify(params, crs, net, g, self.CASES[how](proof), rng)[0] == 0

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    @pytest.mark.parametrize("how", sorted(CASES))
    def test_hypothetical_verifier_rejects(self, how, mode):
        params, g, crs, net, proof, rng = self._session(mode)
        assert hypothetical_verifier(params, crs, net, g, proof, rng) == 1
        assert hypothetical_verifier(params, crs, net, g, self.CASES[how](proof), rng) == 0


class TestAdversaries:
    def test_forged_prover_always_rejected(self):
        bad = non_hamiltonian_triangle()
        for trial in range(100):
            rng = stream(trial, "forge")
            crs, net = epr_setup(TINY, rng)
            premeasure_all_z(TINY, net, rng)
            proof = forged_proof_prover(TINY, crs, net, bad, rng)
            assert hypothetical_verifier(TINY, crs, net, bad, proof, rng) == 0

    def test_greedy_prover_rejected_at_rho_20(self):
        bad = non_hamiltonian_triangle()
        params = EprParams(hb=HbParams(n=3, repetitions=20, matrix_side=3, block_len=1), block_width=4)
        accepted = 0
        for trial in range(60):
            rng = stream(trial, "greedy20")
            crs, net = epr_setup(params, rng)
            premeasure_all_z(params, net, rng)
            proof = greedy_basis_prover(params, crs, net, bad, rng)
            accepted += hypothetical_verifier(params, crs, net, bad, proof, rng)
        assert accepted == 0


class TestCeZk:
    def test_real_and_sim_both_run(self, rng):
        g, w = complete_digraph(3), canonical_cycle(3)
        out, _, _ = run_cezk_real(TINY, g, w, honest_delete_vstar, rng)
        assert out != BOT and out["verdict"] == 1
        out2, _, _ = epr_sim(TINY, g, honest_delete_vstar, rng)
        assert out2 != BOT and out2["verdict"] == 1

    def test_sim_never_touches_witness(self):
        # structural: the simulator signature has no witness parameter
        import inspect

        sig = inspect.signature(epr_sim)
        assert "witness" not in sig.parameters

    def test_bot_rates_match(self):
        # under the honest-delete verifier both experiments certify always
        g, w = complete_digraph(3), canonical_cycle(3)
        bot_real = bot_sim = 0
        for trial in range(400):
            out, _, _ = run_cezk_real(TINY, g, w, honest_delete_vstar, stream(trial, "br"))
            bot_real += out == BOT
            out, _, _ = epr_sim(TINY, g, honest_delete_vstar, stream(trial, "bs"))
            bot_sim += out == BOT
        assert bot_real == bot_sim == 0

    def test_tv_real_vs_sim_small(self):
        # module-scale version of the acceptance experiment
        g, w = complete_digraph(3), canonical_cycle(3)
        real: dict = {}
        sim: dict = {}
        trials = 1500
        for trial in range(trials):
            out, _, _ = run_cezk_real(TINY, g, w, honest_delete_vstar, stream(trial, "tvr"))
            key = BOT if out == BOT else (out["verdict"], out["cert_blocks"], out["cert_bits"])
            real[key] = real.get(key, 0) + 1
            out, _, _ = epr_sim(TINY, g, honest_delete_vstar, stream(trial, "tvs"))
            key = BOT if out == BOT else (out["verdict"], out["cert_blocks"], out["cert_bits"])
            sim[key] = sim.get(key, 0) + 1
        keys = set(real) | set(sim)
        tv = 0.5 * sum(abs(real.get(k, 0) - sim.get(k, 0)) for k in keys) / trials
        assert tv <= 0.08
