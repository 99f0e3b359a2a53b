"""Attack-module tests: the strawman split, the derived proof system,
the failed split on the superposition protocol, and the deletion
experiment harness."""

import math
from collections.abc import Mapping

import numpy as np
import pytest

from cenizk import attacks
from cenizk import rng as rng_mod
from cenizk.attacks import (
    ADV_BASIS_INFORMED,
    ADV_HONEST_DELETER,
    ADV_KEEP_STATE,
    DeletionExperiment,
    DeletionOutcome,
    StrawmanParams,
    check_deletion_cert,
    commit_bits,
    deletion_cert_for_block,
    derived_prove,
    derived_soundness_adversary,
    derived_verify,
    keep_state_acceptance,
    open_commit,
    run_deletion_experiment,
    split_attack,
    split_attack_on_crs,
    strawman_prove,
    strawman_verify,
    td_estimate,
)
from cenizk.graphs import non_hamiltonian_triangle, triangle_both_cycles, two_cycle_pair
from cenizk.rng import stream
from cenizk.state import Bb84Descriptor, SparseState, prep_bb84


class TestCommitBlocks:
    """commit_bits returns (ys, thetas, cs) rows; a block's state is
    prep_bb84 of its row."""

    @staticmethod
    def _commit(m, width, rng):
        ys, thetas, cs = commit_bits([m], width, rng)
        assert ys.shape == thetas.shape == (1, width) and cs.shape == (1,)
        return ys[0], thetas[0], int(cs[0]), prep_bb84(Bb84Descriptor(ys[0], thetas[0]))

    def test_open_round_trip(self, rng):
        for m in (0, 1):
            y, theta, c, state = self._commit(m, 4, rng)
            assert open_commit(state, y, theta, c, rng) == m

    def test_wrong_basis_claim_detected(self, rng):
        detected = 0
        trials = 200
        for _ in range(trials):
            y, theta, c, state = self._commit(1, 6, rng)
            bad_theta = theta ^ 1  # flip every basis claim
            detected += open_commit(state, y, bad_theta, c, rng) is None
        assert detected > trials * 0.9  # per-position detection is 1/2

    def test_deletion_cert_checks_hadamard_positions(self, rng):
        y, theta, _, state = self._commit(0, 5, rng)
        cert = deletion_cert_for_block(state, rng)
        assert check_deletion_cert(cert, y, theta)

    def test_rows_are_the_two_draws(self):
        ms = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        ys, thetas, cs = commit_bits(ms, 5, stream(0, "commit-rows"))
        expected = rng_mod.bits(stream(0, "commit-rows"), (5, 5), count=2)
        assert np.array_equal(ys, expected[0]) and np.array_equal(thetas, expected[1])
        assert cs.tolist() == [int(m) ^ int(y[t == 0].sum() % 2) for m, y, t in zip(ms, ys, thetas)]


def _previous_rep_block(g, openings, full, cycle):
    """A cycle opening whose first block is swapped for the same cell of
    the repetition before it, a full one, where every off-diagonal cell
    of the triangle opens to 1: an id outside its repetition, whose cell
    index would wrap onto the cell it replaces."""
    kinds = [op["kind"] for op in openings]
    rep = next(r for r in range(1, len(kinds)) if kinds[r - 1 : r + 1] == ["full", "cycle"])
    prev, op = openings[rep - 1], openings[rep]
    j = prev["ids"].index(op["ids"][0] - g.n * g.n)
    swapped = {key: [prev[key][j]] + op[key][1:] for key in ("ids", "ys", "thetas")}
    return rep, {**op, **swapped}


# name -> (statement, openings, a full rep, a cycle rep) -> (rep, the opening sent there)
MALFORMED = {
    "none": lambda g, ops, full, cycle: (full, None),
    "str": lambda g, ops, full, cycle: (full, "abc"),
    "float_tau": lambda g, ops, full, cycle: (full, {**ops[full], "tau": [float(t) for t in ops[full]["tau"]]}),
    "cycle_kind_under_challenge_0": lambda g, ops, full, cycle: (full, {**ops[full], "kind": "cycle"}),
    "full_kind_under_challenge_1": lambda g, ops, full, cycle: (cycle, {**ops[cycle], "kind": "full"}),
    "full_missing_entry": lambda g, ops, full, cycle: (
        full,
        {key: value[:-1] if key in ("ids", "ys", "thetas") else value for key, value in ops[full].items()},
    ),
    "cycle_id_outside_rep": _previous_rep_block,
    # every listed cell counts toward the cycle, so each must be opened
    "cycle_block_listed_not_opened": lambda g, ops, full, cycle: (
        cycle,
        {**ops[cycle], "ys": ops[cycle]["ys"][:-1], "thetas": ops[cycle]["thetas"][:-1]},
    ),
}


def _zero_in_a_cycle(g, w, params):
    """An honest package but for one commitment: repetition 0's block at
    the image of the cycle's first edge commits to 0, and the hash of the
    changed commitments still asks repetition 0 for the cycle. Its cycle
    opening then opens that block to 0; every other check passes."""
    u, v = w.edges()[0]
    for trial in range(64):
        taus, ys, thetas, pads = (a[0] for a in attacks._draw_reps(g.n, params, stream(trial, "zero-in-cycle")))
        cs = attacks._permuted_adjacency(g, taus).ravel() ^ pads
        cs[attacks._entry_id(0, taus[0][u], taus[0][v], g.n)] ^= 1
        challenges = attacks._fs_challenges(g, cs, params.reps)
        if challenges[0] == 1:
            classical = attacks._opening_package(ys, thetas, cs, taus, w, challenges)
            return attacks._verification_half(classical, ys, thetas)
    raise AssertionError("no stream kept repetition 0 a cycle challenge")


class TestSplitAttack:
    def test_strawman_split_sixteen_blocks(self):
        # the 16-block instance: two-vertex statement, 4 repetitions
        g, w = two_cycle_pair()
        params = StrawmanParams(reps=4, width=4)
        assert params.block_count(g.n) == 16
        for trial in range(30):
            out = split_attack(params, g, w, stream(trial, "s16"))
            assert out.cert_accepts and out.verify_accepts

    def test_strawman_split_triangle(self):
        g, w, _ = triangle_both_cycles()
        params = StrawmanParams(reps=8, width=4)
        for trial in range(10):
            out = split_attack(params, g, w, stream(trial, "s3"))
            assert out.cert_accepts and out.verify_accepts

    def test_withholding_opened_blocks_fails_verification(self, rng):
        # the classical package alone, without the opened blocks' states
        g, w, _ = triangle_both_cycles()
        params = StrawmanParams(reps=6)
        proof, _ = strawman_prove(params, g, w, rng)
        package = {"classical": proof.classical, "opened_states": {}}
        assert strawman_verify(params, g, package, rng) == 0

    @pytest.mark.parametrize("how", sorted(MALFORMED) + ["cycle_opens_zero"])
    def test_malformed_opening_rejected(self, how, rng):
        # every challenge-0 opening is a full one carrying tau; 1.0 ==
        # 1 and hashes alike, so float entries would open the same bits
        g, w, _ = triangle_both_cycles()
        params = StrawmanParams(reps=8)
        proof, key = strawman_prove(params, g, w, rng)
        package = attacks._verification_half(proof.classical, key.ys, key.thetas)
        assert strawman_verify(params, g, package, rng) == 1
        if how == "cycle_opens_zero":
            package = _zero_in_a_cycle(g, w, params)
        else:
            openings = list(proof.classical["openings"])
            kinds = [op["kind"] for op in openings]
            full, cycle = kinds.index("full"), kinds.index("cycle")
            rep, opening = MALFORMED[how](g, openings, full, cycle)
            openings[rep] = opening
            package["classical"] = {**proof.classical, "openings": openings}
        assert strawman_verify(params, g, package, rng) == 0

    def test_split_fails_on_superposition_protocol(self):
        from cenizk.crs_nizk import toy_encode
        from cenizk.crs_protocol import CrsParams, crs_setup

        params = CrsParams()
        w = np.array([1, 0, 1, 1], dtype=np.uint8)
        x = toy_encode(w)
        full_wins = 0
        verify_wins = 0
        trials = 40
        for trial in range(trials):
            rng = stream(trial, "splitcrs")
            crs = crs_setup(rng)
            out = split_attack_on_crs(params, crs, x, w, rng)
            verify_wins += out.verify_accepts
            full_wins += out.cert_accepts and out.verify_accepts
        assert verify_wins == trials  # the copy always verifies
        assert full_wins <= max(2, int(0.05 * trials) + 1)  # certification breaks


class TestDerivedProofSystem:
    def test_completeness(self):
        g, w, _ = triangle_both_cycles()
        params = StrawmanParams(reps=8)
        for trial in range(20):
            rng = stream(trial, "dc")
            pkg = derived_prove(params, g, w, rng)
            assert derived_verify(params, g, pkg, rng) == 1

    def test_soundness_forger_rejected(self):
        bad = non_hamiltonian_triangle()
        params = StrawmanParams(reps=24)
        for trial in range(40):
            rng = stream(trial, "ds")
            pkg = derived_soundness_adversary(params, bad, rng, grind_tries=8)
            assert derived_verify(params, bad, pkg, rng) == 0

    @pytest.mark.parametrize("reps", [1, 7, 24])
    def test_one_grind_try_draws_once_per_attempt(self, reps, monkeypatch):
        """One forger, whatever grind_tries is: one draw for every
        attempt's guesses, one permuted call for every attempt's
        repetition permutations, then one draw for every attempt's
        blocks' ys and thetas."""
        honest_bits, calls, shuffles = rng_mod.bits, [], []

        def counting(gen, shape, count=1):
            calls.append((shape, count))
            return honest_bits(gen, shape, count=count)

        class CountingGenerator(np.random.Generator):
            def permuted(self, x, *, axis=None, out=None):
                shuffles.append(("permuted", np.shape(x), axis))
                return super().permuted(x, axis=axis, out=out)

            def permutation(self, x, axis=0):
                shuffles.append(("permutation", x))
                return super().permutation(x, axis=axis)

        monkeypatch.setattr(rng_mod, "bits", counting)
        bad = non_hamiltonian_triangle()
        for tries in (1, 3, 16):
            calls.clear()
            shuffles.clear()
            gen = CountingGenerator(stream(tries, "draws").bit_generator)
            derived_soundness_adversary(StrawmanParams(reps=reps, width=5), bad, gen, grind_tries=tries)
            assert calls == [((tries, reps), 1), ((tries, reps * 9, 5), 2)]
            assert shuffles == [("permuted", (tries * reps, 3), 1)]

    @pytest.mark.parametrize("tries", [1, 3, 16])
    def test_keeps_the_first_attempt_with_the_most_hits(self, tries):
        """Replaying the forger's draws and scoring each attempt on its
        own picks the attempt whose commitments the package carries."""
        bad, params = non_hamiltonian_triangle(), StrawmanParams(reps=7, width=5)
        for trial in range(20):
            package = derived_soundness_adversary(params, bad, stream(trial, "keep"), grind_tries=tries)
            replay = stream(trial, "keep")
            guesses = rng_mod.bits(replay, (tries, params.reps))
            taus, _, _, pads = attacks._draw_reps(3, params, replay, tries)
            hits, commitments = [], []
            for guess, tau, pad in zip(guesses, taus, pads):
                adjacency = attacks._permuted_adjacency(bad, tau)
                cs = np.where(guess[:, None, None] == 0, adjacency, 1).ravel() ^ pad
                hits.append(int(np.sum(attacks._fs_challenges(bad, cs, params.reps) == guess)))
                commitments.append(cs.tolist())
            kept = hits.index(max(hits))
            assert package["classical"]["cs"] == commitments[kept]
            assert derived_verify(params, bad, package, replay) == (max(hits) == params.reps)

    def test_witness_independence(self):
        """Two distinct Hamiltonian cycles of the triangle: per-repetition
        opened content must be identically distributed (the statistical
        zero-knowledge proxy)."""
        g, w1, w2 = triangle_both_cycles()
        params = StrawmanParams(reps=8)

        def rep_digests(witness, label):
            out = []
            for trial in range(400):
                rng = stream(trial, label)
                pkg = derived_prove(params, g, witness, rng)
                for rep, op in enumerate(pkg["classical"]["openings"]):
                    if op["kind"] == "full":
                        out.append(("full", tuple(op["tau"])))
                    else:
                        base = rep * g.n * g.n
                        cells = tuple(sorted((i - base) for i in op["ids"]))
                        out.append(("cycle", cells))
            return out

        a = rep_digests(w1, "wa")
        b = rep_digests(w2, "wb")
        keys = set(a) | set(b)
        ca = {k: a.count(k) for k in keys}
        cb = {k: b.count(k) for k in keys}
        tv = 0.5 * sum(abs(ca.get(k, 0) - cb.get(k, 0)) for k in keys) / len(a)
        assert tv <= 0.05


class _Reads(Mapping):
    """Records every id read through it, then delegates."""

    def __init__(self, inner):
        self.inner, self.ids = inner, []

    def __getitem__(self, i):
        self.ids.append(i)
        return self.inner[i]

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


class TestAttemptDraws:
    """`_draw_reps`, one attempt's draws: a permutation per repetition
    from one `permuted` call, then every block's ys and thetas."""

    ATTEMPTS = 3000
    REPS = 24
    # chi-square with 5 degrees of freedom exceeds 30.86 with probability 1e-5
    CHI2_BOUND = 30.86

    @pytest.fixture(scope="class")
    def codes(self):
        """(attempts, reps) index of each row's permutation of 3 vertices
        among the 6, in lexicographic order, all attempts drawn at once
        as the forger draws them."""
        rng = stream(0, "attempt-draws")
        params = StrawmanParams(reps=self.REPS)
        taus = attacks._draw_reps(3, params, rng, self.ATTEMPTS)[0]
        assert taus.shape == (self.ATTEMPTS, self.REPS, 3)
        assert (np.sort(taus, axis=-1) == np.arange(3)).all()
        return taus[..., 0] * 2 + (taus[..., 1] > taus[..., 2])

    def test_each_row_uniform_over_the_six_permutations(self, codes):
        expected = self.ATTEMPTS / 6
        for row in codes.T:
            counts = np.bincount(row, minlength=6)
            assert ((counts - expected) ** 2 / expected).sum() < self.CHI2_BOUND

    def test_rows_of_an_attempt_uncorrelated(self, codes):
        # equal at rate 1/6; 0.035 is about five standard deviations at 3,000 attempts
        assert abs(np.mean(codes[:, 0] == codes[:, 1]) - 1 / 6) < 0.035
        assert abs(np.mean(codes[:, :-1] == codes[:, 1:]) - 1 / 6) < 0.01

    @pytest.mark.parametrize("width", [4, 5])
    @pytest.mark.parametrize("reps", [1, 7, 24])
    def test_block_draws_follow_the_permutations(self, reps, width):
        """ys then thetas, (attempts, reps*n*n, width) each, drawn in one
        call right after the permutations; for one attempt at reps 24
        and width 5 the draw's 2,160 entries reach the word path, at
        width 4 its 1,728 do not. One attempt's draws are the strawman
        prover's."""
        params = StrawmanParams(reps=reps, width=width)
        for attempts in (1, 3):
            taus, ys, thetas, pads = attacks._draw_reps(3, params, stream(reps, width, "attempt-draws"), attempts)
            replay = stream(reps, width, "attempt-draws")
            permuted = replay.permuted(np.tile(np.arange(3), (attempts * reps, 1)), axis=1)
            assert np.array_equal(taus, permuted.reshape(attempts, reps, 3))
            expected = rng_mod.bits(replay, (attempts * reps * 9, width), count=2)
            assert ys.shape == thetas.shape == (attempts, reps * 9, width)
            assert np.array_equal(ys.reshape(-1, width), expected[0])
            assert np.array_equal(thetas.reshape(-1, width), expected[1])
            assert pads.shape == (attempts, reps * 9)
            assert pads.ravel().tolist() == [int(y[t == 0].sum() % 2) for y, t in zip(*expected)]


class TestLazyPackage:
    """A package's opened_states and a proof's blocks are one kind of map
    (`_BlockStates`): a block's state is prepared when its id is read."""

    @pytest.fixture
    def preps(self, monkeypatch):
        calls = []
        real = attacks.prep_bb84

        def counting(desc):
            calls.append(desc)
            return real(desc)

        monkeypatch.setattr(attacks, "prep_bb84", counting)
        return calls

    def _verify_counting_reads(self, params, x, package, rng):
        reads = _Reads(package["opened_states"])
        verdict = derived_verify(params, x, {**package, "opened_states": reads}, rng)
        return verdict, set(reads.ids)

    def test_forger_prepares_no_state(self, preps):
        bad, params = non_hamiltonian_triangle(), StrawmanParams()
        for trial in range(5):
            rng = stream(trial, "lazy-forger")
            package = derived_soundness_adversary(params, bad, rng)
            assert preps == []
            verdict, read = self._verify_counting_reads(params, bad, package, rng)
            assert verdict == 0
            assert 0 < len(preps) <= len(read)
            preps.clear()

    def test_verifier_prepares_only_what_it_reads(self, preps):
        g, w, _ = triangle_both_cycles()
        params = StrawmanParams(reps=8)
        for trial in range(5):
            rng = stream(trial, "lazy-prove")
            package = derived_prove(params, g, w, rng)
            assert preps == []
            verdict, read = self._verify_counting_reads(params, g, package, rng)
            assert verdict == 1
            assert len(preps) == len(read) == len(package["opened_states"])
            preps.clear()

    def test_keys_are_the_opened_ids(self):
        g, w, _ = triangle_both_cycles()
        package = derived_prove(StrawmanParams(reps=6), g, w, stream(0, "lazy-keys"))
        states, opened = package["opened_states"], package["classical"]["opened_ids"]
        assert len(states) == len(opened)
        assert list(states) == opened
        assert all(i in states for i in opened)

    def test_proof_blocks_list_every_block(self, preps):
        g, w, _ = triangle_both_cycles()
        params = StrawmanParams(reps=6)
        proof, key = strawman_prove(params, g, w, stream(0, "lazy-blocks"))
        assert preps == []
        assert list(proof.blocks) == list(range(params.block_count(g.n)))
        last = params.block_count(g.n) - 1
        assert proof.blocks[last] is proof.blocks[last] and len(preps) == 1
        assert proof.blocks[last].equals(prep_bb84(Bb84Descriptor(key.ys[last], key.thetas[last])), tol=0)
        with pytest.raises(KeyError):
            proof.blocks[last + 1]

    def test_unopened_id_verifies_to_zero(self, preps):
        g, w, _ = triangle_both_cycles()
        params = StrawmanParams(reps=6)
        rng = stream(0, "lazy-unopened")
        package = derived_prove(params, g, w, rng)
        opened = package["classical"]["opened_ids"]
        unopened = min(set(range(params.block_count(g.n))) - set(opened))
        assert unopened not in package["opened_states"]
        with pytest.raises(KeyError):
            package["opened_states"][unopened]
        assert preps == []
        classical = package["classical"]
        first = {**classical["openings"][0]}
        first["ids"] = [unopened] + first["ids"][1:]
        forged = {**classical, "openings": [first] + classical["openings"][1:]}
        assert derived_verify(params, g, {**package, "classical": forged}, rng) == 0
        assert derived_verify(params, g, package, rng) == 1


class TestDeletionExperiment:
    def test_honest_deleter_td_exactly_zero(self, rng):
        est = td_estimate(DeletionExperiment(3), rng)
        assert est.exact
        assert est.value <= 1e-9

    def test_leaking_fixture_td_large(self, rng):
        est = td_estimate(DeletionExperiment(2, ADV_BASIS_INFORMED), rng)
        assert est.exact
        assert est.value >= 0.5

    def test_keep_state_acceptance_matches_analytic(self, rng):
        lam = 4
        trials = 10_000
        rate = keep_state_acceptance(lam, trials, rng)
        p = 0.75**lam
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(rate - p) <= 3 * sigma

    def test_keep_state_outputs_register_on_acceptance(self, rng):
        exp = DeletionExperiment(3, ADV_KEEP_STATE)
        seen_state = False
        for _ in range(200):
            out = run_deletion_experiment(exp, 0, rng)
            if out.accepted:
                assert out.output_state is not None
                seen_state = True
        assert seen_state

    def test_honest_deleter_always_accepted_empty_output(self, rng):
        exp = DeletionExperiment(3)
        for _ in range(100):
            out = run_deletion_experiment(exp, 1, rng)
            assert out.accepted and out.output_state is None

    def test_monte_carlo_branch_with_hoeffding(self, rng):
        # beyond the exact guard: classical-digest TV with an interval
        exp = DeletionExperiment(6, ADV_KEEP_STATE)
        est = td_estimate(exp, rng, trials=2_000)
        assert not est.exact
        assert est.halfwidth > 0
        assert est.value <= 3 * est.halfwidth  # keep-state digests carry no b

    @pytest.mark.parametrize("lam", [2, 3])
    def test_exact_lane_builds_rho_from_the_adversary_output(self, monkeypatch, lam):
        # an honest deleter that also hands back |b> leaks b completely; the
        # exact lane sees that only if it reads what the adversary returns
        shared = attacks._run_adversary

        def leaky(exp, y, theta, b, measured, draw):
            out = shared(exp, y, theta, b, measured, draw)
            return DeletionOutcome(out.accepted, SparseState(1, {int(b): 1.0 + 0.0j}), out.classical)

        monkeypatch.setattr(attacks, "_run_adversary", leaky)
        est = td_estimate(DeletionExperiment(lam), stream(0, "leaky-deleter"))
        assert est.exact
        assert est.value == pytest.approx(1.0)

    @pytest.mark.parametrize("adversary", [ADV_HONEST_DELETER, ADV_BASIS_INFORMED])
    @pytest.mark.parametrize("lam", [2, 4])
    def test_monte_carlo_lane_agrees_with_the_exact_value(self, monkeypatch, lam, adversary):
        exp = DeletionExperiment(lam, adversary)
        exact = td_estimate(exp, stream(0, "td-exact"))
        monkeypatch.setattr(attacks, "EXACT_LAMBDA_LIMIT", 0)
        sampled = td_estimate(exp, stream(0, "td-monte-carlo"), trials=2_000)
        assert exact.exact and not sampled.exact
        assert abs(sampled.value - exact.value) <= 3 * sampled.halfwidth

    def test_exact_guard_rejects_large_lambda(self, rng):
        exp = DeletionExperiment(6)
        est = td_estimate(exp, rng, trials=500)
        assert not est.exact  # falls back to Monte Carlo past the guard
