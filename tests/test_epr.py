"""EPR network tests.

The factored representation (one basis word and one value word per
block and role, bit j for pair j) is cross-validated against the
generic sparse engine through `measure_blocks`, the measurement the
protocols run: for every basis combination the joint outcome
distribution of the two lanes must agree, on 1x1 networks (the whole
first touch, then re-reads of the collapsed network) and on a 2x1
network whose first touch is followed by single-block re-reads by
each role. A first touch of some blocks only is a usage error. The
lazy, shared representation (no arrays before the first measurement,
one record for both halves after it) is checked against engine states
through `half_state` of both roles.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cenizk.epr import ROLE_P, ROLE_V, EprNetwork
from cenizk.state import SimUsageError, SparseState, measure, project
from conftest import CHI2_CRIT_1DF

SQRT_HALF = math.sqrt(0.5)


BELL = SparseState(2, {0b00: SQRT_HALF, 0b11: SQRT_HALF})


def _assert_fresh(net, pairs):
    # the half of an entangled pair alone is mixed
    for role in (ROLE_P, ROLE_V):
        for pair in pairs:
            with pytest.raises(SimUsageError, match="mixed"):
                net.half_state(role, [pair])


def _assert_halves_are_engine_states(net, theta, y, pairs):
    """Both halves of each pair hold the engine's post-measurement state
    of the unmeasured qubit of a Bell pair measured in theta with value y."""
    for i, j in pairs:
        engine = _eigenstate((int(theta[i]) >> j) & 1, (int(y[i]) >> j) & 1)
        for role in (ROLE_P, ROLE_V):
            assert _same_state(net.half_state(role, [(i, j)]), engine)


def test_fresh_pair_is_epr(rng):
    # (|00>+|11>)/sqrt(2) = (|++>+|-->)/sqrt(2): a first measurement in
    # either basis gives either value and leaves both halves in the state
    # the engine gives
    for basis in (0, 1):
        seen = set()
        for _ in range(50):
            net = EprNetwork(1, 1)
            _assert_fresh(net, [(0, 0)])
            theta = np.array([basis], dtype=np.uint8)
            y = net.measure_blocks(ROLE_P, theta, rng)
            _assert_halves_are_engine_states(net, theta, y, [(0, 0)])
            seen.add(int(y[0]))
        assert seen == {0, 1}


def test_every_pair_reduces_to_epr_before_measurement(rng):
    net = EprNetwork(3, 2)
    pairs = list(itertools.product(range(3), range(2)))
    _assert_fresh(net, pairs)
    theta = rng.integers(0, 4, size=3, dtype=np.uint8)
    y = net.measure_blocks(ROLE_V, theta, rng)
    _assert_halves_are_engine_states(net, theta, y, pairs)


def test_zero_pairs_rejected():
    with pytest.raises(SimUsageError):
        EprNetwork(0, 1)


class TestCorrelations:
    def test_same_basis_z_always_agree(self, rng):
        for _ in range(300):
            net = EprNetwork(1, 1)
            a = net.measure_blocks(ROLE_P, np.array([0]), rng)
            b = net.measure_blocks(ROLE_V, np.array([0]), rng)
            assert a[0] == b[0]

    def test_same_basis_x_always_agree(self, rng):
        for _ in range(300):
            net = EprNetwork(1, 1)
            a = net.measure_blocks(ROLE_P, np.array([1]), rng)
            b = net.measure_blocks(ROLE_V, np.array([1]), rng)
            assert a[0] == b[0]

    def test_cross_basis_independent(self, rng):
        # P measured in Z, V in X: the 2x2 joint table must be flat
        counts = np.zeros((2, 2))
        for _ in range(10_000):
            net = EprNetwork(1, 1)
            a = net.measure_blocks(ROLE_P, np.array([0]), rng)[0]
            b = net.measure_blocks(ROLE_V, np.array([1]), rng)[0]
            counts[a, b] += 1
        # chi-square for independence with 1 df on the contingency table
        row = counts.sum(axis=1)
        col = counts.sum(axis=0)
        expected = np.outer(row, col) / counts.sum()
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < CHI2_CRIT_1DF

    def test_bulk_matches_scalar_semantics(self, rng):
        net = EprNetwork(5, 3)
        bases = rng.integers(0, 8, size=5, dtype=np.int8)
        out1 = net.measure_blocks(ROLE_P, bases, rng)
        # re-measuring the same half in the same bases repeats outcomes
        out2 = net.measure_blocks(ROLE_P, bases, rng)
        assert np.array_equal(out1, out2)


def _measure_one(net, role, basis, rng, block=None):
    """One half of the one-pair block `block` (None: the whole 1x1
    network) through `measure_blocks`; basis 0=Z 1=X."""
    blocks = None if block is None else [block]
    return int(net.measure_blocks(role, np.array([basis]), rng, blocks=blocks)[0])


class TestRemeasurement:
    def test_same_basis_idempotent(self, rng):
        for basis in (0, 1):
            for _ in range(100):
                net = EprNetwork(1, 1)
                a = _measure_one(net, ROLE_P, basis, rng)
                assert _measure_one(net, ROLE_P, basis, rng) == a

    def test_basis_change_does_not_touch_partner(self, rng):
        for _ in range(200):
            net = EprNetwork(1, 1)
            a = _measure_one(net, ROLE_P, 0, rng)  # Z collapse
            _measure_one(net, ROLE_P, 1, rng)  # X remeasure P
            # V's Z value was fixed by the first collapse
            assert _measure_one(net, ROLE_V, 0, rng) == a


class TestCrossValidationAgainstEngine:
    """Joint outcome distributions: `measure_blocks` vs generic engine."""

    def _engine_sample(self, b1, b2, rng):
        out, _ = measure(BELL, [0, 1], [b1, b2], rng)
        return int(out[0]), int(out[1])

    def _network_sample(self, b1, b2, rng):
        net = EprNetwork(1, 1)
        a = _measure_one(net, ROLE_P, 0 if b1 == "Z" else 1, rng)
        b = _measure_one(net, ROLE_V, 0 if b2 == "Z" else 1, rng)
        return a, b

    @pytest.mark.parametrize("b1,b2", [("Z", "Z"), ("Z", "X"), ("X", "Z"), ("X", "X")])
    def test_joint_distribution_agreement(self, b1, b2, rng):
        trials = 4000
        engine = np.zeros((2, 2))
        lane = np.zeros((2, 2))
        for _ in range(trials):
            o = self._engine_sample(b1, b2, rng)
            engine[o] += 1
            o = self._network_sample(b1, b2, rng)
            lane[o] += 1
        tv = 0.5 * np.abs(engine - lane).sum() / trials
        # identical distributions: empirical TV over 4 outcomes stays small
        assert tv < 0.05

    # two Bell pairs as engine qubits P0, V0, P1, V1
    _TWO_PAIRS = {0b0000: 0.5, 0b0011: 0.5, 0b1100: 0.5, 0b1111: 0.5}
    # engine qubit of each network measurement, in the order below
    _ENGINE_ORDER = (0, 2, 0, 1)

    def _engine_distribution(self, bases):
        """Exact joint distribution of the four outcomes, Born
        probabilities chained through `project`. A measured qubit is a
        product with the rest, so measuring it again projects the
        engine's post-measurement state of that one qubit and leaves
        the others alone."""
        dist = {}
        for outcome in itertools.product((0, 1), repeat=4):
            prob, state, measured = 1.0, SparseState(4, dict(self._TWO_PAIRS)), {}
            for q, b, v in zip(self._ENGINE_ORDER, bases, outcome):
                if q in measured:
                    p, post = project(_eigenstate(*measured[q]), 0, "ZX"[b], v)
                else:
                    p, post = project(state, q, "ZX"[b], v)
                    state = post
                measured[q] = (b, v)
                prob *= p  # p is 0.0 when post is None
                if post is None:
                    break
            dist[outcome] = prob
        return dist

    def _mixed_network_sample(self, bases, rng):
        # a mixed sequence of whole and single-block reads by both roles:
        # P measures both blocks (the first touch), then re-reads block 0
        # (the same basis repeats, another draws fresh), then V reads
        # block 0, whose record must still be the first touch's
        b_p0, b_p1, b_p0_again, b_v0 = bases
        net = EprNetwork(2, 1)
        p = net.measure_blocks(ROLE_P, np.array([b_p0, b_p1]), rng)
        p0_again = _measure_one(net, ROLE_P, b_p0_again, rng, block=0)
        v0 = _measure_one(net, ROLE_V, b_v0, rng, block=0)
        return int(p[0]), int(p[1]), p0_again, v0

    @pytest.mark.parametrize("bases", list(itertools.product((0, 1), repeat=4)))
    def test_mixed_branch_joint_distribution(self, bases, rng):
        trials = 3000
        exact = self._engine_distribution(bases)
        lane = dict.fromkeys(exact, 0)
        for _ in range(trials):
            lane[self._mixed_network_sample(bases, rng)] += 1
        impossible = [o for o, p in exact.items() if p == 0.0 and lane[o]]
        assert not impossible, f"outcomes the engine rules out: {impossible}"
        tv = 0.5 * sum(abs(lane[o] / trials - p) for o, p in exact.items())
        # up to 16 outcomes: sampling TV stays near 0.03 at this trial count
        assert tv < 0.07


class TestExtraction:
    def test_half_state_requires_collapse(self, rng):
        net = EprNetwork(1, 2)
        with pytest.raises(SimUsageError):
            net.half_state(ROLE_V, [(0, 0)])
        net.measure_blocks(ROLE_P, np.array([0b01]), rng)  # pair 0 in X, pair 1 in Z
        st = net.half_state(ROLE_V, [(0, 0), (0, 1)])
        assert st.num_qubits == 2
        assert st.norm_sq() == pytest.approx(1.0)


def _unmeasured(pair, q):
    """One-qubit state of qubit q (0 = P, the high key bit) of an engine
    pair state whose other qubit `project` has measured out."""
    return SparseState(1, {(key >> (1 - q)) & 1: amp for key, amp in pair.amps.items()})


def _eigenstate(basis, value):
    """The engine's one-qubit state after a measurement in basis (0=Z
    1=X) gave value: the partner of a Bell pair measured that way."""
    return _unmeasured(project(BELL, 0, "ZX"[basis], value)[1], 1)


def _same_state(a, b):
    """Equal single-register pure states, up to a global phase."""
    overlap = sum(amp * np.conj(b.amps.get(key, 0)) for key, amp in a.amps.items())
    return a.num_qubits == b.num_qubits and abs(abs(overlap) - 1.0) < 1e-12


class TestSharedRecords:
    """After a whole-network first touch both halves share one record;
    later measurements must not leak through it into the partner."""

    def test_partial_other_basis_leaves_partner_unchanged(self, rng):
        net = EprNetwork(4, 3)
        theta = rng.integers(0, 8, size=4, dtype=np.uint8)
        y = net.measure_blocks(ROLE_P, theta, rng)
        theta_before, y_before = theta.copy(), y.copy()

        def halves():
            # every half but P's in block 1
            pairs = itertools.product((ROLE_P, ROLE_V), range(4), range(3))
            return [net.half_state(role, [(i, j)]).amps for role, i, j in pairs if role == ROLE_V or i != 1]

        before = halves()
        # P re-measures block 1 in the other basis
        net.measure_blocks(ROLE_P, theta[[1]] ^ 0b111, rng, blocks=[1])
        # V's half, and P's outside block 1, are as before
        assert halves() == before
        # V re-reads in theta and still gets the first-touch outcomes
        assert np.array_equal(net.measure_blocks(ROLE_V, theta, rng), y_before)
        # the arrays handed in and out at first touch are untouched
        assert np.array_equal(theta, theta_before) and np.array_equal(y, y_before)

    def test_partial_other_basis_matches_engine(self, rng):
        # whole first touch of a 2x1 network in bases (b, b'), then P
        # re-measures block 0 in the other basis: V's halves must stay
        # the engine's post-measurement states of their qubits, and P's
        # half of block 0 must become the state the engine gives for
        # the new outcome
        for theta in itertools.product((0, 1), repeat=2):
            for _ in range(20):
                net = EprNetwork(2, 1)
                y = net.measure_blocks(ROLE_P, np.array(theta, dtype=np.uint8), rng)
                v_states = [_eigenstate(b, int(a)) for b, a in zip(theta, y)]
                c = _measure_one(net, ROLE_P, 1 - theta[0], rng, block=0)
                for i in range(2):
                    assert _same_state(net.half_state(ROLE_V, [(i, 0)]), v_states[i])
                # P's qubit in basis 1-b with value c, as the engine
                # leaves it when its partner is measured that way
                p_state = _unmeasured(project(BELL, 1, "ZX"[1 - theta[0]], c)[1], 0)
                assert _same_state(net.half_state(ROLE_P, [(0, 0)]), p_state)
                assert _same_state(net.half_state(ROLE_P, [(1, 0)]), v_states[1])

    def test_same_basis_whole_reread_draws_nothing(self, rng):
        net = EprNetwork(3, 2)
        theta = rng.integers(0, 4, size=3, dtype=np.uint8)
        y = net.measure_blocks(ROLE_P, theta, rng)
        position = rng.bit_generator.state
        # the same array object, and an equal copy of it
        for bases in (theta, theta.copy()):
            for role in (ROLE_V, ROLE_P):
                assert np.array_equal(net.measure_blocks(role, bases, rng), y)
        assert rng.bit_generator.state == position
        _assert_halves_are_engine_states(net, theta, y, itertools.product(range(3), range(2)))

    def test_empty_block_list_draws_nothing(self, rng):
        net = EprNetwork(3, 2)
        position = rng.bit_generator.state
        out = net.measure_blocks(ROLE_V, np.ones(0, dtype=np.uint8), rng, blocks=[])
        assert out.shape == (0,)
        assert rng.bit_generator.state == position
        _assert_fresh(net, [(2, 1)])

    def test_partial_first_touch_rejected(self, rng):
        # on a fresh network only the whole network may be measured: a
        # block list, even one naming every block, raises before any draw
        net = EprNetwork(3, 2)
        position = rng.bit_generator.state
        for blocks in ([0, 2], [0, 1, 2]):
            with pytest.raises(SimUsageError, match="cover every pair"):
                net.measure_blocks(ROLE_P, np.zeros(len(blocks), dtype=np.uint8), rng, blocks=blocks)
        assert rng.bit_generator.state == position
        _assert_fresh(net, list(itertools.product(range(3), range(2))))

    def test_prep_allocates_nothing_at_criterion_one_shape(self, rng):
        # 819,200 blocks of 6: one word per block is 0.8 MB
        tracemalloc.start()
        try:
            net = EprNetwork(819_200, 6)
            # an empty block list (epr_delete when every block is opened)
            # must not materialise the records either
            empty = net.measure_blocks(ROLE_V, np.ones(0, dtype=np.uint8), rng, blocks=[])
            _, peak = tracemalloc.get_traced_memory()
            assert empty.shape == (0,) and peak < 64 * 1024
            _assert_fresh(net, [(819_199, 5)])
            # the first whole touch stores the bases and outcomes once
            tracemalloc.reset_peak()
            theta = np.zeros(819_200, dtype=np.uint8)
            before, _ = tracemalloc.get_traced_memory()
            net.measure_blocks(ROLE_P, theta, rng)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 819_200 + 64 * 1024


class TestBlockWords:
    def test_basis_change_redraws_only_the_changed_pairs(self, rng):
        net = EprNetwork(4096, 6)
        theta = rng.integers(0, 64, size=4096, dtype=np.uint8)
        y = net.measure_blocks(ROLE_P, theta, rng).copy()
        flip = rng.integers(0, 64, size=4096, dtype=np.uint8)
        again = net.measure_blocks(ROLE_P, theta ^ flip, rng)
        # pairs re-measured in their basis repeat; changed ones are fresh
        assert not np.any((again ^ y) & ~flip & 0b111111)
        changed = np.unpackbits(flip, bitorder="little").astype(bool)
        agree = np.unpackbits(~(again ^ y), bitorder="little").astype(bool)[changed].mean()
        assert abs(agree - 0.5) < 0.02
        # V's record is still the first touch
        assert np.array_equal(net.measure_blocks(ROLE_V, theta, rng), y)

    def test_width_above_a_byte_rejected(self):
        with pytest.raises(SimUsageError, match="at most 8"):
            EprNetwork(2, 9)

    @pytest.mark.parametrize(
        "bases", [np.array([0, 64]), np.array([0, -1]), np.zeros((2, 6), dtype=np.uint8), np.array([0.0, 1.0])]
    )
    def test_malformed_bases_rejected(self, bases, rng):
        with pytest.raises(SimUsageError, match="word per block"):
            EprNetwork(2, 6).measure_blocks(ROLE_P, bases, rng)
