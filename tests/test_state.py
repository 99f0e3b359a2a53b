"""Sparse statevector engine tests.

The trace-distance check uses the pure-state closed form
sqrt(1 - |<a|b>|^2) as an independent oracle against the eigenvalue
computation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cenizk.state import (
    PRUNE_EPS,
    Bb84Descriptor,
    SimUsageError,
    SparseState,
    append_register,
    apply_oracle,
    density_matrix,
    drop_last_register,
    dump_lines,
    measure,
    measure_flag,
    prep_bb84,
    project,
    trace_distance,
)
from cenizk.state import _read, _spans
from cenizk.rng import stream
from conftest import CHI2_CRIT_1DF, chi_square_uniform

SQRT_HALF = math.sqrt(0.5)


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


class TestPrepBb84:
    def test_h_zero(self):
        st_ = prep_bb84(Bb84Descriptor("0", "1"))
        assert st_.amps[0] == pytest.approx(SQRT_HALF)
        assert st_.amps[1] == pytest.approx(SQRT_HALF)

    def test_h_one(self):
        st_ = prep_bb84(Bb84Descriptor("1", "1"))
        assert st_.amps[0] == pytest.approx(SQRT_HALF)
        assert st_.amps[1] == pytest.approx(-SQRT_HALF)

    def test_computational(self):
        st_ = prep_bb84(Bb84Descriptor("10", "00"))
        assert st_.amps == {0b10: pytest.approx(1.0)}

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_support_and_signs(self, y_int, th_int):
        y = np.array([(y_int >> (5 - i)) & 1 for i in range(6)], dtype=np.uint8)
        theta = np.array([(th_int >> (5 - i)) & 1 for i in range(6)], dtype=np.uint8)
        st_ = prep_bb84(Bb84Descriptor(y, theta))
        wt = int(theta.sum())
        assert st_.num_terms() == 1 << wt
        mag = 2.0 ** (-wt / 2)
        for key, amp in st_.amps.items():
            z = np.array([(key >> (5 - i)) & 1 for i in range(6)], dtype=np.uint8)
            assert np.all(z[theta == 0] == y[theta == 0])
            sign = (-1) ** int(np.sum(y[theta == 1] * z[theta == 1]) % 2)
            assert amp == pytest.approx(sign * mag)

    def test_length_mismatch(self):
        with pytest.raises(SimUsageError):
            Bb84Descriptor("01", "011")


class TestMeasure:
    def test_eigenstate_returns_y_exhaustive_256(self, rng):
        # every 4-qubit (y, theta) pair: measuring in basis theta gives y
        for y_int in range(16):
            for th_int in range(16):
                y = [(y_int >> (3 - i)) & 1 for i in range(4)]
                theta = [(th_int >> (3 - i)) & 1 for i in range(4)]
                st_ = prep_bb84(Bb84Descriptor(y, theta))
                bases = ["X" if t else "Z" for t in theta]
                out, _ = measure(st_, [0, 1, 2, 3], bases, rng)
                assert list(out) == y

    def test_plus_state_unbiased(self, rng):
        counts = [0, 0]
        for _ in range(10_000):
            out, _ = measure(prep_bb84(Bb84Descriptor("0", "1")), [0], ["Z"], rng)
            counts[out[0]] += 1
        assert chi_square_uniform(counts) < CHI2_CRIT_1DF

    def test_all_hadamard_all_x_recovers_y(self, rng):
        for y_int in range(16):
            y = [(y_int >> (3 - i)) & 1 for i in range(4)]
            st_ = prep_bb84(Bb84Descriptor(y, [1, 1, 1, 1]))
            out, _ = measure(st_, [0, 1, 2, 3], ["X"] * 4, rng)
            assert list(out) == y

    def test_x_measure_never_grows_terms(self, rng):
        st_ = prep_bb84(Bb84Descriptor("010110", "111001"))
        before = st_.num_terms()
        out, post = measure(st_, [0, 1, 2], ["X", "X", "X"], rng)
        assert post.num_terms() <= before

    def test_remeasure_retired_qubit_errors(self, rng):
        st_ = prep_bb84(Bb84Descriptor("00", "10"))
        _, post = measure(st_, [0], ["X"], rng)
        with pytest.raises(SimUsageError):
            measure(post, [0], ["Z"], rng)

    def test_duplicate_indices_error(self, rng):
        st_ = prep_bb84(Bb84Descriptor("00", "00"))
        with pytest.raises(SimUsageError):
            measure(st_, [0, 0], ["Z", "Z"], rng)


class TestOracle:
    def test_cnot_copy(self):
        st_ = prep_bb84(Bb84Descriptor("0", "1"))
        st_ = append_register(st_, 1)
        st_ = apply_oracle(st_, [0], [1], lambda z: z)
        assert set(st_.amps) == {0b00, 0b11}

    def test_involution_exact(self):
        st_ = append_register(prep_bb84(Bb84Descriptor("0110", "1010")), 3)
        f = lambda z: (z * 5) & 0b111
        once = apply_oracle(st_, [0, 1, 2, 3], [4, 5, 6], f)
        twice = apply_oracle(once, [0, 1, 2, 3], [4, 5, 6], f)
        assert twice.amps == st_.amps  # exact, not approximate

    def test_parity_of_bell_state(self):
        # (|00>+|11>)/sqrt(2) |0> -> parity lands in the ancilla: 0 for both terms
        bell = SparseState(2, {0b00: SQRT_HALF, 0b11: SQRT_HALF})
        st_ = append_register(bell, 1)
        st_ = apply_oracle(st_, [0, 1], [2], lambda z: (z ^ (z >> 1)) & 1)
        assert set(st_.amps) == {0b000, 0b110}

    def test_non_contiguous_registers(self):
        st_ = append_register(prep_bb84(Bb84Descriptor("10", "00")), 2)
        out = apply_oracle(st_, [2, 0], [3], lambda z: z & 1)  # reads qubits 2,0
        assert set(out.amps) == {0b1001}  # f(in=0b01)=1 lands on qubit 3

    @given(st.permutations(range(8)), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**8 - 1))
    @settings(max_examples=60, deadline=None)
    def test_register_spans_match_per_bit_reference(self, order, n_in, n_out, y_int):
        # in/out registers made of several runs, in arbitrary order; the
        # per-bit loop is the reference for extract and deposit
        in_reg, out_reg = list(order[:n_in]), list(order[n_in : n_in + n_out])
        st_ = prep_bb84(Bb84Descriptor(format(y_int, "08b"), "10110100"))
        f = lambda z: (z * 3 + 1) & ((1 << n_out) - 1)

        def read(k, reg):
            return int("".join(str((k >> (7 - q)) & 1) for q in reg), 2)

        expected = {}
        for k, a in st_.amps.items():
            y = f(read(k, in_reg))
            for pos, q in enumerate(out_reg):
                k ^= ((y >> (n_out - 1 - pos)) & 1) << (7 - q)
            expected[k] = a
        assert apply_oracle(st_, in_reg, out_reg, f).amps == expected

        rho = density_matrix(st_, in_reg)
        ref = np.zeros_like(rho)
        rest = [q for q in range(8) if q not in in_reg]
        for k, a in st_.amps.items():
            for k2, a2 in st_.amps.items():
                if read(k, rest) == read(k2, rest):
                    ref[read(k, in_reg), read(k2, in_reg)] += a * np.conj(a2)
        assert np.allclose(rho, ref, atol=1e-12)

    def test_output_width_mismatch(self):
        st_ = append_register(SparseState(1, {0: 1.0 + 0.0j}), 1)
        with pytest.raises(SimUsageError):
            apply_oracle(st_, [0], [1], lambda z: 2)

    def test_overlapping_registers_error(self):
        st_ = SparseState(2, {0: 1.0 + 0.0j})
        with pytest.raises(SimUsageError):
            apply_oracle(st_, [0], [0], lambda z: z)


class TestAppendDrop:
    def test_append_extends_keys(self):
        st_ = append_register(prep_bb84(Bb84Descriptor("1", "0")), 2)
        assert set(st_.amps) == {0b100}

    def test_append_preserves_norm_and_terms(self):
        st_ = prep_bb84(Bb84Descriptor("01", "11"))
        grown = append_register(st_, 3)
        assert grown.num_terms() == st_.num_terms()
        assert grown.norm_sq() == pytest.approx(1.0)

    def test_drop_requires_agreement(self):
        st_ = SparseState(2, {0b00: SQRT_HALF, 0b11: SQRT_HALF})
        with pytest.raises(SimUsageError):
            drop_last_register(st_, 1)
        ok = SparseState(2, {0b01: SQRT_HALF, 0b11: SQRT_HALF})
        dropped = drop_last_register(ok, 1)
        assert set(dropped.amps) == {0b0, 0b1}


class TestProject:
    def test_zero_onto_zero(self):
        prob, post = project(SparseState(1, {0: 1.0 + 0.0j}), 0, "Z", 0)
        assert prob == pytest.approx(1.0)
        assert post.amps == {0: pytest.approx(1.0)}

    def test_zero_onto_one_is_bot(self):
        prob, post = project(SparseState(1, {0: 1.0 + 0.0j}), 0, "Z", 1)
        assert prob == 0.0 and post is None

    def test_plus_onto_zero(self):
        prob, post = project(prep_bb84(Bb84Descriptor("0", "1")), 0, "Z", 0)
        assert prob == pytest.approx(0.5)
        assert post.amps == {0: pytest.approx(1.0)}

    def test_x_projection_on_eigenstate(self):
        prob, post = project(prep_bb84(Bb84Descriptor("1", "1")), 0, "X", 1)
        assert prob == pytest.approx(1.0)
        prob0, _ = project(prep_bb84(Bb84Descriptor("1", "1")), 0, "X", 0)
        assert prob0 == 0.0


class TestDensityAndTraceDistance:
    def test_identical_states(self):
        rho = density_matrix(prep_bb84(Bb84Descriptor("0", "0")), [0])
        assert trace_distance(rho, rho) == pytest.approx(0.0)

    def test_orthogonal_pure_states(self):
        r0 = density_matrix(prep_bb84(Bb84Descriptor("0", "0")), [0])
        r1 = density_matrix(prep_bb84(Bb84Descriptor("1", "0")), [0])
        assert trace_distance(r0, r1) == pytest.approx(1.0)

    def test_pure_state_closed_form_oracle(self):
        # independent oracle: TD = sqrt(1 - |<a|b>|^2) for pure states
        a = prep_bb84(Bb84Descriptor("0", "0"))
        b = prep_bb84(Bb84Descriptor("0", "1"))
        overlap = sum(a.amps.get(k, 0).conjugate() * v for k, v in b.amps.items())
        oracle = math.sqrt(1.0 - abs(overlap) ** 2)
        td = trace_distance(density_matrix(a, [0]), density_matrix(b, [0]))
        assert td == pytest.approx(oracle)
        assert td == pytest.approx(math.sqrt(0.5))

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_range(self, y1, t1, y2, t2):
        fmt = lambda v: format(v, "04b")
        r1 = density_matrix(prep_bb84(Bb84Descriptor(fmt(y1), fmt(t1))), [0, 1, 2, 3])
        r2 = density_matrix(prep_bb84(Bb84Descriptor(fmt(y2), fmt(t2))), [0, 1, 2, 3])
        d12 = trace_distance(r1, r2)
        d21 = trace_distance(r2, r1)
        assert d12 == pytest.approx(d21)
        assert -1e-12 <= d12 <= 1.0 + 1e-12

    def test_reduced_epr_half_is_maximally_mixed(self):
        bell = SparseState(2, {0b00: SQRT_HALF, 0b11: SQRT_HALF})
        rho = density_matrix(bell, [0])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_dense_guard(self):
        st_ = SparseState(14, {0: 1.0 + 0.0j})
        with pytest.raises(SimUsageError):
            density_matrix(st_, list(range(13)))


class TestNormalization:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30, deadline=None)
    def test_norm_after_prep_and_oracle(self, y_int, th_int):
        y = format(y_int, "08b")
        theta = format(th_int, "08b")
        st_ = prep_bb84(Bb84Descriptor(y, theta))
        assert st_.norm_sq() == pytest.approx(1.0, abs=1e-9)
        st_ = append_register(st_, 2)
        st_ = apply_oracle(st_, list(range(8)), [8, 9], lambda z: z & 0b11)
        assert st_.norm_sq() == pytest.approx(1.0, abs=1e-9)

    def test_norm_after_measurement_chain(self, rng):
        st_ = prep_bb84(Bb84Descriptor("01100", "11011"))
        out, post = measure(st_, [0, 1, 2, 3, 4], ["X", "X", "Z", "X", "X"], rng)
        assert post.norm_sq() == pytest.approx(1.0, abs=1e-9)


class TestDump:
    def test_golden_lines(self):
        st_ = prep_bb84(Bb84Descriptor("11", "01"))
        assert dump_lines(st_) == [
            "10 7.071067811865e-01 0.000000000000e+00",
            "11 -7.071067811865e-01 0.000000000000e+00",
        ]

    def test_signed_zero_parts_print_their_sign(self):
        # 0.5+0j == 0.5-0j, yet the two lines differ in the imaginary sign
        st_ = SparseState(2, {0b00: 0.5 + 0j, 0b01: complex(0.5, -0.0), 0b10: -0.5 + 0j, 0b11: complex(-0.5, -0.0)})
        assert dump_lines(st_) == [
            "00 5.000000000000e-01 0.000000000000e+00",
            "01 5.000000000000e-01 -0.000000000000e+00",
            "10 -5.000000000000e-01 0.000000000000e+00",
            "11 -5.000000000000e-01 -0.000000000000e+00",
        ]
        assert dump_lines(SparseState(1, {0: complex(-0.0, 1.0)})) == ["0 -0.000000000000e+00 1.000000000000e+00"]

    def test_sorted_lexicographically(self):
        st_ = prep_bb84(Bb84Descriptor("000", "111"))
        lines = dump_lines(st_)
        assert lines == sorted(lines)
        assert len(lines) == 8


# ---------------------------------------------------------------------
# the rewritten primitives pinned against the per-term loops they replaced
# ---------------------------------------------------------------------


def prep_bb84_reference(y, theta):
    """The per-bit loop prep_bb84 used to run: one pass over the
    Hadamard positions for every support term."""
    n = len(y)
    had = [j for j in range(n) if theta[j]]
    wt = len(had)
    base = 0
    for j in range(n):
        if theta[j] == 0 and y[j]:
            base |= 1 << (n - 1 - j)
    mag = 2.0 ** (-wt / 2.0)
    amps = {}
    for assign in range(1 << wt):
        key = base
        sign_bits = 0
        for pos, j in enumerate(had):
            if (assign >> (wt - 1 - pos)) & 1:
                key |= 1 << (n - 1 - j)
                sign_bits ^= y[j]
        amps[key] = complex(mag if sign_bits == 0 else -mag)
    return amps


def dump_lines_reference(st_):
    rows = [f"{format(k, f'0{st_.num_qubits}b')} {a.real:.12e} {a.imag:.12e}" for k, a in st_.amps.items()]
    return sorted(rows)


class TestAgainstReferenceLoops:
    def test_prep_bb84_matches_per_bit_loop_up_to_six_qubits(self):
        # keys, amplitudes (sign of a zero imaginary part included) and
        # dict iteration order, which fixes every later summation order
        for n in range(7):
            for y_int in range(1 << n):
                y = [(y_int >> (n - 1 - i)) & 1 for i in range(n)]
                for th_int in range(1 << n):
                    theta = [(th_int >> (n - 1 - i)) & 1 for i in range(n)]
                    got = prep_bb84(Bb84Descriptor(y, theta)).amps
                    assert repr(list(got.items())) == repr(list(prep_bb84_reference(y, theta).items()))

    def test_oracle_refuses_negative_output(self):
        st_ = append_register(prep_bb84(Bb84Descriptor("00", "10")), 2)
        with pytest.raises(SimUsageError):
            apply_oracle(st_, [0, 1], [2, 3], lambda z: z - 1)  # -1 on the z = 0 term
        with pytest.raises(SimUsageError):
            apply_oracle(st_, [0, 1], [2, 3], lambda z: -1)

    def test_oracle_refuses_output_wider_than_out_reg(self):
        st_ = append_register(prep_bb84(Bb84Descriptor("01", "10")), 2)
        with pytest.raises(SimUsageError):
            apply_oracle(st_, [0, 1], [2, 3], lambda z: 4 if z else 3)
        assert apply_oracle(st_, [0, 1], [2, 3], lambda z: 3).num_terms() == 2

    def test_multi_span_deposit_matches_per_bit_reference(self):
        # out_reg of three runs listed out of order, in_reg of two runs
        st_ = append_register(prep_bb84(Bb84Descriptor("101101", "110110")), 6)
        in_reg, out_reg = [4, 5, 0, 1, 2], [11, 6, 7, 3, 9, 10]
        n = st_.num_qubits
        f = lambda z: (z * 37 + 5) & 0b111111

        def read(k, reg):
            return int("".join(str((k >> (n - 1 - q)) & 1) for q in reg), 2)

        expected = {}
        for k, a in st_.amps.items():
            y = f(read(k, in_reg))
            for pos, q in enumerate(out_reg):
                k ^= ((y >> (len(out_reg) - 1 - pos)) & 1) << (n - 1 - q)
            expected[k] = a
        assert list(apply_oracle(st_, in_reg, out_reg, f).amps.items()) == list(expected.items())

    @pytest.mark.parametrize(
        "reg",
        [[], [3], [0, 1, 2], [4, 5, 0, 1], [9, 2, 3, 7], [11, 0, 5, 6, 1], list(range(11, -1, -1)), list(range(12))],
        ids=repr,
    )
    def test_read_matches_per_bit_reference(self, reg):
        # 0, 1, 2 and 3+ runs; key 0 and the full-width key are included
        n = 12
        keys = [0, (1 << n) - 1] + stream(3, "read").integers(0, 1 << n, size=64).tolist()
        want = [sum(((k >> (n - 1 - q)) & 1) << (len(reg) - 1 - pos) for pos, q in enumerate(reg)) for k in keys]
        assert _read(keys, _spans(n, reg)) == want
        assert _read(dict.fromkeys(keys[:2]), _spans(n, reg)) == want[:2]

    @pytest.mark.parametrize(
        "amps",
        [
            {0: 1.0 + 0j, 1: 1.0 + 0j},  # norm 2
            {0: 1.0 + 0j, 1: 1e-13 + 0j},  # unpruned tiny term
            {0b100: 1.0 + 0j},  # key >= 2^n
            {-1: 1.0 + 0j},  # negative key
        ],
    )
    def test_state_invariants_are_asserted(self, amps):
        with pytest.raises(AssertionError):
            SparseState(2, amps)

    def test_dump_lines_matches_sorted_strings(self, rng):
        st_ = append_register(prep_bb84(Bb84Descriptor("01101001", "11010111")), 4)
        st_ = apply_oracle(st_, list(range(8)), [8, 9, 10, 11], lambda z: (z * 11) & 0b1111)
        _, measured = measure(st_, [0, 3], ["X", "Z"], rng)
        for s in (st_, measured, SparseState(3, {0b101: -1.0 + 0j})):
            assert dump_lines(s) == dump_lines_reference(s)

    @pytest.mark.parametrize(
        "num_qubits,amps",
        [
            (5, {0: 1.0 + 0j}),  # key 0
            (1, {0: complex(SQRT_HALF, -0.0), 1: complex(-0.0, -SQRT_HALF)}),  # one qubit
            (320, {(1 << 320) - 1: complex(-0.0, 1.0)}),  # full-width key
            (320, {0: complex(-SQRT_HALF, -0.0), (1 << 320) - 1: complex(-0.0, SQRT_HALF)}),
            (4, {0b0001: complex(0.5, -0.0), 0b1000: complex(-0.0, 0.5), 0b1111: -0.5 + 0j, 0: complex(-0.5, -0.0)}),
        ],
    )
    def test_dump_lines_edge_keys_match_format_reference(self, num_qubits, amps):
        # key 0, one qubit, a full-width key and signed-zero parts print as
        # format(k, "0{n}b") and "{:.12e}" print them
        s = SparseState(num_qubits, amps)
        assert dump_lines(s) == dump_lines_reference(s)


# ---------------------------------------------------------------------
# measurement paths pinned against the code they replaced: the flag
# sequence append -> apply_oracle -> project/measure -> drop, and the
# one-branch projection that measure and project used to share
# ---------------------------------------------------------------------


def normalized_reference(num_qubits, amps, retired):
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    out = {k: a / norm for k, a in amps.items() if abs(a) / norm >= PRUNE_EPS}
    return SparseState(num_qubits, out, retired)


def x_pairs_reference(state, qubit, value):
    bit = state._bit(qubit)
    keep, prob, seen = {}, 0.0, set()
    for k in state.amps:
        rep = k & ~bit
        if rep in seen:
            continue
        seen.add(rep)
        a0 = state.amps.get(rep, 0.0)
        a1 = state.amps.get(rep | bit, 0.0)
        amp = ((a0 + a1) if value == 0 else (a0 - a1)) * SQRT_HALF
        if abs(amp) > 0.0:
            keep[rep] = amp
            prob += abs(amp) ** 2
    return keep, prob


def project_one_branch_reference(state, qubit, basis, value):
    if basis == "Z":
        bit = state._bit(qubit)
        keep = {k: a for k, a in state.amps.items() if bool(k & bit) == bool(value)}
        return keep, sum(abs(a) ** 2 for a in keep.values()), state.retired
    keep, prob = x_pairs_reference(state, qubit, value)
    return keep, prob, state.retired | {qubit}


def project_reference(state, index, basis, value):
    state._require_live([index])
    keep, prob, retired = project_one_branch_reference(state, index, basis, value)
    if prob < PRUNE_EPS:
        return 0.0, None
    return prob, normalized_reference(state.num_qubits, keep, retired)


def measure_reference(state, indices, bases, rng):
    state._require_live(indices)
    outcomes = np.zeros(len(indices), dtype=np.uint8)
    current = state
    for pos, (q, b) in enumerate(zip(indices, bases)):
        first = 1 if b == "Z" else 0
        keep, prob, retired = project_one_branch_reference(current, q, b, first)
        outcome = first if rng.random() < prob else first ^ 1
        if outcome != first:
            keep, _, retired = project_one_branch_reference(current, q, b, outcome)
        outcomes[pos] = outcome
        current = normalized_reference(current.num_qubits, keep, retired)
    return outcomes, current


def flagged_reference(state, in_reg, f):
    flag = state.num_qubits
    return apply_oracle(append_register(state, 1), in_reg, [flag], f), flag


def flag_branch_reference(state, in_reg, f, value):
    flagged, flag = flagged_reference(state, in_reg, f)
    prob, post = project_reference(flagged, flag, "Z", value)
    return prob, None if post is None else drop_last_register(post, 1)


def same_state(a, b):
    """Identical keys, amplitudes (signs of zero parts included), dict
    order, width and retired set; or both None."""
    if a is None or b is None:
        return a is None and b is None
    return (
        a.num_qubits == b.num_qubits
        and a.retired == b.retired
        and repr(list(a.amps.items())) == repr(list(b.amps.items()))
    )


def random_states(seed, count):
    """Seeded sparse states of 2 to 6 qubits, each with its live qubits:
    BB84 states with an oracle register, some qubits retired by an X
    measurement (exact cancellations, empty branches), random complex
    amplitudes, pairs that nearly cancel, and a lone term of amplitude
    1e-7 (a branch of probability 1e-14, below PRUNE_EPS)."""
    g = stream(seed, "equivalence")
    out = []
    for i in range(count):
        kind = i % 4
        n = int(g.integers(2, 7))
        if kind in (0, 1):
            y, theta = g.integers(0, 2, size=n), g.integers(0, 2, size=n)
            state = prep_bb84(Bb84Descriptor(y, theta))
            if n >= 3:
                state = apply_oracle(append_register(state, 1), list(range(n)), [n], lambda v: bin(v).count("1") & 1)
            if kind == 1:
                q = int(g.integers(0, n))
                _, state = measure_reference(state, [q], ["X"], g)
        else:
            # keys with qubit 0 clear, in seeded order
            keys = list(dict.fromkeys(g.integers(0, 1 << (n - 1), size=int(g.integers(1, 1 << n))).tolist()))
            if kind == 2:
                amps = g.normal(size=len(keys)) + 1j * g.normal(size=len(keys)) * int(g.integers(0, 2))
            else:
                # equal real amplitudes: X pairs cancel exactly in one
                # outcome, and nearly where one amplitude is nudged
                amps = np.ones(len(keys), dtype=np.complex128)
                amps[0] *= 1 - 1e-7
            amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2))
            amp_map = {k: complex(a) for k, a in zip(keys, amps)}
            if kind == 2:
                # the only term with qubit 0 set; |a|^2 = 1e-14 moves the
                # norm by far less than NORM_TOL
                amp_map[(1 << (n - 1)) | keys[0]] = complex(1e-7, 0.0)
            state = SparseState(n, amp_map)
        live = [q for q in range(state.num_qubits) if q not in state.retired]
        out.append((state, live))
    return out


class TestMeasurementEquivalence:
    STATES = random_states(71, 240)

    def test_the_states_cover_empty_and_sub_threshold_branches(self):
        probs = [
            project_one_branch_reference(s, q, b, v)[1]
            for s, live in self.STATES
            for q in live
            for b in "ZX"
            for v in (0, 1)
        ]
        assert 0 in probs  # empty branches
        assert any(0 < p < PRUNE_EPS for p in probs)
        assert sum(p >= PRUNE_EPS for p in probs) > 100
        assert any(s.retired for s, _ in self.STATES)

    def test_project_matches_one_branch_projection(self):
        for state, live in self.STATES:
            for q in live:
                for basis in "ZX":
                    for value in (0, 1):
                        prob, post = project(state, q, basis, value)
                        ref_prob, ref_post = project_reference(state, q, basis, value)
                        assert prob == ref_prob
                        assert same_state(post, ref_post)

    def test_measure_matches_one_branch_measurement(self):
        g = stream(72, "bases")
        rng, rng_ref = stream(73, "draws"), stream(73, "draws")
        for state, live in self.STATES:
            for _ in range(3):
                qubits = [live[j] for j in g.permutation(len(live))[: int(g.integers(1, len(live) + 1))]]
                bases = ["ZX"[int(b)] for b in g.integers(0, 2, size=len(qubits))]
                out, post = measure(state, qubits, bases, rng)
                ref_out, ref_post = measure_reference(state, qubits, bases, rng_ref)
                assert out.dtype == ref_out.dtype and out.tolist() == ref_out.tolist()
                assert same_state(post, ref_post)
                assert rng.bit_generator.state == rng_ref.bit_generator.state

    @staticmethod
    def _flag_functions(state, in_reg, g):
        """Constant 0 and 1, a seeded table, and 1 on one term's input only
        (the lone term of probability 1e-14 when there is one)."""
        n = state.num_qubits
        table = g.integers(0, 2, size=1 << len(in_reg)).tolist()
        smallest = min(state.amps, key=lambda k: abs(state.amps[k]))
        lone = int("".join(str((smallest >> (n - 1 - q)) & 1) for q in in_reg), 2)
        return [lambda v: 0, lambda v: 1, table.__getitem__, lambda v: int(v == lone)]

    def test_measure_flag_matches_append_oracle_project_drop(self):
        g = stream(74, "registers")
        for state, live in self.STATES:
            in_reg = [live[j] for j in g.permutation(len(live))[: int(g.integers(1, len(live) + 1))]]
            for f in self._flag_functions(state, in_reg, g):
                branches = measure_flag(state, in_reg, f)
                for value in (0, 1):
                    prob, post = branches[value]
                    ref_prob, ref_post = flag_branch_reference(state, in_reg, f, value)
                    assert prob == ref_prob
                    assert same_state(post, ref_post)

    def test_flag_draw_matches_measuring_the_flag(self):
        # verify_clone_half: one draw, outcome 1 below P[1]
        g = stream(75, "registers")
        rng, rng_ref = stream(76, "draws"), stream(76, "draws")
        for state, live in self.STATES:
            in_reg = [live[j] for j in g.permutation(len(live))[: int(g.integers(1, len(live) + 1))]]
            for f in self._flag_functions(state, in_reg, g):
                outcome = int(rng.random() < measure_flag(state, in_reg, f)[1][0])
                flagged, flag = flagged_reference(state, in_reg, f)
                ref_out, _ = measure_reference(flagged, [flag], ["Z"], rng_ref)
                assert outcome == int(ref_out[0])
                assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_measure_flag_refuses_outputs_other_than_bits(self):
        st_ = prep_bb84(Bb84Descriptor("01", "10"))
        for f in (lambda v: 2, lambda v: -1, lambda v: v + 1):
            with pytest.raises(SimUsageError):
                measure_flag(st_, [0, 1], f)
        _, post = measure(st_, [0], ["X"], stream(1, "x"))
        with pytest.raises(SimUsageError):
            measure_flag(post, [0, 1], lambda v: 0)
