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
    Bb84Descriptor,
    SimUsageError,
    SparseState,
    append_register,
    apply_oracle,
    density_matrix,
    drop_last_register,
    dump_lines,
    measure,
    prep_bb84,
    project,
    state_from_descriptor_string,
    trace_distance,
    zero_state,
)
from conftest import CHI2_CRIT_1DF, chi_square_uniform

SQRT_HALF = math.sqrt(0.5)


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


class TestPrepBb84:
    def test_h_zero(self):
        st_ = state_from_descriptor_string("0", "1")
        assert st_.amps[0] == pytest.approx(SQRT_HALF)
        assert st_.amps[1] == pytest.approx(SQRT_HALF)

    def test_h_one(self):
        st_ = state_from_descriptor_string("1", "1")
        assert st_.amps[0] == pytest.approx(SQRT_HALF)
        assert st_.amps[1] == pytest.approx(-SQRT_HALF)

    def test_computational(self):
        st_ = state_from_descriptor_string("10", "00")
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
            out, _ = measure(state_from_descriptor_string("0", "1"), [0], ["Z"], rng)
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
        st_ = state_from_descriptor_string("00", "10")
        _, post = measure(st_, [0], ["X"], rng)
        with pytest.raises(SimUsageError):
            measure(post, [0], ["Z"], rng)

    def test_duplicate_indices_error(self, rng):
        st_ = state_from_descriptor_string("00", "00")
        with pytest.raises(SimUsageError):
            measure(st_, [0, 0], ["Z", "Z"], rng)


class TestOracle:
    def test_cnot_copy(self):
        st_ = state_from_descriptor_string("0", "1")
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
        st_ = append_register(state_from_descriptor_string("10", "00"), 2)
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
        st_ = append_register(zero_state(1), 1)
        with pytest.raises(SimUsageError):
            apply_oracle(st_, [0], [1], lambda z: 2)

    def test_overlapping_registers_error(self):
        st_ = zero_state(2)
        with pytest.raises(SimUsageError):
            apply_oracle(st_, [0], [0], lambda z: z)


class TestAppendDrop:
    def test_append_extends_keys(self):
        st_ = append_register(state_from_descriptor_string("1", "0"), 2)
        assert set(st_.amps) == {0b100}

    def test_append_preserves_norm_and_terms(self):
        st_ = state_from_descriptor_string("01", "11")
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
        prob, post = project(zero_state(1), 0, "Z", 0)
        assert prob == pytest.approx(1.0)
        assert post.amps == {0: pytest.approx(1.0)}

    def test_zero_onto_one_is_bot(self):
        prob, post = project(zero_state(1), 0, "Z", 1)
        assert prob == 0.0 and post is None

    def test_plus_onto_zero(self):
        prob, post = project(state_from_descriptor_string("0", "1"), 0, "Z", 0)
        assert prob == pytest.approx(0.5)
        assert post.amps == {0: pytest.approx(1.0)}

    def test_x_projection_on_eigenstate(self):
        prob, post = project(state_from_descriptor_string("1", "1"), 0, "X", 1)
        assert prob == pytest.approx(1.0)
        prob0, _ = project(state_from_descriptor_string("1", "1"), 0, "X", 0)
        assert prob0 == 0.0


class TestDensityAndTraceDistance:
    def test_identical_states(self):
        rho = density_matrix(state_from_descriptor_string("0", "0"), [0])
        assert trace_distance(rho, rho) == pytest.approx(0.0)

    def test_orthogonal_pure_states(self):
        r0 = density_matrix(state_from_descriptor_string("0", "0"), [0])
        r1 = density_matrix(state_from_descriptor_string("1", "0"), [0])
        assert trace_distance(r0, r1) == pytest.approx(1.0)

    def test_pure_state_closed_form_oracle(self):
        # independent oracle: TD = sqrt(1 - |<a|b>|^2) for pure states
        a = state_from_descriptor_string("0", "0")
        b = state_from_descriptor_string("0", "1")
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
        st_ = zero_state(14)
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
        st_ = state_from_descriptor_string("11", "01")
        assert dump_lines(st_) == [
            "10 7.071067811865e-01 0.000000000000e+00",
            "11 -7.071067811865e-01 0.000000000000e+00",
        ]

    def test_sorted_lexicographically(self):
        st_ = prep_bb84(Bb84Descriptor("000", "111"))
        lines = dump_lines(st_)
        assert lines == sorted(lines)
        assert len(lines) == 8
