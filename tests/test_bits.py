"""bits.masked_parity and bits.check_deletion_cert on packed words
against per-pair references, the row packing behind them, and the word
fold of hbnizk.bits_to_matrix against an all() over each slice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cenizk.bits import check_deletion_cert, masked_parity, pack_rows, unpack_rows
from cenizk.hbnizk import bits_to_matrix


def reference(theta, y):
    """Per-pair parity: XOR of y over the positions where theta is 0."""
    return np.bitwise_xor.reduce(y & (theta ^ 1), axis=-1).astype(np.uint8)


def cert_reference(cert, y, theta):
    """Per-pair deletion check: cert equals y wherever theta is 1."""
    mask = theta == 1
    return bool(np.all(cert[mask] == y[mask]))


def packed_parity(theta, y):
    return masked_parity(pack_rows(theta), pack_rows(y))


dtypes = st.sampled_from([np.uint8, np.int64])
bit_pairs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40)
# every EPR block width, and the widest rows a CRS dry run packs (lam 16)
WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 16]


class TestMaskedParity:
    @given(bit_pairs, dtypes)
    def test_one_dimensional_pairs_match_reference(self, pairs, dtype):
        theta = np.array([t for t, _ in pairs], dtype=dtype)
        y = np.array([v for _, v in pairs], dtype=dtype)
        got = packed_parity(theta, y)
        assert np.ndim(got) == 0 and got.dtype == np.uint8
        assert int(got) == int(reference(theta, y))

    @settings(max_examples=60)
    @given(
        st.integers(0, 1024),
        st.sampled_from([1, 2, 6, 16]),
        dtypes,
        st.integers(0, 2**32 - 1),
    )
    def test_many_rows_match_reference(self, rows, k, dtype, seed):
        rng = np.random.default_rng(seed)
        theta = rng.integers(0, 2, size=(rows, k)).astype(dtype)
        y = rng.integers(0, 2, size=(rows, k)).astype(dtype)
        got = packed_parity(theta, y)
        want = reference(theta, y)
        assert got.dtype == np.uint8 and got.shape == (rows,)
        assert np.array_equal(got, want)

    # small row counts, and the criterion-1 block count
    @pytest.mark.parametrize("rows", [255, 256, 819200])
    @pytest.mark.parametrize("k", [1, 6, 16])
    def test_both_sides_of_the_column_threshold(self, rows, k):
        rng = np.random.default_rng(rows * 31 + k)
        theta = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
        y = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
        assert np.array_equal(packed_parity(theta, y), reference(theta, y))

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(5)
        theta = rng.integers(0, 2, size=(40, 30, 6), dtype=np.uint8)
        y = rng.integers(0, 2, size=(40, 30, 6), dtype=np.uint8)
        got = packed_parity(theta, y)
        assert got.shape == (40, 30) and np.array_equal(got, reference(theta, y))

    @pytest.mark.parametrize(
        "theta_shape, y_shape",
        [((6,), (5, 6)), ((5, 6), (6,)), ((5, 1), (5, 6)), ((5, 6), (5, 7)), ((32768, 6), (16384, 6))],
    )
    def test_mismatched_shapes_raise(self, theta_shape, y_shape):
        with pytest.raises(ValueError, match="shape"):
            masked_parity(np.zeros(theta_shape, dtype=np.uint8), np.ones(y_shape, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(0,), (5, 0), (300, 0)])
    def test_empty_last_axis_gives_zero(self, shape):
        empty = np.zeros(shape, dtype=np.uint8)
        got = packed_parity(empty, empty)
        assert got.dtype == np.uint8 and got.shape == shape[:-1]
        assert not np.any(got)


class TestPackedWords:
    """The block parity and the deletion check on packed words, against
    the per-pair references, at every width a caller packs."""

    @pytest.mark.parametrize("rows", [0, 1, 7, 4099])
    @pytest.mark.parametrize("k", WIDTHS)
    def test_parity_and_deletion_check_match_per_pair(self, rows, k):
        rng = np.random.default_rng(rows * 17 + k)
        theta, y = rng.integers(0, 2, size=(2, rows, k), dtype=np.uint8)
        cert = y ^ (rng.random((rows, k)) < 0.02)  # a few flipped outcomes
        for a in (theta, y, cert):
            a.flags.writeable = False
        t, v, c = (pack_rows(a) for a in (theta, y, cert))
        assert t.dtype == (np.uint8 if k <= 8 else np.uint16) and t.shape == (rows,)
        assert np.array_equal(masked_parity(t, v), reference(theta, y))
        assert check_deletion_cert(c, v, t) == cert_reference(cert, y, theta)
        assert check_deletion_cert(v, v, t)
        # per row: a single wrong Hadamard outcome fails, a wrong Z outcome does not
        for i in range(min(rows, 64)):
            one = slice(i, i + 1)
            assert check_deletion_cert(c[one], v[one], t[one]) == cert_reference(cert[i], y[i], theta[i])

    @pytest.mark.parametrize("k", WIDTHS)
    def test_word_bit_j_is_entry_j(self, k):
        rows = np.eye(k, dtype=np.uint8)
        assert pack_rows(rows).tolist() == [1 << j for j in range(k)]
        if k <= 8:
            assert np.array_equal(unpack_rows(pack_rows(rows), k), rows)

    def test_rows_wider_than_a_word_raise(self):
        with pytest.raises(ValueError, match="65 bits"):
            pack_rows(np.zeros((3, 65), dtype=np.uint8))

    def test_a_cert_of_another_shape_fails(self):
        y = theta = np.full(4, 0b111, dtype=np.uint8)
        assert not check_deletion_cert(y[:1], y, theta)  # would broadcast
        assert not check_deletion_cert(y[:3], y, theta)


# every word size of the fold, alone (b = w) and as several columns
SLICE_LENGTHS = [1, 2, 3, 4, 5, 8, 10, 16]


def dense_bits(rng, shape, p=0.8):
    """0/1 bytes, dense enough that all-ones slices of 16 turn up."""
    return (rng.random(shape) < p).astype(np.uint8)


def any_bytes(rng, shape):
    """uint8 values of every size, zero in about a fifth of the places."""
    a = rng.integers(1, 256, size=shape, dtype=np.uint8)
    a[rng.random(shape) < 0.2] = 0
    return a


def all_reference(block, m, b):
    return block.reshape(*block.shape[:-1], m, m, b).all(-1)


class TestBitsToMatrix:
    @pytest.mark.parametrize("m", [2, 15, 16, 17])
    @pytest.mark.parametrize("b", SLICE_LENGTHS)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_batched_matches_all_over_slices(self, m, b, lead):
        rng = np.random.default_rng(m * 100 + b * 10 + len(lead))
        block = dense_bits(rng, (*lead, m * m * b))
        before = block.copy()
        got = bits_to_matrix(block, m, b)
        assert got.dtype == bool and got.shape == (*lead, m, m)
        assert np.array_equal(got, all_reference(block, m, b))
        assert np.array_equal(block, before)  # the fold works on its own arrays

    @pytest.mark.parametrize("m", [2, 17])
    @pytest.mark.parametrize("b", SLICE_LENGTHS)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_any_nonzero_byte_counts_as_set(self, m, b, lead):
        block = any_bytes(np.random.default_rng(m * 100 + b), (*lead, m * m * b))
        block[..., ::3] |= 2  # no byte of these is 1, yet they count as set
        assert np.array_equal(bits_to_matrix(block, m, b), all_reference(block, m, b))

    def test_read_only_and_non_contiguous_inputs(self):
        rng = np.random.default_rng(12)
        m, b, reps = 17, 10, 4
        kp = m * m * b
        r = dense_bits(rng, 2 * reps * kp)
        wire = np.frombuffer(r.tobytes(), dtype=np.uint8)  # a decoded wire view
        gathered = wire[(np.arange(reps) * 2 * kp)[:, None] + np.arange(kp)]  # a fancy-index gather
        strided = r.reshape(2 * reps, kp)[::2]
        for blocks in [wire.reshape(2 * reps, kp), gathered, strided, np.asfortranarray(gathered)]:
            assert np.array_equal(bits_to_matrix(blocks, m, b), all_reference(blocks, m, b))
        assert np.array_equal(bits_to_matrix(wire[:kp], m, b), all_reference(wire[:kp], m, b))

    def test_wrong_last_axis_raises(self):
        with pytest.raises(ValueError, match="block must have 8 bits"):
            bits_to_matrix(np.zeros((3, 9), dtype=np.uint8), 2, 2)
