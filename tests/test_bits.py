"""bits.masked_parity against the one-call XOR reduction it replaced.

Arrays with many rows take a column-by-column path, small ones the
single reduce; both must give the reference bits, dtype and shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cenizk.bits import _COLUMN_XOR_MIN_ROWS, masked_parity


def reference(theta, y):
    return np.bitwise_xor.reduce(y & (theta ^ 1), axis=-1).astype(np.uint8)


dtypes = st.sampled_from([np.uint8, np.int64])
bit_pairs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40)


class TestMaskedParity:
    @given(bit_pairs, dtypes)
    def test_one_dimensional_pairs_match_reference(self, pairs, dtype):
        theta = np.array([t for t, _ in pairs], dtype=dtype)
        y = np.array([v for _, v in pairs], dtype=dtype)
        got = masked_parity(theta, y)
        assert np.ndim(got) == 0 and got.dtype == np.uint8
        assert int(got) == int(reference(theta, y))

    @settings(max_examples=60)
    @given(
        st.integers(0, 4 * _COLUMN_XOR_MIN_ROWS),
        st.sampled_from([1, 2, 6, 16]),
        dtypes,
        st.integers(0, 2**32 - 1),
    )
    def test_many_rows_match_reference(self, rows, k, dtype, seed):
        rng = np.random.default_rng(seed)
        theta = rng.integers(0, 2, size=(rows, k)).astype(dtype)
        y = rng.integers(0, 2, size=(rows, k)).astype(dtype)
        got = masked_parity(theta, y)
        want = reference(theta, y)
        assert got.dtype == np.uint8 and got.shape == (rows,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows", [_COLUMN_XOR_MIN_ROWS - 1, _COLUMN_XOR_MIN_ROWS, 819200])
    @pytest.mark.parametrize("k", [1, 6, 16])
    def test_both_sides_of_the_column_threshold(self, rows, k):
        rng = np.random.default_rng(rows * 31 + k)
        theta = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
        y = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
        assert np.array_equal(masked_parity(theta, y), reference(theta, y))

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(5)
        theta = rng.integers(0, 2, size=(40, 30, 6), dtype=np.uint8)
        y = rng.integers(0, 2, size=(40, 30, 6), dtype=np.uint8)
        got = masked_parity(theta, y)
        assert got.shape == (40, 30) and np.array_equal(got, reference(theta, y))

    @pytest.mark.parametrize("shape", [(0,), (5, 0), (300, 0)])
    def test_empty_last_axis_gives_zero(self, shape):
        empty = np.zeros(shape, dtype=np.uint8)
        got = masked_parity(empty, empty)
        assert got.dtype == np.uint8 and got.shape == shape[:-1]
        assert not np.any(got)
