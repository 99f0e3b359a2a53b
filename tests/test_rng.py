"""`rng.bits` is the package's one uniform-bit draw.

Every 0/1 array in the package (the EPR mask s, simulated hidden-bits
blocks, pad keys, BB84 strings) comes from `cenizk.rng.bits`,
looked up on the module at call time, so replacing that one attribute
changes the draw everywhere.
Large draws are cut from 32-bit words, taken from `random_raw` where
the bit generator buffers half-words; they must give the bits and the
whole generator state of `integers(0, 2, dtype=np.uint8)`. A `count=k`
draw must give the bits and state of k such consecutive draws.

`rng.blocks` is the one draw of words (the generator's output, EPR
outcomes): byte i of the raw 64-bit outputs, masked to the word width.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import cenizk
import cenizk.rng
from cenizk.harness import run_session, serialize_transcript

PACKAGE_DIR = Path(cenizk.__file__).resolve().parent


def _const(node, value) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _bit_draws_and_imports(tree: ast.AST) -> list[str]:
    """`<gen>.integers(0, 2, ...)` calls and `from ...rng import bits` in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "integers":
            bounds = list(node.args[:2]) + [kw.value for kw in node.keywords if kw.arg in ("low", "high")]
            if len(bounds) == 2 and _const(bounds[0], 0) and _const(bounds[1], 2):
                found.append(f"line {node.lineno}: integers(0, 2, ...)")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rng":
            if any(alias.name == "bits" for alias in node.names):
                found.append(f"line {node.lineno}: from {'.' * node.level}{node.module} import bits")
    return found


def test_scan_sees_both_patterns():
    tree = ast.parse("from .rng import bits\nx = g.integers(0, 2, size=3, dtype=np.uint8)\ny = g.integers(0, 256)\n")
    assert sorted(_bit_draws_and_imports(tree)) == ["line 1: from .rng import bits", "line 2: integers(0, 2, ...)"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "rng.py"))
def test_no_bit_draw_outside_rng(path):
    tree = ast.parse((PACKAGE_DIR / path).read_text(), filename=path)
    assert _bit_draws_and_imports(tree) == []


@pytest.mark.parametrize("protocol", ["epr", "crs-toy", "crs-dry"])
def test_one_patch_reaches_every_session(protocol, monkeypatch):
    expected = serialize_transcript(run_session(protocol, None, 0))
    honest_bits = cenizk.rng.bits
    calls = []

    def counting(gen, shape, count=1):
        calls.append(shape)
        return honest_bits(gen, shape, count=count)

    monkeypatch.setattr(cenizk.rng, "bits", counting)
    assert serialize_transcript(run_session(protocol, None, 0)) == expected
    assert calls, f"a default {protocol} session drew no bits through cenizk.rng.bits"


WORD_MIN = cenizk.rng._WORD_DRAW_MIN
SHAPES = [0, 1, 3, WORD_MIN - 1, WORD_MIN, WORD_MIN + 1, 8321, 819200, (819200, 6), (3, 7), np.int64(WORD_MIN + 5)]
BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64, np.random.MT19937]


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_bits_equal_the_uint8_draw_and_leave_the_same_state(bit_generator, shape):
    for seed in (0, 7, 2024):
        gen, ref = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        # an odd number of uint32 draws first leaves half a 64-bit output buffered
        for g in (gen, ref):
            g.integers(0, 1 << 32, size=seed % 2, dtype=np.uint32)
        got = cenizk.rng.bits(gen, shape)
        want = ref.integers(0, 2, size=shape, dtype=np.uint8)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got, want)
        assert gen.integers(0, 1 << 32, dtype=np.uint32) == ref.integers(0, 1 << 32, dtype=np.uint32)
        assert gen.random() == ref.random()


class _RecordingBitGenerator:
    """Passes state and random_raw() through to a real bit generator and
    records each use."""

    def __init__(self, bit_gen, calls):
        self._bit_gen, self._calls = bit_gen, calls

    @property
    def state(self):
        self._calls.append(("state",))
        return self._bit_gen.state

    @state.setter
    def state(self, value):
        self._calls.append(("set state",))
        self._bit_gen.state = value

    def random_raw(self, size=None):
        self._calls.append(("random_raw", size))
        return self._bit_gen.random_raw(size)


class _RecordingGenerator:
    """Passes integers() and its bit generator through to a real Generator
    and records each call, in order."""

    def __init__(self, gen):
        self.gen, self.calls = gen, []
        self.bit_generator = _RecordingBitGenerator(gen.bit_generator, self.calls)

    def integers(self, low, high, size=None, dtype=np.int64):
        self.calls.append(("integers", low, high, size, np.dtype(dtype)))
        return self.gen.integers(low, high, size=size, dtype=dtype)

    def draws(self):
        """The recorded calls that draw, leaving out state reads and writes."""
        return [c for c in self.calls if c[0] in ("integers", "random_raw")]


def _uint32_call(words):
    return ("integers", 0, 1 << 32, words, np.dtype(np.uint32))


@pytest.mark.parametrize("n", [3, WORD_MIN - 1, WORD_MIN, 8321, 4_915_200])
def test_large_draws_take_one_uint32_call(n):
    # MT19937 has no half-word buffer, so its word draws stay integers calls
    gen = _RecordingGenerator(np.random.Generator(np.random.MT19937(5)))
    cenizk.rng.bits(gen, n)
    if n >= WORD_MIN:
        assert gen.draws() == [_uint32_call(-(-n // 4))]
    else:
        assert gen.calls == [("integers", 0, 2, n, np.dtype(np.uint8))]


BUFFERED_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("n", [3, WORD_MIN - 1, WORD_MIN, WORD_MIN + 4, 8321, 4_915_200])
@pytest.mark.parametrize("held", [0, 1])
@pytest.mark.parametrize("bit_generator", BUFFERED_BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_large_draws_on_buffered_generators_take_one_random_raw_call(bit_generator, held, n):
    real = np.random.Generator(bit_generator(5))
    real.integers(0, 1 << 32, size=held, dtype=np.uint32)
    gen = _RecordingGenerator(real)
    cenizk.rng.bits(gen, n)
    if n >= WORD_MIN:
        assert gen.draws() == [("random_raw", (-(-n // 4) - held + 1) // 2)]
    else:
        # exactly the uint8 call: not even a state read
        assert gen.calls == [("integers", 0, 2, n, np.dtype(np.uint8))]


COUNT_SIZES = [0, 1, 3, 4, 5, 36, 45, WORD_MIN - 1, WORD_MIN, 8321]
COUNT_SHAPES = COUNT_SIZES + [(9, 5), (2, 3, 6), np.int64(45)]


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("shape", COUNT_SHAPES, ids=repr)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_count_draws_equal_consecutive_uint8_draws(bit_generator, shape, count):
    for seed in (0, 7):
        gen, ref = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        # an odd number of uint32 draws first leaves half a 64-bit output buffered
        for g in (gen, ref):
            g.integers(0, 1 << 32, size=seed % 2, dtype=np.uint32)
        got = cenizk.rng.bits(gen, shape, count=count)
        rows = [ref.integers(0, 2, size=shape, dtype=np.uint8) for _ in range(count)]
        want = rows[0] if count == 1 else np.stack(rows)
        assert got.dtype == np.uint8 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        for row in [got] if count == 1 else got:
            assert row.flags.c_contiguous and row.flags.writeable
        assert gen.integers(0, 1 << 32, dtype=np.uint32) == ref.integers(0, 1 << 32, dtype=np.uint32)
        assert gen.random() == ref.random()


@pytest.mark.parametrize("count", [2, 3, 5])
@pytest.mark.parametrize("n", COUNT_SIZES)
def test_count_draws_take_one_uint32_call(n, count):
    gen = _RecordingGenerator(np.random.Generator(np.random.MT19937(5)))
    cenizk.rng.bits(gen, n, count=count)
    assert gen.draws() == [_uint32_call(count * -(-n // 4))]
    small = _RecordingGenerator(np.random.default_rng(5))
    cenizk.rng.bits(small, n, count=count)
    if count * n < WORD_MIN:
        # exactly one word draw: not even a state read
        assert small.calls == [_uint32_call(count * -(-n // 4))]
    else:
        assert small.draws() == [("random_raw", (count * -(-n // 4) + 1) // 2)]


STATE_SHAPES = [1023, 1024, WORD_MIN - 1, WORD_MIN, WORD_MIN + 4, WORD_MIN + 5, 8321, (9, 5), (513, 4)]


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("shape", STATE_SHAPES, ids=repr)
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_bits_leave_the_whole_state_of_the_uint8_draws(bit_generator, shape, count):
    for pre_draws in range(4):
        gen, ref = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
        for g in (gen, ref):
            g.integers(0, 1 << 32, size=pre_draws, dtype=np.uint32)
        got = cenizk.rng.bits(gen, shape, count=count)
        rows = [ref.integers(0, 2, size=shape, dtype=np.uint8) for _ in range(count)]
        np.testing.assert_array_equal(got, rows[0] if count == 1 else np.stack(rows))
        # every field, the buffered half-word and a stale uinteger included
        np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)


BLOCK_COUNTS = [0, 1, 7, 8, 9, 4099, 819200]


@pytest.mark.parametrize("n", BLOCK_COUNTS)
@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_block_draw_is_masked_raw_bytes(bit_generator, width, n):
    gen, ref = np.random.Generator(bit_generator(3)), np.random.Generator(bit_generator(3))
    got = cenizk.rng.blocks(gen, n, width)
    raw = ref.bit_generator.random_raw(-(-n // 8))
    # byte b of each raw output, least significant first
    want = ((raw[:, None] >> (8 * np.arange(8, dtype=np.uint64))) & 0xFF).astype(np.uint8).ravel()
    assert got.dtype == np.uint8 and got.shape == (n,)
    # never a bit at or above the width, and the raw bytes below it
    assert not np.any(got >> width)
    np.testing.assert_array_equal(got, want[:n] & ((1 << width) - 1))
    # the generator advanced by exactly ceil(n/8) raw outputs
    np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("n", BLOCK_COUNTS)
def test_block_draw_takes_one_random_raw_call(n):
    gen = _RecordingGenerator(np.random.default_rng(5))
    cenizk.rng.blocks(gen, n, 6)
    assert gen.calls == [("random_raw", -(-n // 8))]


def test_block_draw_fills_every_width():
    words = cenizk.rng.blocks(np.random.default_rng(9), 4096, 6)
    assert set(words.tolist()) == set(range(64))
