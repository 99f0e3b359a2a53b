"""Hidden-bits generator tests: naor-style binding via the brute-force
Open oracle, the dealer double, and the hiding control, which swaps a
broken G in for the real one."""

import hashlib
import math

import numpy as np
import pytest

from cenizk import hbg
from cenizk.bits import unpack_rows
from cenizk.hbg import (
    _PASS_BITS,
    SEED_BITS_MAX,
    HbgCommitment,
    HbgParams,
    NaorOpening,
    hbg_genbits,
    hbg_open,
    hbg_setup,
    hbg_verify,
    hbg_verify_batch,
    prg_expand,
    restrict_opening,
    _g_table,
)
from cenizk.rng import stream
from conftest import CHI2_CRIT_1DF, chi_square_uniform

CRITERION_SEED = 20260808  # the acceptance suite's SEED


def mask(k, positions):
    """The (k,) bool mask opening positions."""
    opened = np.zeros(k, dtype=bool)
    opened[list(positions)] = True
    return opened


def verify_each(crs, com, words, opening) -> list[bool]:
    """hbg_verify at each position, with the opening restricted to it."""
    k, width = crs.params.k, crs.params.width
    return [hbg_verify(crs, com, i, int(words[i]), restrict_opening(opening, mask(k, [i]), width)) for i in range(k)]


class TestNaorBasics:
    def test_commit_equations(self, rng):
        crs = hbg_setup(6, "naor", rng, s=8)
        com, r, op = hbg_genbits(crs, rng)
        for i in range(6):
            c = np.frombuffer(com.data, dtype=np.uint8).reshape(-1, crs.params.out_bytes)[i]
            g = np.frombuffer(prg_expand(int(op.seeds[i]), crs.params), dtype=np.uint8)
            if r[i] == 0:
                assert np.array_equal(c, g)  # c_i = G(seed_i)
            else:
                assert np.array_equal(c ^ crs.u[i], g)  # c_i xor u_i = G(seed_i)

    def test_round_trip_all_positions(self, rng):
        crs = hbg_setup(10, "naor", rng, s=10)
        com, r, op = hbg_genbits(crs, rng)
        assert hbg_verify_batch(crs, com, np.ones(10, dtype=bool), r, op)
        assert all(verify_each(crs, com, r, op))

    def test_setup_deterministic_under_seed(self):
        a = hbg_setup(4, "naor", stream(7, "x"), s=8)
        b = hbg_setup(4, "naor", stream(7, "x"), s=8)
        assert np.array_equal(a.u, b.u)

    def test_single_u_for_k1(self, rng):
        crs = hbg_setup(1, "naor", rng, s=8)
        assert crs.u.shape == (1, crs.params.out_bytes)

    def test_wrong_index_rejected(self, rng):
        crs = hbg_setup(3, "naor", rng, s=8)
        com, r, op = hbg_genbits(crs, rng)
        assert not hbg_verify(crs, com, 5, 0, op)
        assert not hbg_verify(crs, com, -1, 0, op)

    def test_subset_opening_restriction(self, rng):
        crs = hbg_setup(8, "naor", rng, s=8)
        com, r, op = hbg_genbits(crs, rng)
        opened = mask(8, [1, 4, 6])
        sub = restrict_opening(op, opened)
        assert isinstance(sub, NaorOpening) and np.array_equal(sub.seeds, op.seeds[[1, 4, 6]])
        assert hbg_verify_batch(crs, com, opened, r[opened], sub)
        assert not hbg_verify_batch(crs, com, mask(8, [1, 2, 6]), r[[1, 2, 6]], sub)  # 2 not revealed
        assert not hbg_verify(crs, com, 4, int(r[4]), sub)  # three seeds for one position

    def test_r_marginal_uniform(self, rng):
        crs = hbg_setup(1, "naor", rng, s=8)
        counts = [0, 0]
        for _ in range(10_000):
            _, r, _ = hbg_genbits(crs, rng)
            counts[int(r[0])] += 1
        assert chi_square_uniform(counts) < CHI2_CRIT_1DF


class TestOpenOracle:
    def test_round_trip_on_honest_commitments(self, rng):
        # 1000 commitments at s=12: Open always recovers the committed r
        crs = hbg_setup(4, "naor", rng, s=12)
        for _ in range(250):
            com, r, _ = hbg_genbits(crs, rng)
            res = hbg_open(crs, com)
            assert np.array_equal(res.bits, r)
            assert not res.equivocal.any()

    def test_flipped_bit_rejected_when_unequivocal(self, rng):
        crs = hbg_setup(6, "naor", rng, s=10)
        com, r, op = hbg_genbits(crs, rng)
        res = hbg_open(crs, com)
        for i in range(6):
            if res.equivocal[i]:
                continue  # the brute-force scan found a collision; skip
            assert not hbg_verify(crs, com, i, int(r[i]) ^ 1, restrict_opening(op, mask(6, [i])))

    def test_adversarial_off_coset_never_verifies(self, rng):
        # exhaustive at s=8: craft a chunk outside both cosets, then no
        # (bit, seed) pair verifies and Open flags it as garbage
        crs = hbg_setup(1, "naor", rng, s=8)
        params = crs.params
        image = {prg_expand(seed, params) for seed in range(256)}
        u = crs.u[0]
        candidate = None
        probe = stream(5, "probe")
        while candidate is None:
            c = probe.integers(0, 256, size=params.out_bytes, dtype=np.uint8)
            extra = 8 * params.out_bytes - params.out_bits
            if extra:
                c[0] &= 0xFF >> extra
            if c.tobytes() not in image and (c ^ u).tobytes() not in image:
                candidate = c
        from cenizk.hbg import HbgCommitment

        com = HbgCommitment(candidate.tobytes())
        for seed in range(256):
            for bit in (0, 1):
                op = NaorOpening(np.array([seed], dtype=np.uint64))
                assert not hbg_verify(crs, com, 0, bit, op)
        res = hbg_open(crs, com)
        assert res.garbage[0] and res.bits[0] == 0

    def test_equivocation_frequency_below_union_bound(self, rng):
        # union bound: P[c in both cosets] <= 2^s * 2^s / 2^(3s) = 2^-s per
        # position for arbitrary c; honest commitments sit lower still
        s, k, trials = 8, 8, 400
        equivocal_positions = 0
        for t in range(trials):
            crs = hbg_setup(k, "naor", stream(t, "eq"), s=s)
            com, _, _ = hbg_genbits(crs, stream(t, "eqg"))
            equivocal_positions += int(hbg_open(crs, com).equivocal.sum())
        bound = trials * k * 2.0**-s
        sigma = math.sqrt(bound)  # Poisson-scale slack
        assert equivocal_positions <= bound + 3 * sigma + 1

    def test_guard_rejects_large_s(self, rng):
        # one seed-width range, 2..SEED_BITS_MAX, in both modes
        assert SEED_BITS_MAX == 16
        for mode in ("dealer", "naor"):
            with pytest.raises(ValueError, match="2 <= s <= 16"):
                hbg_setup(2, mode, rng, s=17)
            with pytest.raises(ValueError, match="2 <= s <= 16"):
                hbg_setup(2, mode, rng, s=1)
            assert hbg_setup(2, mode, rng, s=16).params.s == 16

    def test_dealer_mode_has_no_open(self, rng):
        crs = hbg_setup(2, "dealer", rng)
        com, _, _ = hbg_genbits(crs, rng)
        with pytest.raises(ValueError):
            hbg_open(crs, com)


class TestDealer:
    def test_fresh_registry_and_round_trip(self, rng):
        crs = hbg_setup(5, "dealer", rng)
        com, r, op = hbg_genbits(crs, rng)
        assert all(hbg_verify(crs, com, i, int(r[i]), op) for i in range(5))

    def test_unknown_commitment_rejected(self, rng):
        crs = hbg_setup(5, "dealer", rng)
        _, _, op = hbg_genbits(crs, rng)
        from cenizk.hbg import HbgCommitment

        assert not hbg_verify(crs, HbgCommitment(b"nope" * 4), 0, 0, op)

    def test_flipped_bit_rejected(self, rng):
        crs = hbg_setup(5, "dealer", rng)
        com, r, op = hbg_genbits(crs, rng)
        assert not hbg_verify(crs, com, 2, int(r[2]) ^ 1, op)

    def test_batch_verification(self, rng):
        crs = hbg_setup(64, "dealer", rng)
        com, r, op = hbg_genbits(crs, rng)
        every = np.ones(64, dtype=bool)
        assert hbg_verify_batch(crs, com, every, r, op)
        bad = r.copy()
        bad[10] ^= 1
        assert not hbg_verify_batch(crs, com, every, bad, op)


class TestOpenedMask:
    """The opened set is one (k,) bool mask; a naor opening is one seed per
    committed bit of the opened positions, in position order."""

    @staticmethod
    def _session(mode, width=1):
        rng = stream(7, "mask", mode, width)
        crs = hbg_setup(12, mode, rng, s=8, width=width)
        com, r, op = hbg_genbits(crs, rng)
        return crs, com, r, op

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    def test_mask_of_wrong_length_rank_or_dtype_rejects(self, mode):
        crs, com, r, op = self._session(mode)
        every = np.ones(12, dtype=bool)
        assert hbg_verify_batch(crs, com, every, r, op) is True
        for bad in (
            every[:11],
            np.ones(13, dtype=bool),
            every.reshape(2, 6),
            every[:, None],
            every.astype(np.uint8),
            np.arange(12),
            every.tolist(),
            range(12),
            None,
        ):
            assert hbg_verify_batch(crs, com, bad, r, op) is False

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    def test_words_must_match_the_opened_count(self, mode):
        crs, com, r, op = self._session(mode)
        opened = mask(12, [0, 3, 4, 9])
        op = restrict_opening(op, opened)
        assert hbg_verify_batch(crs, com, opened, r[opened], op) is True
        for words in (r[opened][:-1], r[mask(12, [0, 3, 4, 9, 10])], r):
            assert hbg_verify_batch(crs, com, opened, words, op) is False

    @pytest.mark.parametrize("width", [1, 3])
    def test_seed_count_one_short_or_one_over_rejects(self, width):
        crs, com, r, op = self._session("naor", width)
        opened = mask(12, [1, 2, 7, 11])
        seeds = restrict_opening(op, opened, width).seeds
        assert len(seeds) == opened.sum() * width
        assert hbg_verify_batch(crs, com, opened, r[opened], NaorOpening(seeds)) is True
        for bad in (seeds[:-1], np.append(seeds, seeds[:1]), op.seeds):
            assert hbg_verify_batch(crs, com, opened, r[opened], NaorOpening(bad)) is False

    @pytest.mark.parametrize("width", [1, 3])
    def test_partly_opened_payload_carries_only_the_opened_seeds(self, width):
        from cenizk.wire import decode, encode, opening_from_payload, opening_payload

        crs, com, r, op = self._session("naor", width)
        opened = mask(12, [0, 5, 6, 10])
        payload = decode(encode(opening_payload(restrict_opening(op, opened, width))))
        assert list(payload) == ["kind", "seeds"] and payload["kind"] == "naor"
        assert np.array_equal(payload["seeds"], op.seeds[np.repeat(opened, width)])
        assert hbg_verify_batch(crs, com, opened, r[opened], opening_from_payload(payload))
        # with every prover seed distinct, no closed position's seed is sent
        distinct = NaorOpening(np.arange(12 * width, dtype=np.uint64) + 100)
        sent = opening_payload(restrict_opening(distinct, opened, width))["seeds"]
        assert len(sent) == opened.sum() * width
        assert not np.isin(distinct.seeds[~np.repeat(opened, width)], sent).any()

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    def test_restriction_to_every_position_is_the_opening_itself(self, mode):
        _, _, _, op = self._session(mode)
        assert restrict_opening(op, np.ones(12, dtype=bool)) is op
        if mode == "dealer":
            assert restrict_opening(op, mask(12, [3])) is op


@pytest.fixture
def identity_g(monkeypatch):
    """A broken G for the test that takes it: a seed's own bytes. G's
    one cache, its table, is cleared before and after, so
    the real G cannot reach the test and no trace of the fake reaches a
    test that runs under the real G. The fake is checked to be the G that
    is read, so a cache added later cannot leak the real one in."""
    hbg._g_table.cache_clear()
    monkeypatch.setattr(hbg, "_expand", lambda seed, n: seed.to_bytes(n, "big"))
    params = HbgParams(k=1, s=8)
    assert [prg_expand(x, params) for x in (0, 5, 255)] == [x.to_bytes(params.out_bytes, "big") for x in (0, 5, 255)]
    yield
    hbg._g_table.cache_clear()


class TestHidingControl:
    def _predict_bits(self, rng):
        # distinguisher: guess r_i = 0 iff the top 2s bits of c_i are zero
        # (the identity G leaves them zero for r=0 and is exposed by u)
        crs = hbg_setup(64, "naor", rng, s=8)
        com, r, _ = hbg_genbits(crs, rng)
        correct = 0
        top_bytes = 2 * crs.params.s // 8
        for i in range(64):
            c = np.frombuffer(com.data, dtype=np.uint8).reshape(-1, crs.params.out_bytes)[i]
            guess = 0 if not c[:top_bytes].any() else 1
            correct += guess == r[i]
        return correct / 64

    def test_identity_prg_leaks(self, rng, identity_g):
        acc = np.mean([self._predict_bits(rng) for _ in range(20)])
        assert acc > 0.95  # negative control: broken PRG exposes the bits

    def test_production_prg_passes_same_test(self, rng):
        acc = np.mean([self._predict_bits(rng) for _ in range(20)])
        assert abs(acc - 0.5) < 0.1  # the same distinguisher is blind here

    def test_identity_prg_still_binds(self, identity_g):
        # an injective G binds: Open recovers the bits it cannot hide
        rng = stream(0, "identity-binds")
        crs = hbg_setup(64, "naor", rng, s=8)
        com, r, _ = hbg_genbits(crs, rng)
        res = hbg_open(crs, com)
        assert np.array_equal(res.bits, r) and not res.equivocal.any() and not res.garbage.any()


class TestWords:
    """Positions of width > 1: the generator draws one word per position;
    naor commits each of its bits and Open packs them back."""

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    @pytest.mark.parametrize("width", [2, 6, 8])
    def test_round_trip_and_flipped_bits(self, mode, width):
        rng = stream(width, "words", mode)
        crs = hbg_setup(12, mode, rng, s=8, width=width)
        com, r, op = hbg_genbits(crs, rng)
        assert r.dtype == np.uint8 and r.shape == (12,) and not np.any(r >> width)
        assert not r.flags.writeable
        every = np.ones(12, dtype=bool)
        assert hbg_verify_batch(crs, com, every, r, op)
        assert all(verify_each(crs, com, r, op))
        at5 = restrict_opening(op, mask(12, [5]), width)
        for j in (0, width - 1):
            bad = r.copy()
            bad[5] ^= 1 << j
            assert not hbg_verify_batch(crs, com, every, bad, op)
            assert not hbg_verify(crs, com, 5, int(bad[5]), at5)
        # a bit at or above the width is never part of an opening
        assert not hbg_verify(crs, com, 5, int(r[5]) | (1 << width), at5)

    @pytest.mark.parametrize("width", [2, 6])
    def test_naor_commits_every_bit_and_open_packs_them(self, width):
        rng = stream(width, "words-open")
        crs = hbg_setup(5, "naor", rng, s=10, width=width)
        assert crs.u.shape == (5 * width, crs.params.out_bytes)
        com, r, op = hbg_genbits(crs, rng)
        assert op.seeds.shape == (5 * width,) and len(com.data) == 5 * width * crs.params.out_bytes
        for i in range(5):
            for j in range(width):
                p = i * width + j
                c = np.frombuffer(com.data, dtype=np.uint8).reshape(-1, crs.params.out_bytes)[p]
                g = np.frombuffer(prg_expand(int(op.seeds[p]), crs.params), dtype=np.uint8)
                assert np.array_equal(c ^ crs.u[p] if (r[i] >> j) & 1 else c, g)
        res = hbg_open(crs, com)
        assert res.bits.dtype == np.uint8 and np.array_equal(res.bits, r)
        assert res.equivocal.shape == res.garbage.shape == (5,)

    def test_subset_opening_covers_the_bits_of_its_positions(self):
        rng = stream(0, "words-subset")
        crs = hbg_setup(6, "naor", rng, s=8, width=3)
        com, r, op = hbg_genbits(crs, rng)
        sub = restrict_opening(op, mask(6, [1, 4]), 3)
        assert np.array_equal(sub.seeds, op.seeds[[3, 4, 5, 12, 13, 14]])
        assert hbg_verify_batch(crs, com, mask(6, [1, 4]), r[[1, 4]], sub)
        assert not hbg_verify_batch(crs, com, mask(6, [1, 2]), r[[1, 2]], sub)

    def test_width_above_a_byte_rejected(self, rng):
        with pytest.raises(ValueError, match="width"):
            hbg_setup(4, "dealer", rng, width=9)


def g_reference(seed: int, s: int) -> bytes:
    """G at one seed straight from hashlib, masked to its 3s bits here."""
    n = (3 * s + 7) // 8
    raw = hashlib.blake2b(seed.to_bytes(8, "big"), digest_size=n, person=b"hbg-prg").digest()
    return (int.from_bytes(raw, "big") & ((1 << 3 * s) - 1)).to_bytes(n, "big")


def reference_verify(crs, com, opened, words, opening) -> bool:
    """naor-mode hbg_verify_batch written out one committed bit at a time
    from prg_expand and crs.u."""
    p, n = crs.params, crs.params.out_bytes
    if not isinstance(com, HbgCommitment) or len(com.data) != p.committed * n:
        return False
    if not isinstance(opened, np.ndarray) or opened.dtype != bool or opened.shape != (p.k,):
        return False
    indices = [i for i in range(p.k) if opened[i]]
    if not isinstance(words, np.ndarray) or words.dtype.kind != "u" or words.shape != (len(indices),):
        return False
    seeds = opening.seeds
    if seeds.dtype.kind not in "iu" or seeds.shape != (len(indices) * p.width,):
        return False
    seeds = iter(seeds.tolist())  # the opened positions' committed bits, in order
    g_of = {}  # G per seed, computed once
    for i, word in zip(indices, words.tolist()):
        if word >> p.width:
            return False
        for j in range(p.width):
            q, seed = i * p.width + j, next(seeds)
            if not 0 <= seed < 1 << p.s:
                return False
            if seed not in g_of:
                g_of[seed] = np.frombuffer(prg_expand(seed, p), dtype=np.uint8)
            if com.data[q * n : (q + 1) * n] != (g_of[seed] ^ crs.u[q] * ((word >> j) & 1)).tobytes():
                return False
    return True


class TestOneG:
    """G is one read-only table over every s-bit seed; prg_expand is one row."""

    @pytest.mark.parametrize("s", [2, 12, 16])
    def test_prg_expand_pinned(self, s):
        params = HbgParams(k=1, s=s)
        for seed in sorted({0, 1, 3, (1 << s) // 3, (1 << s) - 1}):
            assert prg_expand(seed, params) == g_reference(seed, s)

    @pytest.mark.parametrize("s", [2, 12, 16])
    def test_seed_outside_s_bits_raises(self, s):
        for seed in (1 << s, -1):
            with pytest.raises(ValueError, match="wider"):
                prg_expand(seed, HbgParams(k=1, s=s))

    def test_rows_of_repeated_seeds(self):
        params = HbgParams(k=1, s=10)
        table = _g_table(10).rows
        assert table.shape == (1 << 10, params.out_bytes) and table.dtype == np.uint8
        seeds = np.array([5, 1023, 5, 0, 1023, 5], dtype=np.uint64)
        rows = table[seeds]
        assert rows.shape == (6, params.out_bytes)
        assert [row.tobytes() for row in rows] == [g_reference(int(x), 10) for x in seeds]
        assert table[seeds[:0]].shape == (0, params.out_bytes)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] ^= 1
        assert table[0].tobytes() == g_reference(0, 10)


class TestBatchMatchesReference:
    """hbg_verify_batch gives reference_verify's verdict on honest and
    tampered inputs, at widths 1, 6 and 8."""

    @staticmethod
    def _session(width, k=12, s=8):
        rng = stream(width, "reference", k)
        crs = hbg_setup(k, "naor", rng, s=s, width=width)
        com, r, op = hbg_genbits(crs, rng)
        return crs, com, r, op

    @staticmethod
    def _verdict(crs, com, indices, words, opening) -> bool:
        want = reference_verify(crs, com, indices, words, opening)
        assert hbg_verify_batch(crs, com, indices, words, opening) is want
        return want

    @pytest.mark.parametrize("width", [1, 6, 8])
    def test_mutated_commitments_and_flipped_bits(self, width):
        crs, com, r, op = self._session(width)
        n, every = crs.params.out_bytes, np.ones(12, dtype=bool)
        assert self._verdict(crs, com, every, r, op)
        for q in (0, 5 * width, 12 * width - 1):
            for byte in (0, n - 1):
                data = bytearray(com.data)
                data[q * n + byte] ^= 1
                assert not self._verdict(crs, HbgCommitment(bytes(data)), every, r, op)
        for i in (0, 7, 11):
            for j in range(width):
                bad = r.copy()
                bad[i] ^= 1 << j
                assert not self._verdict(crs, com, every, bad, op)

    @pytest.mark.parametrize("width", [1, 6, 8])
    def test_seeds_wider_than_s(self, width):
        crs, com, r, op = self._session(width)
        s, n, q = crs.params.s, crs.params.out_bytes, 3 * width + width // 2
        seeds = op.seeds.copy()
        seeds[q] += np.uint64(1 << s)
        every, at3 = np.ones(12, dtype=bool), mask(12, [3])
        assert not self._verdict(crs, com, every, r, NaorOpening(seeds))
        # a commitment made honestly from a seed outside [0, 2^s): G is
        # defined there, so only the seed-width check rejects it
        bit = (int(r[3]) >> (q - 3 * width)) & 1
        c = np.frombuffer(g_reference(int(seeds[q]), s), dtype=np.uint8) ^ crs.u[q] * bit
        forged = HbgCommitment(com.data[: q * n] + c.tobytes() + com.data[(q + 1) * n :])
        assert not self._verdict(crs, forged, every, r, NaorOpening(seeds))
        sub = restrict_opening(NaorOpening(seeds), at3, width)
        assert not self._verdict(crs, forged, at3, r[[3]], sub)
        assert not self._verdict(crs, forged, at3, r[[3]], NaorOpening(sub.seeds.astype(np.int64)))

    @pytest.mark.parametrize("width", [1, 6, 8])
    def test_seeds_follow_the_mask_in_position_order(self, width):
        crs, com, r, op = self._session(width)
        opened = mask(12, [1, 4, 6])
        seeds = restrict_opening(op, opened, width).seeds
        assert self._verdict(crs, com, opened, r[opened], NaorOpening(seeds))
        assert self._verdict(crs, com, mask(12, []), r[:0], NaorOpening(seeds[:0]))
        for other in ([1, 2, 6], [0, 4, 6], [1, 4]):
            assert not self._verdict(crs, com, mask(12, other), r[other], NaorOpening(seeds))
        # the seeds of positions 1 and 4 swapped, and each position's bits reversed
        blocks = seeds.reshape(3, width)
        swapped, reversed_bits = blocks[[1, 0, 2]].ravel(), blocks[:, ::-1].ravel()
        for bad in (swapped, reversed_bits, seeds[:-1], np.append(seeds, seeds[:1])):
            if not np.array_equal(bad, seeds):
                assert not self._verdict(crs, com, opened, r[opened], NaorOpening(bad))

    @pytest.mark.parametrize("width", [1, 6, 8])
    def test_across_the_pass_boundary(self, width):
        k = _PASS_BITS // width + 3  # k * width straddles one pass of committed bits
        crs, com, r, op = self._session(width, k=k)
        n, p = crs.params.out_bytes, crs.params
        assert p.committed > _PASS_BITS
        # GenBits: the rows on both sides of the boundary follow the relation
        bits = unpack_rows(r, width).ravel()
        for q in range(_PASS_BITS - 2 * width, p.committed):
            g = np.frombuffer(g_reference(int(op.seeds[q]), p.s), dtype=np.uint8) ^ crs.u[q] * bits[q]
            assert com.data[q * n : (q + 1) * n] == g.tobytes()
        # a partial opening: blocks 0 and 1 closed, and the block holding
        # the first committed bit of the second pass, so the seeds of the
        # second pass start at an offset the first pass's mask sets
        opened = np.ones(k, dtype=bool)
        opened[[0, 1, _PASS_BITS // width]] = False
        sub = restrict_opening(op, opened, width)
        assert len(sub.seeds) == (k - 3) * width
        assert self._verdict(crs, com, opened, r[opened], sub)
        for q in (_PASS_BITS - 1 - width, _PASS_BITS + width, p.committed - 1):
            data = bytearray(com.data)
            data[q * n] ^= 1
            assert not self._verdict(crs, HbgCommitment(bytes(data)), opened, r[opened], sub)
        bad = r[opened].copy()
        bad[-1] ^= 1
        assert not self._verdict(crs, com, opened, bad, sub)

    @pytest.mark.parametrize("width", [1, 6, 8])
    def test_negative_seed(self, width):
        # an int64 seed of -1 would index the table's last row, G(2^s - 1):
        # a commitment made honestly from that seed, opened with -1 instead,
        # is rejected by the seed-width check alone
        crs, com, r, op = self._session(width)
        s, n, q = crs.params.s, crs.params.out_bytes, 3 * width
        seeds = op.seeds.astype(np.int64)
        seeds[q] = (1 << s) - 1
        bit = int(r[3]) & 1
        c = np.frombuffer(g_reference((1 << s) - 1, s), dtype=np.uint8) ^ crs.u[q] * bit
        forged = HbgCommitment(com.data[: q * n] + c.tobytes() + com.data[(q + 1) * n :])
        every = np.ones(12, dtype=bool)
        assert self._verdict(crs, forged, every, r, NaorOpening(seeds))
        seeds[q] = -1
        assert not self._verdict(crs, forged, every, r, NaorOpening(seeds))
        sub = restrict_opening(NaorOpening(seeds), mask(12, [3]), width)
        assert not self._verdict(crs, forged, mask(12, [3]), r[[3]], sub)
        assert not hbg_verify(crs, forged, 3, int(r[3]), sub)

    def test_off_coset_chunk(self):
        # criterion 9's adversarial chunk (its seed and stream): outside
        # both cosets at s=8, so no seed and no claimed bit verifies
        rng = stream(CRITERION_SEED, "c9-off")
        crs = hbg_setup(1, "naor", rng, s=8)
        image = {prg_expand(seed, crs.params) for seed in range(256)}
        while True:
            c = rng.integers(0, 256, size=crs.params.out_bytes, dtype=np.uint8)
            c[0] &= 0xFF >> (8 * crs.params.out_bytes - crs.params.out_bits)
            if c.tobytes() not in image and (c ^ crs.u[0]).tobytes() not in image:
                break
        com = HbgCommitment(c.tobytes())
        for seed in range(256):
            op = NaorOpening(np.array([seed], dtype=np.uint64))
            for bit in (0, 1):
                assert not self._verdict(crs, com, np.ones(1, dtype=bool), np.array([bit], dtype=np.uint8), op)
                assert not hbg_verify(crs, com, 0, bit, op)


AT2 = mask(6, [2])


class TestWordRule:
    """hbg_verify_batch takes words as unsigned arrays with no bit at or
    above the width, checked before any cast; naor commitments are exactly
    `committed` rows."""

    @staticmethod
    def _session(mode):
        rng = stream(3, "word-rule", mode)
        crs = hbg_setup(6, mode, rng, s=8, width=8)
        com, r, op = hbg_genbits(crs, rng)
        return crs, com, r, restrict_opening(op, AT2, 8)

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    def test_words_that_cast_to_the_right_word_reject(self, mode):
        crs, com, r, op = self._session(mode)
        v = int(r[2])
        assert hbg_verify_batch(crs, com, AT2, np.array([v], dtype=np.uint8), op)
        assert hbg_verify_batch(crs, com, AT2, np.array([v], dtype=np.uint64), op)
        for bad in (
            np.array([v + 256]),
            np.array([v - 256]),
            np.array([v + 0.5]),
            np.array([float(v)]),
            np.array([v], dtype=np.int64),
            np.array([[v]], dtype=np.uint8),
            np.array([v + 256], dtype=np.uint16),
            [v + 256],
            [-1],
            [v],
            None,
        ):
            assert hbg_verify_batch(crs, com, AT2, bad, op) is False
        for bad in (v + 0.5, float(v), v + 256, -1, None, "3"):
            assert hbg_verify(crs, com, 2, bad, op) is False
        assert hbg_verify(crs, com, 2.0, v, op) is False
        assert hbg_verify(crs, com, np.int64(2), np.uint8(v), op)

    @pytest.mark.parametrize("mode", ["dealer", "naor"])
    def test_commitment_must_be_an_hbg_commitment(self, mode):
        crs, com, r, op = self._session(mode)
        for bad in (com.data, None):
            assert hbg_verify_batch(crs, bad, AT2, r[[2]], op) is False
            assert hbg_verify(crs, bad, 2, int(r[2]), op) is False

    def test_naor_commitment_length_is_exact(self):
        crs, com, r, op = self._session("naor")
        n = crs.params.out_bytes
        assert hbg_verify_batch(crs, com, AT2, r[[2]], op)
        for data in (com.data + b"\0", com.data + com.data[:n], com.data[: 3 * 8 * n], com.data[:-1]):
            assert hbg_verify_batch(crs, HbgCommitment(data), AT2, r[[2]], op) is False
            assert hbg_verify(crs, HbgCommitment(data), 2, int(r[2]), op) is False
