"""Hidden-bits NIZK tests.

The usefulness-rate formula is validated two ways: a brute-force
counting oracle enumerating every matrix at small size, and a
two-stage Monte Carlo sampler at the production shape. Soundness of
the useful-claim lane is checked exhaustively over all 2^9 hidden
strings at the smallest geometry.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cenizk import hbnizk
from cenizk.graphs import (
    CycleWitness,
    Digraph,
    canonical_cycle,
    complete_digraph,
    non_hamiltonian_triangle,
    two_cycle_pair,
)
from cenizk.hbnizk import (
    HbParams,
    HbProof,
    RepRevealAll,
    RepUseful,
    bits_to_matrix,
    cheat_prove,
    hb_prove,
    hb_simulate,
    hb_verify,
    required_mask,
    useful_probability,
    usefulness,
)
from cenizk.rng import stream

TINY = HbParams(n=3, repetitions=1, matrix_side=3, block_len=1)


def int_block(v, nbits):
    return np.array([(v >> (nbits - 1 - i)) & 1 for i in range(nbits)], dtype=np.uint8)


class TestDigraphDigest:
    def test_small_graph_bytes_unchanged(self):
        # the derived-sound commitments hash these bytes
        assert non_hamiltonian_triangle().digest().hex() == "035100"
        assert complete_digraph(4).digest().hex() == "047bde"

    def test_largest_n_fits_one_byte(self):
        d = Digraph(255, np.zeros((255, 255), dtype=bool)).digest()
        assert d[0] == 255 and len(d) == 1 + (255 * 255 + 7) // 8

    def test_n_256_names_the_limit(self):
        with pytest.raises(ValueError, match="n < 256"):
            Digraph(256, np.zeros((256, 256), dtype=bool)).digest()


class TestDecodeAndUsefulness:
    def test_slice_all_ones(self):
        m = bits_to_matrix(np.array([1, 1], dtype=np.uint8), 1, 2)
        assert m[0, 0]

    def test_slice_partial(self):
        m = bits_to_matrix(np.array([1, 0], dtype=np.uint8), 1, 2)
        assert not m[0, 0]

    def test_zero_block(self):
        m = bits_to_matrix(np.zeros(9, dtype=np.uint8), 3, 1)
        assert not m.any()

    def test_three_cycle_useful(self):
        mat = np.zeros((3, 3), dtype=bool)
        mat[0, 1] = mat[1, 2] = mat[2, 0] = True
        hidden = usefulness(mat, 3)
        assert hidden is not None
        assert hidden.order == (0, 1, 2)
        # the orbit from the smallest vertex, not the sorted vertices
        assert usefulness(mat.T, 3).order == (0, 2, 1)

    def test_fixed_points_not_useful(self):
        mat = np.eye(3, dtype=bool)
        assert usefulness(mat, 3) is None

    def test_wrong_count_not_useful(self):
        mat = np.zeros((3, 3), dtype=bool)
        mat[0, 1] = mat[1, 2] = mat[2, 0] = mat[0, 2] = True
        assert usefulness(mat, 3) is None

    def test_disjoint_row_col_sets_not_useful(self):
        # ones in rows {0,1,2} and cols {3,4,5}: a permutation pattern but
        # not a directed cycle on a shared vertex set
        mat = np.zeros((6, 6), dtype=bool)
        mat[0, 4] = mat[1, 5] = mat[2, 3] = True
        assert usefulness(mat, 3) is None


class TestUsefulRate:
    def brute_force_count(self, m, n):
        # independent oracle: enumerate every 0/1 matrix at block_len=1
        cells = m * m
        every = (np.arange(1 << cells)[:, None] >> np.arange(cells - 1, -1, -1)) & 1
        return sum(usefulness(mat, n) is not None for mat in every.astype(bool).reshape(-1, m, m))

    def test_exhaustive_m3(self):
        count = self.brute_force_count(3, 3)
        assert count == 2
        assert useful_probability(3, 1, 3) * 2**9 == pytest.approx(count)

    def test_exhaustive_m4_distinguishes_the_reading(self):
        # C(4,3) * (3-1)! = 8 single directed 3-cycles; the shared-vertex-set
        # requirement is what separates this from larger pattern counts
        count = self.brute_force_count(4, 3)
        assert count == 8
        assert count / 2**16 == pytest.approx(useful_probability(4, 1, 3), rel=1e-12)

    @pytest.mark.parametrize("m,n,count", [(2, 2, 1), (3, 2, 3), (4, 2, 6), (4, 4, 6)])
    def test_exhaustive_small_shapes(self, m, n, count):
        # with (3, 3) and (4, 3) above, every 2 <= n <= m <= 4; at (4, 4)
        # the 3 pairs of disjoint 2-cycles hold 4 ones on one vertex set
        # and are not useful
        assert self.brute_force_count(m, n) == count
        assert count / 2 ** (m * m) == pytest.approx(useful_probability(m, 1, n), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_n_one_never_useful(self, m):
        # the closed form counts the m lone self-loops at n = 1, so the
        # comparison with it starts at n = 2
        assert self.brute_force_count(m, 1) == 0
        assert useful_probability(m, 1, 1) * 2 ** (m * m) == pytest.approx(m)

    def test_monte_carlo_production_shape(self, rng):
        # two-stage sampler: Binomial one-count filter, then uniform
        # placement of the ones, equivalent to sampling full matrices
        m, b, n = 27, 10, 3
        p = 2.0**-b
        cells = m * m
        trials = 2_000_000
        ones_counts = rng.binomial(cells, p, size=trials)
        hits = 0
        for count in ones_counts:
            if count != n:
                continue
            flat = rng.choice(cells, size=n, replace=False)
            mat = np.zeros((m, m), dtype=bool)
            mat[flat // m, flat % m] = True
            if usefulness(mat, n) is not None:
                hits += 1
        p_hat = hits / trials
        p_true = useful_probability(m, b, n)
        sigma = math.sqrt(p_true * (1 - p_true) / trials)
        assert abs(p_hat - p_true) <= 3 * sigma


class TestProveVerify:
    def test_completeness_exhaustive_tiny(self):
        # all 2^9 hidden strings accept for the complete-triangle witness
        g, w = complete_digraph(3), canonical_cycle(3)
        for v in range(512):
            r = int_block(v, 9)
            opened, proof = hb_prove(r, g, w, TINY)
            assert hb_verify(opened, r[opened], g, proof, TINY)

    def test_completeness_randomized_production(self, rng):
        params = HbParams(n=4, repetitions=3, matrix_side=64, block_len=10)
        g, w = complete_digraph(4), canonical_cycle(4)
        for _ in range(3):
            r = rng.integers(0, 2, size=params.total_bits, dtype=np.uint8)
            opened, proof = hb_prove(r, g, w, params)
            assert hb_verify(opened, r[opened], g, proof, params)

    def test_all_not_useful_reveals_everything(self):
        g, w = complete_digraph(3), canonical_cycle(3)
        r = np.zeros(9, dtype=np.uint8)  # zero matrix: not useful
        opened, proof = hb_prove(r, g, w, TINY)
        assert isinstance(proof.reps[0], RepRevealAll)
        assert opened.dtype == bool and opened.all()

    def test_useful_block_opens_non_edges_only(self, rng):
        g, w = complete_digraph(3), canonical_cycle(3)
        # force the useful matrix with cycle 0->1->2->0
        r = np.zeros(9, dtype=np.uint8)
        r[[1, 5, 6]] = 1  # entries (0,1), (1,2), (2,0)
        opened, proof = hb_prove(r, g, w, TINY)
        assert isinstance(proof.reps[0], RepUseful)
        # opened entries all decode to zero
        assert not r[opened].any()
        # the six statement-edge entries stay closed (K3 has 6 edges)
        assert np.count_nonzero(opened) == 3

    def test_flipped_opened_bit_rejected_useful(self):
        # useful repetition: every opened entry must decode to zero, so
        # any value flip is caught
        g, w = complete_digraph(3), canonical_cycle(3)
        r = np.zeros(9, dtype=np.uint8)
        r[[1, 5, 6]] = 1
        opened, proof = hb_prove(r, g, w, TINY)
        assert isinstance(proof.reps[0], RepUseful)
        for pos in range(np.count_nonzero(opened)):
            vals = r[opened]
            vals[pos] ^= 1
            assert not hb_verify(opened, vals, g, proof, TINY)

    def test_flipped_opened_bits_rejected_reveal_all(self):
        # reveal-all repetition: flips are caught when they make the
        # revealed matrix decode as useful
        g, w = complete_digraph(3), canonical_cycle(3)
        r = np.zeros(9, dtype=np.uint8)
        opened, proof = hb_prove(r, g, w, TINY)
        assert isinstance(proof.reps[0], RepRevealAll)
        vals = r[opened]
        vals[[1, 5, 6]] ^= 1  # now decodes to the 3-cycle: useful
        assert not hb_verify(opened, vals, g, proof, TINY)

    def test_invalid_witness_raises(self):
        g = non_hamiltonian_triangle()
        with pytest.raises(ValueError):
            hb_prove(np.zeros(9, dtype=np.uint8), g, CycleWitness((0, 1, 2)), TINY)

    def test_malformed_index_set_rejects(self):
        # the opened set is a (total_bits,) bool mask; nothing else is read
        g, w = complete_digraph(3), canonical_cycle(3)
        r = np.zeros(9, dtype=np.uint8)  # reveal-all, so every value is opened
        opened, proof = hb_prove(r, g, w, TINY)
        assert hb_verify(opened, r, g, proof, TINY)
        uint8_two = opened.astype(np.uint8)
        uint8_two[0] = 2
        for bad in [
            opened[:-1],  # too short
            np.append(opened, True),  # too long
            opened.reshape(3, 3),  # 2-D
            uint8_two,  # not bool
            np.arange(9),  # the index array of the same set
            list(opened),  # not an array
        ]:
            assert not hb_verify(bad, r[: np.count_nonzero(bad)], g, proof, TINY)
        assert not hb_verify(np.zeros(9, dtype=bool), r[:0], g, proof, TINY)  # all False

    def test_verifier_never_reads_unopened_bits(self, rng):
        # interface-level guarantee: verdicts depend only on r[opened]
        g, w = complete_digraph(3), canonical_cycle(3)
        r = np.zeros(9, dtype=np.uint8)
        r[[1, 5, 6]] = 1
        opened, proof = hb_prove(r, g, w, TINY)
        r_scrambled = r.copy()
        r_scrambled[~opened] ^= 1
        assert hb_verify(opened, r_scrambled[opened], g, proof, TINY)


class TestSoundnessExhaustive:
    def test_no_useful_hidden_string_has_accepting_proof(self):
        """For the fixed non-Hamiltonian instance, whenever the true
        matrix is useful, no claimed map is accepted (all 2^9 strings x
        all 6 injections checked)."""
        import itertools

        bad = non_hamiltonian_triangle()
        params = TINY
        useful_strings = 0
        for v in range(512):
            r = int_block(v, 9)
            hidden = usefulness(bits_to_matrix(r, 3, 1), 3)
            for vmap in itertools.permutations(range(3)):
                from cenizk.hbnizk import HbProof, required_mask

                proof = HbProof((RepUseful(tuple(vmap)),))
                opened = required_mask(tuple(vmap), bad, params)
                accepted = hb_verify(opened, r[opened], bad, proof, params)
                if hidden is not None:
                    assert not accepted, f"useful string {v:09b} accepted via {vmap}"
            if hidden is not None:
                useful_strings += 1
        assert useful_strings == 2

    def test_reveal_all_boundary_documented(self):
        # the complementary fact: a not-useful string always accepts the
        # honest reveal-all answer even for a false statement; this is
        # the analytic (1-q)^rho term excluded from the adversary set
        from cenizk.hbnizk import HbProof

        bad = non_hamiltonian_triangle()
        r = np.zeros(9, dtype=np.uint8)
        proof = HbProof((RepRevealAll(),))
        opened = np.ones(9, dtype=bool)
        assert hb_verify(opened, r[opened], bad, proof, TINY)


class TestSimulator:
    def digest(self, opened, r_I, proof):
        reps = []
        for rep in proof.reps:
            if isinstance(rep, RepRevealAll):
                reps.append(("all",))
            else:
                reps.append(("useful", rep.vertex_map))
        return (tuple(opened.tolist()), tuple(int(b) for b in r_I), tuple(reps))

    def test_tv_distance_real_vs_simulated(self, rng):
        g, w = complete_digraph(3), canonical_cycle(3)
        samples = 100_000
        real_counts: dict = {}
        sim_counts: dict = {}
        r_all = rng.integers(0, 2, size=(samples, 9), dtype=np.uint8)
        for i in range(samples):
            r = r_all[i]
            opened, proof = hb_prove(r, g, w, TINY)
            key = self.digest(opened, r[opened], proof)
            real_counts[key] = real_counts.get(key, 0) + 1
            opened2, rI2, proof2 = hb_simulate(g, TINY, rng)
            key2 = self.digest(opened2, rI2, proof2)
            sim_counts[key2] = sim_counts.get(key2, 0) + 1
        keys = set(real_counts) | set(sim_counts)
        tv = 0.5 * sum(abs(real_counts.get(k, 0) - sim_counts.get(k, 0)) for k in keys) / samples
        assert tv <= 0.05

    def test_not_useful_paths_identical(self, rng):
        # conditioning on a reveal-all repetition, both samplers emit the
        # block verbatim; digests coincide exactly
        g, w = complete_digraph(3), canonical_cycle(3)
        r = np.zeros(9, dtype=np.uint8)
        opened, proof = hb_prove(r, g, w, TINY)
        sim_rng = stream(99, "fixed")
        while True:
            opened2, rI2, proof2 = hb_simulate(g, TINY, sim_rng)
            if isinstance(proof2.reps[0], RepRevealAll):
                break
        assert isinstance(proof.reps[0], RepRevealAll)
        assert np.array_equal(opened, opened2)

    def test_opened_index_marginal(self, rng):
        # P[every bit is opened] is the not-useful rate on both sides
        g, w = complete_digraph(3), canonical_cycle(3)
        trials = 20_000
        p_real = 0
        p_sim = 0
        r_all = rng.integers(0, 2, size=(trials, 9), dtype=np.uint8)
        for i in range(trials):
            opened, _ = hb_prove(r_all[i], g, w, TINY)
            p_real += opened.all()
            opened2, _, _ = hb_simulate(g, TINY, rng)
            p_sim += opened2.all()
        p = 1 - useful_probability(3, 1, 3)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(p_real / trials - p) <= 3 * sigma
        assert abs(p_sim / trials - p) <= 3 * sigma

    def test_simulated_proofs_verify(self, rng):
        g = complete_digraph(3)
        for _ in range(200):
            opened, r_I, proof = hb_simulate(g, TINY, rng)
            assert hb_verify(opened, r_I, g, proof, TINY)


class TestAmplify:
    def test_rho_one_is_base(self):
        # one repetition consumes one block; rho repetitions, rho blocks
        assert TINY.repetitions == 1 and TINY.total_bits == TINY.bits_per_rep
        assert HbParams(TINY.n, 7, TINY.matrix_side, TINY.block_len).total_bits == 7 * TINY.bits_per_rep

    def test_completeness_preserved(self, rng):
        params = HbParams(TINY.n, 7, TINY.matrix_side, TINY.block_len)
        g, w = complete_digraph(3), canonical_cycle(3)
        r = rng.integers(0, 2, size=params.total_bits, dtype=np.uint8)
        opened, proof = hb_prove(r, g, w, params)
        assert hb_verify(opened, r[opened], g, proof, params)

    def test_false_statement_amplification(self, rng):
        """Measured single-repetition cheat rate p1; at rho=20 the
        acceptance must sit below p1^20 + 3 sigma (which is essentially
        zero, so: no acceptances)."""
        bad = non_hamiltonian_triangle()
        trials = 3_000
        hits = 0
        for _ in range(trials):
            r = rng.integers(0, 2, size=TINY.total_bits, dtype=np.uint8)
            opened, proof, coverable = cheat_prove(r, bad, TINY, rng)
            hits += int(hb_verify(opened, r[opened], bad, proof, TINY))
        p1 = hits / trials
        assert p1 < 0.25  # tiny-geometry cheat rate sanity bound

        params20 = HbParams(TINY.n, 20, TINY.matrix_side, TINY.block_len)
        accepted = 0
        for _ in range(300):
            r = rng.integers(0, 2, size=params20.total_bits, dtype=np.uint8)
            opened, proof, _ = cheat_prove(r, bad, params20, rng)
            accepted += int(hb_verify(opened, r[opened], bad, proof, params20))
        bound = p1**20 + 3 * math.sqrt(max(p1**20 * (1 - p1**20), 1e-9) / 300)
        assert accepted / 300 <= bound + 3 * math.sqrt(0.25 / 300)

    def test_cheat_accept_iff_all_coverable(self, rng):
        bad = non_hamiltonian_triangle()
        params = HbParams(TINY.n, 3, TINY.matrix_side, TINY.block_len)
        for _ in range(300):
            r = rng.integers(0, 2, size=params.total_bits, dtype=np.uint8)
            opened, proof, coverable = cheat_prove(r, bad, params, rng)
            accepted = hb_verify(opened, r[opened], bad, proof, params)
            assert accepted == (coverable == params.repetitions)


# ---------------------------------------------------------------------
# table decoding against the per-repetition reference
# ---------------------------------------------------------------------

# quantum-output and classical criterion-3 shapes (table path), and one
# shape above the table cap (per-repetition path)
FIXTURES = {
    "quantum": (HbParams(n=2, repetitions=8, matrix_side=2, block_len=1), two_cycle_pair()),
    "classical": (HbParams(n=3, repetitions=3, matrix_side=3, block_len=1), (complete_digraph(3), canonical_cycle(3))),
    "above-cap": (HbParams(n=2, repetitions=4, matrix_side=2, block_len=4), two_cycle_pair()),
}


def ref_decode(block, params):
    return usefulness(bits_to_matrix(block, params.matrix_side, params.block_len), params.n)


def ref_prove(r, x, witness, params):
    """hb_prove one repetition at a time."""
    kp, n = params.bits_per_rep, params.n
    reps, opened = [], []
    for rep in range(params.repetitions):
        hidden = ref_decode(r[rep * kp : (rep + 1) * kp], params)
        if hidden is None:
            reps.append(RepRevealAll())
            opened.append(np.ones(kp, dtype=bool))
            continue
        # walk both cycles in step: the witness from 0, the hidden one from its least vertex
        g, h = witness.order.index(0), hidden.order.index(min(hidden.order))
        vmap = [0] * n
        for step in range(n):
            vmap[witness.order[(g + step) % n]] = hidden.order[(h + step) % n]
        reps.append(RepUseful(tuple(vmap)))
        opened.append(required_mask(tuple(vmap), x, params))
    return np.concatenate(opened), HbProof(tuple(reps))


def ref_verify(opened, r_I, x, proof, params):
    """hb_verify one repetition at a time, rebuilding each matrix."""
    kp, m, b = params.bits_per_rep, params.matrix_side, params.block_len
    if len(proof.reps) != params.repetitions or not isinstance(opened, np.ndarray):
        return False
    if opened.dtype != bool or opened.shape != (params.total_bits,) or r_I.shape != (opened.sum(),):
        return False
    start = 0
    for rep, rep_proof in enumerate(proof.reps):
        row = opened[rep * kp : (rep + 1) * kp]
        vals = r_I[start : start + row.sum()]
        start += row.sum()
        if isinstance(rep_proof, RepRevealAll):
            if not row.all() or ref_decode(vals, params) is not None:
                return False
            continue
        vmap = rep_proof.vertex_map
        if len(vmap) != params.n or len(set(vmap)) != params.n or not all(0 <= v < m for v in vmap):
            return False
        if not np.array_equal(row, required_mask(vmap, x, params)):
            return False
        block = np.ones(kp, dtype=np.uint8)
        block[row] = vals
        matrix = bits_to_matrix(block, m, b)
        for a, c in np.argwhere(x.adjacency):
            matrix[vmap[a], vmap[c]] = False
        if matrix.any():
            return False
    return True


def ref_simulate(x, params, rng):
    """hb_simulate one repetition at a time, with the same draws: every
    block first, then each useful repetition's map in repetition order."""
    kp = params.bits_per_rep
    reps, opened, values = [], [], []
    blocks = [rng.integers(0, 2, size=kp, dtype=np.uint8) for _ in range(params.repetitions)]
    for block in blocks:
        hidden = ref_decode(block, params)
        if hidden is None:
            reps.append(RepRevealAll())
            opened.append(np.ones(kp, dtype=bool))
            values.append(block)
        else:
            w = sorted(hidden.order)
            vmap = tuple([w[0]] + [int(v) for v in rng.permutation(w[1:])])
            reps.append(RepUseful(vmap))
            need = required_mask(vmap, x, params)
            opened.append(need)
            values.append(np.zeros(np.count_nonzero(need), dtype=np.uint8))
    return np.concatenate(opened), np.concatenate(values), HbProof(tuple(reps))


@pytest.fixture
def usefulness_calls(monkeypatch):
    """Records the matrix of every call hbnizk makes to usefulness."""
    calls = []

    def counted(matrix, n):
        calls.append(matrix.copy())
        return usefulness(matrix, n)

    monkeypatch.setattr(hbnizk, "usefulness", counted)
    return calls


def planted_block(rng, m, b, entries):
    """A random m*m*b block whose one-entries are exactly `entries`:
    uniform bits, each all-ones slice outside them broken by one zero."""
    block = rng.integers(0, 2, size=(m, m, b), dtype=np.uint8)
    block[block.all(-1), 0] = 0
    for u, v in entries:
        block[u, v] = 1
    return block.reshape(-1)


def near_misses(rng, m, n):
    """One-entry sets around a random hidden n-cycle: the cycle, n - 1 and
    n + 1 ones, n ones on a path (not a cycle), n ones with a self-loop,
    and two cycles whose n ones share one vertex set when n is even."""
    w = [int(v) for v in rng.permutation(m)[: n + 1]]
    cycle = [(w[i], w[(i + 1) % n]) for i in range(n)]
    out = {
        "cycle": cycle,
        "short": cycle[:-1],
        "long": cycle + [(w[0], w[n])],
        "path": [(w[i], w[i + 1]) for i in range(n)],
        "self-loop": [(w[0], w[0])] + [(w[i], w[1 + i % (n - 1)]) for i in range(1, n)],
        "empty": [],
    }
    if n % 2 == 0:
        out["two-cycles"] = [(w[i], w[i ^ 1]) for i in range(n)]
    return out


def mutations(opened, r_I, proof, params, rng):
    """(opened, r_I, proof) variants: one value flipped, one position
    dropped, one repetition's claim swapped."""
    out = []
    if opened.any():
        j = rng.integers(np.count_nonzero(opened))
        flipped = r_I.copy()
        flipped[j] ^= 1
        dropped = opened.copy()
        dropped[np.flatnonzero(opened)[j]] = False
        out += [(opened, flipped, proof), (dropped, np.delete(r_I, j), proof)]
    reps = list(proof.reps)
    k = rng.integers(len(reps))
    if isinstance(reps[k], RepUseful):
        reps[k] = RepRevealAll()
    else:
        reps[k] = RepUseful(tuple(int(v) for v in rng.permutation(params.matrix_side)[: params.n]))
    out.append((opened, r_I, HbProof(tuple(reps))))
    return out


def index_hb_verify(opened, r_I, x, proof, params):
    """hb_verify as it stood before it read the hidden string: each
    repetition's bits found in r_I by running counts, the reveal-all rows
    gathered by one fancy index and decoded together, then the useful
    claims checked one by one."""
    try:
        r_I = np.asarray(r_I)
    except (TypeError, ValueError):
        return False
    if r_I.dtype.kind not in "biu" or r_I.max(initial=0) > 1 or r_I.min(initial=0) < 0:
        return False
    r_I = r_I.astype(np.uint8, copy=False)
    reps = proof.reps if isinstance(proof, HbProof) else None
    if not isinstance(reps, (tuple, list)) or len(reps) != params.repetitions:
        return False
    if not (isinstance(opened, np.ndarray) and opened.dtype == bool and opened.shape == (params.total_bits,)):
        return False
    kp = params.bits_per_rep
    rows = opened.reshape(params.repetitions, kp)
    counts = np.count_nonzero(rows, axis=1).tolist()
    ends = list(itertools.accumulate(counts))
    if r_I.shape != (ends[-1],):
        return False
    reveal = [rep for rep, rep_proof in enumerate(reps) if isinstance(rep_proof, RepRevealAll)]
    if any(counts[rep] != kp for rep in reveal):
        return False
    blocks = r_I[np.array([ends[rep] - kp for rep in reveal], dtype=np.int64)[:, None] + np.arange(kp)]
    if any(ref_decode(block, params) is not None for block in blocks):
        return False
    for rep, rep_proof in enumerate(reps):
        if isinstance(rep_proof, RepRevealAll):
            continue
        if not isinstance(rep_proof, RepUseful) or not hbnizk._valid_map(rep_proof.vertex_map, params):
            return False
        if (rows[rep] != required_mask(rep_proof.vertex_map, x, params)).any():
            return False
        if r_I[ends[rep] - counts[rep] : ends[rep]].reshape(-1, params.block_len).all(axis=1).any():
            return False
    return True


def verify_case(rng, params, x, witness):
    """One hb_verify input around an honest proof of dense or sparse
    random bits: each repetition keeps its claim, turns reveal-all, or
    claims a random map (sometimes one repeating a vertex); the mask is
    the claims' own, with some entries flipped, or uniform; r_I is the
    bits under the mask, some flipped, as bool, uint8 or int64, and
    sometimes one entry short or over."""
    r = (rng.random(params.total_bits) < rng.choice([0.5, 0.85])).astype(np.uint8)
    _, proof = hb_prove(r, x, witness, params)
    reps = []
    for rep in proof.reps:
        kind = rng.choice(["keep", "keep", "reveal", "useful"])
        if kind == "reveal":
            rep = RepRevealAll()
        elif kind == "useful":
            rep = RepUseful(tuple(int(v) for v in rng.integers(params.matrix_side, size=params.n)))
        reps.append(rep)
    proof = HbProof(tuple(reps))
    opened = np.ones((params.repetitions, params.bits_per_rep), dtype=bool)
    for k, rep in enumerate(reps):
        if isinstance(rep, RepUseful) and hbnizk._valid_map(rep.vertex_map, params):
            opened[k] = required_mask(rep.vertex_map, x, params)
    opened = opened.ravel()
    mask_kind = rng.choice(["claims", "claims", "flipped", "uniform"])
    if mask_kind == "flipped":
        opened = opened ^ (rng.random(opened.size) < 0.05)
    elif mask_kind == "uniform":
        opened = rng.random(opened.size) < rng.random()
    r_I = r[opened]
    if rng.random() < 0.2:
        r_I = r_I ^ (rng.random(r_I.size) < 0.1)
    r_I = r_I.astype(rng.choice([bool, np.uint8, np.int64]))
    length = rng.choice([0, 0, 0, -1, 1])
    if length == -1 and r_I.size:
        r_I = r_I[:-1]
    elif length == 1:
        r_I = np.append(r_I, r_I[:1] if r_I.size else np.zeros(1, r_I.dtype))
    return opened, r_I, proof


class TestVerifyAgainstIndexArithmetic:
    """hb_verify on the hidden string gives the verdict of the running-count
    algorithm it replaced, at the table-decoded and the above-cap shapes."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FIXTURES)), st.integers(0, 2**32 - 1))
    def test_same_verdict(self, shape, seed):
        params, (x, witness) = FIXTURES[shape]
        args = verify_case(np.random.default_rng(seed), params, x, witness)
        assert hb_verify(*args[:2], x, args[2], params) == index_hb_verify(*args[:2], x, args[2], params)

    @pytest.mark.parametrize("shape", sorted(FIXTURES))
    def test_cases_reach_both_verdicts(self, shape):
        params, (x, witness) = FIXTURES[shape]
        rng = np.random.default_rng(7)
        verdicts = set()
        for _ in range(300):
            opened, r_I, proof = verify_case(rng, params, x, witness)
            verdicts.add(hb_verify(opened, r_I, x, proof, params))
        assert verdicts == {True, False}


class TestBlockTable:
    @pytest.mark.parametrize("m,b,n", [(2, 1, 2), (3, 1, 3)])
    def test_table_equals_usefulness_on_every_block(self, m, b, n):
        kp = m * m * b
        every = np.array([int_block(v, kp) for v in range(1 << kp)])
        decode = hbnizk._block_decoder(m, b, n)
        assert decode(every) == [usefulness(bits_to_matrix(block, m, b), n) for block in every]
        assert sum(cycle is not None for cycle in decode(every)) == round(useful_probability(m, b, n) * (1 << kp))

    @pytest.mark.parametrize("shape", sorted(FIXTURES))
    def test_matches_per_repetition_reference(self, shape, rng):
        params, (x, witness) = FIXTURES[shape]
        for _ in range(400):
            # dense blocks at b > 1, so useful ones turn up there too
            r = (rng.random(params.total_bits) < rng.choice([0.5, 0.85])).astype(np.uint8)
            opened, proof = hb_prove(r, x, witness, params)
            opened_ref, proof_ref = ref_prove(r, x, witness, params)
            assert np.array_equal(opened, opened_ref) and opened.dtype == opened_ref.dtype and proof == proof_ref
            seed = int(rng.integers(2**32))
            sim = hb_simulate(x, params, stream(seed, "sim"))
            sim_ref = ref_simulate(x, params, stream(seed, "sim"))
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(sim[:2], sim_ref[:2]))
            assert sim[2] == sim_ref[2]
            real = (opened, r[opened], proof)
            for opened_, r_I, proof_ in [real, sim, *mutations(*real, params, rng), *mutations(*sim, params, rng)]:
                assert hb_verify(opened_, r_I, x, proof_, params) == ref_verify(opened_, r_I, x, proof_, params)

    def test_reveal_all_claim_on_useful_block_rejects(self):
        params, (x, witness) = FIXTURES["quantum"]
        r = np.zeros(params.total_bits, dtype=np.uint8)
        r[[5, 6]] = 1  # repetition 1 holds the useful cycle 0 -> 1 -> 0
        opened, proof = hb_prove(r, x, witness, params)
        assert isinstance(proof.reps[1], RepUseful) and hb_verify(opened, r[opened], x, proof, params)
        claim = HbProof(tuple(RepRevealAll() for _ in proof.reps))
        everything = np.ones(params.total_bits, dtype=bool)
        assert not hb_verify(everything, r, x, claim, params)
        assert hb_verify(everything, np.zeros_like(r), x, claim, params)

    @pytest.mark.parametrize("shape", sorted(FIXTURES))
    def test_reveal_all_one_position_short_rejects(self, shape):
        params, (x, witness) = FIXTURES[shape]
        kp = params.bits_per_rep
        r = np.zeros(params.total_bits, dtype=np.uint8)
        opened, proof = hb_prove(r, x, witness, params)
        assert hb_verify(opened, r[opened], x, proof, params)
        for rep in range(params.repetitions):
            for drop in (rep * kp, (rep + 1) * kp - 1):
                short = opened.copy()
                short[drop] = False
                assert not hb_verify(short, r[short], x, proof, params)

    @pytest.mark.parametrize("shape", ["quantum", "batched"])  # table-decoded, and above the table cap
    def test_non_bit_values_reject(self, shape, rng):
        # r_I holds bits: values the uint8 cast would wrap, truncate or
        # let through reject, and none raises
        if shape == "batched":
            params, x = HbParams(n=3, repetitions=3, matrix_side=4, block_len=1), complete_digraph(3)
        else:
            params, (x, _) = FIXTURES[shape]
        opened, r_I, proof = hb_simulate(x, params, rng)
        assert (r_I == 1).any()
        for good in [r_I, r_I.astype(bool), r_I.tolist()]:
            assert hb_verify(opened, good, x, proof, params)
        k = len(r_I)
        for bad in [np.full(k, 2), [-1] * k, [256] * k, [0.5] * k, r_I.astype(float), np.where(r_I == 1, 3, 0)]:
            assert not hb_verify(opened, bad, x, proof, params)

    @staticmethod
    def _useful_proof():
        """An honest proof at the quantum-output fixture whose repetition 1 is useful."""
        params, (x, witness) = FIXTURES["quantum"]
        r = np.zeros(params.total_bits, dtype=np.uint8)
        r[[5, 6]] = 1
        opened, proof = hb_prove(r, x, witness, params)
        assert isinstance(proof.reps[1], RepUseful) and hb_verify(opened, r[opened], x, proof, params)
        return params, x, opened, r[opened], proof

    @pytest.mark.parametrize(
        "bad_map",
        [lambda m: tuple(float(v) for v in m), lambda m: tuple(str(v) for v in m), lambda m: (1.5, 0),
         lambda m: None, lambda m: tuple(bool(v) for v in m), lambda m: tuple(np.int64(v) for v in m)],
        ids=["floats", "strs", "fraction", "none", "bools", "numpy-ints"],
    )
    def test_malformed_vertex_map_rejects(self, bad_map):
        # a map of anything but Python ints rejects without raising,
        # as wire.hbproof_from_payload refuses to decode one
        params, x, opened, r_I, proof = self._useful_proof()
        reps = list(proof.reps)
        reps[1] = RepUseful(bad_map(reps[1].vertex_map))
        assert hb_verify(opened, r_I, x, HbProof(tuple(reps)), params) is False

    @pytest.mark.parametrize("reps", [None, 8, "xxxxxxxx", {}], ids=["none", "int", "str", "dict"])
    def test_malformed_repetition_list_rejects(self, reps):
        params, x, opened, r_I, _ = self._useful_proof()
        assert hb_verify(opened, r_I, x, HbProof(reps), params) is False

    @pytest.mark.parametrize("shape", sorted(FIXTURES))
    def test_honest_maps_are_python_ints(self, shape, rng):
        params, (x, witness) = FIXTURES[shape]
        for _ in range(200):
            r = (rng.random(params.total_bits) < rng.choice([0.5, 0.85])).astype(np.uint8)
            proofs = [hb_prove(r, x, witness, params)[1], hb_simulate(x, params, rng)[2]]
            maps = [rep.vertex_map for proof in proofs for rep in proof.reps if isinstance(rep, RepUseful)]
            assert all(type(v) is int for vmap in maps for v in vmap)

    @pytest.mark.parametrize("m,b,n", [(64, 10, 4), (27, 8, 3)])  # criterion-1 and criterion-2 shapes
    def test_above_cap_decoder_matches_per_row_reference(self, m, b, n, rng):
        assert m * m * b > hbnizk._TABLE_MAX_BITS
        kinds = near_misses(rng, m, n)
        blocks = [planted_block(rng, m, b, entries) for entries in kinds.values() for _ in range(3)]
        blocks += [rng.integers(0, 2, size=m * m * b, dtype=np.uint8) for _ in range(20)]
        blocks = np.array(blocks)
        got = hbnizk._block_decoder(m, b, n)(blocks)
        want = [usefulness(bits_to_matrix(block, m, b), n) for block in blocks]
        assert got == want
        # the planted cycles are useful and every near miss is not
        assert [cycle is not None for cycle in got[: 3 * len(kinds)]] == [k == "cycle" for k in kinds for _ in range(3)]
        # a read-only one-row batch, as hb_simulate and a decoded wire view give
        assert hbnizk._block_decoder(m, b, n)(np.frombuffer(blocks[:1].tobytes(), np.uint8)[None]) == want[:1]

    def test_above_cap_calls_usefulness_only_on_rows_with_n_ones(self, usefulness_calls, rng):
        params, (x, witness) = FIXTURES["above-cap"]
        m, b, n = params.matrix_side, params.block_len, params.n
        assert params.bits_per_rep > hbnizk._TABLE_MAX_BITS
        r = (rng.random(16 * params.bits_per_rep) < 0.85).astype(np.uint8)
        blocks = r.reshape(16, params.bits_per_rep)
        with_n = [mat for mat in blocks.reshape(16, m, m, b).all(-1) if mat.sum() == n]
        assert 0 < len(with_n) < len(blocks)
        hbnizk._block_decoder(m, b, n)(blocks)
        assert len(usefulness_calls) == len(with_n)
        assert all(np.array_equal(got, want) for got, want in zip(usefulness_calls, with_n))
        # an all-zero hidden string has no row with n ones: prove and verify call it never
        usefulness_calls.clear()
        zeros = np.zeros(params.total_bits, dtype=np.uint8)
        opened, proof = hb_prove(zeros, x, witness, params)
        assert hb_verify(opened, zeros[opened], x, proof, params) and usefulness_calls == []

    @pytest.mark.parametrize("shape", ["quantum", "classical"])
    def test_table_path_calls_usefulness_only_to_fill_the_table(self, shape, usefulness_calls, rng):
        params, (x, witness) = FIXTURES[shape]
        hbnizk._block_decoder.cache_clear()
        for _ in range(20):
            r = rng.integers(0, 2, size=params.total_bits, dtype=np.uint8)
            opened, proof = hb_prove(r, x, witness, params)
            assert hb_verify(opened, r[opened], x, proof, params)
            opened, r_I, proof = hb_simulate(x, params, rng)
            assert hb_verify(opened, r_I, x, proof, params)
        assert len(usefulness_calls) == 1 << params.bits_per_rep

    def test_required_mask_cached_read_only(self):
        params, (x, _) = FIXTURES["classical"]
        need = required_mask((2, 0, 1), x, params)
        assert required_mask((2, 0, 1), complete_digraph(3), params) is need
        with pytest.raises(ValueError):
            need[0] = False
        assert need.dtype == bool and need.shape == (params.bits_per_rep,)
        assert np.flatnonzero(need).tolist() == [0, 4, 8]  # the diagonal: K3 has every other entry
