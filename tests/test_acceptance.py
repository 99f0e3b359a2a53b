"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Criteria run at their stated parameters and tolerances; every
numeric target is either exact, analytic (with the oracle stated), or
a Monte Carlo bound with its interval.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from cenizk.graphs import (
    canonical_cycle,
    complete_digraph,
    two_cycle_pair,
)
from cenizk.hbnizk import HbParams
from cenizk.rng import stream

SEED = 20260808


# every criterion's line as last recorded, its wall-clock fields ("in
# 1.6s") removed; the record moves only on a commit of its own, with a
# CHANGES.md entry saying what moved and why
RECORD = Path(__file__).with_name("acceptance_lines.txt")


def _line(number: int, ok: bool, detail: str) -> None:
    head = f"[criterion {number:2d}]"
    line = f"{head} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, detail
    printed = re.sub(r" in \d+\.\ds ", " ", line)
    recorded = [r for r in RECORD.read_text(encoding="ascii").splitlines() if r.startswith(head)]
    assert recorded == [printed], f"criterion {number} moved from {RECORD.name}:\nprinted:  {printed}\nrecorded: {recorded}"


# ---------------------------------------------------------------------
# 1. EPR completeness + deletion correctness at production shape
# ---------------------------------------------------------------------


def test_criterion_1_epr_completeness_and_deletion():
    from cenizk.harness import run_experiment

    params = {"n": 4, "reps": 20, "m": 64, "b": 10, "k": 6, "hbg": "dealer", "hbg_s": 12}
    report = run_experiment("epr-honest", 200, params, SEED)
    ok = report.successes == 200 and report.wall_clock <= 60.0
    _line(
        1,
        ok,
        f"200 honest EPR sessions (n=4, FLS defaults, rho=20, k=6): "
        f"{report.successes}/200 verify+cert in {report.wall_clock:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------
# 2. EPR statistical soundness at desk scale
# ---------------------------------------------------------------------


def test_criterion_2_epr_soundness():
    from cenizk.harness import run_experiment

    params = {"n": 3, "reps": 20, "m": 27, "b": 8, "k": 6, "hbg": "dealer", "hbg_s": 12}
    greedy = run_experiment("epr-soundness-greedy", 250, params, SEED)
    forged = run_experiment("epr-soundness-forged", 250, params, SEED)
    single_params = dict(params, reps=1)
    single = run_experiment("epr-single-rep", 400, single_params, SEED)
    oracle = single.extra["oracle_estimate"]
    sigma = single.extra["sigma"]
    bound_ok = single.estimate <= oracle + 3 * sigma
    ok = greedy.successes == 0 and forged.successes == 0 and bound_ok
    _line(
        2,
        ok,
        f"rho=20 adversaries: greedy {greedy.successes}/250, forged {forged.successes}/250 "
        f"accepted; single-rep acceptance {single.estimate:.3f} <= oracle {oracle:.3f} + 3*sigma "
        f"({3 * sigma:.3f})",
    )


# ---------------------------------------------------------------------
# 3. EPR certified-everlasting zero-knowledge
# ---------------------------------------------------------------------


def _cezk_digest(out):
    from cenizk.epr_protocol import BOT

    if out == BOT:
        return ("bot",)
    return (out["verdict"], out["cert_blocks"], out["cert_bits"])


def test_criterion_3_epr_cezk():
    from cenizk.epr_protocol import (
        BOT,
        EprParams,
        epr_sim,
        honest_delete_vstar,
        keep_two_blocks_vstar,
        run_cezk_real,
    )
    from cenizk.state import trace_distance

    # classical-output strategy: TV over outputs at 10^4 trials
    params = EprParams(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1), block_width=4)
    g, w = complete_digraph(3), canonical_cycle(3)
    trials = 10_000
    real: dict = {}
    sim: dict = {}
    for trial in range(trials):
        out, _, _ = run_cezk_real(params, g, w, honest_delete_vstar, stream(SEED, "c3r", trial))
        key = _cezk_digest(out)
        real[key] = real.get(key, 0) + 1
        out, _, _ = epr_sim(params, g, honest_delete_vstar, stream(SEED, "c3s", trial))
        key = _cezk_digest(out)
        sim[key] = sim.get(key, 0) + 1
    keys = set(real) | set(sim)
    tv = 0.5 * sum(abs(real.get(k, 0) - sim.get(k, 0)) for k in keys) / trials
    tv_ok = tv <= 0.05

    # quantum-output strategy: the two unopened blocks of the two-vertex
    # instance come back as qubits; the experiment output block-
    # diagonalizes over (tag, Hadamard outcome), so each side's output is
    # a diagonal frequency matrix over those branches from 80,000 sampled
    # trials, and the TD is between the two estimates, not exact
    qparams = EprParams(hb=HbParams(n=2, repetitions=8, matrix_side=2, block_len=1), block_width=2)
    gq, wq = two_cycle_pair()
    dim = 1 + 1 + 16  # bot, no-deletion, 16 Hadamard patterns of 4 qubits
    rho_real = np.zeros((dim, dim), dtype=np.complex128)
    rho_sim = np.zeros((dim, dim), dtype=np.complex128)
    qtrials = 80_000
    checked_matrix_lane = False
    for trial in range(qtrials):
        for which, rho in (("r", rho_real), ("s", rho_sim)):
            if which == "r":
                out, _, _ = run_cezk_real(qparams, gq, wq, keep_two_blocks_vstar, stream(SEED, "c3qr", trial))
            else:
                out, _, _ = epr_sim(qparams, gq, keep_two_blocks_vstar, stream(SEED, "c3qs", trial))
            if out == BOT:
                rho[0, 0] += 1.0
            elif out["tag"] == "no-deletion":
                rho[1, 1] += 1.0
            else:
                qstate = out["qstate"]
                # deleted qubits sit in Hadamard eigenstates; read the
                # pattern off the state and index the branch
                from cenizk.state import density_matrix, project

                pattern = 0
                cur = qstate
                for q in range(4):
                    p1, post = project(cur, q, "X", 1)
                    if post is not None and p1 > 0.5:
                        pattern = (pattern << 1) | 1
                        cur = post
                    else:
                        pattern <<= 1
                        _, cur = project(cur, q, "X", 0)
                rho[2 + pattern, 2 + pattern] += 1.0
                if not checked_matrix_lane:
                    # density-matrix lane sanity: the state really is the
                    # pure Hadamard pattern it claims to be
                    dm = density_matrix(out["qstate"], [0, 1, 2, 3])
                    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
                    basis = np.eye(1)
                    for _q in range(4):
                        basis = np.kron(basis, h)
                    diag = basis @ dm @ basis
                    assert abs(diag[pattern, pattern] - 1.0) < 1e-9
                    checked_matrix_lane = True
    rho_real /= qtrials
    rho_sim /= qtrials
    td = trace_distance(rho_real, rho_sim)
    td_ok = td <= 0.02
    _line(
        3,
        tv_ok and td_ok,
        f"honest-delete TV {tv:.4f} <= 0.05 at 10^4 trials; "
        f"2-block quantum-output fixture TD {td:.4f} <= 0.02",
    )


# ---------------------------------------------------------------------
# 4. certified-deletion harness
# ---------------------------------------------------------------------


def test_criterion_4_deletion_harness():
    from cenizk.attacks import (
        ADV_BASIS_INFORMED,
        DeletionExperiment,
        keep_state_acceptance,
        td_estimate,
    )

    rng = stream(SEED, "c4")
    honest = td_estimate(DeletionExperiment(3), rng)
    leaking = td_estimate(DeletionExperiment(2, ADV_BASIS_INFORMED), rng)
    lam = 4
    rate = keep_state_acceptance(lam, 10_000, rng)
    analytic = 0.75**lam
    sigma = math.sqrt(analytic * (1 - analytic) / 10_000)
    ok = (
        honest.exact
        and honest.value <= 1e-9
        and leaking.exact
        and leaking.value >= 0.5
        and abs(rate - analytic) <= 3 * sigma
    )
    _line(
        4,
        ok,
        f"honest-deleter exact TD {honest.value:.2e} (=0 within 1e-9); "
        f"theta-leaking control TD {leaking.value:.2f} >= 0.5; keep-state acceptance "
        f"{rate:.4f} vs analytic {analytic:.4f} within 3*sigma ({3 * sigma:.4f})",
    )


# ---------------------------------------------------------------------
# 5. CRS protocol, full-quantum toy mode
# ---------------------------------------------------------------------


def test_criterion_5_crs_toy_mode():
    from cenizk.crs_nizk import toy_encode
    from cenizk.crs_protocol import (
        CrsParams,
        crs_cert_prob,
        crs_prove,
        crs_setup,
        crs_verify,
        crs_verify_prob,
    )
    from cenizk.harness import run_experiment

    t0 = time.time()
    report = run_experiment("crs-honest", 100, None, SEED)
    elapsed = time.time() - t0

    # exact-probability audit of one run: verification and certification
    # both succeed with probability exactly 1
    params = CrsParams()
    rng = stream(SEED, "c5-audit")
    crs = crs_setup(rng)
    w = np.array([1, 0, 1, 1], dtype=np.uint8)
    x = toy_encode(w)
    sigma, key = crs_prove(params, crs, x, w, rng)
    p_verify = crs_verify_prob(params, x, sigma)
    _, residual = crs_verify(params, crs, x, sigma, rng)
    p_cert = crs_cert_prob(params, key, residual)
    audit_ok = abs(p_verify - 1.0) < 1e-9 and abs(p_cert - 1.0) < 1e-9
    ok = report.successes >= 99 and elapsed <= 300 and audit_ok
    _line(
        5,
        ok,
        f"toy mode (lam=2, ell=4, 16-qubit register): {report.successes}/100 verify+cert "
        f"in {elapsed:.1f}s (budget 300s); exact audit P[verify]={p_verify:.10f}, "
        f"P[cert]={p_cert:.10f}",
    )


# ---------------------------------------------------------------------
# 6. CRS soundness mechanics
# ---------------------------------------------------------------------


def test_criterion_6_crs_soundness_mechanics():
    from cenizk.crs_nizk import toy_encode, toy_statements, toy_verify
    from cenizk.crs_protocol import (
        CrsParams,
        CrsProofState,
        CrsProverKey,
        cert_uncompute,
        crs_setup,
        crs_verify_prob,
        pad_half,
    )
    from cenizk.state import Bb84Descriptor, append_register, prep_bb84

    params = CrsParams()
    rng = stream(SEED, "c6")
    crs = crs_setup(rng)
    codewords = {tuple(toy_encode(np.array([(v >> (3 - i)) & 1 for i in range(4)], dtype=np.uint8))) for v in range(16)}

    # part one: exhaustively, no candidate decoding of any ciphertext can
    # pass inner verification for any non-codeword statement
    non_codewords = [x for x in toy_statements() if tuple(x) not in codewords]
    assert len(non_codewords) == 2**8 - 2**4
    decodings_ok = all(
        not toy_verify(crs.crs_in, x, np.array([(c >> (3 - i)) & 1 for i in range(4)], dtype=np.uint8))
        for x in non_codewords
        for c in range(16)
    )

    # part two: every honest-basis adversarial proof state the harness
    # constructs for a false statement verifies to 0 with certainty
    # (checked per support term through the exact-probability lane)
    theta_patterns = [
        np.zeros(params.r_qubits, dtype=np.uint8),
        np.ones(params.r_qubits, dtype=np.uint8),
        stream(SEED, "c6-theta").integers(0, 2, size=params.r_qubits, dtype=np.uint8),
    ]
    all_zero = True
    checked = 0
    for x in non_codewords[::16]:  # every 16th false statement, 3 bases each
        for theta in theta_patterns:
            r = stream(SEED, "c6-state", checked)
            y = r.integers(0, 2, size=params.r_qubits, dtype=np.uint8)
            k0 = r.integers(0, 2, size=params.ell, dtype=np.uint8)
            k1 = r.integers(0, 2, size=params.ell, dtype=np.uint8)
            fake_witness = r.integers(0, 2, size=params.ell, dtype=np.uint8)
            ct0 = fake_witness ^ pad_half(theta, y, 0, params.ell, params.lam) ^ k0
            ct1 = pad_half(theta, y, 1, params.ell, params.lam) ^ k1
            key = CrsProverKey(
                theta,
                k0,
                k1,
                crs.crs_out,
                y,
                r.integers(0, 256, size=16, dtype=np.uint8).tobytes(),
                r.integers(0, 1 << 32, size=(params.r_qubits, 2), dtype=np.uint64),
            )
            state = prep_bb84(Bb84Descriptor(y, theta))
            state = append_register(state, params.proof_width)
            state = append_register(state, params.sig_bits)
            # the P||S oracle is an involution: uncomputing zeroed registers attaches it
            state = cert_uncompute(params, key, CrsProofState(state, ct0, ct1))
            prob = crs_verify_prob(params, x, CrsProofState(state, ct0, ct1))
            all_zero = all_zero and prob == 0.0
            checked += 1
    ok = decodings_ok and all_zero
    _line(
        6,
        ok,
        f"all {len(non_codewords)} non-codeword statements reject every ct-decoding; "
        f"{checked} honest-basis adversarial states verify to 0 exactly",
    )


# ---------------------------------------------------------------------
# 7. uncompute-recompute identity
# ---------------------------------------------------------------------


def test_criterion_7_uncompute_recompute():
    from cenizk.crs_nizk import toy_encode
    from cenizk.crs_protocol import CrsParams, cert_uncompute, crs_prove, crs_setup
    from cenizk.state import Bb84Descriptor, append_register, prep_bb84

    params = CrsParams()
    w = np.array([1, 0, 1, 1], dtype=np.uint8)
    x = toy_encode(w)
    all_equal = True
    for trial in range(50):
        rng = stream(SEED, "c7", trial)
        crs = crs_setup(rng)
        sigma, key = crs_prove(params, crs, x, w, rng)
        post = cert_uncompute(params, key, sigma)
        expected = append_register(
            append_register(prep_bb84(Bb84Descriptor(key.y, key.theta)), params.proof_width),
            params.sig_bits,
        )
        all_equal = all_equal and post.equals(expected, tol=1e-9)
    _line(7, all_equal, "50 random (y, theta): uncompute reconstructs the BB84 state exactly (1e-9)")


# ---------------------------------------------------------------------
# 8. attacks contrast
# ---------------------------------------------------------------------


def test_criterion_8_attacks_contrast():
    from cenizk.attacks import StrawmanParams, derived_prove
    from cenizk.graphs import triangle_both_cycles
    from cenizk.harness import run_experiment

    strawman = run_experiment("split-strawman", 100, None, SEED)
    crs_split = run_experiment("split-crs", 100, None, SEED)
    complete = run_experiment("derived-complete", 100, None, SEED)
    sound = run_experiment("derived-sound", 500, None, SEED)
    clone = run_experiment("clone", 100, None, SEED)

    # two-witness independence proxy for statistical zero-knowledge
    g, w1, w2 = triangle_both_cycles()
    sp = StrawmanParams(reps=8)

    def digests(witness, label):
        out = []
        for trial in range(400):
            pkg = derived_prove(sp, g, witness, stream(SEED, label, trial))
            for rep, op in enumerate(pkg["classical"]["openings"]):
                if op["kind"] == "full":
                    out.append(("full", tuple(op["tau"])))
                else:
                    base = rep * g.n * g.n
                    out.append(("cycle", tuple(sorted(i - base for i in op["ids"]))))
        return out

    a = digests(w1, "c8-w1")
    b = digests(w2, "c8-w2")
    keys = set(a) | set(b)
    tv = 0.5 * sum(abs(a.count(k) - b.count(k)) for k in keys) / len(a)

    ok = (
        strawman.successes == 100
        and crs_split.successes <= 5
        and complete.successes == 100
        and sound.successes == 0
        and clone.successes == 100
        and tv <= 0.05
    )
    _line(
        8,
        ok,
        f"split: strawman {strawman.successes}/100, CRS protocol {crs_split.successes}/100 "
        f"(<=5); derived system complete {complete.successes}/100, sound {sound.successes}/500 "
        f"accepted; clones accepted {clone.successes}/100; witness-independence TV {tv:.4f}",
    )


# ---------------------------------------------------------------------
# 9. generator binding oracle
# ---------------------------------------------------------------------


def test_criterion_9_hbg_binding():
    from cenizk.hbg import NaorOpening, hbg_genbits, hbg_open, hbg_setup, hbg_verify, prg_expand
    from cenizk.hbg import HbgCommitment

    # 10^4 sampled crs/commitments at s=12: Open recovers the committed
    # string by exhaustive seed search, and never finds an equivocation
    equivocations = 0
    mismatches = 0
    trials = 10_000
    for trial in range(trials):
        rng = stream(SEED, "c9", trial)
        crs = hbg_setup(8, "naor", rng, s=12)
        com, r, _ = hbg_genbits(crs, rng)
        res = hbg_open(crs, com)
        equivocations += int(res.equivocal.any())
        mismatches += int(not np.array_equal(res.bits, r))

    # adversarially crafted off-coset chunk: exhaustively, no seed and no
    # claimed bit verifies at s=8
    rng = stream(SEED, "c9-off")
    crs8 = hbg_setup(1, "naor", rng, s=8)
    image = {prg_expand(seed, crs8.params) for seed in range(256)}
    c = None
    while c is None:
        cand = rng.integers(0, 256, size=crs8.params.out_bytes, dtype=np.uint8)
        extra = 8 * crs8.params.out_bytes - crs8.params.out_bits
        if extra:
            cand[0] &= 0xFF >> extra
        if cand.tobytes() not in image and (cand ^ crs8.u[0]).tobytes() not in image:
            c = cand
    com8 = HbgCommitment(c.tobytes())
    off_coset_rejected = not any(
        hbg_verify(crs8, com8, 0, bit, NaorOpening(np.array([seed], dtype=np.uint64)))
        for seed in range(256)
        for bit in (0, 1)
    )
    ok = equivocations == 0 and mismatches == 0 and off_coset_rejected
    _line(
        9,
        ok,
        f"10^4 commitments at s=12: {equivocations} equivocations, {mismatches} Open "
        f"mismatches; off-coset commitment rejected across all 2^8 seeds",
    )


# ---------------------------------------------------------------------
# 10. simulator invariants
# ---------------------------------------------------------------------


def test_criterion_10_simulator_invariants():
    from cenizk.state import Bb84Descriptor, append_register, apply_oracle, measure, prep_bb84

    # exhaustive 256-case basis-measurement identity
    rng = stream(SEED, "c10")
    identity_ok = True
    for y_int in range(16):
        for th_int in range(16):
            y = [(y_int >> (3 - i)) & 1 for i in range(4)]
            theta = [(th_int >> (3 - i)) & 1 for i in range(4)]
            st = prep_bb84(Bb84Descriptor(y, theta))
            bases = ["X" if t else "Z" for t in theta]
            out, _ = measure(st, [0, 1, 2, 3], bases, rng)
            identity_ok = identity_ok and list(out) == y

    # normalization within 1e-9 and the X-measurement sparsity bound
    # across a randomized operation sweep
    norm_ok = True
    sparsity_ok = True
    for trial in range(300):
        r = stream(SEED, "c10-sweep", trial)
        n = int(r.integers(2, 8))
        y = r.integers(0, 2, size=n, dtype=np.uint8)
        theta = r.integers(0, 2, size=n, dtype=np.uint8)
        st = prep_bb84(Bb84Descriptor(y, theta))
        st = append_register(st, 2)
        st = apply_oracle(st, list(range(n)), [n, n + 1], lambda z: z & 0b11)
        norm_ok = norm_ok and abs(st.norm_sq() - 1.0) <= 1e-9
        terms_before = st.num_terms()
        out, post = measure(st, [0], ["X"], r)
        sparsity_ok = sparsity_ok and post.num_terms() <= terms_before
        norm_ok = norm_ok and abs(post.norm_sq() - 1.0) <= 1e-9
    ok = identity_ok and norm_ok and sparsity_ok
    _line(
        10,
        ok,
        "256-case BB84 basis-measurement identity; normalization within 1e-9; "
        "X-measurement sparsity bound held across the sweep",
    )
