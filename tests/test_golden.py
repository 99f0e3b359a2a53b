"""Golden transcript digests: SHA-256 of serialize_transcript(run_session(...))
for fixed seeds. Any change to a verdict, an RNG draw order or a CENZ1
byte shows up here.

CENZ1 version 3 draws and stores EPR bases and outcomes as one byte per
block, and the hidden-bits generator draws its words the same way.
Version 4 changed only the naor opening: it sends the seeds of the
opened positions and no positions. So a dealer EPR, crs-dry or crs-toy
transcript has the same bytes in version 4 as in version 3 (crs-toy in
versions 1 to 3) but for the version field, and the digests recorded
under those versions still pin it, with that field set back; the naor
sessions are pinned by their version-4 bytes."""

import hashlib

import numpy as np
import pytest

from cenizk.rng import bits
from cenizk.attacks import (
    ADV_BASIS_INFORMED,
    ADV_KEEP_STATE,
    Z_PLAIN,
    Z_THETA_LEAKING,
    DeletionExperiment,
    StrawmanParams,
    derived_prove,
    derived_soundness_adversary,
    derived_verify,
    run_deletion_experiment,
)
from cenizk.epr_protocol import BOT, EprParams, epr_sim, honest_delete_vstar, keep_two_blocks_vstar, run_cezk_real
from cenizk.graphs import (
    canonical_cycle,
    complete_digraph,
    non_hamiltonian_triangle,
    triangle_both_cycles,
    two_cycle_pair,
)
from cenizk.harness import default_epr_params, run_session, serialize_transcript
from cenizk.hbnizk import HbParams, cheat_prove
from cenizk.rng import stream
from cenizk.state import dump_lines

GOLDEN_V3 = {
    ("epr", 0): "7332ddfbe201d4aaddb2703c963cf0c4496a388244ca89836ee50acb7f25be47",
    ("epr", 1): "fac9d8571d0e8a20679c707187c9b6519181c65dec06287b83a825a93fe67c94",
    ("epr", 2): "9e320f1e98025d139b117a49d2bd4c9e9ba9f24595de5a97e3dac72ab63da2d0",
    ("epr", 3): "4781b5478c349f589a82618f212cdc4ae04177809a49a5fe88be95c3480c8cf0",
    ("epr", 4): "b689d3a1e043a309ad1edc171b46ccab698ad4290cd6f3ef8404ee6ca0abec34",
    ("crs-dry", 0): "a7644870eeb6b1a09e34f134d312ee25b81948f56040be36cb0f0b9d9cf66db6",
    ("crs-dry", 1): "8b39e5b7a4475736fdb2a20cc4b09c5b147ad76faa8cf7604b0c864b4b257ebc",
    ("crs-dry", 2): "6f828fd21aded97634dd2564ee3fb165660463508149e4d859ce636aa7fdcbae",
    ("crs-dry", 3): "55abafa046c078827b20487e959f94fa96ffb298c662166a98449a7c422f1cac",
    ("crs-dry", 4): "83e61467d761125ba43bc5a9e9a22b86860d96c4e6ca20a9a4c007ee6f29d754",
}
# crs-toy under version 1, then under version 2
GOLDEN = {
    ("crs-toy", 0): "014327ef7024f6362e2ff7edf4f7f20023f18572e631f976a34ce2cdd9494d75",
    ("crs-toy", 1): "94cce7718df47860a9f01ee82e55774fbd24874f2a005e294fe10e322f98cc29",
    ("crs-toy", 2): "82378fe9534a4ecc4e9a7b7affac37df71c0ec3f2d4d06ac4e3a1709476f319d",
    ("crs-toy", 3): "207e25f3833d34a9c1990a1adcf49fa99e8756e5324680e041b987cfe9030cc2",
    ("crs-toy", 4): "7b90aaaf6a4e2eb4f76a12f99ab9d6ef99a7b60127dbd89ebef6366cc8679967",
}
GOLDEN_V2 = {
    ("crs-toy", 0): "a89bfe207257bb0151576150c0ed0d3712bb606946d1bca1fa69eed87470215e",
    ("crs-toy", 1): "77a8a70cdd7f32948d3851f161a3508987a01d805a679630de1e41c55dc0334d",
    ("crs-toy", 2): "972a049d552e68e15fad50fd7afd18caa2ab803cfacfc334d9fbc01f654128f7",
    ("crs-toy", 3): "ec65e8f8c68a79083004611f88aa8d9963a2467265a50dc6eba4e36f2ae1a0c5",
    ("crs-toy", 4): "f19e3211abbe52f1d3a9440f94f1f7b39f18d2a03d65ca628e17d0529d58d9b1",
}

# default EPR session with the naor-mode generator: the proof carries a
# NaorOpening (the opened positions' seeds) instead of a dealer receipt
NAOR = {"n": 3, "reps": 1, "m": 3, "b": 1, "k": 4, "hbg": "naor", "hbg_s": 12}
NAOR_GOLDEN_V4 = {
    0: "83ef99917da67f58c50c85991e5f186606f2d5ebe492d45a6a966c0b81fb37be",
    1: "00ce56908f340c5cd13c966f6bc3f6add9fd9296ba7d758f2b866a51bbceae71",
}

# criterion-1 shape: 4,915,200 EPR pairs
CRITERION_1 = {"n": 4, "reps": 20, "m": 64, "b": 10, "k": 6, "hbg": "dealer", "hbg_s": 12}
CRITERION_1_SEED0_V3 = "590610e5416e7c66cf585857af5abc3f71a59b8bd55c84f53453eb1382e23371"


def _digest(data: bytes, version: int | None = None) -> str:
    """SHA-256 of transcript bytes, with the version field set to version if given."""
    if version is not None:
        data = data[:5] + version.to_bytes(2, "big") + data[7:]
    return hashlib.sha256(data).hexdigest()


def _session_digest(protocol, params, seed, version: int | None = None) -> str:
    return _digest(serialize_transcript(run_session(protocol, params, seed)), version)


@pytest.mark.parametrize("protocol,seed", sorted([*GOLDEN_V3, *GOLDEN]))
def test_default_session_digest(protocol, seed):
    if protocol == "crs-toy":
        data = serialize_transcript(run_session(protocol, None, seed))
        assert (_digest(data, 2), _digest(data, 1)) == (GOLDEN_V2[(protocol, seed)], GOLDEN[(protocol, seed)])
    else:
        assert _session_digest(protocol, None, seed, 3) == GOLDEN_V3[(protocol, seed)]


@pytest.mark.parametrize("seed", sorted(NAOR_GOLDEN_V4))
def test_naor_session_digest(seed):
    assert NAOR == {**default_epr_params(), "hbg": "naor"}
    assert _session_digest("epr", NAOR, seed) == NAOR_GOLDEN_V4[seed]


def test_criterion_1_session_digest():
    assert _session_digest("epr", CRITERION_1, 0, 3) == CRITERION_1_SEED0_V3


# ---------------------------------------------------------------------
# attack layer: the criterion-8 forger and the derived prover
# ---------------------------------------------------------------------

# criterion-8 forger plus derived_verify on the non-Hamiltonian
# triangle, forger and verifier on one stream
FORGER_GOLDEN = {
    0: "91624ed6d0be51fe08b1e54dfdb91ff515132ec83f6f6bf5ac90164eac53e1a4",
    1: "fee693de339ea32054f1ad6b271fb95389ae899a2f5e5588fc6674066f497c11",
    2: "3f6951aadda344a28713be8df68739218a4431efb795c85e00c86b7cf11ab4ad",
    3: "d52bbec067ea390a025fa19029a2ba8ca85ba424392836bfe80620125f715f89",
    4: "fafcc9d2a1f299933144f4e0c789e7c7ebc348358f86dfead39fd8288afb8b61",
}

# derived prover plus derived_verify on K3 with its first cycle
DERIVED_PROVE_GOLDEN = {
    0: "f2e448aece011eb62a3521286006c9358d25407bb339c791b5df0fb652311752",
    1: "7df09dd73da26893557ded886c1d2c58ed2623edcbd9df680d4d402514704fe6",
}


# the same ops at StrawmanParams(reps=7, width=5): an attempt's block
# vector draw on the triangle is 315 entries, which is not a whole
# number of 32-bit words; (seed, grind_tries) for the forger, which
# draws all its attempts at once, so 3 and 16 tries draw differently.
# At seed 1 with 3 tries the first attempt meets all 7 challenges, so
# the forger keeps it and its package verifies.
SMALL = StrawmanParams(reps=7, width=5)
SMALL_FORGER_GOLDEN = {
    (0, 16): "f42c1f0f82fd5c4742593a992d25223b523c59d2097acc42f21c1cc5cbf83ccf",
    (1, 16): "82e2e590306cf7c485b14aa2b39f446a68f3ff8a1a2d65daea5ff6524c3afaef",
    (2, 16): "92afbcfd0a8e9ea5256ab93779585e8c0218c78c6197da2e9a058fe40b371dd7",
    (0, 3): "b1d1224353a1b85d928c82b4d95520ae9eadabe9e3e898c775b90ab50e2500ca",
    (1, 3): "3b84305dde064fd133daea659139e3a4f8933d1adf9976d038eb03174474a274",
    (2, 3): "721d497a1ad575c78710da2fd9db382b0306004205b7b9ba6825c2f3e249e3b5",
}
SMALL_DERIVED_PROVE_GOLDEN = {
    0: "7c2b108c325371eef385605e0245fd9f5acbe8c910e66c50c02c901ad56523cd",
    1: "2e9ad3b552416aa108d461be73caa87c689609e196bf4da62a3d4cf643ee1264",
}

# five BB84 deletion experiments per (lambda, fixture, adversary), one
# stream each: outcome, kept state, classical output and the next draw
DELETION_GOLDEN = "1e0f17495adbfa4e742c942d8cb28f4bdbc99b6b27289090081271132e981eb3"


def _package_digest(package, verdict, rng) -> str:
    """Everything a derived-system package carries, the verdict on it,
    and one draw after the op (which pins how much the op consumed)."""
    classical = package["classical"]
    parts = [[int(c) for c in classical["cs"]], [int(i) for i in classical["opened_ids"]]]
    for op in classical["openings"]:
        parts.append(
            (
                op["kind"],
                [int(i) for i in op["ids"]],
                [int(t) for t in op.get("tau", [])],
                [np.asarray(y).tolist() for y in op["ys"]],
                [np.asarray(t).tolist() for t in op["thetas"]],
            )
        )
    parts.append(sorted(int(i) for i in package["opened_states"]))
    parts.append(int(verdict))
    parts.append(rng.random())
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(FORGER_GOLDEN))
def test_derived_soundness_forger_digest(seed):
    x, params = non_hamiltonian_triangle(), StrawmanParams()
    rng = stream(seed, "derived-sound")
    package = derived_soundness_adversary(params, x, rng)
    verdict = derived_verify(params, x, package, rng)
    assert _package_digest(package, verdict, rng) == FORGER_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(DERIVED_PROVE_GOLDEN))
def test_derived_prove_digest(seed):
    x, witness, _ = triangle_both_cycles()
    params = StrawmanParams()
    rng = stream(seed, "derived-prove")
    package = derived_prove(params, x, witness, rng)
    verdict = derived_verify(params, x, package, rng)
    assert _package_digest(package, verdict, rng) == DERIVED_PROVE_GOLDEN[seed]


@pytest.mark.parametrize("seed,grind_tries", sorted(SMALL_FORGER_GOLDEN))
def test_forger_digest_off_word_boundary(seed, grind_tries):
    x = non_hamiltonian_triangle()
    rng = stream(seed, "derived-sound")
    package = derived_soundness_adversary(SMALL, x, rng, grind_tries=grind_tries)
    verdict = derived_verify(SMALL, x, package, rng)
    assert _package_digest(package, verdict, rng) == SMALL_FORGER_GOLDEN[(seed, grind_tries)]


def test_forger_meeting_every_challenge_verifies():
    x = non_hamiltonian_triangle()
    rng = stream(1, "derived-sound")
    package = derived_soundness_adversary(SMALL, x, rng, grind_tries=3)
    assert derived_verify(SMALL, x, package, rng) == 1


@pytest.mark.parametrize("seed", sorted(SMALL_DERIVED_PROVE_GOLDEN))
def test_derived_prove_digest_off_word_boundary(seed):
    x, witness, _ = triangle_both_cycles()
    rng = stream(seed, "derived-prove")
    package = derived_prove(SMALL, x, witness, rng)
    verdict = derived_verify(SMALL, x, package, rng)
    assert _package_digest(package, verdict, rng) == SMALL_DERIVED_PROVE_GOLDEN[seed]


def test_deletion_experiment_digest():
    h = hashlib.sha256()
    for lam in (3, 5, 8):
        for exp in (
            DeletionExperiment(lam),
            DeletionExperiment(lam, Z_PLAIN, ADV_KEEP_STATE),
            DeletionExperiment(lam, Z_THETA_LEAKING, ADV_BASIS_INFORMED),
        ):
            rng = stream(11, "deletion", lam, exp.adversary)
            for b in (0, 1, 1, 0, 1):
                out = run_deletion_experiment(exp, b, rng)
                kept = None if out.output_state is None else tuple(dump_lines(out.output_state))
                h.update(repr((out.accepted, kept, sorted(out.classical.items()), rng.random())).encode())
    assert h.hexdigest() == DELETION_GOLDEN


# ---------------------------------------------------------------------
# hidden-bits adversary: which cover map it picks and what it draws
# ---------------------------------------------------------------------

# cheat_prove on 200 hidden strings at criterion 2's shape, strings and
# the adversary's shuffles on one stream per statement: (digest, number
# of coverable repetitions out of 4,000)
CHEAT_PARAMS = HbParams(n=3, repetitions=20, matrix_side=27, block_len=8)
CHEAT_GOLDEN = {
    "triangle": ("6815e7054041413fe47756d88ca29409ee40bf4e13bb7f7721eaddeaf261f3ba", 991),
    "k3": ("b99108461224dcacbfb6ea5627143106afe6931ecb3c822f4cb60946b225903e", 1021),
}
CHEAT_STATEMENTS = {"triangle": non_hamiltonian_triangle, "k3": lambda: complete_digraph(3)}


@pytest.mark.parametrize("statement", sorted(CHEAT_GOLDEN))
def test_cheat_prove_digest(statement):
    x = CHEAT_STATEMENTS[statement]()
    rng = stream(0, "cheat")
    h = hashlib.sha256()
    total = 0
    for _ in range(200):
        r = bits(rng, CHEAT_PARAMS.total_bits)
        opened, proof, coverable = cheat_prove(r, x, CHEAT_PARAMS, rng)
        total += coverable
        maps = [rep.vertex_map for rep in proof.reps]
        h.update(repr((np.packbits(opened).tobytes(), maps, coverable, rng.bit_generator.state)).encode())
    assert (h.hexdigest(), total) == CHEAT_GOLDEN[statement]


# ---------------------------------------------------------------------
# criterion 3: the first trials of each CE-ZK lane
# ---------------------------------------------------------------------

# same params, statements, verifiers, seed and stream labels as
# test_criterion_3_epr_cezk: (real or simulated, EprParams, instance,
# V*) per lane
C3_SEED = 20260808
C3_TRIALS = 2_000
C3_CLASSICAL = EprParams(hb=HbParams(n=3, repetitions=1, matrix_side=3, block_len=1), block_width=4)
C3_QUANTUM = EprParams(hb=HbParams(n=2, repetitions=8, matrix_side=2, block_len=1), block_width=2)
C3_LANES = {
    "c3r": (True, C3_CLASSICAL, (complete_digraph(3), canonical_cycle(3)), honest_delete_vstar),
    "c3s": (False, C3_CLASSICAL, (complete_digraph(3), canonical_cycle(3)), honest_delete_vstar),
    "c3qr": (True, C3_QUANTUM, two_cycle_pair(), keep_two_blocks_vstar),
    "c3qs": (False, C3_QUANTUM, two_cycle_pair(), keep_two_blocks_vstar),
}
C3_GOLDEN = {
    "c3r": "c55d83d28e316be2982aff229939caa52b417e57ba86c359fe2b20dd5a975e66",
    "c3s": "e4f2286ab305ff3e796bbb4f09fbe35cc79067eb47f245ce046f58e068ad25f9",
    "c3qr": "e2ea8ed047e1d4af448c5054a9b04ef48834b598303b44940f32b25878d2151f",
    "c3qs": "3626c4dac5f9d11e14df59ff86e405002fb6fa3270bf3486b044b99361c42902",
}


def _c3_output_digest(out) -> tuple:
    """The criterion-3 readout of one output, with a kept state's full
    amplitude dump in place of the Hadamard pattern read off it."""
    if out == BOT:
        return ("bot",)
    if "qstate" in out:
        kept = None if out["qstate"] is None else tuple(dump_lines(out["qstate"]))
        return (out["verdict"], out["tag"], kept)
    return (out["verdict"], out["cert_blocks"], out["cert_bits"])


@pytest.mark.parametrize("lane", sorted(C3_GOLDEN))
def test_criterion_3_lane_digest(lane):
    real, params, (x, witness), vstar = C3_LANES[lane]
    h = hashlib.sha256()
    for trial in range(C3_TRIALS):
        rng = stream(C3_SEED, lane, trial)
        if real:
            out, _, _ = run_cezk_real(params, x, witness, vstar, rng)
        else:
            out, _, _ = epr_sim(params, x, vstar, rng)
        # one draw after the trial pins how much of the stream it used
        h.update(repr((_c3_output_digest(out), rng.random())).encode())
    assert h.hexdigest() == C3_GOLDEN[lane]
