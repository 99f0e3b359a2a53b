"""The benchmark workloads: inputs, one op, and its correctness check.

Each workload turns the benchmark seed into passes of op inputs; pass p
always holds the same inputs for the same seed. An op calls the package
only through public functions, looked up on their module at call time
so that the tracer's wrappers see every call. `check` decides whether
an op's outputs are correct; `fingerprint` gives bytes that must repeat
when the same input runs twice.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np

from cenizk import attacks, crs_protocol, epr_protocol, graphs, harness, hbnizk, rng, state, wire

# pass index reserved for set-up inputs; measurement never reaches it
WARMUP_PASS = 2**31 - 1


class InputModelError(RuntimeError):
    """The benchmark's model of its inputs no longer matches the program."""


class Workload:
    name = ""
    ops_per_pass = 1
    # share of an op's time that slows down with the host as the
    # calibration kernel does (see hostclock.py)
    interpreter_share = 1.0

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.tag = zlib.crc32(self.name.encode())

    def _pass_rng(self, pass_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, pass_index])

    def inputs(self, pass_index: int) -> list:
        return [int(s) for s in self._pass_rng(pass_index).integers(0, 2**31, size=self.ops_per_pass)]

    def warmup_input(self):
        return self.inputs(WARMUP_PASS)[0]

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> bool:
        raise NotImplementedError

    def fingerprint(self, result) -> bytes:
        raise NotImplementedError


# ---------------------------------------------------------------------
# transcript workloads: run-session --out / certify --in
# ---------------------------------------------------------------------


class _TranscriptWorkload(Workload):
    protocol = ""
    params: dict = {}

    def op(self, session_seed: int):
        t = harness.run_session(self.protocol, dict(self.params), session_seed)
        data = harness.serialize_transcript(t)
        return t, data, harness.deserialize_transcript(data)

    def check(self, session_seed, result) -> bool:
        t, _, back = result
        return (
            t.verdicts.get("verify") == 1
            and t.verdicts.get("certify") is True
            and back.verdicts == t.verdicts
            and back.messages == t.messages
        )

    def fingerprint(self, result) -> bytes:
        return result[1]


class EprC1(_TranscriptWorkload):
    """Criterion-1 shape: 4,915,200 pairs; bulk numpy, sparse engine idle."""

    name = "epr-c1"
    protocol = "epr"
    params = {"n": 4, "reps": 20, "m": 64, "b": 10, "k": 6, "hbg": "dealer", "hbg_s": 12}
    ops_per_pass = 8
    # About half of an op is numpy work on 4.9M-entry arrays. Over eight
    # 24-second runs, ops timed in slow stretches (kernel median above
    # 4 ms) took 1.25x as long as ops in fast ones (below 3.2 ms), while
    # the kernel took 1.51x as long: (1.25 - 1) / (1.51 - 1) = 0.49.
    interpreter_share = 0.5


class CrsToy(_TranscriptWorkload):
    """Toy-mode CRS session (16 encoding qubits). Its cost grows as
    2^wt(theta), so a seed's own theta weights would swing every latency
    figure. Each pass instead holds 32 sessions with a fixed weight mix:
    the quantile points of Binomial(16, 1/2), except that one weight-7 and
    one weight-9 session become weight 11. Without that shift p90 sits on
    the 10/11 boundary, where cost doubles; with it, p50 falls mid-way
    through the weight-8 sessions and p90 mid-way through the weight-11
    ones."""

    name = "crs-toy"
    protocol = "crs-toy"
    params = harness.default_crs_params()
    weights = [4] + [5] * 2 + [6] * 4 + [7] * 5 + [8] * 6 + [9] * 5 + [10] * 4 + [11] * 4 + [12]
    ops_per_pass = len(weights)

    def __init__(self, seed: int):
        super().__init__(seed)
        cp = crs_protocol.CrsParams(lam=int(self.params["lam"]), sig_width=int(self.params["sig_width"]))
        self.r_qubits = cp.r_qubits
        self.expected_weight: dict[int, int] = {}

    def theta_weight(self, session_seed: int) -> int:
        # crs_prove draws y, then theta, from the session's "prove" stream
        g = rng.stream(session_seed, "prove")
        g.integers(0, 2, size=self.r_qubits, dtype=np.uint8)
        return int(g.integers(0, 2, size=self.r_qubits, dtype=np.uint8).sum())

    def _seeds_for(self, weights: list[int], pass_index: int) -> list[int]:
        g = self._pass_rng(pass_index)
        wanted = Counter(weights)
        found: dict[int, list[int]] = {w: [] for w in wanted}
        while any(len(found[w]) < n for w, n in wanted.items()):
            s = int(g.integers(0, 2**31))
            w = self.theta_weight(s)
            if w in found and len(found[w]) < wanted[w]:
                found[w].append(s)
                self.expected_weight[s] = w
        seeds = [s for w in sorted(found) for s in found[w]]
        return [seeds[i] for i in g.permutation(len(seeds))]

    def inputs(self, pass_index: int) -> list:
        return self._seeds_for(self.weights, pass_index)

    def warmup_input(self):
        median = self.weights[len(self.weights) // 2]
        return self._seeds_for([median], WARMUP_PASS)[0]

    def check(self, session_seed, result) -> bool:
        ok = super().check(session_seed, result)
        key = next(wire.decode(p) for _, step, p in result[2].messages if step == "prover-key")
        weight = int(np.asarray(key["theta"]).sum())
        if weight != self.expected_weight[session_seed]:
            raise InputModelError(
                f"session seed {session_seed} drew theta weight {weight}, the benchmark "
                f"expected {self.expected_weight[session_seed]}: the transcript of a fixed seed changed"
            )
        return ok


# ---------------------------------------------------------------------
# criterion-3 quantum-output CE-ZK fixture
# ---------------------------------------------------------------------


class CezkTiny(Workload):
    """One real CE-ZK experiment and one simulated one on the two-vertex
    fixture, each with a verifier that keeps two deleted blocks as qubits
    (4 qubits, about 1.5 ms per op). The EPR layers run at their smallest
    size, where fixed per-call cost dominates."""

    name = "cezk-tiny"
    ops_per_pass = 64
    params = epr_protocol.EprParams(hb=hbnizk.HbParams(n=2, repetitions=8, matrix_side=2, block_len=1), block_width=2)
    statement, witness = graphs.two_cycle_pair()
    READOUT_TOL = 1e-9

    def op(self, trial_seed: int):
        vstar = epr_protocol.keep_two_blocks_vstar
        real, _, _ = epr_protocol.run_cezk_real(
            self.params, self.statement, self.witness, vstar, rng.stream(trial_seed, "cezk-real")
        )
        sim, _, _ = epr_protocol.epr_sim(self.params, self.statement, vstar, rng.stream(trial_seed, "cezk-sim"))
        return [(out, self.readout(out)) for out in (real, sim)]

    @staticmethod
    def readout(out):
        """Read the Hadamard pattern off a kept 4-qubit state, qubit by
        qubit. Returns (pattern, probability of each projection taken),
        or None when no state was kept."""
        if out == epr_protocol.BOT or out["tag"] != "kept":
            return None
        cur = out["qstate"]
        pattern, probs = 0, []
        for q in range(4):
            p1, post = state.project(cur, q, "X", 1)
            if post is not None and p1 > 0.5:
                pattern, cur = (pattern << 1) | 1, post
                probs.append(p1)
            else:
                p0, cur = state.project(cur, q, "X", 0)
                pattern <<= 1
                probs.append(p0)
        return pattern, probs

    def check(self, trial_seed, result) -> bool:
        for out, read in result:
            if out == epr_protocol.BOT:
                return False
            if read is not None and any(abs(p - 1.0) > self.READOUT_TOL for p in read[1]):
                return False
        return True

    def fingerprint(self, result) -> bytes:
        return repr([out if out == epr_protocol.BOT else (out["verdict"], out["tag"], read) for out, read in result]).encode()


# ---------------------------------------------------------------------
# criterion-8 derived-soundness forger
# ---------------------------------------------------------------------


class DerivedSound(Workload):
    """Challenge-grinding forger against the derived proof system."""

    name = "derived-sound"
    ops_per_pass = 16
    params = attacks.StrawmanParams()
    statement = graphs.non_hamiltonian_triangle()

    def op(self, trial_seed: int):
        g = rng.stream(trial_seed, "derived-sound")
        package = attacks.derived_soundness_adversary(self.params, self.statement, g)
        return package, attacks.derived_verify(self.params, self.statement, package, g)

    def check(self, trial_seed, result) -> bool:
        return result[1] == 0

    def fingerprint(self, result) -> bytes:
        package, verdict = result
        classical = package["classical"]
        return repr((verdict, classical["cs"], classical["opened_ids"])).encode()


WORKLOADS = {cls.name: cls for cls in (EprC1, CrsToy, CezkTiny, DerivedSound)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
