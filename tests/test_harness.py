"""Harness and CLI tests: transcript round-trips, determinism, report
plumbing, and the command surface."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cenizk import epr_protocol as ep
from cenizk import hbg, wire
from cenizk.cli import main as cli_main
from cenizk.graphs import canonical_cycle, complete_digraph
from cenizk.harness import MAGIC, SIZE_CAPS, VERSION, _require_params
from cenizk.harness import (
    Transcript,
    TranscriptError,
    default_crs_params,
    default_params,
    deserialize_transcript,
    experiment_names,
    hoeffding_halfwidth,
    run_experiment,
    run_session,
    serialize_transcript,
)
from cenizk.hbnizk import HbParams
from cenizk.rng import stream
from conftest import epr_message_arrays

# wire-encodable value strategy (scalars, arrays, nested containers)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=40),
    st.text(max_size=20),
)
arrays = st.one_of(
    st.lists(st.integers(0, 255), max_size=12).map(lambda v: np.array(v, dtype=np.uint8)),
    st.lists(st.integers(-1000, 1000), max_size=8).map(lambda v: np.array(v, dtype=np.int64)),
)
values = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def array_bytes(dims, payload=b""):
    """The wire bytes of a <u8 array whose header names dims, then payload."""
    shape = b"".join(dim.to_bytes(4, "big") for dim in dims)
    return b"A\x00\x00\x00\x03<u8" + bytes([len(dims)]) + shape + len(payload).to_bytes(4, "big") + payload


# array headers numpy refuses: more dimensions than it supports, or
# dimensions whose int64 product wraps around to the payload's size
UNSUPPORTED_SHAPES = {
    "65-dims": ([1] * 65, bytes(8)),
    "71-dims": ([0] * 71, b""),
    "64-dims-of-2": ([2] * 64, b""),
    "32-dims-of-4": ([4] * 32, b""),
}


def _eq(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_eq(a[k], b[k]) for k in a)
    return a == b


class TestWire:
    @given(values)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, obj):
        assert _eq(wire.decode(wire.encode(obj)), obj)

    def test_lists_and_tuples_normalize_to_lists(self):
        assert wire.decode(wire.encode((1, 2))) == [1, 2]

    @pytest.mark.parametrize("entry", [1.5, 1.0, True, "1", None])
    def test_useful_map_entries_must_be_ints(self, entry):
        # int() would decode 1.5 as vertex 1
        with pytest.raises(wire.WireError, match="list of ints"):
            wire.hbproof_from_payload([{"kind": "useful", "map": [0, entry, 2]}])
        with pytest.raises(wire.WireError, match="list of ints"):
            wire.hbproof_from_payload([{"kind": "useful", "map": entry}])
        proof = wire.hbproof_from_payload([{"kind": "useful", "map": [0, 1, 2]}])
        assert proof.reps[0].vertex_map == (0, 1, 2)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "naor", "seeds": np.array([1.5, 7.9])},
            {"kind": "naor", "seeds": [1, 7]},
            {"kind": "naor"},
            {"kind": "subset", "positions": np.array([0, 1]), "seeds": np.array([1, 7], dtype=np.uint64)},
            {"kind": "dealer"},
            {"kind": "dealer", "receipt": "r"},
        ],
        ids=["naor-float", "naor-list", "naor-missing", "subset-kind-retired", "dealer-no-receipt", "dealer-str-receipt"],
    )
    def test_opening_payload_needs_integer_arrays(self, payload):
        with pytest.raises(wire.WireError):
            wire.opening_from_payload(wire.decode(wire.encode(payload)))

    def test_opening_payload_round_trip_keeps_arrays(self):
        from cenizk.hbg import NaorOpening

        for seeds in (np.array([9, 4], dtype=np.uint64), np.array([9, 4], dtype=np.int64)):
            back = wire.opening_from_payload(wire.decode(wire.encode(wire.opening_payload(NaorOpening(seeds)))))
            assert isinstance(back, NaorOpening) and back.seeds.dtype == seeds.dtype
            assert np.array_equal(back.seeds, seeds)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode(wire.encode(1) + b"x")

    def test_unencodable_object_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode(object())

    @pytest.mark.parametrize(
        "data",
        [
            b"I\x02\x00\x00\x00\x01\x05",  # sign byte other than 0/1
            b"I\x00\x00\x00\x00\x02\x00\x05",  # leading zero byte
            b"I\x01\x00\x00\x00\x01\x00",  # negative zero
        ],
    )
    def test_non_canonical_int_rejected(self, data):
        with pytest.raises(wire.WireError):
            wire.decode(data)

    @pytest.mark.parametrize("field", [b">u8", b"uint64", b"u8", b"Q", b"<Q"])
    def test_only_the_written_dtype_spelling_decodes(self, field):
        # every field names the dtype encode writes as <u8
        data = wire.encode(np.array([1, 2, 3], dtype=np.uint64))
        assert data[5:8] == b"<u8" and wire.decode(data).tolist() == [1, 2, 3]
        with pytest.raises(wire.WireError, match="non-canonical array dtype"):
            wire.decode(data[:1] + len(field).to_bytes(4, "big") + field + data[8:])

    def test_bool_array_bytes_are_0_or_1(self):
        data = wire.encode(np.array([False, True]))
        assert data[-2:] == b"\x00\x01"
        with pytest.raises(wire.WireError, match="0 or 1"):
            wire.decode(data[:-1] + b"\x02")

    def test_repeated_dict_key_rejected(self):
        data = wire.encode({"a": 1, "b": 2})
        with pytest.raises(wire.WireError, match="distinct"):
            wire.decode(data.replace(b"\x01b", b"\x01a"))

    @pytest.mark.parametrize("how", sorted(UNSUPPORTED_SHAPES))
    def test_unsupported_array_shape_rejected(self, how):
        assert wire.decode(array_bytes([2, 1], bytes(16))).shape == (2, 1)
        with pytest.raises(wire.WireError):
            wire.decode(array_bytes(*UNSUPPORTED_SHAPES[how]))

    def test_nesting_depth_capped(self):
        ok = b"L\x00\x00\x00\x01" * wire.MAX_DEPTH + b"N"
        assert wire.decode(ok) is not None
        with pytest.raises(wire.WireError):
            wire.decode(b"L\x00\x00\x00\x01" + ok)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_decoded_array_is_a_read_only_view_of_the_input(self, kind):
        data = kind(wire.encode([np.arange(6, dtype=np.int64).reshape(2, 3), b"\x01"]))
        arr, _ = wire.decode(data)
        assert np.array_equal(arr, np.arange(6).reshape(2, 3)) and arr.dtype == np.int64
        assert not arr.flags.writeable
        assert np.shares_memory(arr, np.frombuffer(data, dtype=np.uint8))
        with pytest.raises(ValueError):
            arr[0, 0] = 7

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_decode_accepts_bytes_like_input(self, kind):
        obj = {"b": b"\x00\xff", "s": "h\u00e9", "a": np.array([1, 2], dtype=np.uint16), "i": -5, "e": np.zeros(0)}
        back = wire.decode(kind(wire.encode(obj)))
        assert _eq(back, obj)
        assert type(back["b"]) is bytes and type(back["s"]) is str

    def test_decode_reads_a_memoryview_slice(self):
        data = wire.encode({"a": np.arange(3, dtype=np.uint32)})
        assert _eq(wire.decode(memoryview(b"pad" + data)[3:]), {"a": np.arange(3, dtype=np.uint32)})

    def test_decode_rejects_non_bytes_input(self):
        with pytest.raises(wire.WireError):
            wire.decode("N")

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_bytes_and_str_leaves_never_decode_as_memoryview(self, obj):
        def leaves(x):
            if isinstance(x, list):
                return [leaf for item in x for leaf in leaves(item)]
            if isinstance(x, dict):
                return [leaf for item in x.values() for leaf in leaves(item)]
            return [x]

        assert not any(isinstance(leaf, memoryview) for leaf in leaves(wire.decode(wire.encode(obj))))


# an EPR session that leaves blocks unopened at seed 0: the criterion-3
# quantum-output shape with the naor generator
UNOPENED_PARAMS = {"n": 2, "reps": 8, "m": 2, "b": 1, "k": 2, "hbg": "naor", "hbg_s": 12}
UNOPENED_SEED = 1  # a session at these params that leaves two blocks unopened


class TestTranscriptSerialization:
    def _sample(self, seed=3):
        t = run_session("epr", None, seed)
        return t

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_sessions(self, seed):
        t = run_session("epr", None, seed)
        data = serialize_transcript(t)
        back = deserialize_transcript(data)
        assert serialize_transcript(back) == data

    def test_empty_transcript_round_trips(self):
        t = Transcript("epr", {}, 0)
        back = deserialize_transcript(serialize_transcript(t))
        assert back.protocol == "epr" and back.messages == [] and back.verdicts == {}

    def test_corrupt_magic_is_parse_error(self):
        data = serialize_transcript(self._sample())
        with pytest.raises(TranscriptError):
            deserialize_transcript(b"WRONG" + data[5:])

    def test_corrupt_length_field_is_parse_error(self):
        data = bytearray(serialize_transcript(self._sample()))
        data[20] ^= 0xFF  # clobber an interior length prefix
        with pytest.raises((TranscriptError, wire.WireError)):
            deserialize_transcript(bytes(data))

    def test_truncated_payload_is_parse_error(self):
        data = serialize_transcript(self._sample())
        with pytest.raises(TranscriptError):
            deserialize_transcript(data[: len(data) // 2])

    def test_unsupported_array_shape_is_parse_error(self):
        with pytest.raises(TranscriptError, match="dimensions"):
            deserialize_transcript(MAGIC + VERSION.to_bytes(2, "big") + array_bytes(*UNSUPPORTED_SHAPES["65-dims"]))

    def test_version_gate(self):
        data = serialize_transcript(self._sample())
        bad = data[:5] + (99).to_bytes(2, "big") + data[7:]
        with pytest.raises(TranscriptError):
            deserialize_transcript(bad)

    def test_version_1_file_is_refused(self, capsys, tmp_path):
        # a well-formed body behind version 1: v1 EPR payloads are not bit-packed
        assert VERSION == 4
        data = serialize_transcript(self._sample())
        v1 = MAGIC + (1).to_bytes(2, "big") + data[7:]
        with pytest.raises(TranscriptError, match="version 1$"):
            deserialize_transcript(v1)
        path = tmp_path / "v1.cenz"
        path.write_bytes(v1)
        assert cli_main(["certify", "--in", str(path)]) == 2
        assert "unsupported transcript version 1" in capsys.readouterr().err

    def test_version_2_epr_file_is_refused_not_replayed(self, capsys, tmp_path):
        # version 2 drew the EPR bits one byte per pair: its sessions cannot
        # be replayed, so the file is refused (exit 2), never compared (exit 1)
        data = serialize_transcript(run_session("epr", None, 3))
        v2 = MAGIC + (2).to_bytes(2, "big") + data[7:]
        with pytest.raises(TranscriptError, match="version 2$"):
            deserialize_transcript(v2)
        path = tmp_path / "v2.cenz"
        path.write_bytes(v2)
        for verb in ("certify", "prove"):
            assert cli_main([verb, "--in", str(path)]) == 2
            err = capsys.readouterr().err
            assert "unsupported transcript version 2" in err and "replay mismatch" not in err


    def test_version_3_file_is_refused(self, capsys, tmp_path):
        # version 3 sent a naor opening's positions: its files are refused
        # (exit 2), never replayed against version 4 bytes (exit 1)
        data = serialize_transcript(run_session("epr", UNOPENED_PARAMS, UNOPENED_SEED))
        v3 = MAGIC + (3).to_bytes(2, "big") + data[7:]
        with pytest.raises(TranscriptError, match="version 3$"):
            deserialize_transcript(v3)
        path = tmp_path / "v3.cenz"
        path.write_bytes(v3)
        for verb in ("certify", "prove"):
            assert cli_main([verb, "--in", str(path)]) == 2
            err = capsys.readouterr().err
            assert "unsupported transcript version 3" in err and "replay mismatch" not in err


class TestDeterminism:
    def test_same_seed_identical_bytes(self):
        a = serialize_transcript(run_session("epr", None, 77))
        b = serialize_transcript(run_session("epr", None, 77))
        assert a == b

    def test_different_seeds_differ(self):
        a = run_session("epr", None, 1)
        b = run_session("epr", None, 2)
        rec_a = next(r for r in a.records if r["role"] == "prover")
        rec_b = next(r for r in b.records if r["role"] == "prover")
        assert (
            not np.array_equal(rec_a["outcomes"], rec_b["outcomes"])
            or not np.array_equal(rec_a["bases"], rec_b["bases"])
        )

    def test_stream_numpy_int_label_matches_int(self):
        draw = int(stream(1, "t", 3).integers(0, 2**32))
        assert draw == 2032951268  # pinned: int and str labels keep their streams
        assert int(stream(1, "t", np.int64(3)).integers(0, 2**32)) == draw

    def test_crs_session_deterministic(self):
        a = serialize_transcript(run_session("crs-toy", None, 9))
        b = serialize_transcript(run_session("crs-toy", None, 9))
        assert a == b

    def test_crs_session_serializes_sigma_and_prover_key(self):
        t = run_session("crs-toy", None, 11)
        steps = {step for _, step, _ in t.messages}
        assert {"proof", "prover-key"} <= steps
        payload = wire.decode(next(p for _, step, p in t.messages if step == "prover-key"))
        assert {"theta", "k0", "k1", "y", "prfk", "preimages"} <= set(payload)
        proof = wire.decode(next(p for _, step, p in t.messages if step == "proof"))
        assert "state_dump" in proof and "ct0" in proof

    def test_verdicts_recorded_each_stage(self):
        t = run_session("epr", None, 5)
        assert set(t.verdicts) == {"verify", "certify"}
        assert t.verdicts["verify"] == 1 and t.verdicts["certify"] is True

    def test_quantum_registers_never_serialize(self):
        # the wire encoder rejects state objects outright
        from cenizk.state import SparseState

        with pytest.raises(wire.WireError):
            wire.encode({"state": SparseState(1, {0: 1.0 + 0.0j})})

    def test_epr_messages_reveal_theta_only_for_opened_blocks(self):
        # the naor generator opens a subset of positions; at this seed two
        # blocks stay unopened
        t = run_session("epr", UNOPENED_PARAMS, UNOPENED_SEED)
        payload = wire.decode(next(p for role, step, p in t.messages if step == "proof"))
        assert list(payload) == ["opened", "com", "theta_I", "op", "pi_hb"]
        arrays, k = epr_message_arrays(t), UNOPENED_PARAMS["k"]
        ell = len(arrays["s"])
        assert 0 < len(arrays["I"]) < ell
        assert payload["opened"].dtype == np.uint8 and len(payload["opened"]) == (ell + 7) // 8
        assert payload["theta_I"].dtype == np.uint8 and payload["theta_I"].shape == (len(arrays["I"]),)
        assert not np.any(payload["theta_I"] >> k)
        # a naor op carries one seed per pair of an opened block, and no positions
        assert list(payload["op"]) == ["kind", "seeds"] and payload["op"]["kind"] == "naor"
        assert payload["op"]["seeds"].shape == (len(arrays["I"]) * k,)

    def test_epr_payloads_unpack_to_the_protocol_objects(self):
        seed = UNOPENED_SEED
        pp = ep.EprParams(
            hb=HbParams(n=2, repetitions=8, matrix_side=2, block_len=1), block_width=2, hbg_mode="naor"
        )
        x, witness = complete_digraph(2), canonical_cycle(2)
        crs, network = ep.epr_setup(pp, stream(seed, "setup"))
        proof, _ = ep.epr_prove(pp, crs, network, x, witness, stream(seed, "prove"))
        _, residual = ep.epr_verify(pp, crs, network, x, proof, stream(seed, "verify"))
        cert, _ = ep.epr_delete(pp, residual, stream(seed, "delete"))
        assert len(cert.blocks) > 0
        arrays = epr_message_arrays(run_session("epr", UNOPENED_PARAMS, seed))
        for got, want in [
            (arrays["s"], crs.s),
            (arrays["I"], np.flatnonzero(proof.opened)),
            (arrays["theta_I"], proof.theta_I),
            (arrays["outcomes"], cert.outcomes),
        ]:
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestExperiments:
    def test_zero_trials_empty_report(self):
        report = run_experiment("epr-honest", 0, None, 1)
        assert report.trials == 0 and report.successes == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("nope", 1, None, 1)

    def test_reproducible_under_seed(self):
        a = run_experiment("epr-honest", 5, None, 42)
        b = run_experiment("epr-honest", 5, None, 42)
        assert (a.successes, a.estimate) == (b.successes, b.estimate)

    def test_hoeffding_width_scales_inverse_sqrt(self):
        w1 = hoeffding_halfwidth(500)
        w2 = hoeffding_halfwidth(2000)
        assert w1 / w2 == pytest.approx(2.0)

    def test_report_text_fields(self):
        report = run_experiment("epr-honest", 3, None, 7)
        text = report.text()
        for field in ("experiment", "trials", "successes", "estimate", "ci_halfwidth"):
            assert field in text


class TestPartialParams:
    def test_session_names_missing_keys(self):
        with pytest.raises(ValueError, match="epr params missing reps, m, b, k, hbg, hbg_s"):
            run_session("epr", {"n": 3}, 0)
        with pytest.raises(ValueError, match="crs-toy params missing witness, sig_width"):
            run_session("crs-toy", {"lam": 2}, 0)

    @pytest.mark.parametrize(
        "name", ["epr-honest", "epr-soundness-greedy", "epr-soundness-forged", "epr-single-rep"]
    )
    def test_epr_experiments_name_missing_keys(self, name):
        with pytest.raises(ValueError, match="epr params missing reps"):
            run_experiment(name, 1, {"n": 3}, 0)

    def test_crs_experiment_names_missing_keys(self):
        with pytest.raises(ValueError, match="crs-toy params missing sig_width"):
            run_experiment("crs-honest", 1, {"lam": 2, "witness": "1011"}, 0)


class TestParamTypes:
    @pytest.mark.parametrize(
        "protocol,key,value",
        [
            ("epr", "n", None),
            ("crs-toy", "lam", [2]),
            ("crs-toy", "witness", 1011),
            # a bool is an int to isinstance: True ran as 1 under a second
            # encoding of the params, and False was refused as a size below 1
            ("epr", "k", True),
            ("epr", "b", True),
            ("epr", "hbg_s", True),
            ("epr", "n", False),
            ("crs-toy", "lam", True),
            ("crs-toy", "sig_width", True),
            ("crs-dry", "lam", True),
        ],
    )
    def test_certify_names_a_param_of_the_wrong_type(self, capsys, tmp_path, protocol, key, value):
        defaults = default_params(protocol)
        path = tmp_path / "typed.cenz"
        path.write_bytes(serialize_transcript(Transcript(protocol, {**defaults, key: value}, 0)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        expected = f"{protocol} param {key} must be a {type(defaults[key]).__name__}, got {value!r}"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["x", 1.5, True, False])
    def test_certify_names_a_non_integer_seed(self, capsys, tmp_path, seed):
        path = tmp_path / "seed.cenz"
        path.write_bytes(serialize_transcript(Transcript("epr", default_params("epr"), seed)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        assert "seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", [["epr"], {"epr": 1}, 7, None, b"epr"])
    def test_certify_names_a_protocol_that_is_no_str(self, capsys, tmp_path, protocol):
        # a list or dict protocol once escaped the CLI as an unhashable-type TypeError
        path = tmp_path / "protocol.cenz"
        path.write_bytes(serialize_transcript(Transcript(protocol, default_params("epr"), 0)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        assert "transcript protocol must be a str" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [True, False, 1.0, "3", -1])
    @pytest.mark.parametrize("entry", ["run_session", "run_experiment"])
    def test_sessions_and_experiments_share_one_seed_rule(self, entry, seed):
        # True ran as seed 1, 1.0 and "3" raised numpy's TypeError, and -1
        # numpy's "expected non-negative integer"
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {re.escape(repr(seed))}$"):
            if entry == "run_session":
                run_session("epr", None, seed)
            else:
                run_experiment("deletion-keep-state", 2, None, seed)

    @pytest.mark.parametrize("trials", [True, False, 2.5, "3", None, -1])
    def test_trials_follow_the_seed_rule(self, trials):
        # True ran one trial and reported "trials True"; 2.5, "3" and None
        # raised TypeError
        with pytest.raises(ValueError, match=f"trials must be an integer >= 0, got {re.escape(repr(trials))}$"):
            run_experiment("deletion-keep-state", trials, None, 0)

    def test_a_numpy_integer_trial_count_is_its_int(self):
        report = run_experiment("deletion-keep-state", np.int64(3), None, 0)
        assert (report.trials, report.successes) == (3, run_experiment("deletion-keep-state", 3, None, 0).successes)

    def test_a_numpy_integer_seed_is_its_int(self):
        assert run_experiment("deletion-keep-state", 2, None, np.int64(3)).extra == (
            run_experiment("deletion-keep-state", 2, None, 3).extra
        )
        assert serialize_transcript(run_session("epr", None, np.uint8(3))) == serialize_transcript(
            run_session("epr", None, 3)
        )

    @pytest.mark.parametrize(
        "argv", [["run-session"], ["run-experiment", "--name", "deletion-keep-state", "--trials", "2"]]
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        assert cli_main([*argv, "--seed", "-1"]) == 2
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err

    # a bool k made hbg-binding fail with a TypeError inside hbg_open
    @pytest.mark.parametrize(
        "name,params,key",
        [
            ("hbg-binding", {"s": 12, "k": True}, "k"),
            ("hbg-binding", {"s": True, "k": 8}, "s"),
            ("deletion-keep-state", {"lam": True}, "lam"),
            ("epr-honest", {**default_params("epr"), "reps": True}, "reps"),
            ("crs-honest", {**default_crs_params(), "lam": True}, "lam"),
        ],
    )
    def test_run_experiment_refuses_a_bool_int_param(self, name, params, key):
        with pytest.raises(ValueError, match=f"param {key} must be a int, got True"):
            run_experiment(name, 2, params, 0)

    def test_block_width_above_a_byte_is_usage_error(self, capsys):
        # a block's bases and outcomes are one byte each
        assert cli_main(["run-session", "--protocol", "epr", "--param", "k=9"]) == 2
        assert "error: epr param k must be at most 8, got 9" in capsys.readouterr().err
        assert cli_main(["run-session", "--protocol", "epr", "--param", "k=8"]) == 0


# every integer param a session checks as a size; crs-dry checks sig_width
# so, although it refuses every well-formed value but the default
SIZE_PARAMS = [("epr", key) for key, value in default_params("epr").items() if isinstance(value, int)] + [
    ("crs-toy", "lam"),
    ("crs-toy", "sig_width"),
    ("crs-dry", "lam"),
    ("crs-dry", "sig_width"),
]


class TestCliParams:
    def test_witness_digits_stay_a_string(self, capsys, tmp_path):
        out = tmp_path / "w.cenz"
        argv = ["run-session", "--protocol", "crs-toy", "--param", "witness=0011", "--out", str(out)]
        assert cli_main(argv) == 0
        assert deserialize_transcript(out.read_bytes()).params["witness"] == "0011"

    def test_witness_with_a_non_bit_is_usage_error(self, capsys):
        assert cli_main(["run-session", "--protocol", "crs-toy", "--param", "witness=1012"]) == 2
        assert "crs-toy param witness must be a 0/1 string, got '1012'" in capsys.readouterr().err

    def test_dry_run_checks_the_params_it_records(self, capsys):
        # crs-dry proves a fixed triangle, but every param lands in the
        # transcript, so each is validated as crs-toy validates it
        assert cli_main(["run-session", "--protocol", "crs-dry", "--param", "witness=1012"]) == 2
        assert "crs-dry param witness must be a 0/1 string, got '1012'" in capsys.readouterr().err
        assert cli_main(["run-session", "--protocol", "crs-dry", "--param", "sig_width=0"]) == 2
        assert "crs-dry param sig_width must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("protocol,key", SIZE_PARAMS)
    def test_size_below_one_is_usage_error(self, capsys, tmp_path, protocol, key, value):
        assert cli_main(["run-session", "--protocol", protocol, "--param", f"{key}={value}"]) == 2
        assert f"{protocol} param {key} must be at least 1, got {value}" in capsys.readouterr().err
        defaults = default_params(protocol)
        path = tmp_path / "size.cenz"
        path.write_bytes(serialize_transcript(Transcript(protocol, {**defaults, key: value}, 0)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        assert f"{protocol} param {key} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocol,key,value,name",
        [
            ("epr", "m", 10**6, "reps*m*m*b*k"),
            ("epr", "reps", 2**23, "reps*m*m*b*k"),
            ("epr", "k", 9, "k"),
            ("epr", "hbg_s", 17, "hbg_s"),
            ("crs-toy", "lam", SIZE_CAPS["crs-toy"]["lam"] + 1, "lam"),
            ("crs-toy", "sig_width", SIZE_CAPS["crs-toy"]["sig_width"] + 1, "sig_width"),
            ("crs-dry", "lam", SIZE_CAPS["crs-dry"]["lam"] + 1, "lam"),
            # no cap: the dry run never reads sig_width and refuses it
            ("crs-dry", "sig_width", 65, "sig_width"),
        ],
    )
    def test_size_above_cap_is_usage_error(self, capsys, tmp_path, protocol, key, value, name):
        defaults = default_params(protocol)
        path = tmp_path / "huge.cenz"
        path.write_bytes(serialize_transcript(Transcript(protocol, {**defaults, key: value}, 0)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        if protocol == "crs-dry" and key == "sig_width":
            assert "error: crs-dry param sig_width must be 16: the dry run never reads it" in err
        else:
            assert f"error: {protocol} param {name} must be at most" in err

    @pytest.mark.parametrize(
        "protocol,params",
        [
            # criterion 1 and the epr-c1 benchmark workload; the soundness shape
            ("epr", {"n": 4, "reps": 20, "m": 64, "b": 10, "k": 6, "hbg": "dealer", "hbg_s": 12}),
            ("epr", {"n": 3, "reps": 20, "m": 27, "b": 8, "k": 6, "hbg": "dealer", "hbg_s": 12}),
            ("crs-toy", default_crs_params()),
            ("crs-dry", default_crs_params()),
        ],
    )
    def test_caps_admit_every_suite_shape(self, protocol, params):
        _require_params(params, default_params(protocol), protocol)

    @pytest.mark.parametrize(
        "name,key",
        [
            ("deletion-honest-td", "lam"),
            ("deletion-leaking-td", "lam"),
            ("deletion-keep-state", "lam"),
            ("hbg-binding", "s"),
            ("hbg-binding", "k"),
        ],
    )
    def test_experiment_size_above_cap_is_usage_error(self, capsys, name, key):
        value = SIZE_CAPS[name][key] + 1
        assert cli_main(["run-experiment", "--name", name, "--trials", "1", "--param", f"{key}={value}"]) == 2
        assert f"error: {name} param {key} must be at most {value - 1}, got {value}" in capsys.readouterr().err

    def test_one_seed_width_cap(self):
        assert SIZE_CAPS["epr"]["hbg_s"] == SIZE_CAPS["hbg-binding"]["s"] == hbg.SEED_BITS_MAX

    def test_experiment_caps_admit_every_suite_value(self):
        for name in ("deletion-honest-td", "deletion-leaking-td", "deletion-keep-state"):
            _require_params({"lam": 8}, {"lam": 3}, name)  # the deletion digest's largest lam
        _require_params({"s": 12, "k": 8}, {"s": 12, "k": 8}, "hbg-binding")  # criterion 9

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["deletion-honest-td", "deletion-leaking-td", "deletion-keep-state"])
    def test_deletion_lam_below_one_is_usage_error(self, capsys, name, value):
        assert cli_main(["run-experiment", "--name", name, "--param", f"lam={value}"]) == 2
        assert f"{name} param lam must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,lam", [("deletion-honest-td", 3), ("deletion-leaking-td", 2), ("deletion-keep-state", 4)])
    def test_deletion_default_lam(self, name, lam):
        default = run_experiment(name, 50, None, 3)
        explicit = run_experiment(name, 50, {"lam": lam}, 3)
        assert (default.successes, default.extra) == (explicit.successes, explicit.extra)

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["run-session", "--protocol", "epr", "--param", "bogus=7"], "bogus"),
            (["run-session", "--protocol", "crs-toy", "--param", "bogus=7"], "bogus"),
            (["run-experiment", "--name", "hbg-binding", "--param", "hbg_s=0"], "hbg_s"),
            (["run-experiment", "--name", "deletion-keep-state", "--param", "lamb=3"], "lamb"),
            (["run-attack", "--name", "clone", "--param", "x=1"], "x"),
        ],
    )
    def test_unknown_param_key_is_usage_error(self, capsys, argv, key):
        assert cli_main(argv) == 2
        assert f"has no param {key};" in capsys.readouterr().err

    def test_certify_names_an_unknown_param_key(self, capsys, tmp_path):
        path = tmp_path / "unknown.cenz"
        path.write_bytes(serialize_transcript(Transcript("epr", {**default_params("epr"), "bogus": 7}, 0)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        assert "epr has no param bogus;" in capsys.readouterr().err

    @pytest.mark.parametrize("name", experiment_names())
    def test_python_entry_takes_none_or_a_complete_dict(self, name):
        default = run_experiment(name, 2, None, 5)
        complete = run_experiment(name, 2, default_params(name), 5)
        assert (default.successes, default.extra) == (complete.successes, complete.extra)
        for key in default_params(name):
            partial = default_params(name)
            del partial[key]
            with pytest.raises(ValueError, match=f"params missing {key}$"):
                run_experiment(name, 2, partial, 5)


# every param a session records -> one valid other value and a seed at
# which it moves a message. epr n at the default shape moves one only when
# one n finds the hidden matrix useful and the other does not: seed 32 is
# the first such draw in dealer mode and 409 in naor mode. Every other
# key moves a message at seed 0.
_EPR_VARIANTS = {"n": (2, 32), "reps": (2, 0), "m": (4, 0), "b": (2, 0), "k": (3, 0), "hbg_s": (10, 0)}
_CRS_VARIANTS = {"lam": (1, 0), "witness": ("0110", 0), "sig_width": (8, 0)}
PARAM_VARIANTS = {
    "epr-dealer": ("epr", default_params("epr"), {**_EPR_VARIANTS, "hbg": ("naor", 0)}),
    "epr-naor": ("epr", {**default_params("epr"), "hbg": "naor"}, {**_EPR_VARIANTS, "n": (2, 409), "hbg": ("dealer", 0)}),
    "crs-toy": ("crs-toy", default_crs_params(), _CRS_VARIANTS),
    "crs-dry": ("crs-dry", default_crs_params(), _CRS_VARIANTS),
}


class TestOneTranscriptPerSession:
    """A recorded param that moves no message would give one session many
    valid transcripts, so each either moves a message or is refused."""

    def test_every_recorded_param_has_a_variant(self):
        for protocol, defaults, variants in PARAM_VARIANTS.values():
            assert variants.keys() == defaults.keys(), protocol

    @pytest.mark.parametrize("session,key", [(name, key) for name, (_, _, v) in PARAM_VARIANTS.items() for key in v])
    def test_a_param_moves_a_message_or_is_refused(self, session, key):
        protocol, defaults, variants = PARAM_VARIANTS[session]
        value, seed = variants[key]
        try:
            messages = run_session(protocol, {**defaults, key: value}, seed).messages
        except ValueError as exc:
            assert re.search(f"param {key} must be .*never reads it", str(exc)), exc
            return
        assert messages != run_session(protocol, defaults, seed).messages

    @pytest.mark.parametrize(
        "protocol,param,message",
        [
            ("epr", "hbg_s=10", "epr param hbg_s must be 12: a dealer session never reads it"),
            ("crs-dry", "witness=0000", "crs-dry param witness must be '1011': the dry run never reads it"),
            ("crs-dry", "sig_width=8", "crs-dry param sig_width must be 16: the dry run never reads it"),
        ],
    )
    def test_an_unread_param_is_usage_error(self, capsys, tmp_path, protocol, param, message):
        assert cli_main(["run-session", "--protocol", protocol, "--param", param]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        key, value = param.split("=")
        defaults = default_params(protocol)
        path = tmp_path / "unread.cenz"
        path.write_bytes(serialize_transcript(Transcript(protocol, {**defaults, key: type(defaults[key])(value)}, 0)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_a_naor_session_reads_hbg_s(self):
        run_session("epr", {**default_params("epr"), "hbg": "naor", "hbg_s": 10}, 0)


EPR_EXPERIMENTS = ["epr-honest", "epr-soundness-greedy", "epr-soundness-forged", "epr-single-rep"]


def _without_wall_clock(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("wall_clock_s ")]


class TestOneParamRule:
    """Every verb fills omitted keys from the run's defaults in the CLI;
    the Python entry points take None or a complete dict."""

    @pytest.mark.parametrize("name", experiment_names())
    def test_cli_with_one_param_is_the_complete_dict_run(self, capsys, name):
        # one key given (the attacks take none), the others filled in
        defaults = default_params(name)
        argv = ["run-experiment", "--name", name, "--trials", "2", "--seed", "3"]
        argv += [arg for key in list(defaults)[:1] for arg in ("--param", f"{key}={defaults[key]}")]
        assert cli_main(argv) == 0
        report = run_experiment(name, 2, defaults, 3)
        assert _without_wall_clock(capsys.readouterr().out) == _without_wall_clock(report.text())

    @pytest.mark.parametrize("name", EPR_EXPERIMENTS)
    def test_a_dealer_experiment_refuses_hbg_s(self, capsys, name):
        argv = ["run-experiment", "--name", name, "--trials", "1", "--param", "hbg_s=10"]
        assert cli_main(argv) == 2
        assert "error: epr param hbg_s must be 12: a dealer session never reads it" in capsys.readouterr().err

    def test_a_naor_experiment_reads_hbg_s(self):
        report = run_experiment("epr-honest", 1, {**default_params("epr-honest"), "hbg": "naor", "hbg_s": 10}, 0)
        assert report.successes == 1

    @pytest.mark.parametrize("name", ["epr", "crs-toy", "crs-dry", *experiment_names()])
    def test_default_params_is_a_copy(self, name):
        params = default_params(name)
        before = dict(params)
        params.update(dict.fromkeys(before, 0), bogus=1)
        assert default_params(name) == before

    def test_default_params_of_an_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol or experiment 'bogus'"):
            default_params("bogus")


class TestStages:
    @pytest.mark.parametrize("protocol", ["epr", "crs-toy", "crs-dry"])
    def test_unknown_stage_rejected(self, protocol):
        with pytest.raises(ValueError, match="has no stage 'bogus'"):
            run_session(protocol, None, 0, stop_after="bogus")

    def test_delete_is_no_crs_dry_stage(self, capsys):
        assert cli_main(["delete", "--protocol", "crs-dry"]) == 2
        assert "crs-dry has no stage 'delete'" in capsys.readouterr().err


class TestDecodeFuzz:
    """Truncated or single-byte-mutated golden transcripts decode to a
    Transcript or raise TranscriptError; nothing else escapes, and a
    mutant that decodes re-encodes to its own bytes. Decode only: a
    mutated size param could ask a session for huge arrays."""

    GOLDEN = {protocol: serialize_transcript(run_session(protocol, None, 0)) for protocol in ("epr", "crs-toy")}

    @staticmethod
    def _decode(data):
        """The transcript in data, or None when it raises TranscriptError."""
        try:
            t = deserialize_transcript(data)
        except TranscriptError:
            return None
        assert isinstance(t, Transcript)
        return t

    @given(st.sampled_from(sorted(GOLDEN)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncation(self, protocol, data):
        golden = self.GOLDEN[protocol]
        self._decode(golden[: data.draw(st.integers(0, len(golden) - 1))])

    @given(st.sampled_from(sorted(GOLDEN)), st.data())
    @settings(max_examples=1000, deadline=None)
    def test_single_byte_mutation(self, protocol, data):
        golden = bytearray(self.GOLDEN[protocol])
        pos = data.draw(st.integers(0, len(golden) - 1))
        golden[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != golden[pos]))
        t = self._decode(bytes(golden))
        # canonical: bytes that decode are the bytes their transcript encodes to
        assert t is None or serialize_transcript(t) == golden


class TestCertifyFuzz:
    """certify --in on truncated and byte-mutated transcript files of each
    protocol, mutated anywhere in the file: the session params, the seed,
    the messages and the replayed state dump. Every run exits 0, 1 or 2;
    a traceback fails the test. Derandomised: the mutations of each
    protocol come from one seeded stream."""

    GOLDEN = {protocol: serialize_transcript(run_session(protocol, None, 0)) for protocol in ("epr", "crs-toy", "crs-dry")}

    @staticmethod
    def _mutants(golden: bytes, g: np.random.Generator):
        for cut in g.integers(0, len(golden), size=30).tolist():
            yield golden[:cut]
        for width in [1] * 140 + [3] * 20:
            data = bytearray(golden)
            for pos in g.integers(0, len(golden), size=width).tolist():
                data[pos] = (data[pos] + int(g.integers(1, 256))) % 256
            yield bytes(data)

    @pytest.mark.parametrize("protocol", sorted(GOLDEN))
    def test_every_mutant_exits_0_1_or_2(self, capsys, tmp_path, protocol):
        path = tmp_path / "mutant.cenz"
        codes = []
        for data in self._mutants(self.GOLDEN[protocol], stream(31, "certify-fuzz", protocol)):
            path.write_bytes(data)
            codes.append(cli_main(["certify", "--in", str(path)]))
            capsys.readouterr()
        assert set(codes) <= {0, 1, 2}
        # both refusals are reached: bad bytes (2) and replay mismatches (1)
        assert {1, 2} <= set(codes)


class TestCli:
    def test_run_session_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "s.cenz"
        rc = cli_main(["run-session", "--protocol", "epr", "--seed", "3", "--out", str(out)])
        assert rc == 0
        data = out.read_bytes()
        assert data[:5] == b"CENZ1"
        text = capsys.readouterr().out
        assert "verdict verify = 1" in text

    def test_certify_replays_a_written_epr_transcript(self, capsys, tmp_path):
        out = tmp_path / "full.cenz"
        assert cli_main(["run-session", "--protocol", "epr", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["certify", "--in", str(out)]) == 0
        assert "verdict certify = True" in capsys.readouterr().out

    def test_stage_then_resume(self, capsys, tmp_path):
        out = tmp_path / "stage.cenz"
        rc = cli_main(["prove", "--protocol", "epr", "--seed", "4", "--out", str(out)])
        assert rc == 0
        rc = cli_main(["certify", "--in", str(out)])
        assert rc == 0
        assert "verdict certify = True" in capsys.readouterr().out

    def test_run_experiment(self, capsys):
        rc = cli_main(["run-experiment", "--name", "deletion-honest-td", "--trials", "1", "--seed", "2"])
        assert rc == 0
        assert "td 0.0" in capsys.readouterr().out

    def test_run_attack(self, capsys):
        rc = cli_main(["run-attack", "--name", "split-strawman", "--trials", "2", "--seed", "1"])
        assert rc == 0
        assert "successes 2" in capsys.readouterr().out

    def test_run_attack_writes_out(self, capsys, tmp_path):
        out = tmp_path / "attack.txt"
        argv = ["run-attack", "--name", "split-strawman", "--trials", "2", "--seed", "1", "--out", str(out)]
        rc = cli_main(argv)
        assert rc == 0
        assert out.read_text(encoding="ascii") == capsys.readouterr().out

    def test_replay_rejects_tampered_message(self, capsys, tmp_path):
        out = tmp_path / "stage.cenz"
        assert cli_main(["prove", "--protocol", "epr", "--seed", "4", "--out", str(out)]) == 0
        t = deserialize_transcript(out.read_bytes())
        t.messages = [(r, s, b"garbage" if s == "proof" else p) for r, s, p in t.messages]
        out.write_bytes(serialize_transcript(t))
        capsys.readouterr()
        rc = cli_main(["certify", "--in", str(out)])
        assert rc == 1
        assert "replay mismatch: message 1 (prover/proof)" in capsys.readouterr().err

    def test_replay_rejects_messages_beyond_the_stage(self, capsys, tmp_path):
        out = tmp_path / "full.cenz"
        assert cli_main(["certify", "--protocol", "epr", "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["prove", "--in", str(out)]) == 1
        assert "replay mismatch: the file holds 3 messages" in capsys.readouterr().err

    def test_deeply_nested_transcript_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nested.cenz"
        path.write_bytes(MAGIC + VERSION.to_bytes(2, "big") + b"L\x00\x00\x00\x01" * 5000 + b"N")
        assert cli_main(["certify", "--in", str(path)]) == 2

    def test_usage_error_exit_two(self, capsys):
        rc = cli_main(["prove", "--protocol", "crs-toy", "--param", "bad"])
        assert rc == 2

    def test_delete_rejected_for_crs(self, capsys):
        rc = cli_main(["delete", "--protocol", "crs-toy"])
        assert rc == 2

    def test_run_experiment_partial_params_fill_from_the_defaults(self, capsys):
        # a partial --param list runs as the complete dict with the
        # experiment's own defaults (reps=20 here, not the session's 1)
        assert cli_main(["run-experiment", "--name", "epr-soundness-greedy", "--param", "reps=2", "--trials", "2"]) == 0
        complete = run_experiment("epr-soundness-greedy", 2, {**default_params("epr-soundness-greedy"), "reps": 2}, 0)
        assert capsys.readouterr().out.split("wall_clock_s")[0] == complete.text().split("wall_clock_s")[0]

    @pytest.mark.parametrize(
        "protocol,params",
        [("epr", {"n": 3}), ("crs-toy", {"lam": 2}), ("crs-dry", {"witness": "1011"}), ("epr", [3])],
    )
    def test_certify_partial_params_is_usage_error(self, capsys, tmp_path, protocol, params):
        path = tmp_path / "partial.cenz"
        path.write_bytes(serialize_transcript(Transcript(protocol, params, 0)))
        assert cli_main(["certify", "--in", str(path)]) == 2
        assert "params" in capsys.readouterr().err

    def test_dry_session_verdicts(self, capsys):
        rc = cli_main(["run-session", "--protocol", "crs-dry", "--seed", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict or_statement_true = True" in out
