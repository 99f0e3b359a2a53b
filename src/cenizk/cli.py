"""Command-line surface.

Verbs: setup, prove, verify, delete, certify (staged session replay),
run-session, run-experiment, run-attack (run-experiment restricted to
the attack experiments). A staged verb re-runs the session
deterministically from (params, seed) up to its stage, so a transcript
file written by an earlier stage can be continued by a later verb; the
messages in that file must match the replayed ones byte for byte.
Exit codes: 0 = all verdicts as expected, 1 = protocol rejection or
replay mismatch, 2 = usage error. The benchmark lives in perfbench/.
"""

from __future__ import annotations

import argparse
import sys

from . import harness

_STAGE_VERBS = ("setup", "prove", "verify", "delete", "certify")


def _parse_params(pairs: list[str] | None) -> dict | None:
    if not pairs:
        return None
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = value if not value.lstrip("-").isdigit() else int(value)
    return out


def _merged_params(protocol: str, overrides: dict | None) -> dict:
    base = harness.default_epr_params() if protocol == "epr" else harness.default_crs_params()
    if overrides:
        base.update(overrides)
    return base


def _verdict_exit(transcript: harness.Transcript) -> int:
    values = [bool(v) for v in transcript.verdicts.values()]
    return 0 if all(values) else 1


def _replay_mismatch(given: list, replayed: list) -> str | None:
    """Why the messages of a transcript file differ from the replayed
    ones, or None when each is byte-identical."""
    if len(given) > len(replayed):
        return f"the file holds {len(given)} messages, the replay through this stage {len(replayed)}"
    for i, (old, new) in enumerate(zip(given, replayed)):
        if tuple(old) != tuple(new):
            return f"message {i} ({new[0]}/{new[1]}) differs from the replayed bytes"
    return None


def _cmd_stage(args, stage: str | None) -> int:
    """Run the session through stage (None: the whole session)."""
    prev = None
    if args.infile:
        with open(args.infile, "rb") as fh:
            prev = harness.deserialize_transcript(fh.read())
        protocol, params, seed = prev.protocol, prev.params, prev.seed
    else:
        protocol = args.protocol
        params = _merged_params(protocol, _parse_params(args.param))
        seed = args.seed
    if protocol != "epr" and stage == "delete":
        raise ValueError("delete is an EPR-protocol stage")
    transcript = harness.run_session(protocol, params, seed, stop_after=stage)
    if prev is not None:
        reason = _replay_mismatch(prev.messages, transcript.messages)
        if reason is not None:
            print(f"replay mismatch: {reason}", file=sys.stderr)
            return 1
    data = harness.serialize_transcript(transcript)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    print(harness.transcript_text(transcript))
    return _verdict_exit(transcript)


def _cmd_run_experiment(args) -> int:
    report = harness.run_experiment(args.name, args.trials, _parse_params(args.param), args.seed)
    text = report.text()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


_ATTACKS = ("split-strawman", "split-crs", "clone", "derived-complete", "derived-sound")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cenizk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_protocol=True):
        if with_protocol:
            p.add_argument("--protocol", default="epr", choices=["epr", "crs-toy", "crs-dry"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--param", action="append", metavar="KEY=VALUE")
        p.add_argument("--out", default=None, help="output path")

    for stage in _STAGE_VERBS:
        p = sub.add_parser(stage, help=f"run the session through {stage}")
        add_common(p)
        p.add_argument("--in", dest="infile", default=None, help="resume from transcript")

    p = sub.add_parser("run-session", help="full honest session")
    add_common(p)
    p.set_defaults(infile=None)

    p = sub.add_parser("run-experiment", help="named experiment")
    p.add_argument("--name", required=True, choices=harness.experiment_names())
    p.add_argument("--trials", type=int, default=100)
    add_common(p, with_protocol=False)

    p = sub.add_parser("run-attack", help="named attack experiment")
    p.add_argument("--name", required=True, choices=_ATTACKS)
    p.add_argument("--trials", type=int, default=100)
    add_common(p, with_protocol=False)

    args = parser.parse_args(argv)
    try:
        if args.command in _STAGE_VERBS:
            return _cmd_stage(args, args.command)
        if args.command == "run-session":
            return _cmd_stage(args, None)
        if args.command in ("run-experiment", "run-attack"):
            return _cmd_run_experiment(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, harness.TranscriptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
