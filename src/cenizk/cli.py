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


def _params(name: str, pairs: list[str] | None) -> dict:
    """name's default params with each --param key=value laid over them. A
    value is an int where the default is one and the value is digits, so
    "witness=0011" stays a string and "k=x" is refused as no int."""
    defaults = harness.default_params(name)
    params = dict(defaults)
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        is_int = isinstance(defaults.get(key), int) and value.lstrip("-").isdigit()
        params[key] = int(value) if is_int else value
    return params


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
        params = _params(protocol, args.param)
        seed = args.seed
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
    return 0 if all(transcript.verdicts.values()) else 1


def _cmd_run_experiment(args) -> int:
    report = harness.run_experiment(args.name, args.trials, _params(args.name, args.param), args.seed)
    text = report.text()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cenizk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_protocol=True):
        if with_protocol:
            p.add_argument("--protocol", default="epr", choices=["epr", "crs-toy", "crs-dry"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--param", action="append", metavar="KEY=VALUE")
        p.add_argument("--out", default=None, help="output path")

    for stage in harness.EPR_STAGES:
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
    p.add_argument("--name", required=True, choices=harness.attack_names())
    p.add_argument("--trials", type=int, default=100)
    add_common(p, with_protocol=False)

    args = parser.parse_args(argv)
    try:
        if args.command in ("run-experiment", "run-attack"):
            return _cmd_run_experiment(args)
        return _cmd_stage(args, None if args.command == "run-session" else args.command)
    except (ValueError, OSError, harness.TranscriptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
