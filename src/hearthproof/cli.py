"""Command-line entry point.

Subcommands wire the library layers together behind stable file formats:

* ``compile``  — pair-sum instance JSON -> config.json + line.json + manifest
* ``verify``   — compile, solve the choice skeleton, compare with the
  abstract-game oracle, and spot-check scripted-step deviations
* ``replay``   — stream the event log of a scripted line under a choice string
* ``solve``    — exact minimax value of a standalone game configuration
* ``cards dump`` — emit the embedded card table

Every run writes a single-line JSON run manifest to stderr (command, input
files, the command's other options as given, tool version, config hash,
duration), built from the parsed arguments by ``_manifest`` alone;
``compile`` also writes it to ``manifest.json``, and ``verify`` adds the
deviation probe's ``counters`` (nodes searched, scripted steps checked).
Primary stdout/file outputs are byte-deterministic.

Exit codes: 0 success / match, 1 verification or replay failure, 2 input
error, 3 infeasible schedule.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time

from . import __version__
from .cards import database_to_json
from .compiler import (
    InstanceError,
    PartitionInstance,
    ScheduleInfeasible,
    ScriptedLine,
    compile_instance,
    run_line,
)
from .engine import start_game
from .solver import (
    deviation_check,
    minimax,
    oracle_left_wins,
    skeleton_solve,
)
from .state import (
    ConfigError,
    EventLog,
    GameConfig,
    IllegalAction,
    SnapshotMemo,
    action_to_json_obj,
    event_json,
    snapshot_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3


class InputProblem(Exception):
    """A problem with user-supplied files or arguments (exit code 2)."""


def _use_color(stream) -> bool:
    return stream.isatty() and not os.environ.get("NO_COLOR")


def _err(message: str) -> None:
    prefix = "error:"
    if _use_color(sys.stderr):
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputProblem(f"cannot read {path}: {exc.strerror}") from exc


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputProblem(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputProblem(f"{path}: expected a JSON object")
    return obj


def _load_instance(path: str) -> PartitionInstance:
    try:
        return PartitionInstance.from_json_obj(_read_json(path))
    except InstanceError as exc:
        raise InputProblem(f"{path}: {exc}") from exc


def _load_config(path: str) -> GameConfig:
    """The config in ``path``, checked as ``GameConfig`` builds it; a
    malformed one is an input error.  The dict is fresh from ``json.loads``
    and nothing else holds it, so it is wrapped as it is, without the copy
    ``GameConfig.from_json_obj`` makes."""
    obj = _read_json(path)
    try:
        return GameConfig(obj)
    except ConfigError as exc:
        raise InputProblem(f"{path}: {exc}") from exc


def _load_line(path: str) -> ScriptedLine:
    try:
        return ScriptedLine.from_json_obj(_read_json(path))
    except (InstanceError, KeyError, TypeError, ValueError) as exc:
        raise InputProblem(f"{path}: malformed line file: {exc}") from exc


def positive_int(text: str) -> int:
    """argparse type of the search budgets, ``--deviation-turns`` and
    ``--turn-limit``: a value below 1 would search or probe nothing, or
    describe a game that ends before it starts, so it is an input error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# The parser's destinations that name the command and, in manifest order,
# the input files; every other one but ``func`` is a flag.
_COMMAND = ("command", "cards_command")
_INPUTS = ("instance", "config", "line", "config_override")


def _manifest(args: argparse.Namespace, config_bytes: bytes, started: float) -> dict:
    """The run manifest of ``args``: the command, the input files given, and
    every other option as given, under its camelCase name."""
    options = vars(args)
    return {
        "formatVersion": 1,
        "command": " ".join(options[k] for k in _COMMAND if k in options),
        "inputs": [options[k] for k in _INPUTS if options.get(k)],
        "flags": {re.sub("_(.)", lambda m: m[1].upper(), k): v
                  for k, v in options.items()
                  if k not in (*_COMMAND, *_INPUTS, "func")},
        "toolVersion": __version__,
        "configHash": hashlib.sha256(config_bytes).hexdigest(),
        "durationSeconds": round(time.monotonic() - started, 6),
    }


def _emit_manifest(manifest: dict) -> None:
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def cmd_compile(args: argparse.Namespace, started: float) -> int:
    instance = _load_instance(args.instance)
    result = compile_instance(
        instance, turn_limit=args.turn_limit, validate=args.validate
    )
    config_text = result.config.to_json()
    line_text = result.line.to_json()

    os.makedirs(args.out_dir, exist_ok=True)
    config_path = os.path.join(args.out_dir, "config.json")
    line_path = os.path.join(args.out_dir, "line.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    with open(line_path, "w", encoding="utf-8") as fh:
        fh.write(line_text)

    manifest = _manifest(args, config_text.encode("utf-8"), started)
    with open(os.path.join(args.out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _emit_manifest(manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, started: float) -> int:
    instance = _load_instance(args.instance)
    result = compile_instance(
        instance, turn_limit=args.turn_limit, validate="none"
    )
    config = result.config
    if args.config_override:
        config = _load_config(args.config_override)

    oracle = oracle_left_wins(instance)

    verdict = "unknown"
    vector = None  # deviation_check solves the skeleton itself in full mode
    counts = {"refuted": 0, "dominated": 0, "improved": 0, "unresolved": 0}
    counters = {"deviationNodes": 0, "checkedSteps": 0}
    try:
        if args.mode == "full":
            solved = minimax(
                start_game(config),
                max_depth=args.max_depth,
                max_nodes=args.max_nodes,
            )
            verdict = solved.verdict
        else:
            solved = skeleton_solve(config, result.line)
            verdict, vector = solved.verdict, solved.deviation_vector
        if verdict != "unknown":
            report = deviation_check(
                config, result.line, vector, max_turns=args.deviation_turns
            )
            counts = {status: getattr(report, status) for status in counts}
            counters = {"deviationNodes": report.nodes,
                        "checkedSteps": report.checked_steps}
    except IllegalAction as exc:
        # The line cannot even be replayed against this configuration
        # (possible only with --config-override); counts as a mismatch.
        _err(f"scripted step {exc.step} is illegal here: {exc.reason}")
        verdict = "unknown"

    match = verdict != "unknown" and (verdict == "win") == oracle

    out = {
        "formatVersion": 1,
        "instance": instance.to_json_obj(),
        "oracle": oracle,
        "skeleton": verdict,
        "match": match,
        "deviations": counts,
    }
    print(json.dumps(out))
    manifest = _manifest(args, config.to_json().encode("utf-8"), started)
    manifest["counters"] = counters
    _emit_manifest(manifest)

    ok = match and (counts["unresolved"] == 0 or args.allow_unresolved)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def cmd_replay(args: argparse.Namespace, started: float) -> int:
    """Stream the line's events under ``--choices``, one JSON line each.

    The events a step logs, and its ``--trace`` snapshot, go to stdout in
    one write after the step.  When a step is illegal, the events logged
    before it are written, then the error goes to stderr.
    """
    config = _load_config(args.config)
    line = _load_line(args.line)
    vector = tuple(args.choices)
    try:
        line.check_vector(vector)
    except ValueError as exc:
        raise InputProblem(f"--choices {args.choices!r}: {exc}") from exc

    log = EventLog()
    cursor = 0
    memo = SnapshotMemo()

    def flush(*tail: str) -> None:
        """Write the events logged since the last call, then ``tail``."""
        nonlocal cursor
        lines = [event_json(event, memo) for event in log.events[cursor:]]
        cursor = len(log.events)
        lines += tail
        if lines:
            sys.stdout.write("\n".join(lines) + "\n")

    def on_step(index: int, step, skipped, state) -> None:
        if args.trace:
            flush(snapshot_json(state, index, memo))
        else:
            flush()

    print(json.dumps(
        {"formatVersion": 1, "kind": "replay", "choices": args.choices}
    ))
    code = EXIT_OK
    try:
        final = run_line(config, line, vector, log, on_step)
    except IllegalAction as exc:
        flush()
        _err(f"scripted step {exc.step} is illegal here: {exc.reason}")
        code = EXIT_FAIL
    else:
        flush(json.dumps({"kind": "final", "outcome": final.outcome.value,
                          "turn": final.turn}))
    _emit_manifest(_manifest(args, config.to_json().encode("utf-8"), started))
    return code


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace, started: float) -> int:
    config = _load_config(args.config)
    result = minimax(
        start_game(config), max_depth=args.max_depth, max_nodes=args.max_nodes
    )
    out = {
        "formatVersion": 1,
        "verdict": result.verdict,
        "nodes": result.nodes,
        "ttHits": result.tt_hits,
        "exhausted": result.exhausted,
        "pv": [action_to_json_obj(a) for a in result.pv],
    }
    print(json.dumps(out))
    _emit_manifest(_manifest(args, config.to_json().encode("utf-8"), started))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cards
# ---------------------------------------------------------------------------


def cmd_cards_dump(args: argparse.Namespace, started: float) -> int:
    text = database_to_json()
    sys.stdout.write(text)
    _emit_manifest(_manifest(args, text.encode("utf-8"), started))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    as it was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="hearthproof",
        description="Compile pair-sum games into scripted card-game "
                    "configurations, replay them, and check forced wins.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an instance to config + line")
    p.add_argument("instance", help="instance JSON file (pairs + target)")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--turn-limit", type=positive_int, default=60)
    p.add_argument(
        "--validate", choices=["canonical", "all", "none"], default="canonical",
        help="post-compile replay checking (default: canonical vector only)",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "verify",
        help="check realised-game verdict against the abstract-game oracle",
    )
    p.add_argument("instance", help="instance JSON file (pairs + target)")
    p.add_argument(
        "--config-override", metavar="FILE",
        help="use this configuration instead of the compiled one",
    )
    p.add_argument(
        "--mode", choices=["skeleton", "full"], default="skeleton",
        help="skeleton: branch decisions only (default); full: exact "
             "minimax over all legal actions (micro configurations only)",
    )
    p.add_argument("--max-nodes", type=positive_int, default=500_000)
    p.add_argument("--max-depth", type=positive_int, default=120)
    p.add_argument("--turn-limit", type=positive_int, default=60)
    p.add_argument(
        "--deviation-turns", type=positive_int, default=None, metavar="N",
        help="probe every legal alternative in the line's first N turns "
             "instead of the default named spot checks",
    )
    p.add_argument(
        "--allow-unresolved", action="store_true",
        help="exit 0 even when some deviation probes were inconclusive",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="replay a line and stream its events")
    p.add_argument("config", help="config JSON file")
    p.add_argument("line", help="line JSON file")
    p.add_argument(
        "--choices", required=True,
        help="one 'x' or 'y' per pair, e.g. xyyx",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="emit a board snapshot after every scripted step",
    )
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("solve", help="exact minimax value of a configuration")
    p.add_argument("config", help="config JSON file")
    p.add_argument("--max-nodes", type=positive_int, default=500_000)
    p.add_argument("--max-depth", type=positive_int, default=120)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("cards", help="card table utilities")
    cards_sub = p.add_subparsers(dest="cards_command", required=True)
    d = cards_sub.add_parser("dump", help="emit the embedded card table")
    d.set_defaults(func=cmd_cards_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        return args.func(args, started)
    except (InputProblem, InstanceError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except ScheduleInfeasible as exc:
        _err(f"schedule infeasible: {exc}")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
