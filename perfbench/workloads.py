"""Seeded inputs, operations and output checks for the four workloads.

One operation takes one pair-sum instance to a checked verdict.  Inputs are
built from the seed alone; the program only ever sees the generated
instances.  Every verdict is checked against :func:`left_wins`, the
benchmark's own abstract-game reference, never against the program's
``solver.oracle_left_wins``.

Pools are generated as fixed-size lists, cycled in a fixed stratum order so
that every run, whatever its seed, sees the same mix of sizes, value ranges
and win/loss shapes; the seed only picks the values inside each stratum.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass

WORKED_PAIRS = ((1, 2), (4, 3), (5, 6), (8, 8))
WORKED_TARGET = 18
WORKED_CHOICES = "xyyx"
WORKED_CONFIG_SHA256 = "8a53376ffe36f4c9914311f1170565aebd9812a0be47f502cda36e22a9ff7962"
WORKED_LINE_SHA256 = "d799cf617e888a01c0bb92a37e291b73f620c45da4f5866ba1d1d0de995f5eb8"
WORKED_WALL_HEALTH = [196, 184, 152, 90, 8, 0]

# Times each pool repeats its strata: more than one run gets through.
DEEP_CYCLES = 12
VERIFY_CYCLES = 6
REPLAY_CYCLES = 20


@dataclass(frozen=True)
class Instance:
    pairs: tuple[tuple[int, int], ...]
    target: int
    shape: str  # "worked", "space", "indifferent" or "random"
    choices: str = ""  # replay only: the choice string to replay

    def to_json_obj(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs], "target": self.target}


@dataclass
class Outcome:
    """What one operation returned, and what checking it found."""

    left_wins: bool
    problem: str | None = None
    probes: int = 0
    stdout_bytes: int = 0


def left_wins(pairs: tuple[tuple[int, int], ...], target: int) -> bool:
    """Reference result of the abstract pick game.

    Left picks on pairs 1, 3, 5, ... and Right on pairs 2, 4, ...; Left wins
    iff the picks sum to ``target``.  Alternating minimax memoised on
    (pair index, running sum).
    """
    memo: dict[tuple[int, int], bool] = {}

    def wins(i: int, acc: int) -> bool:
        if i == len(pairs):
            return acc == target
        key = (i, acc)
        if key not in memo:
            x, y = pairs[i]
            outcomes = (wins(i + 1, acc + x), wins(i + 1, acc + y))
            memo[key] = any(outcomes) if i % 2 == 0 else all(outcomes)
        return memo[key]

    return wins(0, 0)


def chosen_sum(pairs: tuple[tuple[int, int], ...], choices: str) -> int:
    return sum(x if c == "x" else y for (x, y), c in zip(pairs, choices))


def pool_digest(pool: list[Instance]) -> str:
    text = json.dumps(
        [[inst.to_json_obj(), inst.choices] for inst in pool], sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _worked() -> Instance:
    return Instance(WORKED_PAIRS, WORKED_TARGET, "worked", WORKED_CHOICES)


def _shaped(rng: random.Random, n: int, hi: int, shape: str) -> Instance:
    """``indifferent``: every even pair has x = y and the target is reached
    by some Left picks, so Left wins.  ``random``: target drawn between the
    smallest and largest reachable sums, so most instances are losses."""
    pairs = [(rng.randint(1, hi), rng.randint(1, hi)) for _ in range(n)]
    if shape == "indifferent":
        pairs = [(x, x) if i % 2 else (x, y) for i, (x, y) in enumerate(pairs)]
        target = chosen_sum(tuple(pairs), "".join(rng.choice("xy") for _ in pairs))
    else:
        target = rng.randint(sum(map(min, pairs)), sum(map(max, pairs)))
    return Instance(tuple(pairs), target, shape)


def sweep_pool(seed: int) -> list[Instance]:
    """The criterion-3 space (n <= 3, values <= 2, targets <= 6) in seeded
    order; a run draws a prefix of it."""
    pool = [
        Instance(tuple(zip(flat[::2], flat[1::2])), target, "space")
        for n in (1, 2, 3)
        for flat in itertools.product(range(3), repeat=2 * n)
        for target in range(7)
    ]
    random.Random(seed).shuffle(pool)
    return pool


def deep_pool(seed: int) -> list[Instance]:
    """n = 8-13, half the instances with values 1-9 and half with values
    1-64, half Right-indifferent (Left wins) and half with a random target.

    Values 1-64 rarely repeat a running sum, so the skeleton's memo rarely
    hits and their cost doubles with each pair: a random target with values
    1-64 takes about 1 s at n = 8 and 4 s at n = 12.  The other three
    (values, shape) pairs take the sizes at which they cost about the same,
    0.45-0.6 s per instance at this commit, so that the median latency
    falls inside one tight cluster rather than in a gap between strata.
    The cycle alternates value range and shape, so any prefix is balanced."""
    rng = random.Random(seed)
    strata = [(12, 9, "indifferent"), (8, 64, "random"), (10, 9, "random"),
              (9, 64, "indifferent"), (13, 9, "indifferent"), (8, 64, "random"),
              (10, 9, "random"), (9, 64, "indifferent")]
    return [_shaped(rng, n, hi, shape) for _ in range(DEEP_CYCLES) for n, hi, shape in strata]


def verify_pool(seed: int) -> list[Instance]:
    """Two of every three instances are the worked instance; the others
    have 2-4 pairs of values 1-9, each n once as a Left win and once with a
    random target.  A verify takes seconds, so a run holds only about a
    dozen instances; with the worked instance in the majority the median
    latency is the worked instance's rather than a seed-dependent point
    between the worked and the seeded costs."""
    rng = random.Random(seed)
    strata = [(2, "indifferent"), (3, "random"), (4, "indifferent"),
              (2, "random"), (3, "indifferent"), (4, "random")]
    pool = []
    for _ in range(VERIFY_CYCLES):
        for n, shape in strata:
            pool += [_worked(), _worked(), _shaped(rng, n, 9, shape)]
    return pool


def replay_pool(seed: int) -> list[Instance]:
    """The worked instance under ``xyyx``, then n = 4..12 with values 1-9.

    Each seeded target is the sum of one seeded choice string; half the
    instances replay that string (a win), half another seeded string."""
    rng = random.Random(seed)
    pool = []
    for _ in range(REPLAY_CYCLES):
        pool.append(_worked())
        for n in range(4, 13):
            pairs = tuple((rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
            winning = "".join(rng.choice("xy") for _ in range(n))
            choices = winning if rng.random() < 0.5 else "".join(
                rng.choice("xy") for _ in range(n))
            pool.append(Instance(pairs, chosen_sum(pairs, winning), "random", choices))
    return pool


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def run_cli(hp, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hp.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _manifest_problem(err: str, command: str) -> str | None:
    try:
        manifest = json.loads(err.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return f"{command}: no run manifest on stderr: {err[-200:]!r}"
    if manifest.get("command") != command:
        return f"{command}: manifest names {manifest.get('command')!r}"
    return None


def _verdict_problem(verdict: str, expected: bool) -> str | None:
    want = "win" if expected else "loss"
    return None if verdict == want else f"verdict {verdict!r}, reference {want!r}"


class Workload:
    """A named pool of instances and the operation run on each of them."""

    name = ""

    def pool(self, seed: int) -> list[Instance]:
        raise NotImplementedError

    def instance_files(self, pool: list[Instance], workdir: str) -> None:
        """Write the instance files the CLI reads; in-process workloads
        need none."""

    def run(self, hp, inst: Instance, index: int, workdir: str) -> tuple[float, Outcome]:
        """Take one instance to a verdict and check it.  Returns the time to
        verdict (the program's calls only) and the checked outcome."""
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def pool(self, seed):
        return sweep_pool(seed)

    def run(self, hp, inst, index, workdir):
        expected = left_wins(inst.pairs, inst.target)
        started = time.perf_counter()
        instance = hp.compiler.PartitionInstance(inst.pairs, inst.target)
        compiled = hp.compiler.compile_instance(instance, validate="none")
        skeleton = hp.solver.skeleton_solve(compiled.config, compiled.line)
        oracle = hp.solver.oracle_left_wins(instance)
        latency = time.perf_counter() - started
        problem = _verdict_problem(skeleton.verdict, expected)
        if problem is None and oracle != expected:
            problem = f"oracle_left_wins {oracle}, reference {expected}"
        return latency, Outcome(expected, problem)


class Deep(Workload):
    name = "deep"

    def pool(self, seed):
        return deep_pool(seed)

    def run(self, hp, inst, index, workdir):
        expected = left_wins(inst.pairs, inst.target)
        started = time.perf_counter()
        instance = hp.compiler.PartitionInstance(inst.pairs, inst.target)
        compiled = hp.compiler.compile_instance(instance, validate="none")
        skeleton = hp.solver.skeleton_solve(compiled.config, compiled.line)
        latency = time.perf_counter() - started
        return latency, Outcome(expected, _verdict_problem(skeleton.verdict, expected))


def _write_instances(pool: list[Instance], workdir: str) -> None:
    for i, inst in enumerate(pool):
        with open(os.path.join(workdir, f"instance-{i}.json"), "w", encoding="utf-8") as fh:
            json.dump(inst.to_json_obj(), fh)


class Verify(Workload):
    name = "verify"

    def pool(self, seed):
        return verify_pool(seed)

    def instance_files(self, pool, workdir):
        _write_instances(pool, workdir)

    def run(self, hp, inst, index, workdir):
        expected = left_wins(inst.pairs, inst.target)
        path = os.path.join(workdir, f"instance-{index}.json")
        started = time.perf_counter()
        code, out, err = run_cli(hp, ["verify", path])
        latency = time.perf_counter() - started
        outcome = Outcome(expected, stdout_bytes=len(out.encode()))
        try:
            report = json.loads(out)
            counts = report["deviations"]
            outcome.probes = sum(counts.values())
            verdict = _verdict_problem(report["skeleton"], expected)
            checks = [
                (code == 0, f"exit code {code}"),
                (report["oracle"] == expected,
                 f"oracle {report['oracle']}, reference {expected}"),
                (verdict is None, verdict),
                (report["match"] is True, "match is not true"),
                (counts["refuted"] == outcome.probes,
                 f"not every named deviation refuted: {counts}"),
                (counts["unresolved"] == 0, f"unresolved probes: {counts}"),
            ]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            outcome.problem = f"unreadable verify output ({exc}): {out[-200:]!r}"
            return latency, outcome
        outcome.problem = next((msg for ok, msg in checks if not ok), None)
        outcome.problem = outcome.problem or _manifest_problem(err, "verify")
        return latency, outcome


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _wall_health(lines: list[str]) -> list[int]:
    """Health of the enemy's slot-0 taunt wall after each hit on it."""
    health = [WORKED_WALL_HEALTH[0]]
    for text in lines:
        if '"damage"' not in text:
            continue
        event = json.loads(text)
        if event.get("kind") == "damage" and event.get("target") == {"side": 1, "slot": 0}:
            health.append(health[-1] - event["amount"])
    return health


class Replay(Workload):
    name = "replay"

    def pool(self, seed):
        return replay_pool(seed)

    def instance_files(self, pool, workdir):
        _write_instances(pool, workdir)

    def run(self, hp, inst, index, workdir):
        path = os.path.join(workdir, f"instance-{index}.json")
        out_dir = os.path.join(workdir, "out")
        config = os.path.join(out_dir, "config.json")
        line = os.path.join(out_dir, "line.json")
        started = time.perf_counter()
        code, _, err = run_cli(hp, ["compile", path, "--out-dir", out_dir])
        replay_code, out, _ = run_cli(
            hp, ["replay", config, line, "--choices", inst.choices, "--trace"])
        latency = time.perf_counter() - started

        wins = chosen_sum(inst.pairs, inst.choices) == inst.target
        outcome = Outcome(left_wins(inst.pairs, inst.target),
                          stdout_bytes=len(out.encode()))
        lines = out.splitlines()
        want = "friendly_wins" if wins else "enemy_wins"
        try:
            final = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            final = {}
        manifest = _manifest_problem(err, "compile")
        checks = [
            (code == 0, f"compile exit code {code}"),
            (manifest is None, manifest),
            (replay_code == 0, f"replay exit code {replay_code}"),
            (final.get("kind") == "final", f"no final record: {lines[-1:]!r}"),
            (final.get("outcome") == want, f"outcome {final.get('outcome')!r}, want {want!r}"),
            ('"kind": "snapshot"' in out, "replay --trace printed no snapshots"),
        ]
        if inst.shape == "worked":
            health = _wall_health(lines)
            checks += [
                (_sha256(config) == WORKED_CONFIG_SHA256, "worked config.json sha256 differs"),
                (_sha256(line) == WORKED_LINE_SHA256, "worked line.json sha256 differs"),
                (health == WORKED_WALL_HEALTH, f"worked wall health {health}"),
            ]
        outcome.problem = next((msg for ok, msg in checks if not ok), None)
        return latency, outcome


WORKLOADS = {w.name: w for w in (Sweep(), Deep(), Verify(), Replay())}
