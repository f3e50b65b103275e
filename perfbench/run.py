"""Closed-loop benchmark of hearthproof: one caller, one thread, in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The caller sends the next instance only after the previous verdict has
returned and been checked.  With ``--trace 0`` the run is untraced and the
last stdout line carries the end-to-end metrics; with ``--trace 1`` the
program's layers are traced for half the run, the same instances are then
run untraced to measure the tracing overhead, and the last line carries the
per-layer metrics.  The line before it is a report: input digest, failures,
sample counts, input properties and, when traced, where the time went.
Times are scaled by the machine's speed, sampled through the run (see
``machine.py``); the report keeps the raw wall-clock figures too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from types import SimpleNamespace

import machine
from tracing import Tracer
from workloads import WORKLOADS, Instance, pool_digest, run_cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
MODULES = ("cards", "state", "engine", "compiler", "solver", "cli")
SETUP_REPEATS = 9
SLICE_S = 0.5  # loop wall time between two samples of the machine's speed
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90

END_TO_END_UNITS = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
# Counts and times are per instance of the traced part of the run.
PER_LAYER = {
    "state.state_hash.calls": ("count", "throughput, latency on verify, some on deep; not sweep"),
    "state.state_hash.self_s": ("s", "throughput, latency on verify, some on deep; not sweep"),
    "state.state_hash.us_per_call": ("us", "throughput, latency on verify, some on deep; not sweep"),
    "state.clone.calls": ("count", "throughput on deep and sweep"),
    "state.clone.self_s": ("s", "throughput on deep and sweep"),
    "engine.apply.calls": ("count", "throughput on deep and sweep"),
    "engine.apply.self_s": ("s", "throughput on deep and sweep"),
    "engine.apply.illegal_share": ("share", "throughput on deep and sweep"),
    "engine.legal_actions.calls": ("count", "verify only"),
    "engine.legal_actions.self_s": ("s", "verify only"),
    "compiler.compile_instance.self_s": ("s", "sweep and replay; not deep or verify"),
    "compiler.build_turn_plans.self_s": ("s", "sweep and replay; not deep or verify"),
    "compiler.weave_plans.self_s": ("s", "sweep and replay; not deep or verify"),
    "compiler.simulate_supply.self_s": ("s", "sweep and replay; not deep or verify"),
    "compiler.build_config.self_s": ("s", "sweep and replay; not deep or verify"),
    "compiler.emit.self_s": ("s", "sweep and replay; not deep or verify"),
    "compiler.run_line.self_s": ("s", "replay (validation and replay); not deep or verify"),
    "compiler.plan_entries": ("count", "sweep and replay; not deep or verify"),
    "compiler.deck_cards": ("count", "sweep and replay; hashing cost on verify and deep"),
    "compiler.line_steps": ("count", "sweep and replay; not deep or verify"),
    "compiler.wall_share": ("share", "sweep and replay; not deep or verify"),
    "solver.skeleton.nodes": ("count", "throughput on deep and sweep"),
    "solver.skeleton.memo_hits": ("count", "throughput on deep and sweep"),
    "solver.skeleton.hit_ratio": ("share", "throughput on deep and sweep"),
    "solver.skeleton.nodes_per_s": ("1/s", "throughput on deep and sweep"),
    "solver.deviation.checks": ("count", "verify"),
    "solver.deviation.nodes": ("count", "verify"),
    "solver.deviation.nodes_per_s": ("1/s", "verify"),
    "solver.deviation.unresolved": ("count", "verify (must stay 0)"),
    "solver.oracle_left_wins.self_s": ("s", "nothing"),
    "cli.main.self_s": ("s", "replay"),
    "cli.on_step.self_s": ("s", "replay"),
    "cli.stdout_bytes": ("bytes", "replay"),
    "trace.throughput_ratio": ("ratio", "nothing: traced over untraced throughput"),
}

# What the traced run should show on each workload, checked and reported as
# measured: the spans that should lead in self time, or None for the
# compiler's share of wall time.
PREDICTIONS = {
    "verify": ("state.state_hash has the largest self time", ("state.state_hash",)),
    "deep": ("engine.apply plus state.clone have the largest self time",
             ("engine.apply", "state.clone")),
    "sweep": ("compiler spans cover at least a third of wall time", None),
}


def import_program() -> SimpleNamespace:
    """Import hearthproof afresh from this checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "hearthproof", "__init__.py")):
        raise SystemExit(f"error: no hearthproof sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "hearthproof" or m.startswith("hearthproof.")]:
        del sys.modules[name]
    hp = SimpleNamespace(**{m: importlib.import_module("hearthproof." + m) for m in MODULES})
    if not os.path.abspath(hp.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported hearthproof from {hp.cli.__file__}, not {SRC}")
    return hp


def warm_up(hp, workdir: str) -> None:
    """One tiny instance through the library and the CLI."""
    instance = hp.compiler.PartitionInstance(((1, 2),), 1)
    compiled = hp.compiler.compile_instance(instance)
    hp.solver.skeleton_solve(compiled.config, compiled.line)
    path = os.path.join(workdir, "warm.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance.to_json_obj(), fh)
    code, _, _ = run_cli(hp, ["compile", path, "--out-dir", os.path.join(workdir, "warm")])
    if code != 0:
        raise SystemExit(f"error: warm-up compile exited {code}")


def set_up(workload, seed: int, workdir: str):
    """Import, generate the inputs, write the instance files and warm up,
    ``SETUP_REPEATS`` times; returns the last set-up and the median time,
    each scaled by the machine's speed around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = machine.speed()
        started = time.perf_counter()
        hp = import_program()
        pool = workload.pool(seed)
        workload.instance_files(pool, workdir)
        warm_up(hp, workdir)
        times.append((time.perf_counter() - started) * (before + machine.speed()) / 2)
    return hp, pool, statistics.median(times)


def closed_loop(workload, hp, pool: list[Instance], workdir: str, *,
                seconds: float | None = None, count: int | None = None,
                tracer: Tracer | None = None) -> SimpleNamespace:
    """Run instances one after another, for ``seconds`` or ``count`` of
    them; an instance that raises is a failure, and the loop goes on.

    The machine's speed is sampled before the first instance and after each
    ``SLICE_S`` of the loop's wall time.  Each slice's wall time, and the
    latency of each instance in it, is scaled by the mean of the samples on
    either side; ``elapsed`` leaves the samples' own time out."""
    wall_latencies, slice_of, outcomes, errors = [], [], [], []
    speeds, walls = [machine.speed()], []
    started = slice_started = time.perf_counter()
    deadline = started + (seconds or 0.0)
    i = in_slice = 0
    while (count is not None and i < count) or (count is None and time.perf_counter() < deadline):
        index = i % len(pool)
        op = lambda: workload.run(hp, pool[index], index, workdir)
        try:
            latency, outcome = tracer.instance(i, op) if tracer else op()
        except Exception as exc:  # one failed instance must not stop the run
            errors.append(f"instance {index}: {type(exc).__name__}: {exc}")
        else:
            wall_latencies.append(latency)
            slice_of.append(len(walls))
            outcomes.append((pool[index], outcome))
            if outcome.problem:
                errors.append(f"instance {index}: {outcome.problem}")
        i += 1
        in_slice += 1
        if time.perf_counter() - slice_started >= SLICE_S:
            walls.append(time.perf_counter() - slice_started)
            speeds.append(machine.speed())
            slice_started, in_slice = time.perf_counter(), 0
    if in_slice:
        walls.append(time.perf_counter() - slice_started)
        speeds.append(machine.speed())
    factors = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])]
    return SimpleNamespace(
        attempted=i, failed=len(errors), errors=errors, outcomes=outcomes,
        latencies=[lat * factors[k] for lat, k in zip(wall_latencies, slice_of)],
        elapsed=sum(w * f for w, f in zip(walls, factors)),
        wall_latencies=wall_latencies, wall_elapsed=sum(walls), speeds=speeds)


def _value_range(top: int) -> str:
    return "0-2" if top <= 2 else "3-9" if top <= 9 else "10-64"


def properties(outcomes) -> dict:
    """Measured shares of the input properties the program's speed depends on."""
    n = max(len(outcomes), 1)
    sizes = Counter(len(inst.pairs) for inst, _ in outcomes)
    ranges = Counter(_value_range(max(map(max, inst.pairs))) for inst, _ in outcomes)
    return {
        "instances": len(outcomes),
        "left_win_share": sum(o.left_wins for _, o in outcomes) / n,
        "n_share": {k: v / n for k, v in sorted(sizes.items())},
        "max_value_share": {k: v / n for k, v in sorted(ranges.items())},
        "named_probes_per_instance": sum(o.probes for _, o in outcomes) / n,
    }


def end_to_end(loop, setup_s: float) -> dict:
    return {
        "throughput": loop.attempted / loop.elapsed,
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3 if loop.latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(stats, counts, traced, plain) -> dict:
    inst = max(len(traced.latencies), 1)

    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    compiles = get("compiler.compile_instance", "calls")
    values = {
        "state.state_hash.calls": get("state.state_hash", "calls") / inst,
        "state.state_hash.self_s": get("state.state_hash", "self_s") / inst,
        "state.state_hash.us_per_call": 1e6 * ratio(get("state.state_hash", "self_s"),
                                                    get("state.state_hash", "calls")),
        "state.clone.calls": get("state.clone", "calls") / inst,
        "state.clone.self_s": get("state.clone", "self_s") / inst,
        "engine.apply.calls": get("engine.apply", "calls") / inst,
        "engine.apply.self_s": get("engine.apply", "self_s") / inst,
        "engine.apply.illegal_share": ratio(get("engine.apply", "errors.IllegalAction"),
                                            get("engine.apply", "calls")),
        "engine.legal_actions.calls": get("engine.legal_actions", "calls") / inst,
        "engine.legal_actions.self_s": get("engine.legal_actions", "self_s") / inst,
    }
    for phase in ("compile_instance", "build_turn_plans", "weave_plans", "simulate_supply",
                  "build_config", "emit", "run_line"):
        values[f"compiler.{phase}.self_s"] = get(f"compiler.{phase}", "self_s") / inst
    values.update({
        "compiler.plan_entries": ratio(counts["compiler.plan_entries"], compiles),
        "compiler.deck_cards": ratio(counts["compiler.deck_cards"], compiles),
        "compiler.line_steps": ratio(counts["compiler.line_steps"], compiles),
        "compiler.wall_share": get("compiler.cover", "total_s") / traced.wall_elapsed,
        "solver.skeleton.nodes": counts["solver.skeleton.nodes"] / inst,
        "solver.skeleton.memo_hits": counts["solver.skeleton.memo_hits"] / inst,
        "solver.skeleton.hit_ratio": ratio(counts["solver.skeleton.memo_hits"],
                                           get("solver.skeleton_solve", "memo_lookups")),
        "solver.skeleton.nodes_per_s": ratio(counts["solver.skeleton.nodes"],
                                             get("solver.skeleton_solve", "total_s")),
        "solver.deviation.checks": get("solver.deviation.check_step", "calls") / inst,
        "solver.deviation.nodes": counts["solver.deviation.nodes"] / inst,
        "solver.deviation.nodes_per_s": ratio(counts["solver.deviation.nodes"],
                                              get("solver.deviation.check_step", "total_s")),
        "solver.deviation.unresolved": counts["solver.deviation.unresolved"] / inst,
        "solver.oracle_left_wins.self_s": get("solver.oracle_left_wins", "self_s") / inst,
        "cli.main.self_s": get("cli.main", "self_s") / inst,
        "cli.on_step.self_s": get("cli.on_step", "self_s") / inst,
        "cli.stdout_bytes": sum(o.stdout_bytes for _, o in traced.outcomes) / inst,
        "trace.throughput_ratio": ratio(plain.elapsed, traced.elapsed),
    })
    return values


def prediction(workload: str, stats, values) -> dict:
    if workload not in PREDICTIONS:
        return {}
    text, leaders = PREDICTIONS[workload]
    if leaders is None:
        holds = values["compiler.wall_share"] >= 1 / 3
    else:
        selfs = {name: s["self_s"] for name, s in stats.items() if "self_s" in s}
        rest = max((v for k, v in selfs.items() if k not in leaders), default=0.0)
        holds = sum(selfs.get(k, 0.0) for k in leaders) >= rest
    return {"prediction": text, "holds": holds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        hp, pool, setup_s = set_up(workload, args.seed, workdir)
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "machine": f"{platform.machine()} {os.cpu_count()} cpus",
            "loop": "closed, 1 caller, 1 thread",
            "pool_size": len(pool), "pool_digest": pool_digest(pool),
        }
        if args.trace:
            tracer = Tracer()
            tracer.install(hp)
            try:
                traced = closed_loop(workload, hp, pool, workdir,
                                     seconds=args.seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            plain = closed_loop(workload, hp, pool, workdir, count=traced.attempted)
            stats = tracer.summary()
            metrics = per_layer(stats, tracer.counts, traced, plain)
            spans_path = os.path.join(OUT, f"spans-{args.workload}.tsv.gz")
            tracer.write(spans_path)
            loops = (traced, plain)
            report.update({
                "spans": len(tracer.starts),
                "spans_file": os.path.relpath(spans_path, ROOT),
                "untraced_names": tracer.missing,
                "self_s_top": sorted(
                    ((k, round(v["self_s"], 6)) for k, v in stats.items() if "self_s" in v),
                    key=lambda kv: -kv[1])[:8],
                "moves": {k: v[1] for k, v in PER_LAYER.items()},
                **prediction(args.workload, stats, metrics),
            })
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            loop = closed_loop(workload, hp, pool, workdir, seconds=args.seconds)
            metrics = end_to_end(loop, setup_s)
            loops = (loop,)
            units = END_TO_END_UNITS
        measured = loops[0]
        attempted = sum(lp.attempted for lp in loops)
        failed = sum(lp.failed for lp in loops)
        samples = len(measured.latencies)
        quantiles = statistics.quantiles(measured.latencies, n=10) if samples >= 2 else []
        report.update({
            "attempted": attempted, "failed": failed, "failed_share": failed / max(attempted, 1),
            "errors": [e for lp in loops for e in lp.errors][:5],
            "samples": samples,
            "latency_p90_ms": (quantiles[8] * 1e3 if samples >= P90_MIN_SAMPLES
                               else f"not reported: {samples} < {P90_MIN_SAMPLES} samples"),
            "setup_s": setup_s, "setup_repeats": SETUP_REPEATS,
            "nominal_rate": machine.NOMINAL_RATE,
            "machine_speed": statistics.quantiles(measured.speeds, n=4),
            "wall_throughput": measured.attempted / measured.wall_elapsed,
            "wall_latency_p50_ms": (statistics.median(measured.wall_latencies) * 1e3
                                    if measured.wall_latencies else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "properties": properties(measured.outcomes),
        })
        if args.trace:
            report["properties"].update({
                "skeleton_hit_ratio": metrics["solver.skeleton.hit_ratio"],
                "illegal_share": metrics["engine.apply.illegal_share"],
            })
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
