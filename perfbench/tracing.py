"""In-memory span tracing of the program's layers, from outside the program.

:class:`Tracer` rebinds public names of the program's modules to timing
wrappers for the length of a traced run and restores them afterwards.  A
module-level function is rebound everywhere it has been imported by name
(``solver`` and ``compiler`` hold their own copies of ``apply``,
``legal_actions`` and ``state_hash``; ``cli`` holds ``compile_instance``,
``run_line`` and the solver entry points); a method is rebound on its class.
Names the program no longer has are skipped and listed in ``missing``.

Each call records a span (name, start, end, parent span, instance id) in
flat arrays, so a run of a million spans costs tens of megabytes rather
than hundreds.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass


def _plan_entries(entries) -> int:
    """Entries of a woven plan, counting both halves of each branch window."""
    total = 0
    for entry in entries:
        total += 1
        for half in ("x_entries", "y_entries"):
            total += _plan_entries(getattr(entry, half, ()))
    return total


def _line_steps(line) -> int:
    total = 0
    for turn in line.turns:
        for item in turn.items:
            total += len(item.x_steps) + len(item.y_steps) if hasattr(item, "x_steps") else 1
    return total


def _observe_weave(counts: Counter, result) -> None:
    counts["compiler.plan_entries"] += sum(_plan_entries(e) for _, _, e in result)


def _observe_config(counts: Counter, result) -> None:
    counts["compiler.deck_cards"] += sum(len(p["deck"]) for p in result.obj["players"])


def _observe_compile(counts: Counter, result) -> None:
    counts["compiler.line_steps"] += _line_steps(result.line)


def _observe_skeleton(counts: Counter, result) -> None:
    counts["solver.skeleton.nodes"] += result.nodes
    counts["solver.skeleton.memo_hits"] += result.memo_hits


def _observe_check(counts: Counter, result) -> None:
    counts["solver.deviation.nodes"] += result.nodes
    counts["solver.deviation.unresolved"] += result.status == "unresolved"


@dataclass(frozen=True)
class Target:
    module: str  # hearthproof submodule holding the name
    path: str  # "function" or "Class.method"
    span: str
    observe: object = None  # adds counts from the call's result
    callback: tuple[int, str, str] | None = None  # (position, keyword, span) of a callback argument


TARGETS = (
    Target("state", "state_hash", "state.state_hash"),
    Target("state", "GameState.clone", "state.clone"),
    Target("engine", "apply", "engine.apply"),
    Target("engine", "legal_actions", "engine.legal_actions"),
    Target("compiler", "compile_instance", "compiler.compile_instance", _observe_compile),
    Target("compiler", "build_turn_plans", "compiler.build_turn_plans"),
    Target("compiler", "weave_plans", "compiler.weave_plans", _observe_weave),
    Target("compiler", "_simulate_supply", "compiler.simulate_supply"),
    Target("compiler", "build_config", "compiler.build_config", _observe_config),
    Target("compiler", "_Emitter.emit", "compiler.emit"),
    # cli replay prints events and snapshots from run_line's on_step callback.
    Target("compiler", "run_line", "compiler.run_line",
           callback=(4, "on_step", "cli.on_step")),
    Target("solver", "skeleton_solve", "solver.skeleton_solve", _observe_skeleton),
    Target("solver", "oracle_left_wins", "solver.oracle_left_wins"),
    Target("solver", "DeviationChecker.check_step", "solver.deviation.check_step",
           _observe_check),
    Target("cli", "main", "cli.main"),
)

ROOT_SPAN = "bench.instance"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.codes = array("i")
        self.parents = array("i")
        self.instances = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._instance = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, code: int, fn, observe, callback=None):
        codes, parents, instances = self.codes, self.parents, self.instances
        starts, ends, errors = self.starts, self.ends, self.errors
        stack, current, counts = self._stack, self._instance, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if callback is not None:
                args, kwargs = self._trace_callback(callback, args, kwargs)
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            instances.append(current[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _trace_callback(self, callback, args, kwargs):
        position, keyword, code = callback
        if len(args) > position and args[position] is not None:
            fn = self._wrap(code, args[position], None)
            args = args[:position] + (fn,) + args[position + 1:]
        elif kwargs.get(keyword) is not None:
            kwargs = {**kwargs, keyword: self._wrap(code, kwargs[keyword], None)}
        return args, kwargs

    def instance(self, index: int, fn):
        """Run ``fn()`` as instance ``index`` under a root span."""
        self._instance[0] = index
        return self._wrap(0, fn, None)()

    # -- installing --------------------------------------------------------

    def install(self, hp) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hearthproof" or name.startswith("hearthproof.")]
        for target in TARGETS:
            owner = getattr(hp, target.module)
            *cls_path, attr = target.path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{target.module}.{target.path}")
                continue
            callback = None
            if target.callback:
                position, keyword, span = target.callback
                self.names.append(span)
                callback = (position, keyword, len(self.names) - 1)
            self.names.append(target.span)
            wrapped = self._wrap(len(self.names) - 1, original, target.observe, callback)
            owners = [owner] if cls_path else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in owners:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, errors by
        exception type, and for ``solver.skeleton_solve`` its memo lookups
        (``state_hash`` calls made directly by it).  ``compiler.cover`` is
        the time compiler spans cover, less cli spans nested in them."""
        code_of = {name: i for i, name in enumerate(self.names)}
        compiler_codes = {i for name, i in code_of.items() if name.startswith("compiler.")}
        cli_codes = {i for name, i in code_of.items() if name.startswith("cli.")}
        hash_code = code_of.get("state.state_hash", -2)
        skeleton_code = code_of.get("solver.skeleton_solve", -2)
        stats: dict[str, dict[str, float]] = defaultdict(Counter)
        in_compiler = bytearray(len(self.starts))
        cover = 0.0
        starts, ends, parents, codes, names = (
            self.starts, self.ends, self.parents, self.codes, self.names)
        for i in range(len(starts)):
            duration = ends[i] - starts[i]
            code, parent = codes[i], parents[i]
            s = stats[names[code]]
            s["calls"] += 1
            s["total_s"] += duration
            s["self_s"] += duration
            if parent < 0:
                continue
            stats[names[codes[parent]]]["self_s"] -= duration
            inside = in_compiler[parent]
            if code in compiler_codes:
                cover += 0.0 if inside else duration
                in_compiler[i] = 1
            elif code in cli_codes:
                cover -= duration if inside else 0.0  # cli output printed from run_line
            else:
                in_compiler[i] = inside
            if code == hash_code and codes[parent] == skeleton_code:
                stats["solver.skeleton_solve"]["memo_lookups"] += 1
        for i, kind in self.errors.items():
            stats[names[codes[i]]]["errors." + kind] += 1
        stats["compiler.cover"]["total_s"] = cover
        return stats

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start and end in
        microseconds from the first span, parent span index, instance id,
        exception type if the call raised."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\tinstance\terror\n")
            for i in range(len(self.starts)):
                fh.write("%s\t%.3f\t%.3f\t%d\t%d\t%s\n" % (
                    self.names[self.codes[i]],
                    (self.starts[i] - origin) * 1e6,
                    (self.ends[i] - origin) * 1e6,
                    self.parents[i], self.instances[i], self.errors.get(i, ""),
                ))
