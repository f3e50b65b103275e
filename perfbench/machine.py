"""The machine's speed, to scale the benchmark's times to a fixed machine.

On a shared host the same code runs a fifth to a half faster or slower from
one minute to the next, as other tenants come and go on the same cores; a
process-time clock drifts the same way, so the drift is not time spent off
the processor.  The benchmark therefore times a fixed standard-library loop
in short samples next to the program, and scales each stretch of the
program's wall time by the loop's speed over that stretch.  A scaled time
is the time the stretch would take on a machine on which the loop makes
``NOMINAL_RATE`` calls per second.
"""

from __future__ import annotations

import gc
import random
import time

NOMINAL_RATE = 1000.0  # loop calls per second of the machine times are scaled to
SAMPLE_S = 0.05  # length of one speed sample

_rng = random.Random(0)
_PAIRS = tuple((_rng.randint(1, 64), _rng.randint(1, 64)) for _ in range(13))
_TARGET = 300


def _wins(i: int, acc: int, memo: dict) -> bool:
    """Memoised pick-game minimax; a plain function, so each call leaves no
    reference cycle behind for the collector."""
    if i == len(_PAIRS):
        return acc == _TARGET
    key = (i, acc)
    hit = memo.get(key)
    if hit is None:
        x, y = _PAIRS[i]
        a, b = _wins(i + 1, acc + x, memo), _wins(i + 1, acc + y, memo)
        hit = memo[key] = (a or b) if i % 2 == 0 else (a and b)
    return hit


def speed() -> float:
    """The machine's speed now, as a share of the nominal machine's.

    The collector is off while the loop runs, so that the size of the
    program's heap does not change the loop's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        calls = 0
        while (elapsed := time.perf_counter() - started) < SAMPLE_S:
            _wins(0, 0, {})
            calls += 1
    finally:
        if enabled:
            gc.enable()
    return calls / elapsed / NOMINAL_RATE
