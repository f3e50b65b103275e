"""Acceptance gate: one check per shipped guarantee, one printed line each.

Each criterion prints ``criterion N (<title>): PASS`` or ``FAIL`` with
output capture suspended, so the lines appear in the live pytest output,
then asserts in the normal way.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from contextlib import contextmanager

from conftest import WORKED_PAIRS, WORKED_TARGET, WORKED_VECTOR
from hearthproof.compiler import (
    PartitionInstance,
    compile_instance,
    run_line,
    synthesize_beast_buffs,
    synthesize_demon_buffs,
)
from hearthproof.engine import apply, legal_actions, start_game
from hearthproof.solver import (
    WIN,
    DeviationChecker,
    check_named_deviations,
    minimax,
    named_deviations,
    oracle_left_wins,
    skeleton_solve,
)
from hearthproof.state import EventLog, Outcome, total_card_count
from invariants import assert_invariants
from micro_positions import micro_positions
from test_compiler import simulate_buffs
from test_solver import exhaustive_value, naive_left_wins

from hearthproof.cards import FLOATING_WATCHER, GAHZRILLA


@contextmanager
def criterion(number: int, title: str, capfd):
    def announce(status: str) -> None:
        with capfd.disabled():
            print(f"\ncriterion {number} ({title}): {status}", flush=True)

    try:
        yield
    except BaseException:
        announce("FAIL")
        raise
    announce("PASS")


def _worked_log() -> tuple[EventLog, Outcome]:
    compiled = compile_instance(
        PartitionInstance(WORKED_PAIRS, WORKED_TARGET), validate="none")
    log = EventLog()
    final = run_line(compiled.config, compiled.line, WORKED_VECTOR, log)
    return log, final.outcome


def test_criterion_1_worked_line_health_trace(capfd) -> None:
    """The worked four-pair line, replayed under (x, y, y, x), walks the
    accumulator from 196 to exactly 0 and wins."""
    with criterion(1, "worked line health trace", capfd):
        started = time.monotonic()
        log, outcome = _worked_log()
        healths = [196]
        for event in log.events:
            if (event.kind == "damage"
                    and event.data["target"] == {"side": 1, "slot": 0}):
                healths.append(healths[-1] - event.data["amount"])
        assert healths == [196, 184, 152, 90, 8, 0]
        assert outcome is Outcome.FRIENDLY_WINS
        assert time.monotonic() - started < 5.0


def test_criterion_2_decision_milestones(capfd) -> None:
    """The logged decisions carry the carrier stats 12, 22, 40, 32, 52, 62,
    82, 82: as-if-fielded values (ten times the value plus the boost),
    except that a carrier destroyed before the control step reports the
    stat it actually died with."""
    with criterion(2, "decision milestones", capfd):
        log, _ = _worked_log()
        decisions = [e for e in log.events if e.kind == "decision"]
        assert [e.data["decision"] for e in decisions] == [1, 2, 3, 4]
        assert [e.data["chosen"] for e in decisions] == list(WORKED_VECTOR)

        milestones = []
        for event in decisions:
            even_pair = event.data["decision"] % 2 == 0
            if even_pair and event.data["chosen"] == "y":
                milestones.append(event.data["destroyed_at"])
            else:
                milestones.append(event.data["x_attack"])
            milestones.append(event.data["y_attack"])
        assert milestones == [12, 22, 40, 32, 52, 62, 82, 82]

        assert [e.data["destroyed_at"] for e in decisions] == [20, 40, 50, 80]
        delivered = [e.data["amount"] for e in log.events
                     if e.kind == "damage"
                     and e.data["target"] == {"side": 1, "slot": 0}]
        assert delivered == [12, 32, 62, 82, 8]


def test_criterion_3_small_instance_sweep(capfd) -> None:
    """Every instance with up to three pairs, values up to 2, and targets
    up to 6 compiles into a game whose skeleton verdict equals the
    abstract-game oracle."""
    with criterion(3, "small instance sweep", capfd):
        started = time.monotonic()
        pair_space = list(itertools.product(range(3), repeat=2))
        checked = 0
        for n in (1, 2, 3):
            for pairs in itertools.product(pair_space, repeat=n):
                for target in range(7):
                    inst = PartitionInstance(tuple(pairs), target)
                    compiled = compile_instance(inst, validate="none")
                    result = skeleton_solve(compiled.config, compiled.line)
                    expected = oracle_left_wins(inst)
                    assert (result.value == WIN) == expected, inst
                    checked += 1
        assert checked == (9 + 81 + 729) * 7
        assert time.monotonic() - started < 600.0


def test_criterion_4_oracle_vs_enumeration(capfd) -> None:
    """The memoised oracle agrees with plain 2**n enumeration on a
    thousand random instances."""
    with criterion(4, "oracle vs enumeration", capfd):
        started = time.monotonic()
        rng = random.Random(424242)
        for _ in range(1000):
            n = rng.randint(1, 8)
            pairs = tuple((rng.randint(0, 9), rng.randint(0, 9))
                          for _ in range(n))
            target = rng.randint(0, sum(max(x, y) for x, y in pairs) + 2)
            inst = PartitionInstance(pairs, target)
            assert oracle_left_wins(inst) == naive_left_wins(pairs, target)
        assert time.monotonic() - started < 60.0


def test_criterion_5_buff_synthesis_range(capfd) -> None:
    """For every value 1..64, all three synthesized buff sequences reach
    exactly ten times the value when replayed through the engine, with
    logarithmically many attack-affecting casts."""
    with criterion(5, "buff synthesis range", capfd):
        for v in range(1, 65):
            bound = 2 + 6 * int(math.log2(v))
            demon = synthesize_demon_buffs(v)
            assert demon.buff_length <= bound
            assert simulate_buffs(FLOATING_WATCHER, demon.cards) == 10 * v
            for mode in ("blessed", "backstab"):
                beast = synthesize_beast_buffs(v, mode)
                assert beast.buff_length <= bound
                assert simulate_buffs(GAHZRILLA, beast.cards) == 10 * v


def test_criterion_6_random_walk_invariants(capfd) -> None:
    """Ten thousand random legal walks keep every state invariant, and
    replaying a walk from the same seed reproduces the same final state."""
    with criterion(6, "random walk invariants", capfd):
        micro = [config for _, config, _ in micro_positions()]
        compiled = compile_instance(
            PartitionInstance(((1, 2),), 1), validate="none").config

        def walk(seed: int) -> tuple[tuple, int]:
            rng = random.Random(seed)
            if seed % 10 == 0:
                state = start_game(compiled)
            else:
                state = micro[seed % len(micro)].to_state()
            expected_total = total_card_count(state)
            steps = 0
            for _ in range(200):
                if state.outcome is not Outcome.ONGOING:
                    break
                actions = legal_actions(state)
                assert actions, "ongoing state with no legal action"
                state = apply(state, actions[rng.randrange(len(actions))])
                assert_invariants(state, expected_total)
                steps += 1
            return state.canonical(), steps

        for seed in range(10_000):
            walk(seed)
        for seed in range(0, 2_000, 40):
            assert walk(seed) == walk(seed)


def test_criterion_7_named_deviations_refuted(capfd) -> None:
    """On the worked instance the scripted line survives its structural
    spot checks: skipping the freeze, misplacing the first carrier, and
    double-spending the removal are all refuted outright."""
    with criterion(7, "named deviations refuted", capfd):
        compiled = compile_instance(
            PartitionInstance(WORKED_PAIRS, WORKED_TARGET), validate="none")
        checker = DeviationChecker(compiled.config, compiled.line)
        names = [name for name, _, _ in named_deviations(checker)]
        assert "skip_freeze" in names
        assert "double_spend" in names
        assert any(name.startswith("carrier_position_") for name in names)

        report = check_named_deviations(checker)
        assert report.scripted_value == WIN
        assert len(report.findings) == len(names)
        assert report.refuted == len(names)
        assert report.unresolved == 0
        assert report.improved == 0
        for finding in report.findings:
            assert finding.status == "refuted"


def test_criterion_8_search_vs_exhaustive(capfd) -> None:
    """The memoised bounded search agrees with memo-free exhaustive
    enumeration on twenty-plus hand-built positions of at most six plies."""
    with criterion(8, "bounded search vs exhaustive", capfd):
        positions = micro_positions()
        assert len(positions) >= 20
        for label, config, expected in positions:
            state = config.to_state()
            assert exhaustive_value(state, depth=6) == expected, label
            result = minimax(state)
            assert result.value == expected, label
            assert not result.exhausted, label
