"""Solvers: pick-game oracle, exact search, skeleton solving, deviations."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
import pickle
import random
import sys

import pytest

from conftest import WORKED_TARGET, WORKED_VECTOR
from hearthproof import engine
from hearthproof.cards import LEPER_GNOME, card
from hearthproof.compiler import PartitionInstance, chosen_sum, compile_instance, run_line
from hearthproof.engine import apply, legal_actions, start_game
from hearthproof.solver import (
    DRAW,
    LOSS,
    WIN,
    DeviationChecker,
    _Health,
    _Path,
    _TurnRejoinProbe,
    check_named_deviations,
    deviation_check,
    minimax,
    named_deviations,
    oracle_left_wins,
    skeleton_solve,
    terminal_value,
    value_verdict,
    walk_line,
)
from hearthproof.state import (
    Attack, EndTurn, EventLog, GameConfig, IllegalAction, Outcome, PlayCard,
    action_to_json_obj, hero_ref, position_key)
from micro_positions import micro_positions


def naive_left_wins(pairs, target, i=0, acc=0):
    """Plain 2**n reference: no memo, no pruning."""
    if i == len(pairs):
        return acc == target
    x, y = pairs[i]
    if i % 2 == 0:
        return (naive_left_wins(pairs, target, i + 1, acc + x)
                or naive_left_wins(pairs, target, i + 1, acc + y))
    return (naive_left_wins(pairs, target, i + 1, acc + x)
            and naive_left_wins(pairs, target, i + 1, acc + y))


def random_instance(rng: random.Random) -> PartitionInstance:
    n = rng.randint(1, 7)
    pairs = tuple((rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n))
    target = rng.randint(0, sum(max(x, y) for x, y in pairs))
    return PartitionInstance(pairs, target)


class TestOracle:
    def test_matches_naive_enumeration(self) -> None:
        rng = random.Random(20260823)
        for _ in range(400):
            inst = random_instance(rng)
            assert oracle_left_wins(inst) == naive_left_wins(inst.pairs, inst.target)

    def test_worked_instance_is_left_win(self, worked_instance) -> None:
        assert oracle_left_wins(worked_instance)

    def test_swap_invariance(self) -> None:
        """Swapping a pair's two values never changes who wins."""
        rng = random.Random(11)
        for _ in range(100):
            inst = random_instance(rng)
            k = rng.randrange(inst.n)
            pairs = list(inst.pairs)
            pairs[k] = (pairs[k][1], pairs[k][0])
            swapped = PartitionInstance(tuple(pairs), inst.target)
            assert oracle_left_wins(inst) == oracle_left_wins(swapped)

    def test_a_thousand_pairs_get_a_verdict(self) -> None:
        """With the target at the sum of each pair's larger value, Left
        wins iff Right never has a choice, since Right may always pick the
        smaller value.  A recursion per pair would overflow the stack."""
        rng = random.Random(5)
        pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(1000)]
        target = sum(max(pair) for pair in pairs)
        assert oracle_left_wins(PartitionInstance(tuple(pairs), target)) is False
        even = [(x, x) if k % 2 else (x, y) for k, (x, y) in enumerate(pairs)]
        target = sum(max(pair) for pair in even)
        assert oracle_left_wins(PartitionInstance(tuple(even), target)) is True

    def test_verdict_names(self) -> None:
        assert value_verdict(WIN) == "win"
        assert value_verdict(DRAW) == "draw"
        assert value_verdict(LOSS) == "loss"
        assert value_verdict(None) == "unknown"


def exhaustive_value(state, depth: int = 6) -> int:
    """Memo-free full enumeration; the reference for the bounded searcher."""
    tv = terminal_value(state)
    if tv is not None:
        return tv
    assert depth > 0, "micro position deeper than expected"
    values = [exhaustive_value(apply(state, a), depth - 1)
              for a in legal_actions(state)]
    return max(values) if state.active == 0 else min(values)


class TestExactSearch:
    def test_micro_positions_match_exhaustive(self) -> None:
        for label, config, expected in micro_positions():
            state = config.to_state()
            assert exhaustive_value(state) == expected, label
            result = minimax(state)
            assert result.value == expected, label
            assert result.verdict == value_verdict(expected)
            assert not result.exhausted

    def test_node_budget_exhaustion(self) -> None:
        _, config, _ = micro_positions()[3]  # taunt_break_win
        result = minimax(config.to_state(), max_nodes=1)
        assert result.value is None
        assert result.exhausted
        assert result.verdict == "unknown"

    def test_transposition_table_reuse(self) -> None:
        _, config, expected = micro_positions()[3]
        tt: dict = {}
        first = minimax(config.to_state(), tt=tt)
        second = minimax(config.to_state(), tt=tt)
        assert first.value == second.value == expected
        assert second.tt_hits > 0
        assert second.nodes < first.nodes

    def test_principal_variation_reaches_the_win(self) -> None:
        label, config, expected = micro_positions()[0]  # weapon_race_win
        assert expected == WIN
        state = config.to_state()
        result = minimax(state)
        assert result.pv
        for action in result.pv:
            state = apply(state, action)
        assert state.outcome is Outcome.FRIENDLY_WINS


class TestSkeleton:
    def test_worked_instance_wins(self, worked_compiled) -> None:
        result = skeleton_solve(worked_compiled.config, worked_compiled.line)
        assert result.value == WIN
        assert result.verdict == "win"
        assert chosen_sum(worked_compiled.instance, result.vector) == WORKED_TARGET
        assert result.nodes > 0

    def test_agrees_with_oracle_on_small_instances(self) -> None:
        cases = [PartitionInstance(((x, y),), t)
                 for x in range(3) for y in range(3) for t in range(4)]
        rng = random.Random(3)
        for _ in range(8):
            pairs = tuple((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(2))
            cases.append(PartitionInstance(pairs, rng.randint(0, 4)))
        for inst in cases:
            compiled = compile_instance(inst, validate="none")
            result = skeleton_solve(compiled.config, compiled.line)
            assert result.value in (WIN, LOSS), inst
            assert (result.value == WIN) == oracle_left_wins(inst), inst

    def test_losing_instance(self) -> None:
        inst = PartitionInstance(((1, 1),), 3)  # no choice reaches 3
        compiled = compile_instance(inst, validate="none")
        result = skeleton_solve(compiled.config, compiled.line)
        assert result.value == LOSS
        assert result.verdict == "loss"

    def test_agrees_with_oracle_on_seeded_instances(self) -> None:
        """Verdicts match the oracle on 200 seeded instances with up to ten
        pairs of values 0-64 (zeros and overshooting targets included), a
        winning vector really wins the compiled game, and a seeded random
        vector wins ``run_line`` iff its picks sum to the target."""
        rng = random.Random(20230521)
        wins = line_wins = 0
        for k in range(200):
            n = rng.randint(1, 10)
            lo, hi = ((1, 9), (0, 9), (1, 64), (0, 64))[k % 4]
            pairs = tuple((rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n))
            vector = tuple(rng.choice("xy") for _ in range(n))
            if k % 8 < 4:
                # Right's picks cannot matter and the target is reachable,
                # so Left wins.
                pairs = tuple((x, x) if i % 2 else (x, y)
                              for i, (x, y) in enumerate(pairs))
                target = chosen_sum(PartitionInstance(pairs, 0), vector)
            else:
                target = rng.randint(0, sum(max(pair) for pair in pairs) + hi)
            inst = PartitionInstance(pairs, target)
            compiled = compile_instance(inst, validate="none")
            result = skeleton_solve(compiled.config, compiled.line)
            assert (result.verdict == "win") == oracle_left_wins(inst), inst
            if result.verdict == "win":
                wins += 1
                final = run_line(compiled.config, compiled.line, result.vector)
                assert final.outcome is Outcome.FRIENDLY_WINS, inst
            final = run_line(compiled.config, compiled.line, vector)
            hit = chosen_sum(inst, vector) == target
            assert (final.outcome is Outcome.FRIENDLY_WINS) == hit, (inst, vector)
            line_wins += hit
        assert 100 < wins < 140
        assert 100 < line_wins < 140

    def test_seeded_results_are_pinned(self) -> None:
        """Byte pin over ``(value, vector)`` of 120 seeded instances (n 1-13;
        values 1-9, 1-64, 0-9 and 0-64; a quarter Right-indifferent, so Left
        wins; targets reachable or random, overshoot included), taken from
        the solver that replayed every running sum."""
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        for k in range(120):
            n = 1 + k % 13
            lo, hi = ((1, 9), (1, 64), (0, 9), (1, 9), (1, 64), (0, 64))[k % 6]
            pairs = tuple((rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n))
            if k % 4 == 1:
                pairs = tuple((x, x) if i % 2 else (x, y)
                              for i, (x, y) in enumerate(pairs))
            if k % 2:
                target = sum(rng.choice(pair) for pair in pairs)
            else:
                target = rng.randint(0, sum(max(pair) for pair in pairs) + hi)
            compiled = compile_instance(PartitionInstance(pairs, target), validate="none")
            result = skeleton_solve(compiled.config, compiled.line)
            digest.update(f"{result.value} {''.join(result.vector)}\n".encode())
        assert digest.hexdigest() == (
            "40479e483569274b2f737bfc84ecc98452a08e0d4fe91a966f6e85da699293e9")

    def test_large_instance_runs_each_gadget_a_few_times(self) -> None:
        """n = 100 with values 1-64: running sums rarely coincide, so a
        solver that replays each of them steps the engine 10 M times on
        this instance.  Runs reused over D-ranges take about 18 k steps."""
        rng = random.Random(100)
        pairs = tuple((rng.randint(1, 64), rng.randint(1, 64)) for _ in range(100))
        target = rng.randint(sum(map(min, pairs)), sum(map(max, pairs)))
        inst = PartitionInstance(pairs, target)
        compiled = compile_instance(inst, validate="none")
        result = skeleton_solve(compiled.config, compiled.line)
        assert (result.value == WIN) == oracle_left_wins(inst)
        assert result.nodes < 50_000

    def test_a_thousand_decisions_deep(self) -> None:
        """One decision per pair, so the skeleton's search is 1000 decisions
        deep here, past a recursion limit of 1000."""
        inst = PartitionInstance(((1, 1),) * 1000, 1000)
        compiled = compile_instance(inst, turn_limit=2010, validate="none")
        result = skeleton_solve(compiled.config, compiled.line)
        assert result.verdict == "win"
        assert oracle_left_wins(inst)


class TestWallHealth:
    """The skeleton's symbol for the wall's health, ``c + s * D``, where D
    is the damage the wall took before the run."""

    OPS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)

    @staticmethod
    def expected_range(answers: dict[int, bool], d: int) -> tuple[float, float]:
        """The widest run of D around ``d`` with ``d``'s answer; a run that
        reaches the edge of the checked window goes on to infinity."""
        lo = hi = d
        while lo - 1 in answers and answers[lo - 1] == answers[d]:
            lo -= 1
        while hi + 1 in answers and answers[hi + 1] == answers[d]:
            hi += 1
        return (-math.inf if lo == min(answers) else lo,
                math.inf if hi == max(answers) else hi)

    @pytest.mark.parametrize("slope", [-1, 1])
    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_each_comparison_records_its_exact_d_range(self, op, slope) -> None:
        """At every D on both sides of the boundary and on it (the value
        meets the other side at D = 10), with the symbol left or right of
        the operator: the answer is the concrete one, and the range
        recorded is exactly the run of D that gives the same answer."""
        c, t = 30 - 10 * slope, 30  # c + slope * D == t at D = 10
        for flipped in (False, True):
            def compare(left, right):
                return op(right, left) if flipped else op(left, right)
            answers = {d: compare(c + slope * d, t) for d in range(21)}
            for d in answers:
                health = _Health(c, slope, _Path(d))
                assert compare(health, t) is answers[d]
                assert (health.path.lo, health.path.hi) == self.expected_range(answers, d), d

    def test_comparisons_narrow_one_shared_range(self) -> None:
        path = _Path(12)
        health = _Health(40, -1, path)  # 28 at D = 12
        damaged = health - 20  # 20 - D, on the same path
        assert damaged > 0 and health <= 30
        assert (path.lo, path.hi) == (10, 19)
        assert health < health + 5  # the D terms cancel: no cut
        assert (path.lo, path.hi) == (10, 19)

    @pytest.mark.parametrize("d, dies", [(28, False), (29, True), (30, True)])
    def test_the_equality_point_of_a_lethal_hit(self, worked_compiled, d, dies) -> None:
        """The engine's own damage and death checks on a wall at ``30 - D``
        hit for 1: it dies from D = 29, where the hit leaves exactly 0."""
        state = start_game(worked_compiled.config)
        path = _Path(d)
        state.players[1].board[0].health = _Health(30, -1, path)
        engine._damage_minion(state, None, 1, 0, 1)
        engine._process_deaths(state, None)
        assert (state.players[1].board[0].card_id != LEPER_GNOME) is dies
        assert (path.lo, path.hi) == ((29, math.inf) if dies else (-math.inf, 28))

    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_healing_to_full_health_gives_a_plain_int(self, worked_compiled, d) -> None:
        """A wall at ``30 - D`` of 30 healed for 5: below D = 5 the heal is
        ``min(5, 30 - health) = D``, whose D term cancels, so the health is
        the plain int 30; from D = 5 on it heals 5 and stays a symbol."""
        state = start_game(worked_compiled.config)
        wall = state.players[1].board[0]
        wall.max_health = 30
        path = _Path(d)
        wall.health = _Health(30, -1, path)
        engine._heal_minion(state, None, 1, 0, 5)
        health = state.players[1].board[0].health
        if d < 5:
            assert type(health) is int and health == 30
            assert (path.lo, path.hi) == (-math.inf, 4)
        else:
            assert type(health) is _Health and (health.c, health.s) == (35, -1)
            assert (path.lo, path.hi) == (5, math.inf)

    @pytest.mark.parametrize("use", [
        lambda h: h * 2, lambda h: 2 * h, lambda h: -h, lambda h: +h, lambda h: abs(h),
        lambda h: ~h, lambda h: h // 2, lambda h: h / 2, lambda h: h % 3,
        lambda h: h ** 2, lambda h: h << 1, lambda h: h & 1, lambda h: 1 | h,
        lambda h: divmod(h, 2), lambda h: int(h), lambda h: float(h),
        lambda h: h.__index__(), lambda h: hash(h), lambda h: round(h),
        lambda h: math.floor(h), lambda h: f"{h}", lambda h: h.real,
        lambda h: h.bit_length(), lambda h: h + 1.5, lambda h: h + True,
        lambda h: h + _Health(40, -1, _Path(12)), lambda h: h + h,
        lambda h: h < 30 - h, lambda h: h == "40", lambda h: not h,
        lambda h: pickle.dumps(h), lambda h: copy.copy(h),
    ])
    def test_operations_not_modelled_raise(self, use) -> None:
        """None of them may quietly turn the symbol into a plain int.  (C
        code that reads an int's value directly, as sequence indexing and
        ``range`` do, calls no method at all; the engine reads health in
        none of those ways.)"""
        with pytest.raises(TypeError):
            use(_Health(40, -1, _Path(12)))

    def test_a_position_key_refuses_the_symbol(self, worked_compiled) -> None:
        state = start_game(worked_compiled.config)
        state.players[1].board[0].health = _Health(40, -1, _Path(12))
        with pytest.raises(TypeError):
            position_key(state)


class TestWalkLine:
    def test_worked_walk(self, worked_compiled) -> None:
        records, final = walk_line(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        assert final.outcome is Outcome.FRIENDLY_WINS
        assert [r.index for r in records] == list(range(len(records)))
        turns = [r.turn for r in records]
        assert turns == sorted(turns)
        assert turns[0] == 1
        for rec in records:
            assert rec.state_before.outcome is Outcome.ONGOING
            assert rec.side == (0 if rec.turn % 2 == 1 else 1)

    def test_walk_is_repeatable(self, worked_compiled) -> None:
        _, first = walk_line(worked_compiled.config, worked_compiled.line,
                             WORKED_VECTOR)
        _, second = walk_line(worked_compiled.config, worked_compiled.line,
                              WORKED_VECTOR)
        assert first.canonical() == second.canonical()


class TestRunnersAgree:
    """``walk_line`` records through ``run_line``: it records the position
    before each taken step, skips no more than the replay does, and ends
    alike."""

    def test_skips_positions_and_final_states_agree(self) -> None:
        instances = [
            (((1, 2), (4, 3), (5, 6), (8, 8)), WORKED_TARGET),
            (((1, 2),), 2),
            (((0, 3), (2, 2)), 2),
            (((5, 1), (7, 2), (3, 3)), 9),
            (((9, 4), (1, 6), (2, 8), (3, 5), (7, 7)), 20),
        ]
        skipped = 0
        for pairs, target in instances:
            compiled = compile_instance(PartitionInstance(pairs, target), validate="none")
            for vector in (("x",) * len(pairs), ("y",) * len(pairs)):
                log = EventLog()
                after, skips = [start_game(compiled.config).canonical()], []

                def on_step(index, step, why, state) -> None:
                    after.append(state.canonical())
                    assert (why is not None) == (log.events[-1].kind == "skip")
                    if why is not None:
                        skips.append(index)

                final = run_line(compiled.config, compiled.line, vector, log, on_step)
                records, walked = walk_line(compiled.config, compiled.line, vector)
                # The skipped indices are exactly the gaps in the records.
                indices = [r.index for r in records]
                assert indices == sorted(indices)
                assert sorted(set(range(len(after) - 1)) - set(indices)) == skips
                for rec in records:
                    assert rec.state_before.canonical() == after[rec.index]
                assert walked.canonical() == final.canonical() == after[-1]
                skipped += len(skips)
        assert skipped > 0  # the weapon swing a surviving wall blocks

    def test_foreign_configuration_fails_at_the_same_step(self, worked_compiled) -> None:
        """All three runners number an illegal step along the chosen
        line; the skeleton, which tries ``x`` first, meets it on the
        all-``x`` path."""
        other = compile_instance(PartitionInstance(((1, 2), (2, 1)), 2), validate="none")
        failures = []
        for runner in (run_line, walk_line,
                       lambda config, line, vector: skeleton_solve(config, line)):
            with pytest.raises(IllegalAction) as info:
                runner(other.config, worked_compiled.line, ("x",) * 4)
            failures.append((info.value.step, info.value.reason))
        assert failures == [(51, "Mortal Coil needs a target")] * 3


class TestDeviations:
    def test_named_probe_structure(self, worked_compiled) -> None:
        checker = DeviationChecker(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        probes = named_deviations(checker)
        names = [name for name, _, _ in probes]
        assert names == ["skip_freeze", "carrier_position_0", "carrier_position_1",
                         "carrier_position_2", "carrier_position_3",
                         "carrier_position_4", "double_spend"]
        for _, rec, alternative in probes:
            assert alternative != rec.action
            assert alternative in legal_actions(rec.state_before)

    def test_named_probes_all_refuted(self, worked_compiled) -> None:
        report = deviation_check(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        assert report.scripted_value == WIN
        assert len(report.findings) == 7
        assert report.refuted == 7
        assert report.unresolved == 0
        assert report.improved == 0
        assert report.checked_steps == 3
        for finding in report.findings:
            assert finding.status == "refuted"
            assert finding.reason in ("forced_loss", "derailed")

    def test_named_findings_are_pinned(self, worked_compiled) -> None:
        """Status, reason and nodes searched of each worked named probe: a
        probe change that alters the search has to change these numbers."""
        checker = DeviationChecker(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        names = [name for name, _, _ in named_deviations(checker)]
        report = check_named_deviations(checker)
        assert [(name, f.status, f.reason, f.nodes)
                for name, f in zip(names, report.findings, strict=True)] == [
            ("skip_freeze", "refuted", "forced_loss", 88),
            ("carrier_position_0", "refuted", "forced_loss", 6),
            ("carrier_position_1", "refuted", "forced_loss", 6),
            ("carrier_position_2", "refuted", "forced_loss", 6),
            ("carrier_position_3", "refuted", "forced_loss", 6),
            ("carrier_position_4", "refuted", "forced_loss", 6),
            ("double_spend", "refuted", "derailed", 2899),
        ]

    def test_rejoin_probe_leaves_its_argument_alone(self, worked_compiled) -> None:
        """The probe steps its own copy in place; the state it is given,
        which the loss probe reads next, comes back unchanged."""
        checker = DeviationChecker(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        for _, rec, alternative in named_deviations(checker):
            child = apply(rec.state_before, alternative)
            before = (child.canonical(), child.next_iid)
            checker._rejoin_probe(rec).analyze(child)
            assert (child.canonical(), child.next_iid) == before

    def test_rejoin_probe_near_the_recursion_limit(self, worked_compiled) -> None:
        """The probe keeps its pending positions on a list, so it answers
        alike when called from within 20 frames of the recursion limit."""
        checker = DeviationChecker(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        named = [(rec, apply(rec.state_before, alt))
                 for _, rec, alt in named_deviations(checker)]

        def probe_all() -> list[tuple[str, int]]:
            checker._probe = None
            return [checker._rejoin_probe(rec).analyze(child) for rec, child in named]

        def nested(levels: int) -> list[tuple[str, int]]:
            return probe_all() if levels <= 0 else nested(levels - 1)

        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        assert nested(sys.getrecursionlimit() - 20 - depth) == probe_all()

    def test_single_pair_line_has_no_freeze_probe(self) -> None:
        """A single-pair line opens on the verification turn, which casts
        no field-wide freeze, so that probe family is empty."""
        compiled = compile_instance(PartitionInstance(((1, 2),), 1),
                                    validate="none")
        checker = DeviationChecker(compiled.config, compiled.line, ("x",))
        names = [name for name, _, _ in named_deviations(checker)]
        assert "skip_freeze" not in names
        assert "double_spend" in names
        report = check_named_deviations(checker)
        assert report.unresolved == 0
        assert report.improved == 0
        for finding in report.findings:
            assert finding.status in ("refuted", "dominated")

    def test_check_all_on_turn_one(self) -> None:
        """Every legal alternative on turn 1 of a one-pair line: small
        probe budgets leave some unresolved, but an exhausted budget never
        gives a wrong verdict."""
        compiled = compile_instance(PartitionInstance(((1, 2),), 2),
                                    validate="none")
        report = deviation_check(compiled.config, compiled.line, max_turns=1,
                                 rejoin_nodes=2000, value_nodes=200)
        assert report.improved == 0
        assert (report.refuted + report.dominated + report.improved
                + report.unresolved) == len(report.findings) > 0
        for finding in report.findings:
            assert finding.alternative != finding.scripted
            if finding.status == "unresolved":
                assert finding.reason == "budget"
        records, _ = walk_line(compiled.config, compiled.line, report.vector)
        assert report.checked_steps == sum(rec.turn <= 1 for rec in records)

    def test_check_all_frees_each_finished_turn(self) -> None:
        """``check_all`` holds one turn's probe at a time and drops the last
        one on return, and finds what ``check_step`` finds over the same
        steps in order, which ends holding the last turn's probe alone."""
        compiled = compile_instance(PartitionInstance(((1, 2), (4, 3)), 5),
                                    validate="none")

        def checker():
            return DeviationChecker(compiled.config, compiled.line,
                                    rejoin_nodes=2000, value_nodes=200)

        freeing = checker()
        report = freeing.check_all(max_turns=3)
        assert freeing._probe is None
        stepping = checker()
        steps = stepping.steps(max_turns=3)
        stepped = [stepping.check_step(rec, alt) for rec in steps
                   for alt in legal_actions(rec.state_before) if alt != rec.action]
        assert report.findings == stepped
        assert report.checked_steps == len(steps)
        turns = {rec.turn for rec in steps}
        assert len(turns) == 3 and stepping._probe.turn == max(turns)

    def test_a_turn_asked_about_again_starts_afresh(self) -> None:
        """A step of another turn replaces the held probe, its tables and
        its budget, so a step of turn 1 checked after one of turn 2 finds
        exactly what a fresh checker finds, nodes included."""
        compiled = compile_instance(PartitionInstance(((1, 2), (4, 3)), 5),
                                    validate="none")

        def checker():
            return DeviationChecker(compiled.config, compiled.line,
                                    rejoin_nodes=2000, value_nodes=200)

        def check(c, rec):
            return [c.check_step(rec, alt) for alt in legal_actions(rec.state_before)
                    if alt != rec.action]

        steps = checker().steps(max_turns=2)
        # The line's second step: its alternatives spend both probes' nodes
        # (the first step's children all end the game at once).
        first = steps[1]
        second = next(rec for rec in steps if rec.turn == 2)
        assert first.turn == 1
        reused = checker()
        before = check(reused, first)
        check(reused, second)
        assert reused._probe.turn == 2
        again = check(reused, first)
        assert again == check(checker(), first) == before
        assert sum(finding.nodes for finding in again) > 2000

    @pytest.mark.parametrize("target, totals, digest", [
        (2, (125, 0, 0, 66, 14861),
         "9d5f99c08c3dacffb0b3044184e34b55efa75da288ea94742ddb964090025c6a"),
        (1, (126, 0, 0, 90, 18918),
         "5dbb9aa7987c1be3a48c6fac7b9044729cd918d977a67af14eed1506e37a01df"),
    ])
    def test_turn_one_findings_are_pinned(self, target, totals, digest) -> None:
        """Every turn-1 alternative of a one-pair line under small budgets:
        counts, nodes, and a byte pin over each finding's ``(step_index,
        alternative, status, reason, nodes)``, taken from the probe that
        built every ``EndTurn`` child."""
        compiled = compile_instance(PartitionInstance(((1, 2),), target),
                                    validate="none")
        report = deviation_check(compiled.config, compiled.line, max_turns=1,
                                 rejoin_nodes=2000, value_nodes=200)
        assert (report.refuted, report.dominated, report.improved,
                report.unresolved, report.nodes) == totals
        rows = [[f.step_index, action_to_json_obj(f.alternative), f.status,
                 f.reason, f.nodes] for f in report.findings]
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def shifted_config(config: GameConfig, turns: int) -> GameConfig:
    """``config`` starting ``turns`` game turns later, with its turn limit
    moved along: the same game under other turn numbers."""
    obj = json.loads(config.to_json())
    obj["turn"] += turns
    obj["turnLimit"] += turns
    return GameConfig.from_json_obj(obj)


class TestShiftedTurn:
    """A line's steps are placed in game turns by the position, not by the
    turn numbers its script carries, so starting the game two turns later
    changes no finding but its turn."""

    def test_named_findings_are_unchanged(self, worked_compiled) -> None:
        config, line = worked_compiled.config, worked_compiled.line
        plain = check_named_deviations(DeviationChecker(config, line, WORKED_VECTOR))
        shifted = check_named_deviations(
            DeviationChecker(shifted_config(config, 2), line, WORKED_VECTOR))
        assert ([(f.step_index, f.status, f.reason, f.nodes) for f in shifted.findings]
                == [(f.step_index, f.status, f.reason, f.nodes) for f in plain.findings])
        assert [f.turn for f in shifted.findings] == [f.turn + 2 for f in plain.findings]
        assert [f.nodes for f in shifted.findings] == [88, 6, 6, 6, 6, 6, 2899]

    def test_turn_one_probe_is_unchanged(self, worked_compiled) -> None:
        """Every alternative of the line's first turn under small budgets."""
        totals = []
        for turns in (0, 2):
            config = shifted_config(worked_compiled.config, turns)
            report = deviation_check(config, worked_compiled.line, WORKED_VECTOR,
                                     max_turns=1, rejoin_nodes=2000, value_nodes=200)
            assert {f.turn for f in report.findings} == {1 + turns}
            totals.append((report.refuted, report.dominated, report.improved,
                           report.unresolved, report.nodes))
        assert totals == [(104, 0, 0, 98, 17398)] * 2

    def test_records_read_the_game_turn(self, worked_compiled) -> None:
        config = shifted_config(worked_compiled.config, 2)
        records, final = walk_line(config, worked_compiled.line, WORKED_VECTOR)
        assert final.outcome is Outcome.FRIENDLY_WINS
        assert records[0].turn == 3
        for rec in records:
            assert rec.side == (0 if rec.turn % 2 == 1 else 1)


def assert_end_turn_child_is_inert(probe: _TurnRejoinProbe, state) -> None:
    """The ``EndTurn`` child of ``state``, which ``probe`` skips, neither
    rejoins the boundary nor wins for the mover."""
    child = apply(state, EndTurn())
    assert child.turn > probe.turn
    assert probe.boundary is None or position_key(child) != probe.boundary
    assert terminal_value(child) != (WIN if probe.mover == 0 else LOSS)


class TestEndTurnSkip:
    """The rejoin probe's ``EndTurn`` skip drops only children that could
    neither rejoin nor win."""

    @staticmethod
    def _checking(monkeypatch) -> dict:
        """Check the rule at every position a probe expands from now on."""
        seen = {"expanded": 0, "skipped": 0}
        rule = _TurnRejoinProbe._end_turn_is_inert

        def checked(probe, state):
            skips = rule(probe, state)
            seen["expanded"] += 1
            if skips:
                seen["skipped"] += 1
                assert_end_turn_child_is_inert(probe, state)
            return skips

        monkeypatch.setattr(_TurnRejoinProbe, "_end_turn_is_inert", checked)
        return seen

    def test_on_the_worked_named_probes(self, worked_compiled, monkeypatch) -> None:
        seen = self._checking(monkeypatch)
        checker = DeviationChecker(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        check_named_deviations(checker)
        assert seen["expanded"] == checker._probe.nodes
        assert seen["skipped"] > 2800

    def test_on_the_pinned_one_pair_probe(self, monkeypatch) -> None:
        seen = self._checking(monkeypatch)
        compiled = compile_instance(PartitionInstance(((1, 2),), 2),
                                    validate="none")
        deviation_check(compiled.config, compiled.line, max_turns=1,
                        rejoin_nodes=2000, value_nodes=200)
        assert seen["skipped"] > 0

    def test_on_random_walks_from_micro_positions(self) -> None:
        """Random in-turn walks from every micro position as it is, with a
        later turn limit (so ending the turn means fatigue), and with cards
        left in each deck too (so the rule can apply).  Each walk is
        checked against no boundary and against the position its own
        ``EndTurn`` reaches, where the rule must not skip."""
        rng = random.Random(61)
        configs = []
        for _, config, _ in micro_positions():
            configs.append(config)
            obj = config.to_json_obj()
            obj["turnLimit"] = 3
            configs.append(GameConfig.from_json_obj(obj))
            for player in obj["players"]:
                player["deck"] = ["Leper Gnome", "Innervate"]
            configs.append(GameConfig.from_json_obj(obj))
        skipped = 0
        for config in configs:
            for _ in range(8):
                state = config.to_state()
                walk = [state]
                while state.outcome is Outcome.ONGOING and rng.random() < 0.8:
                    actions = legal_actions(state)[:-1]  # all but EndTurn
                    if not actions:
                        break
                    state = apply(state, rng.choice(actions))
                    walk.append(state)
                walk = [s for s in walk if s.outcome is Outcome.ONGOING]
                if not walk:
                    continue
                end = apply(walk[-1], EndTurn())
                for boundary in (None, end):
                    probe = _TurnRejoinProbe(state.turn, state.active, boundary, 1)
                    for s in walk:
                        if probe._end_turn_is_inert(s):
                            skipped += 1
                            assert_end_turn_child_is_inert(probe, s)
                    if boundary is end and end.outcome is Outcome.ONGOING:
                        assert not probe._end_turn_is_inert(walk[-1])
        assert skipped > 50


def classify_skipped_actions(state, legal: list, tried: list) -> tuple[list, list]:
    """``tried``, the actions the rejoin probe keeps to try from ``state``,
    keep the order of ``legal``.  Every action it leaves out is one of two
    kinds.  A repeated play builds the position that the nearest earlier
    tried play with the same target and position builds, and ends the game
    alike.  A lost attack is the mover's hero attacking an enemy minion
    whose attack is at least the hero's health, and its child, built on a
    clone, is the opponent's win.  Returns the plays and the attacks left
    out.  ``EndTurn`` is left to ``TestEndTurnSkip``."""
    remaining = iter(legal)
    assert all(action in remaining for action in tried)
    skipped = [a for a in legal if a not in tried and a != EndTurn()]
    side = state.active
    plays, attacks = [], []
    for action in skipped:
        if isinstance(action, Attack):
            assert action.attacker == hero_ref(side) and action.defender.side == 1 - side
            defender = state.players[1 - side].board[action.defender.slot]
            assert defender.attack >= state.players[side].health
            child = apply(state, action)
            assert child.outcome is (Outcome.ENEMY_WINS if side == 0 else Outcome.FRIENDLY_WINS)
            attacks.append(action)
            continue
        play = action
        assert isinstance(play, PlayCard) and play.hand > 0
        kept = next(PlayCard(j, play.target, play.position)
                    for j in range(play.hand - 1, -1, -1)
                    if PlayCard(j, play.target, play.position) in tried)
        child, sibling = apply(state, play), apply(state, kept)
        assert position_key(child) == position_key(sibling)
        assert child.outcome is sibling.outcome
        plays.append(play)
    return plays, attacks


def repeat_play_configs() -> list[GameConfig]:
    """Positions whose hands repeat minions, targeted and untargeted spells
    and weapons, next to each other and apart, with boards to aim at and
    to place minions between, and decks to draw from."""
    def side(hand, board, deck, weapon=None):
        hero = {"health": 30, "manaCrystals": 10}
        if weapon:
            hero["weapon"] = weapon
        return {"hero": hero, "deck": deck, "hand": hand,
                "board": [{"card": c} for c in board]}

    hands = [
        ["Innervate", "Innervate", "Backstab", "Backstab", "Leper Gnome",
         "Leper Gnome", "Light's Justice", "Light's Justice", "Innervate"],
        ["Novice Engineer", "Novice Engineer", "Mortal Coil", "Mortal Coil",
         "Flash Heal", "Leper Gnome", "Flash Heal", "Arcane Intellect",
         "Arcane Intellect"],
        ["Mistress of Mixtures", "Mistress of Mixtures", "Mistress of Mixtures",
         "Charge", "Charge", "Shadow Word: Death", "Shadow Word: Death",
         "Mark of Y'Shaarj", "Mark of Y'Shaarj"],
    ]
    deck = ["Innervate", "Backstab", "Innervate", "Leper Gnome", "Mortal Coil"]
    configs = []
    for hand in hands:
        for board in ([], ["Leper Gnome", "Floating Watcher"]):
            configs.append(GameConfig.from_json_obj({
                "formatVersion": 1,
                "players": [
                    side(hand, board, deck, {"attack": 1, "durability": 2}),
                    side(hand[::-1], ["Gahz'rilla", "Leper Gnome", "Wee Spellstopper"],
                         deck),
                ],
                "active": 0,
                "turn": 1,
                "turnLimit": 6,
            }))
    return configs


def near_lethal_configs() -> list[GameConfig]:
    """Positions whose armed heroes can attack enemy minions with attack
    below, at and above their health: taunts and not, heals and a weapon
    in hand to move the health and the weapon, decks to draw from."""
    def side(health, hand, board, weapon):
        return {"hero": {"health": health, "manaCrystals": 3, "weapon": weapon},
                "deck": ["Flash Heal", "Leper Gnome", "Light's Justice", "Innervate"],
                "hand": hand, "board": board}

    boards = [
        [{"card": "Leper Gnome"}, {"card": "Novice Engineer"},
         {"card": "Mistress of Mixtures"}, {"card": "Floating Watcher"}],
        [{"card": "Wee Spellstopper", "flags": ["taunt"]}, {"card": "Gahz'rilla"},
         {"card": "Leper Gnome", "flags": ["taunt"]}],
    ]
    configs = []
    for health in (2, 3, 5):
        for mine, theirs in ((boards[0], boards[1]), (boards[1], boards[0])):
            configs.append(GameConfig.from_json_obj({
                "formatVersion": 1,
                "players": [
                    side(health, ["Flash Heal", "Light's Justice", "Backstab"], mine,
                         {"attack": 1, "durability": 3}),
                    side(health + 1, ["Flash Heal", "Innervate"], theirs,
                         {"attack": 2, "durability": 2}),
                ],
                "active": 0,
                "turn": 1,
                "turnLimit": 6,
            }))
    return configs


class TestDuplicatePlaySkip:
    """The rejoin probe's skips of a play whose card equals the one before
    it in hand, and of a hero attack that loses on the spot, drop only
    children that an earlier sibling has already built or that are lost."""

    @staticmethod
    def _checking(monkeypatch) -> dict:
        """From now on, record the actions the probe keeps at each position
        it expands, and check the actions it leaves out there."""
        seen = {"expanded": 0, "skipped": [], "lost": [], "tried": []}
        moves = _TurnRejoinProbe._moves

        def recorded_moves(probe, state):
            kept = moves(probe, state)
            seen["expanded"] += 1
            tried = kept[::-1]
            plays, attacks = classify_skipped_actions(state, legal_actions(state), tried)
            state = state.clone()
            seen["skipped"] += [(state, play) for play in plays]
            seen["lost"] += [(state, attack) for attack in attacks]
            seen["tried"] += [(state, action) for action in tried]
            return kept

        monkeypatch.setattr(_TurnRejoinProbe, "_moves", recorded_moves)
        return seen

    def test_on_the_worked_named_probes(self, worked_compiled, monkeypatch) -> None:
        seen = self._checking(monkeypatch)
        checker = DeviationChecker(
            worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        check_named_deviations(checker)
        assert seen["expanded"] == checker._probe.nodes
        assert len(seen["skipped"]) > 1500
        # The mover's 1-health hero could swing its weapon into the wall
        # at every position expanded.
        assert len(seen["lost"]) == seen["expanded"]

    def test_on_the_pinned_one_pair_probe(self, monkeypatch) -> None:
        seen = self._checking(monkeypatch)
        compiled = compile_instance(PartitionInstance(((1, 2),), 2),
                                    validate="none")
        deviation_check(compiled.config, compiled.line, max_turns=1,
                        rejoin_nodes=2000, value_nodes=200)
        assert len(seen["skipped"]) > 0
        assert len(seen["lost"]) > 0

    def test_on_seeded_walks(self, monkeypatch) -> None:
        """Seeded walks through both players' turns.  At each position a
        probe with a one-node budget expands that position alone and still
        applies every action it keeps there."""
        seen = self._checking(monkeypatch)
        positions = 0
        for config in repeat_play_configs():
            for seed in range(6):
                rng = random.Random(seed)
                state = config.to_state()
                while state.outcome is Outcome.ONGOING:
                    _TurnRejoinProbe(state.turn, state.active, None, 1).analyze(state)
                    positions += 1
                    state = apply(state, rng.choice(legal_actions(state)))
        assert seen["expanded"] == positions
        assert len(seen["skipped"]) > 1000
        kinds = set()
        for state, play in seen["skipped"]:
            kind = card(state.players[state.active].hand[play.hand]).kind.value
            kinds.add(kind if play.target is None else "targeted " + kind)
        assert kinds == {"minion", "spell", "targeted spell", "weapon"}

    def test_on_seeded_walks_near_lethal(self, monkeypatch) -> None:
        """The same on positions where a hero's health is close to the
        attack of the minions it may strike: the probe leaves out each
        attack into a retaliation at least that health, and tries the ones
        into one point less and below, for both sides."""
        seen = self._checking(monkeypatch)
        positions = 0
        for config in near_lethal_configs():
            for seed in range(6):
                rng = random.Random(seed)
                state = config.to_state()
                while state.outcome is Outcome.ONGOING:
                    _TurnRejoinProbe(state.turn, state.active, None, 1).analyze(state)
                    positions += 1
                    state = apply(state, rng.choice(legal_actions(state)))
        assert seen["expanded"] == positions

        def margins(pairs):
            """Retaliation minus health of each hero attack on a minion."""
            out = {0: set(), 1: set()}
            for state, action in pairs:
                if (isinstance(action, Attack) and action.attacker.slot is None
                        and action.defender.slot is not None):
                    side = state.active
                    out[side].add(state.players[1 - side].board[action.defender.slot].attack
                                  - state.players[side].health)
            return out

        lost, tried = margins(seen["lost"]), margins(seen["tried"])
        for side in (0, 1):
            assert {0, 1} <= lost[side] and min(lost[side]) >= 0
            assert -1 in tried[side] and max(tried[side]) < 0
        assert len(seen["lost"]) > 100


class TestMoves:
    """``_TurnRejoinProbe._moves`` lists the legal actions last first, less
    exactly the three kinds of child the probe skips."""

    @staticmethod
    def expected(probe: _TurnRejoinProbe, state) -> tuple[list, dict]:
        """``legal_actions(state)`` reversed, less an inert ``EndTurn``, a
        play of a card equal to the one before it in hand, and a hero
        attack on a minion whose attack is at least the hero's health; and
        how many of each were left out."""
        side = state.active
        mover, enemy = state.players[side], state.players[1 - side]
        left_out = {"end_turn": 0, "repeated_play": 0, "lost_attack": 0}
        kept = []
        for action in legal_actions(state):
            if action == EndTurn():
                if probe._end_turn_is_inert(state):
                    left_out["end_turn"] += 1
                    continue
            elif isinstance(action, PlayCard):
                if action.hand and mover.hand[action.hand - 1] == mover.hand[action.hand]:
                    left_out["repeated_play"] += 1
                    continue
            elif (action.attacker == hero_ref(side) and action.defender != hero_ref(1 - side)
                  and enemy.board[action.defender.slot].attack >= mover.health):
                left_out["lost_attack"] += 1
                continue
            kept.append(action)
        return kept[::-1], left_out

    def test_on_seeded_walks(self, worked_compiled) -> None:
        one_pair = compile_instance(PartitionInstance(((1, 2),), 2), validate="none").config
        starts = ([start_game(worked_compiled.config), start_game(one_pair)]
                  + [config.to_state() for config in repeat_play_configs()]
                  + [config.to_state() for config in near_lethal_configs()])
        totals = {"positions": 0, "end_turn": 0, "repeated_play": 0, "lost_attack": 0,
                  "end_turn_tried": 0}
        for start_index, start in enumerate(starts):
            for seed in range(6):
                rng = random.Random(start_index * 100 + seed)
                state = start
                for _ in range(80):
                    if state.outcome is not Outcome.ONGOING:
                        break
                    probe = _TurnRejoinProbe(state.turn, state.active, None, 1)
                    moves, left_out = self.expected(probe, state)
                    assert probe._moves(state) == moves
                    totals["positions"] += 1
                    totals["end_turn_tried"] += EndTurn() in moves
                    for kind, count in left_out.items():
                        totals[kind] += count
                    state = apply(state, rng.choice(legal_actions(state)))
        assert totals["positions"] > 1500
        assert min(totals.values()) > 100, totals
