"""Instance-to-game compiler: formulas, buff synthesis, scripts, determinism."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import random

import pytest

from conftest import WORKED_TARGET, WORKED_VECTOR
from hearthproof import compiler
from hearthproof.cli import main
from hearthproof.cards import (
    BACKSTAB,
    BLESSED_CHAMPION,
    DEMONFUSE,
    ARCANE_INTELLECT,
    FLASH_HEAL,
    FLOATING_WATCHER,
    FROST_NOVA,
    GAHZRILLA,
    LEPER_GNOME,
    LIGHTS_JUSTICE,
    MARK_OF_YSHAARJ,
    card,
)
from hearthproof.compiler import (
    InstanceError,
    PartitionInstance,
    Branch,
    ScheduleInfeasible,
    ScriptedLine,
    TurnScript,
    big_attack,
    chosen_sum,
    compile_instance,
    leper_health,
    run_line,
    shifted_instance,
    synthesize_beast_buffs,
    synthesize_demon_buffs,
    _Emitter,
)
from hearthproof.engine import apply
from hearthproof.state import (
    EventLog, GameConfig, MinionInstance, Outcome, PlayCard, ScriptStep, hero_ref,
    minion_ref)


class TestInstance:
    def test_json_round_trip(self) -> None:
        inst = PartitionInstance.from_json('{"pairs": [[1, 2], [4, 3]], "target": 5}')
        assert inst.pairs == ((1, 2), (4, 3))
        assert inst.target == 5
        assert inst.n == 2
        assert PartitionInstance.from_json_obj(inst.to_json_obj()) == inst

    def test_value_properties(self) -> None:
        inst = PartitionInstance(((0, 7), (3, 3)), 7)
        assert inst.max_value == 7
        assert inst.has_zero_value
        assert list(inst.values()) == [0, 7, 3, 3]
        assert not PartitionInstance(((1, 1),), 1).has_zero_value

    def test_rejects_malformed_input(self) -> None:
        with pytest.raises(InstanceError):
            PartitionInstance((), 3)
        with pytest.raises(InstanceError):
            PartitionInstance(((1, -2),), 3)
        with pytest.raises(InstanceError):
            PartitionInstance(((1, 2),), -1)
        with pytest.raises(InstanceError):
            PartitionInstance.from_json("not json")
        with pytest.raises(InstanceError):
            PartitionInstance.from_json('{"pairs": [[1]], "target": 0}')
        with pytest.raises(InstanceError):
            PartitionInstance.from_json('{"target": 0}')

    @pytest.mark.parametrize("text", [
        '{"pairs": [[1.5, 1]], "target": 1}',
        '{"pairs": [[1, 1]], "target": 1.0}',
        '{"pairs": [[1, 1]], "target": "1"}',
        '{"pairs": [["2", 1]], "target": 1}',
        '{"pairs": [[1, true]], "target": 1}',
        '{"pairs": [[1, 1]], "target": false}',
    ], ids=["float_value", "float_target", "string_target", "string_value",
            "bool_value", "bool_target"])
    def test_rejects_values_that_are_not_integers(self, text) -> None:
        """A float, a numeric string or a bool is malformed, not coerced."""
        with pytest.raises(InstanceError, match="not an integer"):
            PartitionInstance.from_json(text)


class TestZeroShift:
    def test_no_zero_is_untouched(self) -> None:
        inst = PartitionInstance(((1, 2),), 2)
        shifted, shift = shifted_instance(inst)
        assert shifted is inst
        assert shift == 0

    def test_zero_shifts_all_values_and_target(self) -> None:
        inst = PartitionInstance(((0, 2), (4, 0), (1, 1)), 5)
        shifted, shift = shifted_instance(inst)
        assert shift == 1
        assert shifted.pairs == ((1, 3), (5, 1), (2, 2))
        assert shifted.target == 5 + 3

    def test_shift_preserves_winning_vectors(self) -> None:
        inst = PartitionInstance(((0, 3), (2, 0)), 2)
        shifted, _ = shifted_instance(inst)
        for vector in (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")):
            original_win = chosen_sum(inst, vector) == inst.target
            shifted_win = chosen_sum(shifted, vector) == shifted.target
            assert original_win == shifted_win


class TestFormulas:
    def test_accumulator_health(self) -> None:
        assert leper_health(18, 4) == 196
        assert leper_health(0, 1) == 10
        assert leper_health(7, 3) == 84

    def test_dominating_attack(self) -> None:
        assert big_attack(1) == 1000
        assert big_attack(45) == 1000
        assert big_attack(46) == 1020
        assert big_attack(100) == 2100


def seeded_values(seed: int, count: int, top: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(1, top) for _ in range(count)]


class TestBuffSynthesis:
    def test_demon_base_case(self) -> None:
        seq = synthesize_demon_buffs(1)
        assert seq.cards == (DEMONFUSE, DEMONFUSE)
        assert seq.final_attack == 10
        assert seq.buff_length == 2

    def test_demon_reaches_ten_v(self) -> None:
        for v in range(1, 65):
            seq = synthesize_demon_buffs(v)
            assert seq.final_attack == 10 * v
            assert seq.cards[:2] == (DEMONFUSE, DEMONFUSE)

    def test_beast_reaches_ten_v_in_both_modes(self) -> None:
        for v in range(1, 65):
            for mode in ("blessed", "backstab"):
                seq = synthesize_beast_buffs(v, mode)
                assert seq.final_attack == 10 * v
                assert seq.cards[:2] == (MARK_OF_YSHAARJ, MARK_OF_YSHAARJ)

    def test_buff_length_is_logarithmic(self) -> None:
        for v in range(1, 65):
            bound = 2 + 6 * int(math.log2(v))
            assert synthesize_demon_buffs(v).buff_length <= bound
            assert synthesize_beast_buffs(v, "blessed").buff_length <= bound
            assert synthesize_beast_buffs(v, "backstab").buff_length <= bound

    def test_backstab_mode_inserts_repair_heals(self) -> None:
        """Doubling via self-damage needs the target undamaged, so every
        doubling after the first is preceded by a heal; those heals are
        excluded from the logarithmic length count."""
        blessed = synthesize_beast_buffs(5, "blessed")
        backstab = synthesize_beast_buffs(5, "backstab")
        assert FLASH_HEAL not in blessed.cards
        assert backstab.cards.count(BACKSTAB) == blessed.cards.count(BLESSED_CHAMPION)
        assert backstab.cards.count(FLASH_HEAL) == backstab.cards.count(BACKSTAB) - 1
        assert backstab.buff_length == blessed.buff_length

    def test_rejects_bad_input(self) -> None:
        with pytest.raises(InstanceError):
            synthesize_demon_buffs(0)
        with pytest.raises(InstanceError):
            synthesize_beast_buffs(0)
        with pytest.raises(ValueError):
            synthesize_beast_buffs(3, "mystery")
        # A bad value is reported before a bad mode.
        with pytest.raises(InstanceError):
            synthesize_beast_buffs(0, "mystery")

    @pytest.mark.parametrize("values, digest", [
        (range(1, 4097),
         "ff049decdc08705a9854cc1e65d01896e20e3262bcef04a376c79bcce2fbc40f"),
        (seeded_values(28, 300, 2 ** 40),
         "f238b1f0393ce32285c88cff5070aa813a895f86fd93683e459b3d6e973633c5"),
    ], ids=["to_4096", "seeded_to_2_40"])
    def test_sequences_are_pinned(self, values, digest) -> None:
        """Every carrier's sequence, final attack and length, past the 1-64
        the tests above walk: v = 1...4096, and 300 seeded values up to
        2**40."""
        h = hashlib.sha256()
        for v in values:
            for seq in (synthesize_demon_buffs(v), synthesize_beast_buffs(v, "blessed"),
                        synthesize_beast_buffs(v, "backstab")):
                h.update(repr((seq.cards, seq.final_attack, seq.buff_length)).encode())
        assert h.hexdigest() == digest


def simulate_buffs(carrier: str, cards: tuple[str, ...]) -> int:
    """Cast the buff cards one at a time at a lone friendly carrier and
    report its final attack, refilling mana and hand between casts.

    The deck holds filler because beast-targeted marks draw a card; an
    empty deck would fatigue the casting hero to death mid-sequence."""
    obj = {
        "formatVersion": 1,
        "players": [
            {"hero": {"health": 30, "manaCrystals": 10},
             "deck": ["Innervate"] * 64, "hand": [], "board": [{"card": carrier}]},
            {"hero": {"health": 30, "manaCrystals": 10},
             "deck": [], "hand": [], "board": []},
        ],
        "active": 0,
        "turn": 1,
        "turnLimit": 500,
    }
    state = GameConfig.from_json_obj(obj).to_state()
    for card_id in cards:
        state.players[0].hand[:] = [card_id]
        state.players[0].mana = 10
        state = apply(state, PlayCard(0, target=minion_ref(0, 0)))
    return state.players[0].board[0].attack


class TestBuffSimulation:
    """The synthesized sequences, replayed card by card through the rules
    engine, must land on exactly the attack the synthesizer claims."""

    def test_demon_sequences_play_out(self) -> None:
        for v in (1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 21):
            seq = synthesize_demon_buffs(v)
            assert simulate_buffs(FLOATING_WATCHER, seq.cards) == 10 * v

    def test_beast_blessed_sequences_play_out(self) -> None:
        for v in (1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 21):
            seq = synthesize_beast_buffs(v, "blessed")
            assert simulate_buffs(GAHZRILLA, seq.cards) == 10 * v

    def test_beast_backstab_sequences_play_out(self) -> None:
        """The self-damage route leans on the carrier's double-on-damage
        trigger and the repair heals; the engine must agree with the plan."""
        for v in (1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 21):
            seq = synthesize_beast_buffs(v, "backstab")
            assert simulate_buffs(GAHZRILLA, seq.cards) == 10 * v


def chosen_steps(line_obj: dict, vector: tuple[str, ...]) -> list[ScriptStep]:
    """The steps of a line file's object under ``vector``, in order: each
    branch gives the half its pair's choice picks.  A reference for step
    numbering that shares no code with ``run_line``."""
    out = []
    for turn in line_obj["turns"]:
        for item in turn["items"]:
            if "branch" in item:
                branch = item["branch"]
                half = branch[vector[branch["decision"] - 1]]
                out.extend(ScriptStep.from_json_obj(s) for s in half)
            else:
                out.append(ScriptStep.from_json_obj(item["step"]))
    return out


def _swap_last_needed_card_to_the_end(deck: list[str]) -> list[str]:
    k = max(i for i, cid in enumerate(deck) if cid != LIGHTS_JUSTICE)
    deck[k], deck[-1] = deck[-1], deck[k]
    return deck


class TestCompiledArtifacts:
    def test_compile_is_deterministic(self, worked_instance) -> None:
        first = compile_instance(worked_instance, validate="none")
        second = compile_instance(worked_instance, validate="none")
        assert first.config.to_json() == second.config.to_json()
        assert first.line.to_json() == second.line.to_json()

    def test_config_round_trips(self, worked_compiled) -> None:
        cfg = worked_compiled.config
        again = GameConfig.from_json(cfg.to_json())
        assert again.to_json() == cfg.to_json()

    def test_line_round_trips(self, worked_compiled) -> None:
        line = worked_compiled.line
        again = ScriptedLine.from_json(line.to_json())
        assert again.to_json() == line.to_json()
        assert again.turns == line.turns
        assert (chosen_steps(again.to_json_obj(), WORKED_VECTOR)
                == chosen_steps(line.to_json_obj(), WORKED_VECTOR))

    def test_line_rejects_unknown_format_version(self, worked_compiled) -> None:
        obj = worked_compiled.line.to_json_obj()
        obj["formatVersion"] = 2
        with pytest.raises(InstanceError):
            ScriptedLine.from_json_obj(obj)

    @pytest.mark.parametrize("text", ["[]", "1"])
    def test_line_must_be_an_object(self, text) -> None:
        with pytest.raises(InstanceError, match="top level is not a JSON object"):
            ScriptedLine.from_json(text)

    def test_accumulator_stats(self, worked_compiled) -> None:
        """The enemy anchor is a huge taunt wall whose health encodes the
        target: 10*18 + 2*4 + 8 for the worked instance."""
        anchor = worked_compiled.config.to_state().players[1].board[0]
        assert anchor.card_id == LEPER_GNOME
        assert anchor.health == 196
        assert anchor.attack >= 1000
        assert anchor.taunt

    def test_decision_metadata(self, worked_compiled) -> None:
        line = worked_compiled.line
        assert [d.index for d in line.decisions] == [1, 2, 3, 4]
        assert [d.turn for d in line.decisions] == [1, 2, 3, 4]
        assert [(d.x_value, d.y_value) for d in line.decisions] == [
            (1, 2), (4, 3), (5, 6), (8, 8)]
        assert [(d.x_attack, d.y_attack) for d in line.decisions] == [
            (12, 22), (42, 32), (52, 62), (82, 82)]
        assert [(d.x_destroyed, d.y_destroyed) for d in line.decisions] == [
            (10, 20), (40, 30), (50, 60), (80, 80)]

    def test_line_spans_expected_turns(self, worked_compiled) -> None:
        """Even pair counts need a dedicated verification turn before the
        enemy's punishment turn; odd counts fold verification into the last
        choice turn."""
        turns = worked_compiled.line.turns
        assert [(t.turn, t.side) for t in turns] == [
            (1, 0), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)]

        odd = compile_instance(PartitionInstance(((1, 2),), 1), validate="none")
        assert [(t.turn, t.side) for t in odd.line.turns] == [(1, 0), (2, 1)]

    @pytest.mark.parametrize("n, turns", [(1, 2), (2, 4), (3, 4), (4, 6)])
    def test_turn_limit_must_cover_line(self, n, turns) -> None:
        """The line spans n + 1 turns, and one more when n is even; the
        limit is checked against that count before anything is emitted."""
        instance = PartitionInstance(((1, 2),) * n, 1)
        result = compile_instance(instance, turn_limit=turns, validate="none")
        assert len(result.line.turns) == turns
        with pytest.raises(ScheduleInfeasible) as info:
            compile_instance(instance, turn_limit=turns - 1, validate="none")
        assert info.value.reason == (
            f"line spans {turns} turns but the turn limit is {turns - 1}")

    def test_card_missing_from_hand_is_infeasible(self, worked_compiled) -> None:
        """The chain a game plays lays each card it needs in the oldest
        drawn slot not yet laid; with none left, the card is not in hand.
        Turn 1 starts with one drawn slot, so the second summon has none."""
        emitter = _Emitter(worked_compiled.config)
        emitter.play(FLOATING_WATCHER, position=5)
        with pytest.raises(ScheduleInfeasible) as info:
            emitter.play(FLOATING_WATCHER, position=6)
        assert info.value.reason == "Floating Watcher not in hand"
        assert (info.value.turn, info.value.step) == (1, 1)
        assert emitter.laid == ({0: FLOATING_WATCHER}, {})

    def test_failing_step_is_numbered_along_its_half(self, worked_compiled) -> None:
        """A step's number is its position in its turn; inside a branch it
        counts the steps of the half that failed.  A y half lays no slot, so
        a card the x half did not lay is not in hand there."""
        emitter = _Emitter(worked_compiled.config)

        def swings(count: int) -> None:
            for _ in range(count):  # blocked by the taunt
                emitter.attack(hero_ref(0), hero_ref(1), optional=True)

        def missing() -> None:
            swings(1)
            emitter.play(FLASH_HEAL, hero_ref(0))

        swings(2)
        with pytest.raises(ScheduleInfeasible) as info:
            emitter.branch(1, (), lambda: swings(3), missing)
        assert info.value.reason == "Flash Heal not in hand"
        assert (info.value.turn, info.value.step) == (1, 3)
        emitter = _Emitter(worked_compiled.config)
        swings(2)
        emitter.branch(1, (), lambda: swings(3), lambda: swings(3))
        emitter.play(FLOATING_WATCHER, position=5)
        with pytest.raises(ScheduleInfeasible) as info:
            emitter.play(FLOATING_WATCHER, position=5)
        assert info.value.reason == "Floating Watcher not in hand"
        assert (info.value.turn, info.value.step) == (1, 6)

    def test_unfundable_cost_is_infeasible(self, worked_compiled) -> None:
        """Innervates go in while the mover's mana is short of a card's
        cost; once the game is decided none is applied, so the mana never
        rises and the card's cost cannot be funded."""
        emitter = _Emitter(worked_compiled.config)
        emitter.state.outcome = Outcome.ENEMY_WINS
        emitter.state.players[0].mana = 0
        with pytest.raises(ScheduleInfeasible) as info:
            emitter.play(ARCANE_INTELLECT)
        assert info.value.reason == "cannot fund cost 3 at mana cap"
        assert (info.value.turn, info.value.step) == (1, 1)

    def test_branch_halves_must_reconverge(self, worked_compiled) -> None:
        """The convergence check ignores the accumulator's health, and the
        parked survivor at enemy slot 4 on even turns only; any other
        difference between the halves is infeasible."""
        emitter = _Emitter(worked_compiled.config)
        base = emitter.state.clone()
        base.players[1].board.append(
            MinionInstance.from_card(card(LEPER_GNOME), base.next_iid))
        hurt = base.clone()
        hurt.players[1].board[0].health -= 1
        emitter._check_convergence(base, hurt, 1, 1)
        survivor = base.clone()
        survivor.players[1].board[4].health += 1
        emitter._check_convergence(base, survivor, 2, 2)
        drew = base.clone()
        drew.players[0].hand.append(FLASH_HEAL)
        for other, turn in ((survivor, 3), (drew, 2)):
            with pytest.raises(ScheduleInfeasible) as info:
                emitter._check_convergence(base, other, turn, turn)
            assert info.value.reason == "branch halves fail to reconverge"
        # Through emission: only the x half summons, so the boards differ.
        emitter = _Emitter(worked_compiled.config)
        with pytest.raises(ScheduleInfeasible) as info:
            emitter.branch(1, (), lambda: emitter.play(FLOATING_WATCHER, position=5),
                           lambda: None)
        assert info.value.reason == "branch halves fail to reconverge"
        assert (info.value.turn, info.value.step) == (1, 0)

    def test_compile_leaves_no_cyclic_garbage(self, worked_instance) -> None:
        """A compile frees everything it drops by reference counting alone:
        the branch halves are closures, and a reference cycle through one
        would leave garbage behind every compile for the collector."""
        gc.collect()
        gc.disable()
        try:
            compile_instance(worked_instance, validate="canonical")
            compile_instance(PartitionInstance(((1, 2),), 2), validate="canonical")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_seeded_outputs_are_pinned(self) -> None:
        """Byte pin over 40 seeded instances (n 1-14, values 0-300, every
        fourth with a zero so the shift path runs).  A deck one card short
        still compiles and validates, so only this pin guards the padding."""
        digest = hashlib.sha256()
        for instance in _pinned_instances():
            result = compile_instance(instance, validate="none")
            digest.update((result.config.to_json() + result.line.to_json()).encode())
        assert digest.hexdigest() == (
            "247a685ee6fc7c202cb7ff246340ce409eebce3ca0a5a47f57635645ea9fdf80")

    @pytest.mark.parametrize("mutate, step, reason", [
        (lambda deck: deck[1:], 1, "no card in hand slot 0"),  # the first card never arrives
        (_swap_last_needed_card_to_the_end, 284,  # the final Charge comes last
         "Light's Justice takes no target or position"),
    ], ids=["first_card_dropped", "late_card_last"])
    def test_engine_replay_guards_the_deck(self, worked_instance, tmp_path, monkeypatch,
                                           capsys, mutate, step, reason) -> None:
        """The emitter lays the decks from its own engine run, so the
        validating replay is the one check that they fit the line: a friendly
        deck that supplies a card late fails there, at the line's step
        that plays it, and ``compile`` exits 3."""
        build = compiler.build_config

        def broken(shifted, friendly_deck, enemy_deck, turn_limit):
            return build(shifted, mutate(friendly_deck), enemy_deck, turn_limit)

        monkeypatch.setattr(compiler, "build_config", broken)
        message = f"vector xxxx replay rejects step {step}: {reason}"
        with pytest.raises(ScheduleInfeasible) as info:
            compile_instance(worked_instance, validate="canonical")
        assert str(info.value) == message
        path = tmp_path / "worked.json"
        path.write_text(json.dumps(worked_instance.to_json_obj()))
        assert main(["compile", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: schedule infeasible: {message}\n"

    @pytest.mark.parametrize("validate", ["canonical", "all"])
    def test_validation_checks_each_card_played(self, worked_instance, tmp_path,
                                                monkeypatch, capsys, validate) -> None:
        """Swapping the enemy deck's last Frost Nova with its final Light's
        Justice leaves every step legal and every outcome right, since both
        cards are untargeted; the validating replay still names the vector
        and the step that plays the wrong card, and ``compile`` exits 3."""
        build = compiler.build_config

        def swapped(shifted, friendly_deck, enemy_deck, turn_limit):
            last = {cid: k for k, cid in enumerate(enemy_deck)}
            nova, justice = last[FROST_NOVA], last[LIGHTS_JUSTICE]
            enemy_deck[nova], enemy_deck[justice] = enemy_deck[justice], enemy_deck[nova]
            return build(shifted, friendly_deck, enemy_deck, turn_limit)

        monkeypatch.setattr(compiler, "build_config", swapped)
        message = "vector xxxx replay step 259 plays Light's Justice, not Frost Nova"
        with pytest.raises(ScheduleInfeasible) as info:
            compile_instance(worked_instance, validate=validate)
        assert str(info.value) == message
        path = tmp_path / "worked.json"
        path.write_text(json.dumps(worked_instance.to_json_obj()))
        argv = ["compile", str(path), "--out-dir", str(tmp_path / "out"), "--validate", validate]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: schedule infeasible: {message}\n"

    def test_criterion_3_space_is_pinned(self) -> None:
        """Byte pin over the criterion-3 pair space (every one to three
        pairs of values 0-2, 819 pair sets) at target 3."""
        space = list(itertools.product(range(3), repeat=2))
        digest = hashlib.sha256()
        for n in (1, 2, 3):
            for pairs in itertools.product(space, repeat=n):
                result = compile_instance(PartitionInstance(pairs, 3), validate="none")
                digest.update((result.config.to_json() + result.line.to_json()).encode())
        assert digest.hexdigest() == (
            "62b282b9602c13e8fc23fce31432e711b159e8bd65fb38bfe6dc90faf0ff9ce2")

    def test_laid_decks_play_out_the_canonical_lines(self) -> None:
        """On the built config, with the wall inflated as ``compile_instance``
        inflates it, the all-x and all-y lines play every required step, end
        ``enemy_wins`` in the punishment turn, and draw each side's deck to
        its last card without fatigue: a deck one card short or one card long
        fails.  Over the criterion-3 pair space and the 40 pinned instances."""
        space = list(itertools.product(range(3), repeat=2))
        pair_sets = [pairs for n in (1, 2, 3) for pairs in itertools.product(space, repeat=n)]
        pair_sets += [instance.pairs for instance in _pinned_instances()]
        for pairs in pair_sets:
            result = compile_instance(PartitionInstance(tuple(pairs), 0), validate="none")
            shifted = result.shifted
            obj = result.config.to_json_obj()
            wall = obj["players"][1]["board"][0]
            margin = 10 * sum(shifted.values()) + 10 * shifted.target + 10_000
            wall["health"] += margin
            wall["maxHealth"] += margin
            for choice in "xy":
                final = run_line(GameConfig(obj), result.line, (choice,) * len(pairs))
                assert final.outcome is Outcome.ENEMY_WINS, (pairs, choice)
                assert [(p.deck_remaining, p.fatigue) for p in final.players] == [
                    (0, 0), (0, 0)], (pairs, choice)

    def test_line_shares_one_object_per_distinct_step(self, worked_compiled) -> None:
        lines = [worked_compiled.line] + [
            compile_instance(instance, validate="none").line
            for instance in _pinned_instances()[:8]]
        # A decoded line shares its steps as the compiled line does.
        lines.append(ScriptedLine.from_json(worked_compiled.line.to_json()))
        for line in lines:
            steps = []
            for turn in line.turns:
                for item in turn.items:
                    if isinstance(item, Branch):
                        steps += item.x_steps + item.y_steps
                    else:
                        steps.append(item)
            assert len({id(s) for s in steps}) == len(set(steps)) < len(steps)


def _pinned_instances() -> list[PartitionInstance]:
    """The 40 seeded instances of the compile pin."""
    rng = random.Random(20261018)
    out = []
    for k in range(40):
        n = 1 + k % 14
        pairs = tuple((rng.randint(0, 300), rng.randint(0, 300)) for _ in range(n))
        if k % 4 == 0:
            i = rng.randrange(n)
            pairs = pairs[:i] + ((0, pairs[i][1]),) + pairs[i + 1:]
        target = rng.randint(0, sum(max(p) for p in pairs))
        out.append(PartitionInstance(pairs, target))
    return out


def _stdlib_line_text(line: ScriptedLine) -> str:
    return json.dumps(line.to_json_obj(), indent=2, sort_keys=True) + "\n"


def _step(action: dict, optional: bool = False) -> dict:
    return {"action": action, "optional": True} if optional else {"action": action}


class TestLineText:
    """``ScriptedLine.to_json`` writes, from memoised step texts, the text
    the standard library writes of ``to_json_obj``."""

    def test_seeded_lines_match_the_stdlib(self) -> None:
        """Each compiled line, and a copy of it in which every step is its
        own object, equal to others but not shared with them: the text is
        kept by object identity, so the copy must write the same text."""
        def unshared(steps):
            return tuple(ScriptStep(s.action, s.optional) for s in steps)

        rng = random.Random(20261020)
        for k in range(28):
            n = 1 + k % 14
            pairs = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(n))
            if k % 4 == 0:  # a zero, so the value shift shows in the head
                pairs = ((0, pairs[0][1]),) + pairs[1:]
            target = rng.randint(0, sum(max(p) for p in pairs))
            line = compile_instance(PartitionInstance(pairs, target), validate="none").line
            copy = ScriptedLine(line.instance, line.value_shift, line.decisions, tuple(
                TurnScript(t.turn, t.side, tuple(
                    Branch(it.decision, unshared(it.x_steps), unshared(it.y_steps))
                    if isinstance(it, Branch) else unshared((it,))[0]
                    for it in t.items))
                for t in line.turns))
            assert line.to_json() == _stdlib_line_text(line) == copy.to_json()

    def test_hand_built_line_matches_the_stdlib(self) -> None:
        """An empty turn and an empty branch half, optional steps, spell
        targets, a summon position and hero attacks; the same step both
        plain and inside a branch, where it sits two levels deeper."""
        ping = {"play": {"hand": 0, "target": {"side": 1, "slot": 2}}}
        swing = {"attack": {"attacker": {"hero": 0}, "defender": {"hero": 1}}}
        obj = {
            "formatVersion": 1,
            "kind": "line",
            "instance": {"pairs": [[0, 2], [3, 1]], "target": 3},
            "valueShift": 1,
            "decisions": [
                {"index": 1, "turn": 1, "x": 0, "y": 2, "xAttack": 12, "yAttack": 32,
                 "xDestroyed": 10, "yDestroyed": 30},
                {"index": 2, "turn": 3, "x": 3, "y": 1, "xAttack": 42, "yAttack": 22,
                 "xDestroyed": 40, "yDestroyed": 20},
            ],
            "turns": [
                {"turn": 1, "side": 0, "items": [
                    {"step": _step(ping)},
                    {"step": _step({"play": {"hand": 2, "position": 6}})},
                    {"branch": {"decision": 1, "x": [_step(ping), _step(swing, True)],
                                "y": []}},
                    {"step": _step({"end": True})},
                ]},
                {"turn": 2, "side": 1, "items": []},
                {"turn": 3, "side": 0, "items": [
                    {"branch": {"decision": 2, "x": [],
                                "y": [_step({"play": {"hand": 1, "target": {"hero": 1}}}),
                                      _step({"end": True})]}},
                    {"step": _step(swing, True)},
                ]},
            ],
        }
        line = ScriptedLine.from_json_obj(obj)
        text = line.to_json()
        assert text == _stdlib_line_text(line)
        assert json.loads(text) == obj


class TestValidation:
    def test_all_vectors_mode(self) -> None:
        inst = PartitionInstance(((1, 2), (2, 1)), 3)
        result = compile_instance(inst, validate="all")
        assert result.value_shift == 0

    def test_zero_valued_instance_compiles(self) -> None:
        inst = PartitionInstance(((0, 1),), 0)
        result = compile_instance(inst, validate="all")
        assert result.value_shift == 1
        assert result.shifted.pairs == ((1, 2),)
        assert result.shifted.target == 1

    def test_unknown_mode_rejected(self, worked_instance) -> None:
        with pytest.raises(ValueError):
            compile_instance(worked_instance, validate="mystery")


class TestRunLine:
    def test_worked_vector_wins(self, worked_compiled) -> None:
        assert chosen_sum(worked_compiled.instance, WORKED_VECTOR) == WORKED_TARGET
        final = run_line(worked_compiled.config, worked_compiled.line, WORKED_VECTOR)
        assert final.outcome is Outcome.FRIENDLY_WINS

    def test_off_target_vectors_lose(self, worked_compiled) -> None:
        for vector in (("x", "x", "y", "x"), ("y", "y", "y", "y"),
                       ("x", "y", "x", "x")):
            assert chosen_sum(worked_compiled.instance, vector) != WORKED_TARGET
            final = run_line(worked_compiled.config, worked_compiled.line, vector)
            assert final.outcome is Outcome.ENEMY_WINS

    def test_decision_events(self, worked_compiled) -> None:
        log = EventLog()
        run_line(worked_compiled.config, worked_compiled.line, WORKED_VECTOR, log)
        decisions = [e for e in log.events if e.kind == "decision"]
        assert [e.data["decision"] for e in decisions] == [1, 2, 3, 4]
        assert [e.data["chosen"] for e in decisions] == list(WORKED_VECTOR)
        assert [(e.data["x_attack"], e.data["y_attack"]) for e in decisions] == [
            (12, 22), (42, 32), (52, 62), (82, 82)]
        # The rejected carrier of each pair dies at its unboosted stat.
        assert [e.data["destroyed_at"] for e in decisions] == [20, 40, 50, 80]

    def test_on_step_sees_every_step(self, worked_compiled) -> None:
        """``on_step`` sees the chosen line's steps in order, as the line's
        scripted ``ScriptStep`` objects, each with why it was skipped (None
        if taken)."""
        seen: list[tuple[int, ScriptStep, str | None]] = []
        run_line(worked_compiled.config, worked_compiled.line, WORKED_VECTOR,
                 on_step=lambda index, step, skipped, state: seen.append(
                     (index, step, skipped)))
        steps = chosen_steps(worked_compiled.line.to_json_obj(), WORKED_VECTOR)
        assert [index for index, _, _ in seen] == list(range(len(seen)))
        # The outcome locks on the final scripted blow, truncating the tail.
        assert len(seen) <= len(steps)
        assert [step for _, step, _ in seen] == steps[:len(seen)]
        assert all(type(step) is ScriptStep for _, step, _ in seen)
        # Only an optional step may be skipped, and it says why.
        for _, step, skipped in seen:
            assert skipped is None or (step.optional and isinstance(skipped, str))

    def test_vector_length_checked(self, worked_compiled) -> None:
        with pytest.raises(ValueError, match="vector must have 4 entries"):
            run_line(worked_compiled.config, worked_compiled.line, ("x",))
        log = EventLog()
        with pytest.raises(ValueError, match="choice must be 'x' or 'y', got 'z'"):
            run_line(worked_compiled.config, worked_compiled.line, ("x", "y", "z", "x"), log)
        assert len(log) == 0  # checked before the game starts


class TestChosenSum:
    def test_sums_choices(self) -> None:
        inst = PartitionInstance(((1, 2), (4, 3), (5, 6)), 0)
        assert chosen_sum(inst, ("x", "x", "x")) == 10
        assert chosen_sum(inst, ("y", "y", "y")) == 11
        assert chosen_sum(inst, ("x", "y", "x")) == 9
