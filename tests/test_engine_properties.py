"""Property-based engine checks: random legal walks uphold the invariants,
``apply_in_place`` (with and without a log) and ``replay`` agree with
``apply``, a ``fork()`` steps like a deep ``clone()``, and the snapshot
writer matches ``json.dumps`` on the states these walks reach."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WORKED_VECTOR
from hearthproof.compiler import PartitionInstance, compile_instance, run_line
from hearthproof.engine import (
    apply, apply_in_place, legal_actions, replay, run_script, start_game)
from hearthproof.state import (
    Attack,
    EndTurn,
    EventLog,
    GameConfig,
    GameState,
    IllegalAction,
    Outcome,
    PlayCard,
    PlayerState,
    ScriptStep,
    SnapshotMemo,
    hero_ref,
    minion_ref,
    position_key,
    snapshot_json,
    state_to_json_obj,
    total_card_count,
)

from invariants import MAX_MANA, assert_invariants
from micro_positions import micro_positions


def micro_config() -> GameConfig:
    obj = {
        "formatVersion": 1,
        "players": [
            {
                "hero": {"health": 14, "manaCrystals": 6,
                         "weapon": {"attack": 1, "durability": 2}},
                "deck": ["Innervate", "Charge", "Frost Nova", "Novice Engineer"],
                "hand": ["Mortal Coil", "Backstab", "Novice Engineer"],
                "board": [{"card": "Gadgetzan Auctioneer"}],
            },
            {
                "hero": {"health": 12, "manaCrystals": 5},
                "deck": ["Mortal Coil", "Innervate"],
                "hand": ["Frost Nova", "Leper Gnome"],
                "board": [{"card": "Leper Gnome"},
                          {"card": "Mistress of Mixtures"}],
            },
        ],
        "active": 0,
        "turn": 1,
        "turnLimit": 12,
    }
    return GameConfig.from_json_obj(obj)


def micro_state():
    return start_game(micro_config())


@pytest.fixture(scope="module")
def compiled_config():
    return compile_instance(PartitionInstance(((1, 2),), 2), validate="none").config


@pytest.fixture(scope="module")
def compiled_state(compiled_config):
    return start_game(compiled_config)


class TestRandomWalks:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_micro_walk_upholds_invariants(self, data) -> None:
        state = micro_state()
        total = total_card_count(state)
        for _ in range(60):
            actions = legal_actions(state)
            if not actions:
                break
            pick = data.draw(st.integers(0, len(actions) - 1))
            state = apply(state, actions[pick])
            assert_invariants(state, total)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_compiled_walk_upholds_invariants(self, data, compiled_state) -> None:
        state = compiled_state
        total = total_card_count(state)
        for _ in range(40):
            actions = legal_actions(state)
            if not actions:
                break
            pick = data.draw(st.integers(0, len(actions) - 1))
            state = apply(state, actions[pick])
            assert_invariants(state, total)


class TestActionEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_listed_action_applies(self, data) -> None:
        """legal_actions never lists something apply would reject."""
        state = micro_state()
        for _ in range(data.draw(st.integers(0, 30))):
            actions = legal_actions(state)
            if not actions:
                break
            state = apply(state, actions[data.draw(st.integers(0, len(actions) - 1))])
        for action in legal_actions(state):
            apply(state, action)  # must not raise

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_apply_is_deterministic_and_pure(self, data) -> None:
        state = micro_state()
        for _ in range(data.draw(st.integers(0, 25))):
            actions = legal_actions(state)
            if not actions:
                break
            action = actions[data.draw(st.integers(0, len(actions) - 1))]
            before = state.canonical()
            first = apply(state, action)
            second = apply(state, action)
            assert first.canonical() == second.canonical()
            assert state.canonical() == before
            state = first


def seeded_walk(config: GameConfig, seed: int, steps: int):
    """States and actions of a seeded legal walk, run on until decided."""
    rng = random.Random(seed)
    state = start_game(config)
    states, actions = [state], []
    for _ in range(steps):
        acts = legal_actions(state)
        if not acts:
            break
        actions.append(rng.choice(acts))
        state = apply(state, actions[-1])
        states.append(state)
    while state.outcome is Outcome.ONGOING:  # the turn limit bounds this
        actions.append(EndTurn())
        state = apply(state, actions[-1])
        states.append(state)
    return states, actions


def illegal_probes(state) -> list:
    """Actions aimed at every rejection path that ``legal_actions`` avoids."""
    side, opp = state.active, 1 - state.active
    p = state.players[side]
    refs = [hero_ref(0), hero_ref(1)] + [
        minion_ref(s, k) for s in (0, 1) for k in range(len(state.players[s].board))
    ]
    refs.append(minion_ref(opp, len(state.players[opp].board)))
    probes: list = [PlayCard(len(p.hand)), PlayCard(-1), PlayCard(99, None, 0), None]
    for hi in range(len(p.hand)):
        probes.append(PlayCard(hi, None, 0))  # a position on a spell or weapon
        probes.append(PlayCard(hi, None, len(p.board) + 1))
        probes.extend(PlayCard(hi, ref) for ref in refs)  # shielded, untargeted
    for k in range(len(p.board) + 1):  # exhausted, spent or empty slots
        probes.append(Attack(minion_ref(side, k), hero_ref(opp)))
        probes.append(Attack(minion_ref(side, k), minion_ref(opp, 0)))
    probes.append(Attack(hero_ref(side), hero_ref(opp)))  # through taunts
    probes.append(Attack(hero_ref(opp), hero_ref(side)))
    probes.append(Attack(hero_ref(side), hero_ref(side)))
    probes.append(EndTurn())
    return probes


def snapshot(state) -> tuple:
    return state.canonical(), state.next_iid


class TestApplyInPlace:
    """``apply_in_place`` matches ``apply``, and a rejected action changes
    nothing: every ``IllegalAction`` is raised before the first mutation."""

    @pytest.fixture(scope="class")
    def probed_states(self, worked_compiled, compiled_config) -> list:
        """Seeded walks from three starts, each with its decided end, and
        every fifth position of the worked line."""
        states = []
        for config in (worked_compiled.config, compiled_config, micro_config()):
            for seed in range(4):
                walk, _ = seeded_walk(config, seed, 40)
                states += walk[:41] + walk[-1:]
        line = []
        run_line(worked_compiled.config, worked_compiled.line, WORKED_VECTOR,
                 on_step=lambda index, step, skipped, state: line.append(state.clone()))
        return states + line[::5]

    def test_matches_apply_and_rejects_without_mutation(self, probed_states) -> None:
        """Also run without a log: the state must come out as with one.  A
        fresh log numbers its events from 0, mid-game as at the start."""
        rejected = applied = decided = 0
        for state in probed_states:
            decided += state.outcome is not Outcome.ONGOING
            before = snapshot(state)
            for action in legal_actions(state) + illegal_probes(state):
                pure_log, live_log = EventLog(), EventLog()
                live, quiet = state.clone(), state.clone()
                try:
                    expected = apply(state, action, pure_log)
                except IllegalAction:
                    expected = None
                try:
                    apply_in_place(quiet, action)
                except IllegalAction:
                    assert expected is None, action
                    assert snapshot(quiet) == before, action
                else:
                    assert expected is not None, action
                    assert snapshot(quiet) == snapshot(expected), action
                try:
                    apply_in_place(live, action, live_log)
                except IllegalAction:
                    assert expected is None, action
                    assert snapshot(live) == before, action
                    assert live_log.events == []
                    rejected += 1
                else:
                    assert expected is not None, action
                    assert snapshot(live) == snapshot(expected), action
                    assert [e.to_json_obj() for e in live_log.events] == [
                        e.to_json_obj() for e in pure_log.events
                    ]
                    assert [e.step for e in live_log.events] == list(
                        range(len(live_log.events))), action
                    applied += 1
                assert snapshot(state) == before
        assert rejected > applied > 0
        assert decided >= 12  # every walk ends on a decided state


class TestReplay:
    def test_reproduces_a_legal_walk(self, worked_compiled) -> None:
        for config in (micro_config(), worked_compiled.config):
            for seed in range(3):
                states, actions = seeded_walk(config, seed, 40)
                final = replay(config, actions)
                assert final.canonical() == states[-1].canonical()

    def test_illegal_action_reports_its_index(self) -> None:
        states, actions = seeded_walk(micro_config(), 5, 20)
        for k in (0, len(actions) // 2, len(actions) - 1):
            bad = actions[:k] + [PlayCard(99)] + actions[k:]
            with pytest.raises(IllegalAction) as info:
                replay(micro_config(), bad)
            assert info.value.step == k

    def test_stops_at_a_decided_outcome(self) -> None:
        states, actions = seeded_walk(micro_config(), 2, 30)
        assert states[-1].outcome is not Outcome.ONGOING
        final = replay(micro_config(), actions + [PlayCard(99), EndTurn()])
        assert final.canonical() == states[-1].canonical()


class TestRunScript:
    """``run_script`` holds the replay rule: skip an illegal optional step,
    raise on any other illegal step, stop once the game is decided."""

    def test_illegal_optional_step_yields_its_reason(self, worked_compiled) -> None:
        skipped = 0
        for config in (micro_config(), worked_compiled.config):
            states, _ = seeded_walk(config, 3, 30)
            for state in states[:-1:3]:
                for action in illegal_probes(state):
                    try:
                        apply(state, action)
                        continue
                    except IllegalAction as exc:
                        reason = exc.reason
                    live = state.clone()
                    step = ScriptStep(action, optional=True)
                    assert list(run_script(live, [step])) == [(0, step, reason)]
                    assert snapshot(live) == snapshot(state), action
                    skipped += 1
        assert skipped > 100

    def test_illegal_required_step_raises_with_its_index(self) -> None:
        states, actions = seeded_walk(micro_config(), 5, 20)
        for k in (0, len(actions) // 2, len(actions) - 1):
            steps = [ScriptStep(a) for a in actions[:k]] + [ScriptStep(PlayCard(99))]
            state = start_game(micro_config())
            with pytest.raises(IllegalAction) as info:
                for _ in run_script(state, steps):
                    pass
            assert (info.value.step, info.value.reason) == (k, "no card in hand slot 99")
            assert snapshot(state) == snapshot(states[k])

    def test_pulls_no_step_after_the_deciding_one(self) -> None:
        states, actions = seeded_walk(micro_config(), 2, 30)
        assert states[-1].outcome is not Outcome.ONGOING
        pulled = []

        def source():
            for action in actions + [PlayCard(99), EndTurn()]:
                pulled.append(action)
                yield ScriptStep(action)

        state = start_game(micro_config())
        ran = [(index, skipped) for index, _, skipped in run_script(state, source())]
        assert ran == [(k, None) for k in range(len(actions))]
        assert len(pulled) == len(actions)
        assert snapshot(state) == snapshot(states[-1])
        assert list(run_script(state, source())) == []  # decided: pulls nothing
        assert len(pulled) == len(actions)


def random_suffix(state, rng: random.Random, length: int, log: EventLog) -> list:
    """Step ``state`` in place through up to ``length`` random legal actions."""
    actions = []
    for _ in range(length):
        acts = legal_actions(state)
        if not acts:
            break
        actions.append(rng.choice(acts))
        apply_in_place(state, actions[-1], log)
    return actions


class TestFork:
    """A fork shares its source's players and minions, yet each of the two
    steps and keys exactly as a deep ``clone()`` would and leaves the other
    as it was."""

    def test_fork_and_source_step_like_clones(self, worked_compiled, compiled_config) -> None:
        starts = [worked_compiled.config, compiled_config, micro_config()]
        starts += [config for _, config, _ in micro_positions()]
        rng = random.Random(8)
        seen: set[str] = set()
        forks = 0
        for config in starts:
            for seed in range(8):
                walk, _ = seeded_walk(config, seed, 60)
                for k, state in enumerate(walk):
                    # Every other source is a fork itself: forks of forks
                    # leave the first state alone too.
                    source = state.fork() if k % 2 else state.clone()
                    original = snapshot(state)
                    reference = source.clone()
                    fork = source.fork()
                    assert position_key(fork) == position_key(source)
                    fork_log, source_log = EventLog(), EventLog()
                    fork_actions = random_suffix(fork, rng, 16, fork_log)
                    assert snapshot(source) == snapshot(reference)
                    fork_after = snapshot(fork)
                    source_actions = random_suffix(source, rng, 16, source_log)
                    assert snapshot(fork) == fork_after
                    for actions, stepped, log in ((fork_actions, fork, fork_log),
                                                  (source_actions, source, source_log)):
                        expected, expected_log = reference.clone(), EventLog()
                        for action in actions:
                            apply_in_place(expected, action, expected_log)
                        assert snapshot(stepped) == snapshot(expected)
                        assert [e.to_json_obj() for e in log.events] == [
                            e.to_json_obj() for e in expected_log.events]
                        seen.update(e.kind for e in log.events)
                    assert snapshot(state) == original
                    forks += 1
        assert forks > 500
        # The suffixes reach every kind of minion write: combat, the
        # freeze and its thaw at a turn end, buffs, Mind Control, deaths.
        assert {"damage", "freeze", "end_turn", "buff", "steal", "death"} <= seen

    def test_each_side_keys_and_steps_like_a_clone_taken_before_its_steps(
            self, worked_compiled, compiled_config) -> None:
        """Fork a position of a seeded walk and key both sides twice, so
        that each keeps the encoded parts of the players and minions they
        share.  Then step one side in place and then the other, the side
        stepped second standing for the rejoin probe's in-place last child,
        with fork and source taking turns to go first.  After each step a
        side's ``canonical()`` and ``position_key`` equal those of a
        ``clone()`` taken before its own steps and stepped alike, and the
        other side's are as they were."""
        nine = compile_instance(PartitionInstance(NINE_PAIRS, 41), validate="none").config
        starts = [worked_compiled.config, compiled_config, nine]
        starts += [config for _, config, _ in micro_positions()]
        rng = random.Random(26)
        seen = {"forks": 0, "first_plays": 0, "shared_after_play": 0}
        for config in starts:
            for seed in range(40):
                walk, _ = seeded_walk(config, seed, 60)
                for k, state in enumerate(walk[:-1]):
                    source = state.fork()
                    fork = source.fork()
                    order = [fork, source] if k % 2 else [source, fork]
                    for side in order * 2:
                        position_key(side)
                    for stepped, other in (order, order[::-1]):
                        before = other.canonical(), position_key(other)
                        reference = stepped.clone()
                        for step in range(6):
                            actions = legal_actions(stepped)
                            if not actions:
                                break
                            action = rng.choice(actions)
                            opp = 1 - stepped.active
                            apply_in_place(stepped, action)
                            apply_in_place(reference, action)
                            assert stepped.canonical() == reference.canonical()
                            assert position_key(stepped) == position_key(reference)
                            if step == 0 and isinstance(action, PlayCard):
                                seen["first_plays"] += 1
                                seen["shared_after_play"] += (
                                    stepped.players[opp] is other.players[opp])
                        assert (other.canonical(), position_key(other)) == before
                    seen["forks"] += 1
        assert seen["forks"] > 1500
        # Many plays leave the opponent shared: the mechanism engages.
        assert seen["shared_after_play"] > 150


    def test_clone_of_a_fork_owns_everything_it_holds(self, worked_compiled) -> None:
        """Writing every position field of each player of a fork's clone
        (all but its deck, an immutable shared tuple) and every minion on
        its board directly changes neither the fork nor its source, and the
        clone is still a valid position."""
        starts = [worked_compiled.config] + [config for _, config, _ in micro_positions()]
        seen = {"states": 0, "minions": 0, "hands": 0, "weapons": 0}
        for config in starts:
            for seed in range(8):
                walk, _ = seeded_walk(config, seed, 60)
                for state in walk:
                    fork = state.fork()
                    before = [(s.canonical(), position_key(s)) for s in (state, fork)]
                    total = total_card_count(state)
                    copy = fork.clone()
                    for p in copy.players:
                        p.health += 1
                        p.max_health += 1
                        if p.weapon is not None:
                            p.weapon = p.weapon._replace(attack=p.weapon.attack + 1)
                            seen["weapons"] += 1
                        p.mana = p.mana_crystals = (p.mana_crystals + 1) % (MAX_MANA + 1)
                        p.attacked = not p.attacked
                        p.frozen = not p.frozen
                        p.fatigue += 1
                        if p.deck_remaining:
                            p.deck_pos += 1
                            copy.removed += 1
                        if p.hand:
                            p.hand.pop()
                            copy.removed += 1
                            seen["hands"] += 1
                        p.board.reverse()
                        for m in p.board:
                            m.attack += 1
                            m.health += 1
                            m.max_health += 1
                            m.taunt = not m.taunt
                            m.frozen = not m.frozen
                            m.exhausted = not m.exhausted
                            m.charge = not m.charge
                            m.attacked = not m.attacked
                            seen["minions"] += 1
                    assert [(s.canonical(), position_key(s)) for s in (state, fork)] == before
                    assert copy.canonical() != before[1][0]
                    assert_invariants(copy, total)
                    seen["states"] += 1
        assert seen["states"] > 400 and seen["minions"] > 600
        assert seen["hands"] > 100 and seen["weapons"] > 100

    def test_fork_builds_and_shares_what_it_documents(
            self, worked_compiled, compiled_config) -> None:
        """A fork is a new state with a new ``players`` list holding the same
        two players, every other slot the same, and fresh ``gen``s on both
        sides, so neither owns the players.  ``own(side)`` then swaps in a
        copy with every slot the same but for new hand and board lists of
        the same cards and minions, the state's ``gen`` and no key part; it
        owns none of those minions, and the other side keeps the player."""
        starts = [worked_compiled.config, compiled_config, micro_config()]
        seen = {"minions": 0, "weapons": 0}
        for config in starts:
            for seed in range(4):
                walk, _ = seeded_walk(config, seed, 40)
                for k, state in enumerate(walk):
                    source = state.clone()
                    assert all(p.gen == source.gen for p in source.players)
                    gen = source.gen
                    fork = source.fork()
                    assert type(fork) is GameState
                    assert fork is not source and fork.players is not source.players
                    for name in GameState.__slots__:
                        if name not in ("players", "gen"):
                            assert getattr(fork, name) is getattr(source, name)
                    assert all(a is b for a, b in zip(fork.players, source.players))
                    assert len(fork.players) == len(source.players) == 2
                    assert len({gen, source.gen, fork.gen}) == 3
                    assert all(p.gen == gen for p in source.players)
                    # Each side copies on its first write, the other keeps
                    # the shared player.
                    writer, keeper = (fork, source) if k % 2 else (source, fork)
                    for side in (0, 1):
                        p = keeper.players[side]
                        q = writer.own(side)
                        assert writer.own(side) is q and writer.players[side] is q
                        assert type(q) is PlayerState and q is not p
                        assert keeper.players[side] is p and p.gen == gen
                        for name in PlayerState.__slots__:
                            if name not in ("hand", "board", "gen", "encoded"):
                                assert getattr(q, name) is getattr(p, name)
                        assert q.hand is not p.hand and q.hand == p.hand
                        assert q.board is not p.board
                        assert len(q.board) == len(p.board)
                        assert all(a is b for a, b in zip(q.board, p.board))
                        assert q.gen == writer.gen and q.encoded is None
                        assert all(m.gen != q.gen for m in q.board)
                        seen["minions"] += len(q.board)
                        seen["weapons"] += q.weapon is not None
        assert seen["minions"] > 500 and seen["weapons"] > 50


class TestEndTurn:
    """The two facts about ``EndTurn`` that the rejoin probe's skip rests
    on (see ``engine._end_turn``), at every state of seeded walks."""

    def test_keeps_the_mover_counters_and_harms_no_hero_before_fatigue(
            self, worked_compiled, compiled_config) -> None:
        starts = [worked_compiled.config, compiled_config, micro_config()]
        starts += [config for _, config, _ in micro_positions()]
        seen = {"draws": 0, "fatigue": 0}
        for config in starts:
            for seed in range(8):
                walk, _ = seeded_walk(config, seed, 60)
                for state in walk:
                    if state.outcome is not Outcome.ONGOING:
                        continue
                    side = state.active
                    child = apply(state, EndTurn())
                    mover, was = child.players[side], state.players[side]
                    # 1. The mover's deck position and hand size and both
                    #    board sizes stay as they were.
                    assert (mover.deck_pos, len(mover.hand)) == (
                        was.deck_pos, len(was.hand))
                    assert [len(p.board) for p in child.players] == [
                        len(p.board) for p in state.players]
                    nxt = state.players[1 - side]
                    if nxt.deck_pos == len(nxt.deck):
                        seen["fatigue"] += 1
                        continue
                    # 2. With a card to draw, no hero takes damage, and the
                    #    game goes on or ends in a turn-limit draw.
                    seen["draws"] += 1
                    assert [p.health for p in child.players] == [
                        p.health for p in state.players]
                    assert child.outcome is Outcome.ONGOING or (
                        child.outcome is Outcome.DRAW
                        and child.turn > child.turn_limit)
        assert seen["draws"] > 100 and seen["fatigue"] > 100


NINE_PAIRS = ((3, 7), (9, 2), (4, 4), (6, 1), (2, 8), (5, 5), (7, 3), (1, 9), (8, 6))


class TestHeroAttack:
    """The fact about a hero's attack that the rejoin probe's skip rests on
    (see ``engine._attack``), at every state of seeded walks."""

    def test_into_a_retaliation_of_its_health_loses_on_the_spot(
            self, worked_compiled, compiled_config) -> None:
        nine = compile_instance(PartitionInstance(NINE_PAIRS, 41), validate="none").config
        starts = [worked_compiled.config, compiled_config, nine, micro_config()]
        starts += [config for _, config, _ in micro_positions()]
        seen = {"lost": 0, "survived": 0}
        for config in starts:
            for seed in range(8):
                walk, _ = seeded_walk(config, seed, 60)
                for state in walk:
                    side = state.active
                    hero, enemies = state.players[side], state.players[1 - side].board
                    for action in legal_actions(state):
                        if not (isinstance(action, Attack) and action.attacker.is_hero
                                and not action.defender.is_hero):
                            continue
                        if enemies[action.defender.slot].attack < hero.health:
                            seen["survived"] += 1
                            continue
                        child = apply(state, action)
                        assert child.outcome is (
                            Outcome.ENEMY_WINS if side == 0 else Outcome.FRIENDLY_WINS)
                        seen["lost"] += 1
        assert seen["lost"] > 100 and seen["survived"] > 50


class TestSnapshotText:
    """``snapshot_json`` writes, from memoised part texts, the text
    ``json.dumps`` makes of the snapshot dict."""

    def test_matches_json_dumps_on_walks_and_lines(self, worked_compiled,
                                                   compiled_config) -> None:
        seen: set[str] = set()

        def check(state, index: int, memo: SnapshotMemo) -> None:
            obj = {"kind": "snapshot", "stepIndex": index, **state_to_json_obj(state)}
            assert snapshot_json(state, index, memo) == json.dumps(obj)
            seen.add(obj["outcome"])
            for player in obj["players"]:
                seen.update(flag for m in player["board"] for flag in m["flags"])
                seen.update(part for part in ("weapon", "fatigue") if player["hero"].get(part))

        # One memo across every walk, so a key that misses a printed field
        # meets a part that differs from a memoised one in that field alone.
        memo = SnapshotMemo()
        starts = [worked_compiled.config, compiled_config, micro_config()]
        starts += [config for _, config, _ in micro_positions()]
        for config in starts:
            for seed in range(4):
                walk, _ = seeded_walk(config, seed, 60)
                for k, state in enumerate(walk):
                    check(state, k, memo)

        # Seeded lines as ``replay --trace`` prints them: a memo per run.
        rng = random.Random(20261021)
        for n in range(1, 9):
            pairs = tuple((rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))
            vector = tuple(rng.choice("xy") for _ in range(n))
            compiled = compile_instance(PartitionInstance(pairs, 3 * n), validate="none")
            run_memo = SnapshotMemo()
            run_line(compiled.config, compiled.line, vector,
                     on_step=lambda index, step, skipped, state: check(state, index, run_memo))

        assert {"taunt", "frozen", "exhausted", "charge", "attacked", "weapon",
                "fatigue", "ongoing", "friendly_wins", "enemy_wins"} <= seen
