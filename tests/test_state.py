"""State layer: config validation, action JSON, position keys,
clone isolation."""

from __future__ import annotations

import copy
import pickle
import random
from typing import Callable

import pytest

from conftest import WORKED_PAIRS, WORKED_TARGET, WORKED_VECTOR
from hearthproof import solver
from hearthproof.cards import card
from hearthproof.compiler import PartitionInstance, compile_instance
from hearthproof.engine import apply, apply_in_place, legal_actions, start_game
from hearthproof.state import (
    _CARD_CODES,
    _OUTCOME_CODES,
    Attack,
    CharRef,
    ConfigError,
    EndTurn,
    EventLog,
    GameConfig,
    MinionInstance,
    Outcome,
    PlayCard,
    Weapon,
    action_from_json_obj,
    action_to_json_obj,
    hero_ref,
    minion_ref,
    position_key,
    state_to_json_obj,
)
from micro_positions import micro_positions


def micro_config_obj() -> dict:
    return {
        "formatVersion": 1,
        "players": [
            {
                "hero": {"health": 10, "manaCrystals": 2},
                "deck": ["Innervate"],
                "hand": ["Mortal Coil"],
                "board": [{"card": "Leper Gnome", "attack": 2, "health": 1}],
            },
            {
                "hero": {"health": 5, "manaCrystals": 0},
                "deck": [],
                "hand": [],
                "board": [],
            },
        ],
        "active": 0,
        "turn": 1,
        "turnLimit": 8,
    }


def faultless_config_obj() -> dict:
    """The micro config with a card in each zone of the second player."""
    obj = micro_config_obj()
    obj["players"][1].update(deck=["Innervate"], hand=["Innervate"],
                             board=[{"card": "Leper Gnome", "attack": 2, "health": 1}])
    return obj


def _fault(path: tuple, value) -> Callable[[dict], dict]:
    """A fault that sets the field at ``path`` to ``value``, or deletes it
    when ``value`` is ``_DELETE``; an empty path replaces the whole config."""
    def apply_fault(obj: dict) -> dict:
        if not path:
            return value
        *parents, last = path
        target = obj
        for step in parents:
            target = target[step]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = copy.deepcopy(value)
        return obj
    return apply_fault


_DELETE = object()
_P1 = ("players", 1)
_HERO = _P1 + ("hero",)
_ENTRY = _P1 + ("board", 0)

# (id, fault, message) for each check of the config parser, in the order
# the parser makes them.  One case per check, except where one check
# rejects more than one kind of fault.
CONFIG_FAULTS = [
    ("not_object", _fault((), []), "config must be an object"),
    ("format_version", _fault(("formatVersion",), 2), "formatVersion must be 1"),
    ("format_version_bool", _fault(("formatVersion",), True), "formatVersion must be 1"),
    ("format_version_float", _fault(("formatVersion",), 1.0), "formatVersion must be 1"),
    ("one_player", _fault(("players",), [{}]), "need exactly 2 players"),
    ("active", _fault(("active",), 2), "active must be 0 or 1"),
    ("turn", _fault(("turn",), 0), "turn must be >= 1"),
    ("turn_limit", _fault(("turnLimit",), 0), "turnLimit must be >= 1"),
    ("turn_past_limit", _fault(("turn",), 9), "turnLimit must be >= turn"),
    ("player_list", _fault(_P1, []), "players[1] must be an object"),
    ("hero_missing", _fault(_HERO, _DELETE), "players[1].hero missing"),
    ("hero_health", _fault(_HERO + ("health",), 0),
     "players[1].hero.health must be a positive integer"),
    ("hero_max_health", _fault(_HERO + ("maxHealth",), 4),
     "players[1].hero.maxHealth must be an integer >= health"),
    ("crystals", _fault(_HERO + ("manaCrystals",), 11),
     "players[1].hero.manaCrystals out of range"),
    ("weapon", _fault(_HERO + ("weapon",), {"attack": 1}), "players[1].hero.weapon malformed"),
    ("deck_str", _fault(_P1 + ("deck",), "Innervate"), "players[1].deck must be a list"),
    ("deck_unknown", _fault(_P1 + ("deck", 0), "Fireball"),
     "players[1].deck: unknown card 'Fireball'"),
    ("deck_list", _fault(_P1 + ("deck",), [["Innervate"]]),
     "players[1].deck: unknown card ['Innervate']"),
    ("hand_dict", _fault(_P1 + ("hand",), {}), "players[1].hand must be a list"),
    ("hand_unknown", _fault(_P1 + ("hand", 0), "Fireball"),
     "players[1].hand: unknown card 'Fireball'"),
    ("hand_list", _fault(_P1 + ("hand",), [["Innervate"]]),
     "players[1].hand: unknown card ['Innervate']"),
    ("hand_size", _fault(_P1 + ("hand",), ["Innervate"] * 11), "players[1].hand exceeds 10"),
    ("board_dict", _fault(_P1 + ("board",), {}), "players[1].board too large"),
    ("board_size", _fault(_P1 + ("board",), [{"card": "Leper Gnome"}] * 8),
     "players[1].board too large"),
    ("entry_str", _fault(_ENTRY, "Leper Gnome"), "players[1].board[0] needs a card"),
    ("entry_unknown", _fault(_ENTRY + ("card",), "Fireball"),
     "players[1].board[0]: unknown card 'Fireball'"),
    ("entry_list", _fault(_ENTRY + ("card",), ["Leper Gnome"]),
     "players[1].board[0]: unknown card ['Leper Gnome']"),
    ("entry_spell", _fault(_ENTRY + ("card",), "Charge"),
     "players[1].board[0]: Charge is not a minion"),
    ("flags_str", _fault(_ENTRY + ("flags",), "taunt"),
     "players[1].board[0]: flags must be a list"),
    ("flag_unknown", _fault(_ENTRY + ("flags",), ["taunt", "stealth"]),
     "players[1].board[0]: unknown flag 'stealth'"),
    ("entry_attack", _fault(_ENTRY + ("attack",), -1),
     "players[1].board[0]: attack must be a non-negative integer"),
    ("entry_health", _fault(_ENTRY + ("health",), 0), "players[1].board[0]: health out of range"),
    ("entry_max_health", _fault(_ENTRY + ("maxHealth",), 0),
     "players[1].board[0]: health out of range"),
]


class TestConfigValidation:
    def test_accepts_well_formed(self) -> None:
        GameConfig.from_json_obj(micro_config_obj())

    def test_rejects_wrong_format_version(self) -> None:
        obj = micro_config_obj()
        obj["formatVersion"] = 2
        with pytest.raises(ConfigError):
            GameConfig.from_json_obj(obj)

    def test_rejects_unknown_card(self) -> None:
        obj = micro_config_obj()
        obj["players"][0]["deck"] = ["Fireball"]
        with pytest.raises(ConfigError):
            GameConfig.from_json_obj(obj)

    def test_rejects_nonminion_on_board(self) -> None:
        obj = micro_config_obj()
        obj["players"][0]["board"] = [{"card": "Charge"}]
        with pytest.raises(ConfigError):
            GameConfig.from_json_obj(obj)

    def test_rejects_oversized_board(self) -> None:
        obj = micro_config_obj()
        obj["players"][0]["board"] = [{"card": "Novice Engineer"}] * 8
        with pytest.raises(ConfigError):
            GameConfig.from_json_obj(obj)

    def test_rejects_bad_flag(self) -> None:
        obj = micro_config_obj()
        obj["players"][0]["board"][0]["flags"] = ["stealth"]
        with pytest.raises(ConfigError):
            GameConfig.from_json_obj(obj)

    @pytest.mark.parametrize("zone, field, value", [
        ("hero", "maxHealth", "x"),
        ("hero", "manaCrystals", "x"),
        ("hero", "manaCrystals", 2.5),
        ("hero", "weapon", {"attack": "x", "durability": 2}),
        ("hero", "weapon", {"attack": 1, "durability": "x"}),
        ("hero", "weapon", {"durability": 2}),
        ("board", "attack", "x"),
        ("board", "attack", -5),
        ("board", "health", "x"),
        ("board", "maxHealth", "x"),
        ("board", "card", ["Leper Gnome"]),
        ("board", "flags", 5),
        ("deck", 0, ["Innervate"]),
        ("config", "active", 1.0),
    ], ids=["hero_max_health_str", "crystals_str", "crystals_float",
            "weapon_attack_str", "weapon_durability_str", "weapon_attack_missing",
            "board_attack_str", "board_attack_negative", "board_health_str",
            "board_max_health_str", "board_card_list", "board_flags_int",
            "deck_card_list", "active_float"])
    def test_rejects_wrong_typed_fields(self, zone, field, value) -> None:
        """Numbers must be integers in range and card ids strings; anything
        else is a ConfigError, not a TypeError from deeper in."""
        obj = micro_config_obj()
        player = obj["players"][0]
        target = {"config": obj, "board": player["board"][0]}.get(zone, player.get(zone))
        target[field] = value
        with pytest.raises(ConfigError):
            GameConfig.from_json_obj(obj)

    def test_config_isolated_from_caller_mutation(self) -> None:
        obj = micro_config_obj()
        config = GameConfig.from_json_obj(obj)
        obj["players"][0]["hero"]["health"] = 1
        assert config.obj["players"][0]["hero"]["health"] == 10
        out = config.to_json_obj()
        out["players"][0]["hero"]["health"] = 2
        assert config.obj["players"][0]["hero"]["health"] == 10

    @pytest.mark.parametrize("index", range(len(CONFIG_FAULTS)),
                             ids=[fault[0] for fault in CONFIG_FAULTS])
    def test_each_fault_has_its_message(self, index) -> None:
        _, fault, message = CONFIG_FAULTS[index]
        with pytest.raises(ConfigError) as caught:
            GameConfig.from_json_obj(fault(faultless_config_obj()))
        assert str(caught.value) == message

    @pytest.mark.parametrize("index", range(len(CONFIG_FAULTS)),
                             ids=[fault[0] for fault in CONFIG_FAULTS])
    def test_faults_are_reported_in_check_order(self, index) -> None:
        """With this fault and every fault listed after it in one config,
        the error names this one: the checks run in the listed order."""
        obj = faultless_config_obj()
        for _, fault, _ in reversed(CONFIG_FAULTS[index:]):
            obj = fault(obj)
        with pytest.raises(ConfigError) as caught:
            GameConfig.from_json_obj(obj)
        assert str(caught.value) == CONFIG_FAULTS[index][2]


class TestToState:
    def test_start_state_reads_every_field(self) -> None:
        config = GameConfig.from_json_obj({
            "formatVersion": 1,
            "players": [
                {
                    "hero": {"health": 7, "maxHealth": 20, "manaCrystals": 3,
                             "weapon": {"attack": 2, "durability": 3}},
                    "deck": ["Innervate", "Leper Gnome"],
                    "hand": ["Mortal Coil"],
                    "board": [
                        {"card": "Leper Gnome", "attack": 4, "health": 2, "maxHealth": 3,
                         "flags": ["taunt", "charge"]},
                        {"card": "Wee Spellstopper", "flags": ["frozen", "exhausted"]},
                    ],
                },
                {"hero": {"health": 5}, "board": [{"card": "Leper Gnome"}]},
            ],
            "active": 1,
            "turn": 3,
            "turnLimit": 9,
        })
        state = config.to_state()
        assert state.canonical() == (
            ((7, 20, Weapon(2, 3), 3, 3, False, False, 0), ("Innervate", "Leper Gnome"),
             ("Mortal Coil",),
             (("Leper Gnome", 4, 2, 3, True, False, False, True, False),
              ("Wee Spellstopper", 2, 5, 5, False, True, True, False, False))),
            ((5, 30, None, 10, 10, False, False, 0), (), (),
             (("Leper Gnome", 2, 1, 1, False, False, False, False, False),)),
            1, 3, 9, "ongoing", 0,
        )
        assert [m.iid for p in state.players for m in p.board] == [1, 2, 3]
        assert state.next_iid == 4

    def test_each_call_hands_out_an_independent_state(self) -> None:
        config = GameConfig.from_json_obj(micro_config_obj())
        first = config.to_state()
        canonical, key = first.canonical(), position_key(first)
        player = first.players[0]
        player.health = 1
        player.hand.append("Innervate")
        player.board[0].attack = 99
        player.deck_pos = 1
        second = config.to_state()
        assert second.canonical() == canonical
        assert position_key(second) == key
        third = config.to_state()
        apply_in_place(second, Attack(minion_ref(0, 0), hero_ref(1)))
        stepped = second.canonical()
        assert stepped != canonical
        assert third.canonical() == canonical
        apply_in_place(third, EndTurn())
        assert third.canonical() != canonical
        assert second.canonical() == stepped

    def test_constructor_checks_the_config(self) -> None:
        obj = micro_config_obj()
        obj["players"][1]["hero"]["health"] = 0
        with pytest.raises(ConfigError):
            GameConfig(obj)
        with pytest.raises(ConfigError):
            GameConfig([])


class TestActionJson:
    def test_round_trips(self) -> None:
        actions = [
            PlayCard(0),
            PlayCard(3, target=minion_ref(1, 2)),
            PlayCard(1, position=6),
            PlayCard(2, target=hero_ref(0)),
            Attack(minion_ref(0, 1), minion_ref(1, 0)),
            Attack(hero_ref(0), hero_ref(1)),
            EndTurn(),
        ]
        for action in actions:
            assert action_from_json_obj(action_to_json_obj(action)) == action

    @pytest.mark.parametrize("ref", [{"hero": -1}, {"hero": 2},
                                     {"side": 5, "slot": 0}, {"side": -1, "slot": 0}],
                             ids=["hero_-1", "hero_2", "minion_side_5", "minion_side_-1"])
    def test_a_side_other_than_0_or_1_is_refused(self, ref) -> None:
        """A reference names side 0 or 1; any other side would index a
        player from the end, or past it."""
        with pytest.raises(ValueError, match="side must be 0 or 1"):
            CharRef.from_json_obj(ref)
        with pytest.raises(ValueError, match="side must be 0 or 1"):
            action_from_json_obj({"attack": {"attacker": {"hero": 0}, "defender": ref}})


def split_key(key: bytes) -> list[tuple]:
    """Each player's part of a position key, read back by the layout that
    ``position_key`` documents: header, weapon, hand codes, minion fields,
    the last two sized by the header's hand and board lengths."""
    rest = list(pickle.loads(key))[5:]
    players = []
    for _ in range(2):
        header, rest = rest[:11], rest[11:]
        n_hand, n_board = header[9], header[10]
        width = 1 if rest[0] is None else 2
        weapon, rest = rest[:width], rest[width:]
        hand, rest = rest[:n_hand], rest[n_hand:]
        board, rest = rest[:9 * n_board], rest[9 * n_board:]
        players.append((header[:9], weapon, hand, board))
    assert rest == []
    return players


def key_fields(state) -> list[tuple]:
    """The same per-player parts, built from the state's fields."""
    players = []
    for p in state.players:
        header = [p.health, p.max_health, p.mana_crystals, p.mana, p.attacked,
                  p.frozen, p.fatigue, id(p.deck), p.deck_pos]
        weapon = [None] if p.weapon is None else [p.weapon.attack, p.weapon.durability]
        hand = [_CARD_CODES[c] for c in p.hand]
        board = [f for m in p.board for f in (_CARD_CODES[m.card_id], *m.canonical()[1:])]
        players.append((header, weapon, hand, board))
    return players


class TestPositionKey:
    def test_equal_keys_iff_equal_positions_on_random_walks(self) -> None:
        """Seeded random walks from the worked config and the micro
        positions, each start parsed twice so equal positions hold distinct
        but equal card-name strings: key equality matches canonical
        equality in both directions."""
        worked = compile_instance(
            PartitionInstance(WORKED_PAIRS, WORKED_TARGET), validate="none").config
        starts = [worked] + [config for _, config, _ in micro_positions()]
        for start_index, config in enumerate(starts):
            copies = (config, GameConfig.from_json(config.to_json()))
            canon_of: dict[bytes, tuple] = {}
            key_of: dict[tuple, bytes] = {}
            for seed in range(40):
                rng = random.Random(start_index * 1000 + seed)
                state = copies[seed % 2].to_state()
                for _ in range(60):
                    key, canon = position_key(state), state.canonical()
                    assert canon_of.setdefault(key, canon) == canon
                    assert key_of.setdefault(canon, key) == key
                    actions = legal_actions(state)
                    if not actions:
                        break
                    state = apply(state, actions[rng.randrange(len(actions))])
            # Walks of one start revisit positions, so both maps saw repeats.
            assert len(canon_of) == len(key_of) < 40 * 60

    def test_key_ignores_event_cursor(self) -> None:
        """The event cursor lives in the log: a walk logged from the start
        keeps the keys of the same walk run without a log."""
        config = GameConfig.from_json_obj(micro_config_obj())
        log = EventLog()
        quiet, logged = start_game(config), start_game(config, log)
        while legal_actions(quiet):
            action = legal_actions(quiet)[0]
            quiet, logged = apply(quiet, action), apply(logged, action, log)
            assert position_key(quiet) == position_key(logged)
        assert len(log) > 1

    def test_key_sees_turn_limit(self) -> None:
        base = GameConfig.from_json_obj(micro_config_obj()).to_state()
        clamped = base.clone()
        clamped.turn_limit = 3
        assert position_key(base) != position_key(clamped)

    def test_key_stable_across_conversions(self) -> None:
        config = GameConfig.from_json_obj(micro_config_obj())
        assert position_key(config.to_state()) == position_key(config.to_state())

    def test_keys_differ_at_the_length_prefixes(self) -> None:
        """Clone pairs that differ only in a hero's health, in a weapon, in
        the order of the same hand cards, or in the last hand card moved to
        a new minion get different keys; and every key splits back into its state's fields,
        which holds only while the hand and board lengths lead their
        parts."""
        obj = micro_config_obj()
        obj["players"][0]["hand"] = ["Mortal Coil", "Leper Gnome"]
        base = GameConfig.from_json_obj(obj).to_state()
        wounded = base.clone()
        wounded.players[1].health -= 1
        armed = base.clone()
        armed.players[0].weapon = Weapon(2, 2)
        reordered = base.clone()
        reordered.players[0].hand.reverse()
        summoned = base.clone()
        cid = summoned.players[0].hand.pop()
        summoned.players[0].board.append(
            MinionInstance.from_card(card(cid), summoned.next_iid))
        for other in (wounded, armed, reordered, summoned):
            assert position_key(other) != position_key(base)
            assert other.canonical() != base.canonical()
        for state in (base, wounded, armed, reordered, summoned):
            assert split_key(position_key(state)) == key_fields(state)


def reference_key(state) -> bytes:
    """``pickle.dumps(t, 3)`` of the flat tuple ``t`` that ``position_key``
    documents, built field by field with no cache."""
    t = [state.active, state.turn, state.turn_limit, _OUTCOME_CODES[state.outcome],
         state.removed]
    for p in state.players:
        t += [p.health, p.max_health, p.mana_crystals, p.mana, p.attacked, p.frozen,
              p.fatigue, id(p.deck), p.deck_pos, len(p.hand), len(p.board)]
        t += [None] if p.weapon is None else [p.weapon.attack, p.weapon.durability]
        t += [_CARD_CODES[c] for c in p.hand]
        for m in p.board:
            t += [_CARD_CODES[m.card_id], m.attack, m.health, m.max_health, m.taunt,
                  m.frozen, m.exhausted, m.charge, m.attacked]
    return pickle.dumps(tuple(t), 3)


def write_every_minion(state) -> int:
    """Change every field a key reads of every minion on both boards,
    directly; returns how many minions were written."""
    count = 0
    for p in state.players:
        for m in p.board:
            m.attack += 1
            m.health += 1
            m.max_health += 1
            m.taunt = not m.taunt
            m.frozen = not m.frozen
            m.exhausted = not m.exhausted
            m.charge = not m.charge
            m.attacked = not m.attacked
            count += 1
    return count


def assert_keyed(state) -> None:
    """Key ``state`` and check the result against the plain encoder, and
    the key parts it leaves: every player the state does not own, and
    every minion its player does not own, holds the bytes of its part of
    the key; every player and minion the state may write holds none.  (A
    minion that an unowned player owns may still hold the part a key kept
    when it met that minion on another player's board.)"""
    key = position_key(state)
    assert key == reference_key(state)
    for p in state.players:
        owned = p.gen == state.gen
        if owned:
            assert p.encoded is None
        else:
            assert type(p.encoded) is bytes and p.encoded in key
        for m in p.board:
            if m.gen != p.gen:
                assert type(m.encoded) is bytes and m.encoded in key
            elif owned:
                assert m.encoded is None


class TestKeyParts:
    """``position_key`` keeps the encoded run of each player its state does
    not own, and the encoded fields of each minion its player does not
    own, and splices them into later keys; its bytes stay those of the
    plain encoder, whatever copies and writes came between."""

    def test_matches_a_plain_encoder_on_mixed_walks(self) -> None:
        """Seeded walks that step by ``apply``, by ``fork()`` and
        ``apply_in_place``, by ``clone()`` and ``apply_in_place``, and in
        place, in turn.  Each state is keyed when it is reached, after a
        fork of it has stepped a sibling action, and again at the end of
        its walk, by which time later states have written the players and
        minions it shared with them through their own copies.  No sibling
        is forked before an in-place step, which then writes players and
        minions the state owns after they were keyed.  Keys splice kept
        parts of both players and minions."""
        worked = compile_instance(
            PartitionInstance(WORKED_PAIRS, WORKED_TARGET), validate="none").config
        one_pair = compile_instance(PartitionInstance(((1, 2),), 2), validate="none").config
        starts = [worked, one_pair] + [config for _, config, _ in micro_positions()]
        keyed = {"states": 0, "minions": 0, "shared": 0, "kept_players": 0}
        for start_index, config in enumerate(starts):
            for seed in range(8):
                rng = random.Random(start_index * 100 + seed)
                state = start_game(config)
                walk = [state]
                for step in range(60):
                    actions = legal_actions(state)
                    if not actions:
                        break
                    assert_keyed(state)
                    mode = step % 4
                    if mode != 3:  # stepped in place, a state writes what it owns
                        sibling = state.fork()
                        apply_in_place(sibling, rng.choice(actions))
                        assert_keyed(sibling)
                        assert_keyed(state)
                    # Prefer an action that keeps the game going.
                    rng.shuffle(actions)
                    action = next((a for a in actions
                                   if apply(state, a).outcome is Outcome.ONGOING), actions[0])
                    if mode == 0:
                        state = apply(state, action)
                    elif mode in (1, 2):
                        state = state.fork() if mode == 1 else state.clone()
                        apply_in_place(state, action)
                    else:
                        apply_in_place(state, action)
                    if mode != 3:
                        walk.append(state)
                    for p in state.players:
                        # Minions the state may not write: of a shared
                        # player, or shared by an owned one.
                        keyed["minions"] += len(p.board)
                        keyed["shared"] += sum(
                            p.gen != state.gen or m.gen != p.gen for m in p.board)
                for s in walk:
                    # A kept part on a player its state does not own is
                    # spliced into this key.
                    keyed["kept_players"] += sum(bool(p.encoded) for p in s.players)
                    assert_keyed(s)
                    keyed["states"] += 1
        assert keyed["states"] > 800 and keyed["kept_players"] > 500
        assert keyed["shared"] > 400 and keyed["minions"] - keyed["shared"] > 1000

    def test_matches_a_plain_encoder_on_micro_positions(self) -> None:
        for _, config, _ in micro_positions():
            state = config.to_state()
            assert position_key(state) == reference_key(state)
            fork = state.fork()
            assert position_key(fork) == reference_key(fork)
            assert position_key(state) == reference_key(state)

    def test_matches_a_plain_encoder_in_the_searches(self, worked_compiled,
                                                     monkeypatch) -> None:
        """Every key the skeleton takes (run ends, with the wall's health
        masked as None) and every key of the named deviation probes (the
        rejoin probe's forks and the loss probe's)."""
        keys = {"all": 0, "masked": 0}
        plain = solver.position_key

        def checked(state):
            key = plain(state)
            assert key == reference_key(state)
            keys["all"] += 1
            keys["masked"] += any(m.health is None for p in state.players for m in p.board)
            return key

        monkeypatch.setattr(solver, "position_key", checked)
        config, line = worked_compiled.config, worked_compiled.line
        solver.skeleton_solve(config, line)
        masked = keys["masked"]
        solver.check_named_deviations(solver.DeviationChecker(config, line, WORKED_VECTOR))
        assert masked > 10 and keys["all"] > 5000

    def test_direct_writes_the_contract_allows_are_seen(self) -> None:
        """The ``state`` module docstring lets code outside the engine write
        a minion directly on a ``clone()``, or on a state that only
        ``clone()`` has copied.  After keys of both (and of a fork of the
        clone, which takes keys of shared minions), writing every minion of
        either changes its next key to the plain encoder's."""
        worked = compile_instance(
            PartitionInstance(WORKED_PAIRS, WORKED_TARGET), validate="none").config
        starts = [worked] + [config for _, config, _ in micro_positions()]
        written = 0
        for start_index, config in enumerate(starts):
            rng = random.Random(start_index)
            state = config.to_state()
            for _ in range(30):
                actions = legal_actions(state)
                if not actions:
                    break
                rng.shuffle(actions)
                source = next((child for child in map(lambda a: apply(state, a), actions)
                               if child.outcome is Outcome.ONGOING), None)
                if source is None:
                    break
                before = position_key(source)
                copy = source.clone()
                for s in (source, copy):
                    key = position_key(s)
                    assert key == before == reference_key(s)
                    if write_every_minion(s):
                        written += 1
                        assert position_key(s) == reference_key(s) != key
                state = source
        assert written > 60


class TestCloneIsolation:
    def test_deep_clone(self) -> None:
        state = GameConfig.from_json_obj(micro_config_obj()).to_state()
        copy = state.clone()
        copy.players[0].board[0].attack = 99
        copy.players[0].hand.append("Innervate")
        copy.players[0].health = 1
        assert state.players[0].board[0].attack == 2
        assert state.players[0].hand == ["Mortal Coil"]
        assert state.players[0].health == 10


class TestSnapshot:
    def test_snapshot_shape(self) -> None:
        state = GameConfig.from_json_obj(micro_config_obj()).to_state()
        snap = state_to_json_obj(state)
        assert snap["turn"] == 1
        assert snap["players"][0]["board"][0]["card"] == "Leper Gnome"
        assert snap["players"][0]["deckRemaining"] == 1
        assert snap["outcome"] == "ongoing"
