"""Rules engine: worked single-step examples over hand-built positions."""

from __future__ import annotations

import pytest

from hearthproof.engine import apply, legal_actions, start_game
from hearthproof.state import (
    Attack,
    EndTurn,
    EventLog,
    GameConfig,
    IllegalAction,
    Outcome,
    PlayCard,
    hero_ref,
    minion_ref,
)


def build(
    *,
    f_board: list | None = None,
    e_board: list | None = None,
    f_hand: list | None = None,
    e_hand: list | None = None,
    f_deck: list | None = None,
    e_deck: list | None = None,
    f_hp: int = 30,
    e_hp: int = 30,
    f_mana: int = 10,
    e_mana: int = 10,
    f_weapon: dict | None = None,
    turn_limit: int = 20,
):
    obj = {
        "formatVersion": 1,
        "players": [
            {
                "hero": {"health": f_hp, "manaCrystals": f_mana,
                         **({"weapon": f_weapon} if f_weapon else {})},
                "deck": f_deck or [],
                "hand": f_hand or [],
                "board": f_board or [],
            },
            {
                "hero": {"health": e_hp, "manaCrystals": e_mana},
                "deck": e_deck or [],
                "hand": e_hand or [],
                "board": e_board or [],
            },
        ],
        "active": 0,
        "turn": 1,
        "turnLimit": turn_limit,
    }
    return GameConfig.from_json_obj(obj).to_state()


def minion(card: str, attack: int | None = None, health: int | None = None,
           **flags) -> dict:
    entry: dict = {"card": card}
    if attack is not None:
        entry["attack"] = attack
    if health is not None:
        entry["health"] = health
        entry["maxHealth"] = health
    names = [name for name, on in flags.items() if on]
    if names:
        entry["flags"] = names
    return entry


class TestCombat:
    def test_carrier_trade_into_big_taunt(self) -> None:
        """A 12-attack attacker chips the 196-health taunt to 184 and dies."""
        state = build(
            f_board=[minion("Floating Watcher", attack=12, health=13)],
            e_board=[minion("Leper Gnome", attack=1000, health=196, taunt=True)],
            f_hp=10,
        )
        after = apply(state, Attack(minion_ref(0, 0), minion_ref(1, 0)))
        assert after.players[1].board[0].health == 184
        assert after.players[0].board == []  # attacker died to retaliation
        assert after.players[0].health == 10
        assert after.outcome is Outcome.ONGOING

    def test_taunt_restricts_targets(self) -> None:
        state = build(
            f_board=[minion("Novice Engineer")],
            e_board=[minion("Leper Gnome", taunt=True),
                     minion("Novice Engineer")],
        )
        with pytest.raises(IllegalAction):
            apply(state, Attack(minion_ref(0, 0), hero_ref(1)))
        with pytest.raises(IllegalAction):
            apply(state, Attack(minion_ref(0, 0), minion_ref(1, 1)))
        apply(state, Attack(minion_ref(0, 0), minion_ref(1, 0)))

    def test_weapon_attack_consumes_durability(self) -> None:
        state = build(f_weapon={"attack": 1, "durability": 4}, e_hp=5)
        after = apply(state, Attack(hero_ref(0), hero_ref(1)))
        assert after.players[1].health == 4
        assert after.players[0].weapon.durability == 3
        assert after.players[0].attacked
        with pytest.raises(IllegalAction):
            apply(after, Attack(hero_ref(0), hero_ref(1)))

    def test_weapon_kill_wins(self) -> None:
        state = build(f_weapon={"attack": 1, "durability": 4}, e_hp=1)
        after = apply(state, Attack(hero_ref(0), hero_ref(1)))
        assert after.outcome is Outcome.FRIENDLY_WINS

    def test_outcome_locks_before_deathrattle(self) -> None:
        """Hero dies to retaliation; the victim's death rattle never fires."""
        state = build(
            f_weapon={"attack": 1, "durability": 4},
            f_hp=2,
            e_board=[minion("Leper Gnome", attack=2, health=1)],
        )
        after = apply(state, Attack(hero_ref(0), minion_ref(1, 0)))
        assert after.outcome is Outcome.ENEMY_WINS
        # the dead minion is still on the board: resolution truncated
        assert after.players[1].board[0].health == 0

    def test_frozen_minion_cannot_attack(self) -> None:
        state = build(f_board=[minion("Novice Engineer", frozen=True)])
        with pytest.raises(IllegalAction):
            apply(state, Attack(minion_ref(0, 0), hero_ref(1)))


class TestDeathrattles:
    def test_leper_gnome_hits_opposing_hero(self) -> None:
        state = build(
            f_hand=["Mortal Coil"],
            f_deck=["Innervate"],  # absorbs the on-kill draw
            f_hp=10,
            e_board=[minion("Leper Gnome", attack=2, health=1)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(1, 0)))
        assert after.players[0].health == 8
        assert after.players[1].board == []

    def test_leper_gnome_lethal_deathrattle(self) -> None:
        state = build(
            f_hand=["Mortal Coil"],
            f_hp=2,
            e_board=[minion("Leper Gnome", attack=2, health=1)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(1, 0)))
        assert after.outcome is Outcome.ENEMY_WINS

    def test_mistress_heals_both_heroes(self) -> None:
        state = build(
            f_hand=["Backstab"],
            f_hp=20,
            e_hp=25,
            e_board=[minion("Mistress of Mixtures", attack=2, health=2)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(1, 0)))
        assert after.players[0].health == 24
        assert after.players[1].health == 29


class TestSpells:
    def test_backstab_triggers_attack_doubling(self) -> None:
        """Damaging the on-damage trigger minion doubles its attack."""
        state = build(
            f_hand=["Backstab"],
            f_board=[minion("Gahz'rilla", attack=10, health=13)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(0, 0)))
        gahz = after.players[0].board[0]
        assert (gahz.attack, gahz.health) == (20, 11)

    def test_backstab_requires_undamaged(self) -> None:
        state = build(
            f_hand=["Backstab"],
            f_board=[{"card": "Gahz'rilla", "attack": 10, "health": 11,
                      "maxHealth": 13}],
        )
        with pytest.raises(IllegalAction):
            apply(state, PlayCard(0, target=minion_ref(0, 0)))

    def test_coil_kill_with_auctioneer_draws_twice(self) -> None:
        state = build(
            f_hand=["Mortal Coil"],
            f_deck=["Innervate", "Charge", "Frost Nova"],
            f_board=[minion("Gadgetzan Auctioneer")],
            e_board=[minion("Novice Engineer", attack=1, health=1)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(1, 0)))
        assert after.players[0].hand == ["Innervate", "Charge"]

    def test_coil_without_kill_draws_only_from_auctioneer(self) -> None:
        state = build(
            f_hand=["Mortal Coil"],
            f_deck=["Innervate", "Charge"],
            f_board=[minion("Gadgetzan Auctioneer")],
            e_board=[minion("Novice Engineer", attack=1, health=2)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(1, 0)))
        assert after.players[0].hand == ["Innervate"]

    def test_frost_nova_freezes_enemy_board_only(self) -> None:
        state = build(
            f_hand=["Frost Nova"],
            f_board=[minion("Novice Engineer")],
            e_board=[minion("Novice Engineer"), minion("Leper Gnome")],
        )
        after = apply(state, PlayCard(0))
        assert all(m.frozen for m in after.players[1].board)
        assert not after.players[0].board[0].frozen

    def test_thaw_at_end_of_own_turn(self) -> None:
        state = build(
            f_hand=["Frost Nova"],
            e_board=[minion("Novice Engineer")],
            turn_limit=30,
        )
        frozen = apply(state, PlayCard(0))
        enemy_turn = apply(frozen, EndTurn())
        assert enemy_turn.players[1].board[0].frozen
        with pytest.raises(IllegalAction):
            apply(enemy_turn, Attack(minion_ref(1, 0), hero_ref(0)))
        back_to_us = apply(enemy_turn, EndTurn())
        assert not back_to_us.players[1].board[0].frozen

    def test_charge_enables_immediate_attack(self) -> None:
        state = build(f_hand=["Novice Engineer", "Charge"], e_hp=10)
        summoned = apply(state, PlayCard(0, position=0))
        with pytest.raises(IllegalAction):
            apply(summoned, Attack(minion_ref(0, 0), hero_ref(1)))
        charged = apply(summoned, PlayCard(0, target=minion_ref(0, 0)))
        assert charged.players[0].board[0].attack == 3
        after = apply(charged, Attack(minion_ref(0, 0), hero_ref(1)))
        assert after.players[1].health == 7

    def test_shadow_word_death_needs_five_attack(self) -> None:
        state = build(
            f_hand=["Shadow Word: Death"],
            e_board=[minion("Floating Watcher", attack=4, health=4),
                     minion("Floating Watcher", attack=5, health=4)],
        )
        with pytest.raises(IllegalAction):
            apply(state, PlayCard(0, target=minion_ref(1, 0)))
        after = apply(state, PlayCard(0, target=minion_ref(1, 1)))
        assert len(after.players[1].board) == 1

    def test_mind_control_steals_to_rightmost_exhausted(self) -> None:
        state = build(
            f_hand=["Mind Control"],
            f_board=[minion("Novice Engineer")],
            e_board=[minion("Gahz'rilla", attack=10, health=13)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(1, 0)))
        assert [m.card_id for m in after.players[0].board] == [
            "Novice Engineer", "Gahz'rilla"
        ]
        assert after.players[0].board[1].exhausted
        assert after.players[1].board == []

    def test_mind_control_illegal_with_full_board(self) -> None:
        state = build(
            f_hand=["Mind Control"],
            f_board=[minion("Novice Engineer")] * 7,
            e_board=[minion("Gahz'rilla", attack=10, health=13)],
        )
        with pytest.raises(IllegalAction):
            apply(state, PlayCard(0, target=minion_ref(1, 0)))

    def test_innervate_caps_at_ten(self) -> None:
        state = build(f_hand=["Innervate", "Innervate"], f_mana=9)
        after = apply(state, PlayCard(0))
        assert after.players[0].mana == 10

    def test_arcane_intellect_draws_two(self) -> None:
        state = build(f_hand=["Arcane Intellect"],
                      f_deck=["Charge", "Innervate", "Frost Nova"])
        after = apply(state, PlayCard(0))
        assert after.players[0].hand == ["Charge", "Innervate"]

    def test_novice_engineer_battlecry_draws(self) -> None:
        state = build(f_hand=["Novice Engineer"], f_deck=["Innervate"])
        after = apply(state, PlayCard(0, position=0))
        assert after.players[0].hand == ["Innervate"]

    def test_blessed_champion_doubles_attack(self) -> None:
        state = build(
            f_hand=["Blessed Champion"],
            f_board=[minion("Floating Watcher", attack=10, health=10)],
        )
        after = apply(state, PlayCard(0, target=minion_ref(0, 0)))
        assert after.players[0].board[0].attack == 20

    def test_flash_heal_restores_hero(self) -> None:
        state = build(f_hand=["Flash Heal"], f_hp=1)
        after = apply(state, PlayCard(0, target=hero_ref(0)))
        assert after.players[0].health == 6


class TestSpellShield:
    def test_adjacent_minion_untargetable(self) -> None:
        state = build(
            f_hand=["Demonfuse"],
            f_board=[minion("Wee Spellstopper"),
                     minion("Floating Watcher")],
            f_mana=10,
        )
        with pytest.raises(IllegalAction):
            apply(state, PlayCard(0, target=minion_ref(0, 1)))

    def test_nonadjacent_minion_targetable(self) -> None:
        state = build(
            f_hand=["Demonfuse"],
            f_board=[minion("Wee Spellstopper"),
                     minion("Novice Engineer"),
                     minion("Floating Watcher")],
        )
        after = apply(state, PlayCard(0, target=minion_ref(0, 2)))
        assert after.players[0].board[2].attack == 7

    def test_shield_blocks_hostile_spells_too(self) -> None:
        state = build(
            f_hand=["Shadow Word: Death"],
            e_board=[minion("Wee Spellstopper"),
                     minion("Floating Watcher", attack=10, health=10)],
        )
        with pytest.raises(IllegalAction):
            apply(state, PlayCard(0, target=minion_ref(1, 1)))

    def test_untargeted_spells_ignore_shield(self) -> None:
        state = build(
            f_hand=["Frost Nova"],
            e_board=[minion("Wee Spellstopper"),
                     minion("Floating Watcher")],
        )
        after = apply(state, PlayCard(0))
        assert all(m.frozen for m in after.players[1].board)

    def test_combat_ignores_shield(self) -> None:
        state = build(
            f_board=[minion("Novice Engineer")],
            e_board=[minion("Wee Spellstopper"),
                     minion("Floating Watcher")],
        )
        apply(state, Attack(minion_ref(0, 0), minion_ref(1, 1)))


class TestDrawEdges:
    def test_fatigue_ramps(self) -> None:
        state = build(f_hand=["Arcane Intellect"], f_hp=10)
        after = apply(state, PlayCard(0))
        # empty deck: two fatigue draws deal 1 then 2
        assert after.players[0].health == 7
        assert after.players[0].fatigue == 2

    def test_overdraw_burns(self) -> None:
        state = build(
            f_hand=["Arcane Intellect"] + ["Innervate"] * 9,
            f_deck=["Charge", "Frost Nova"],
        )
        after = apply(state, PlayCard(0))
        # 9 in hand after casting: first draw fits, second burns
        assert len(after.players[0].hand) == 10
        assert after.players[0].hand[-1] == "Charge"
        assert after.removed == 2  # the spent spell and the burned card


class TestTurnStructure:
    def test_end_turn_refills_and_draws(self) -> None:
        state = build(f_mana=10, e_mana=9, e_deck=["Innervate"], turn_limit=20)
        after = apply(state, EndTurn())
        assert after.active == 1
        assert after.turn == 2
        assert after.players[1].mana == 10
        assert after.players[1].hand == ["Innervate"]

    def test_turn_limit_draws(self) -> None:
        state = build(turn_limit=1)
        after = apply(state, EndTurn())
        assert after.outcome is Outcome.DRAW

    def test_actions_on_decided_state_rejected(self) -> None:
        state = build(turn_limit=1)
        done = apply(state, EndTurn())
        assert legal_actions(done) == []
        with pytest.raises(IllegalAction):
            apply(done, EndTurn())


class TestLegalActions:
    def test_order_and_shared_values(self) -> None:
        """Summons by position, the weapon, targeted spells (heroes, then
        minions, side by side; shielded ones left out), untargeted spells,
        then attacks through the taunt and the end of turn.  Each call
        builds a new list of the same shared action values."""
        state = build(
            f_hand=["Leper Gnome", "Light's Justice", "Backstab", "Innervate"],
            f_board=[minion("Novice Engineer")],
            f_weapon={"attack": 1, "durability": 2},
            e_board=[minion("Leper Gnome", taunt=True), minion("Wee Spellstopper"),
                     minion("Novice Engineer")],
        )
        first, second = legal_actions(state), legal_actions(state)
        assert first == [
            PlayCard(0, None, 0),
            PlayCard(0, None, 1),
            PlayCard(1),
            PlayCard(2, minion_ref(0, 0)),
            PlayCard(2, minion_ref(1, 1)),
            PlayCard(3),
            Attack(minion_ref(0, 0), minion_ref(1, 0)),
            Attack(hero_ref(0), minion_ref(1, 0)),
            EndTurn(),
        ]
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))


class TestPurity:
    def test_apply_does_not_mutate_input(self) -> None:
        state = build(
            f_hand=["Mortal Coil"],
            f_deck=["Innervate"],
            e_board=[minion("Novice Engineer", attack=1, health=1)],
        )
        before = state.canonical()
        apply(state, PlayCard(0, target=minion_ref(1, 0)))
        assert state.canonical() == before

    def test_determinism(self) -> None:
        state = build(
            f_hand=["Arcane Intellect"],
            f_deck=["Innervate", "Charge", "Frost Nova"],
            e_board=[minion("Novice Engineer")],
        )
        log_a, log_b = EventLog(), EventLog()
        a = apply(state, PlayCard(0), log_a)
        b = apply(state, PlayCard(0), log_b)
        assert a.canonical() == b.canonical()
        assert [e.to_json_obj() for e in log_a.events] == [
            e.to_json_obj() for e in log_b.events
        ]


class TestWorkedLineTrace:
    def test_accumulator_health_trace(self, worked_compiled) -> None:
        """Replaying the worked choices produces the five-attack health run."""
        from hearthproof.compiler import run_line

        log = EventLog()
        final = run_line(
            worked_compiled.config, worked_compiled.line,
            ("x", "y", "y", "x"), log,
        )
        hits = [
            e.data["amount"]
            for e in log.events
            if e.kind == "damage" and e.data["target"] == {"side": 1, "slot": 0}
        ]
        start = worked_compiled.config.obj["players"][1]["board"][0]["health"]
        assert start == 196
        trace = [start]
        for hit in hits:
            trace.append(trace[-1] - hit)
        assert trace == [196, 184, 152, 90, 8, 0]
        assert final.outcome is Outcome.FRIENDLY_WINS
