"""Deterministic battle rules: legality, resolution, turn structure, replay.

``apply`` is pure: it clones the input state, resolves one action and returns
the successor.  ``apply_in_place`` resolves the action on the state it is
given, for callers that own that state and step it through forced moves; an
action it rejects raises ``IllegalAction`` before anything is changed, so a
rejected action leaves the state as it was.  Everything is integer
arithmetic over ordered zones — no randomness anywhere.  Resolution detail
that the card text leaves open is fixed here one way and kept stable:

* After damage or a destroy effect, dead minions are removed one at a time —
  scanning the active player's board left to right first, then the opponent's
  — and each death rattle resolves fully (including any further deaths it
  causes) before the next body is removed.  Only an attack and three spell
  effects (``DEAL_TWO_TO_UNDAMAGED_MINION``, ``DEAL_ONE_DRAW_IF_KILL`` and
  ``DESTROY_MINION_ATK_5_PLUS``) can bring a minion to 0 health, so only
  they scan for the dead.  Summons, weapons, draws, freezes, buffs, Mind
  Control, heals and death rattles never leave a body to remove.
* A decided outcome (any hero at zero, or both) locks immediately and
  truncates all remaining resolution of the current action.  A hero's
  health drops in only three places: a fatigue draw (``_draw_card``),
  combat (``_attack``) and a damage death rattle (``_process_deaths``), and
  each calls ``_check_outcome`` right after the drop.  So no hero is at
  zero while the outcome is ongoing, and the rest of the step path only
  tests ``state.outcome``.
* Frozen characters thaw at the end of their controller's turn.
* "Spell-shielded" below means adjacent to a minion with the adjacent-spell-
  immunity trigger: such a minion cannot be targeted by any spell, friendly
  or hostile.  Untargeted spells and combat ignore the shield; heroes are
  never shielded.

Players and minions are copied on write (see the ``state`` module
docstring).  Every write to a player goes through ``GameState.own``, which
first swaps a private copy into the state unless the state already owns
the player, and every write to a minion goes through :func:`_own`, which
does the same for the board slot of a player the state owns.  A ``fork()``
of a state thus shares each player and minion with its source until one of
them writes it, and a step copies only the players it writes.  The hot
step paths make the ownership test inline and call ``own`` only to copy.

Other modules call two underscore functions: the compiler's emitter
resolves its plays with :func:`_play_card` directly, and the skeleton writes
the wall's symbolic health through :func:`_own`.  Both take the player
through ``GameState.own`` first.

Logging: each event site is ``if log is not None: log.emit(kind, ...)``, and
the log numbers its events in the order they arrive.  Search and compilation
pass ``log=None``; then no event payload is built at all (no keyword dict, no
``.value``, no ``to_json_obj()``) and nothing is counted.
"""
from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .cards import _DB as _CARDS, CardKind, CardSpec, EffectTag, Tribe
from .state import (
    Action,
    Attack,
    CharRef,
    EndTurn,
    EventLog,
    GameConfig,
    GameState,
    IllegalAction,
    MinionInstance,
    Outcome,
    PlayCard,
    PlayerState,
    ScriptStep,
    Weapon,
    MAX_BOARD,
    MAX_HAND,
    MAX_MANA,
    hero_ref,
    minion_ref,
)

# The step path tests enum members at almost every event.  On CPython 3.11
# an ``Enum.MEMBER`` lookup takes 120-190 ns against about 15 ns for a
# module global, so the members it tests are bound here once.
_ONGOING = Outcome.ONGOING
_MINION = CardKind.MINION
_SPELL = CardKind.SPELL
_WEAPON = CardKind.WEAPON
_DEMON = Tribe.DEMON
_BEAST = Tribe.BEAST
_GAIN_TWO_MANA = EffectTag.GAIN_TWO_MANA
_DRAW_TWO = EffectTag.DRAW_TWO
_FREEZE_ENEMY_MINIONS = EffectTag.FREEZE_ENEMY_MINIONS
_DEAL_TWO_TO_UNDAMAGED_MINION = EffectTag.DEAL_TWO_TO_UNDAMAGED_MINION
_DEAL_ONE_DRAW_IF_KILL = EffectTag.DEAL_ONE_DRAW_IF_KILL
_BUFF_DEMON_PLUS_3_3 = EffectTag.BUFF_DEMON_PLUS_3_3
_BUFF_PLUS_2_2_DRAW_IF_BEAST = EffectTag.BUFF_PLUS_2_2_DRAW_IF_BEAST
_DOUBLE_ATTACK = EffectTag.DOUBLE_ATTACK
_GIVE_CHARGE_PLUS_2 = EffectTag.GIVE_CHARGE_PLUS_2
_DESTROY_MINION_ATK_5_PLUS = EffectTag.DESTROY_MINION_ATK_5_PLUS
_TAKE_CONTROL_ENEMY_MINION = EffectTag.TAKE_CONTROL_ENEMY_MINION
_RESTORE_FIVE_HEALTH = EffectTag.RESTORE_FIVE_HEALTH
_BATTLECRY_DRAW_ONE = EffectTag.BATTLECRY_DRAW_ONE
_TRIGGER_DRAW_ON_FRIENDLY_SPELL = EffectTag.TRIGGER_DRAW_ON_FRIENDLY_SPELL
_TRIGGER_ADJACENT_SPELL_IMMUNITY = EffectTag.TRIGGER_ADJACENT_SPELL_IMMUNITY
_TRIGGER_DOUBLE_ATTACK_ON_DAMAGE = EffectTag.TRIGGER_DOUBLE_ATTACK_ON_DAMAGE
_DEATHRATTLE_DAMAGE_ENEMY_HERO_2 = EffectTag.DEATHRATTLE_DAMAGE_ENEMY_HERO_2
_DEATHRATTLE_RESTORE_4_EACH_HERO = EffectTag.DEATHRATTLE_RESTORE_4_EACH_HERO

# The spell effects that can bring a minion to 0 health.
_LETHAL_SPELLS = frozenset(
    (_DEAL_TWO_TO_UNDAMAGED_MINION, _DEAL_ONE_DRAW_IF_KILL, _DESTROY_MINION_ATK_5_PLUS))

# ---------------------------------------------------------------------------
# Minion ownership
# ---------------------------------------------------------------------------


def _own(player: PlayerState, slot: int) -> MinionInstance:
    """The minion at ``slot``, made safe for ``player`` to write; the
    player must be one its state owns (see ``GameState.own``).

    The one write path for minions.  A minion this player does not own
    (its ``gen`` differs, as after a fork) may be shared with another state,
    so a private copy takes its board slot first.
    """
    m = player.board[slot]
    if m.gen != player.gen:
        m = m.clone(player.gen)
        player.board[slot] = m
    return m


# ---------------------------------------------------------------------------
# Outcome locking
# ---------------------------------------------------------------------------


def _check_outcome(state: GameState, log: EventLog | None) -> bool:
    """Lock the outcome if any hero is dead; return True once decided."""
    if state.outcome is not _ONGOING:
        return True
    h0 = state.players[0].health
    h1 = state.players[1].health
    if h0 <= 0 and h1 <= 0:
        state.outcome = Outcome.DRAW
    elif h0 <= 0:
        state.outcome = Outcome.ENEMY_WINS
    elif h1 <= 0:
        state.outcome = Outcome.FRIENDLY_WINS
    else:
        return False
    if log is not None:
        log.emit("outcome", result=state.outcome.value)
    return True


# ---------------------------------------------------------------------------
# Shared predicates
# ---------------------------------------------------------------------------


def spell_shielded(board: list[MinionInstance], slot: int) -> bool:
    """True if the minion at ``slot`` is protected from targeted spells."""
    for adj in (slot - 1, slot + 1):
        if 0 <= adj < len(board):
            if board[adj].effect is _TRIGGER_ADJACENT_SPELL_IMMUNITY:
                return True
    return False


def _spell_target_ok(state: GameState, caster: int, effect: EffectTag, ref: CharRef) -> str | None:
    """Why ``ref`` is not a legal target for the spell, or None if it is."""
    slot = ref.slot
    if slot is None:  # a hero
        if effect is _RESTORE_FIVE_HEALTH:
            return None
        return "spell cannot target a hero"
    owner = state.players[ref.side]
    if not (0 <= slot < len(owner.board)):
        return "no minion at target slot"
    m = owner.board[slot]
    if spell_shielded(owner.board, slot):
        return "target is shielded from spells"
    if effect is _DEAL_TWO_TO_UNDAMAGED_MINION and m.damaged:
        return "target must be undamaged"
    if effect is _BUFF_DEMON_PLUS_3_3 and m.tribe is not _DEMON:
        return "target must be a demon"
    if effect is _GIVE_CHARGE_PLUS_2 and ref.side != caster:
        return "target must be friendly"
    if effect is _DESTROY_MINION_ATK_5_PLUS and m.attack < 5:
        return "target needs attack 5 or more"
    if effect is _TAKE_CONTROL_ENEMY_MINION:
        if ref.side == caster:
            return "target must be an enemy minion"
        if len(state.players[caster].board) >= MAX_BOARD:
            return "own board is full"
    return None


_TARGETED_SPELLS = {
    EffectTag.DEAL_TWO_TO_UNDAMAGED_MINION,
    EffectTag.DEAL_ONE_DRAW_IF_KILL,
    EffectTag.BUFF_DEMON_PLUS_3_3,
    EffectTag.BUFF_PLUS_2_2_DRAW_IF_BEAST,
    EffectTag.DOUBLE_ATTACK,
    EffectTag.GIVE_CHARGE_PLUS_2,
    EffectTag.DESTROY_MINION_ATK_5_PLUS,
    EffectTag.TAKE_CONTROL_ENEMY_MINION,
    EffectTag.RESTORE_FIVE_HEALTH,
}


def _hero_can_attack(player: PlayerState) -> bool:
    return (
        player.weapon is not None
        and player.weapon.durability >= 1
        and player.weapon.attack >= 1
        and not player.attacked
        and not player.frozen
    )


# A character is named by (side, index): index is its board slot, or
# ``_HERO`` for the hero.
_HERO = MAX_BOARD
_END_TURN = EndTurn()


@functools.cache
def _shared_actions() -> tuple:
    """Every action value ``legal_actions`` can return, built once.

    ``CharRef``, ``PlayCard`` and ``Attack`` are frozen dataclasses that
    take 1-3 µs each to build, so ``legal_actions`` hands out these shared
    values instead.  Boards never exceed ``MAX_BOARD`` and hands never
    exceed ``MAX_HAND``.  The tables (about 400 values) are filled on first
    use, not at import, so a process that never enumerates actions does not
    build them.  Returns ``(refs, summons, untargeted, targeted, attacks)``,
    indexed ``refs[side][index]``, ``summons[hand][position]``,
    ``untargeted[hand]``, ``targeted[hand][side][index]`` and
    ``attacks[side][attacker index][defender index]``, the defender on the
    other side.
    """
    refs = tuple(
        tuple(minion_ref(side, k) for k in range(MAX_BOARD)) + (hero_ref(side),)
        for side in (0, 1)
    )
    summons = tuple(
        tuple(PlayCard(hi, None, pos) for pos in range(MAX_BOARD)) for hi in range(MAX_HAND)
    )
    untargeted = tuple(PlayCard(hi) for hi in range(MAX_HAND))
    targeted = tuple(
        tuple(tuple(PlayCard(hi, ref) for ref in side_refs) for side_refs in refs)
        for hi in range(MAX_HAND)
    )
    attacks = tuple(
        tuple(tuple(Attack(a, d) for d in refs[1 - side]) for a in refs[side])
        for side in (0, 1)
    )
    return refs, summons, untargeted, targeted, attacks


def _defender_indexes(state: GameState, side: int) -> list[int]:
    """Legal defenders for the active ``side``, as indexes on the
    opponent's side: taunts restrict the choice."""
    opp = state.players[1 - side]
    taunts = [k for k, m in enumerate(opp.board) if m.taunt]
    if taunts:
        return taunts
    indexes = list(range(len(opp.board)))
    indexes.append(_HERO)
    return indexes


# ---------------------------------------------------------------------------
# Legal action enumeration
# ---------------------------------------------------------------------------


def legal_actions(state: GameState) -> list[Action]:
    """Every action the active player may take, in a stable canonical order.

    The list is new on every call, but the actions in it are shared
    immutable values, built once per process.
    """
    if state.outcome is not _ONGOING:
        return []
    refs, summons, untargeted, targeted, attacks = _shared_actions()
    side = state.active
    p = state.players[side]
    acts: list[Action] = []

    for hi, cid in enumerate(p.hand):
        spec = _CARDS[cid]
        if spec.cost > p.mana:
            continue
        if spec.kind is _MINION:
            if len(p.board) >= MAX_BOARD:
                continue
            acts += summons[hi][: len(p.board) + 1]
        elif spec.kind is _WEAPON:
            acts.append(untargeted[hi])
        elif spec.effect in _TARGETED_SPELLS:
            # Each side's hero, then its minions.
            for t_side in (0, 1):
                side_refs, plays = refs[t_side], targeted[hi][t_side]
                for k in (_HERO, *range(len(state.players[t_side].board))):
                    if _spell_target_ok(state, side, spec.effect, side_refs[k]) is None:
                        acts.append(plays[k])
        else:
            acts.append(untargeted[hi])

    defenders = _defender_indexes(state, side)
    own_attacks = attacks[side]
    for k, m in enumerate(p.board):
        if m.can_attack():
            row = own_attacks[k]
            acts += [row[d] for d in defenders]
    if _hero_can_attack(p):
        row = own_attacks[_HERO]
        acts += [row[d] for d in defenders]

    acts.append(_END_TURN)
    return acts


# ---------------------------------------------------------------------------
# Draws, damage, healing
# ---------------------------------------------------------------------------


def _draw_card(state: GameState, log: EventLog | None, side: int) -> None:
    """Draw a card for player ``side``.  Every caller draws for the mover
    after writing it (``_begin_turn`` after its refresh, a played card after
    its cost is paid), so the state already owns that player and this hot
    path makes no ownership test."""
    if state.outcome is not _ONGOING:
        return
    p = state.players[side]
    if p.deck_pos < len(p.deck):
        cid = p.deck[p.deck_pos]
        p.deck_pos += 1
        if len(p.hand) >= MAX_HAND:
            state.removed += 1
            if log is not None:
                log.emit("burn", side=side, card=cid)
        else:
            p.hand.append(cid)
            if log is not None:
                log.emit("draw", side=side, card=cid)
    else:
        p.fatigue += 1
        if log is not None:
            log.emit("fatigue", side=side, damage=p.fatigue)
        p.health -= p.fatigue
        if log is not None:
            log.emit("damage", target={"hero": side}, amount=p.fatigue)
        _check_outcome(state, log)


def _damage_minion(
    state: GameState, log: EventLog | None, side: int, slot: int, amount: int
) -> None:
    """Apply damage to a minion and fire its on-damage trigger if it survives."""
    if amount <= 0 or state.outcome is not _ONGOING:
        return
    p = state.players[side]
    if p.gen != state.gen:
        p = state.own(side)
    m = _own(p, slot)
    m.health -= amount
    if log is not None:
        log.emit("damage", target={"side": side, "slot": slot}, amount=amount)
    if m.health > 0 and m.effect is _TRIGGER_DOUBLE_ATTACK_ON_DAMAGE:
        m.attack *= 2
        if log is not None:
            log.emit("trigger",
                     card=m.card_id, effect=m.effect.value, attack=m.attack)


def _damage_hero(state: GameState, log: EventLog | None, side: int, amount: int) -> None:
    if amount <= 0 or state.outcome is not _ONGOING:
        return
    p = state.players[side]
    if p.gen != state.gen:
        p = state.own(side)
    p.health -= amount
    if log is not None:
        log.emit("damage", target={"hero": side}, amount=amount)


def _heal_hero(state: GameState, log: EventLog | None, side: int, amount: int) -> None:
    if state.outcome is not _ONGOING:
        return
    p = state.own(side)
    healed = min(amount, p.max_health - p.health)
    p.health += healed
    if log is not None:
        log.emit("heal", target={"hero": side}, amount=healed)


def _heal_minion(
    state: GameState, log: EventLog | None, side: int, slot: int, amount: int
) -> None:
    if state.outcome is not _ONGOING:
        return
    m = _own(state.own(side), slot)
    healed = min(amount, m.max_health - m.health)
    m.health += healed
    if log is not None:
        log.emit("heal", target={"side": side, "slot": slot}, amount=healed)


# ---------------------------------------------------------------------------
# Deaths and death rattles
# ---------------------------------------------------------------------------


def _first_dead(state: GameState) -> tuple[int, int] | None:
    """(side, slot) of the next body to remove; active side scans first."""
    for side in (state.active, 1 - state.active):
        for slot, m in enumerate(state.players[side].board):
            if m.health <= 0:
                return side, slot
    return None


def _process_deaths(state: GameState, log: EventLog | None) -> None:
    while state.outcome is _ONGOING:
        found = _first_dead(state)
        if found is None:
            return
        side, slot = found
        p = state.players[side]
        if p.gen != state.gen:
            p = state.own(side)
        m = p.board.pop(slot)
        state.removed += 1
        if log is not None:
            log.emit("death", side=side, slot=slot, card=m.card_id)
        if m.effect is _DEATHRATTLE_DAMAGE_ENEMY_HERO_2:
            if log is not None:
                log.emit("deathrattle", card=m.card_id)
            _damage_hero(state, log, 1 - side, 2)
            _check_outcome(state, log)
        elif m.effect is _DEATHRATTLE_RESTORE_4_EACH_HERO:
            if log is not None:
                log.emit("deathrattle", card=m.card_id)
            _heal_hero(state, log, 0, 4)
            _heal_hero(state, log, 1, 4)


# ---------------------------------------------------------------------------
# Playing cards
# ---------------------------------------------------------------------------


def _resolve_spell(
    state: GameState, log: EventLog | None, side: int, spec: CardSpec, target: CharRef | None
) -> None:
    """Resolve every spell but the Innervate, which ``_play_card`` resolves
    inline."""
    effect = spec.effect
    p = state.players[side]
    if effect is _DRAW_TWO:
        _draw_card(state, log, side)
        _draw_card(state, log, side)
        return
    if effect is _FREEZE_ENEMY_MINIONS:
        opp_side = 1 - side
        opp = state.players[opp_side]
        for slot, m in enumerate(opp.board):
            if not m.frozen:
                if opp.gen != state.gen:
                    opp = state.own(opp_side)
                _own(opp, slot).frozen = True
            if log is not None:
                log.emit("freeze", target={"side": opp_side, "slot": slot})
        return

    assert target is not None
    if target.slot is None:
        # Only the heal reaches heroes; target legality was checked upstream.
        _heal_hero(state, log, target.side, 5)
        return
    # Every spell on a minion writes the minion's side.
    owner = state.players[target.side]
    if owner.gen != state.gen:
        owner = state.own(target.side)
    slot = target.slot
    if effect is _DEAL_TWO_TO_UNDAMAGED_MINION:
        _damage_minion(state, log, target.side, slot, 2)
    elif effect is _DEAL_ONE_DRAW_IF_KILL:
        _damage_minion(state, log, target.side, slot, 1)
        if owner.board[slot].health <= 0:
            if log is not None:
                log.emit("trigger", card=spec.card_id, effect=effect.value)
            _draw_card(state, log, side)
    elif effect is _BUFF_DEMON_PLUS_3_3:
        m = _own(owner, slot)
        m.attack += 3
        m.health += 3
        m.max_health += 3
        if log is not None:
            log.emit("buff", target=target.to_json_obj(),
                     attack=m.attack, health=m.health)
    elif effect is _BUFF_PLUS_2_2_DRAW_IF_BEAST:
        m = _own(owner, slot)
        m.attack += 2
        m.health += 2
        m.max_health += 2
        if log is not None:
            log.emit("buff", target=target.to_json_obj(),
                     attack=m.attack, health=m.health)
        if m.tribe is _BEAST:
            if log is not None:
                log.emit("trigger", card=spec.card_id, effect=effect.value)
            _draw_card(state, log, side)
    elif effect is _DOUBLE_ATTACK:
        m = _own(owner, slot)
        m.attack *= 2
        if log is not None:
            log.emit("buff", target=target.to_json_obj(),
                     attack=m.attack, health=m.health)
    elif effect is _GIVE_CHARGE_PLUS_2:
        m = _own(owner, slot)
        m.charge = True
        m.attack += 2
        if log is not None:
            log.emit("buff", target=target.to_json_obj(),
                     attack=m.attack, health=m.health)
    elif effect is _DESTROY_MINION_ATK_5_PLUS:
        _own(owner, slot).health = 0
    elif effect is _TAKE_CONTROL_ENEMY_MINION:
        # Both players are the state's, with its ``gen``: a minion the old
        # owner owned passes to the new owner as it is; a shared one is
        # copied by ``_own``.
        p.board.append(owner.board.pop(slot))
        new_slot = len(p.board) - 1
        m = _own(p, new_slot)
        m.exhausted = True
        if log is not None:
            log.emit("steal", card=m.card_id, to=side, slot=new_slot)
    elif effect is _RESTORE_FIVE_HEALTH:
        _heal_minion(state, log, target.side, slot, 5)
    else:  # pragma: no cover - the spell table above is exhaustive
        raise AssertionError(f"unhandled spell effect {effect}")


def _play_card(state: GameState, log: EventLog | None, action: PlayCard) -> None:
    """Play the card in hand slot ``action.hand``.

    Spells come first, on a direct path: about four in five of a compiled
    line's steps are spells, and half of all its steps are Innervates
    (143 of 287 on the worked all-x line).  The card is read
    from the card table without a ``card()`` call, an Innervate's +2 mana is
    resolved inline and every other spell by ``_resolve_spell``, and then
    the caster's board is walked once for its draw-on-spell minions.
    Minions and weapons follow.  Every check comes before the first change
    to the state.
    """
    side = state.active
    p = state.players[side]
    hand = p.hand
    index = action.hand
    if not (0 <= index < len(hand)):
        raise IllegalAction(f"no card in hand slot {index}")
    cid = hand[index]
    spec = _CARDS[cid]
    if spec.cost > p.mana:
        raise IllegalAction(f"not enough mana for {cid} (have {p.mana}, need {spec.cost})")

    if spec.kind is _SPELL:
        effect = spec.effect
        target = action.target
        if effect in _TARGETED_SPELLS:
            if target is None:
                raise IllegalAction(f"{cid} needs a target")
            reason = _spell_target_ok(state, side, effect, target)
            if reason is not None:
                raise IllegalAction(f"{cid}: {reason}")
        elif target is not None:
            raise IllegalAction(f"{cid} does not take a target")
        if action.position is not None:
            raise IllegalAction(f"{cid} takes no position")
        if p.gen != state.gen:
            p = state.own(side)
            hand = p.hand
        p.mana -= spec.cost
        del hand[index]
        state.removed += 1
        if log is not None:
            log.emit("play", side=side, card=cid,
                     **({"target": target.to_json_obj()} if target else {}))
        if effect is _GAIN_TWO_MANA:
            # No ``min`` call: half of a compiled line's steps are Innervates.
            mana = p.mana + 2
            p.mana = mana if mana < MAX_MANA else MAX_MANA
            if log is not None:
                log.emit("mana", side=side, mana=p.mana)
        else:
            _resolve_spell(state, log, side, spec, target)
            if state.outcome is not _ONGOING:
                return
            if effect in _LETHAL_SPELLS:
                _process_deaths(state, log)
        # One draw per surviving friendly draw-on-spell minion.  A draw
        # leaves the board as it is, so the draws can be made during the walk.
        for m in p.board:
            if m.effect is _TRIGGER_DRAW_ON_FRIENDLY_SPELL:
                if state.outcome is not _ONGOING:
                    return
                if log is not None:
                    log.emit("trigger", card="Gadgetzan Auctioneer",
                             effect=_TRIGGER_DRAW_ON_FRIENDLY_SPELL.value)
                _draw_card(state, log, side)
        return

    if spec.kind is _MINION:
        if len(p.board) >= MAX_BOARD:
            raise IllegalAction("board is full")
        pos = action.position if action.position is not None else len(p.board)
        if not (0 <= pos <= len(p.board)):
            raise IllegalAction(f"bad summon position {pos}")
        if action.target is not None:
            raise IllegalAction(f"{cid} does not take a target")
        if p.gen != state.gen:
            p = state.own(side)
        p.mana -= spec.cost
        del p.hand[index]
        if log is not None:
            log.emit("play", side=side, card=cid, position=pos)
        p.board.insert(pos, MinionInstance.from_card(spec, state.next_iid, p.gen))
        state.next_iid += 1
        _own(p, pos).exhausted = True
        if log is not None:
            log.emit("summon", side=side, card=cid, slot=pos)
        if spec.effect is _BATTLECRY_DRAW_ONE:
            if log is not None:
                log.emit("trigger", card=cid, effect=spec.effect.value)
            _draw_card(state, log, side)
        return

    # Weapon.
    if action.target is not None or action.position is not None:
        raise IllegalAction(f"{cid} takes no target or position")
    if p.gen != state.gen:
        p = state.own(side)
    p.mana -= spec.cost
    del p.hand[index]
    if log is not None:
        log.emit("play", side=side, card=cid)
    if p.weapon is not None:
        state.removed += 1
        if log is not None:
            log.emit("weapon_break", side=side, replaced=True)
    p.weapon = Weapon(spec.attack or 0, spec.health or 0)
    if log is not None:
        log.emit("equip", side=side, card=cid,
                 attack=p.weapon.attack, durability=p.weapon.durability)


# ---------------------------------------------------------------------------
# Combat
# ---------------------------------------------------------------------------


def _attack(state: GameState, log: EventLog | None, action: Attack) -> None:
    """Resolve a combat.

    The rejoin probe (``solver._TurnRejoinProbe``) relies on a third fact,
    next to the two of :func:`_end_turn`:

    3. A hero that attacks a minion whose attack is at least the hero's
       health loses the game on the spot.  The retaliation is fixed before
       any damage; the blow the minion takes kills nobody (deaths resolve
       only after the outcome check) and hits no hero; so the hero drops to zero
       or below while the other hero stays above it (no hero is at zero
       while the game is ongoing), and ``_check_outcome`` locks the
       opponent's win before any death resolves.
    """
    side = state.active
    atk_ref, def_ref = action.attacker, action.defender
    if atk_ref.side != side:
        raise IllegalAction("attacker must belong to the active player")
    if def_ref.side != 1 - side:
        raise IllegalAction("defender must belong to the opponent")
    p = state.players[side]
    opp = state.players[1 - side]

    attacker_minion: MinionInstance | None = None
    if atk_ref.is_hero:
        if not _hero_can_attack(p):
            raise IllegalAction("hero cannot attack (weapon, frozen or already attacked)")
        power = p.weapon.attack
    else:
        if not (0 <= atk_ref.slot < len(p.board)):
            raise IllegalAction("no attacker at that slot")
        attacker_minion = p.board[atk_ref.slot]
        if not attacker_minion.can_attack():
            raise IllegalAction(
                f"{attacker_minion.card_id} cannot attack (frozen, exhausted or spent)"
            )
        power = attacker_minion.attack

    defender_minion: MinionInstance | None = None
    if def_ref.is_hero:
        if any(m.taunt for m in opp.board):
            raise IllegalAction("a taunt minion is in the way")
    else:
        if not (0 <= def_ref.slot < len(opp.board)):
            raise IllegalAction("no defender at that slot")
        defender_minion = opp.board[def_ref.slot]
        if any(m.taunt for m in opp.board) and not defender_minion.taunt:
            raise IllegalAction("a taunt minion is in the way")

    if log is not None:
        log.emit("attack",
                 attacker=atk_ref.to_json_obj(), defender=def_ref.to_json_obj())

    retaliation = defender_minion.attack if defender_minion is not None else 0

    if p.gen != state.gen:
        p = state.own(side)
    if attacker_minion is not None:
        _own(p, atk_ref.slot).attacked = True
    else:
        p.attacked = True
        weapon = p.weapon
        if weapon.durability > 1:
            p.weapon = Weapon(weapon.attack, weapon.durability - 1)
        else:
            p.weapon = None
            state.removed += 1
            if log is not None:
                log.emit("weapon_break", side=side)

    # Both combat damages are simultaneous: amounts were fixed above.
    if defender_minion is not None:
        _damage_minion(state, log, 1 - side, def_ref.slot, power)
    else:
        _damage_hero(state, log, 1 - side, power)
    if attacker_minion is not None:
        _damage_minion(state, log, side, atk_ref.slot, retaliation)
    else:
        _damage_hero(state, log, side, retaliation)

    if _check_outcome(state, log):
        return
    _process_deaths(state, log)


# ---------------------------------------------------------------------------
# Turn structure
# ---------------------------------------------------------------------------


def _begin_turn(state: GameState, log: EventLog | None) -> None:
    """Start-of-turn sequence for the current active player."""
    side = state.active
    p = state.players[side]
    if p.gen != state.gen:
        p = state.own(side)
    p.attacked = False
    for slot, m in enumerate(p.board):
        if m.exhausted or m.attacked:
            m = _own(p, slot)
            m.exhausted = False
            m.attacked = False
    if log is not None:
        log.emit("start_turn", side=side, turn=state.turn, mana=p.mana)
    _draw_card(state, log, side)


def _end_turn(state: GameState, log: EventLog | None) -> None:
    """End the active player's turn and start the next player's.

    Two facts the rejoin probe (``solver._TurnRejoinProbe``) relies on
    (:func:`_attack` states a third):

    1. It leaves the ending player's ``deck_pos`` and hand size and both
       boards' sizes as they were.  The thaw, the next player's refresh and
       a draw from a non-empty deck change flags and the next player's zones
       only (a burn adds to ``removed``), and nobody dies: no minion is at
       health <= 0 between actions.
    2. While the next player has a card to draw, it damages no hero, so the
       result is ongoing or a turn-limit draw, never a win.
    """
    side = state.active
    if log is not None:
        log.emit("end_turn", side=side)
    # Thaw at the end of the owner's turn; a player with nothing frozen is
    # left unwritten, so a fork may go on sharing it.
    p = state.players[side]
    if p.frozen:
        if p.gen != state.gen:
            p = state.own(side)
        p.frozen = False
    for slot, m in enumerate(p.board):
        if m.frozen:
            if p.gen != state.gen:
                p = state.own(side)
            _own(p, slot).frozen = False
    state.active = 1 - side
    state.turn += 1
    if state.turn > state.turn_limit:
        state.outcome = Outcome.DRAW
        if log is not None:
            log.emit("outcome", result=state.outcome.value, reason="turn_limit")
        return
    nxt = state.players[state.active]
    if nxt.gen != state.gen:
        nxt = state.own(state.active)
    nxt.mana_crystals = min(nxt.mana_crystals + 1, MAX_MANA)
    nxt.mana = nxt.mana_crystals
    _begin_turn(state, log)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _unknown_action(state: GameState, log: EventLog | None, action: Action) -> None:
    raise IllegalAction(f"unknown action {action!r}")


# The resolver of each action class.  The action classes have no
# subclasses, so the class itself is the key; ``apply_in_place`` and
# ``run_script`` both dispatch here.
_RESOLVE = {
    PlayCard: _play_card,
    Attack: _attack,
    EndTurn: lambda state, log, action: _end_turn(state, log),
}


def apply_in_place(state: GameState, action: Action, log: EventLog | None = None) -> None:
    """Resolve one action on ``state`` itself.

    Every legality check comes before the first change to the state, so an
    action that raises ``IllegalAction`` leaves ``state`` untouched and logs
    nothing.
    """
    if state.outcome is not _ONGOING:
        raise IllegalAction("the game is already decided")
    _RESOLVE.get(action.__class__, _unknown_action)(state, log, action)


def apply(state: GameState, action: Action, log: EventLog | None = None) -> GameState:
    """Resolve one action; returns the successor state, never mutates input."""
    s = state.clone()
    apply_in_place(s, action, log)
    return s


def start_game(config: GameConfig, log: EventLog | None = None) -> GameState:
    """Build the initial state and run the first player's turn start (a draw).

    The configuration describes the position as the first turn begins: mana
    crystals are already at their for-turn value and are refilled, then the
    active player draws their start-of-turn card.
    """
    state = config.to_state()
    begin_game(state, log)
    return state


def begin_game(state: GameState, log: EventLog | None) -> None:
    """Run the first player's turn start (a draw) on a state fresh from
    ``GameConfig.to_state``: the second half of :func:`start_game`, for a
    caller that sets the state up between the two."""
    _begin_turn(state, log)


def run_script(
    state: GameState, steps: Iterable[ScriptStep], log: EventLog | None = None
) -> Iterator[tuple[int, ScriptStep, str | None]]:
    """Step ``state`` in place through scripted steps: the one replay rule.

    Yields ``(index, step, skipped)`` after each step: ``skipped`` is None
    for a step taken, or the reason an ``optional`` step was illegal here
    (it is skipped and leaves the state as it was).  Any other illegal step
    raises ``IllegalAction`` with its zero-based index.  Returns once the
    game is decided, checked before the next step is pulled, so a lazy
    ``steps`` source is read no further than the deciding step.  A step
    needs only ``action`` and ``optional``.
    """
    if state.outcome is not _ONGOING:
        return
    resolvers = _RESOLVE
    for index, step in enumerate(steps):
        skipped = None
        action = step.action
        try:
            # The game is undecided here, so the step is resolved as
            # ``apply_in_place`` would, without its frame.
            resolvers.get(action.__class__, _unknown_action)(state, log, action)
        except IllegalAction as exc:
            if not step.optional:
                raise IllegalAction(exc.reason, step=index) from None
            skipped = exc.reason
        yield index, step, skipped
        if state.outcome is not _ONGOING:
            return


def replay(
    config: GameConfig, actions: Iterable[Action], log: EventLog | None = None
) -> GameState:
    """Run a fixed action sequence through :func:`run_script`, every step
    required, on the state built from ``config``."""
    state = start_game(config, log)
    for _ in run_script(state, map(ScriptStep, actions), log):
        pass
    return state
