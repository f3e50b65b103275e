"""Game state value types, configuration IO and position keys.

States are value objects.  A player is one object: its hero's health,
weapon, mana and fatigue sit next to its deck, hand and board.  Players
and minions are copied on write.  ``fork()`` is the cheap copy for
searches that branch: it builds a new state and a new ``players`` list,
and shares both players, and with them their hands, boards and minions.
``clone()`` is a fork whose players are private copies that own copies
of their minions, so it shares no mutable object with its source and
either may be written freely.
The engine's ``apply`` never mutates an input state, it clones and
returns; ``apply_in_place`` steps a state its caller owns and leaves it
untouched when it rejects the action.

Ownership: every ``GameState`` carries a ``gen`` number, fresh on
construction and on both sides of a ``fork()``.  Every player records the
``gen`` of the state that owns it, and every minion the ``gen`` of the
player that owns it (0 for none).  A state may write a player, and a
player a minion, only when the two agree.  After a fork neither side owns
the players they share, so the one player write path,
:meth:`GameState.own`, swaps a private copy into the state before the
first write to a player.  The copy takes the state's ``gen``, which no
object outside the state carries, so it has new hand and board lists but
owns none of the minions it shares; the engine's one minion write path,
``engine._own``, likewise swaps a private copy into the board slot before
the first write to one of them.  ``clone()`` takes none of its source's
players, so the source keeps its ``gen`` and owns what it owned before.
So a player or a minion that nobody owns is never written again, and
the first :func:`position_key` that meets it keeps its encoded fields.
Code outside the engine that writes a player or a minion directly must
take it through those two paths, or write a ``clone()``, or a state that
no fork shares players with: one that has never been forked, or only by
``clone()``.

Decks are shared immutable tuples with a per-player draw cursor so copying
is O(board + hand), not O(deck).  Decks are interned, so equal decks are one
object for the life of the process.  Weapons are immutable values too: the
engine replaces a hero's weapon rather than changing it.

Search tables key positions by :func:`position_key`: the pickle of one
flat tuple of ints, bools and None, in which the hand and board lengths
come before the parts they measure.  It therefore splits back into its
fields one way only, which makes the key exact.  Actions are frozen values;
the engine shares one instance of each among all the lists it returns.
"""
from __future__ import annotations

import copy
import itertools
import json
import operator
import pickle
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple

from .cards import CardKind, CardSpec, EffectTag, Tribe, card, card_database

FORMAT_VERSION = 1

MAX_BOARD = 7
MAX_HAND = 10
MAX_MANA = 10
MAX_HERO_HEALTH = 30
DEFAULT_TURN_LIMIT = 500


class Outcome(str, Enum):
    ONGOING = "ongoing"
    FRIENDLY_WINS = "friendly_wins"
    ENEMY_WINS = "enemy_wins"
    DRAW = "draw"


class IllegalAction(Exception):
    """Raised when an action fails validation against the current state."""

    def __init__(self, reason: str, step: int | None = None):
        self.reason = reason
        self.step = step
        super().__init__(reason if step is None else f"step {step}: {reason}")


# ---------------------------------------------------------------------------
# Actions and character references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharRef:
    """Reference to a character: ``slot`` is a board index, or None for the hero."""

    side: int
    slot: int | None

    @property
    def is_hero(self) -> bool:
        return self.slot is None

    def to_json_obj(self) -> dict:
        if self.slot is None:
            return {"hero": self.side}
        return {"side": self.side, "slot": self.slot}

    @staticmethod
    def from_json_obj(obj: dict) -> "CharRef":
        obj = json_object(obj)
        side = json_int(obj["hero"] if "hero" in obj else obj["side"])
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        return CharRef(side, None if "hero" in obj else json_int(obj["slot"]))


def json_int(value: Any) -> int:
    """``value``, read from a JSON file, if it is an integer.  A float, a
    numeric string or a bool raises ``ValueError`` rather than being
    coerced."""
    if type(value) is not int:
        raise ValueError(f"not an integer: {value!r}")
    return value


def json_object(value: Any) -> dict:
    """``value``, read from a JSON file, if it is an object; an array, a
    string or a number raises ``ValueError``."""
    if type(value) is not dict:
        raise ValueError(f"not an object: {value!r}")
    return value


def hero_ref(side: int) -> CharRef:
    return CharRef(side, None)


def minion_ref(side: int, slot: int) -> CharRef:
    return CharRef(side, slot)


@dataclass(frozen=True)
class PlayCard:
    hand: int
    target: CharRef | None = None
    position: int | None = None


@dataclass(frozen=True)
class Attack:
    attacker: CharRef
    defender: CharRef


@dataclass(frozen=True)
class EndTurn:
    pass


Action = PlayCard | Attack | EndTurn


def action_to_json_obj(action: Action) -> dict:
    if isinstance(action, PlayCard):
        play: dict[str, Any] = {"hand": action.hand}
        if action.target is not None:
            play["target"] = action.target.to_json_obj()
        if action.position is not None:
            play["position"] = action.position
        return {"play": play}
    if isinstance(action, Attack):
        return {
            "attack": {
                "attacker": action.attacker.to_json_obj(),
                "defender": action.defender.to_json_obj(),
            }
        }
    if isinstance(action, EndTurn):
        return {"end": True}
    raise TypeError(f"not an action: {action!r}")


def action_from_json_obj(obj: dict) -> Action:
    """The action of a line file's ``action`` value.  It, its ``play`` or
    ``attack`` and each character reference (of side 0 or 1) must be JSON
    objects, and ``end`` must be JSON ``true``; else ``ValueError``."""
    obj = json_object(obj)
    if "play" in obj:
        play = json_object(obj["play"])
        target = CharRef.from_json_obj(play["target"]) if "target" in play else None
        position = play.get("position")
        if position is not None:
            position = json_int(position)
        return PlayCard(json_int(play["hand"]), target, position)
    if "attack" in obj:
        atk = json_object(obj["attack"])
        return Attack(
            CharRef.from_json_obj(atk["attacker"]),
            CharRef.from_json_obj(atk["defender"]),
        )
    if obj.get("end") is True:
        return EndTurn()
    raise ValueError(f"unrecognised action object: {obj!r}")


@dataclass(frozen=True)
class ScriptStep:
    """One step of a scripted line, as ``engine.run_script`` reads it: an
    ``optional`` step is skipped where it is illegal."""

    action: Action
    optional: bool = False

    def to_json_obj(self) -> dict:
        obj = {"action": action_to_json_obj(self.action)}
        if self.optional:
            obj["optional"] = True
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "ScriptStep":
        optional = json_object(obj).get("optional", False)
        if type(optional) is not bool:
            raise ValueError(f"not a boolean: {optional!r}")
        return ScriptStep(action_from_json_obj(obj["action"]), optional)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


class Event(NamedTuple):
    """One resolution step in the event log."""

    step: int
    kind: str
    data: dict

    def to_json_obj(self) -> dict:
        obj = {"step": self.step, "kind": self.kind}
        obj.update(self.data)
        return obj


class EventLog:
    """Append-only event collector; pass None to the engine to skip logging.
    Each event's ``step`` is its index in the log."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, kind: str, **data: Any) -> None:
        self.events.append(Event(len(self.events), kind, data))

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# Mutable-by-the-engine building blocks (``apply`` clones them first)
# ---------------------------------------------------------------------------


class Weapon(NamedTuple):
    """An equipped weapon.  Immutable, so heroes and their copies share it."""

    attack: int
    durability: int


class MinionInstance:
    """A minion on a board.  ``gen`` is the ``gen`` of the player that owns
    it (0 for none); ``encoded`` is None, or its part of a position key,
    kept by the first key that meets it unowned (see
    :func:`position_key`)."""

    __slots__ = (
        "card_id",
        "effect",
        "tribe",
        "attack",
        "health",
        "max_health",
        "taunt",
        "frozen",
        "exhausted",
        "charge",
        "attacked",
        "iid",
        "gen",
        "encoded",
    )

    def __init__(
        self,
        card_id: str,
        effect: EffectTag,
        tribe: Tribe,
        attack: int,
        health: int,
        max_health: int,
        taunt: bool = False,
        frozen: bool = False,
        exhausted: bool = False,
        charge: bool = False,
        attacked: bool = False,
        iid: int = 0,
        gen: int = 0,
    ):
        self.card_id = card_id
        self.effect = effect
        self.tribe = tribe
        self.attack = attack
        self.health = health
        self.max_health = max_health
        self.taunt = taunt
        self.frozen = frozen
        self.exhausted = exhausted
        self.charge = charge
        self.attacked = attacked
        self.iid = iid
        self.gen = gen
        self.encoded = None

    @staticmethod
    def from_card(spec: CardSpec, iid: int, gen: int = 0) -> "MinionInstance":
        assert spec.kind == CardKind.MINION
        return MinionInstance(
            card_id=spec.card_id,
            effect=spec.effect,
            tribe=spec.tribe,
            attack=spec.attack or 0,
            health=spec.health or 0,
            max_health=spec.health or 0,
            iid=iid,
            gen=gen,
        )

    @property
    def damaged(self) -> bool:
        return self.health < self.max_health

    def can_attack(self) -> bool:
        if self.attack < 1 or self.frozen or self.attacked:
            return False
        return (not self.exhausted) or self.charge

    def clone(self, gen: int) -> "MinionInstance":
        """A copy owned by the player whose ``gen`` is given.  It starts
        without an ``encoded`` key part: its owner may still write it."""
        m = MinionInstance.__new__(MinionInstance)
        m.card_id = self.card_id
        m.effect = self.effect
        m.tribe = self.tribe
        m.attack = self.attack
        m.health = self.health
        m.max_health = self.max_health
        m.taunt = self.taunt
        m.frozen = self.frozen
        m.exhausted = self.exhausted
        m.charge = self.charge
        m.attacked = self.attacked
        m.iid = self.iid
        m.gen = gen
        m.encoded = None
        return m

    def canonical(self) -> tuple:
        return (
            self.card_id,
            self.attack,
            self.health,
            self.max_health,
            self.taunt,
            self.frozen,
            self.exhausted,
            self.charge,
            self.attacked,
        )


# Every deck ever given to a player, keyed by itself.  Interning makes equal
# decks one object that is never freed, so ``id(deck)`` names the deck's
# contents exactly for the life of the process (see :func:`position_key`).
_DECKS: dict[tuple[str, ...], tuple[str, ...]] = {}

# Source of ``GameState.gen`` numbers; 0 is never drawn, so it marks a
# minion that no player owns.
_GENS = itertools.count(1)


# A player's hero fields as one tuple: the first part of its ``canonical()``.
hero_fields = operator.attrgetter(
    "health", "max_health", "weapon", "mana_crystals", "mana", "attacked", "frozen", "fatigue")


class PlayerState:
    """One side of the game: its hero's fields, its deck, hand and board,
    the ``gen`` of the state that owns it (see the module docstring) and
    ``encoded``: None, or its part of a position key, kept by the first
    key that meets it unowned (see :func:`position_key`).  The
    constructor builds a player at the start of a game, with full mana and
    no fatigue; the ``GameState`` it is given to takes ownership of it."""

    __slots__ = (
        "health",
        "max_health",
        "weapon",
        "mana_crystals",
        "mana",
        "attacked",
        "frozen",
        "fatigue",
        "deck",
        "deck_pos",
        "hand",
        "board",
        "gen",
        "encoded",
    )

    def __init__(
        self,
        health: int,
        max_health: int,
        weapon: Weapon | None,
        mana_crystals: int,
        deck: tuple[str, ...],
        hand: list[str],
        board: list[MinionInstance],
    ):
        self.health = health
        self.max_health = max_health
        self.weapon = weapon
        self.mana_crystals = mana_crystals
        self.mana = mana_crystals
        self.attacked = False
        self.frozen = False
        self.fatigue = 0
        self.deck = _DECKS.setdefault(deck, deck)
        self.deck_pos = 0
        self.hand = hand
        self.board = board
        self.gen = 0
        self.encoded = None

    @property
    def deck_remaining(self) -> int:
        return len(self.deck) - self.deck_pos

    def canonical(self) -> tuple:
        return (
            hero_fields(self),
            self.deck[self.deck_pos :],
            tuple(self.hand),
            tuple(m.canonical() for m in self.board),
        )


class GameState:
    __slots__ = (
        "players",
        "active",
        "turn",
        "turn_limit",
        "outcome",
        "removed",
        "next_iid",
        "gen",
    )

    def __init__(
        self,
        players: list[PlayerState],
        active: int,
        turn: int,
        turn_limit: int = DEFAULT_TURN_LIMIT,
        outcome: Outcome = Outcome.ONGOING,
        removed: int = 0,
        next_iid: int = 1,
    ):
        """A state that owns the ``players`` it is given."""
        self.players = players
        self.active = active
        self.turn = turn
        self.turn_limit = turn_limit
        self.outcome = outcome
        self.removed = removed
        self.next_iid = next_iid
        self.gen = next(_GENS)
        for p in players:
            p.gen = self.gen

    def clone(self) -> "GameState":
        """A deep copy: a :meth:`fork` whose players are private copies
        (:meth:`own`) that own copies of their minions, so it shares no
        mutable object with this state.  This state keeps its ``gen``, so
        it owns what it owned before."""
        gen = self.gen
        s = self.fork()
        self.gen = gen
        gen = s.gen
        for side in (0, 1):
            p = s.own(side)
            p.board = [m.clone(gen) for m in p.board]
        return s

    def fork(self) -> "GameState":
        """A copy for a search branch: a new state and ``players`` list that
        share both players with this state until one of the two writes one
        of them.

        Both states get fresh ``gen``s, so neither owns the shared players
        afterwards, and each copies a player before its first write to it
        (:meth:`own`).  A search child thus copies only the players its
        action writes.
        """
        s = GameState.__new__(GameState)
        s.players = self.players[:]
        s.active = self.active
        s.turn = self.turn
        s.turn_limit = self.turn_limit
        s.outcome = self.outcome
        s.removed = self.removed
        s.next_iid = self.next_iid
        s.gen = next(_GENS)
        self.gen = next(_GENS)
        return s

    def own(self, side: int) -> PlayerState:
        """Player ``side``, made safe for this state to write: the one write
        path for players, and the only code that copies them.

        A player this state does not own (its ``gen`` differs, as after a
        fork) may be shared with another state, so a private copy takes its
        place first.  The copy has new hand and board lists and this
        state's ``gen``; it shares the deck, the weapon and the minions, and
        owns none of those minions, so ``engine._own`` copies each before
        writing it.  It starts without an ``encoded`` key part.  The
        engine's hot step paths make the ownership test inline and call
        this only to copy.
        """
        src = self.players[side]
        gen = self.gen
        if src.gen == gen:
            return src
        p = PlayerState.__new__(PlayerState)
        p.health = src.health
        p.max_health = src.max_health
        p.weapon = src.weapon
        p.mana_crystals = src.mana_crystals
        p.mana = src.mana
        p.attacked = src.attacked
        p.frozen = src.frozen
        p.fatigue = src.fatigue
        p.deck = src.deck
        p.deck_pos = src.deck_pos
        p.hand = src.hand[:]
        p.board = src.board[:]
        p.gen = gen
        p.encoded = None
        self.players[side] = p
        return p

    def canonical(self) -> tuple:
        """The reference encoding of the position: the nested tuple that
        :func:`position_key` must agree with (``TestPositionKey`` checks that
        keys are equal exactly when these tuples are)."""
        return (
            self.players[0].canonical(),
            self.players[1].canonical(),
            self.active,
            self.turn,
            self.turn_limit,
            self.outcome.value,
            self.removed,
        )


# ---------------------------------------------------------------------------
# Position keys
# ---------------------------------------------------------------------------


# Small integer codes for card ids and outcomes, which keep position keys
# short and free of strings.
_CARD_CODES = {card_id: code for code, card_id in enumerate(card_database())}
_OUTCOME_CODES = {outcome: code for code, outcome in enumerate(Outcome)}


# ``pickle.dumps(t, 3)`` of a tuple ``t`` of four or more ints, bools and
# None is this head, the items' encodings in order, and this tail.  No item
# is memoised, so an item's encoding depends on its value alone.
_KEY_HEAD = b"\x80\x03("
_KEY_TAIL = b"tq\x00."


def position_key(state: GameState) -> bytes:
    """Exact, compact in-process key of the position, for search tables.

    Covers the same fields as :meth:`GameState.canonical`, but names each
    deck by ``(id(deck), deck_pos)`` instead of spelling out the remaining
    cards, and each card id and the outcome by a small code.  Decks are
    interned and never freed, so equal keys always mean equal positions;
    and since the engine only moves ``deck_pos``, equal positions have
    equal keys whenever their decks are equal, as for every state reached
    from one start.

    The key is ``pickle.dumps(t, 3)`` of one flat tuple ``t`` of ints,
    bools and None:

    * ``active``, ``turn``, ``turn_limit``, the outcome code, ``removed``;
    * then, for each player: the hero's health, max health, mana crystals,
      mana, attacked, frozen and fatigue, ``id(deck)``, ``deck_pos``, the
      hand length and the board length; the weapon as None or as attack
      and durability; the hand's card codes; and nine fields per minion
      (card code, attack, health, max health, taunt, frozen, exhausted,
      charge, attacked).

    The lengths come before the parts they measure and a weapon's attack
    is never None, so the sequence splits back into its fields one way
    only: the key is exact.  A flat tuple of scalars shares no
    sub-objects, so its pickle depends on its values alone.  The bytes are
    tied to this process.

    Those bytes are the items' encodings in order, so they are put
    together from parts.  A player its state does not own, or a minion its
    player does not own (a ``gen`` apart, as after a fork), is never
    written again: the engine writes a private copy instead
    (``GameState.own``, ``engine._own``), and that copy starts
    without a key part.  The first key that meets such a player or minion
    keeps its encoded run (a player's header, weapon, hand codes and
    minions, or a minion's nine fields) in its ``encoded`` slot, and later
    keys splice that in.  So a search child that writes one player encodes
    only that one.  Owned players and minions, which may still be written,
    are encoded with the fields around them.  Each run of fields before,
    between or after kept parts starts with the game's fields, a player's
    header or a minion, so it holds at least four items, and its encoding
    is its pickle with the head and tail cut off.
    """
    key = [
        state.active,
        state.turn,
        state.turn_limit,
        _OUTCOME_CODES[state.outcome],
        state.removed,
    ]
    codes = _CARD_CODES
    dumps = pickle.dumps
    parts = [_KEY_HEAD]
    owner = state.gen
    for p in state.players:
        start = None
        if p.gen != owner:
            if key:
                parts.append(dumps(tuple(key), 3)[3:-4])
                key = []
            part = p.encoded
            if part is not None:
                parts.append(part)
                continue
            start = len(parts)  # kept from here on
        hand = p.hand
        board = p.board
        key += (
            p.health,
            p.max_health,
            p.mana_crystals,
            p.mana,
            p.attacked,
            p.frozen,
            p.fatigue,
            id(p.deck),
            p.deck_pos,
            len(hand),
            len(board),
        )
        w = p.weapon
        if w is None:
            key.append(None)
        else:
            key += (w.attack, w.durability)
        key += map(codes.__getitem__, hand)
        gen = p.gen
        for m in board:
            part = None if m.gen == gen else m.encoded
            if part is None:
                fields = (
                    codes[m.card_id],
                    m.attack,
                    m.health,
                    m.max_health,
                    m.taunt,
                    m.frozen,
                    m.exhausted,
                    m.charge,
                    m.attacked,
                )
                if m.gen == gen:
                    key += fields
                    continue
                part = m.encoded = dumps(fields, 3)[3:-4]
            if key:
                parts.append(dumps(tuple(key), 3)[3:-4])
                key = []
            parts.append(part)
        if start is not None:
            if key:
                parts.append(dumps(tuple(key), 3)[3:-4])
                key = []
            p.encoded = b"".join(parts[start:])
    if len(parts) == 1:
        return dumps(tuple(key), 3)
    if key:
        parts.append(dumps(tuple(key), 3)[3:-4])
    parts.append(_KEY_TAIL)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Game configuration (external JSON format)
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Raised for malformed configuration input."""


_BOARD_FLAGS = ("taunt", "frozen", "exhausted", "charge")


@dataclass
class GameConfig:
    """A game setup in its external JSON form, checked on construction.

    The constructor parses ``obj`` once, raising ``ConfigError`` at the
    first malformed field, and keeps the start state it built.
    ``to_state()`` returns a fresh ``clone()`` of that state, which its
    caller owns and may write directly.  ``obj`` must not be changed
    afterwards: the start state would no longer match it.
    """

    obj: dict
    _start: GameState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._start = _parse_config(self.obj)

    @staticmethod
    def from_json_obj(obj: dict) -> "GameConfig":
        return GameConfig(copy.deepcopy(obj))

    @staticmethod
    def from_json(text: str) -> "GameConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return GameConfig.from_json_obj(obj)

    def to_json_obj(self) -> dict:
        return copy.deepcopy(self.obj)

    def to_json(self) -> str:
        return json.dumps(self.obj, indent=2, sort_keys=True) + "\n"

    def to_state(self) -> GameState:
        return self._start.clone()


def _require(cond: bool, msg: str, *args: Any) -> None:
    """Raise ``ConfigError`` with ``msg.format(*args)`` unless ``cond``."""
    if not cond:
        raise ConfigError(msg.format(*args))


def _int_in(value: Any, low: int, high: float = float("inf")) -> bool:
    """Whether ``value`` is an integer (not a bool) in ``[low, high]``."""
    return type(value) is int and low <= value <= high


def _parse_config(obj: dict) -> GameState:
    """The start state of the config ``obj``, checked field by field as it
    is built; the first malformed field raises ``ConfigError``."""
    _require(isinstance(obj, dict), "config must be an object")
    _require(_int_in(obj.get("formatVersion"), FORMAT_VERSION, FORMAT_VERSION),
             "formatVersion must be 1")
    players = obj.get("players")
    _require(isinstance(players, list) and len(players) == 2, "need exactly 2 players")
    active = obj.get("active")
    _require(_int_in(active, 0, 1), "active must be 0 or 1")
    turn = obj.get("turn")
    _require(_int_in(turn, 1), "turn must be >= 1")
    limit = obj.get("turnLimit", DEFAULT_TURN_LIMIT)
    _require(_int_in(limit, 1), "turnLimit must be >= 1")
    _require(limit >= turn, "turnLimit must be >= turn")
    states: list[PlayerState] = []
    next_iid = 1
    for idx, ps in enumerate(players):
        where = f"players[{idx}]"
        _require(isinstance(ps, dict), "{} must be an object", where)
        hero = ps.get("hero")
        _require(isinstance(hero, dict), "{}.hero missing", where)
        hero_health = hero.get("health")
        _require(_int_in(hero_health, 1), "{}.hero.health must be a positive integer", where)
        max_health = hero.get("maxHealth", MAX_HERO_HEALTH)
        _require(_int_in(max_health, hero_health),
                 "{}.hero.maxHealth must be an integer >= health", where)
        crystals = hero.get("manaCrystals", MAX_MANA)
        _require(_int_in(crystals, 0, MAX_MANA), "{}.hero.manaCrystals out of range", where)
        weapon = hero.get("weapon")
        if weapon is not None:
            _require(
                isinstance(weapon, dict)
                and _int_in(weapon.get("attack"), 0)
                and _int_in(weapon.get("durability"), 1),
                "{}.hero.weapon malformed", where,
            )
            weapon = Weapon(weapon["attack"], weapon["durability"])
        deck, hand = ps.get("deck", []), ps.get("hand", [])
        for zone, ids in (("deck", deck), ("hand", hand)):
            _require(isinstance(ids, list), "{}.{} must be a list", where, zone)
            try:
                for cid in ids:
                    card(cid)
            except (KeyError, TypeError):  # TypeError: a list or object, not a name
                raise ConfigError(f"{where}.{zone}: unknown card {cid!r}")
        _require(len(hand) <= MAX_HAND, "{}.hand exceeds {}", where, MAX_HAND)
        board = ps.get("board", [])
        _require(isinstance(board, list) and len(board) <= MAX_BOARD, "{}.board too large", where)
        minions: list[MinionInstance] = []
        for bi, entry in enumerate(board):
            _require(isinstance(entry, dict) and "card" in entry,
                     "{}.board[{}] needs a card", where, bi)
            try:
                spec = card(entry["card"])
            except (KeyError, TypeError):
                raise ConfigError(f"{where}.board[{bi}]: unknown card {entry['card']!r}")
            _require(spec.kind == CardKind.MINION,
                     "{}.board[{}]: {} is not a minion", where, bi, entry["card"])
            flags = entry.get("flags", [])
            _require(isinstance(flags, list), "{}.board[{}]: flags must be a list", where, bi)
            for flag in flags:
                _require(flag in _BOARD_FLAGS, "{}.board[{}]: unknown flag {!r}", where, bi, flag)
            attack = entry.get("attack", spec.attack)
            _require(_int_in(attack, 0),
                     "{}.board[{}]: attack must be a non-negative integer", where, bi)
            health = entry.get("health", spec.health)
            _require(_int_in(health, 1), "{}.board[{}]: health out of range", where, bi)
            max_h = entry.get("maxHealth", max(health, spec.health))
            _require(_int_in(max_h, health), "{}.board[{}]: health out of range", where, bi)
            minions.append(MinionInstance(
                spec.card_id, spec.effect, spec.tribe, attack, health, max_h,
                "taunt" in flags, "frozen" in flags, "exhausted" in flags, "charge" in flags,
                iid=next_iid,
            ))
            next_iid += 1
        states.append(PlayerState(hero_health, max_health, weapon, crystals,
                                  tuple(deck), list(hand), minions))
    return GameState(states, active, turn, limit, next_iid=next_iid)


def _minion_obj(m: MinionInstance) -> dict:
    flags = [
        name
        for name, val in (
            ("taunt", m.taunt),
            ("frozen", m.frozen),
            ("exhausted", m.exhausted),
            ("charge", m.charge),
            ("attacked", m.attacked),
        )
        if val
    ]
    return {
        "card": m.card_id,
        "attack": m.attack,
        "health": m.health,
        "maxHealth": m.max_health,
        "flags": flags,
    }


def _hero_obj(p: PlayerState) -> dict:
    """The ``hero`` object of player ``p`` in a ``--trace`` snapshot."""
    hero = {
        "health": p.health,
        "maxHealth": p.max_health,
        "manaCrystals": p.mana_crystals,
        "mana": p.mana,
        "fatigue": p.fatigue,
    }
    if p.weapon:
        hero["weapon"] = {"attack": p.weapon.attack, "durability": p.weapon.durability}
    return hero


def state_to_json_obj(state: GameState) -> dict:
    """Informational snapshot of a live state, the body of a ``--trace``
    snapshot line.  :func:`snapshot_json` writes the same line as text."""
    return {
        "players": [
            {
                "hero": _hero_obj(p),
                "hand": list(p.hand),
                "deckRemaining": p.deck_remaining,
                "board": [_minion_obj(m) for m in p.board],
            }
            for p in state.players
        ],
        "active": state.active,
        "turn": state.turn,
        "outcome": state.outcome.value,
    }


@dataclass
class SnapshotMemo:
    """The texts :func:`snapshot_json` and :func:`event_json` have written
    during one replay, one table per part, each keyed on the fields its part
    prints."""

    minions: dict[tuple, str] = field(default_factory=dict)
    heroes: dict[tuple, str] = field(default_factory=dict)
    hands: dict[tuple[str, ...], str] = field(default_factory=dict)
    events: dict[tuple[str, str], str] = field(default_factory=dict)


def event_json(event: Event, memo: SnapshotMemo) -> str:
    """The replay line of ``event``: exactly ``json.dumps(event.to_json_obj())``.

    A replay logs thousands of events but only a few hundred distinct
    payloads, so everything after the step number is encoded once per
    replay and kept in ``memo``.  The key is the kind and ``repr`` of the
    payload, which is exact for the ints, strings, bools, None and nested
    dicts of them that the engine logs; no payload has a ``step`` key.
    """
    key = (event.kind, repr(event.data))
    text = memo.events.get(key)
    if text is None:
        text = memo.events[key] = json.dumps({"kind": event.kind, **event.data})[1:]
    return f'{{"step": {event.step}, {text}'


def snapshot_json(state: GameState, step_index: int, memo: SnapshotMemo) -> str:
    """The ``--trace`` snapshot line of ``state``: exactly
    ``json.dumps({"kind": "snapshot", "stepIndex": step_index,
    **state_to_json_obj(state)})``.

    A replay prints a snapshot after every step, and most steps leave most
    minions, both heroes and a hand as they were.  So each minion, hero and
    hand is encoded once per replay, as ``json.dumps`` of the dict
    :func:`state_to_json_obj` builds for it, and kept in ``memo``; the
    player and snapshot objects around them are written directly.
    """
    players = []
    for p in state.players:
        key = (p.health, p.max_health, p.mana_crystals, p.mana, p.fatigue, p.weapon)
        hero = memo.heroes.get(key)
        if hero is None:
            hero = memo.heroes[key] = json.dumps(_hero_obj(p))
        hand_key = tuple(p.hand)
        hand = memo.hands.get(hand_key)
        if hand is None:
            hand = memo.hands[hand_key] = json.dumps(p.hand)
        board = []
        for m in p.board:
            key = m.canonical()  # exactly the fields _minion_obj prints
            text = memo.minions.get(key)
            if text is None:
                text = memo.minions[key] = json.dumps(_minion_obj(m))
            board.append(text)
        players.append(f'{{"hero": {hero}, "hand": {hand}, "deckRemaining": '
                       f'{p.deck_remaining}, "board": [{", ".join(board)}]}}')
    return (f'{{"kind": "snapshot", "stepIndex": {step_index}, "players": '
            f'[{", ".join(players)}], "active": {state.active}, "turn": '
            f'{state.turn}, "outcome": "{state.outcome.value}"}}')


def total_card_count(state: GameState) -> int:
    """Cards across all zones plus the removed counter; conserved by the engine."""
    total = state.removed
    for p in state.players:
        total += p.deck_remaining + len(p.hand) + len(p.board)
        if p.weapon is not None:
            total += 1
    return total
