"""Compile pick-one-from-each-pair sum games into battle setups.

Given pairs (x_i, y_i) and a target sum T, the compiler emits a game
configuration plus a scripted line with one two-way branch per pair.  The
first player wins the battle with the scripted line if and only if the values
chosen at the branches sum exactly to T.

Layout produced (player 0 moves first and owns the odd turns):

* The opposing board holds a huge-attack taunt accumulator whose hit points
  encode the target, flanked by spell-shield minions so that only freshly
  summoned carriers can ever be targeted by spells; a draw-engine minion sits
  at the end of each row.
* Turn i fields two carriers encoding 10*x_i and 10*y_i attack; a scripted
  branch delivers one into the accumulator (+2 from the charge buff) and
  destroys the other.  Even-indexed pairs are staged by the opponent and the
  survivor is stolen back across the board, which costs the same +2.
* After all pairs, a final unbuffed carrier delivers exactly 8, the built-in
  remainder of the accumulator's hit-point formula.  The accumulator dies on
  that hit exactly when the chosen values sum to T, freeing the way for a
  weapon swing at the 1-health enemy hero.

Each turn is written once, as a turn builder (``_odd_turn``, ``_even_turn``,
``_punishment_turn`` and their parts) that plays its cards and attacks
through the emitter, which runs them on the engine and lays each side's
deck as it goes.  The decks start unlaid: each draw takes the next deck
slot, and when the line plays a card that is not in hand, the oldest drawn
slot not yet laid is laid with it.  A deck so lists the cards its turns play
in the order they first need them (a branch's pair cards as it opens, since
both halves need them), padded with cheap weapons up to the number of cards
the side draws.  Each spell cast feeds one replacement draw through the
caster's draw engine, extra mana arrives as just-in-time mana-burst spells
while the live mana is short of a card's cost, and surplus draws are drained
by re-equipping cheap weapons while the hand holds four or more cards.  A
branch's y half lays no slot: it must find its cards among those its x half
laid, and both halves must leave the same position.  The emitter builds one
``ScriptStep`` object per distinct step and reuses it wherever the step
recurs.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

from . import cards as C
from .engine import _play_card, apply_in_place, begin_game, run_script, start_game
from .state import (
    Attack,
    CharRef,
    EndTurn,
    EventLog,
    GameConfig,
    GameState,
    IllegalAction,
    Outcome,
    PlayCard,
    ScriptStep,  # re-exported: line files are made of these
    action_to_json_obj,
    hero_fields,
    hero_ref,
    json_int,
    minion_ref,
    DEFAULT_TURN_LIMIT,
    FORMAT_VERSION,
    MAX_HAND,
)

# Bound once: the emitter tests it before every step, and an
# ``Enum.MEMBER`` lookup costs 120-190 ns on CPython 3.11.
_ONGOING = Outcome.ONGOING

# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class InstanceError(ValueError):
    """Raised for malformed pair-sum game input."""


@dataclass(frozen=True)
class PartitionInstance:
    """A pick-one-from-each-pair sum game: pairs (x_i, y_i) and target T.

    Player 1 (``Left``) picks from odd-indexed pairs, player 2 (``Right``)
    from even-indexed ones, in index order; Left wins iff the picks sum to T.
    """

    pairs: tuple[tuple[int, int], ...]
    target: int

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise InstanceError("need at least one pair")
        for x, y in self.pairs:
            if x < 0 or y < 0:
                raise InstanceError("pair values must be non-negative")
        if self.target < 0:
            raise InstanceError("target must be non-negative")

    @property
    def n(self) -> int:
        return len(self.pairs)

    def values(self) -> Iterable[int]:
        for x, y in self.pairs:
            yield x
            yield y

    @property
    def max_value(self) -> int:
        return max(self.values())

    @property
    def has_zero_value(self) -> bool:
        return any(v == 0 for v in self.values())

    @staticmethod
    def from_json_obj(obj: dict) -> "PartitionInstance":
        try:
            target = json_int(obj["target"])
            pairs = tuple((json_int(x), json_int(y)) for x, y in obj["pairs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"malformed instance: {exc}") from exc
        return PartitionInstance(pairs, target)

    @staticmethod
    def from_json(text: str) -> "PartitionInstance":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"invalid JSON: {exc}") from exc
        return PartitionInstance.from_json_obj(obj)

    def to_json_obj(self) -> dict:
        return {"pairs": [[x, y] for x, y in self.pairs], "target": self.target}


def shifted_instance(inst: PartitionInstance) -> tuple[PartitionInstance, int]:
    """Normalise away zero values.

    A zero-valued pick cannot be realised by a carrier (the smallest minion
    delivery is worth more than nothing), so when any value is zero the whole
    instance is shifted: every value up one, target up by n.  Each full choice
    vector gains exactly n, so the set of winning vectors is unchanged.
    """
    if not inst.has_zero_value:
        return inst, 0
    pairs = tuple((x + 1, y + 1) for x, y in inst.pairs)
    return PartitionInstance(pairs, inst.target + inst.n), 1


# ---------------------------------------------------------------------------
# Stat formulas
# ---------------------------------------------------------------------------


def leper_health(target: int, n: int) -> int:
    """Accumulator hit points: 10*T + 2n + 8.

    Each delivered carrier removes 10*value + 2; after n deliveries exactly
    8 remains iff the values sum to T, which the final 8-attack carrier
    removes precisely.
    """
    return 10 * target + 2 * n + 8


def big_attack(max_value: int) -> int:
    """Attack stat that dominates every carrier: max(1000, 20*max + 100)."""
    return max(1000, 20 * max_value + 100)


# ---------------------------------------------------------------------------
# Buff synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuffSequence:
    """Cards that raise a carrier's attack from its base to exactly 10*value.

    ``buff_length`` counts only attack-affecting casts; repair heals that
    re-enable the damage-then-double step are included in ``cards`` but not
    in ``buff_length``.
    """

    cards: tuple[str, ...]
    final_attack: int
    buff_length: int


def _buffs(v: int, base: str, double: str) -> BuffSequence:
    """The paper's binary synthesis: two ``base`` casts lift the carrier
    to 10, then each binary digit of v after the leading 1, most
    significant first, takes one ``double`` cast and, when set, five +2/+2
    marks.  A Backstab doubles through the carrier's
    double-attack-when-damaged trigger, which needs it undamaged, so each
    Backstab after the first follows a 5-point repair heal; the heals are
    in ``cards`` but not in ``buff_length``."""
    if v < 1:
        raise InstanceError("carrier value must be at least 1 after normalisation")
    seq = [base, base]
    attack = 10
    for digit in bin(v)[3:]:
        if double == C.BACKSTAB and len(seq) > 2:
            seq.append(C.FLASH_HEAL)
        seq.append(double)
        attack *= 2
        if digit == "1":
            seq.extend([C.MARK_OF_YSHAARJ] * 5)
            attack += 10
    assert attack == 10 * v
    return BuffSequence(tuple(seq), attack, len(seq) - seq.count(C.FLASH_HEAL))


def synthesize_demon_buffs(v: int) -> BuffSequence:
    """Demon carrier (base 4): two +3/+3 fuses reach 10, then the doubling
    spell per binary digit (see :func:`_buffs`)."""
    return _buffs(v, C.DEMONFUSE, C.BLESSED_CHAMPION)


_BEAST_DOUBLES = {"blessed": C.BLESSED_CHAMPION, "backstab": C.BACKSTAB}


def synthesize_beast_buffs(v: int, mode: str = "blessed") -> BuffSequence:
    """Beast carrier (base 6): two +2/+2 marks reach 10, then binary digits,
    doubled by the doubling spell (``blessed``) or by 2 self-damage
    (``backstab``, with repair heals; see :func:`_buffs`).  A value below 1
    is an ``InstanceError`` before an unknown mode is a ``ValueError``."""
    if v >= 1 and mode not in _BEAST_DOUBLES:
        raise ValueError(f"unknown beast buff mode {mode!r}")
    return _buffs(v, C.MARK_OF_YSHAARJ, _BEAST_DOUBLES.get(mode))


# ---------------------------------------------------------------------------
# Script structures
# ---------------------------------------------------------------------------


class ScheduleInfeasible(Exception):
    """Raised when no legal card schedule exists for a turn of the line."""

    def __init__(self, reason: str, turn: int | None = None, step: int | None = None):
        self.reason = reason
        self.turn = turn
        self.step = step
        where = "" if turn is None else f" (turn {turn}" + (
            f", step {step})" if step is not None else ")"
        )
        super().__init__(reason + where)


@dataclass(frozen=True)
class Branch:
    """Two-way scripted alternative realising one pair's choice."""

    decision: int
    x_steps: tuple[ScriptStep, ...]
    y_steps: tuple[ScriptStep, ...]

    def steps(self, choice: str) -> tuple[ScriptStep, ...]:
        if choice == "x":
            return self.x_steps
        if choice == "y":
            return self.y_steps
        raise ValueError(f"choice must be 'x' or 'y', got {choice!r}")

    def to_json_obj(self) -> dict:
        return {
            "decision": self.decision,
            "x": [s.to_json_obj() for s in self.x_steps],
            "y": [s.to_json_obj() for s in self.y_steps],
        }


TurnItem = ScriptStep | Branch


@dataclass(frozen=True)
class Decision:
    """Metadata for one pair's branch (original, unshifted values)."""

    index: int
    turn: int
    x_value: int
    y_value: int
    x_attack: int  # delivered attack if x is chosen (10*shifted_x + 2)
    y_attack: int
    x_destroyed: int  # stat the x carrier shows if destroyed instead (10*shifted_x)
    y_destroyed: int

    def to_json_obj(self) -> dict:
        return {
            "index": self.index,
            "turn": self.turn,
            "x": self.x_value,
            "y": self.y_value,
            "xAttack": self.x_attack,
            "yAttack": self.y_attack,
            "xDestroyed": self.x_destroyed,
            "yDestroyed": self.y_destroyed,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Decision":
        return Decision(
            *(json_int(obj[name]) for name in (
                "index", "turn", "x", "y",
                "xAttack", "yAttack", "xDestroyed", "yDestroyed")),
        )


@dataclass(frozen=True)
class TurnScript:
    turn: int
    side: int
    items: tuple[TurnItem, ...]

    def to_json_obj(self) -> dict:
        items = []
        for item in self.items:
            if isinstance(item, Branch):
                items.append({"branch": item.to_json_obj()})
            else:
                items.append({"step": item.to_json_obj()})
        return {"turn": self.turn, "side": self.side, "items": items}


# Writers of ``json.dumps(..., indent=2, sort_keys=True)`` text from parts
# already written.  ``depth`` is the nesting level of the value; its lines
# are indented by ``depth`` steps of two spaces.


def _dumps(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` nested ``depth`` deep.
    A JSON string holds no raw newline, so each newline starts a line."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _object(fields: dict[str, str], depth: int) -> str:
    """A non-empty object from its values' texts, which are written for
    ``depth + 1``; the keys are plain names, which JSON prints unescaped."""
    pad = "\n" + "  " * (depth + 1)
    body = ",".join(f'{pad}"{key}": {fields[key]}' for key in sorted(fields))
    return "{" + body + "\n" + "  " * depth + "}"


def _array(items: list[str], depth: int) -> str:
    """An array from its items' texts, which are written for ``depth + 1``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


@dataclass(frozen=True)
class ScriptedLine:
    instance: PartitionInstance
    value_shift: int
    decisions: tuple[Decision, ...]
    turns: tuple[TurnScript, ...]

    @property
    def n(self) -> int:
        return self.instance.n

    def decision_for(self, index: int) -> Decision:
        return self.decisions[index - 1]

    def check_vector(self, vector: tuple[str, ...]) -> None:
        """Raise ``ValueError`` unless ``vector`` holds one ``x``/``y``
        choice per pair."""
        if len(vector) != self.n:
            raise ValueError(f"vector must have {self.n} entries")
        for choice in vector:
            if choice not in ("x", "y"):
                raise ValueError(f"choice must be 'x' or 'y', got {choice!r}")

    def _head_obj(self) -> dict:
        """Every field of the line file but ``turns``."""
        return {
            "formatVersion": FORMAT_VERSION,
            "kind": "line",
            "instance": self.instance.to_json_obj(),
            "valueShift": self.value_shift,
            "decisions": [d.to_json_obj() for d in self.decisions],
        }

    def to_json_obj(self) -> dict:
        return {**self._head_obj(), "turns": [t.to_json_obj() for t in self.turns]}

    def to_json(self) -> str:
        """The line file: exactly ``json.dumps(self.to_json_obj(), indent=2,
        sort_keys=True) + "\\n"``, written without building that object.

        A line repeats about twenty distinct steps hundreds of times, and
        ``indent`` sends ``json.dumps`` through the pure-Python encoder.  So
        each distinct step object is written once per call, keyed by its
        ``id``: once as a whole ``{"step": ...}`` item and once as an entry
        of a branch half, where it sits two levels deeper.  The turn and
        branch structure around the steps is written directly, and only the
        small head goes through ``json.dumps`` whole.  Equal steps held as
        distinct objects are each written once and give the same text.
        """
        items: dict[int, str] = {}
        entries: dict[int, str] = {}

        def half(steps: tuple[ScriptStep, ...]) -> str:
            texts = []
            for s in steps:
                text = entries.get(id(s))
                if text is None:
                    text = entries[id(s)] = _dumps(s.to_json_obj(), 7)
                texts.append(text)
            return _array(texts, 6)

        def item(it: TurnItem) -> str:
            if isinstance(it, Branch):
                branch = _object({"decision": str(it.decision), "x": half(it.x_steps),
                                  "y": half(it.y_steps)}, 5)
                return _object({"branch": branch}, 4)
            text = items.get(id(it))
            if text is None:
                text = items[id(it)] = _object({"step": _dumps(it.to_json_obj(), 5)}, 4)
            return text

        fields = {key: _dumps(value, 1) for key, value in self._head_obj().items()}
        fields["turns"] = _array([
            _object({"items": _array([item(it) for it in t.items], 3),
                     "side": str(t.side), "turn": str(t.turn)}, 2)
            for t in self.turns
        ], 1)
        return _object(fields, 0) + "\n"

    @staticmethod
    def from_json_obj(obj: dict) -> "ScriptedLine":
        """The line of a parsed line file.  A malformed file raises
        ``InstanceError``, ``KeyError``, ``TypeError`` or ``ValueError``;
        a file whose top level is not a JSON object raises
        ``InstanceError``, every step, action and character reference must
        be a JSON object and every branch half an array.

        Each distinct step object is decoded once per call, keyed by its
        ``repr``, which is exact for the values ``json.loads`` returns.  So
        the decoded line shares one ``ScriptStep`` per distinct step, as a
        compiled line does.
        """
        if type(obj) is not dict:
            raise InstanceError("malformed line: the top level is not a JSON object")
        version = obj.get("formatVersion")
        if type(version) is not int or version != FORMAT_VERSION:
            raise InstanceError("unsupported line formatVersion")
        steps: dict[str, ScriptStep] = {}

        def step(entry) -> ScriptStep:
            key = repr(entry)
            decoded = steps.get(key)
            if decoded is None:
                decoded = steps[key] = ScriptStep.from_json_obj(entry)
            return decoded

        def half(entries) -> tuple[ScriptStep, ...]:
            if type(entries) is not list:
                raise ValueError(f"not an array: {entries!r}")
            return tuple(map(step, entries))

        def item(entry) -> TurnItem:
            if "branch" in entry:
                branch = entry["branch"]
                return Branch(json_int(branch["decision"]), half(branch["x"]), half(branch["y"]))
            return step(entry["step"])

        line = ScriptedLine(
            PartitionInstance.from_json_obj(obj["instance"]),
            json_int(obj.get("valueShift", 0)),
            tuple(Decision.from_json_obj(d) for d in obj["decisions"]),
            tuple(TurnScript(json_int(t["turn"]), json_int(t["side"]),
                             tuple(map(item, t["items"])))
                  for t in obj["turns"]),
        )
        if len(line.decisions) != line.n:
            raise InstanceError(f"{len(line.decisions)} decisions for {line.n} pairs")
        branched: set[int] = set()
        for turn in line.turns:
            for item in turn.items:
                if not isinstance(item, Branch):
                    continue
                if not 1 <= item.decision <= line.n:
                    raise InstanceError(f"branch decision {item.decision} is not in 1..{line.n}")
                if item.decision in branched:
                    raise InstanceError(f"branch decision {item.decision} repeats")
                branched.add(item.decision)
        if len(branched) != line.n:
            missing = min(set(range(1, line.n + 1)) - branched)
            raise InstanceError(f"no branch for decision {missing}")
        return line

    @staticmethod
    def from_json(text: str) -> "ScriptedLine":
        return ScriptedLine.from_json_obj(json.loads(text))


# ---------------------------------------------------------------------------
# Turn builders
# ---------------------------------------------------------------------------
#
# Each builder plays one turn's cards and attacks through the emitter.  The
# slots are known statically because the board choreography is fixed: the
# friendly core occupies slots 0-5 (newcomers at 6), the enemy core slots
# 0-3 (staged carriers at 4 and 5).

_F_CARRY = minion_ref(0, 5)  # carrier slot beside the 5-minion core
_F_SECOND = minion_ref(0, 6)  # second carrier while both are fielded
_E_LEPER = minion_ref(1, 0)
_E_STAGE0 = minion_ref(1, 4)
_E_STAGE1 = minion_ref(1, 5)
_F_HERO = hero_ref(0)
_E_HERO = hero_ref(1)
_F_TAUNT = minion_ref(0, 4)


def _odd_turn(e: _Emitter, i: int, x: int, y: int, last: bool) -> None:
    """Friendly turn i: deliver pair i (demon on slot 5, beast beside it)."""
    if i >= 3:
        _steal_back(e)
    e.play(C.ARCANE_INTELLECT)
    e.play(C.FLOATING_WATCHER, position=5)
    for cid in synthesize_demon_buffs(x).cards:
        e.play(cid, _F_CARRY)
    e.play(C.ARCANE_INTELLECT)  # stocks the branch pair
    beast = synthesize_beast_buffs(y, "blessed").cards

    # Both carriers share the board inside the branch; the unchosen one is
    # destroyed before the chosen one attacks.  The two halves cast the same
    # cards at the same costs in the same order, so mana and draws align.
    def x_half() -> None:
        e.play(C.CHARGE, _F_CARRY)
        e.play(C.ARCANE_INTELLECT)
        e.play(C.GAHZRILLA, position=6)
        for cid in beast:
            e.play(cid, _F_SECOND)
        e.play(C.SHADOW_WORD_DEATH, _F_SECOND)
        e.attack(_F_CARRY, _E_LEPER)

    def y_half() -> None:
        e.play(C.SHADOW_WORD_DEATH, _F_CARRY)
        e.play(C.ARCANE_INTELLECT)
        e.play(C.GAHZRILLA, position=5)
        for cid in beast:
            e.play(cid, _F_CARRY)
        e.play(C.CHARGE, _F_CARRY)
        e.attack(_F_CARRY, _E_LEPER)

    e.branch(i, (C.CHARGE, C.SHADOW_WORD_DEATH), x_half, y_half)
    if last:
        _verification_tail(e)
    else:
        # Stage the next pair's demon seed, then refreeze the enemy core.
        e.play(C.ARCANE_INTELLECT)
        e.play(C.FLOATING_WATCHER, position=5)
        e.play(C.DEMONFUSE, _F_CARRY)
        e.play(C.FROST_NOVA)
    e.end()


def _steal_back(e: _Emitter) -> None:
    """Steal back the survivor of the previous pair, deliver it, then
    recycle the staging slot with a ping-fodder engineer."""
    e.play(C.MIND_CONTROL, _E_STAGE0)
    e.play(C.CHARGE, _F_CARRY)
    e.attack(_F_CARRY, _E_LEPER)
    e.play(C.NOVICE_ENGINEER, position=5)
    e.play(C.MORTAL_COIL, _F_CARRY)


def _verification_tail(e: _Emitter) -> None:
    """Final delivery: an unbuffed beast hits for exactly 8 after the charge."""
    e.play(C.ARCANE_INTELLECT)
    e.play(C.GAHZRILLA, position=5)
    e.play(C.FLASH_HEAL, _F_HERO)
    e.play(C.CHARGE, _F_CARRY)
    e.attack(_F_CARRY, _E_LEPER)
    e.attack(_F_HERO, _E_HERO, optional=True)


def _even_turn(e: _Emitter, i: int, x: int, y: int) -> None:
    """Enemy turn i: finish the staged demon to 10x, stage the beast to 10y,
    destroy one of the two, park the survivor on the stage slot."""
    e.play(C.DEMONFUSE, _F_CARRY)
    for cid in synthesize_demon_buffs(x).cards[2:]:
        e.play(cid, _F_CARRY)
    for _ in range(6):
        e.play(C.MORTAL_COIL, _F_CARRY)
    e.play(C.MIND_CONTROL, _F_CARRY)
    e.play(C.ARCANE_INTELLECT)
    e.play(C.GAHZRILLA, position=5)
    for cid in synthesize_beast_buffs(y, "backstab").cards:
        e.play(cid, _E_STAGE1)
    e.branch(i, (C.SHADOW_WORD_DEATH,),
             lambda: e.play(C.SHADOW_WORD_DEATH, _E_STAGE1),  # keep the demon (x)
             lambda: e.play(C.SHADOW_WORD_DEATH, _E_STAGE0))  # keep the beast (y)
    e.play(C.FROST_NOVA)
    e.end()


def _punishment_turn(e: _Emitter) -> None:
    """Enemy cleanup if the sum missed the target: clear the taunt, go face."""
    e.attack(_E_LEPER, _F_TAUNT, optional=True)
    for slot in (1, 2, 3):
        e.attack(minion_ref(1, slot), _F_HERO, optional=True)
    e.end()


# ---------------------------------------------------------------------------
# Configuration assembly
# ---------------------------------------------------------------------------


def _board_entry(cid: str, attack=None, health=None, max_health=None, flags=()) -> dict:
    entry: dict = {"card": cid}
    if attack is not None:
        entry["attack"] = attack
    if health is not None:
        entry["health"] = health
    if max_health is not None:
        entry["maxHealth"] = max_health
    if flags:
        entry["flags"] = list(flags)
    return entry


def _setup(
    shifted: PartitionInstance,
    friendly_deck: list[str],
    enemy_deck: list[str],
    turn_limit: int,
) -> dict:
    """The configuration object, not yet validated."""
    big = big_attack(shifted.max_value)
    hp = leper_health(shifted.target, shifted.n)

    def hero() -> dict:
        weapon = {"attack": 1, "durability": 4}
        return {"health": 1, "maxHealth": 30, "weapon": weapon, "manaCrystals": 10}

    friendly_board = [
        _board_entry(C.WEE_SPELLSTOPPER, flags=["frozen"]),
        _board_entry(C.WEE_SPELLSTOPPER, flags=["frozen"]),
        _board_entry(C.MISTRESS_OF_MIXTURES, flags=["frozen"]),
        _board_entry(C.WEE_SPELLSTOPPER, flags=["frozen"]),
        _board_entry(C.GADGETZAN_AUCTIONEER, attack=big, flags=["taunt", "frozen"]),
    ]
    enemy_board = [
        _board_entry(C.LEPER_GNOME, attack=big, health=hp, max_health=hp, flags=["taunt"]),
        _board_entry(C.WEE_SPELLSTOPPER),
        _board_entry(C.WEE_SPELLSTOPPER),
        _board_entry(C.GADGETZAN_AUCTIONEER),
    ]
    return {
        "formatVersion": FORMAT_VERSION,
        "players": [
            {"hero": hero(), "deck": list(friendly_deck), "hand": [], "board": friendly_board},
            {"hero": hero(), "deck": list(enemy_deck), "hand": [], "board": enemy_board},
        ],
        "active": 0,
        "turn": 1,
        "turnLimit": turn_limit,
    }


def build_config(
    shifted: PartitionInstance,
    friendly_deck: list[str],
    enemy_deck: list[str],
    turn_limit: int,
) -> GameConfig:
    """The compiled game's config, checked as ``GameConfig`` builds it, and
    wrapped as built: no caller holds the dict to copy it from."""
    return GameConfig(_setup(shifted, friendly_deck, enemy_deck, turn_limit))


# ---------------------------------------------------------------------------
# Engine-driven script emission
# ---------------------------------------------------------------------------

# Both decks while the emitter plays: draw k takes slot k, which enters the
# hand as the number k and holds it until a card is laid in that slot.
_SLOTS = range(sys.maxsize)

# What the emitter reads of a card: its cost.  The two cards it adds on
# its own are bound as module globals, which its loop reads at every play.
_COSTS = {cid: spec.cost for cid, spec in C.card_database().items()}
_INNERVATE = C.INNERVATE
_LIGHTS_JUSTICE = C.LIGHTS_JUSTICE


def _line_turns(n: int) -> int:
    """How many turns the line of an n-pair instance spans: one per pair,
    a turn of its own to verify the sum when n is even, and the punishment
    turn."""
    return n + 1 + (n % 2 == 0)


class _Emitter:
    """Plays the turns through the real engine as the turn builders call
    ``play``, ``attack``, ``end`` and ``branch``, producing concrete actions
    with live hand indices, checking every move is legal and laying both
    decks as it goes.

    The start state's decks are not laid yet: each draw takes the next slot
    (see ``_SLOTS``).  When the main chain (every step outside a branch,
    and each branch's x half) plays a card not in hand, the oldest unlaid
    slot in hand is laid with it (``_lay``); the hand keeps cards in draw
    order, so slots are laid first in, first out, and a deck lists its
    cards in the order they are laid.  A branch lays its pair cards as it
    opens, so both halves find them in hand.  The y half may not lay a
    slot: it runs on a fork after the x half, and the game goes on from the
    x half, which has already decided every slot it draws.  So the y half
    finds its cards only among those the x half laid, and fails where one
    is missing.  Mana bursts (Innervates) go in while the mover's live mana
    is short of a card's cost, and after each played card, Light's Justice
    equips go in while the mover holds four or more cards.  A slot drawn
    but never laid holds Light's Justice in the final deck (``decks``).

    ``play`` does all of this in one loop, about half of whose steps are
    Innervates: each step reads the card's cost from ``_COSTS``, finds or
    lays the card, takes its ``ScriptStep`` and resolves it with the
    engine's ``_play_card``, with no call of its own per step.  A branch
    forks the state, so ``play`` and ``branch`` take the mover through
    ``GameState.own`` before they write its hand.  The emitter keeps the
    card each step plays (``cards``), which the validating replay checks
    and the line file does not hold.

    ``compile_instance`` inflates the accumulator's hit points on the start
    state (the turn start that ``engine.begin_game`` runs does not read
    them).  Hand, mana, deck and board choreography do not depend on the
    accumulator's exact health, and the inflated accumulator survives every
    delivery, so every pair turn and both halves of every branch are run.
    It then blocks the final weapon swing, and the punishment turn decides
    the emitter's game (``enemy_wins``) before its last steps, which the
    emitter records without applying them.  That is why it keeps its own
    loop: ``engine.run_script`` stops at a decided outcome.

    A line repeats about twenty distinct steps hundreds of times, so each
    distinct ``ScriptStep`` is built once and shared by every equal step of
    the compile: an untargeted play's by its hand index, any other step's
    by its action's arguments.

    The steps go to ``items`` and their cards to ``played``, and the next
    step is step ``k`` of ``turn``; ``lays`` is False in a y half.  A new
    emitter stands at step 0 of turn 1.
    """

    def __init__(self, config: GameConfig):
        state = config.to_state()
        for p in state.players:
            p.deck = _SLOTS  # never keyed, so it need not be interned
        begin_game(state, None)
        self.state = state
        self.laid: tuple[dict[int, str], dict[int, str]] = ({}, {})
        self._plays: list[ScriptStep | None] = [None] * MAX_HAND
        self._steps: dict[tuple, ScriptStep] = {}
        self._end_turn = ScriptStep(EndTurn())
        self.cards: list[list] = []
        self.items: list[TurnItem] = []
        self.played: list = []
        self.turn, self.k, self.lays = 1, 0, True

    def decks(self) -> list[list[str]]:
        """Each side's deck: its laid cards, padded with Light's Justice up
        to the slots it drew."""
        return [[laid.get(slot, C.LIGHTS_JUSTICE) for slot in range(p.deck_pos)]
                for laid, p in zip(self.laid, self.state.players)]

    def _lay(self, hand: list, cid: str, k: int) -> int:
        """Lay ``cid`` in the oldest unlaid slot of ``hand``, the mover's,
        and return its index; a y half lays none."""
        if self.lays:
            state = self.state
            for index, held in enumerate(hand):
                if held.__class__ is int:
                    self.laid[state.active][held] = hand[index] = cid
                    return index
        raise ScheduleInfeasible(f"{cid} not in hand", turn=self.turn, step=k)

    def play(self, cid: str, target: CharRef | None = None, position: int | None = None) -> None:
        """Play ``cid`` on ``target`` or at board ``position``: Innervates
        while the mover's mana is short of the card's cost, then the card,
        then Light's Justice (funded the same way) while the hand holds four
        or more cards.  Each play finds its card in hand, or lays it, and
        takes the compile's step for that hand index.  Once the game is
        decided a step is recorded without being applied."""
        state, turn, k, lays = self.state, self.turn, self.k, self.lays
        append, played = self.items.append, self.played.append
        plays, steps = self._plays, self._steps
        player = state.players[state.active]
        if player.gen != state.gen:
            player = state.own(state.active)
        hand, laid = player.hand, self.laid[state.active]
        cost = _COSTS[cid]
        while True:
            funding = player.mana < cost
            play = _INNERVATE if funding else cid
            if not lays:
                # Slots the x half laid after the fork reach this half as numbers.
                hand[:] = map(laid.get, hand, hand)
            index = hand.index(play) if play in hand else self._lay(hand, play, k)
            if funding or target is None and position is None:
                step = plays[index]
                if step is None:
                    step = plays[index] = ScriptStep(PlayCard(index))
            else:
                # Keyed by numbers: a ``CharRef`` hashes in Python.
                key = (index, position) if target is None else (
                    index, target.side, target.slot, position)
                step = steps.get(key)
                if step is None:
                    step = steps[key] = ScriptStep(PlayCard(index, target, position))
            before = player.mana
            if state.outcome is _ONGOING:
                try:
                    _play_card(state, None, step.action)
                except IllegalAction as exc:
                    raise ScheduleInfeasible(
                        f"scripted action rejected: {exc.reason}", turn=turn, step=k
                    ) from exc
            append(step)
            played(play)
            k += 1
            if funding:
                if player.mana == before:
                    raise ScheduleInfeasible(
                        f"cannot fund cost {cost} at mana cap", turn=turn, step=k
                    )
            elif len(hand) >= 4 and state.outcome is _ONGOING:
                cid, target, position = _LIGHTS_JUSTICE, None, None
                cost = _COSTS[cid]
            else:
                break
        self.k = k

    def attack(self, attacker: CharRef, defender: CharRef, optional: bool = False) -> None:
        key = (attacker, defender, optional)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = ScriptStep(Attack(attacker, defender), optional)
        self._apply(step)

    def end(self) -> None:
        self._apply(self._end_turn)

    def _apply(self, step: ScriptStep) -> None:
        """Apply an attack or an end of turn; an illegal optional step is
        recorded as it is, and so is any step once the game is decided."""
        state = self.state
        if state.outcome is _ONGOING:
            try:
                apply_in_place(state, step.action)
            except IllegalAction as exc:
                if not step.optional:
                    raise ScheduleInfeasible(
                        f"scripted action rejected: {exc.reason}", turn=self.turn, step=self.k
                    ) from exc
        self.items.append(step)
        self.played.append(None)
        self.k += 1

    def branch(self, decision: int, pair_cards: tuple[str, ...],
               x_half: Callable[[], None], y_half: Callable[[], None]) -> None:
        """Lay ``pair_cards``, run ``x_half`` on the live state and
        ``y_half`` on a fork of it, and check that both leave the same
        position.  Both halves' steps are numbered from the branch's first
        step, and the turn goes on after the x half's."""
        state, items, played, k = self.state, self.items, self.played, self.k
        hand = state.own(state.active).hand
        for cid in pair_cards:
            self._lay(hand, cid, k)
        fork = state.fork()
        self.items, self.played = x_steps, x_cards = [], []
        x_half()
        self.state, self.lays, self.k = fork, False, k
        self.items, self.played = y_steps, y_cards = [], []
        y_half()
        self.state, self.lays, self.k = state, True, k + len(x_steps)
        self.items, self.played = items, played
        self._check_convergence(state, fork, self.turn, k)
        items.append(Branch(decision, tuple(x_steps), tuple(y_steps)))
        played.append((x_cards, y_cards))

    def emit(self, shifted: PartitionInstance) -> tuple[TurnScript, ...]:
        """Every turn of the line (see :func:`_line_turns`).  ``cards`` keeps,
        turn by turn, the card each item plays: a card id for a play, None
        for another step and a pair of such lists for a branch.  A failing
        step is numbered by its position in its turn, counting a branch's
        steps along the half that failed (the x half, after it)."""
        n = shifted.n
        turns = []
        for turn in range(1, _line_turns(n) + 1):
            self.items, self.played = items, cards = [], []
            self.turn, self.k = turn, 0
            if turn <= n and turn % 2:
                _odd_turn(self, turn, *shifted.pairs[turn - 1], turn == n)
            elif turn <= n:
                _even_turn(self, turn, *shifted.pairs[turn - 1])
            elif turn % 2:  # n is even: the sum is verified on a turn of its own
                _steal_back(self)
                _verification_tail(self)
                self.end()
            else:
                _punishment_turn(self)
            turns.append(TurnScript(turn, 1 - turn % 2, tuple(items)))
            self.cards.append(cards)
        return tuple(turns)

    def _check_convergence(
        self, sx: GameState, sy: GameState, turn: int, k: int
    ) -> None:
        """Both halves of the branch opened at step ``k`` must leave the same
        position but for the accumulator's health and an enemy turn's
        survivor.  The halves start from one fork, so a minion that neither
        half wrote is one object in both, and equal without a look."""
        same = (sx.active, sx.turn, sx.removed) == (sy.active, sy.turn, sy.removed)
        for side in (0, 1):
            px, py = sx.players[side], sy.players[side]
            same = (same and hero_fields(px) == hero_fields(py)
                    and px.deck[px.deck_pos:] == py.deck[py.deck_pos:]
                    and px.hand == py.hand and len(px.board) == len(py.board))
            for slot, (mx, my) in enumerate(zip(px.board, py.board)):
                if not same:
                    break
                if mx is my:
                    continue
                if side == 1 and slot == 0:
                    same = mx.card_id == my.card_id  # the accumulator
                elif not (side == 1 and slot == 4 and turn % 2 == 0):  # the survivor
                    same = mx.canonical() == my.canonical()
        if not same:
            raise ScheduleInfeasible(
                "branch halves fail to reconverge", turn=turn, step=k
            )


def _decisions_meta(instance: PartitionInstance, shifted: PartitionInstance) -> tuple[Decision, ...]:
    out = []
    for i in range(1, instance.n + 1):
        rx, ry = instance.pairs[i - 1]
        sx, sy = shifted.pairs[i - 1]
        out.append(
            Decision(
                index=i, turn=i,
                x_value=rx, y_value=ry,
                x_attack=10 * sx + 2, y_attack=10 * sy + 2,
                x_destroyed=10 * sx, y_destroyed=10 * sy,
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Line running
# ---------------------------------------------------------------------------


def run_line(
    config: GameConfig,
    line: ScriptedLine,
    vector: tuple[str, ...],
    log: EventLog | None = None,
    on_step: Callable[[int, ScriptStep, str | None, GameState], None] | None = None,
) -> GameState:
    """Replay the line under a full choice vector with ``engine.run_script``:
    the one place a chosen line is replayed.

    The line's turns are walked as ``run_script`` pulls their steps, and it
    is handed the line's own shared ``ScriptStep`` objects.  Steps are
    numbered from zero along the line as the vector chooses it, in
    ``on_step`` and in the ``IllegalAction`` a required illegal step
    raises.  An illegal optional step is skipped and logged as a ``skip``
    event with the game's turn; a decided outcome truncates the remainder.
    When a branch half's first step is pulled, a ``decision`` event
    carrying the pair's values and carrier stats is logged.

    ``on_step`` is called after every attempted step with what
    ``run_script`` yields, ``(index, step, skipped)``, and the resulting
    state; a skipped step leaves that state as it was.  The line runs in
    place on one state, so that state is live: later steps change it, and
    a callback that keeps it must keep a copy.  A ``fork()`` will do for a
    copy it only reads; one it writes directly needs a ``clone()``.
    """
    line.check_vector(vector)
    state = start_game(config, log)

    def pulled():
        # ``run_script`` pulls a step only while the game is undecided, so
        # only a branch the line reaches logs its decision.
        for script in line.turns:
            for item in script.items:
                if not isinstance(item, Branch):
                    yield item
                    continue
                chosen = vector[item.decision - 1]
                steps = item.steps(chosen)
                if steps and log is not None:
                    d = line.decision_for(item.decision)
                    log.emit(
                        "decision",
                        decision=d.index, turn=d.turn, chosen=chosen,
                        x_value=d.x_value, y_value=d.y_value,
                        x_attack=d.x_attack, y_attack=d.y_attack,
                        destroyed_at=d.y_destroyed if chosen == "x" else d.x_destroyed,
                    )
                yield from steps

    for index, step, skipped in run_script(state, pulled(), log):
        if skipped is not None and log is not None:
            log.emit("skip", turn=state.turn, reason=skipped,
                     action=action_to_json_obj(step.action))
        if on_step is not None:
            on_step(index, step, skipped, state)
    return state


def chosen_sum(instance: PartitionInstance, vector: tuple[str, ...]) -> int:
    total = 0
    for (x, y), choice in zip(instance.pairs, vector):
        total += x if choice == "x" else y
    return total


# ---------------------------------------------------------------------------
# Top-level compile
# ---------------------------------------------------------------------------


@dataclass
class CompileResult:
    instance: PartitionInstance
    shifted: PartitionInstance
    value_shift: int
    config: GameConfig
    line: ScriptedLine


def _check_replay(config: GameConfig, line: ScriptedLine, cards: list[list],
                  vector: tuple[str, ...], start: GameState) -> None:
    """Replay ``vector`` on ``config``, whose start state is ``start``, and
    raise ``ScheduleInfeasible`` unless every required step is legal, every
    play plays the card the emitter played at that step (``cards``, as
    ``_Emitter.emit`` keeps them), and the game ends as the vector's sum
    says; a rejected step is reported first, then a wrong card.

    A play's card is read on the state before it, which is the state
    ``run_line`` hands the previous step's ``on_step`` (and ``start`` for
    step 0).
    """
    name = "".join(vector)
    expected: list[tuple[ScriptStep, str | None]] = []
    for script, turn_cards in zip(line.turns, cards):
        for item, card in zip(script.items, turn_cards):
            if card.__class__ is tuple:
                choice = vector[item.decision - 1]
                expected += zip(item.steps(choice), card[choice == "y"])
            else:
                expected.append((item, card))
    wrong: list[str] = []

    def check_next(index: int, _step, _skipped, state: GameState) -> None:
        index += 1
        if index < len(expected) and state.outcome is _ONGOING and not wrong:
            step, card = expected[index]
            if card is not None:
                hand = state.players[state.active].hand
                slot = step.action.hand
                # A slot out of range is the engine's to reject.
                if slot < len(hand) and hand[slot] != card:
                    wrong.append(f"vector {name} replay step {index} plays {hand[slot]}, "
                                 f"not {card}")

    check_next(-1, None, None, start)
    try:
        final = run_line(config, line, vector, on_step=check_next)
    except IllegalAction as exc:
        raise ScheduleInfeasible(
            f"vector {name} replay rejects step {exc.step}: {exc.reason}"
        ) from None
    if wrong:
        raise ScheduleInfeasible(wrong[0])
    expected_outcome = (
        Outcome.FRIENDLY_WINS
        if chosen_sum(line.instance, vector) == line.instance.target
        else Outcome.ENEMY_WINS
    )
    if final.outcome is not expected_outcome:
        raise ScheduleInfeasible(
            f"vector {name} ended {final.outcome.value}, expected {expected_outcome.value}"
        )


def compile_instance(
    instance: PartitionInstance,
    *,
    turn_limit: int = DEFAULT_TURN_LIMIT,
    validate: str = "canonical",
) -> CompileResult:
    """Compile an instance into a game configuration and scripted line.

    ``validate`` controls post-compile replay checking: "canonical" replays
    the all-x and all-y vectors, "all" replays every vector (n <= 12 only),
    "none" skips replays.  A replayed vector that rejects a required step,
    plays another card than the emitter played at a step, or ends other
    than its sum says, raises ``ScheduleInfeasible``.  The cards the emitter
    played are kept for this check only; the line file does not hold them.
    """
    if validate not in ("canonical", "all", "none"):
        raise ValueError(f"unknown validate mode {validate!r}")
    if validate == "all" and instance.n > 12:
        raise InstanceError("validate='all' limited to n <= 12")
    spans = _line_turns(instance.n)
    if turn_limit < spans:
        raise ScheduleInfeasible(f"line spans {spans} turns but the turn limit is {turn_limit}")
    shifted, shift = shifted_instance(instance)

    emitter = _Emitter(GameConfig(_setup(shifted, [], [], turn_limit)))
    wall = emitter.state.players[1].board[0]
    margin = 10 * sum(shifted.values()) + 10 * shifted.target + 10_000
    wall.health += margin
    wall.max_health += margin
    turns = emitter.emit(shifted)
    config = build_config(shifted, *emitter.decks(), turn_limit)
    line = ScriptedLine(
        instance=instance,
        value_shift=shift,
        decisions=_decisions_meta(instance, shifted),
        turns=turns,
    )
    result = CompileResult(instance, shifted, shift, config, line)

    if validate != "none":
        vectors: list[tuple[str, ...]]
        if validate == "all":
            vectors = [
                tuple("x" if (mask >> k) & 1 == 0 else "y" for k in range(instance.n))
                for mask in range(1 << instance.n)
            ]
        else:
            vectors = [("x",) * instance.n, ("y",) * instance.n]
        start = start_game(config)
        for vec in vectors:
            _check_replay(config, line, emitter.cards, vec, start)
    return result
