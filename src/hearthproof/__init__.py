"""hearthproof: a deterministic card-battle engine, a compiler from partition
games to forced-win battle scripts, and solvers that certify the result."""
from __future__ import annotations

__version__ = "0.1.0"

from .cards import CardKind, CardSpec, EffectTag, Tribe, card, card_database
from .state import (
    Action,
    Attack,
    CharRef,
    EndTurn,
    Event,
    EventLog,
    GameConfig,
    GameState,
    IllegalAction,
    Outcome,
    PlayCard,
)
from .engine import apply, apply_in_place, legal_actions, replay, run_script, start_game

__all__ = [
    "Action",
    "Attack",
    "CardKind",
    "CardSpec",
    "CharRef",
    "EffectTag",
    "EndTurn",
    "Event",
    "EventLog",
    "GameConfig",
    "GameState",
    "IllegalAction",
    "Outcome",
    "PlayCard",
    "Tribe",
    "apply",
    "apply_in_place",
    "card",
    "card_database",
    "legal_actions",
    "replay",
    "run_script",
    "start_game",
    "__version__",
]
