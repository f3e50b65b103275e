"""Invariant checks shared by the property suite and the acceptance gate."""

from __future__ import annotations

from hearthproof.state import GameState, Outcome, total_card_count

MAX_BOARD = 7
MAX_HAND = 10
MAX_MANA = 10


def assert_invariants(state: GameState, expected_total: int) -> None:
    """Structural facts that must hold after every engine step."""
    assert total_card_count(state) == expected_total, "zone conservation broken"
    for side, p in enumerate(state.players):
        assert len(p.board) <= MAX_BOARD, f"side {side} board over {MAX_BOARD}"
        assert len(p.hand) <= MAX_HAND, f"side {side} hand over {MAX_HAND}"
        assert 0 <= p.mana <= MAX_MANA, f"side {side} mana out of range"
        assert 0 <= p.mana_crystals <= MAX_MANA
        assert 0 <= p.deck_pos <= len(p.deck)
        if state.outcome is Outcome.ONGOING:
            assert p.health >= 1, f"side {side} hero dead while the game is ongoing"
            for m in p.board:
                assert m.health >= 1, f"dead {m.card_id} persists on board"
        if p.weapon is not None:
            assert p.weapon.durability >= 1, "spent weapon persists"
