"""Solvers for the alternating-pick game and its board-game realisation.

Four layers, each building on the previous:

* :func:`oracle_left_wins` — one backward pass over the running sums of
  the abstract pick game (odd picks are Left's, even picks are Right's;
  Left wins iff the chosen values hit the target exactly).
* :class:`AlphaBeta` / :func:`minimax` — exact game-tree search over engine
  states.  Values are always from the friendly (side 0) perspective:
  ``+1`` friendly win, ``0`` draw, ``-1`` enemy win.  Search is bounded by
  ply depth and node count; positions it cannot resolve come back as
  ``None`` rather than a guess, because leaves are terminal outcomes only
  (there is no heuristic evaluation to be wrong about).
* :func:`skeleton_solve` — solves a compiled line as a small game tree
  whose only free moves are the branch choices; everything between
  branches is replayed verbatim.  The wall's health is a symbol in D, the
  damage dealt so far, so one engine run of a branch half serves every D
  for which the engine's comparisons on that health answer alike.
* :func:`deviation_check` — replays a chosen line and, at each scripted
  step, probes every legal alternative with a bounded null-window search
  to classify it as refuted, dominated, improved, or unresolved.

Transposition tables and memos are keyed by
:func:`~hearthproof.state.position_key`, which is exact: two entries share
a key only when their positions are equal.  The skeleton keys its tables by
the position key with the wall's health masked, plus D, which is as exact.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .compiler import _F_CARRY, _F_SECOND, Branch, PartitionInstance, ScriptedLine, run_line
from .engine import _own, apply, apply_in_place, legal_actions, run_script, start_game
from .state import (
    Action,
    Attack,
    EndTurn,
    GameConfig,
    GameState,
    IllegalAction,
    Outcome,
    PlayCard,
    ScriptStep,
    position_key,
)

LOSS = -1
DRAW = 0
WIN = 1

# Bound once: an ``Enum.MEMBER`` lookup costs 120-190 ns on CPython 3.11,
# and every search child tests its outcome against these.
_ONGOING = Outcome.ONGOING
_FRIENDLY_WINS = Outcome.FRIENDLY_WINS
_ENEMY_WINS = Outcome.ENEMY_WINS

_VERDICTS = {WIN: "win", DRAW: "draw", LOSS: "loss"}


def value_verdict(value: int | None) -> str:
    """Map a friendly-perspective value to its verdict string."""
    return _VERDICTS.get(value, "unknown")


# ---------------------------------------------------------------------------
# Abstract pick-game oracle
# ---------------------------------------------------------------------------


def oracle_left_wins(instance: PartitionInstance) -> bool:
    """Does Left have a winning strategy in the alternating pick game?

    Pairs are taken in order; pair ``i`` (1-based) is chosen by Left when
    ``i`` is odd and by Right when ``i`` is even.  Left wins iff the chosen
    values sum to the target.  One backward pass over the pairs keeps the
    running sums from which the pair's picker forces the target: either
    value will do for Left, both must for Right.  Values are non-negative,
    so a kept sum lies between 0 and the target, and the pass costs at most
    ``n * (target + 1)`` set entries, with no recursion.
    """
    pairs = instance.pairs
    wins = {instance.target}
    for i in range(len(pairs) - 1, -1, -1):
        x, y = pairs[i]
        if i % 2:
            wins = {w - x for w in wins if w >= x and w - x + y in wins}
        else:
            wins = {w - v for w in wins for v in (x, y) if w >= v}
    return 0 in wins


# ---------------------------------------------------------------------------
# Exact alpha-beta over engine states
# ---------------------------------------------------------------------------


def terminal_value(state: GameState) -> int | None:
    """Friendly-perspective value of a decided state, or None if ongoing."""
    oc = state.outcome
    if oc is _ONGOING:
        return None
    if oc is _FRIENDLY_WINS:
        return WIN
    if oc is _ENEMY_WINS:
        return LOSS
    return DRAW


_EXACT, _LOWER, _UPPER, _UNKNOWN = 0, 1, 2, 3


@dataclass
class SolveResult:
    """Outcome of a bounded exact search.

    ``value`` is from the friendly perspective and ``None`` when the
    budgets ran out before the position was proven.  ``pv`` is a
    best-play prefix reconstructed from the search's best-move table; it
    may be shorter than the proven line when cutoffs hid part of it.
    """

    value: int | None
    nodes: int
    tt_hits: int
    exhausted: bool
    pv: tuple[Action, ...] = ()

    @property
    def verdict(self) -> str:
        return value_verdict(self.value)


class AlphaBeta:
    """Depth- and node-bounded alpha-beta over the three-valued outcome.

    The friendly side (0) maximises, the enemy side (1) minimises; a
    single turn spans many plies because the mover only changes on end of
    turn.  Leaves are terminal outcomes, so any resolved value or bound is
    exact game-theoretic truth and may be reused at any depth; only
    "unknown" entries are depth-qualified (a deeper retry may do better).
    The transposition and best-move tables are keyed by exact position
    keys.  The depth bound is the caller's, passed to :meth:`search`.
    """

    def __init__(self, *, max_nodes: int = 500_000, tt: dict | None = None):
        self.max_nodes = max_nodes
        self.tt: dict[bytes, tuple[int, int, int]] = tt if tt is not None else {}
        self.best_move: dict[bytes, Action] = {}
        self.nodes = 0
        self.tt_hits = 0
        self.exhausted = False

    # -- transposition helpers ------------------------------------------

    def _probe(self, key: bytes, alpha: int, beta: int, depth_left: int) -> tuple[bool, int | None]:
        entry = self.tt.get(key)
        if entry is None:
            return False, None
        flag, val, edepth = entry
        if flag == _EXACT:
            return True, val
        if flag == _LOWER and val >= beta:
            return True, val
        if flag == _UPPER and val <= alpha:
            return True, val
        if flag == _UNKNOWN and depth_left <= edepth:
            return True, None
        return False, None

    def _store(self, key: bytes, flag: int, val: int, depth_left: int) -> None:
        cur = self.tt.get(key)
        if cur is not None:
            if cur[0] == _EXACT:
                return
            if flag == _UNKNOWN:
                if cur[0] != _UNKNOWN:
                    return  # a real bound beats an unknown marker
                if cur[2] >= depth_left:
                    return
        self.tt[key] = (flag, val, depth_left)

    # -- search ---------------------------------------------------------

    def search(self, state: GameState, alpha: int, beta: int, depth_left: int) -> int | None:
        """Value of ``state`` within the (alpha, beta) window, or None.

        A return ``v`` with ``alpha < v < beta`` is exact; ``v <= alpha``
        is a proven upper bound and ``v >= beta`` a proven lower bound.
        ``None`` means the budgets gave out inside this subtree.
        """
        tv = terminal_value(state)
        if tv is not None:
            return tv
        if self.exhausted:
            return None
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
            return None
        if depth_left <= 0:
            return None
        key = position_key(state)
        hit, val = self._probe(key, alpha, beta, depth_left)
        if hit:
            self.tt_hits += 1
            return val

        maximizing = state.active == 0
        actions = legal_actions(state)
        hinted = self.best_move.get(key)
        if hinted is not None and hinted in actions:
            actions.remove(hinted)
            actions.insert(0, hinted)

        best: int | None = None
        best_action: Action | None = None
        saw_unknown = False
        a, b = alpha, beta
        for action in actions:
            child = state.fork()
            apply_in_place(child, action)
            v = self.search(child, a, b, depth_left - 1)
            if v is None:
                if self.exhausted:
                    return None
                saw_unknown = True
                continue
            # One update for both sides (Knuth and Moore, 1975): only the
            # mover's own bound moves, and the window closing is the cutoff.
            if best is None or (v > best if maximizing else v < best):
                best, best_action = v, action
                if maximizing:
                    if v > a:
                        a = v
                elif v < b:
                    b = v
                if a >= b:
                    self._store(key, _LOWER if maximizing else _UPPER, best, depth_left)
                    self.best_move[key] = action
                    return best

        if saw_unknown:
            # Unresolved children could still change the result; resolved
            # ones give a one-sided bound worth keeping.
            if best is not None:
                self._store(key, _LOWER if maximizing else _UPPER, best, depth_left)
            else:
                self._store(key, _UNKNOWN, 0, depth_left)
            return None
        assert best is not None, "a live position always has legal actions"
        # A side that reached its far bound has returned above, so only
        # the near one can have been reached here.
        flag = _UPPER if best <= alpha else _LOWER if best >= beta else _EXACT
        self._store(key, flag, best, depth_left)
        if best_action is not None and flag == _EXACT:
            self.best_move[key] = best_action
        return best

    def principal_variation(self, state: GameState, limit: int = 64) -> tuple[Action, ...]:
        pv: list[Action] = []
        seen: set[bytes] = set()
        while len(pv) < limit and terminal_value(state) is None:
            key = position_key(state)
            if key in seen:
                break
            seen.add(key)
            action = self.best_move.get(key)
            if action is None:
                break
            pv.append(action)
            state = apply(state, action)
        return tuple(pv)


def minimax(
    state: GameState,
    *,
    max_depth: int = 120,
    max_nodes: int = 500_000,
    tt: dict | None = None,
) -> SolveResult:
    """Exact full-window search from ``state``; unresolved comes back None."""
    ab = AlphaBeta(max_nodes=max_nodes, tt=tt)
    value = ab.search(state, LOSS - 1, WIN + 1, max_depth)
    pv = ab.principal_variation(state) if value is not None else ()
    return SolveResult(value, ab.nodes, ab.tt_hits, ab.exhausted, pv)


# ---------------------------------------------------------------------------
# Skeleton solving: branch choices only
# ---------------------------------------------------------------------------


class _Path:
    """The range of D over which one run's comparisons keep their answers.

    D is the damage dealt to the wall before the run; ``d`` is the run's
    own D, and ``lo`` and ``hi`` bound the range, both included.
    """

    __slots__ = ("d", "lo", "hi")

    def __init__(self, d: int):
        self.d = d
        self.lo = -math.inf
        self.hi = math.inf

    def cut(self, t: int) -> None:
        """Keep the side of the cut between ``t - 1`` and ``t`` that holds ``d``."""
        if self.d < t:
            self.hi = min(self.hi, t - 1)
        else:
            self.lo = max(self.lo, t)


class _Health(int):
    """The wall's health during one skeleton run: ``c + s * D``, ``s`` = ±1.

    An int of its concrete value, ``c + s * path.d``, so the engine runs on
    it unchanged.  Adding or subtracting an int, or another symbol of the
    same run, gives a symbol again, or a plain int once the D terms cancel
    (as healing to full health does).  A comparison answers from the
    concrete value and cuts ``path`` down to the D-range on which it gives
    that same answer.  Every other int operation raises ``TypeError``, and
    so does pickling, hence ``position_key``: the symbol never silently
    becomes a plain int or key bytes.  (C code that reads an int's value
    directly, as sequence indexing and ``range`` do, calls no method that
    could refuse; the engine reads health in none of those ways, only with
    ``+``, ``-``, comparisons and ``min``.)
    """

    def __new__(cls, c: int, s: int, path: _Path) -> "_Health":
        self = int.__new__(cls, c + s * path.d)
        self.c, self.s, self.path = c, s, path
        return self

    def _terms(self, other) -> tuple[int, int]:
        """``(c, s)`` of an int or of a symbol of the same run."""
        if type(other) is int:
            return other, 0
        if type(other) is _Health and other.path is self.path:
            return other.c, other.s
        raise TypeError(f"the wall's health symbol does not combine with {other!r}")

    def _make(self, c: int, s: int) -> int:
        if s == 0:
            return c
        if s not in (1, -1):
            raise TypeError("the wall's health symbol models D with slope ±1 only")
        return _Health(c, s, self.path)

    def __add__(self, other) -> int:
        c, s = self._terms(other)
        return self._make(self.c + c, self.s + s)

    __radd__ = __add__

    def __sub__(self, other) -> int:
        c, s = self._terms(other)
        return self._make(self.c - c, self.s - s)

    def __rsub__(self, other) -> int:
        c, s = self._terms(other)
        return self._make(c - self.c, s - self.s)

    def _compare(self, other, op) -> bool:
        c, s = self._terms(other)
        a, s = self.c - c, self.s - s  # self - other == a + s * D
        if s == 0:
            return op(a, 0)
        if s not in (1, -1):
            raise TypeError("the wall's health symbol models D with slope ±1 only")
        # self - other == s * (D - z): below z it has the sign of -s, above
        # z the sign of s.  Cut where the answer changes.
        z = -a * s
        if op(-s, 0) != op(0, 0):
            self.path.cut(z)
        if op(0, 0) != op(s, 0):
            self.path.cut(z + 1)
        return op(a + s * self.path.d, 0)

    def __lt__(self, other) -> bool:
        return self._compare(other, operator.lt)

    def __le__(self, other) -> bool:
        return self._compare(other, operator.le)

    def __gt__(self, other) -> bool:
        return self._compare(other, operator.gt)

    def __ge__(self, other) -> bool:
        return self._compare(other, operator.ge)

    def __eq__(self, other) -> bool:
        return self._compare(other, operator.eq)

    def __ne__(self, other) -> bool:
        return self._compare(other, operator.ne)

    def __repr__(self) -> str:
        return f"_Health({self.c} {'+' if self.s > 0 else '-'} D, D={self.path.d})"


def _unmodeled(name: str):
    def refuse(self, *args, **kwargs):
        raise TypeError(f"the wall's health symbol does not model {name}")
    return refuse


_HEALTH_KEEPS = {"__new__", "__doc__", "__getattribute__", "__sizeof__"}
for _name in (*vars(int), "__reduce__", "__reduce_ex__"):
    if _name not in vars(_Health) and _name not in _HEALTH_KEEPS:
        _refuse = _unmodeled(_name)
        setattr(_Health, _name, _refuse if callable(getattr(int, _name)) else property(_refuse))


@dataclass
class SkeletonResult:
    """Result of solving a compiled line over its branch choices.

    ``value``/``verdict`` are from the friendly (Left) perspective.  The
    vector holds one optimal choice per pair (ties prefer ``x``); when an
    early decision already decides the game the unreached tail is padded
    with ``x``.  ``nodes`` counts the engine steps actually run;
    ``memo_hits`` counts the runs reused from the run cache plus the hits
    of the decision memo.
    """

    value: int | None
    vector: tuple[str, ...]
    nodes: int
    memo_hits: int

    @property
    def verdict(self) -> str:
        return value_verdict(self.value)

    @property
    def deviation_vector(self) -> tuple[str, ...]:
        """The vector whose line deviation checks probe: the optimal one if
        it wins, else all-``x``."""
        return self.vector if self.value == WIN else ("x",) * len(self.vector)


class _Run(NamedTuple):
    """One engine run of a forced segment or a branch half, valid for every
    D in ``[lo, hi]``.

    ``value`` is the decided value (a draw where the script runs out),
    else None and ``end`` is the state the run ends in, with the wall's
    health masked, ``key`` its position key, ``wall`` the wall's (side,
    slot) there or None if it is gone, and ``a + b * D`` the damage the
    wall has taken.
    """

    lo: float
    hi: float
    value: int | None
    key: bytes | None
    a: int
    b: int
    end: GameState | None
    wall: tuple[int, int] | None


def skeleton_solve(config: GameConfig, line: ScriptedLine) -> SkeletonResult:
    """Solve the line's decision skeleton by alternating max/min.

    The accumulator wall is the enemy minion at slot 0 of the start
    position, tracked by its instance id wherever it moves.  D is the
    damage the wall has taken.  Every forced segment and each branch half
    runs concretely through ``engine.run_script`` on a fork of the state it
    starts from, with the wall's health a symbol, ``H0 - D``; every
    comparison the engine makes on it narrows the D-range over which the
    run goes the same way.  The run is cached under (segment or branch
    half, position key of its start with the wall's health masked) with
    that range, its end state and the wall's damage there, so a later
    arrival whose D lies in a recorded range takes the entry with no engine
    call.  That is the paper's per-turn lemma, checked by the engine: each
    branch half deals its 10·v + 2 whatever came before.

    Decisions are memoised on (branch index, masked key, D), which is as
    exact as a position key.  A side that already has its best outcome
    from ``x`` skips ``y``; ties prefer ``x`` anyway, so the result is
    unchanged.  If the script runs out with the game still undecided the
    result is the turn-limit default, a draw.  The side to move at a
    branch, which picks its half, is read from the position before it.  An
    illegal required step raises ``IllegalAction`` with its index along the
    line as the choices made so far pick it, as ``run_line`` numbers it.
    """
    return _Skeleton(config, line).solve_line()


# The choices of a skeleton solution from some branch on: the first choice
# and the chain of the rest, or None past the last choice made.
_Choices = tuple[str, "_Choices"] | None


class _Skeleton:
    """The tables of one :func:`skeleton_solve` call.

    A class rather than closures: a recursive closure is a reference cycle,
    which would keep the cached end states alive until the cyclic garbage
    collector runs.
    """

    def __init__(self, config: GameConfig, line: ScriptedLine):
        self.line = line
        # segments[k] is the forced run before branches[k]; the last
        # follows the last branch.
        self.segments: list[tuple[ScriptStep, ...]] = []
        self.branches: list[Branch] = []
        segment: list[ScriptStep] = []
        for turn in line.turns:
            for item in turn.items:
                if isinstance(item, Branch):
                    self.branches.append(item)
                    self.segments.append(tuple(segment))
                    segment = []
                else:
                    segment.append(item)
        self.segments.append(tuple(segment))
        self.start = start_game(config)
        enemy = self.start.players[1].board
        self.wall_iid = enemy[0].iid if enemy else None
        self.h0 = enemy[0].health if enemy else 0
        self.memo: dict[tuple[int, bytes, int], tuple[int, _Choices]] = {}
        self.runs: dict[tuple[int, str, bytes], list[_Run]] = {}
        self.nodes = 0
        self.hits = 0

    def find_wall(self, state: GameState) -> tuple[int, int] | None:
        """Where the wall is, as (side, slot); None if it is gone."""
        for side, p in enumerate(state.players):
            for slot, m in enumerate(p.board):
                if m.iid == self.wall_iid:
                    return side, slot
        return None

    def run(self, k: int, part: str, start: GameState, wall: tuple[int, int] | None,
            key: bytes, d: int, offset: int) -> _Run:
        """The run of segment ``k`` (``part`` "-") or of a half of branch
        ``k`` ("x" or "y") from ``start``, where the wall is at ``wall``, at
        damage ``d``: cached, or made on a fork of ``start``.  ``offset`` is
        its first step's index along the line.

        The wall is looked for once per run, after it, and its place is
        kept with the end state for the runs that start there.
        """
        entries = self.runs.setdefault((k, part, key), [])
        for entry in entries:
            if entry.lo <= d <= entry.hi:
                self.hits += 1
                return entry
        state = start.fork()
        path = _Path(d)
        if wall is not None:
            m = _own(state.own(wall[0]), wall[1])
            m.health = _Health(self.h0, -1, path)
        steps = self.segments[k] if part == "-" else self.branches[k].steps(part)
        try:
            # The last (index, step, skipped) says how many steps ran.
            last = deque(run_script(state, steps), maxlen=1)
        except IllegalAction as exc:
            raise IllegalAction(exc.reason, step=offset + exc.step) from None
        if last:
            self.nodes += last[0][0] + 1
        value = terminal_value(state)
        if value is None and part == "-" and k == len(self.branches):
            value = DRAW
        if value is not None:
            entry = _Run(path.lo, path.hi, value, None, 0, 0, None, None)
        else:
            a, b = 0, 0
            if wall is not None:
                wall = self.find_wall(state)
            if wall is not None:
                m = _own(state.own(wall[0]), wall[1])
                health, m.health = m.health, None
                if type(health) is _Health:
                    a, b = self.h0 - health.c, -health.s
                else:
                    a = self.h0 - health
            entry = _Run(path.lo, path.hi, None, position_key(state), a, b, state, wall)
        entries.append(entry)
        return entry

    def solve(self, k: int, key: bytes, d: int, node: GameState,
              wall: tuple[int, int] | None, offset: int) -> tuple[int, _Choices]:
        """Value and choices from ``node``, the position before branch
        ``k`` with the wall's health masked and the wall at ``wall``, at
        damage ``d``.  The choices come as a chain, so a node adds its own
        without copying the rest.

        ``node`` is never written, only forked; ``offset`` is the branch's
        first step's index along the line.
        """
        memo_key = (k, key, d)
        cached = self.memo.get(memo_key)
        if cached is not None:
            self.hits += 1
            return cached
        branch = self.branches[k]
        maximizing = node.active == 0
        best: tuple[int, _Choices] | None = None
        for choice in ("x", "y"):
            # The half, then the forced segment after it.
            after = self.run(k, choice, node, wall, key, d, offset)
            d_after = after.a + after.b * d
            at = offset + len(branch.steps(choice))
            if after.value is None:
                after = self.run(k + 1, "-", after.end, after.wall, after.key, d_after, at)
                d_after = after.a + after.b * d_after
                at += len(self.segments[k + 1])
            value, rest = after.value, None
            if value is None:
                value, rest = self.solve(k + 1, after.key, d_after, after.end, after.wall, at)
            if best is None or (value > best[0] if maximizing else value < best[0]):
                best = (value, (choice, rest))
            if best[0] == (WIN if maximizing else LOSS):
                break
        assert best is not None
        self.memo[memo_key] = best
        return best

    def solve_line(self) -> SkeletonResult:
        start = self.start
        wall = self.find_wall(start)
        if wall is not None:
            _own(start.own(wall[0]), wall[1]).health = None
        first = self.run(0, "-", start, wall, position_key(start), 0, 0)
        value, chain = first.value, None
        if value is None:
            value, chain = self.solve(0, first.key, first.a, first.end, first.wall,
                                      len(self.segments[0]))
        vector: list[str] = []
        while chain is not None:
            choice, chain = chain
            vector.append(choice)
        vector += ["x"] * (self.line.n - len(vector))
        return SkeletonResult(value, tuple(vector), self.nodes, self.hits)


# ---------------------------------------------------------------------------
# Deviation probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
    """One taken step of a chosen line with its pre-step position, which
    says the game turn the step is played in and the side that plays it."""

    index: int
    action: Action
    state_before: GameState

    @property
    def turn(self) -> int:
        return self.state_before.turn

    @property
    def side(self) -> int:
        return self.state_before.active


def walk_line(
    config: GameConfig, line: ScriptedLine, vector: tuple[str, ...]
) -> tuple[list[StepRecord], GameState]:
    """Replay a fully chosen line with :func:`~hearthproof.compiler.run_line`,
    recording a copy of the position before each taken step.

    A skipped optional step leaves the position as it was and gets no
    record, so record indices skip it; a decided outcome truncates the
    walk.  Each copy is a ``fork()`` of the live state: it shares the
    players and minions no step has written since, and the engine copies
    a player or a minion before writing it, so a record stays as it was.
    A caller that writes a record's state directly must ``clone()`` it
    first.
    """
    records: list[StepRecord] = []
    before = start_game(config)

    def record(index: int, step: ScriptStep, skipped: str | None,
               state: GameState) -> None:
        nonlocal before
        if skipped is None:
            records.append(StepRecord(index, step.action, before))
            before = state.fork()

    return records, run_line(config, line, vector, on_step=record)


@dataclass(frozen=True)
class DeviationFinding:
    step_index: int
    turn: int  # the game turn, read from the position
    side: int
    scripted: Action
    alternative: Action
    status: str  # "refuted" | "dominated" | "improved" | "unresolved"
    reason: str  # e.g. "forced_loss", "derailed", "rejoined", "wins_anyway"
    nodes: int


@dataclass
class DeviationReport:
    """Aggregate of probing scripted-step alternatives.

    ``refuted`` counts alternatives proven no good for the deviating
    player, ``dominated`` those that transpose back to (or match) the
    script, ``improved`` those proven strictly better (which would
    falsify the compiled line), and ``unresolved`` those the probe
    budgets could not settle either way.
    """

    scripted_value: int
    vector: tuple[str, ...]
    findings: list[DeviationFinding] = field(default_factory=list)
    refuted: int = 0
    dominated: int = 0
    improved: int = 0
    unresolved: int = 0
    checked_steps: int = 0
    nodes: int = 0

    def count(self, finding: DeviationFinding) -> None:
        self.findings.append(finding)
        self.nodes += finding.nodes
        if finding.status == "refuted":
            self.refuted += 1
        elif finding.status == "dominated":
            self.dominated += 1
        elif finding.status == "improved":
            self.improved += 1
        else:
            self.unresolved += 1


def _end_turn_counters(state: GameState, side: int) -> tuple[int, int, int, int]:
    """The counters that ``side`` ending its turn leaves as they are: its
    deck position and hand size, and the size of each board."""
    p = state.players[side]
    return p.deck_pos, len(p.hand), len(state.players[0].board), len(state.players[1].board)


class _TurnRejoinProbe:
    """Exhaustive reachability over the deviator's remaining turn.

    From a post-deviation state, explores every action sequence up to the
    end of the deviator's current turn and records whether any of them
    (a) reaches the exact scripted position at the start of the opponent's
    next turn (``boundary``, None when the script has no next turn), or
    (b) wins outright before then.  Results are memoised on position keys
    and shared across all probes of the same turn, so the amortised cost is
    the size of the reachable in-turn state space.  The probe also owns
    the turn's loss-probe transposition table, ``tt``.

    A child that has ended the turn is compared with the boundary by
    position key.  ``_explore`` owns the state it is given: it forks it for
    every action it tries but the last, which steps that state in place.  A
    fork shares the players and minions that an action does not write, so
    a child costs a new state and a copy of each player its action writes
    (most plays write the mover alone), not a new board; and a shared
    player or minion keeps its part of the position key from the first key
    that meets it, so the child's key encodes again only what its action
    wrote (see ``state.position_key``).  ``analyze`` hands ``_explore`` a
    fork, leaving its argument as it was.

    :meth:`_moves` lists the actions tried, and leaves out three kinds,
    each of which changes no count, memo entry, budget stop or finding.
    ``EndTurn`` is not tried where its child can neither rejoin nor win
    (:meth:`_end_turn_is_inert`), judged from counters that ending the turn
    leaves unchanged (see ``engine._end_turn``).  Such a child returns
    ``(False, False)`` before it is counted or memoised, so the probe
    counts, memoises and budgets exactly the nodes it would otherwise.

    Nor is ``PlayCard(hand=i, ...)`` tried where ``hand[i - 1] == hand[i]``.
    ``engine._play_card`` reads the index only to pick the card and delete
    it, so that child equals the child of the same play of card ``i - 1``,
    which is legal exactly when this one is and comes first in
    ``legal_actions``.  Visited again, that child would return at once, as
    a decided game, a turn end compared with the boundary, a memo hit or a
    spent budget, without counting a node or changing the answer; so
    skipping it, too, leaves every count, memo entry and finding as it was.

    Nor is an ``Attack`` by the mover's hero tried on an enemy minion whose
    attack is at least the hero's health: the retaliation kills the hero
    before anything else can happen (see ``engine._attack``), so the child
    is the opponent's win and would return ``(False, False)`` before it is
    counted or memoised.  ``AlphaBeta`` keeps such children, whose value
    enters its min and max.
    """

    def __init__(self, turn: int, mover: int, boundary: GameState | None, max_nodes: int):
        self.turn = turn
        self.mover = mover
        self.mover_wins = _FRIENDLY_WINS if mover == 0 else _ENEMY_WINS
        self.boundary = None if boundary is None else position_key(boundary)
        self.counters = None if boundary is None else _end_turn_counters(boundary, mover)
        self.max_nodes = max_nodes
        self.memo: dict[bytes, tuple[bool, bool]] = {}
        self.tt: dict[bytes, tuple[int, int, int]] = {}
        self.nodes = 0
        self.exhausted = False

    def analyze(self, state: GameState) -> tuple[str, int]:
        if self.exhausted:
            return "budget", 0
        start = self.nodes
        rejoin, win = self._explore(state.fork())
        spent = self.nodes - start
        if self.exhausted:
            return "budget", spent
        if rejoin:
            return "rejoined", spent
        if win:
            return "wins", spent
        return "derailed", spent

    def _explore(self, state: GameState) -> tuple[bool, bool]:
        if self.exhausted:
            return False, False
        outcome = state.outcome
        if outcome is not _ONGOING:
            return False, outcome is self.mover_wins
        key = position_key(state)
        if state.turn > self.turn:
            return key == self.boundary, False
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
            return False, False
        rejoin = win = False
        actions = self._moves(state)
        while actions:
            action = actions.pop()
            # Nothing reads ``state`` once its key is taken, so the last
            # action may consume it; the others work on forks.
            child = state.fork() if actions else state
            apply_in_place(child, action)
            r, w = self._explore(child)
            if r:
                rejoin = True
            if w:
                win = True
            if rejoin and win:
                break
        if not self.exhausted:
            self.memo[key] = (rejoin, win)
        return rejoin, win

    def _moves(self, state: GameState) -> list[Action]:
        """The actions ``_explore`` tries from ``state``, in the reverse of
        ``legal_actions`` order, so that popping them tries them in that
        order: the legal actions less the three kinds the class docstring
        leaves out."""
        actions = legal_actions(state)
        if self._end_turn_is_inert(state):
            actions.pop()  # ``EndTurn``, always the last legal action
        side = state.active
        mover = state.players[side]
        hand = mover.hand
        health = mover.health
        enemies = state.players[1 - side].board
        moves = []
        for action in reversed(actions):
            if action.__class__ is PlayCard:
                i = action.hand
                if i and hand[i - 1] == hand[i]:
                    continue  # the same child as the play of card i - 1
            elif action.__class__ is Attack and action.attacker.slot is None:
                d = action.defender.slot
                if d is not None and enemies[d].attack >= health:
                    continue  # the opponent's win
            moves.append(action)
        return moves

    def _end_turn_is_inert(self, state: GameState) -> bool:
        """True when ending the turn from ``state``, a position of the
        probed turn, can neither rejoin the boundary nor win for the mover.

        While the next player has a card to draw, ending the turn damages
        no hero, so the child is ongoing or a turn-limit draw: not a win.
        It keeps the mover's deck position and hand size and both board
        sizes, so if these differ from the boundary's, it is not the
        boundary either.
        """
        nxt = state.players[1 - self.mover]
        return nxt.deck_pos < len(nxt.deck) and (
            self.counters is None or _end_turn_counters(state, self.mover) != self.counters
        )


# The loss probe's reach: turns past the deviating one before the game is
# cut off as a draw, and alpha-beta's depth limit in plies.
_PROBE_HORIZON = 2
_VALUE_DEPTH = 80


class DeviationChecker:
    """Probes alternatives to a line's scripted steps.

    Two complementary checks classify each deviation:

    1. An exhaustive within-turn rejoin search: can the deviator still
       reach the exact scripted position at the start of the opponent's
       next turn, or win before it?  If it can rejoin, the deviation is
       a transposition of the script and dominated.  If it can do
       neither, it has derailed the scripted machinery for good — the
       turn-local sense in which every scripted filler step is forced.
    2. A bounded null-window search of the free continuation, truncated
       ``_PROBE_HORIZON`` turns out (reaching the horizon counts as a
       draw), at most ``_VALUE_DEPTH`` plies deep and ``value_nodes``
       nodes per alternative.  A loss proven inside the horizon is a
       loss of the real game too — the punishing side forces it before
       the truncation matters — which upgrades a derail to a full
       game-theoretic refutation (for example, leaving the enemy board
       unfrozen loses on the spot).

    The checker holds one :class:`_TurnRejoinProbe`, that of the turn last
    asked about, whose memo, ``rejoin_nodes`` budget and loss-probe table
    that turn's alternatives share.  A step of another turn replaces it.

    Statuses: "refuted" (reasons ``forced_loss`` — horizon-sound minimax
    proof — or ``derailed`` — complete turn-local proof), "dominated"
    (``rejoined``, ``wins_anyway``, or ``equal_value``), "improved"
    (provably beats the script; would falsify the line), "unresolved"
    (budgets exhausted).  A ``derailed`` refutation asserts the
    turn-local claim only: a deviation that parks resources now to win
    several turns later would need a deeper probe to distinguish.
    """

    def __init__(
        self,
        config: GameConfig,
        line: ScriptedLine,
        vector: tuple[str, ...] | None = None,
        *,
        value_nodes: int = 5_000,
        rejoin_nodes: int = 200_000,
    ):
        if vector is None:
            vector = skeleton_solve(config, line).deviation_vector
        self.vector = vector
        self.value_nodes = value_nodes
        self.rejoin_nodes = rejoin_nodes

        self.records, final = walk_line(config, line, vector)
        value = terminal_value(final)
        self.scripted_value = DRAW if value is None else value

        # Scripted position at the start of each game turn, for rejoin
        # targets.
        self._turn_start: dict[int, GameState] = {}
        for rec in self.records:
            self._turn_start.setdefault(rec.turn, rec.state_before)
        self._probe: _TurnRejoinProbe | None = None

    def steps(self, max_turns: int | None = None) -> list[StepRecord]:
        """The line's taken steps, or those of its first ``max_turns`` game
        turns, counted from the turn it starts on."""
        if max_turns is None or not self.records:
            return list(self.records)
        last = self.records[0].turn + max_turns - 1
        return [rec for rec in self.records if rec.turn <= last]

    def _rejoin_probe(self, rec: StepRecord) -> _TurnRejoinProbe:
        probe = self._probe
        if probe is None or probe.turn != rec.turn:
            probe = self._probe = _TurnRejoinProbe(
                rec.turn,
                rec.state_before.active,
                self._turn_start.get(rec.turn + 1),
                self.rejoin_nodes,
            )
        return probe

    def _loss_probe(self, rec: StepRecord, child: GameState, tt: dict) -> tuple[bool, int]:
        """Prove, if cheap, that the deviation loses within the horizon.

        Clamps the turn limit of ``child``, which the caller owns and does
        not read again, in place."""
        child.turn_limit = min(child.turn_limit, rec.turn + _PROBE_HORIZON)
        ab = AlphaBeta(max_nodes=self.value_nodes, tt=tt)
        if rec.state_before.active == 0:
            v = ab.search(child, LOSS, DRAW, _VALUE_DEPTH)
            proven = v is not None and v <= LOSS
        else:
            v = ab.search(child, DRAW, WIN, _VALUE_DEPTH)
            proven = v is not None and v >= WIN
        return proven, ab.nodes

    def check_step(self, rec: StepRecord, alternative: Action) -> DeviationFinding:
        mover = rec.state_before.active
        child = rec.state_before.fork()
        apply_in_place(child, alternative)
        nodes = 0

        def finding(status: str, reason: str) -> DeviationFinding:
            return DeviationFinding(
                rec.index, rec.turn, rec.side, rec.action, alternative,
                status, reason, nodes,
            )

        s_mover = self.scripted_value if mover == 0 else -self.scripted_value

        tv = terminal_value(child)
        if tv is not None:
            v_mover = tv if mover == 0 else -tv
            if v_mover < s_mover:
                return finding("refuted", "forced_loss")
            if v_mover == s_mover:
                return finding("dominated", "equal_value")
            return finding("improved", "better_value")

        # Phase 1: exact rejoin reachability within the current turn.
        probe = self._rejoin_probe(rec)
        result, spent = probe.analyze(child)
        nodes += spent
        if result == "rejoined":
            return finding("dominated", "rejoined")
        if result == "wins":
            if s_mover == WIN:
                return finding("dominated", "wins_anyway")
            return finding("improved", "wins_faster")

        # Phase 2: a bounded null-window probe.  A loss proven inside the
        # truncated horizon is a loss of the real game (the punishment
        # lands before the truncation matters), upgrading a derail to a
        # full game-theoretic refutation.
        proven_loss, spent = self._loss_probe(rec, child, probe.tt)
        nodes += spent
        if proven_loss:
            return finding("refuted", "forced_loss")
        if result == "derailed":
            return finding("refuted", "derailed")
        return finding("unresolved", "budget")

    def check_all(self, max_turns: int = 1) -> DeviationReport:
        """Probe every alternative at every step of the first ``max_turns``
        game turns, one turn's probe at a time, and drop the last one."""
        report = DeviationReport(
            scripted_value=self.scripted_value, vector=self.vector
        )
        for rec in self.steps(max_turns):
            report.checked_steps += 1
            for alt in legal_actions(rec.state_before):
                if alt == rec.action:
                    continue
                report.count(self.check_step(rec, alt))
        self._probe = None
        return report


def named_deviations(checker: DeviationChecker) -> list[tuple[str, StepRecord, Action]]:
    """The structural spot-check deviations for a compiled line.

    Three families, all on the opening turn of the checked vector:

    * ``skip_freeze`` — end the turn at the scripted Frost Nova instead of
      casting it (absent when the opening turn carries no Frost Nova, as
      happens for single-pair lines that end on the verification tail).
    * ``carrier_position_k`` — summon the first Floating Watcher at slot k
      instead of the rightmost slot, for every k it would fit.
    * ``double_spend`` — aim the branch's Shadow Word: Death at the
      carrier that already received Charge, leaving the other carrier
      standing (present when the opening branch takes its first option).
    """
    from . import cards as _cards

    out: list[tuple[str, StepRecord, Action]] = []
    fn_rec = fw_rec = swd_rec = None
    for rec in checker.steps(max_turns=1):
        action = rec.action
        if not isinstance(action, PlayCard):
            continue
        hand = rec.state_before.players[rec.side].hand
        cid = hand[action.hand]
        if cid == _cards.FROST_NOVA and fn_rec is None:
            fn_rec = rec
        if (cid == _cards.FLOATING_WATCHER and fw_rec is None
                and action.position is not None):
            fw_rec = rec
        if (cid == _cards.SHADOW_WORD_DEATH and swd_rec is None
                and action.target == _F_SECOND):
            swd_rec = rec

    if fn_rec is not None:
        out.append(("skip_freeze", fn_rec, EndTurn()))
    if fw_rec is not None:
        for pos in range(fw_rec.action.position):
            out.append(
                (f"carrier_position_{pos}", fw_rec,
                 PlayCard(fw_rec.action.hand, position=pos))
            )
    if swd_rec is not None:
        alt = PlayCard(swd_rec.action.hand, target=_F_CARRY)
        if alt in legal_actions(swd_rec.state_before):
            out.append(("double_spend", swd_rec, alt))
    return out


def check_named_deviations(checker: DeviationChecker) -> DeviationReport:
    """Run the structural spot checks and aggregate them into a report."""
    report = DeviationReport(
        scripted_value=checker.scripted_value, vector=checker.vector
    )
    seen_steps = set()
    for _, rec, alt in named_deviations(checker):
        if rec.index not in seen_steps:
            seen_steps.add(rec.index)
            report.checked_steps += 1
        report.count(checker.check_step(rec, alt))
    return report


def deviation_check(
    config: GameConfig,
    line: ScriptedLine,
    vector: tuple[str, ...] | None = None,
    *,
    max_turns: int | None = None,
    value_nodes: int = 5_000,
    rejoin_nodes: int = 200_000,
) -> DeviationReport:
    """Probe alternatives to the line's scripted steps.

    ``vector`` defaults to :attr:`SkeletonResult.deviation_vector`; a caller
    that has already solved the skeleton passes that instead.  With
    ``max_turns=None`` (the default) only the named structural spot checks
    run — see :func:`named_deviations`; with an integer, every legal
    alternative at every step of the line's first ``max_turns`` game turns
    is probed.  See :class:`DeviationChecker` for probe semantics.
    """
    checker = DeviationChecker(
        config, line, vector, value_nodes=value_nodes, rejoin_nodes=rejoin_nodes)
    if max_turns is None:
        return check_named_deviations(checker)
    return checker.check_all(max_turns)
