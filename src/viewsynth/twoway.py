"""Folding and containment for two-way regular path queries.

A word ``v`` folds onto ``u`` when ``v`` can trace ``u`` with back-and-forth
steps: moving right over a letter consumes that letter, moving back left
over it consumes its inverse.  ``fold(L)`` collects all words some member
of ``L`` folds onto; containment of 2RPQs reduces to one-way containment
against ``fold`` of the right-hand side.

The two-way automaton model is fixed here as follows: the tape is
``LEFT_END u RIGHT_END``; a transition ``(p, s, d, q)`` fires when the
symbol under the head is ``s`` and moves the head one cell in direction
``d``; a run starts on the left endmarker in the initial state and accepts
by reaching the right endmarker in a final state.  Moves off either
endmarker are rejected at construction time.
"""

from __future__ import annotations

from collections import deque

from .errors import CapExceeded, InputError
from .model import Word, inverse
from .automata import DEFAULT_DET_CAP, NWA, contains
from .congruence import image

LEFT_END = "⊢"   # ⊢
RIGHT_END = "⊣"  # ⊣
LEFT = "left"
RIGHT = "right"

TwoTransition = tuple[int, str, str, int]


class TwoNWA:
    """A nondeterministic two-way word automaton with endmarkers."""

    __slots__ = ("n_states", "alphabet", "initial", "finals", "transitions", "_step")

    def __init__(self, n_states, alphabet, initial, finals, transitions):
        self.n_states = int(n_states)
        self.alphabet = frozenset(alphabet)
        self.initial = int(initial)
        self.finals = frozenset(finals)
        self.transitions = frozenset(transitions)
        tape_symbols = self.alphabet | {LEFT_END, RIGHT_END}
        for p, s, d, q in self.transitions:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise InputError(f"two-way transition ({p},{s},{d},{q}) out of range")
            if s not in tape_symbols:
                raise InputError(f"two-way transition reads unknown symbol {s!r}")
            if d not in (LEFT, RIGHT):
                raise InputError(f"bad direction {d!r}")
            if s == LEFT_END and d == LEFT:
                raise InputError("transition moves left of the left endmarker")
            if s == RIGHT_END and d == RIGHT:
                raise InputError("transition moves right of the right endmarker")
        step: dict[tuple[int, str], set[tuple[str, int]]] = {}
        for p, s, d, q in self.transitions:
            step.setdefault((p, s), set()).add((d, q))
        self._step = {k: frozenset(v) for k, v in step.items()}

    def moves(self, state: int, symbol: str) -> frozenset[tuple[str, int]]:
        return self._step.get((state, symbol), frozenset())

    def __repr__(self):
        return (
            f"TwoNWA(states={self.n_states}, |transitions|={len(self.transitions)}, "
            f"initial={self.initial}, finals={sorted(self.finals)})"
        )


def accepts_two(t: TwoNWA, word: Word) -> bool:
    """Direct configuration-graph search; used as a cross-check in tests."""
    n = len(word)

    def symbol_at(cell: int) -> str:
        if cell == 0:
            return LEFT_END
        if cell == n + 1:
            return RIGHT_END
        return word[cell - 1]

    seen = {(t.initial, 0)}
    queue = deque(seen)
    while queue:
        state, cell = queue.popleft()
        if cell == n + 1 and state in t.finals:
            return True
        for direction, nxt in t.moves(state, symbol_at(cell)):
            cell2 = cell + 1 if direction == RIGHT else cell - 1
            cfg = (nxt, cell2)
            if cfg not in seen:
                seen.add(cfg)
                queue.append(cfg)
    return False


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------

def folds_onto(v: Word, u: Word) -> list[int] | None:
    """The position certificate ``i_0..i_m`` for ``v`` folding onto ``u``.

    ``i_0 = 0``, ``i_m = len(u)``, and each step moves one position right
    (consuming the letter of ``u`` it crosses) or left (consuming that
    letter's inverse).  Returns ``None`` when no folding exists.
    """
    n = len(u)
    start = (0, 0)  # (letters of v consumed, position in u)
    parent: dict[tuple[int, int], tuple[int, int]] = {start: start}
    queue = deque([start])
    goal = (len(v), n)
    while queue:
        j, i = queue.popleft()
        if (j, i) == goal:
            break
        if j == len(v):
            continue
        steps = []
        if i < n and v[j] == u[i]:
            steps.append((j + 1, i + 1))
        if i > 0 and v[j] == inverse(u[i - 1]):
            steps.append((j + 1, i - 1))
        for nxt in steps:
            if nxt not in parent:
                parent[nxt] = (j, i)
                queue.append(nxt)
    if goal not in parent:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return [i for _, i in reversed(path)]


def fold_automaton(a: NWA) -> TwoNWA:
    """A two-way automaton accepting ``fold(L(a))``.

    The machine walks the input ``u`` while simulating ``a`` on a guessed
    ``v``: crossing a cell rightward feeds its letter to ``a``, crossing it
    leftward feeds the inverse.  States are directed copies ``(p, R)`` /
    ``(p, L)`` of ``a``'s states so that each crossing reads the cell it
    traverses, plus a start state sitting on the left endmarker.
    """
    tape = sorted(a.alphabet | {inverse(s) for s in a.alphabet})
    # state numbering: 0 = start; then (p, R) -> 1 + 2p, (p, L) -> 2 + 2p
    def right_state(p):
        return 1 + 2 * p

    def left_state(p):
        return 2 + 2 * p

    n_states = 1 + 2 * a.n_states
    transitions: set[TwoTransition] = set()
    for p in range(a.n_states):
        if p in a.initials:
            transitions.add((0, LEFT_END, RIGHT, right_state(p)))
        # direction changes never feed a letter to the simulated automaton
        for s in tape + [RIGHT_END]:
            transitions.add((right_state(p), s, LEFT, left_state(p)))
        for s in tape + [LEFT_END]:
            transitions.add((left_state(p), s, RIGHT, right_state(p)))
    for p, x, q in a.transitions:
        # rightward crossing of a cell holding x simulates reading x;
        # leftward crossing of a cell holding inverse(x) also reads x
        transitions.add((right_state(p), x, RIGHT, right_state(q)))
        transitions.add((left_state(p), inverse(x), LEFT, left_state(q)))
    finals = {right_state(f) for f in a.finals}
    return TwoNWA(n_states, tape, 0, finals, transitions)


# ---------------------------------------------------------------------------
# Two-way to one-way (crossing-relation construction)
# ---------------------------------------------------------------------------

def two_to_one(t: TwoNWA, cap: int = DEFAULT_DET_CAP, within: NWA | None = None) -> NWA:
    """An equivalent one-way NWA, via Shepherdson-style crossing summaries.

    Reading the input left to right, the construction tracks, for the tape
    prefix consumed so far, (i) which states can enter the next cell coming
    from the initial configuration and (ii) the relation \"entering the
    prefix's last cell in state p can eventually exit right in state q\".
    Both are updated per letter.  Without ``within`` the result is
    deterministic and complete over the two-way automaton's alphabet.

    With ``within``, the search walks pairs (``within`` state, crossing
    state) and only follows letters ``within`` can read, so it builds just
    the crossing states that prefixes of words of ``L(within)`` reach.  The
    result is a partial deterministic automaton that agrees with ``t`` on
    every word of ``L(within)``.  ``cap`` bounds the crossing states built.
    """
    n = t.n_states
    # per tape symbol, the left and right moves as one row bitmask per state
    left: dict[str, list[int]] = {}
    right: dict[str, list[int]] = {}
    for p, s, d, q in t.transitions:
        rows = (left if d == LEFT else right).setdefault(s, [0] * n)
        rows[p] |= 1 << q
    no_moves = [0] * n
    finals_mask = 0
    for f in t.finals:
        finals_mask |= 1 << f

    def closure(symbol: str, rel: tuple[int, ...]) -> list[int]:
        """Per state, the states the head can be in on this cell after
        entering it in that state, dipping left into the prefix any number
        of times (``rel`` brings each dip back)."""
        rows = [1 << p | image(rel, dips) for p, dips in enumerate(left.get(symbol, no_moves))]
        changed = True
        while changed:
            changed = False
            for p, row in enumerate(rows):
                # image inlined: this loop is most of the conversion's time
                grown = row
                members = row
                while members:
                    low = members & -members
                    grown |= rows[low.bit_length() - 1]
                    members ^= low
                if grown != row:
                    rows[p] = grown
                    changed = True
        return rows

    def exits(symbol: str, reach: list[int]) -> tuple[int, ...]:
        moves = right.get(symbol, no_moves)
        return tuple(image(moves, row) for row in reach)

    # memoized per relation: its successor per symbol, and the entry states
    # from which it accepts on the right endmarker
    successors: dict[tuple[int, ...], dict[str, tuple[int, ...]]] = {}
    accepting: dict[tuple[int, ...], int] = {}

    def accept_mask(rel: tuple[int, ...]) -> int:
        mask = accepting.get(rel)
        if mask is None:
            reach = closure(RIGHT_END, rel)
            mask = 0
            for p, row in enumerate(reach):
                if row & finals_mask:
                    mask |= 1 << p
            accepting[rel] = mask
        return mask

    # behavior over the left endmarker alone
    t0 = exits(LEFT_END, [1 << p for p in range(n)])
    e0 = t0[t.initial]

    alphabet = sorted(t.alphabet)
    if within is None:
        guide_initials = [0]
        guide_moves = {0: [(symbol, (0,)) for symbol in alphabet]}
    else:
        guide_initials = sorted(within.initials)
        guide_moves = {
            g: [(symbol, sorted(within.step(g, symbol)))
                for symbol in alphabet if within.step(g, symbol)]
            for g in range(within.n_states)
        }

    index: dict[tuple[int, tuple[int, ...]], int] = {(e0, t0): 0}
    seen = {(g, (e0, t0)) for g in guide_initials}
    queue = deque(sorted(seen))
    transitions = set()
    while queue:
        g, key = queue.popleft()
        e, rel = key
        src = index[key]
        succ = successors.setdefault(rel, {})
        for symbol, guide_next in guide_moves[g]:
            rel2 = succ.get(symbol)
            if rel2 is None:
                rel2 = succ[symbol] = exits(symbol, closure(symbol, rel))
            key2 = (image(rel2, e), rel2)
            if key2 not in index:
                if len(index) >= cap:
                    raise CapExceeded("two-way conversion", cap)
                index[key2] = len(index)
            transitions.add((src, symbol, index[key2]))
            for g2 in guide_next:
                if (g2, key2) not in seen:
                    seen.add((g2, key2))
                    queue.append((g2, key2))
    finals = {i for (e, rel), i in index.items() if e & accept_mask(rel)}
    return NWA(len(index), t.alphabet, {0}, finals, transitions)


def contains_2rpq(q1: NWA, q2: NWA, cap: int = DEFAULT_DET_CAP) -> bool:
    """2RPQ containment: L(q1) must fall inside fold(L(q2))."""
    # only words of L(q1) are ever read against the fold, so the conversion
    # builds just the crossing states their prefixes reach
    folded = two_to_one(fold_automaton(q2), cap=cap, within=q1)
    return contains(q1, folded, cap=cap)
