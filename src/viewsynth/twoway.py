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
by reaching the right endmarker in a final state.  A machine keeps its
moves per tape symbol in the two tables ``two_to_one`` reads.  A hand-built
machine gets them from its transition set, whose moves off either endmarker
are rejected at construction time; ``fold_automaton`` fills them straight
from the rows of the query's automaton, with no transition set.

``two_to_one`` turns such a machine into a one-way automaton whose states
are Shepherdson's crossing tables of the prefix read so far, each with the
set of states that can enter the next cell.  A table keeps rows for the
targets of left moves only, the one place the head re-enters the prefix.
Each letter's table comes from a graph search on the new cell, one per
target, that collects reach and exits together and reuses the finished
searches of earlier targets; the next entry set is one more search, which
reuses them all, and acceptance is one search from the set of states that
can enter the right endmarker.

``fold_difference`` decides containment on the result: guided by the
left-hand query, ``two_to_one`` is deterministic on that query's words, so
one search over pairs of their states finds a shortest separating word.
"""

from __future__ import annotations

from collections import deque

from .errors import CapExceeded, InputError
from .model import Word, inverse
from .automata import DEFAULT_DET_CAP, NWA, bits, first_word, image, mask

LEFT_END = "⊢"   # ⊢
RIGHT_END = "⊣"  # ⊣
LEFT = "left"
RIGHT = "right"


class TwoNWA:
    """A nondeterministic two-way word automaton with endmarkers.

    ``left[s]`` lists the left moves on tape symbol ``s`` as (source,
    target) pairs; ``right[s]`` holds one successor bitmask per state.  The
    constructor validates ``transitions`` and files them in those tables;
    :func:`fold_automaton` fills the tables directly and leaves
    ``transitions`` ``None``.
    """

    __slots__ = ("n_states", "alphabet", "initial", "finals", "transitions", "left", "right")

    def __init__(self, n_states, alphabet, initial, finals, transitions):
        self.n_states = int(n_states)
        self.alphabet = frozenset(alphabet)
        self.initial = int(initial)
        self.finals = frozenset(finals)
        self.transitions = frozenset(transitions)
        tape_symbols = self.alphabet | {LEFT_END, RIGHT_END}
        # per tape symbol, the left moves as (source, target) pairs and the
        # right moves as one row bitmask per state: the tables two_to_one reads
        left: dict[str, list[tuple[int, int]]] = {}
        right: dict[str, list[int]] = {}
        for p, s, d, q in self.transitions:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise InputError(f"two-way transition ({p},{s},{d},{q}) out of range")
            if s not in tape_symbols:
                raise InputError(f"two-way transition reads unknown symbol {s!r}")
            if d == LEFT:
                if s == LEFT_END:
                    raise InputError("transition moves left of the left endmarker")
                left.setdefault(s, []).append((p, q))
            elif d == RIGHT:
                if s == RIGHT_END:
                    raise InputError("transition moves right of the right endmarker")
                right.setdefault(s, [0] * self.n_states)[p] |= 1 << q
            else:
                raise InputError(f"bad direction {d!r}")
        self.left = {s: tuple(pairs) for s, pairs in left.items()}
        self.right = {s: tuple(rows) for s, rows in right.items()}

    def __repr__(self):
        return (
            f"TwoNWA(states={self.n_states}, initial={self.initial}, "
            f"finals={sorted(self.finals)})"
        )


def accepts_two(t: TwoNWA, word: Word) -> bool:
    """Direct configuration-graph search over ``t.transitions``, which a
    machine built from a transition set keeps; a test cross-check that
    shares no move table with ``two_to_one``."""
    moves: dict[tuple[int, str], list[tuple[str, int]]] = {}
    for p, s, d, q in t.transitions:
        moves.setdefault((p, s), []).append((d, q))
    tape = (LEFT_END, *word, RIGHT_END)
    seen = {(t.initial, 0)}
    queue = deque(seen)
    while queue:
        state, cell = queue.popleft()
        if cell == len(tape) - 1 and state in t.finals:
            return True
        for direction, nxt in moves.get((state, tape[cell]), ()):
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

    The move tables are filled straight from ``a.rows``, with no transition
    set and no validation pass: ``(p, R)`` turns into ``(p, L)`` on every
    symbol but the left endmarker and back on every symbol but the right
    one; each ``x`` row of ``a``, spread onto the ``(q, R)`` copies, is the
    right row of ``(p, R)`` on ``x``; and each ``x`` move ``p -> q`` of
    ``a`` is the left pair ``(p, L) -> (q, L)`` on ``inverse(x)``.
    """
    tape = sorted(a.alphabet | {inverse(s) for s in a.alphabet})
    # state numbering: 0 = start; then (p, R) -> 1 + 2p, (p, L) -> 2 + 2p
    m = a.n_states
    n_states = 1 + 2 * m

    def spread(row: int) -> int:
        """The ``(q, R)`` copies of the states ``q`` in ``row``."""
        out = 0
        for q in bits(row):
            out |= 2 << 2 * q
        return out

    # direction changes never feed a letter to the simulated automaton
    turn_right = [0] * n_states
    turn_right[2::2] = [2 << 2 * p for p in range(m)]
    turn_left = [(1 + 2 * p, 2 + 2 * p) for p in range(m)]
    right: dict[str, tuple[int, ...]] = {}
    left: dict[str, tuple[tuple[int, int], ...]] = {RIGHT_END: tuple(turn_left)}
    for s in tape:
        # rightward crossing of a cell holding x simulates reading x;
        # leftward crossing of a cell holding inverse(x) also reads x
        rows = list(turn_right)
        if s in a.rows:
            rows[1::2] = map(spread, a.rows[s])
        right[s] = tuple(rows)
        reads = [
            (2 + 2 * p, 2 + 2 * q)
            for p, row in enumerate(a.rows.get(inverse(s), ()))
            for q in bits(row)
        ]
        left[s] = tuple(turn_left + reads)
    start = list(turn_right)
    start[0] = spread(mask(a.initials))
    right[LEFT_END] = tuple(start)

    t = TwoNWA.__new__(TwoNWA)
    t.n_states, t.alphabet, t.initial = n_states, frozenset(tape), 0
    t.finals = frozenset(1 + 2 * f for f in a.finals)
    t.transitions, t.left, t.right = None, left, right
    return t


# ---------------------------------------------------------------------------
# Two-way to one-way (crossing-relation construction)
# ---------------------------------------------------------------------------

def two_to_one(t: TwoNWA, cap: int = DEFAULT_DET_CAP, within: NWA | None = None) -> NWA:
    """An equivalent one-way NWA, via Shepherdson's crossing tables.

    A crossing state describes the tape prefix read so far by a pair: the
    entry set, the states that can enter the next cell coming from the
    initial configuration, and the table, which gives per left-move target
    ``p`` the states in which entering the prefix's last cell in ``p`` can
    eventually exit right.  The head comes back into the prefix only by a
    left move, so the table keeps no other state's row.  Per letter,
    ``step`` builds the new table and ``enter`` the new entry set, both by
    searching the new cell.  A crossing state accepts when one search from
    its entry set on the right endmarker reaches a final state.  Without
    ``within`` the result is deterministic and complete over the two-way
    automaton's alphabet.

    With ``within``, the search walks pairs (``within`` state, crossing
    state) and only follows letters ``within`` can read, so it builds just
    the crossing states that prefixes of words of ``L(within)`` reach.  The
    result is a partial deterministic automaton that agrees with ``t`` on
    every word of ``L(within)``.  ``cap`` bounds the crossing states built.
    """
    n = t.n_states
    right = t.right
    no_moves = (0,) * n
    finals_mask = mask(t.finals)
    # a table holds one row per left-move target, in increasing order
    targets = sorted({q for pairs in t.left.values() for _, q in pairs})
    all_targets = mask(targets)
    slot = {q: i for i, q in enumerate(targets)}
    left = {s: [(p, slot[q]) for p, q in pairs] for s, pairs in t.left.items()}

    def dips(symbol: str, table: tuple[int, ...]) -> list[int]:
        """Per state, where one left move on this cell and the prefix's
        crossing table bring the head back onto the cell."""
        back = [0] * n
        for p, i in left.get(symbol, ()):
            back[p] |= table[i]
        return back

    def step(symbol: str, table: tuple[int, ...]):
        """The crossing table of the prefix extended by a cell holding
        ``symbol``, and the cell's parts that ``enter`` searches.

        The head may dip left into the prefix any number of times, and
        ``table`` brings each dip back, so one step of the search on this
        cell goes from ``q`` to ``succ[q]``.  One search per target
        collects the states the head reaches and those it exits right in.
        Targets are searched in order; a search that meets an earlier
        target takes that target's reach and exits whole instead of
        expanding it.
        """
        succ = dips(symbol, table)
        rights = right.get(symbol, no_moves)
        reach = [0] * n
        out = [0] * n
        finished = 0
        for p in targets:
            seen = 1 << p
            exits = rights[p]
            frontier = succ[p] & ~seen
            while frontier:
                seen |= frontier
                fresh = 0
                # image inlined: these loops are most of the conversion's time
                done = frontier & finished
                while done:
                    low = done & -done
                    q = low.bit_length() - 1
                    seen |= reach[q]
                    exits |= out[q]
                    done ^= low
                todo = frontier & ~finished
                while todo:
                    low = todo & -todo
                    q = low.bit_length() - 1
                    fresh |= succ[q]
                    exits |= rights[q]
                    todo ^= low
                frontier = fresh & ~seen
            reach[p] = seen
            out[p] = exits
            finished |= 1 << p
        return tuple([out[p] for p in targets]), (succ, rights, reach, out)

    def enter(e: int, cell) -> int:
        """The states in which a head entering ``cell`` in some state of
        ``e`` can exit it right: one search from the whole set, which takes
        every target's reach and exits from ``step`` whole."""
        succ, rights, reach, out = cell
        seen = frontier = e
        exits = 0
        while frontier:
            done, todo = frontier & all_targets, frontier & ~all_targets
            exits |= image(out, done) | image(rights, todo)
            seen |= image(reach, done)
            frontier = image(succ, todo) & ~seen
            seen |= frontier
        return exits

    def accepts_from(e: int, table: tuple[int, ...]) -> bool:
        """Whether entering the right endmarker in some state of ``e``
        reaches a final state there: one search from the whole set."""
        succ = dips(RIGHT_END, table)
        seen = frontier = e
        while frontier:
            if frontier & finals_mask:
                return True
            frontier = image(succ, frontier) & ~seen
            seen |= frontier
        return False

    # behavior over the left endmarker alone: nothing lies left of it
    table0, cell0 = step(LEFT_END, ())
    start = (enter(1 << t.initial, cell0), table0)

    alphabet = sorted(t.alphabet)
    if within is None:
        guide_initials = [0]
        guide_moves = {0: [(symbol, (0,)) for symbol in alphabet]}
    else:
        guide_initials = sorted(within.initials)
        shared = [(symbol, within.rows[symbol]) for symbol in alphabet if symbol in within.rows]
        guide_moves = {
            g: [(symbol, list(bits(rows[g]))) for symbol, rows in shared if rows[g]]
            for g in range(within.n_states)
        }

    # memoized per table: step's result per symbol
    steps: dict[tuple[int, ...], dict[str, tuple]] = {}
    index: dict[tuple[int, tuple[int, ...]], int] = {start: 0}
    seen = {(g, start) for g in guide_initials}
    queue = deque(sorted(seen))
    transitions = set()
    while queue:
        g, key = queue.popleft()
        e, table = key
        src = index[key]
        stepped = steps.setdefault(table, {})
        for symbol, guide_next in guide_moves[g]:
            if symbol not in stepped:
                stepped[symbol] = step(symbol, table)
            table2, cell = stepped[symbol]
            key2 = (enter(e, cell), table2)
            if key2 not in index:
                if len(index) >= cap:
                    raise CapExceeded("two-way conversion", cap)
                index[key2] = len(index)
            transitions.add((src, symbol, index[key2]))
            for g2 in guide_next:
                if (g2, key2) not in seen:
                    seen.add((g2, key2))
                    queue.append((g2, key2))
    finals = {i for (e, table), i in index.items() if accepts_from(e, table)}
    return NWA(len(index), t.alphabet, {0}, finals, transitions)


def fold_difference(q1: NWA, q2: NWA, cap: int = DEFAULT_DET_CAP) -> Word | None:
    """A shortest word of L(q1) outside fold(L(q2)), least in label order
    among those; ``None`` when L(q1) lies inside the fold.

    ``two_to_one`` guided by ``q1`` gives a deterministic automaton ``d``
    for the fold on every word of L(q1), so one search over pairs (``q1``
    state ``p``, ``d`` state ``s``), each the bit ``s * n + p`` of one
    bitmask, decides the difference; a move ``d`` lacks reads a label
    outside ``q2``'s tape and goes to the rejecting sink ``d.n_states``.
    ``cap`` bounds the crossing states of ``d``.
    """
    d = two_to_one(fold_automaton(q2), cap=cap, within=q1)
    n, sink = q1.n_states, d.n_states
    block = (1 << n) - 1
    # the sink has no key here, so its moves stay in the sink
    moves = {(s, label): s2 for s, label, s2 in d.transitions}

    def successors(pairs, label):
        out = 0
        while pairs:
            s = ((pairs & -pairs).bit_length() - 1) // n
            here = pairs >> (s * n) & block
            out |= image(q1.rows[label], here) << (moves.get((s, label), sink) * n)
            pairs ^= here << (s * n)
        return out

    hit = sum(mask(q1.finals) << (s * n) for s in range(sink + 1) if s not in d.finals)
    return first_word(mask(q1.initials), successors, hit, sorted(q1.labels_present()))


def contains_2rpq(q1: NWA, q2: NWA, cap: int = DEFAULT_DET_CAP) -> bool:
    """2RPQ containment: L(q1) must fall inside fold(L(q2)); ``cap`` bounds
    the crossing states of :func:`fold_difference`."""
    return fold_difference(q1, q2, cap=cap) is None
