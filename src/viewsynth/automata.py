"""One-way finite word automata and the algebra used by synthesis.

NWAs are immutable after construction; every operation below is a pure
function, so automata can be shared freely across threads.  Every NWA is
epsilon-free: its constructor rejects any label outside the alphabet, the
epsilon label ``None`` included.  Epsilon edges exist only in the raw parts
that view substitution hands to :func:`eliminate_epsilon`.  A set of
states is a bitmask, and an NWA files its moves as ``rows``: per label, one
successor bitmask per state, the label's relation as :mod:`congruence`
writes it.  Every kernel below steps sets through the rows by :func:`image`.
"""

from __future__ import annotations

from .errors import CapExceeded, InputError
from .model import (
    EPS,
    EMPTY,
    RAlt,
    RCat,
    REmpty,
    REps,
    RStar,
    RSym,
    Regex,
    Word,
    ralt,
    rcat,
    rstar,
)

DEFAULT_DET_CAP = 100_000


def mask(states) -> int:
    """The bitmask of a set of states."""
    return sum(1 << s for s in states)


def bits(members: int):
    """The states of the bitmask ``members``, in increasing order."""
    while members:
        low = members & -members
        yield low.bit_length() - 1
        members ^= low


def image(rows, members: int) -> int:
    """The union of ``rows[i]`` over the bits ``i`` set in ``members``: the
    states a relation given as bitset rows reaches from the set ``members``."""
    acc = 0
    while members:
        low = members & -members
        acc |= rows[low.bit_length() - 1]
        members ^= low
    return acc


class NWA:
    """A nondeterministic word automaton with dense integer states.

    Multiple initial states are allowed.  A deterministic automaton is an
    NWA with one initial state and one successor per state and symbol.
    Every label is a symbol of the alphabet, so an NWA has no epsilon
    transitions; :func:`eliminate_epsilon` is the one place they exist.
    ``rows[label]`` holds, per state, the bitmask of its ``label``
    successors, for every label of the alphabet.
    """

    __slots__ = ("n_states", "alphabet", "initials", "finals", "transitions", "rows")

    def __init__(self, n_states, alphabet, initials, finals, transitions):
        self.n_states = int(n_states)
        self.alphabet = frozenset(alphabet)
        self.initials = frozenset(initials)
        self.finals = frozenset(finals)
        self.transitions = frozenset(transitions)
        rows = {a: [0] * self.n_states for a in self.alphabet}
        for p, a, q in self.transitions:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise InputError(f"transition ({p},{a},{q}) leaves the state range")
            if a not in rows:
                raise InputError(f"transition label {a!r} outside the alphabet")
            rows[a][p] |= 1 << q
        for s in self.initials | self.finals:
            if not 0 <= s < self.n_states:
                raise InputError(f"state {s} out of range")
        self.rows = {a: tuple(row) for a, row in rows.items()}

    def labels_present(self) -> frozenset[str]:
        return frozenset(a for _, a, _ in self.transitions)

    def __repr__(self):
        return (
            f"NWA(states={self.n_states}, |transitions|={len(self.transitions)}, "
            f"initials={sorted(self.initials)}, finals={sorted(self.finals)})"
        )


# ---------------------------------------------------------------------------
# Regex -> NWA (position/Glushkov construction: epsilon-free, lean)
# ---------------------------------------------------------------------------

def compile_regex(regex: Regex) -> NWA:
    """Compile a regex into an epsilon-free NWA with |occurrences|+1 states.

    It is trim when ``rcat``, ``ralt`` and ``rstar`` built the regex, as in
    the parser: they leave the empty set only at the top, and every
    position of an empty-free regex lies on an accepted word.
    """
    positions: list[str] = []

    def walk(node: Regex):
        # returns (nullable, first, last, follow-pairs)
        if isinstance(node, REmpty):
            return False, set(), set(), set()
        if isinstance(node, REps):
            return True, set(), set(), set()
        if isinstance(node, RSym):
            positions.append(node.label)
            p = len(positions)  # states are 1-based; 0 is the start state
            return False, {p}, {p}, set()
        if isinstance(node, RCat):
            nullable, first, last, follow = True, set(), set(), set()
            for part in node.parts:
                n2, f2, l2, fo2 = walk(part)
                follow |= fo2 | {(x, y) for x in last for y in f2}
                if nullable:
                    first |= f2
                last = l2 | (last if n2 else set())
                nullable = nullable and n2
            return nullable, first, last, follow
        if isinstance(node, RAlt):
            nullable, first, last, follow = False, set(), set(), set()
            for part in node.parts:
                n2, f2, l2, fo2 = walk(part)
                nullable = nullable or n2
                first |= f2
                last |= l2
                follow |= fo2
            return nullable, first, last, follow
        if isinstance(node, RStar):
            _, first, last, follow = walk(node.inner)
            follow = follow | {(x, y) for x in last for y in first}
            return True, first, last, follow
        raise TypeError(f"not a regex node: {node!r}")

    nullable, first, last, follow = walk(regex)
    transitions = {(0, positions[p - 1], p) for p in first}
    transitions |= {(x, positions[y - 1], y) for x, y in follow}
    finals = set(last) | ({0} if nullable else set())
    return NWA(len(positions) + 1, set(positions), {0}, finals, transitions)


# ---------------------------------------------------------------------------
# Basic algebra
# ---------------------------------------------------------------------------

def eliminate_epsilon(n_states, alphabet, initials, finals, transitions) -> NWA:
    """The NWA of the given parts, whose transitions may carry the epsilon
    label ``None``, with the same states and language and no epsilon."""
    epsilon: dict[int, list[int]] = {}
    labelled: dict[int, list[tuple[str, int]]] = {}
    for p, x, q in transitions:
        if x is None:
            epsilon.setdefault(p, []).append(q)
        else:
            labelled.setdefault(p, []).append((x, q))
    clean, clean_finals = set(), set()
    for p in range(n_states):
        closure, stack = {p}, [p]
        while stack:
            for t in epsilon.get(stack.pop(), ()):
                if t not in closure:
                    closure.add(t)
                    stack.append(t)
        clean.update((p, x, d) for q in closure for x, d in labelled.get(q, ()))
        if not closure.isdisjoint(finals):
            clean_finals.add(p)
    return NWA(n_states, alphabet, initials, clean_finals, clean)


def explore(starts, successors, labels, cap=None, what=""):
    """Number the states a breadth-first walk meets: the ``starts`` first,
    once each in their given order, then each state's successors in label
    order as the walk first meets them.  ``successors(state, label)``
    yields the states one step leads to.

    Returns the numbering (a dict, in numbering order) and the moves
    ``(i, label, j)``, one per successor.  Raises :class:`CapExceeded`
    ``(what, cap)`` when more than ``cap`` states appear.
    """
    index: dict = {}
    states: list = []
    moves: list[tuple] = []

    def number(state) -> int:
        if cap is not None and len(index) >= cap:
            raise CapExceeded(what, cap)
        index[state] = len(states)
        states.append(state)
        return index[state]

    for state in starts:
        if state not in index:
            number(state)
    for i, state in enumerate(states):  # ``states`` grows as the walk meets more
        for label in labels:
            for nxt in successors(state, label):
                j = index.get(nxt)
                moves.append((i, label, number(nxt) if j is None else j))
    return index, moves


def trim(a: NWA) -> NWA:
    """Restrict to states both reachable and co-reachable, renumbered densely;
    both walks are :func:`explore` over the transitions with labels ignored."""
    forward: dict[int, list[int]] = {}
    backward: dict[int, list[int]] = {}
    for p, _, q in a.transitions:
        forward.setdefault(p, []).append(q)
        backward.setdefault(q, []).append(p)
    fwd, _ = explore(a.initials, lambda s, _: forward.get(s, ()), (None,))
    bwd, _ = explore(a.finals, lambda s, _: backward.get(s, ()), (None,))
    keep = sorted(fwd.keys() & bwd.keys())
    if not keep:
        return NWA(1, a.alphabet, {0}, set(), set())
    renum = {s: i for i, s in enumerate(keep)}
    return NWA(
        len(keep),
        a.alphabet,
        {renum[s] for s in a.initials if s in renum},
        {renum[s] for s in a.finals if s in renum},
        {
            (renum[p], x, renum[q])
            for p, x, q in a.transitions
            if p in renum and q in renum
        },
    )


def product(a: NWA, b: NWA, alphabet=None) -> NWA:
    """Intersection of two languages over the shared alphabet: :func:`explore`
    over pairs of states, from the initial pairs in sorted order."""
    labels = frozenset(alphabet) if alphabet is not None else a.alphabet | b.alphabet
    starts = [(p, q) for p in sorted(a.initials) for q in sorted(b.initials)]

    def successors(pq, label):
        p, q = pq
        return [(p2, q2) for p2 in bits(a.rows[label][p]) for q2 in bits(b.rows[label][q])]

    # a label outside either alphabet moves nowhere
    index, moves = explore(starts, successors, sorted(labels & a.alphabet & b.alphabet))
    finals = {i for (p, q), i in index.items() if p in a.finals and q in b.finals}
    return NWA(max(len(index), 1), labels, {index[pq] for pq in starts}, finals, moves)


def determinize(a: NWA, cap: int = DEFAULT_DET_CAP, alphabet=None) -> NWA:
    """Subset construction, :func:`explore` over bitmasks of ``a``'s states:
    a complete deterministic NWA with initial state 0 (the empty set is the
    sink, as needed).

    Raises :class:`CapExceeded` when more than ``cap`` subset states appear.
    """
    if cap <= 0:
        raise InputError("determinization cap must be positive")
    labels = sorted(frozenset(alphabet) if alphabet is not None else a.alphabet)
    rows = {x: a.rows.get(x, (0,) * a.n_states) for x in labels}
    index, moves = explore(
        [mask(a.initials)], lambda s, x: (image(rows[x], s),), labels, cap, "determinization"
    )
    finals = mask(a.finals)
    return NWA(len(index), labels, {0}, {i for subset, i in index.items() if subset & finals}, moves)


def complement(a: NWA) -> NWA:
    """Complement of a complete deterministic NWA over its own alphabet (a
    move per state and label, no more): a copy sharing its moves, finals flipped."""
    if len(a.initials) != 1 or len(a.transitions) != a.n_states * len(a.alphabet) or any(
        0 in rows for rows in a.rows.values()
    ):
        raise InputError("complement requires a complete deterministic automaton")
    flipped = NWA.__new__(NWA)
    for field in NWA.__slots__:
        setattr(flipped, field, getattr(a, field))
    flipped.finals = frozenset(range(a.n_states)) - a.finals
    return flipped


def accepts(a: NWA, word: Word) -> bool:
    current = mask(a.initials)
    for label in word:
        current = image(a.rows[label], current) if label in a.rows else 0
    return bool(current & mask(a.finals))


def first_word(start: int, successors, hit: int, labels) -> Word | None:
    """The shortest word, least in label order among those, that leads from
    the node set ``start`` to a set meeting ``hit``; ``None`` if none.  Node
    sets are bitmasks, and ``successors(nodes, label)`` is the set one step
    leads to from ``nodes``.

    Breadth-first over groups of nodes first reached by the same word, in
    word order; nodes reached by one word must move as one group, or a
    later node of the group could reach a hit by a smaller word.
    """
    seen = start
    level = [(start, ())]
    while level:
        for nodes, word in level:
            if nodes & hit:
                return word
        following = []
        for nodes, word in level:
            for label in labels:
                reached = successors(nodes, label) & ~seen
                if reached:
                    seen |= reached
                    following.append((reached, word + (label,)))
        level = following
    return None


def is_empty(a: NWA) -> tuple[bool, Word | None]:
    """Emptiness with a shortest witness (lexicographically least among them),
    by :func:`first_word` over bitmasks of ``a``'s states stepped by
    :func:`image`."""
    witness = first_word(
        mask(a.initials),
        lambda s, x: image(a.rows[x], s),
        mask(a.finals),
        sorted(a.labels_present()),
    )
    return witness is None, witness


def difference_witness(
    a: NWA, b: NWA, cap: int = DEFAULT_DET_CAP
) -> Word | None:
    """A shortest word in L(a) \\ L(b), or ``None`` when L(a) is contained in L(b)."""
    labels = a.alphabet | b.alphabet
    comp = complement(determinize(b, cap=cap, alphabet=labels))
    empty, witness = is_empty(product(a, comp, alphabet=labels))
    return None if empty else witness


def contains(a: NWA, b: NWA, cap: int = DEFAULT_DET_CAP) -> bool:
    """L(a) included in L(b), via emptiness of a x complement(det(b))."""
    return difference_witness(a, b, cap=cap) is None


def equivalent(a: NWA, b: NWA, cap: int = DEFAULT_DET_CAP) -> bool:
    return contains(a, b, cap=cap) and contains(b, a, cap=cap)


# ---------------------------------------------------------------------------
# Substitution of source symbols by view automata
# ---------------------------------------------------------------------------

def substitute(
    a: NWA,
    views: dict[str, "NWA | None"],
    source_symbols,
    target_alphabet=None,
) -> NWA:
    """Replace every transition labeled by a source symbol with its view.

    A view of ``None`` (the empty query) deletes the transition; otherwise a
    fresh copy of the view automaton is spliced between the endpoints with
    epsilon transitions that :func:`eliminate_epsilon` removes.  Transitions
    over target symbols pass through unchanged.
    """
    source_symbols = set(source_symbols)
    occurring = a.labels_present() & source_symbols
    missing = occurring - set(views)
    if missing:
        raise InputError(f"no view assigned for occurring source symbol(s) {sorted(missing)}")

    labels: set[str] = set(a.alphabet - source_symbols)
    if target_alphabet is not None:
        labels |= set(target_alphabet)
    transitions: set[tuple[int, "str | None", int]] = set()
    n = a.n_states
    for p, x, q in a.transitions:
        if x not in source_symbols:
            transitions.add((p, x, q))
            continue
        view = views[x]
        if view is None:
            continue
        labels |= view.alphabet
        offset = n
        n += view.n_states
        for vp, vx, vq in view.transitions:
            transitions.add((vp + offset, vx, vq + offset))
        for i in view.initials:
            transitions.add((p, None, i + offset))
        for f in view.finals:
            transitions.add((f + offset, None, q))
    return trim(eliminate_epsilon(n, labels, a.initials, a.finals, transitions))


# ---------------------------------------------------------------------------
# NWA -> regex (state elimination) and DOT export
# ---------------------------------------------------------------------------

def nwa_to_regex(a: NWA) -> Regex:
    """A regex denoting exactly L(a), by state elimination."""
    a = trim(a)
    # every state trim keeps lies on an accepting path
    if not a.finals:
        return EMPTY
    start, end = a.n_states, a.n_states + 1
    edges: dict[tuple[int, int], Regex] = {}

    def add(p, q, r):
        if isinstance(r, REmpty):
            return
        edges[(p, q)] = ralt([edges[(p, q)], r]) if (p, q) in edges else r

    for p, x, q in a.transitions:
        add(p, q, RSym(x))
    for i in a.initials:
        add(start, i, EPS)
    for f in a.finals:
        add(f, end, EPS)

    for s in range(a.n_states):
        loop = edges.pop((s, s), None)
        loop_part = rstar(loop) if loop is not None else EPS
        ins = [(p, r) for (p, q), r in edges.items() if q == s]
        outs = [(q, r) for (p, q), r in edges.items() if p == s]
        for p, rin in ins:
            for q, rout in outs:
                add(p, q, rcat([rin, loop_part, rout]))
        for key in [k for k in edges if s in k]:
            edges.pop(key, None)

    return edges.get((start, end), EMPTY)


def to_dot(a: NWA, name: str = "nwa") -> str:
    """GraphViz rendering for debugging."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for s in range(a.n_states):
        shape = "doublecircle" if s in a.finals else "circle"
        lines.append(f'  q{s} [shape={shape}, label="{s}"];')
    for i in sorted(a.initials):
        lines.append(f"  hidden -> q{i};")
    grouped: dict[tuple[int, int], list[str]] = {}
    for p, x, q in sorted(a.transitions, key=lambda t: (t[0], t[2], t[1])):
        grouped.setdefault((p, q), []).append(x)
    for (p, q), labels in sorted(grouped.items()):
        label = ",".join(labels)
        lines.append(f'  q{p} -> q{q} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def union_nwa(automata: list[NWA], alphabet=None) -> NWA:
    """Disjoint union: accepts the union of the languages."""
    if not automata:
        return NWA(1, alphabet or (), {0}, set(), set())
    labels = set(alphabet) if alphabet is not None else set()
    for m in automata:
        labels |= m.alphabet
    n = 0
    initials, finals, transitions = set(), set(), set()
    for m in automata:
        initials |= {s + n for s in m.initials}
        finals |= {s + n for s in m.finals}
        transitions |= {(p + n, x, q + n) for p, x, q in m.transitions}
        n += m.n_states
    return NWA(n, labels, initials, finals, transitions)


def word_nwa(word: Word, alphabet) -> NWA:
    """The singleton language {word} as a chain automaton."""
    transitions = {(i, a, i + 1) for i, a in enumerate(word)}
    return NWA(len(word) + 1, set(alphabet) | set(word), {0}, {len(word)}, transitions)
