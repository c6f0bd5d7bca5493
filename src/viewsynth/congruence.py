"""Transition monoid of a target automaton and its class automata.

Every word ``w`` over the target alphabet induces a binary relation on the
states of the target NWA (``p`` relates to ``q`` when reading ``w`` from
``p`` can reach ``q``).  Words inducing the same relation form one
congruence class.  A relation over ``n`` states is a tuple of ``n`` row
bitmasks: bit ``j`` of ``rows[i]`` is set when ``(i, j)`` is in it.  Only
relations actually realized by some word are enumerated: unrealized
relations have empty classes and can never serve as views, and the realized
set is closed under composition by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CapExceeded, InputError
from .model import Word
from .automata import NWA

DEFAULT_MONOID_CAP = 100_000


def image(rows, members: int) -> int:
    """The union of ``rows[i]`` over the bits ``i`` set in ``members``: the
    states a relation given as bitset rows reaches from the set ``members``."""
    acc = 0
    while members:
        low = members & -members
        acc |= rows[low.bit_length() - 1]
        members ^= low
    return acc


def compose(r: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    """Relational composition ``r`` then ``s`` (boolean matrix product)."""
    return tuple(image(s, row) for row in r)


def pairs(r: tuple[int, ...]) -> list[tuple[int, int]]:
    """The ``(i, j)`` pairs of a relation, in sorted order."""
    out = []
    for i, row in enumerate(r):
        while row:
            low = row & -row
            out.append((i, low.bit_length() - 1))
            row ^= low
    return out


def relation_of_word(a: NWA, word: Word) -> tuple[int, ...]:
    """The relation ``{(p, q) : q reachable from p by reading word}``."""
    for label in word:
        if label not in a.alphabet:
            raise InputError(f"symbol {label!r} outside the automaton's alphabet")
    n = a.n_states
    rows = []
    for p in range(n):
        current = {p}
        for label in word:
            current = set(a.step_set(current, label))
            if not current:
                break
        mask = 0
        for q in current:
            mask |= 1 << q
        rows.append(mask)
    return tuple(rows)


@dataclass(frozen=True)
class TransitionMonoid:
    """The word-realized relations of an NWA, closed under composition.

    ``elements`` is in canonical order: by the integer that shifts row
    ``i`` by ``i * n`` bits, so by the reversed row tuples.  Each element
    carries one shortest witness word realizing it.  The generator alphabet
    may be a subset of the automaton's alphabet: labels of the automaton
    that are not declared target symbols, as in an instance built through
    the library rather than parsed, never occur in a view language and
    generate nothing.
    """

    alphabet: tuple[str, ...]
    elements: tuple[tuple[int, ...], ...]
    witnesses: tuple[Word, ...]
    identity_index: int
    _index_of: dict[tuple[int, ...], int] = field(compare=False)
    _right_mul: dict[tuple[int, str], int] = field(compare=False)

    def index_of(self, relation: tuple[int, ...]) -> int:
        idx = self._index_of.get(relation)
        if idx is None:
            raise InputError("relation is not realized by any word")
        return idx

    def right_multiply(self, index: int, symbol: str) -> int:
        try:
            return self._right_mul[(index, symbol)]
        except KeyError:
            raise InputError(f"symbol {symbol!r} is not a monoid generator") from None

    def to_json(self):
        return {
            "size": len(self.elements),
            "alphabet": list(self.alphabet),
            "identity": self.identity_index,
            "elements": [
                {
                    "index": i,
                    "pairs": pairs(e),
                    "witness": list(self.witnesses[i]),
                }
                for i, e in enumerate(self.elements)
            ],
        }


def transition_monoid(
    a: NWA,
    generators=None,
    cap: int = DEFAULT_MONOID_CAP,
) -> TransitionMonoid:
    """Close ``{identity}`` under right-composition with the generator relations.

    Witnesses are assigned in BFS order (shortest first, ties broken by the
    sorted generator order), so results are deterministic.
    """
    alphabet = tuple(sorted(a.alphabet if generators is None else generators))
    for g in alphabet:
        if g not in a.alphabet:
            raise InputError(f"generator {g!r} outside the automaton's alphabet")
    n = a.n_states
    gen_rel = {}
    for g in alphabet:
        rows = [0] * n
        for p, x, q in a.transitions:
            if x == g:
                rows[p] |= 1 << q
        gen_rel[g] = tuple(rows)

    identity = tuple(1 << i for i in range(n))
    discovered: dict[tuple[int, ...], Word] = {identity: ()}
    products: dict[tuple[tuple[int, ...], str], tuple[int, ...]] = {}
    queue: deque[tuple[int, ...]] = deque([identity])
    while queue:
        rel = queue.popleft()
        word = discovered[rel]
        for g in alphabet:
            nxt = products[(rel, g)] = compose(rel, gen_rel[g])
            if nxt not in discovered:
                if len(discovered) >= cap:
                    raise CapExceeded("transition monoid", cap)
                discovered[nxt] = word + (g,)
                queue.append(nxt)

    elements = tuple(sorted(discovered, key=lambda rel: rel[::-1]))
    index_of = {rel: i for i, rel in enumerate(elements)}
    right_mul = {(index_of[rel], g): index_of[prod] for (rel, g), prod in products.items()}
    return TransitionMonoid(
        alphabet=alphabet,
        elements=elements,
        witnesses=tuple(discovered[rel] for rel in elements),
        identity_index=index_of[identity],
        _index_of=index_of,
        _right_mul=right_mul,
    )


def class_automaton(monoid: TransitionMonoid, element) -> NWA:
    """The deterministic NWA accepting exactly the congruence class of one
    monoid element.

    ``element`` may also be a set of element indices, in which case the
    result accepts the union of the classes (the automaton is the same, only
    the final-state set changes).
    """
    finals = {element} if isinstance(element, int) else set(element)
    return NWA(
        len(monoid.elements),
        monoid.alphabet,
        {monoid.identity_index},
        finals,
        {
            (i, g, monoid.right_multiply(i, g))
            for i in range(len(monoid.elements))
            for g in monoid.alphabet
        },
    )


def class_of(a: NWA, word: Word, monoid: TransitionMonoid) -> int:
    """Index of the monoid element whose class contains ``word``."""
    return monoid.index_of(relation_of_word(a, word))
