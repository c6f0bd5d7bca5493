"""Transition monoid of a target automaton and its class automata.

Every word ``w`` over the target alphabet induces a binary relation on the
states of the target NWA (``p`` relates to ``q`` when reading ``w`` from
``p`` can reach ``q``).  Words inducing the same relation form one
congruence class.  A relation over ``n`` states is a tuple of ``n`` row
bitmasks: bit ``j`` of ``rows[i]`` is set when ``(i, j)`` is in it.  A
letter's relation is the NWA's own ``rows[letter]``, and a word's is the
composition of its letters'.  Only relations realized by some word are
enumerated: unrealized relations have empty classes and can never serve as
views, and the realized set is closed under composition by construction.
"""

from __future__ import annotations

import functools

from .errors import InputError
from .model import FrozenRecord, Word
from .automata import NWA, bits, explore, image

DEFAULT_MONOID_CAP = 100_000


def compose(r: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    """Relational composition ``r`` then ``s`` (boolean matrix product)."""
    return tuple(image(s, row) for row in r)


def pairs(r: tuple[int, ...]) -> list[tuple[int, int]]:
    """The ``(i, j)`` pairs of a relation, in sorted order."""
    return [(i, j) for i, row in enumerate(r) for j in bits(row)]


def relation_of_word(a: NWA, word: Word) -> tuple[int, ...]:
    """The relation ``{(p, q) : q reachable from p by reading word}``: the
    composition of the rows ``a`` files for the word's letters."""
    for label in word:
        if label not in a.alphabet:
            raise InputError(f"symbol {label!r} outside the automaton's alphabet")
    return functools.reduce(
        compose, (a.rows[x] for x in word), tuple(1 << i for i in range(a.n_states))
    )


class TransitionMonoid(
    FrozenRecord, compared=("alphabet", "elements", "witnesses", "identity_index")
):
    """The word-realized relations of an NWA, closed under composition.

    ``elements`` is in canonical order: by the integer that shifts row
    ``i`` by ``i * n`` bits, so by the reversed row tuples.  Each element
    carries one shortest witness word realizing it.  The generator alphabet
    may be a subset of the automaton's alphabet: labels of the automaton
    that are not declared target symbols, as in an instance built through
    the library rather than parsed, never occur in a view language and
    generate nothing.  Equality ignores the two lookup tables, which follow
    from the rest.
    """

    __slots__ = ("alphabet", "elements", "witnesses", "identity_index", "_index_of", "_right_mul")

    def __init__(
        self, alphabet: tuple[str, ...], elements: tuple[tuple[int, ...], ...],
        witnesses: tuple[Word, ...], identity_index: int,
        _index_of: dict[tuple[int, ...], int], _right_mul: dict[tuple[int, str], int],
    ):
        self._fill(alphabet, elements, witnesses, identity_index, _index_of, _right_mul)

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
    """Close ``{identity}`` under right-composition with the generator
    relations, by :func:`~viewsynth.automata.explore` over relations.

    Each element's witness is the word the walk first meets it by: shortest
    first, ties broken by the sorted generator order, so results are
    deterministic.  The walk's moves are the right-multiplication table.
    """
    alphabet = tuple(sorted(a.alphabet if generators is None else generators))
    for g in alphabet:
        if g not in a.alphabet:
            raise InputError(f"generator {g!r} outside the automaton's alphabet")
    identity = tuple(1 << i for i in range(a.n_states))
    found, moves = explore(
        [identity], lambda rel, g: (compose(rel, a.rows[g]),), alphabet, cap, "transition monoid"
    )
    # a relation's first incoming move is the one the walk met it by
    words = {0: ()}
    for i, g, j in moves:
        words.setdefault(j, words[i] + (g,))
    order = sorted(found, key=lambda rel: rel[::-1])
    index_of = {rel: k for k, rel in enumerate(order)}
    canonical = [index_of[rel] for rel in found]
    return TransitionMonoid(
        alphabet=alphabet,
        elements=tuple(order),
        witnesses=tuple(words[found[rel]] for rel in order),
        identity_index=index_of[identity],
        _index_of=index_of,
        _right_mul={(canonical[i], g): canonical[j] for i, g, j in moves},
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
