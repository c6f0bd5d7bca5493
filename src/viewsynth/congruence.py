"""Transition monoid of a target automaton and its class automata.

Every word ``w`` over the target alphabet induces a binary relation on the
states of the target NWA (``p`` relates to ``q`` when reading ``w`` from
``p`` can reach ``q``).  Words inducing the same relation form one
congruence class.  Only relations actually realized by some word are
enumerated: unrealized relations have empty classes and can never serve as
views, and the realized set is closed under composition by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import CapExceeded, InputError
from .model import Word
from .automata import DWA, NWA

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


@dataclass(frozen=True)
class StateRelation:
    """A binary relation over ``n`` automaton states, stored as bitset rows.

    ``rows[i]`` has bit ``j`` set when ``(i, j)`` is in the relation.  The
    single-integer ``encoding`` (row ``i`` shifted by ``i*n``) provides the
    canonical order used everywhere.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise InputError("relation row count does not match dimension")

    @property
    def encoding(self) -> int:
        code = 0
        for i, row in enumerate(self.rows):
            code |= row << (i * self.n)
        return code

    @staticmethod
    def identity(n: int) -> "StateRelation":
        return StateRelation(n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_pairs(n: int, pairs) -> "StateRelation":
        rows = [0] * n
        for i, j in pairs:
            rows[i] |= 1 << j
        return StateRelation(n, tuple(rows))

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                out.append((i, low.bit_length() - 1))
                row ^= low
        return out

    def compose(self, other: "StateRelation") -> "StateRelation":
        """Relational composition (boolean matrix product)."""
        if self.n != other.n:
            raise InputError("relation dimensions differ")
        return StateRelation(self.n, tuple(image(other.rows, row) for row in self.rows))


def relation_of_word(a: NWA, word: Word) -> StateRelation:
    """The relation ``{(p, q) : q reachable from p by reading word}``."""
    if a.has_epsilon:
        raise InputError("relation_of_word needs an epsilon-free automaton")
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
    return StateRelation(n, tuple(rows))


@dataclass(frozen=True)
class TransitionMonoid:
    """The word-realized relations of an NWA, closed under composition.

    ``elements`` is canonically ordered by relation encoding; each element
    carries one shortest witness word realizing it.  The generator alphabet
    may be a subset of the automaton's alphabet (used after the
    multi-mapping reduction, where the separator symbol never occurs in a
    view language).
    """

    n: int
    alphabet: tuple[str, ...]
    elements: tuple[StateRelation, ...]
    witnesses: tuple[Word, ...]
    identity_index: int
    _index_of: dict[int, int] = field(compare=False)
    _right_mul: dict[tuple[int, str], int] = field(compare=False)

    def index_of(self, relation: StateRelation) -> int:
        idx = self._index_of.get(relation.encoding)
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
                    "pairs": sorted(e.pairs()),
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
    if a.has_epsilon:
        raise InputError("transition_monoid needs an epsilon-free automaton")
    alphabet = tuple(sorted(a.alphabet if generators is None else generators))
    for g in alphabet:
        if g not in a.alphabet:
            raise InputError(f"generator {g!r} outside the automaton's alphabet")
    n = a.n_states
    gen_rel = {
        g: StateRelation.from_pairs(
            n, ((p, q) for p, x, q in a.transitions if x == g)
        )
        for g in alphabet
    }

    identity = StateRelation.identity(n)
    discovered: dict[int, tuple[StateRelation, Word]] = {
        identity.encoding: (identity, ())
    }
    products: dict[tuple[int, str], int] = {}  # (code, generator) -> code of the product
    queue: deque[int] = deque([identity.encoding])
    while queue:
        code = queue.popleft()
        rel, word = discovered[code]
        for g in alphabet:
            nxt = rel.compose(gen_rel[g])
            nxt_code = products[(code, g)] = nxt.encoding
            if nxt_code not in discovered:
                if len(discovered) >= cap:
                    raise CapExceeded("transition monoid", cap)
                discovered[nxt_code] = (nxt, word + (g,))
                queue.append(nxt_code)

    ordered = sorted(discovered)
    elements = tuple(discovered[c][0] for c in ordered)
    witnesses = tuple(discovered[c][1] for c in ordered)
    index_of = {c: i for i, c in enumerate(ordered)}
    right_mul = {(index_of[c], g): index_of[prod] for (c, g), prod in products.items()}
    return TransitionMonoid(
        n=n,
        alphabet=alphabet,
        elements=elements,
        witnesses=witnesses,
        identity_index=index_of[identity.encoding],
        _index_of=index_of,
        _right_mul=right_mul,
    )


def class_automaton(monoid: TransitionMonoid, element) -> DWA:
    """The DWA accepting exactly the congruence class of one monoid element.

    ``element`` may also be a set of element indices, in which case the
    result accepts the union of the classes (the automaton is the same, only
    the final-state set changes).
    """
    finals = {element} if isinstance(element, int) else set(element)
    for f in finals:
        if not 0 <= f < len(monoid.elements):
            raise InputError(f"element index {f} outside the monoid")
    delta = {
        (i, g): monoid.right_multiply(i, g)
        for i in range(len(monoid.elements))
        for g in monoid.alphabet
    }
    return DWA(
        n_states=len(monoid.elements),
        alphabet=frozenset(monoid.alphabet),
        initial=monoid.identity_index,
        delta=delta,
        finals=frozenset(finals),
    )


def class_of(a: NWA, word: Word, monoid: TransitionMonoid) -> int:
    """Index of the monoid element whose class contains ``word``."""
    return monoid.index_of(relation_of_word(a, word))
