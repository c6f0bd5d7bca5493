import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsynth.errors import CapExceeded, InputError
from viewsynth.automata import NWA, accepts
from viewsynth.congruence import (
    class_automaton,
    class_of,
    compose,
    pairs,
    relation_of_word,
    transition_monoid,
)

from .conftest import all_words, rx


@pytest.fixture
def chain():
    return rx("b1.b2")


@pytest.fixture
def chain_monoid(chain):
    return transition_monoid(chain)


def pairs_of(rel):
    return set(pairs(rel))


def encoding(rel):
    """The relation as one integer, row ``i`` shifted by ``i * n`` bits."""
    return sum(row << (i * len(rel)) for i, row in enumerate(rel))


# --- relation_of_word --------------------------------------------------------

def test_relation_of_single_letter(chain):
    assert pairs_of(relation_of_word(chain, ("b1",))) == {(0, 1)}


def test_relation_of_epsilon_is_identity(chain):
    assert relation_of_word(chain, ()) == (0b001, 0b010, 0b100)


def test_relation_of_dead_word(chain):
    assert pairs_of(relation_of_word(chain, ("b2", "b1"))) == set()


def test_relation_rejects_foreign_symbol(chain):
    with pytest.raises(InputError):
        relation_of_word(chain, ("zz",))


# --- transition_monoid --------------------------------------------------------

def test_monoid_of_one_state_loop():
    loop = NWA(1, {"b"}, {0}, {0}, {(0, "b", 0)})
    monoid = transition_monoid(loop)
    assert len(monoid.elements) == 1
    assert monoid.elements[0] == (1,)


def test_monoid_of_chain_has_five_elements(chain_monoid):
    relations = {frozenset(pairs(e)) for e in chain_monoid.elements}
    assert relations == {
        frozenset({(0, 0), (1, 1), (2, 2)}),  # identity
        frozenset({(0, 1)}),                  # class of b1
        frozenset({(1, 2)}),                  # class of b2
        frozenset({(0, 2)}),                  # class of b1 b2
        frozenset(),                          # dead words
    }


def test_monoid_witnesses_realize_their_elements(chain, chain_monoid):
    for i, element in enumerate(chain_monoid.elements):
        witness = chain_monoid.witnesses[i]
        assert relation_of_word(chain, witness) == element


def test_monoid_witnesses_are_shortest(chain, chain_monoid):
    # oracle: breadth-first scan of all words, first hit per relation
    shortest: dict[tuple, tuple] = {}
    for w in all_words({"b1", "b2"}, 4):
        shortest.setdefault(relation_of_word(chain, w), w)
    for i, element in enumerate(chain_monoid.elements):
        assert len(chain_monoid.witnesses[i]) == len(shortest[element])


def test_monoid_cap():
    with pytest.raises(CapExceeded):
        transition_monoid(rx("b1.b2"), cap=2)


def test_monoid_cap_counts_every_element():
    a = rx("(b1.b2)*|b2.b1")
    assert len(transition_monoid(a, cap=9).elements) == 9
    with pytest.raises(CapExceeded, match="^transition monoid exceeded cap of 8 states$"):
        transition_monoid(a, cap=8)


def test_monoid_canonical_order(chain_monoid):
    encodings = [encoding(e) for e in chain_monoid.elements]
    assert encodings == sorted(encodings)


# --- class automata -----------------------------------------------------------

def test_class_of_b1_accepts_only_b1(chain, chain_monoid):
    idx = class_of(chain, ("b1",), chain_monoid)
    auto = class_automaton(chain_monoid, idx)
    for w in all_words({"b1", "b2"}, 4):
        assert accepts(auto, w) == (w == ("b1",))


def test_identity_class_accepts_epsilon(chain, chain_monoid):
    auto = class_automaton(chain_monoid, chain_monoid.identity_index)
    assert accepts(auto, ())


def test_class_automata_partition_words(chain, chain_monoid):
    # every one of the 31 words up to length 4 lands in exactly one class
    words = all_words({"b1", "b2"}, 4)
    assert len(words) == 31
    for w in words:
        hits = [
            i
            for i in range(len(chain_monoid.elements))
            if accepts(class_automaton(chain_monoid, i), w)
        ]
        assert len(hits) == 1
        assert hits[0] == class_of(chain, w, chain_monoid)


def test_class_automaton_rejects_bad_index(chain_monoid):
    with pytest.raises(InputError):
        class_automaton(chain_monoid, 99)


def test_class_union_automaton(chain, chain_monoid):
    c_b1 = class_of(chain, ("b1",), chain_monoid)
    c_b2 = class_of(chain, ("b2",), chain_monoid)
    union = class_automaton(chain_monoid, {c_b1, c_b2})
    for w in all_words({"b1", "b2"}, 3):
        assert accepts(union, w) == (w in {("b1",), ("b2",)})


# --- algebraic properties ------------------------------------------------------

def random_nwa(rng, n_states=3, labels=("b1", "b2")):
    n = rng.randint(1, n_states)
    transitions = set()
    for _ in range(rng.randint(1, 2 * n)):
        transitions.add((rng.randrange(n), rng.choice(labels), rng.randrange(n)))
    finals = {rng.randrange(n)}
    return NWA(n, set(labels), {0}, finals, transitions)


def test_monoid_laws_on_random_automata():
    rng = random.Random(11)
    for _ in range(25):
        a = random_nwa(rng)
        monoid = transition_monoid(a)
        m = len(monoid.elements)
        identity = monoid.identity_index

        def mul(i, j):
            return monoid.index_of(compose(monoid.elements[i], monoid.elements[j]))

        for i in range(m):
            # identity laws
            assert mul(identity, i) == i
            assert mul(i, identity) == i
            for j in range(m):
                # closure
                k = mul(i, j)
                assert 0 <= k < m
        # associativity on a sample of triples
        for _ in range(30):
            i, j, k = (rng.randrange(m) for _ in range(3))
            assert mul(mul(i, j), k) == mul(i, mul(j, k))


def test_two_sided_congruence_property():
    rng = random.Random(13)
    labels = ("b1", "b2")
    for _ in range(10):
        a = random_nwa(rng)
        monoid = transition_monoid(a)
        words = all_words(labels, 3)
        by_class: dict[int, list] = {}
        for w in words:
            by_class.setdefault(class_of(a, w, monoid), []).append(w)
        contexts = all_words(labels, 2)
        for group in by_class.values():
            if len(group) < 2:
                continue
            u1, u2 = group[0], group[1]
            for x in contexts:
                for y in contexts:
                    assert class_of(a, x + u1 + y, monoid) == class_of(
                        a, x + u2 + y, monoid
                    )


def test_class_partition_on_random_automata():
    rng = random.Random(17)
    for _ in range(10):
        a = random_nwa(rng)
        monoid = transition_monoid(a)
        autos = [
            class_automaton(monoid, i) for i in range(len(monoid.elements))
        ]
        for w in all_words(("b1", "b2"), 3):
            assert sum(accepts(auto, w) for auto in autos) == 1


def test_class_language_matches_relation(chain, chain_monoid):
    for i in range(len(chain_monoid.elements)):
        auto = class_automaton(chain_monoid, i)
        for w in all_words({"b1", "b2"}, 4):
            in_class = relation_of_word(chain, w) == chain_monoid.elements[i]
            assert accepts(auto, w) == in_class


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1))
def test_relation_composition_associative(c1, c2, c3):
    def decode(code):
        return tuple((code >> (3 * i)) & 0b111 for i in range(3))

    r1, r2, r3 = decode(c1), decode(c2), decode(c3)
    assert compose(compose(r1, r2), r3) == compose(r1, compose(r2, r3))
