import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsynth.errors import CapExceeded, InputError
from viewsynth.model import EMPTY, RSym, ralt, rcat, rstar
from viewsynth.automata import (
    NWA,
    accepts,
    compile_regex,
    complement,
    contains,
    determinize,
    difference_witness,
    eliminate_epsilon,
    explore,
    is_empty,
    nwa_to_regex,
    product,
    substitute,
    to_dot,
    trim,
    word_nwa,
)
from viewsynth.oracle import enumerate_language
from viewsynth.parser import parse_regex

from .conftest import all_words, bounded_language, rx


# --- strategies -----------------------------------------------------------

def regexes(labels=("b1", "b2"), depth=3):
    leaf = st.sampled_from([RSym(l) for l in labels] + [EMPTY])
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(rcat),
            st.lists(inner, min_size=2, max_size=3).map(ralt),
            inner.map(rstar),
        ),
        max_leaves=6,
    )


# --- compile --------------------------------------------------------------

def test_compile_chain():
    a = rx("b1.b2")
    assert a.n_states == 3
    assert bounded_language(a, {"b1", "b2"}, 3) == {("b1", "b2")}


def test_compile_union_of_pairs():
    a = rx("(a1|a3).(a2|a3)")
    expected = {("a1", "a2"), ("a1", "a3"), ("a3", "a2"), ("a3", "a3")}
    assert bounded_language(a, {"a1", "a2", "a3"}, 3) == expected


def test_compile_empty_language():
    empty, witness = is_empty(compile_regex(EMPTY))
    assert empty and witness is None


# --- product / complement / determinize ------------------------------------

def test_product_self_witness():
    a = rx("b1.b2")
    empty, witness = is_empty(product(a, a))
    assert not empty
    assert witness == ("b1", "b2")


def test_complement_examples():
    c = complement(determinize(rx("b1.b2"), alphabet={"b1", "b2"}))
    assert accepts(c, ())
    assert accepts(c, ("b1",))
    assert accepts(c, ("b1", "b2", "b1"))
    assert not accepts(c, ("b1", "b2"))


def test_determinize_two_initial_states():
    # NWA with two initial states: one accepts b1, the other b1.b1
    a = NWA(
        n_states=5,
        alphabet={"b1"},
        initials={0, 2},
        finals={1, 4},
        transitions={(0, "b1", 1), (2, "b1", 3), (3, "b1", 4)},
    )
    d = determinize(a)
    assert d.initials == {0}
    for w in all_words({"b1"}, 4):
        assert accepts(d, w) == (w in {("b1",), ("b1", "b1")})


def test_determinize_cap():
    # the subset construction of this NWA has 17 states, the sink included
    a = rx("(b1|b2)*.b1.(b1|b2).(b1|b2).(b1|b2)")
    assert determinize(a, cap=17).n_states == 17
    for cap in (4, 16):
        with pytest.raises(CapExceeded, match=f"^determinization exceeded cap of {cap} states$"):
            determinize(a, cap=cap)


def test_explore_numbers_states_breadth_first():
    graph = {("s", "y"): ["t", "v"], ("s", "x"): ["u"], ("t", "x"): ["u"], ("u", "y"): ["u"]}

    def successors(state, label):
        return graph.get((state, label), [])

    # duplicate starts are numbered once; labels go in the given order, not sorted
    index, moves = explore(["s", "t", "s"], successors, ("y", "x"))
    assert list(index.items()) == [("s", 0), ("t", 1), ("v", 2), ("u", 3)]
    assert moves == [(0, "y", 1), (0, "y", 2), (0, "x", 3), (1, "x", 3), (3, "y", 3)]
    assert explore(["s"], successors, ("y", "x"), cap=4)[0] == index
    with pytest.raises(CapExceeded, match="^walk exceeded cap of 3 states$"):
        explore(["s"], successors, ("y", "x"), cap=3, what="walk")


def assert_trim(a):
    t = trim(a)
    assert (t.n_states, t.initials, t.finals, t.transitions, t.alphabet) == (
        a.n_states, a.initials, a.finals, a.transitions, a.alphabet
    )


@settings(max_examples=80, deadline=None)
@given(regexes())
def test_compiled_regexes_are_trim(r):
    # rcat, ralt and rstar, and so the parser, leave the empty set only at the top
    assert_trim(compile_regex(r))
    assert_trim(compile_regex(parse_regex(r.render())))


@pytest.mark.parametrize("text", ["a.empty", "(a|empty)*", "a.(b|empty).c"])
def test_compiled_regexes_with_empty_are_trim(text):
    assert_trim(rx(text))


def test_complement_requires_complete():
    partial = NWA(1, {"b1"}, {0}, set(), set())
    with pytest.raises(InputError):
        complement(partial)


@pytest.mark.parametrize(
    "initials, transitions",
    [
        ({0, 1}, {(0, "b1", 0), (1, "b1", 1)}),
        ({0}, {(0, "b1", 0), (0, "b1", 1), (1, "b1", 1)}),
    ],
    ids=["two-initials", "two-successors"],
)
def test_complement_requires_deterministic(initials, transitions):
    with pytest.raises(InputError):
        complement(NWA(2, {"b1"}, initials, {1}, transitions))


def test_nwa_rejects_epsilon_label():
    with pytest.raises(InputError, match="outside the alphabet"):
        NWA(2, {"b1"}, {0}, {1}, {(0, None, 1)})


def random_nwa(rng, labels=("b1", "b2", "b3")):
    """1-6 states, one or two initial states, states from ``live`` on entered
    by no move, dead states, and the label ``b3`` on no move."""
    n = rng.randint(1, 6)
    live = rng.randint(1, n)
    transitions = {
        (rng.randrange(n), rng.choice(labels[:2]), rng.randrange(live))
        for _ in range(rng.randint(0, 3 * n))
    }
    initials = {rng.randrange(n) for _ in range(rng.randint(1, 2))}
    finals = {rng.randrange(n) for _ in range(rng.randint(0, 2))}
    return NWA(n, labels, initials, finals, transitions)


def test_rows_hold_exactly_the_transitions():
    # many tests referee with accepts, which steps on the rows the kernels
    # read: this pins the rows to the transitions and accepts to the oracle,
    # which reads only the transitions
    rng = random.Random(59)
    words = all_words(("b1", "b2", "b3"), 4)
    for _ in range(80):
        a = random_nwa(rng)
        rebuilt = {
            (p, x, q)
            for x, rows in a.rows.items()
            for p, row in enumerate(rows)
            for q in range(a.n_states)
            if row >> q & 1
        }
        assert rebuilt == a.transitions
        assert set(a.rows) == a.alphabet
        assert all(len(rows) == a.n_states for rows in a.rows.values())
        assert [w for w in words if accepts(a, w)] == enumerate_language(a, 4)


def test_complement_is_the_automaton_with_its_finals_flipped():
    rng = random.Random(61)
    for _ in range(60):
        d = determinize(random_nwa(rng))
        finals = d.finals
        flipped = set(range(d.n_states)) - d.finals
        built = NWA(d.n_states, d.alphabet, d.initials, flipped, d.transitions)
        c = complement(d)
        assert [getattr(c, f) for f in NWA.__slots__] == [getattr(built, f) for f in NWA.__slots__]
        assert d.finals == finals


# --- containment ------------------------------------------------------------

def test_contains_examples():
    assert contains(rx("b1.b2"), rx("b1.b2|b1"))
    assert not contains(rx("b1*"), rx("b1.b1"))
    assert difference_witness(rx("b1*"), rx("b1.b1")) == ()


def test_contains_sec6_solution():
    q_s = rx("(a1|a3).(a2|a3)")
    views = {"a1": rx("b1"), "a2": rx("b2"), "a3": None}
    substituted = substitute(q_s, views, {"a1", "a2", "a3"}, {"b1", "b2"})
    assert contains(substituted, rx("b1.b2"))


# --- substitution -----------------------------------------------------------

def test_substitute_sec6_views():
    q_s = rx("(a1|a3).(a2|a3)")
    views = {"a1": rx("b1"), "a2": rx("b2"), "a3": None}
    result = substitute(q_s, views, {"a1", "a2", "a3"}, {"b1", "b2"})
    assert bounded_language(result, {"b1", "b2"}, 4) == {("b1", "b2")}


def test_substitute_empty_view_kills_language():
    q_s = rx("b1.a", alphabet={"a", "b1"})
    result = substitute(q_s, {"a": None}, {"a"}, {"b1"})
    empty, _ = is_empty(result)
    assert empty


def test_substitute_missing_view_rejected():
    with pytest.raises(InputError, match="a2"):
        substitute(rx("a1.a2"), {"a1": rx("b1")}, {"a1", "a2"}, {"b1"})


def test_substitute_matches_textual_substitution():
    # singleton-word views: automaton substitution == word-by-word rewriting
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        trans = set()
        for _ in range(rng.randint(1, 5)):
            trans.add(
                (
                    rng.randrange(n),
                    rng.choice(["a", "b1", "b2"]),
                    rng.randrange(n),
                )
            )
        a = NWA(n, {"a", "b1", "b2"}, {0}, {rng.randrange(n)}, trans)
        # nonempty view words keep images at least as long as their sources,
        # so source words up to length 3 cover every image up to length 3
        word = tuple(rng.choice(["b1", "b2"]) for _ in range(rng.randint(1, 2)))
        view_nwa = {"a": word_nwa(word, {"b1", "b2"})}
        via_automata = substitute(a, view_nwa, {"a"}, {"b1", "b2"})
        texted = {
            tuple(x for letter in w for x in (word if letter == "a" else (letter,)))
            for w in bounded_language(a, {"a", "b1", "b2"}, 3)
        }
        got = bounded_language(via_automata, {"b1", "b2"}, 3)
        want = {w for w in texted if len(w) <= 3}
        assert got == want
    # a view accepting the empty word, spliced into source loops, closes
    # cycles of epsilon edges through the loop states
    a = rx("(a.b2)*.a*", alphabet={"a", "b2"})
    via_automata = substitute(a, {"a": rx("b1*")}, {"a"}, {"b1", "b2"})
    want = rx("(b1*.b2)*.b1*")
    assert bounded_language(via_automata, {"b1", "b2"}, 5) == bounded_language(
        want, {"b1", "b2"}, 5
    )


@settings(max_examples=60, deadline=None)
@given(regexes(), regexes())
def test_product_complement_pointwise(r1, r2):
    alphabet = {"b1", "b2"}
    a, b = compile_regex(r1), compile_regex(r2)
    prod = product(a, b, alphabet=alphabet)
    comp = complement(determinize(a, alphabet=alphabet))
    for w in all_words(alphabet, 3):
        assert accepts(prod, w) == (accepts(a, w) and accepts(b, w))
        assert accepts(comp, w) == (not accepts(a, w))


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_emptiness_matches_bounded_search(r):
    alphabet = {"b1", "b2"}
    a = compile_regex(r)
    d = determinize(a, alphabet=alphabet)
    empty, witness = is_empty(a)
    short_words = [w for w in all_words(alphabet, d.n_states) if accepts(a, w)]
    assert empty == (not short_words)
    if not empty:
        # witness is a shortest accepted word, in BFS order
        assert witness == min(short_words, key=lambda w: (len(w), w))


def test_emptiness_witness_is_least_among_equal_prefixes():
    # both branches read b2 b1 first; the second one ends with the smaller b1
    assert is_empty(rx("b2.b1.b2|b2.b1.b1")) == (False, ("b2", "b1", "b1"))



def test_substitute_monotone():
    q_s = rx("a1.a2")
    small = {"a1": rx("b1"), "a2": rx("b2")}
    large = {"a1": rx("b1|b2"), "a2": rx("b2|b1.b1")}
    sub_small = substitute(q_s, small, {"a1", "a2"}, {"b1", "b2"})
    sub_large = substitute(q_s, large, {"a1", "a2"}, {"b1", "b2"})
    for w in all_words({"b1", "b2"}, 4):
        if accepts(sub_small, w):
            assert accepts(sub_large, w)


# --- regex extraction and export --------------------------------------------

@settings(max_examples=50, deadline=None)
@given(regexes())
def test_state_elimination_round_trip(r):
    alphabet = {"b1", "b2"}
    a = compile_regex(r)
    back = compile_regex(nwa_to_regex(a))
    for w in all_words(alphabet, 3):
        assert accepts(a, w) == accepts(back, w)


def test_unreachable_final_state_renders_empty():
    # state 2 is final but nothing reaches it; state 1 is reachable but not final
    a = NWA(3, {"b1"}, {0}, {2}, {(0, "b1", 1), (2, "b1", 2)})
    assert nwa_to_regex(a).render() == "empty"


def test_nwa_to_regex_is_independent_of_the_hash_seed():
    # the parallel edges join in one order, whatever order the set of
    # transitions iterates in under the seed
    moves = {(0, "b1", 1), (0, "b2", 1), (0, "b3", 1), (1, "b1", 2), (1, "b2", 2), (0, "b3", 2)}
    args = (3, {"b1", "b2", "b3"}, {0}, {2}, moves)
    probe = f"from viewsynth.automata import NWA, nwa_to_regex\nprint(nwa_to_regex(NWA(*{args!r})).render())"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    outputs = {
        subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                       env=dict(env, PYTHONHASHSEED=str(seed))).stdout
        for seed in range(8)
    }
    assert outputs == {nwa_to_regex(NWA(*args)).render() + "\n"}


def test_epsilon_elimination():
    clean = eliminate_epsilon(
        3,
        {"b1"},
        {0},
        {2},
        {(0, None, 1), (1, "b1", 2), (2, None, 0)},
    )
    assert bounded_language(clean, {"b1"}, 3) == {("b1",), ("b1", "b1"), ("b1", "b1", "b1")}


def test_dot_export_mentions_states():
    dot = to_dot(rx("b1.b2"))
    assert "digraph" in dot and "doublecircle" in dot


def test_dot_export_draws_an_arrow_per_initial_state():
    dot = to_dot(NWA(2, {"b1"}, {0, 1}, {1}, {(0, "b1", 1)}))
    assert [line for line in dot.splitlines() if "hidden ->" in line] == [
        "  hidden -> q0;",
        "  hidden -> q1;",
    ]
    assert "q2" not in dot


def test_language_enumeration_shortest_first():
    words = enumerate_language(rx("b1*"), 3)
    assert words == [(), ("b1",), ("b1", "b1"), ("b1", "b1", "b1")]
