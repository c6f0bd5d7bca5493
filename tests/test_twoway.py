import hashlib
import random
from collections import Counter, deque

import pytest

from viewsynth.errors import CapExceeded
from viewsynth.model import inverse
from viewsynth.parser import parse_instance, parse_regex
from viewsynth.automata import NWA, accepts, compile_regex, contains, difference_witness, substitute
from viewsynth.rpq_synth import capture_check
from viewsynth.oracle import GraphDatabase, enumerate_language, eval_2rpq
from viewsynth.twoway import (
    LEFT_END,
    RIGHT_END,
    TwoNWA,
    contains_2rpq,
    fold_automaton,
    fold_difference,
    folds_onto,
    two_to_one,
)

from .conftest import all_words


def rx2(text):
    return compile_regex(parse_regex(text, None, two_way=True))


LEFT = "left"
RIGHT = "right"


class HandBuilt(TwoNWA):
    """A two-way machine given by its transitions ``(p, s, d, q)``: move
    from state ``p`` on tape symbol ``s`` one cell in direction ``d``
    (``LEFT`` or ``RIGHT``) into state ``q``.  It files them in the move
    tables ``two_to_one`` reads and keeps the set for :func:`accepts_two`."""

    __slots__ = ("transitions",)

    def __init__(self, n_states, alphabet, initial, finals, transitions):
        self.transitions = frozenset(transitions)
        left, right = {}, {}
        for p, s, d, q in self.transitions:
            if d == LEFT:
                left.setdefault(s, []).append((p, q))
            else:
                right.setdefault(s, [0] * n_states)[p] |= 1 << q
        super().__init__(
            n_states, frozenset(alphabet), initial, frozenset(finals),
            {s: tuple(pairs) for s, pairs in left.items()},
            {s: tuple(rows) for s, rows in right.items()},
        )


def accepts_two(t: HandBuilt, word) -> bool:
    """Direct configuration-graph search over ``t.transitions``; it shares
    no move table with ``two_to_one``."""
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


def fold_referee(a: NWA) -> HandBuilt:
    """The fold machine of ``a`` built move by move as a transition set: the
    referee for the tables ``fold_automaton`` fills directly, and the
    machine the tests run ``accepts_two`` on.  States: 0 = start,
    (p, R) = 1 + 2p, (p, L) = 2 + 2p."""
    tape = sorted(a.alphabet | {inverse(s) for s in a.alphabet})

    def right_state(p):
        return 1 + 2 * p

    def left_state(p):
        return 2 + 2 * p

    transitions = set()
    for p in range(a.n_states):
        if p in a.initials:
            transitions.add((0, LEFT_END, RIGHT, right_state(p)))
        for s in tape + [RIGHT_END]:
            transitions.add((right_state(p), s, LEFT, left_state(p)))
        for s in tape + [LEFT_END]:
            transitions.add((left_state(p), s, RIGHT, right_state(p)))
    for p, x, q in a.transitions:
        transitions.add((right_state(p), x, RIGHT, right_state(q)))
        transitions.add((left_state(p), inverse(x), LEFT, left_state(q)))
    finals = {right_state(f) for f in a.finals}
    return HandBuilt(1 + 2 * a.n_states, tape, 0, finals, transitions)


def brute_fold_accepts(a: NWA, u, max_v_len):
    """Brute-force fold membership: some accepted v folds onto u."""
    for v in enumerate_language(a, max_v_len, cap=100_000):
        if folds_onto(v, u) is not None:
            return True
    return False


# --- folds_onto ----------------------------------------------------------------

def test_fold_paper_example():
    cert = folds_onto(("a", "b", "b^-", "b", "c"), ("a", "b", "c"))
    assert cert == [0, 1, 2, 1, 2, 3]


def test_fold_identity():
    for word in [(), ("a",), ("a", "b"), ("a", "b^-", "c")]:
        assert folds_onto(word, word) == list(range(len(word) + 1))


def test_fold_mismatch():
    assert folds_onto(("a",), ("b",)) is None


def test_inverse_is_an_involution():
    for label in ("a", "a^-", "some_label"):
        assert inverse(inverse(label)) == label


def test_fold_certificate_is_valid():
    v = ("a", "a^-", "a", "b")
    u = ("a", "b")
    cert = folds_onto(v, u)
    assert cert is not None
    assert cert[0] == 0 and cert[-1] == len(u)
    for j, (i, i2) in enumerate(zip(cert, cert[1:])):
        if i2 == i + 1:
            assert v[j] == u[i]
        else:
            assert i2 == i - 1 and v[j] == inverse(u[i2])


# --- fold_automaton / two_to_one --------------------------------------------------

def test_fold_automaton_paper_example():
    one = two_to_one(fold_automaton(rx2("a b b^- b c")))
    assert accepts(one, ("a", "b", "c"))
    assert accepts(one, ("a", "b", "b^-", "b", "c"))
    assert not accepts(one, ("a", "c"))
    assert not accepts(one, ("a", "b"))


def test_forward_language_included_in_fold():
    for text in ["a.b", "a|b.a", "(a|b)*"]:
        a = rx2(text)
        one = two_to_one(fold_automaton(a))
        for w in all_words({"a", "b"}, 3):
            if accepts(a, w):
                assert accepts(one, w)


def test_two_to_one_matches_direct_two_way_run():
    a = rx2("a b^- a")
    one = two_to_one(fold_automaton(a))
    referee = fold_referee(a)
    for w in all_words({"a", "a^-", "b", "b^-"}, 3):
        assert accepts(one, w) == accepts_two(referee, w)


# A snapshot of two_to_one(fold_automaton(rx2("a b b^- b c"))): per state,
# the successor on each symbol of _PINNED_SYMBOLS, so that any renumbering
# of the unguided construction shows.
_PINNED_SYMBOLS = ("a", "a^-", "b", "b^-", "c", "c^-")
_PINNED_ROWS = [
    (1, 2, 3, 4, 2, 2), (2, 2, 5, 4, 2, 2), (2, 2, 3, 4, 2, 2), (2, 2, 3, 4, 2, 2),
    (2, 2, 3, 4, 2, 2), (2, 2, 3, 6, 7, 2), (2, 2, 8, 4, 2, 2), (2, 2, 3, 4, 2, 2),
    (2, 2, 3, 4, 7, 2),
]


def test_two_to_one_numbering_is_pinned():
    one = two_to_one(fold_automaton(rx2("a b b^- b c")))
    transitions = sorted(
        (p, symbol, q)
        for p, row in enumerate(_PINNED_ROWS)
        for symbol, q in zip(_PINNED_SYMBOLS, row)
    )
    assert (one.n_states, sorted(one.finals), sorted(one.transitions)) == (
        9, [7], transitions
    )
    assert one.initials == {0}


def test_two_to_one_follows_repeated_turns_on_one_cell():
    # on "x y" the head goes back from y to x and returns three times, in
    # states numbered upwards (2 -> 3 -> 4 -> 5), before it may leave y
    transitions = {(0, LEFT_END, RIGHT, 1), (1, "x", RIGHT, 2), (5, "y", RIGHT, 9)}
    for j in range(3):
        transitions |= {(2 + j, "y", LEFT, 6 + j), (6 + j, "x", RIGHT, 3 + j)}
    t = HandBuilt(10, {"x", "y"}, 0, {9}, transitions)
    for within in (None, compile_regex(parse_regex("x y", None))):
        one = two_to_one(t, within=within)
        assert accepts(one, ("x", "y")) and accepts_two(t, ("x", "y"))
        assert not accepts(one, ("x", "x")) and not accepts(one, ("y",))


LABELS_2 = ("a", "b", "c", "a^-", "b^-", "c^-")


def _random_query_tree(rng, leaves, labels=LABELS_2):
    """A random regex tree over ``labels`` with ``leaves`` symbol leaves."""
    parts = [rng.choice(labels) for _ in range(leaves)]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        node = (rng.choice(".|"), parts[i], parts[i + 1])
        if rng.random() < 0.15:
            node = ("*", node)
        parts[i : i + 2] = [node]
    return parts[0]


def _render(node, rng=None):
    """The tree as regex text; with ``rng``, some leaves are widened to a
    query that contains them: x|y, x* or the detour x.x^-.x."""
    if isinstance(node, str):
        roll = rng.random() if rng is not None else 1.0
        if roll < 0.15:
            return f"({node}|{rng.choice(LABELS_2)})"
        if roll < 0.25:
            return f"({node})*"
        if roll < 0.4:
            return f"({node}.{inverse(node)}.{node})"
        return node
    if node[0] == "*":
        return f"({_render(node[1], rng)})*"
    return f"({_render(node[1], rng)}{node[0]}{_render(node[2], rng)})"


def _random_2rpq_pairs(rng, count):
    """(q1, q2) pairs of random two-way path queries; every other q2 widens
    its q1, so that containment holds."""
    for i in range(count):
        tree = _random_query_tree(rng, rng.randint(2, 6))
        if i % 2 == 0:
            yield rx2(_render(tree)), rx2(_render(tree, rng))
        else:
            yield rx2(_render(tree)), rx2(_render(_random_query_tree(rng, rng.randint(1, 5))))


def test_guided_containment_agrees_with_the_full_construction():
    rng = random.Random(41)
    verdicts = []
    for q1, q2 in _random_2rpq_pairs(rng, 120):
        full = contains(q1, two_to_one(fold_automaton(q2)))
        assert contains_2rpq(q1, q2) == full, (q1, q2)
        verdicts.append(full)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def _witness_pairs(rng, count):
    """(q1, q2) texts of four kinds in turn: q2 widens q1, by x|y, x* and
    x.x^-.x detours, so containment holds; q2 is unrelated; q1 reads c or
    c^-, outside q2's tape, so a walk of q1 against the fold meets the
    rejecting sink; one side is eps or empty."""
    for i in range(count):
        tree = _random_query_tree(rng, rng.randint(1, 16))
        kind = i % 4
        if kind == 0:
            yield _render(tree), _render(tree, rng)
        elif kind == 1:
            yield _render(tree), _render(_random_query_tree(rng, rng.randint(1, 16)))
        elif kind == 2:
            q2 = _render(_random_query_tree(rng, rng.randint(1, 16), ("a", "b", "a^-", "b^-")))
            form = rng.choice(("{x}.{q}", "{q}.{x}", "{q}|{x}", "({q}|{x})*"))
            yield form.format(x=rng.choice(("c", "c^-")), q=q2), q2
        else:
            small = _render(_random_query_tree(rng, rng.randint(1, 4)))
            yield rng.choice([
                ("eps", small), (small, "eps"), ("empty", small), (small, "empty"),
                ("eps", "eps"), ("eps", "empty"), ("empty", "eps"), ("empty", "empty"),
            ])


def test_fold_difference_gives_the_full_construction_witness():
    # the shortest, least separating word is a property of L(q1) minus the
    # fold of L(q2), so the guided walk must give the very word that the
    # one-way difference against the unguided conversion gives
    rng = random.Random(61)
    tally = Counter()
    for t1, t2 in _witness_pairs(rng, 240):
        q1, q2 = rx2(t1), rx2(t2)
        full = difference_witness(q1, two_to_one(fold_automaton(q2)))
        assert fold_difference(q1, q2) == full, (t1, t2)
        tally["holds" if full is None else "fails"] += 1
        tape = q2.alphabet | {inverse(x) for x in q2.alphabet}
        tally["sink"] += full is not None and not tape.issuperset(full)
    assert tally["holds"] >= 60 and tally["fails"] >= 100 and tally["sink"] >= 40, tally


# sha256 over repr(fold_difference(x, y)) of every pair drawn below, in
# both directions, as the construction that keyed crossing states by the
# whole crossing relation computed them
_PINNED_WITNESS_DIGEST = "23106dedeaa1c32d40036e7b065e5923ad60029ba876bbde211932182f1e7b93"


def test_fold_difference_words_are_pinned():
    rng = random.Random(73)
    digest = hashlib.sha256()
    tally = Counter()
    for t1, t2 in _witness_pairs(rng, 2000):
        q1, q2 = rx2(t1), rx2(t2)
        for a, b in ((q1, q2), (q2, q1)):
            word = fold_difference(a, b)
            digest.update(repr(word).encode())
            tally["holds" if word is None else "fails"] += 1
    assert digest.hexdigest() == _PINNED_WITNESS_DIGEST, tally
    assert tally["holds"] >= 1000 and tally["fails"] >= 2000, tally


def test_two_way_check_separates_like_the_full_construction():
    # capture_check on word views: both directions of each mapping against
    # the one-way difference with the unguided conversion
    rng = random.Random(67)
    target_labels = ("b", "c", "b^-", "c^-")
    tally = Counter()
    for i in range(80):
        if i % 2:
            maps = "".join(
                f"map {_render(_random_query_tree(rng, rng.randint(1, 3), ('a1', 'a2')))} ~> "
                f"{_render(_random_query_tree(rng, rng.randint(1, 6), target_labels))}\n"
                for _ in range(rng.randint(1, 2))
            )
            words = {s: rng.choices(target_labels, k=rng.randint(0, 3)) for s in ("a1", "a2")}
        else:
            # the views split u or u with a detour, so containment holds,
            # and the reverse holds too for the detour, which folds onto u
            u = rng.choices(target_labels, k=rng.randint(1, 4))
            k = rng.randrange(len(u))
            detour = u[:k] + [u[k], inverse(u[k]), u[k]] + u[k + 1 :]
            maps = f"map a1.a2 ~> {'.'.join(u)}|{'.'.join(detour)}\n"
            word = rng.choice((u, detour))
            cut = rng.randint(0, len(word))
            words = {"a1": word[:cut], "a2": word[cut:]}
        inst = parse_instance(f"kind 2rpq\nsource a1 a2\ntarget b c\n{maps}")
        views = {s: rx2(".".join(w) or "eps") for s, w in words.items()}
        result = capture_check(inst, views, "exact")
        for m, record in zip(inst.mappings, result.per_mapping):
            a_t = compile_regex(m.target)
            sub = substitute(compile_regex(m.source), views, inst.source_names)
            assert record.separating == difference_witness(sub, two_to_one(fold_automaton(a_t)))
            assert record.reverse_separating == difference_witness(
                a_t, two_to_one(fold_automaton(sub))
            )
            tally["contained", record.contained] += 1
            tally["reverse", record.reverse_contained] += 1
    assert min(tally.values()) >= 10, tally


def test_guided_conversion_agrees_with_the_two_way_run_on_guide_words():
    rng = random.Random(43)
    outcomes = []
    for q1, q2 in _random_2rpq_pairs(rng, 40):
        one = two_to_one(fold_automaton(q2), within=q1)
        referee = fold_referee(q2)
        words = enumerate_language(q1, 5, cap=100_000)
        for w in rng.sample(words, min(len(words), 12)):
            assert accepts(one, w) == accepts_two(referee, w), (q1, q2, w)
            outcomes.append(accepts_two(referee, w))
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40


def random_nwa_to_fold(rng, labels):
    """A small random one-way NWA over two-way labels, the input of
    ``fold_automaton``."""
    n = rng.randint(1, 3)
    transitions = set()
    for _ in range(rng.randint(1, 6)):
        transitions.add((rng.randrange(n), rng.choice(labels), rng.randrange(n)))
    return NWA(n, set(labels), {0}, {rng.randrange(n)}, transitions)


def test_bounded_equivalence_against_brute_fold_search():
    rng = random.Random(19)
    labels = ("a", "a^-")
    for _ in range(8):
        a = random_nwa_to_fold(rng, labels)
        one = two_to_one(fold_automaton(a))
        for u in all_words(labels, 4):
            bound = 2 * len(u) + 2 * a.n_states
            assert accepts(one, u) == brute_fold_accepts(a, u, bound), (a, u)


def _left_targets_right_moves_enter(t):
    """The targets of ``t``'s left moves that some right move also enters."""
    targets = {q for pairs in t.left.values() for _, q in pairs}
    entered = 0
    for rows in t.right.values():
        for row in rows:
            entered |= row
    return {q for q in targets if entered >> q & 1}


def random_two_nwa(rng, labels):
    """A random genuine two-way automaton: moves on both endmarkers, left
    and right moves on letters, and loops that leave a cell and come back
    to it in the state they left it in, so that a state a right move enters
    is also the target of a left move, which a fold machine never has."""
    n = rng.randint(2, 6)
    tape = tuple(labels) + (LEFT_END, RIGHT_END)
    transitions = {(0, LEFT_END, RIGHT, rng.randrange(n))}
    for _ in range(rng.randint(n, 4 * n)):
        symbol = rng.choice(tape)
        if symbol == LEFT_END:
            direction = RIGHT
        elif symbol == RIGHT_END:
            direction = LEFT
        else:
            direction = rng.choice((LEFT, RIGHT))
        transitions.add((rng.randrange(n), symbol, direction, rng.randrange(n)))
    for _ in range(rng.randint(1, 2)):
        # on a cell holding x after one holding y (or the left endmarker),
        # p dips left and comes back in r, which dips again and comes back
        # in p
        p, q, r, s = (rng.randrange(n) for _ in range(4))
        x, y = rng.choice(labels), rng.choice(tuple(labels) + (LEFT_END,))
        transitions |= {(p, x, LEFT, q), (q, y, RIGHT, r), (r, x, LEFT, s), (s, y, RIGHT, p)}
    finals = {rng.randrange(n) for _ in range(rng.randint(1, 2))}
    return HandBuilt(n, labels, 0, finals, transitions)


def test_two_to_one_matches_genuine_two_way_runs():
    rng = random.Random(47)
    labels = ("x", "y")
    words = list(all_words(labels, 5))
    outcomes = []
    for _ in range(60):
        t = random_two_nwa(rng, labels)
        assert _left_targets_right_moves_enter(t), t
        guide = random_nwa_to_fold(rng, labels)
        for within in (None, guide):
            one = two_to_one(t, within=within)
            for w in words:
                if within is None or accepts(within, w):
                    assert accepts(one, w) == accepts_two(t, w), (t, within, w)
                    outcomes.append(accepts_two(t, w))
    assert outcomes.count(True) >= 200 and outcomes.count(False) >= 200


@pytest.mark.parametrize("make", [
    lambda: fold_referee(rx2("a b b^- b c")),
    lambda: random_two_nwa(random.Random(53), ("x", "y")),
])
def test_move_tables_hold_exactly_the_transitions(make):
    t = make()
    rebuilt = {(p, s, LEFT, q) for s, pairs in t.left.items() for p, q in pairs}
    rebuilt |= {
        (p, s, RIGHT, q)
        for s, rows in t.right.items()
        for p, row in enumerate(rows)
        for q in range(t.n_states)
        if row >> q & 1
    }
    assert rebuilt == t.transitions
    assert all(len(rows) == t.n_states for rows in t.right.values())


def _fold_inputs():
    """The pinned example, an empty-language and an eps-only query, seeded
    2RPQs with inverses, and random automata over a label and its inverse."""
    yield rx2("a b b^- b c")
    yield rx2("empty")
    yield rx2("eps")
    rng = random.Random(59)
    for _ in range(40):
        yield rx2(_render(_random_query_tree(rng, rng.randint(1, 8)), rng))
    for _ in range(20):
        yield random_nwa_to_fold(rng, ("a", "a^-"))


def test_fold_tables_match_the_transition_set_referee():
    for a in _fold_inputs():
        t, referee = fold_automaton(a), fold_referee(a)
        assert (t.n_states, t.alphabet, t.initial, t.finals) == (
            referee.n_states, referee.alphabet, referee.initial, referee.finals
        )
        assert t.right == referee.right, a
        assert {s: set(pairs) for s, pairs in t.left.items()} == {
            s: set(pairs) for s, pairs in referee.left.items()
        }, a
        assert all(len(set(pairs)) == len(pairs) for pairs in t.left.values()), a


def test_fold_left_move_targets_are_never_entered_by_right_moves():
    # (p, L) copies are the left-move targets and right moves enter only
    # (q, R) copies, so a crossing step's search on a fold machine never
    # meets another target's search
    for a in _fold_inputs():
        assert not _left_targets_right_moves_enter(fold_automaton(a)), a


def test_two_to_one_cap_edge_is_pinned():
    # the cap counts crossing states built; --det-cap exit codes rest on it
    t = fold_automaton(rx2("a b b^- b c"))
    guide = rx2("a (b|b^-)* c")
    for within, size in ((None, 9), (guide, 9)):
        assert two_to_one(t, cap=size, within=within).n_states == size
        with pytest.raises(CapExceeded):
            two_to_one(t, cap=size - 1, within=within)


# Crossing states built per pair of _random_2rpq_pairs(random.Random(61), 200):
# guided by q1, then unguided; --det-cap counts them, so a change of the
# crossing-state keys would move these counts.
_FAMILY_GUIDED = [
    6, 3, 6, 6, 6, 4, 7, 3, 7, 3, 3, 3, 3, 3, 8, 2, 2, 2, 7, 3, 4, 3, 6, 4, 3, 3, 5, 3, 3, 1,
    3, 1, 4, 2, 6, 1, 2, 3, 9, 2, 6, 3, 6, 1, 3, 3, 6, 6, 7, 2, 5, 2, 4, 4, 7, 3, 3, 1, 4, 2,
    7, 2, 6, 1, 6, 1, 3, 3, 5, 2, 7, 2, 6, 3, 6, 2, 3, 6, 5, 3, 4, 2, 3, 2, 3, 3, 5, 4, 6, 3,
    4, 1, 6, 1, 4, 1, 6, 1, 6, 1, 4, 2, 4, 3, 4, 5, 4, 3, 7, 2, 5, 1, 4, 1, 3, 3, 5, 4, 4, 2,
    5, 1, 6, 1, 7, 1, 8, 4, 3, 3, 6, 3, 7, 2, 6, 1, 3, 1, 9, 1, 6, 2, 6, 2, 7, 2, 6, 2, 5, 2,
    3, 1, 7, 2, 3, 2, 3, 6, 7, 2, 7, 2, 5, 4, 4, 2, 5, 3, 6, 1, 5, 3, 5, 5, 3, 2, 3, 3, 5, 3,
    5, 1, 5, 2, 7, 2, 3, 3, 5, 2, 8, 2, 7, 1, 7, 2, 3, 5, 3, 1,
]
_FAMILY_UNGUIDED = [
    15, 5, 10, 7, 8, 8, 18, 6, 11, 3, 7, 3, 5, 6, 17, 6, 3, 3, 12, 4, 5, 9, 9, 6, 8, 5, 6, 6,
    9, 7, 4, 5, 5, 5, 11, 3, 3, 5, 16, 5, 9, 3, 8, 4, 8, 4, 9, 6, 13, 4, 8, 6, 5, 4, 16, 5, 8,
    3, 5, 4, 12, 3, 8, 3, 11, 4, 4, 4, 6, 6, 13, 6, 8, 7, 12, 3, 4, 8, 11, 7, 6, 4, 5, 4, 5, 4,
    6, 5, 7, 5, 9, 5, 9, 4, 5, 5, 11, 5, 9, 3, 10, 6, 5, 3, 9, 7, 6, 8, 18, 5, 8, 4, 11, 3, 4,
    6, 10, 7, 14, 6, 11, 5, 8, 3, 9, 6, 13, 5, 4, 6, 15, 6, 13, 4, 11, 3, 4, 4, 18, 3, 9, 3, 7,
    5, 14, 5, 7, 5, 6, 3, 5, 6, 9, 3, 4, 3, 8, 8, 13, 3, 11, 6, 10, 7, 10, 5, 8, 6, 11, 7, 10,
    8, 8, 6, 8, 4, 8, 3, 11, 3, 8, 3, 13, 6, 10, 4, 4, 5, 12, 3, 10, 7, 10, 3, 17, 7, 4, 6, 4, 3,
]


def test_two_to_one_crossing_state_counts_are_pinned_across_a_family():
    guided, unguided = [], []
    for q1, q2 in _random_2rpq_pairs(random.Random(61), 200):
        t = fold_automaton(q2)
        guided.append(two_to_one(t, within=q1).n_states)
        unguided.append(two_to_one(t).n_states)
    assert guided == _FAMILY_GUIDED
    assert unguided == _FAMILY_UNGUIDED


# --- contains_2rpq -----------------------------------------------------------------

def test_contains_2rpq_reflexive():
    q = rx2("a.b^-.c")
    assert contains_2rpq(q, q)


def test_contains_2rpq_paper_direction():
    # abb-bc folds onto abc, so the query a.b.c contains into a.b.b^-.b.c
    assert contains_2rpq(rx2("a.b.c"), rx2("a.b.b^-.b.c"))
    assert not contains_2rpq(rx2("a.b.b^-.b.c"), rx2("a.b.c"))


def test_contains_2rpq_negative():
    assert not contains_2rpq(rx2("a.b"), rx2("a.c"))


def test_contains_2rpq_agrees_with_semantics():
    # containment holding implies answer inclusion on every database
    rng = random.Random(29)
    q1 = rx2("a.b.c")
    q2 = rx2("a.b.b^-.b.c")
    for _ in range(25):
        db = _random_db(rng, ["a", "b", "c"])
        assert eval_2rpq(db, q1) <= eval_2rpq(db, q2)


def test_semantic_witness_for_noncontainment():
    # q(a.c) is not inside q(a.b.b^-.c): a database with no b edges separates
    db = GraphDatabase(
        frozenset({"x", "y", "w"}),
        frozenset({("x", "a", "y"), ("y", "c", "w")}),
    )
    assert eval_2rpq(db, rx2("a.c")) == {("x", "w")}
    assert eval_2rpq(db, rx2("a.b.b^-.c")) == set()
    assert not contains_2rpq(rx2("a.c"), rx2("a.b.b^-.c"))


def test_eval_matches_fold_closure_on_bounded_words():
    # answers of a two-way query equal the union of its fold-closure words'
    # answers (bounded check)
    rng = random.Random(33)
    q = rx2("a.b^-|b.a")
    folded = two_to_one(fold_automaton(q))
    fold_words = enumerate_language(folded, 4, cap=50_000)
    for _ in range(15):
        db = _random_db(rng, ["a", "b"])
        direct = eval_2rpq(db, q)
        via_folds = set()
        for u in fold_words:
            via_folds |= eval_2rpq(db, _word_query(u))
        assert direct == via_folds


def _random_db(rng, labels):
    n = rng.randint(1, 4)
    nodes = [f"n{i}" for i in range(n)]
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.choice(nodes), rng.choice(labels), rng.choice(nodes)))
    return GraphDatabase(frozenset(nodes), frozenset(edges))


def _word_query(word):
    from viewsynth.automata import word_nwa

    return word_nwa(word, set(word) | {"a", "b"})
