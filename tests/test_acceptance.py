"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (the conftest hook prints one
PASS/FAIL line per criterion).  Criteria 2 and 9 encode expectations that
the underlying mathematics contradicts; they are implemented as stated and
left to fail, with the justification inline at the failing assertions.
"""

import random
import time

import pytest

from viewsynth.model import UCQ
from viewsynth.parser import parse_cq, parse_instance, parse_regex
from viewsynth.automata import accepts, compile_regex, equivalent
from viewsynth.congruence import class_automaton, class_of, transition_monoid
from viewsynth.cq_synth import cq_contained, find_hom, synthesize_cq
from viewsynth.oracle import (
    brute_view_existence_rpq,
    coherence_soundness_sample,
    cq_contained_canonical,
    enumerate_language,
    random_cq,
    random_rpq_instance,
    random_ucq_instance,
)
from viewsynth.rpq_synth import (
    capture_check,
    realize_views,
    synthesize_exact,
    synthesize_sound,
)
from viewsynth.twoway import contains_2rpq, fold_automaton, folds_onto, two_to_one

from .conftest import SEC6_EXACT, SEC6_SOUND, all_words, bounded_language, joined_instance, rx


def views_as_languages(views, monoid, alphabet, max_len):
    out = {}
    for sym, realized in sorted(realize_views(views, monoid).items()):
        out[sym] = (
            frozenset()
            if realized is None
            else frozenset(bounded_language(realized, alphabet, max_len))
        )
    return out


def test_criterion_1_sec6_sound_example():
    inst = parse_instance(SEC6_SOUND)
    started = time.monotonic()
    report = synthesize_sound(inst)
    elapsed = time.monotonic() - started
    assert report.found
    expected = {"a1": rx("b1"), "a2": rx("b2"), "a3": None}
    for sym, regex in report.views_regex.items():
        want = expected[sym]
        if want is None:
            from viewsynth.automata import is_empty

            realized = realize_views(report.views, report.monoid)[sym]
            assert realized is None or is_empty(realized)[0]
        else:
            got = compile_regex(regex)
            assert equivalent(got, want) and equivalent(want, got)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_sec6_exact_all_maximal():
    inst = parse_instance(SEC6_EXACT)
    report = synthesize_exact(inst, find_all=True, maximal=True)
    assert report.found

    target = compile_regex(parse_regex("0.0|0.1|1.0", {"0", "1"}))
    monoid = report.monoid
    c0 = class_of(target, ("0",), monoid)
    c1 = class_of(target, ("1",), monoid)

    # capture_check rejects the pointwise union of the two maxima, letting
    # the word 11 through
    union = {
        "a1": frozenset({c0, c1}),
        "a2": frozenset({c0, c1}),
    }
    result = capture_check(inst, realize_views(union, monoid), "sound")
    assert not result.ok
    assert result.per_mapping[0].separating == ("1", "1")

    # stated expectation: exactly the two incomparable maximal view sets
    # {0, 0+1} and {0+1, 0} (as languages).
    # NOTE: this final assertion is not attainable.  {0, 0+1} and {0+1, 0}
    # capture only soundly (0.(0|1) misses 10), while ({eps}, 00+01+10) and
    # its flip are exact captures ({eps}.L = L) and are maximal, so a
    # faithful exact search reports those two instead.
    got = {
        tuple(sorted(views_as_languages(v, monoid, ("0", "1"), 2).items()))
        for v in report.all_views
    }
    zero = frozenset({("0",)})
    zero_one = frozenset({("0",), ("1",)})
    expected = {
        (("a1", zero), ("a2", zero_one)),
        (("a1", zero_one), ("a2", zero)),
    }
    assert got == expected


def test_criterion_3_nonexistence():
    inst = parse_instance("kind rpq\nsource a\ntarget b\nmap a.a ~> b\n")
    started = time.monotonic()
    engine = synthesize_sound(inst)
    oracle, _ = brute_view_existence_rpq(inst)
    elapsed = time.monotonic() - started
    assert engine.outcome == "not-found"
    assert oracle == "not-found"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_oracle_cross_validation():
    rng = random.Random(2024)
    started = time.monotonic()
    agreements = 0
    trials = 200
    for _ in range(trials):
        inst = random_rpq_instance(
            rng, n_mappings=1, max_source_symbols=2, max_target_symbols=2,
            max_target_leaves=2,
        )
        assert compile_regex(inst.mappings[0].target).n_states <= 3
        engine = synthesize_sound(inst).outcome
        oracle, _ = brute_view_existence_rpq(inst, budget=2_000_000)
        assert engine == oracle, inst.mappings[0].render()
        agreements += 1
    elapsed = time.monotonic() - started
    assert agreements == trials
    assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_5_single_mapping_reduction():
    # the engine checks each mapping on its own; the paper's reduction joins
    # them into one mapping around a fresh separator (``joined_instance``)
    rng = random.Random(77)
    agreements = 0
    trials = 100
    for _ in range(trials):
        inst = random_rpq_instance(rng, n_mappings=rng.randint(2, 3))
        reduced = synthesize_sound(joined_instance(inst)).outcome
        direct = synthesize_sound(inst).outcome
        assert reduced == direct, [m.render() for m in inst.mappings]
        agreements += 1
    assert agreements == trials


def test_criterion_6_congruence_suite():
    target = rx("b1.b2")
    monoid = transition_monoid(target)
    assert len(monoid.elements) == 5
    words = all_words({"b1", "b2"}, 4)
    assert len(words) == 31  # epsilon plus the 30 nonempty words
    autos = [class_automaton(monoid, i) for i in range(5)]
    for w in words:
        assert sum(accepts(a, w) for a in autos) == 1


def test_criterion_7_cq_suite():
    inst = parse_instance(
        "kind cq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,z), s(z,y)\n"
    )
    report = synthesize_cq(inst, "exact")
    assert report.found
    composition = parse_cq("v(u,w) :- r(u,z), s(z,w)", {"r": 2, "s": 2})
    view = report.views["a"]
    assert cq_contained(view, composition) and cq_contained(composition, view)
    assert report.checks.ok

    rng = random.Random(515)
    schema = {"r": 2, "s": 2}
    agreements = 0
    trials = 500
    for _ in range(trials):
        q1 = random_cq(rng, schema, head_arity=2, max_atoms=3, max_vars=4)
        q2 = random_cq(rng, schema, head_arity=2, max_atoms=3, max_vars=4)
        via_hom = find_hom(q2, q1) is not None
        via_canonical = cq_contained_canonical(q1, q2)
        assert via_hom == via_canonical
        agreements += 1
    assert agreements == trials


def test_criterion_8_ucq_lemma_property():
    rng = random.Random(88)
    agreements = 0
    trials = 100
    for _ in range(trials):
        inst = random_ucq_instance(rng)
        cq_verdict = synthesize_cq(inst, "sound", view_kind="cq", budget=500_000)
        ucq_verdict = synthesize_cq(inst, "sound", view_kind="ucq", budget=500_000)
        assert cq_verdict.outcome == ucq_verdict.outcome, [m.render() for m in inst.mappings]
        agreements += 1
    assert agreements == trials


def test_criterion_9_folding():
    # folds_onto certifies the canonical back-and-forth example
    assert folds_onto(("a", "b", "b^-", "b", "c"), ("a", "b", "c")) == [0, 1, 2, 1, 2, 3]

    # bounded equivalence of the two-way pipeline against brute fold search
    rng = random.Random(99)
    labels = ("a", "a^-")
    for _ in range(20):
        n = rng.randint(1, 3)
        transitions = set()
        for _ in range(rng.randint(1, 6)):
            transitions.add((rng.randrange(n), rng.choice(labels), rng.randrange(n)))
        from viewsynth.automata import NWA

        a = NWA(n, set(labels), {0}, {rng.randrange(n)}, transitions)
        one = two_to_one(fold_automaton(a))
        for u in all_words(labels, 4):
            bound = 2 * len(u) + 2 * a.n_states
            brute = any(
                folds_onto(v, u) is not None
                for v in enumerate_language(a, bound, cap=200_000)
            )
            assert accepts(one, u) == brute, (sorted(transitions), u)

    # stated expectation: contains_2rpq(a.c, a.b.b^-.c) = true.
    # NOTE: not attainable: abb^-c does not fold onto ac (folding walks on
    # the letters of u; it is not free-group cancellation), and the database
    # x-a->y-c->w with no b edge answers a.c but not a.b.b^-.c.  The true
    # neighbouring fact, contains_2rpq(a.b.c, a.b.b^-.b.c), passes in
    # tests/test_twoway.py.
    q1 = compile_regex(parse_regex("a.c", None, two_way=True))
    q2 = compile_regex(parse_regex("a.b.b^-.c", None, two_way=True))
    assert contains_2rpq(q1, q2)


def test_criterion_10_semantic_soundness():
    # criterion 1 views
    sound_inst = parse_instance(SEC6_SOUND)
    sound_report = synthesize_sound(sound_inst)
    views_1 = realize_views(sound_report.views, sound_report.monoid)
    report = coherence_soundness_sample(sound_inst, views_1, samples=50, seed=10)
    assert report.ok and report.counterexample is None

    # criterion 2 views (whatever exact synthesis produces)
    exact_inst = parse_instance(SEC6_EXACT)
    exact_report = synthesize_exact(exact_inst, find_all=True, maximal=True)
    for views in exact_report.all_views:
        realized = realize_views(views, exact_report.monoid)
        report = coherence_soundness_sample(
            exact_inst, realized, samples=50, seed=11, mode="exact"
        )
        assert report.ok and report.counterexample is None

    # criterion 7 views
    cq_inst = parse_instance(
        "kind cq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,z), s(z,y)\n"
    )
    cq_report = synthesize_cq(cq_inst, "exact")
    cq_views = {
        sym: (v if v is None or isinstance(v, UCQ) else UCQ((v,)))
        for sym, v in cq_report.views.items()
    }
    report = coherence_soundness_sample(
        cq_inst, cq_views, samples=50, seed=12, mode="exact"
    )
    assert report.ok and report.counterexample is None
