import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from viewsynth.errors import BudgetExceeded, InputError
from viewsynth.model import Mapping, ProblemInstance, RSym, SymbolId, rcat
from viewsynth.parser import parse_instance, parse_regex
from viewsynth import rpq_synth
from viewsynth.automata import (
    DEFAULT_DET_CAP,
    accepts,
    compile_regex,
    equivalent,
    is_empty,
    trim,
    union_nwa,
)
from viewsynth.congruence import class_of, transition_monoid
from viewsynth.oracle import (
    brute_view_existence_rpq,
    enumerate_language,
    random_rpq_instance,
)
from viewsynth.rpq_synth import (
    _Engine,
    capture_check,
    maximize,
    realize_views,
    synthesize,
    synthesize_exact,
    synthesize_sound,
    views_to_regex,
)

from .conftest import bounded_language, joined_instance, rx

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"


def view_language(view, monoid, alphabet, max_len):
    realized = realize_views({"x": view}, monoid)["x"]
    if realized is None:
        return set()
    return bounded_language(realized, alphabet, max_len)


# --- per-mapping search against the paper's join ---------------------------------

def test_target_symbol_named_hash():
    # parsed names never contain '#', but a library instance may
    symbols = {
        name: SymbolId(name=name, kind=kind, arity=2)
        for name, kind in (("a", "source"), ("c", "source"), ("b", "target"), ("#", "target"))
    }
    inst = ProblemInstance(
        kind="rpq",
        symbols=symbols,
        mappings=(
            Mapping(source=RSym("a"), target=rcat([RSym("b"), RSym("#")])),
            Mapping(source=RSym("c"), target=RSym("b")),
        ),
    )
    report = synthesize_sound(inst)
    assert report.outcome == "found"
    assert {s: r.render() for s, r in report.views_regex.items()} == {"a": "b.#", "c": "b"}


def test_two_mappings_assignment_counts_are_pinned():
    # on the paper's join a prefix that empties one piece empties the whole
    # joined source, so its containment check passes without testing anything
    inst = parse_instance((INSTANCES / "two_mappings.vs").read_text(encoding="utf-8"))
    for searched, sound, exact in ((inst, 11, 14), (joined_instance(inst), 18, 448)):
        assert synthesize(searched, "sound").stats.assignments_tried == sound
        assert synthesize(searched, "exact", find_all=True).stats.assignments_tried == exact


def test_reduction_preserves_existence_on_random_instances():
    # in both modes the per-mapping search finds the views, in the same
    # order, and builds the monoid that the search on the paper's
    # one-mapping join does, trying no more assignments
    rng = random.Random(23)
    compared = Counter()
    for _ in range(100):
        inst = random_rpq_instance(rng, n_mappings=rng.randint(2, 3))
        for mode in ("sound", "exact"):
            try:
                joined = synthesize(joined_instance(inst), mode, find_all=True, budget=20_000)
            except BudgetExceeded:
                continue
            report = synthesize(inst, mode, find_all=True, budget=20_000)
            assert report.views == joined.views, [m.render() for m in inst.mappings]
            assert report.all_views == joined.all_views
            assert report.stats.monoid_size == joined.stats.monoid_size
            assert report.stats.assignments_tried <= joined.stats.assignments_tried
            compared[mode, report.found] += 1
    assert min(compared[mode, found] for mode in ("sound", "exact") for found in (True, False)) >= 5


# --- the level-wise walk of class unions --------------------------------------

def exhaustive_views(engine, maximal):
    """Every capturing assignment of class unions, in canonical order, from
    the whole product of the unions; with ``maximal`` each grown as the
    search grows its solutions, keeping the first of equal results."""
    m = len(engine.monoid.elements)
    unions = [
        frozenset(c) for size in range(m + 1) for c in itertools.combinations(range(m), size)
    ]
    found = []
    for combo in itertools.product(unions, repeat=len(engine.occurring)):
        views = dict(zip(engine.occurring, combo))
        if engine.assignment_ok(views)[1]:
            found.append(views)
    if maximal:
        grown = (rpq_synth._maximize_with_engine(engine, views) for views in found)
        found = list({frozenset(v.items()): v for v in grown}.values())
    return found


def test_class_union_walk_agrees_with_exhaustive_product(monkeypatch):
    # the walk meets the product's solutions in its order, and never offers
    # a union with a subset one class smaller that did not stay
    offered = []  # (engine, views, depth) of each verdict the search asks for
    original = _Engine.verdict

    def recording(engine, views, depth=-1):
        offered.append((engine, dict(views), depth))
        return original(engine, views, depth)

    monkeypatch.setattr(_Engine, "verdict", recording)
    rng = random.Random(31)
    compared = Counter()
    for draw in range(120):
        inst = random_rpq_instance(
            rng, n_mappings=rng.randint(1, 3), max_target_leaves=2 + 2 * (draw % 2)
        )
        engine = _Engine(inst, "exact")
        if (2 ** len(engine.monoid.elements)) ** len(engine.occurring) > 2_048:
            continue
        offered.clear()
        report = synthesize(inst, "exact", find_all=True)
        walked = list(offered)
        assert (report.all_views or []) == exhaustive_views(engine, False)
        grown = synthesize(inst, "exact", find_all=True, maximal=True).all_views
        assert (grown or []) == exhaustive_views(engine, True)
        for searched, views, depth in walked:
            sym = searched.occurring[depth] if depth >= 0 else None
            for index in views.get(sym, ()):
                smaller = {**views, sym: views[sym] - {index}}
                assert original(searched, smaller, depth)[1]
        # exact capture is sound capture too; the walk stopped at single
        # classes is the sound search
        try:
            oracle, _ = brute_view_existence_rpq(inst, budget=20_000)
        except BudgetExceeded:
            continue
        assert synthesize(inst, "sound").outcome == oracle
        assert oracle == "found" or not report.found
        compared[report.found, len(report.all_views or []) > 1] += 1
    assert min(compared.values()) >= 5, compared


def test_union_growth_keeps_the_unions_whose_subsets_all_stayed():
    rng = random.Random(41)
    for _ in range(200):
        m, size = rng.randint(1, 7), rng.randint(1, 4)
        stayed = [u for u in itertools.combinations(range(m), size) if rng.random() < 0.7]
        kept = set(stayed)
        assert rpq_synth._grow(stayed) == [
            union
            for union in itertools.combinations(range(m), size + 1)
            if all(sub in kept for sub in itertools.combinations(union, size))
        ]


@pytest.mark.parametrize("mode", ["sound", "exact"])
def test_one_symbol_search_counts_every_union_once(mode):
    # with no prefix to check, each union is either tried or skipped
    rng = random.Random(43)
    for _ in range(40):
        inst = random_rpq_instance(rng, max_source_symbols=1, max_target_leaves=3)
        if not inst.occurring_source_symbols():
            continue
        stats = synthesize(inst, mode, find_all=True).stats
        m = stats.monoid_size
        assert stats.assignments_tried + stats.prefixes_pruned == (
            1 + m if mode == "sound" else 2**m
        )


def test_exact_search_finishes_a_draw_that_exhausted_the_budget():
    # 33 classes: the exhaustive product took over 200,000 tries here
    inst = random_rpq_instance(
        random.Random(5),
        n_mappings=2,
        max_source_symbols=3,
        max_target_symbols=3,
        max_target_leaves=6,
    )
    assert [(m.source.render(), m.target.render()) for m in inst.mappings] == [
        ("a3.a3.a3", "(b1.(b1|b1.b2.b2.b1))*"),
        ("a1", "b1|b1.b1.b1"),
    ]
    report = synthesize(inst, "exact", find_all=True, budget=20_000)
    assert report.stats.monoid_size == 33
    assert len(report.all_views) == 2
    for views in report.all_views:
        assert capture_check(inst, realize_views(views, report.monoid), "exact").ok


# --- capture_check --------------------------------------------------------------

def sec6_views(monoid, target_auto):
    c_b1 = class_of(target_auto, ("b1",), monoid)
    c_b2 = class_of(target_auto, ("b2",), monoid)
    return {
        "a1": frozenset({c_b1}),
        "a2": frozenset({c_b2}),
        "a3": frozenset(),
    }


@pytest.fixture
def sec6_context(sec6_sound):
    target = rx("b1.b2")
    monoid = transition_monoid(target, generators=("b1", "b2"))
    return sec6_sound, target, monoid


def test_capture_check_sec6_passes(sec6_context):
    inst, target, monoid = sec6_context
    result = capture_check(inst, realize_views(sec6_views(monoid, target), monoid), "sound")
    assert result.ok
    assert result.per_mapping[0].witness == ("b1", "b2")


def test_capture_check_corrupted_views(sec6_context):
    inst, target, monoid = sec6_context
    views = sec6_views(monoid, target)
    views["a3"] = frozenset({class_of(target, ("b1",), monoid)})
    result = capture_check(inst, realize_views(views, monoid), "sound")
    assert not result.ok
    assert result.per_mapping[0].separating == ("b1", "b1")


def test_capture_check_all_empty_views_fails_nonemptiness(sec6_context):
    inst, _, monoid = sec6_context
    views = {s: frozenset() for s in ("a1", "a2", "a3")}
    result = capture_check(inst, realize_views(views, monoid), "sound")
    assert not result.ok
    assert not result.per_mapping[0].nonempty
    assert result.per_mapping[0].contained  # the empty language is contained


def test_capture_check_explicit_views(sec6_sound):
    views = {"a1": rx("b1"), "a2": rx("b2"), "a3": None}
    assert capture_check(sec6_sound, views, "sound").ok


# --- synthesize_sound ------------------------------------------------------------

def test_sound_sec6_example(sec6_sound):
    report = synthesize_sound(sec6_sound)
    assert report.found
    expected = {"a1": rx("b1"), "a2": rx("b2"), "a3": None}
    for sym, regex in report.views_regex.items():
        got = compile_regex(regex)
        want = expected[sym]
        if want is None:
            assert regex.render() == "empty"
        else:
            assert equivalent(got, want)


def test_sound_nonexistence():
    inst = parse_instance("kind rpq\nsource a\ntarget b\nmap a.a ~> b\n")
    assert synthesize_sound(inst).outcome == "not-found"
    outcome, _ = brute_view_existence_rpq(inst)
    assert outcome == "not-found"


def test_sound_no_source_symbols():
    inst = parse_instance("kind rpq\nsource a\ntarget b1 b2\nmap b1.b2 ~> b1.b2\n")
    report = synthesize_sound(inst)
    assert report.found
    assert report.views == {}


def test_sound_not_contained_source():
    inst = parse_instance("kind rpq\nsource a\ntarget b1 b2\nmap b2 ~> b1\n")
    assert synthesize_sound(inst).outcome == "not-found"


def test_search_budget_enforced(sec6_exact):
    with pytest.raises(BudgetExceeded):
        synthesize_exact(sec6_exact, budget=3)


# --- synthesize_exact -------------------------------------------------------------

def test_exact_simple_class(sec6_sound):
    inst = parse_instance("kind rpq\nsource a\ntarget b\nmap a ~> b\n")
    report = synthesize_exact(inst)
    assert report.found
    view = report.views["a"]
    lang = view_language(view, report.monoid, {"b"}, 3)
    assert lang == {("b",)}
    assert report.checks.per_mapping[0].reverse_contained


def test_exact_sec6_instance_finds_exact_views(sec6_exact):
    report = synthesize_exact(sec6_exact)
    assert report.found
    # verified exact both ways on the original mapping
    check = capture_check(sec6_exact, realize_views(report.views, report.monoid), "exact")
    assert check.ok


def test_exact_union_of_both_maxima_rejected(sec6_exact):
    # the pointwise union of the two incomparable maxima lets 11 through
    report = synthesize_sound(sec6_exact, find_all=True, maximal=True)
    target = compile_regex(parse_regex("0.0|0.1|1.0", {"0", "1"}))
    monoid = report.monoid
    c0 = class_of(target, ("0",), monoid)
    c1 = class_of(target, ("1",), monoid)
    union = {"a1": frozenset({c0, c1}), "a2": frozenset({c0, c1})}
    result = capture_check(sec6_exact, realize_views(union, monoid), "sound")
    assert not result.ok
    assert result.per_mapping[0].separating == ("1", "1")


@pytest.mark.parametrize("mode", ["sound", "exact"])
def test_explicit_view_word_outside_the_checker_alphabet_separates(mode):
    # the view reads z, which no query of the instance mentions
    inst = parse_instance("kind rpq\nsource a\ntarget b\nmap a ~> b\n")
    view = compile_regex(parse_regex("b|z", None))
    record = capture_check(inst, {"a": view}, mode).per_mapping[0]
    assert record.contained is False
    assert record.separating == ("z",)


def test_exact_empty_target_not_found():
    inst = parse_instance("kind rpq\nsource a\ntarget b\nmap a ~> empty\n")
    assert synthesize_exact(inst).outcome == "not-found"


# --- maximize ----------------------------------------------------------------------

def test_maximize_paper_seeds(sec6_exact):
    target = compile_regex(parse_regex("0.0|0.1|1.0", {"0", "1"}))
    monoid = transition_monoid(target, generators=("0", "1"))
    c0 = class_of(target, ("0",), monoid)
    c1 = class_of(target, ("1",), monoid)

    seeded = maximize(sec6_exact, {"a1": frozenset({c0}), "a2": frozenset({c0})})
    langs = {
        sym: view_language(v, monoid, {"0", "1"}, 2) for sym, v in seeded.items()
    }
    # one of the two incomparable maxima: {0, 0+1} or {0+1, 0}
    assert langs in (
        {"a1": {("0",)}, "a2": {("0",), ("1",)}},
        {"a1": {("0",), ("1",)}, "a2": {("0",)}},
    )

    already = {"a1": frozenset({c0, c1}), "a2": frozenset({c0})}
    assert maximize(sec6_exact, already) == already


def test_maximize_postcondition(sec6_exact):
    report = synthesize_sound(sec6_exact)
    maximal = maximize(sec6_exact, report.views)
    monoid = transition_monoid(
        compile_regex(parse_regex("0.0|0.1|1.0", {"0", "1"})), generators=("0", "1")
    )
    for sym in maximal:
        for index in range(len(monoid.elements)):
            if index in maximal[sym]:
                continue
            trial = {**maximal, sym: maximal[sym] | {index}}
            assert not capture_check(sec6_exact, realize_views(trial, monoid), "sound").ok


def test_maximize_identity_mapping_adds_nothing():
    inst = parse_instance("kind rpq\nsource a\ntarget b\nmap a ~> b\n")
    target = rx("b")
    monoid = transition_monoid(target, generators=("b",))
    seed = {"a": frozenset({class_of(target, ("b",), monoid)})}
    maximal = maximize(inst, seed)
    assert maximal == seed
    for index in range(len(monoid.elements)):
        if index in maximal["a"]:
            continue
        trial = {"a": maximal["a"] | {index}}
        assert not capture_check(inst, realize_views(trial, monoid), "sound").ok


def test_maximize_rejects_noncapturing_seed(sec6_sound):
    target = rx("b1.b2")
    monoid = transition_monoid(target, generators=("b1", "b2"))
    c_b2 = frozenset({class_of(target, ("b2",), monoid)})
    bad = {"a1": c_b2, "a2": c_b2, "a3": frozenset()}  # a1.a2 = b2.b2
    with pytest.raises(InputError):
        maximize(sec6_sound, bad)


def test_maximize_rejects_noncapturing_class_seed(sec6_sound):
    views = dict(synthesize_sound(sec6_sound).views)
    views["a3"] = views["a1"]  # lets a3.a3 = b1.b1 through
    with pytest.raises(InputError, match="capture"):
        maximize(sec6_sound, views)


def test_maximize_grows_a_missing_view_like_the_empty_view():
    inst = parse_instance("kind rpq\nsource a\ntarget b\nmap a|b ~> b\n")
    grown = maximize(inst, {})
    assert grown == maximize(inst, {"a": frozenset()})
    assert grown["a"]


def greedy_capture_pass(engine, views):
    """Add each class to each view in turn while the whole capture holds."""
    current = dict(views)
    for sym in engine.occurring:
        for index in range(len(engine.monoid.elements)):
            if index in current[sym]:
                continue
            candidate = {**current, sym: current[sym] | {index}}
            if engine.assignment_ok(candidate)[1]:
                current = candidate
    return current


@pytest.mark.parametrize("mode", ["sound", "exact"])
def test_maximize_agrees_with_greedy_capture_pass(mode):
    rng = random.Random(83)
    compared = 0
    for _ in range(40):
        inst = random_rpq_instance(rng, n_mappings=rng.randint(1, 2))
        try:
            report = synthesize(inst, mode, find_all=True, budget=2_000)
        except BudgetExceeded:
            continue
        if not report.found:
            continue
        engine = _Engine(inst, mode)
        for views in report.all_views[:4]:
            assert maximize(inst, views, mode) == greedy_capture_pass(engine, views)
            compared += 1
    assert compared >= 15


def test_sound_solution_is_already_maximal(sec6_sound):
    report = synthesize_sound(sec6_sound)
    maximal = maximize(sec6_sound, report.views)
    for sym, view in report.views.items():
        assert maximal[sym] == view


# --- views_to_regex -----------------------------------------------------------------

def test_views_to_regex_single_class(sec6_context):
    _, target, monoid = sec6_context
    views = {"x": frozenset({class_of(target, ("b1",), monoid)})}
    rendered = views_to_regex(views, monoid)
    assert rendered["x"].render() == "b1"


def test_views_to_regex_empty_token(sec6_context):
    _, _, monoid = sec6_context
    rendered = views_to_regex({"x": frozenset()}, monoid)
    assert rendered["x"].render() == "empty"


def test_views_to_regex_union_equivalent(sec6_exact):
    target = compile_regex(parse_regex("0.0|0.1|1.0", {"0", "1"}))
    monoid = transition_monoid(target, generators=("0", "1"))
    c0 = class_of(target, ("0",), monoid)
    c1 = class_of(target, ("1",), monoid)
    rendered = views_to_regex({"x": frozenset({c0, c1})}, monoid)
    got = compile_regex(rendered["x"])
    want = compile_regex(parse_regex("0|1", {"0", "1"}))
    assert equivalent(got, want)


# --- properties ----------------------------------------------------------------------

def test_found_views_survive_bounded_brute_reverification():
    rng = random.Random(31)
    checked = 0
    for _ in range(30):
        inst = random_rpq_instance(rng)
        report = synthesize_sound(inst)
        if not report.found:
            continue
        checked += 1
        realized = realize_views(report.views, report.monoid)
        for m in inst.mappings:
            src = compile_regex(m.source)
            tgt = compile_regex(m.target)
            from viewsynth.automata import substitute

            sub = substitute(src, realized, inst.source_names, inst.target_names)
            for w in enumerate_language(sub, 4, cap=4000):
                assert accepts(tgt, w)
    assert checked >= 5


def test_congruence_closure_preserves_capture():
    # singleton-word views that capture keep capturing after class closure
    rng = random.Random(37)
    closures_checked = 0
    for _ in range(40):
        inst = random_rpq_instance(rng)
        outcome, words = brute_view_existence_rpq(inst, budget=500_000)
        if outcome != "found":
            continue
        # the engine's monoid automaton: the union of the trimmed targets
        target = union_nwa(
            [trim(compile_regex(m.target)) for m in inst.mappings], alphabet=inst.target_names
        )
        monoid = transition_monoid(target, generators=inst.target_names)
        views = {
            sym: frozenset() if word is None else frozenset({class_of(target, word, monoid)})
            for sym, word in words.items()
        }
        assert capture_check(inst, realize_views(views, monoid), "sound").ok
        closures_checked += 1
    assert closures_checked >= 5


def canonical_key(views, instance, mode):
    """Sort key of the search order: EMPTY first, then the class index
    (sound) or the union size and its sorted classes (exact)."""
    def view_key(v):
        if not v:
            return (0,)
        if mode == "sound":
            return (1, min(v))
        return (1, len(v), tuple(sorted(v)))

    return tuple(view_key(views[s]) for s in instance.occurring_source_symbols())


@pytest.mark.parametrize("mode", ["sound", "exact"])
def test_all_views_canonical_and_distinct(mode):
    rng = random.Random(5)
    multi = 0
    for _ in range(40):
        inst = random_rpq_instance(rng, n_mappings=rng.randint(1, 2))
        try:
            report = synthesize(inst, mode, find_all=True, budget=500)
        except BudgetExceeded:
            continue
        if not report.found:
            continue
        keys = [canonical_key(v, inst, mode) for v in report.all_views]
        # strictly increasing: sorted, and no assignment reported twice
        assert all(a < b for a, b in zip(keys, keys[1:]))
        multi += len(keys) > 1
    assert multi >= 5


def test_engine_agrees_with_brute_oracle_quickly():
    rng = random.Random(41)
    for _ in range(25):
        inst = random_rpq_instance(rng)
        engine = synthesize_sound(inst).outcome
        oracle, _ = brute_view_existence_rpq(inst, budget=500_000)
        assert engine == oracle


# --- the monoid capture check against its automata referee ----------------------------

def random_class_views(rng, engine, partial):
    """Random empty or class-union views; with ``partial`` some symbols stay
    unassigned, as in the search's prefix checks."""
    m = len(engine.monoid.elements)
    views = {}
    for sym in engine.occurring:
        r = rng.random()
        if partial and r < 0.25:
            continue
        if r < 0.4:
            views[sym] = frozenset()
        elif r < 0.8:
            views[sym] = frozenset({rng.randrange(m)})
        else:
            views[sym] = frozenset(rng.sample(range(m), min(rng.randint(2, 3), m)))
    return views


@pytest.mark.parametrize("joined", [True, False])
def test_monoid_capture_agrees_with_automata(joined):
    # ``joined`` runs the check on the paper's one-mapping join of the
    # random instance, whose target carries the undeclared label ``#``
    rng = random.Random(67)
    verdicts = Counter()
    for _ in range(50):
        inst = random_rpq_instance(
            rng,
            n_mappings=rng.randint(1, 3),
            max_source_symbols=3,
            max_target_symbols=3,
            max_target_leaves=4,
        )
        if joined:
            inst = joined_instance(inst)
        engine = _Engine(inst, "sound")
        exact = _Engine(inst, "exact")
        for trial in range(20):
            partial = trial % 4 == 0
            views = random_class_views(rng, engine, partial)
            realized = realize_views(views, engine.monoid)
            for sym in engine.occurring:
                realized.setdefault(sym, None)
            per_mapping = []
            for checker, cc in zip(engine.checkers, engine.class_checks):
                sub = checker.substituted(realized)
                verdict = (not is_empty(sub)[0], checker.separating(sub) is None)
                assert cc.capture(views) == verdict
                per_mapping.append(verdict)
                verdicts[verdict] += 1
            nonempty, contained = (all(column) for column in zip(*per_mapping))
            assert engine.verdict(views)[0] == contained
            if not partial:
                # growing the last view keeps an empty rewriting empty
                # unless that view is empty
                last_set = any(views[sym] for sym in engine.occurring[-1:])
                stays = contained and (nonempty or not last_set)
                for e in (engine, exact):
                    referee = all(c.check(realized, e.mode).ok(e.mode) for c in e.checkers)
                    assert e.assignment_ok(views) == (stays, referee)
    # (nonempty, contained): every possible combination occurs often
    assert set(verdicts) == {(True, True), (True, False), (False, True)}
    assert min(verdicts.values()) >= 40


def test_monoid_reverse_check_agrees_with_automata(monkeypatch):
    # every assignment the monoid walk passes in the exact search has its
    # reverse containment decided both in the monoid and by automata
    verdicts = Counter()
    original_ok = _Engine.assignment_ok

    def refereed(engine, views):
        full = {sym: views.get(sym, frozenset()) for sym in engine.occurring}
        if all(cc.capture(full) == (True, True) for cc in engine.class_checks):
            realized = realize_views(full, engine.monoid)
            generators = set(engine.monoid.alphabet)
            for checker, cc in zip(engine.checkers, engine.class_checks):
                referee = checker.reverse_separating(checker.substituted(realized)) is None
                assert cc.reverse_contained(full, DEFAULT_DET_CAP) == referee
                cases = {
                    "identity class": any(engine.monoid.identity_index in v for v in full.values()),
                    "empty view": not all(full.values()),
                    "target letter in source": bool(checker.a_s.labels_present() & generators),
                    "shared monoid": len(engine.checkers) > 1,
                    "non-generator target label": bool(checker.a_t.alphabet - generators),
                }
                verdicts.update((case, referee) for case, hit in cases.items() if hit)
        return original_ok(engine, views)

    monkeypatch.setattr(_Engine, "assignment_ok", refereed)
    rng = random.Random(83)
    for draw in range(200):
        inst = random_rpq_instance(
            rng,
            n_mappings=rng.randint(1, 3),
            max_source_symbols=3,
            max_target_symbols=3,
            max_target_leaves=3,
        )
        # the paper's join: its target reads ``#``, which generates nothing
        if draw % 2:
            inst = joined_instance(inst)
        try:
            synthesize(inst, "exact", find_all=True, budget=1_000)
        except BudgetExceeded:
            pass
    cases = {case for case, _ in verdicts}
    assert len(cases) == 5
    assert min(verdicts[case, referee] for case in cases for referee in (True, False)) >= 10


@pytest.mark.parametrize("mode", ["sound", "exact"])
def test_missing_view_is_the_empty_view(mode):
    # the search leaves unassigned symbols out of its partial assignments
    rng = random.Random(89)
    accepted = 0
    for _ in range(60):
        inst = random_rpq_instance(rng, n_mappings=rng.randint(1, 2))
        engine = _Engine(inst, mode)
        try:
            found = synthesize(inst, mode, find_all=True, budget=2_000).all_views or []
        except BudgetExceeded:
            found = []
        for views in found[:8] + [random_class_views(rng, engine, False) for _ in range(4)]:
            missing = {sym: v for sym, v in views.items() if v}
            assert engine.verdict(missing)[0] == engine.verdict(views)[0]
            ok = engine.assignment_ok(views)
            assert engine.assignment_ok(missing) == ok
            accepted += ok[1] and len(missing) < len(views)
    assert accepted >= 5


@pytest.mark.parametrize("joined", [True, False])
def test_sound_search_agrees_with_brute_oracle(joined):
    # the paper's join preserves existence, so the search on the joined
    # instance must agree with the oracle on the instance as drawn
    rng = random.Random(71)
    decided = 0
    for _ in range(30):
        inst = random_rpq_instance(rng, n_mappings=rng.randint(1, 3))
        try:
            oracle, _ = brute_view_existence_rpq(inst, budget=100_000)
        except BudgetExceeded:
            continue
        searched = joined_instance(inst) if joined else inst
        assert synthesize_sound(searched).outcome == oracle
        decided += 1
    assert decided >= 20


@pytest.mark.parametrize(
    "name, mode, find_all",
    [("sec6_sound", "sound", False), ("two_mappings", "sound", False), ("sec6_exact", "exact", True)],
)
def test_search_builds_no_automata_per_candidate(monkeypatch, name, mode, find_all):
    inst = parse_instance((INSTANCES / f"{name}.vs").read_text(encoding="utf-8"))
    calls = Counter()

    def counting(kernel):
        original = getattr(rpq_synth, kernel)

        def counted(*args, **kwargs):
            calls[kernel] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(rpq_synth, kernel, counted)

    counting("substitute")
    counting("difference_witness")
    # the assignments the monoid passes, decided here apart from the engine
    passed = []
    original_ok = rpq_synth._Engine.assignment_ok

    def counting_ok(engine, views):
        passed.append(all(cc.capture(views) == (True, True) for cc in engine.class_checks))
        return original_ok(engine, views)

    monkeypatch.setattr(rpq_synth._Engine, "assignment_ok", counting_ok)
    counts = []
    for budget in (20_000, 1_000_000):  # sec6_exact --all tries 1,029
        calls.clear()
        passed.clear()
        report = synthesize(inst, mode, find_all=find_all, budget=budget)
        assert report.found
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    # only the report's own check: one substitution per mapping, compared
    # with the target one way (sound) or both ways (exact); the exact
    # search decides its reverse containment in the monoid
    directions = 2 if mode == "exact" else 1
    assert counts[0] == {
        "substitute": len(inst.mappings),
        "difference_witness": directions * len(inst.mappings),
    }
    if mode == "exact":
        # many assignments reached the reverse check, none substituted
        assert sum(passed) > len(inst.mappings)
