import itertools
import json
import math
import random
from collections import Counter

import pytest

from viewsynth.errors import BudgetExceeded, InputError
from viewsynth.cli import main
from viewsynth.model import Atom, CQ, Mapping, ProblemInstance, SymbolId, UCQ
from viewsynth.parser import parse_cq, parse_instance, parse_ucq
from viewsynth import cq_synth
from viewsynth.cq_synth import (
    bounds_for,
    capture_check_cq,
    cq_contained,
    cq_substitute,
    enumerate_view_candidates,
    find_hom,
    synthesize_cq,
    ucq_contains,
)
from viewsynth.oracle import (
    brute_view_candidates,
    cq_contained_canonical,
    eval_cq,
    eval_ucq,
    random_cq,
    rel_instance,
)


def cq(text, schema=None):
    return parse_cq(text, schema)


def ucq(text, schema=None):
    return parse_ucq(text, schema)


# --- find_hom -------------------------------------------------------------------

def test_find_hom_missing_atom():
    q_from = cq("q(x,y) :- r(x,y)")
    q_to = cq("q(x,y) :- r(x,z), s(z,y)")
    assert find_hom(q_from, q_to) is None  # r(x,y) has no image


def test_find_hom_found():
    q_from = cq("q(x) :- r(x,y)")
    q_to = cq("q(x) :- r(x,y), r(y,z)")
    hom = find_hom(q_from, q_to)
    assert hom is not None
    assert hom["x"] == "x"
    # oracle agrees: q_to is contained in q_from
    assert cq_contained_canonical(q_to, q_from)


def test_find_hom_identity():
    q = cq("q(x,y) :- r(x,z), s(z,y)")
    hom = find_hom(q, q)
    assert hom == {v: v for v in q.variables()}


def test_find_hom_head_arity_mismatch():
    with pytest.raises(InputError):
        find_hom(cq("q(x) :- r(x,x)"), cq("q(x,y) :- r(x,y)"))


def test_find_hom_agrees_with_canonical_databases():
    rng = random.Random(5)
    schema = {"r": 2, "s": 2}
    agreements = 0
    for _ in range(300):
        q1 = random_cq(rng, schema, head_arity=2, max_atoms=3, max_vars=4)
        q2 = random_cq(rng, schema, head_arity=2, max_atoms=3, max_vars=4)
        assert cq_contained(q1, q2) == cq_contained_canonical(q1, q2)
        agreements += 1
    assert agreements == 300


# --- ucq_contains ------------------------------------------------------------------

def test_ucq_contains_examples():
    r = ucq("q(x,y) :- r(x,y)")
    rs = ucq("q(x,y) :- r(x,y) ; q(x,y) :- s(x,y)")
    assert ucq_contains(r, rs)
    assert not ucq_contains(rs, r)


def test_ucq_contains_agrees_with_canonical():
    from viewsynth.oracle import ucq_contained_canonical

    rng = random.Random(9)
    schema = {"r": 2, "s": 2}
    for _ in range(150):
        q1 = UCQ(
            tuple(
                random_cq(rng, schema, head_arity=2, max_atoms=2, max_vars=3)
                for _ in range(rng.randint(1, 2))
            )
        )
        q2 = UCQ(
            tuple(
                random_cq(rng, schema, head_arity=2, max_atoms=2, max_vars=3)
                for _ in range(rng.randint(1, 2))
            )
        )
        assert ucq_contains(q1, q2) == ucq_contained_canonical(q1, q2)


# --- cq_substitute ------------------------------------------------------------------

def test_substitute_pure_renaming():
    q_s = ucq("q(x,y) :- a(x,y)")
    view = cq("v(u,v_) :- r(u,z), s(z,v_)")
    out = cq_substitute(q_s, {"a": view}, {"a"})
    assert len(out) == 1
    got = out[0]
    assert got.head == ("x", "y")
    assert [a.pred for a in got.atoms] == ["r", "s"]
    # the two body atoms share the renamed existential
    assert got.atoms[0].args[1] == got.atoms[1].args[0]
    assert got.atoms[0].args[0] == "x" and got.atoms[1].args[1] == "y"


def test_substitute_fresh_existentials_per_occurrence():
    q_s = ucq("q(x,y) :- a(x,z), a(z,y)")
    view = cq("v(u,w) :- r(u,e), s(e,w)")
    out = cq_substitute(q_s, {"a": view}, {"a"})
    assert len(out) == 1
    atoms = out[0].atoms
    assert len(atoms) == 4
    existentials = {v for a in atoms for v in a.args} - {"x", "y", "z"}
    assert len(existentials) == 2  # one per occurrence


def test_substitute_semantics_on_chain_instance():
    # evaluating the composed query matches evaluating over view extensions
    q_s = ucq("q(x,y) :- a(x,z), a(z,y)")
    view = cq("v(u,w) :- r(u,e), s(e,w)")
    out = UCQ(tuple(cq_substitute(q_s, {"a": view}, {"a"})))
    base = rel_instance(
        {
            "r": {("1", "2"), ("3", "4"), ("5", "6")},
            "s": {("2", "3"), ("4", "5"), ("6", "7")},
        }
    )
    a_rows = eval_cq(base, view)
    combined = base.merged_with(rel_instance({"a": set(a_rows)}))
    assert eval_ucq(combined, q_s) == eval_ucq(base, out)


def test_substitute_distributes_ucq_views():
    q_s = ucq("q(x,y) :- a(x,z), a(z,y)")
    view = ucq("v(u,w) :- r(u,w) ; v(u,w) :- s(u,w)")
    out = cq_substitute(q_s, {"a": view}, {"a"})
    assert len(out) == 4


def test_substitute_undefined_drops_disjunct():
    q_s = ucq("q(x,y) :- a(x,y) ; q(x,y) :- b(x,y)")
    view = cq("v(u,w) :- r(u,w)")
    out = cq_substitute(q_s, {"a": view, "b": None}, {"a", "b"})
    assert len(out) == 1
    assert out[0].atoms[0].pred == "r"


def test_substitute_repeated_head_variable_unifies():
    q_s = ucq("q(x,y) :- a(x,y)")
    view = CQ(("u", "u"), (Atom("r", ("u", "u")),))
    out = cq_substitute(q_s, {"a": view}, {"a"})
    assert len(out) == 1
    got = out[0]
    assert got.head == (got.head[0], got.head[0])  # x and y collapsed


def _union_find_splice(d, combo):
    """The splice written the other way round: every body spliced with the
    source terms as they stand, then one union-find pass over all atoms
    equates the terms repeated view head variables tie, each class written
    as its least member."""
    atoms, equalities = [], []
    for occurrence, (atom, view_cq) in enumerate(zip(d.atoms, combo)):
        if view_cq is None:
            atoms.append(atom)
            continue
        rename = {}
        for head_var, term in zip(view_cq.head, atom.args):
            if head_var in rename:
                equalities.append((rename[head_var], term))
            else:
                rename[head_var] = term
        for body_atom in view_cq.atoms:
            args = []
            for var in body_atom.args:
                if var not in rename:
                    rename[var] = f"{var}~{occurrence}"
                args.append(rename[var])
            atoms.append(Atom(body_atom.pred, tuple(args)))
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in equalities:
        ra, rb = find(a), find(b)
        if ra != rb:
            keep, drop = sorted((ra, rb))
            parent[drop] = keep
    return CQ(
        tuple(find(v) for v in d.head),
        tuple(Atom(a.pred, tuple(find(v) for v in a.args)) for a in atoms),
    )


def test_splice_equates_source_terms_as_a_union_find_over_the_spliced_atoms():
    rng = random.Random(23)
    schema = {"a": 2, "b": 3, "r": 2, "s": 1}
    target = {"r": 2, "s": 1}
    repeated = 0
    for _ in range(400):
        d = random_cq(rng, schema, head_arity=rng.randint(1, 3), max_atoms=4, max_vars=5)
        views = {}
        for pred in ("a", "b"):
            arity = schema[pred]
            kstar = cq_synth._bottom_view(arity, target)
            cqs = [random_cq(rng, target, arity, max_atoms=3, max_vars=3) for _ in range(2)]
            views[pred] = rng.choice([kstar, cqs[0], UCQ(tuple(cqs)), UCQ((kstar, cqs[1]))])
        alternatives = [
            (None,) if a.pred not in views
            else views[a.pred].disjuncts if isinstance(views[a.pred], UCQ)
            else (views[a.pred],)
            for a in d.atoms
        ]
        for combo in itertools.product(*alternatives):
            repeated += any(v is not None and len(set(v.head)) < len(v.head) for v in combo)
            assert cq_synth._splice_disjunct(d, combo) == _union_find_splice(d, combo)
    assert repeated > 300


def test_signature_refutation_implies_non_containment():
    # views drawn as the search offers them: candidates, K*, unions and
    # undefined; a refutation must be a true "not contained"
    from viewsynth.oracle import random_ucq_instance, ucq_contained_canonical

    target_schema = {"r": 2, "s": 2}
    singles = [v for n in (1, 2) for v in enumerate_view_candidates(2, target_schema, n)]
    kstar = cq_synth._bottom_view(2, target_schema)
    rng = random.Random(31)
    refuted = kept = 0
    for _ in range(150):
        inst = random_ucq_instance(rng)
        (m,) = inst.mappings
        source_preds = set(inst.source_names)
        sigs = [frozenset(d.predicates()) for d in m.target.disjuncts]
        for _ in range(8):
            views = {}
            for sym in inst.source_names:
                pick = rng.randrange(5)
                if pick == 0:
                    continue  # missing from the views: undefined
                union = UCQ(tuple(rng.sample(singles, 2)))
                views[sym] = [None, kstar, rng.choice(singles), union][pick - 1]
            if cq_synth.refuted_by_signature(m.source, views, source_preds, sigs):
                refuted += 1
                distributed = UCQ(tuple(cq_substitute(m.source, views, source_preds)))
                assert not ucq_contains(distributed, m.target)
                assert not ucq_contained_canonical(distributed, m.target)
            else:
                kept += 1
    assert refuted > 200 and kept > 200, (refuted, kept)


# --- bounds and candidates -----------------------------------------------------------

def test_bounds_for_chain(chain_cq):
    bounds = bounds_for(chain_cq)
    assert bounds.atom_bound == 2
    assert bounds.disjunct_bound == 1
    assert bounds.variable_bound == 2 + 2 * 2


def all_layers(arity, schema, atom_bound):
    """The candidate layers 1..atom_bound in the search's order."""
    return [
        view
        for n_atoms in range(1, atom_bound + 1)
        for view in enumerate_view_candidates(arity, schema, n_atoms)
    ]


def test_candidates_are_canonical_and_deduplicated(chain_cq):
    bounds = bounds_for(chain_cq)
    candidates = all_layers(2, {"r": 2, "s": 2}, bounds.atom_bound)
    assert len(candidates) == len(set(candidates))
    rendered = {c.render() for c in candidates}
    assert "q(h0,h1) :- r(h0,e0), s(e0,h1)" in rendered
    # isomorphic variant with swapped existential names is not present twice
    assert "q(h0,h1) :- r(h0,e1), s(e1,h1)" not in rendered


THREE_ATOM = (
    "kind cq\nsource a/2\ntarget r/2 s/2\n"
    "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,z), s(y,y), s(x,z)\n"
)


def test_budget_stops_candidate_enumeration(monkeypatch):
    # the whole enumeration for this 3-atom target runs the relabelling test
    # on 12,495 of its 124,536 bodies; the budget has to stop it far sooner.
    # With find_all the search must walk every layer it reaches whole.
    inst = parse_instance(THREE_ATOM)
    calls = 0
    least = cq_synth._least_relabelling

    def counted(*args):
        nonlocal calls
        calls += 1
        return least(*args)

    monkeypatch.setattr(cq_synth, "_least_relabelling", counted)
    with pytest.raises(BudgetExceeded):
        synthesize_cq(inst, budget=200, find_all=True)
    assert 0 < calls < 1_000


def test_sound_search_stops_enumerating_at_its_first_solution():
    # the one-atom layer keeps nothing, and the first kept two-atom candidate
    # captures; building the whole two-atom layer first took 209 checks
    report = synthesize_cq(parse_instance(THREE_ATOM), "sound")
    assert report.views["a"].render() == "q(h0,h0) :- r(h0,h0), s(h0,h0)"
    assert report.stats.checks == 69
    assert report.stats.candidates_per_symbol == {"a": 2}


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_streamed_layers_come_in_render_order(arity):
    # no sort: head patterns by their rendering, then combinations of the
    # sorted atom universe
    schema = {"r": 2, "s": 1}
    for n_atoms in (1, 2):
        layer = list(enumerate_view_candidates(arity, schema, n_atoms))
        assert layer and layer == sorted(layer, key=CQ.render), (arity, n_atoms)


TWO_SYMBOLS = (
    "kind cq\nsource a/2 b/2\ntarget r/2 s/2\n"
    "map q(x,y) :- a(x,z), b(z,y) ~> q(x,y) :- r(x,z), s(z,y)\n"
)


@pytest.mark.parametrize("mode", ["sound", "exact"])
def test_each_candidate_meets_local_soundness_once_across_prefixes(monkeypatch, mode):
    # find_all walks the second symbol's options once per viable prefix of
    # the first; each candidate is still built and keep-tested once, and
    # candidates_per_symbol counts the distinct options the search offered
    inst = parse_instance(TWO_SYMBOLS)
    tested, offered, walks = Counter(), {}, Counter()
    refuted, run_search = cq_synth.refuted_by_signature, cq_synth.search

    # every test of a mapping asks the signature first, refuted or not
    def counted_refuted(q_s, views, *rest):
        if len(views) == 1:  # only the keep test leaves the other symbol out
            tested[next(iter(views.items()))] += 1
        return refuted(q_s, views, *rest)

    def spied_search(symbols, options, *rest):
        def spied(sym):
            walks[sym] += 1
            for view in options(sym):
                offered.setdefault(sym, set()).add(view)
                yield view

        return run_search(symbols, spied, *rest)

    monkeypatch.setattr(cq_synth, "refuted_by_signature", counted_refuted)
    monkeypatch.setattr(cq_synth, "search", spied_search)
    report = synthesize_cq(inst, mode, "ucq", find_all=True)
    assert report.found and walks["b"] > 1, walks
    assert len(tested) > 5 and set(tested.values()) == {1}
    assert {sym for sym, _ in tested} == {"a", "b"}
    assert report.stats.candidates_per_symbol == {sym: len(offered[sym]) for sym in ("a", "b")}


TERNARY = (
    "kind cq\nsource a/2\ntarget t/3\n"
    "map q(x,y) :- a(x,y) ~> q(x,y) :- t(x,y,z), t(y,z,x), t(z,x,y)\n"
)


def test_ternary_three_atom_target_is_answered_under_the_default_budget():
    # the whole enumeration walks C(729, 3) bodies per head pattern; the
    # search needs only the first layer, whose first sound view is K*
    report = synthesize_cq(parse_instance(TERNARY), "sound")
    assert report.found
    assert report.views["a"].render() == "q(h0,h0) :- t(h0,h0,h0)"
    assert report.stats.checks < 100


def test_not_found_is_answered_before_any_candidate_is_built(monkeypatch):
    # no assignment from {undefined, K*} captures: a view of a can only
    # relate x to itself, and the target needs r from x to y
    inst = parse_instance(
        "kind cq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- a(x,x), s(x,y) ~> q(x,y) :- r(x,y)\n"
    )
    calls = 0
    enumerate_layer = cq_synth.enumerate_view_candidates

    def counted(*args):
        nonlocal calls
        calls += 1
        return enumerate_layer(*args)

    monkeypatch.setattr(cq_synth, "enumerate_view_candidates", counted)
    for mode in ("sound", "exact"):
        for view_kind in ("cq", "ucq"):
            report = synthesize_cq(inst, mode, view_kind)
            assert report.outcome == "not-found"
            assert report.stats.candidates_per_symbol == {"a": 0}
    assert calls == 0


def test_three_atom_enumeration_count():
    inst = parse_instance(THREE_ATOM)
    bounds = bounds_for(inst)
    assert bounds.atom_bound == 3
    candidates = all_layers(2, {"r": 2, "s": 2}, bounds.atom_bound)
    assert len(candidates) == 3_311


# --- synthesize_cq -------------------------------------------------------------------

def test_chain_mapping_synthesizes_composition(chain_cq):
    report = synthesize_cq(chain_cq, "exact")
    assert report.found
    view = report.views["a"]
    want = cq("v(u,w) :- r(u,z), s(z,w)")
    assert cq_contained(view, want) and cq_contained(want, view)
    assert report.checks.ok


def test_identity_mapping_sound():
    inst = parse_instance(
        "kind cq\nsource a/2\ntarget r/2\nmap q(x,y) :- a(x,y) ~> q(x,y) :- r(x,y)\n"
    )
    report = synthesize_cq(inst, "sound")
    assert report.found
    assert cq_contained(report.views["a"], cq("v(u,w) :- r(u,w)"))


def test_target_only_source_not_found():
    inst = parse_instance(
        "kind cq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- s(x,y) ~> q(x,y) :- r(x,y)\n"
    )
    assert synthesize_cq(inst, "sound").outcome == "not-found"


def test_absent_source_predicate_stays_undefined():
    inst = parse_instance(
        "kind cq\nsource a/2 b/2\ntarget r/2\n"
        "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,y)\n"
    )
    report = synthesize_cq(inst, "sound")
    assert report.found
    assert "b" not in report.views or report.views.get("b") is None


def test_exact_union_target_needs_ucq_views():
    text = (
        "kind ucq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,y) ; q(x,y) :- s(x,y)\n"
    )
    inst = parse_instance(text)
    assert synthesize_cq(inst, "exact", view_kind="cq").outcome == "not-found"
    report = synthesize_cq(inst, "exact", view_kind="ucq")
    assert report.found
    view = report.views["a"]
    assert isinstance(view, UCQ) and len(view.disjuncts) == 2


def test_sound_existence_same_for_cq_and_ucq_views_small():
    from viewsynth.oracle import random_ucq_instance

    rng = random.Random(43)
    for _ in range(20):
        inst = random_ucq_instance(rng)
        with_cq = synthesize_cq(inst, "sound", view_kind="cq", budget=400_000)
        with_ucq = synthesize_cq(inst, "sound", view_kind="ucq", budget=400_000)
        assert with_cq.outcome == with_ucq.outcome


def test_sound_ucq_answer_is_the_cq_answer_and_the_first_of_all():
    """Sound mode thins a capturing UCQ view to one disjunct, so ``ucq``
    answers as ``cq`` does; ``find_all`` still enumerates unions, after the
    single views, so its first solution is that same answer."""
    from viewsynth.oracle import random_ucq_instance

    def answer(report):
        return {k: v for k, v in report.to_json().items() if k != "statistics"}

    rng = random.Random(61)
    decided = with_unions = 0
    for _ in range(20):
        inst = random_ucq_instance(rng)
        with_ucq = synthesize_cq(inst, "sound", view_kind="ucq")
        assert answer(with_ucq) == answer(synthesize_cq(inst, "sound", view_kind="cq"))
        try:
            every = synthesize_cq(inst, "sound", view_kind="ucq", find_all=True, budget=3000)
        except BudgetExceeded:
            continue
        decided += 1
        first = every.all_views[0] if every.found else None
        assert (with_ucq.outcome, with_ucq.views) == (every.outcome, first)
        with_unions += any(
            isinstance(v, UCQ) for views in every.all_views or () for v in views.values()
        )
    assert decided >= 15
    assert with_unions >= 4


def test_sound_all_still_lists_union_views():
    inst = parse_instance(
        "kind ucq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,y) ; q(x,y) :- s(x,y)\n"
    )
    assert not isinstance(synthesize_cq(inst, "sound", view_kind="ucq").views["a"], UCQ)
    every = synthesize_cq(inst, "sound", view_kind="ucq", find_all=True)
    assert any(isinstance(views["a"], UCQ) for views in every.all_views)


def test_listed_unions_have_no_disjunct_contained_in_another():
    """A union with one disjunct contained in another equals the smaller
    union without it, which is listed already, so it is not listed again."""
    from viewsynth.oracle import random_ucq_instance

    found = parse_instance(
        "kind ucq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,y) ; q(x,y) :- s(x,y)\n"
    )
    rng = random.Random(43)
    instances = [found] + [random_ucq_instance(rng) for _ in range(12)]
    unions = 0
    for inst in instances:
        for mode in ("sound", "exact"):
            try:
                every = synthesize_cq(inst, mode, view_kind="ucq", find_all=True, budget=1000)
            except BudgetExceeded:
                continue
            for views in every.all_views or ():
                for view in views.values():
                    if isinstance(view, UCQ):
                        unions += 1
                        pairs = itertools.permutations(view.disjuncts, 2)
                        assert not any(cq_contained(a, b) for a, b in pairs), view.render()
    assert len(synthesize_cq(found, "sound", view_kind="ucq", find_all=True).all_views) == 8
    assert unions >= 100


# --- the search against a brute-force product --------------------------------------

def _small_ucq_instance(rng) -> ProblemInstance:
    """One mapping between UCQs of head arity 1 or 2; sources of arity 1 or 2
    and, now and then, target predicates in the source query."""
    src = {f"a{i}": rng.randint(1, 2) for i in range(rng.randint(1, 2))}
    tgt = {"r": 2, **({"s": 1} if rng.random() < 0.5 else {})}
    head = rng.randint(1, 2)

    def query(schema):
        return UCQ(tuple(
            random_cq(rng, schema, head, max_atoms=2, max_vars=3)
            for _ in range(rng.randint(1, 2))
        ))

    source = query({**src, **(tgt if rng.random() < 0.3 else {})})
    symbols = {n: SymbolId(n, "source", a) for n, a in src.items()}
    symbols.update({n: SymbolId(n, "target", a) for n, a in tgt.items()})
    return ProblemInstance("ucq", symbols, (Mapping(source, query(tgt)),))


PRODUCT_CAP = 800  # reference assignments per request


def _referee_candidates(inst) -> dict:
    """Per symbol, the referee's candidates whose containment holds with every
    other view undefined; the others fail in every assignment, because
    defining more views only adds disjuncts."""
    bounds = bounds_for(inst)
    occurring = inst.occurring_source_symbols()
    schema = {n: inst.symbols[n].arity for n in inst.target_names}

    def locally_sound(sym, view):
        views = {**dict.fromkeys(occurring), sym: view}
        return all(c.contained for c in capture_check_cq(inst, views, "sound").per_mapping)

    return {
        sym: brute_view_candidates(
            inst.symbols[sym].arity, schema, bounds.atom_bound, lambda v: locally_sound(sym, v)
        )
        for sym in occurring
    }


def _reference(inst, candidates, mode, view_kind, find_all, distinct=False):
    """The capturing assignments of ``itertools.product`` over ``[None]`` and
    each symbol's ``candidates`` (and, for union views, all their unions
    within the disjunct bound, only those without a disjunct contained in
    another if ``distinct``), in that order; only the first unless
    ``find_all``.  None when the product exceeds ``PRODUCT_CAP``."""
    disjunct_bound = bounds_for(inst).disjunct_bound
    options = []
    for singles in candidates.values():
        unions = []
        if view_kind == "ucq":
            unions = [
                UCQ(combo)
                for size in range(2, disjunct_bound + 1)
                for combo in itertools.combinations(singles, size)
                if not distinct or not any(
                    cq_contained_canonical(a, b) for a, b in itertools.permutations(combo, 2)
                )
            ]
        options.append([None, *singles, *unions])
    if math.prod(map(len, options)) > PRODUCT_CAP:
        return None
    found = []
    for choice in itertools.product(*options):
        views = dict(zip(candidates, choice))
        if capture_check_cq(inst, views, mode).ok:
            found.append(views)
            if not find_all:
                break
    return found


def _bottom_captures(inst) -> bool:
    """Some assignment of the undefined view or K* to each symbol captures soundly."""
    body = tuple(Atom(p, ("h0",) * inst.symbols[p].arity) for p in sorted(inst.target_names))
    occurring = inst.occurring_source_symbols()
    completions = [[None, CQ(("h0",) * inst.symbols[sym].arity, body)] for sym in occurring]
    return any(
        capture_check_cq(inst, dict(zip(occurring, choice)), "sound").ok
        for choice in itertools.product(*completions)
    )


def _instance_text(inst) -> str:
    def decl(names):
        return " ".join(f"{n}/{inst.symbols[n].arity}" for n in names)

    lines = [f"kind {inst.kind}", f"source {decl(inst.source_names)}",
             f"target {decl(inst.target_names)}", *(f"map {m.render()}" for m in inst.mappings)]
    return "\n".join(lines) + "\n"


def test_search_agrees_with_the_brute_force_product(tmp_path, capsys):
    requests = [(m, k, False) for m in ("sound", "exact") for k in ("cq", "ucq")]
    requests += [("sound", "cq", True), ("exact", "cq", True)]
    rng = random.Random(17)
    seen = Counter()
    for i in range(50):
        inst = _small_ucq_instance(rng)
        candidates = _referee_candidates(inst)
        for mode, view_kind, find_all in requests:
            want = _reference(inst, candidates, mode, view_kind, find_all)
            if want is None:
                seen["skipped"] += 1
                continue
            report = synthesize_cq(inst, mode, view_kind, find_all=find_all)
            case = (i, mode, view_kind, find_all)
            assert report.views == (want[0] if want else None), case
            if find_all:
                assert (report.all_views or []) == want, case
            seen[mode, report.outcome] += 1
        # the bounded search finds sound views iff the bottom views do
        assert synthesize_cq(inst, "sound").found == _bottom_captures(inst), i
        if i % 6 == 0:
            path = tmp_path / f"{i}.vs"
            path.write_text(_instance_text(inst), encoding="utf-8")
            for mode, view_kind in (("sound", "cq"), ("exact", "ucq")):
                want = _reference(inst, candidates, mode, view_kind, False)
                if want is None:
                    continue
                code = main(["synth", "--mode", mode, "--view-kind", view_kind,
                             "--format", "json", str(path)])
                out = json.loads(capsys.readouterr().out)
                assert code == (0 if want else 1), (i, mode, view_kind)
                assert out["views"] == (
                    {s: v.render() if v else "undefined" for s, v in sorted(want[0].items())}
                    if want else None
                ), (i, mode, view_kind)
                seen["cli"] += 1
    # 300 requests: at most a tenth too large for the reference
    assert seen["skipped"] <= 30 and seen["cli"] >= 12, seen
    assert min(seen[m, o] for m in ("sound", "exact") for o in ("found", "not-found")) >= 20, seen


def test_union_listing_agrees_with_the_brute_force_product():
    # --all with union views, on the draws above: the listing is the product
    # over unions without a disjunct contained in another
    rng = random.Random(17)
    seen = Counter()
    for i in range(50):
        inst = _small_ucq_instance(rng)
        candidates = _referee_candidates(inst)
        for mode in ("sound", "exact"):
            want = _reference(inst, candidates, mode, "ucq", True, distinct=True)
            if want is None:
                seen["skipped"] += 1
                continue
            report = synthesize_cq(inst, mode, "ucq", find_all=True)
            assert (report.all_views or []) == want, (i, mode)
            seen[mode, report.outcome] += 1
            seen["unions"] += sum(isinstance(v, UCQ) for views in want for v in views.values())
    assert seen["skipped"] <= 20 and seen["unions"] >= 1_000, seen
    assert min(seen[m, o] for m in ("sound", "exact") for o in ("found", "not-found")) >= 10, seen


def test_found_views_verified_semantically(chain_cq):
    from viewsynth.oracle import coherence_soundness_sample

    report = synthesize_cq(chain_cq, "exact")
    views = {
        sym: (v if v is None or isinstance(v, UCQ) else UCQ((v,)))
        for sym, v in report.views.items()
    }
    sample = coherence_soundness_sample(chain_cq, views, samples=30, seed=3, mode="exact")
    assert sample.ok


def test_ucq_evaluation_is_monotone_under_added_facts():
    rng = random.Random(21)
    schema = {"r": 2, "s": 2}
    from viewsynth.oracle import random_rel_instance

    for _ in range(30):
        q = UCQ(
            tuple(
                random_cq(rng, schema, head_arity=2, max_atoms=2, max_vars=3)
                for _ in range(rng.randint(1, 2))
            )
        )
        small = random_rel_instance(rng, schema)
        extra = random_rel_instance(rng, schema)
        large = small.merged_with(extra)
        assert eval_ucq(small, q) <= eval_ucq(large, q)


def test_capture_check_cq_reports_failure():
    inst = parse_instance(
        "kind cq\nsource a/2\ntarget r/2 s/2\n"
        "map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,y)\n"
    )
    result = capture_check_cq(inst, {"a": cq("v(u,w) :- s(u,w)")}, "sound")
    assert not result.ok
    assert not result.per_mapping[0].contained


def test_capture_check_cq_needs_every_occurring_view(chain_cq):
    with pytest.raises(InputError, match="views missing"):
        capture_check_cq(chain_cq, {})


def test_report_json(chain_cq):
    report = synthesize_cq(chain_cq, "exact")
    js = report.to_json()
    assert js["outcome"] == "found"
    assert "r(h0,e0)" in js["views"]["a"]
    assert js["bounds"]["atom_bound"] == 2
