"""The slotted records against a referee copy of the dataclasses they replaced.

The records of ``viewsynth.model`` and ``viewsynth.report``,
``TransitionMonoid`` and ``SynthesisBounds`` are plain classes with
``__slots__`` and hand-written methods.  The referee below copies their
former ``@dataclass`` definitions (validation left out), and ``old``
converts a record to its referee twin, so that equality, hashing, ordering,
repr and immutability can be compared with what ``dataclasses`` generates
on seeded values.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import dataclass, field

import pytest

from viewsynth import model, report
from viewsynth.congruence import TransitionMonoid as NewMonoid
from viewsynth.cq_synth import SynthesisBounds as NewBounds
from viewsynth.errors import InputError

# ---------------------------------------------------------------------------
# The referee: the former dataclass definitions
# ---------------------------------------------------------------------------


class Regex:
    def render(self) -> str:
        return _render(self, 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"


@dataclass(frozen=True, repr=False)
class REmpty(Regex):
    pass


@dataclass(frozen=True, repr=False)
class REps(Regex):
    pass


@dataclass(frozen=True, repr=False)
class RSym(Regex):
    label: str


@dataclass(frozen=True, repr=False)
class RCat(Regex):
    parts: tuple


@dataclass(frozen=True, repr=False)
class RAlt(Regex):
    parts: tuple


@dataclass(frozen=True, repr=False)
class RStar(Regex):
    inner: Regex


def _render(r, level):
    if isinstance(r, REmpty):
        return "empty"
    if isinstance(r, REps):
        return "eps"
    if isinstance(r, RSym):
        return r.label
    if isinstance(r, RAlt):
        body = "|".join(_render(p, 1) for p in r.parts)
        return f"({body})" if level >= 1 else body
    if isinstance(r, RCat):
        body = ".".join(_render(p, 2) for p in r.parts)
        return f"({body})" if level >= 2 else body
    return _render(r.inner, 2) + "*"


@dataclass(frozen=True)
class SymbolId:
    name: str
    kind: str
    arity: int = 2


@dataclass(frozen=True, order=True)
class Atom:
    pred: str
    args: tuple


@dataclass(frozen=True)
class CQ:
    head: tuple
    atoms: tuple


@dataclass(frozen=True)
class UCQ:
    disjuncts: tuple


@dataclass(frozen=True)
class Mapping:
    source: object
    target: object


@dataclass(frozen=True)
class ProblemInstance:
    kind: str
    symbols: dict = field(compare=False)
    mappings: tuple = ()
    mode: str = "sound"


@dataclass(frozen=True)
class TransitionMonoid:
    alphabet: tuple
    elements: tuple
    witnesses: tuple
    identity_index: int
    _index_of: dict = field(compare=False)
    _right_mul: dict = field(compare=False)


@dataclass(frozen=True)
class SynthesisBounds:
    atom_bound: int
    disjunct_bound: int
    variable_bound: int


@dataclass
class Check:
    contained: bool
    nonempty: bool
    reverse_contained: object = None
    witness: object = None
    separating: object = None
    reverse_separating: object = None
    disjuncts: object = None


@dataclass
class CaptureResult:
    mode: str
    per_mapping: list


@dataclass
class SearchStats:
    mode: str
    monoid_size: object = None
    view_kind: object = None
    assignments_tried: int = 0
    prefixes_pruned: int = 0
    checks: int = 0
    candidates_per_symbol: dict = field(default_factory=dict)
    elapsed: float = 0.0


@dataclass
class SynthesisReport:
    outcome: str
    views: object
    checks: object
    stats: SearchStats
    views_regex: object = None
    all_views: object = None
    all_views_regex: object = None
    bounds: object = None
    monoid: object = field(default=None, repr=False)


FROZEN = {
    model.REmpty: REmpty,
    model.REps: REps,
    model.RSym: RSym,
    model.RCat: RCat,
    model.RAlt: RAlt,
    model.RStar: RStar,
    model.SymbolId: SymbolId,
    model.Atom: Atom,
    model.CQ: CQ,
    model.UCQ: UCQ,
    model.Mapping: Mapping,
    model.ProblemInstance: ProblemInstance,
    NewMonoid: TransitionMonoid,
    NewBounds: SynthesisBounds,
}
MUTABLE = {
    report.Check: Check,
    report.CaptureResult: CaptureResult,
    report.SearchStats: SearchStats,
    report.SynthesisReport: SynthesisReport,
}
REFEREE = {**FROZEN, **MUTABLE}


def old(value):
    """``value`` with every record replaced by its referee twin."""
    twin = REFEREE.get(type(value))
    if twin is not None:
        return twin(*[old(getattr(value, name)) for name in type(value).__slots__])
    if isinstance(value, (tuple, list, frozenset)):
        return type(value)(old(v) for v in value)
    if isinstance(value, dict):
        return {old(k): old(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Seeded values, drawn from small spaces so that equal pairs are common
# ---------------------------------------------------------------------------


def regex(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([model.REmpty, model.REps, lambda: model.RSym(rng.choice("ab"))])()
    node = rng.choice([model.RCat, model.RAlt, model.RStar])
    if node is model.RStar:
        return node(regex(rng, depth - 1))
    return node(tuple(regex(rng, depth - 1) for _ in range(rng.randint(1, 2))))


def atom(rng):
    return model.Atom(rng.choice("rs"), tuple(rng.choice("xy") for _ in range(rng.randint(1, 2))))


def cq(rng):
    return model.CQ(("x",), tuple(atom(rng) for _ in range(rng.randint(1, 2))))


def ucq(rng):
    return model.UCQ(tuple(cq(rng) for _ in range(rng.randint(1, 2))))


def mapping(rng):
    query = regex if rng.random() < 0.5 else ucq
    return model.Mapping(query(rng), query(rng))


def symbol(rng):
    return model.SymbolId(rng.choice("ab"), rng.choice(["source", "target"]), rng.randint(1, 2))


def instance(rng):
    symbols = {s.name: s for s in (symbol(rng) for _ in range(rng.randint(0, 2)))}
    mappings = tuple(mapping(rng) for _ in range(rng.randint(1, 2)))
    return model.ProblemInstance(
        rng.choice(model.KINDS), symbols, mappings, rng.choice(["sound", "exact"])
    )


def monoid(rng):
    elements = tuple((rng.randint(0, 1), 1) for _ in range(rng.randint(1, 2)))
    return NewMonoid(
        ("a",), elements, tuple(("a",) * i for i in range(len(elements))), 0,
        {e: i for i, e in enumerate(elements)}, {(0, "a"): rng.randint(0, len(elements) - 1)},
    )


def bounds(rng):
    return NewBounds(*(rng.randint(0, 1) for _ in range(3)))


def word(rng):
    return rng.choice([None, (), ("a",), ("a", "b")])


def check(rng):
    return report.Check(
        rng.random() < 0.5, rng.random() < 0.5, rng.choice([None, True, False]),
        word(rng), word(rng), word(rng), rng.choice([None, 1, 2]),
    )


def capture(rng):
    return report.CaptureResult(
        rng.choice(["sound", "exact"]), [check(rng) for _ in range(rng.randint(0, 1))]
    )


def stats(rng):
    return report.SearchStats(
        rng.choice(["sound", "exact"]), rng.choice([None, 3]), rng.choice([None, "cq"]),
        rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
        rng.choice([{}, {"a": 2}]), rng.choice([0.0, 0.5]),
    )


def synthesis_report(rng):
    found = rng.random() < 0.5
    views = {"a": frozenset(rng.sample(range(3), rng.randint(0, 2)))} if found else None
    return report.SynthesisReport(
        "found" if found else "not-found",
        views,
        capture(rng) if found else None,
        stats(rng),
        views_regex={"a": regex(rng, 1)} if found else None,
        all_views=[views] if found and rng.random() < 0.5 else None,
        bounds=bounds(rng) if rng.random() < 0.3 else None,
        monoid=monoid(rng) if rng.random() < 0.5 else None,
    )


DRAWS = [regex, atom, cq, ucq, mapping, symbol, instance, monoid, bounds,
         check, capture, stats, synthesis_report]


def pool(seed, per_kind=24):
    rng = random.Random(seed)
    return [draw(rng) for draw in DRAWS for _ in range(per_kind)]


# ---------------------------------------------------------------------------
# The comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_equality_and_hash_match_the_dataclasses(seed):
    values = pool(seed)
    twins = [old(v) for v in values]
    assert {type(v) for v in values} == set(REFEREE)
    equal_pairs = 0
    for a, a_old in zip(values, twins):
        if type(a) in FROZEN:
            assert hash(a) == hash(a_old)
        else:
            with pytest.raises(TypeError):
                hash(a)
            with pytest.raises(TypeError):
                hash(a_old)
        for b, b_old in zip(values, twins):
            assert (a == b) is (a_old == b_old)
            assert (a != b) is (a_old != b_old)
            equal_pairs += a is not b and a == b
    assert equal_pairs > 100  # the draws do collide


def test_equality_is_type_sensitive():
    p = (model.RSym("a"), model.RSym("b"))
    assert model.REps() != model.REmpty() and model.REps() == model.EPS
    assert model.RAlt(p) != model.RCat(p) and model.RAlt(p) == model.RAlt(p)
    assert model.RSym("a") != "a" and model.Atom("r", ("x",)) != ("r", ("x",))
    assert (REps() != REmpty()) and (RAlt(old(p)) != RCat(old(p)))
    # the dataclass hash leaves the type out, and so does the record's
    assert hash(model.RAlt(p)) == hash(model.RCat(p)) == hash(RCat(old(p)))


@pytest.mark.parametrize("seed", [3, 4])
def test_atoms_order_as_the_dataclasses_do(seed):
    rng = random.Random(seed)
    atoms = [atom(rng) for _ in range(40)]
    assert [old(a) for a in sorted(atoms)] == sorted(old(a) for a in atoms)
    for a in atoms:
        for b in atoms:
            a_old, b_old = old(a), old(b)
            assert (a < b, a <= b, a > b, a >= b) == (
                a_old < b_old, a_old <= b_old, a_old > b_old, a_old >= b_old
            )
    with pytest.raises(TypeError):
        _ = atoms[0] < model.CQ(("x",), (atoms[0],))


@pytest.mark.parametrize("seed", [5])
def test_repr_matches_the_dataclasses(seed):
    for value in pool(seed):
        assert repr(value) == repr(old(value))


def test_fields_left_out_of_comparison():
    a, b = model.RSym("a"), model.RSym("b")
    maps = (model.Mapping(a, b),)
    one = model.ProblemInstance("rpq", {"a": model.SymbolId("a", "source")}, maps)
    other = model.ProblemInstance("rpq", {}, maps)
    assert one == other and hash(one) == hash(other)
    assert old(one) == old(other) and "symbols={}" in repr(other)
    m1 = NewMonoid(("a",), ((1,),), ((),), 0, {(1,): 0}, {(0, "a"): 0})
    m2 = NewMonoid(("a",), ((1,),), ((),), 0, {}, {})
    assert m1 == m2 and hash(m1) == hash(m2) and old(m1) == old(m2)
    assert "_right_mul={(0, 'a'): 0}" in repr(m1)
    # a report's monoid is compared but not shown
    stats_ = report.SearchStats("sound")
    r1 = report.SynthesisReport("not-found", None, None, stats_, monoid=m1)
    r2 = report.SynthesisReport("not-found", None, None, stats_)
    assert r1 != r2 and old(r1) != old(r2)
    assert repr(r1) == repr(r2) == repr(old(r1))


@pytest.mark.parametrize("seed", [6])
def test_frozen_records_refuse_assignment_and_mutable_ones_take_it(seed):
    for value in pool(seed, per_kind=4):
        names = type(value).__slots__
        if type(value) in FROZEN:
            for name in (*names, "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
            for name in names:
                with pytest.raises(AttributeError):
                    delattr(value, name)
        else:
            twin = old(value)
            for name in names:
                setattr(value, name, "changed")
                setattr(twin, name, "changed")
                assert getattr(value, name) == "changed" and old(value) == twin


@pytest.mark.parametrize("seed", [7])
def test_records_copy_and_pickle(seed):
    for value in pool(seed, per_kind=4):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: model.SymbolId("a", "view"), "bad symbol kind 'view'"),
        (lambda: model.SymbolId("a", "source", 0), "symbol a has non-positive arity"),
        (lambda: model.UCQ(()), "a UCQ needs at least one disjunct"),
        (
            lambda: model.UCQ((model.CQ(("x",), ()), model.CQ(("x", "y"), ()))),
            "UCQ disjuncts disagree on head arity",
        ),
        (lambda: model.ProblemInstance("lq", {}, ()), "unknown kind 'lq'"),
        (lambda: model.ProblemInstance("rpq", {}, (), "tight"), "unknown mode 'tight'"),
        (lambda: model.ProblemInstance("rpq", {}), "an instance needs at least one mapping"),
    ],
)
def test_constructors_validate(build, message):
    with pytest.raises(InputError, match=message):
        build()
