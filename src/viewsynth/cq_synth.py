"""View existence and synthesis for conjunctive queries and their unions.

Candidate view bodies are enumerated up to the atom/disjunct/variable
bounds that make the guess-and-check argument complete: a capturing view
never needs more atoms than the sum, over the mappings, of the size of each
target's largest disjunct, more disjuncts than the total target disjunct
count, or more variables than its atoms can mention.  A body is kept only
if it is its own canonical form: its existentials are exactly e0..e(k-1)
and no renaming of them gives a smaller sorted tuple of atoms.  The
candidates of one atom count form a layer in ``render()`` order, which the
enumeration meets without sorting (``enumerate_view_candidates``).  Each
symbol's options are one lazy stream: the layers in order of atom count,
filtered by the search's local-soundness test, memoized by
``itertools.tee`` so that every prefix re-reads what is built and only the
first to run past it builds more.  A search that stops at its first
solution leaves the rest of that layer unbuilt.

**The bottom view.** For head arity n, K*ₙ is ``q(h0,…,h0)`` with every
target predicate applied to ``h0`` alone.  Every CQ or UCQ view V of
arity n contains K*ₙ: mapping all of V's variables to ``h0`` is a
containment mapping (Chandra and Merlin, STOC 1977).  Unfolding is
monotone, so replacing V by K*ₙ shrinks the substituted source, and
nonemptiness depends only on which views are defined.  So if views capture
soundly, so do the views that keep some symbols' views and replace each
other defined view by K*.  An assignment to the first symbols therefore
extends to a sound (and so to any exact) solution only if some completion
of the rest by {undefined, K*} captures soundly: 2^(unassigned) checks.
Without a target predicate of positive arity K* is unsafe, and the rest
complete as undefined only.

**Refuting by predicates.** A containment mapping sends every target atom
to an atom with the same predicate, so a target disjunct maps into an
unfolded source disjunct only if all its predicates occur there.  Those
are the source disjunct's own non-source predicates and the predicates of
the view bodies chosen for its source atoms, known before anything is
unfolded.  So each soundness test asks ``refuted_by_signature`` first: if
some unfolded disjunct holds no target disjunct's predicates, the
rewriting is not contained and the test fails without unfolding.  A
refutation is always right, and every test it does not refute is decided
by unfolding and containment mappings as before, so no verdict changes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from copy import copy
from dataclasses import asdict, dataclass

from .errors import BudgetExceeded, InputError
from .model import Atom, CQ, ProblemInstance, UCQ
from .report import CaptureResult, Check, SearchStats, SynthesisReport
from .search import DEFAULT_SEARCH_BUDGET, search

Hom = dict[str, str]

CqViews = dict[str, "CQ | UCQ | None"]  # None marks an undefined view


# ---------------------------------------------------------------------------
# Containment mappings
# ---------------------------------------------------------------------------

def find_hom(
    q_from: CQ, q_to: CQ, by_pred: "dict[str, list[Atom]] | None" = None
) -> "Hom | None":
    """A containment mapping from ``q_from`` onto ``q_to``.

    Head variables map positionally; every atom of ``q_from`` must land on
    an atom of ``q_to`` with the same predicate.  A mapping exists iff
    ``q_to`` is contained in ``q_from``.  ``by_pred`` is ``q_to``'s
    ``_atoms_by_pred``, for a caller that tries several ``q_from`` against
    one ``q_to``.
    """
    if len(q_from.head) != len(q_to.head):
        raise InputError("containment mapping needs equal head arities")
    binding: Hom = {}
    for u, v in zip(q_from.head, q_to.head):
        if binding.get(u, v) != v:
            return None
        binding[u] = v
    if by_pred is None:
        by_pred = _atoms_by_pred(q_to)

    atoms = list(q_from.atoms)

    def backtrack(i: int, bound: Hom) -> "Hom | None":
        if i == len(atoms):
            return bound
        atom = atoms[i]
        for image in by_pred.get(atom.pred, ()):
            local = dict(bound)
            ok = True
            for var, const in zip(atom.args, image.args):
                if local.get(var, const) != const:
                    ok = False
                    break
                local[var] = const
            if ok:
                result = backtrack(i + 1, local)
                if result is not None:
                    return result
        return None

    return backtrack(0, binding)


def _atoms_by_pred(q: CQ) -> dict[str, list[Atom]]:
    """The atoms of ``q`` grouped by predicate, in body order."""
    by_pred: dict[str, list[Atom]] = {}
    for a in q.atoms:
        by_pred.setdefault(a.pred, []).append(a)
    return by_pred


def cq_contained(q1: CQ, q2: CQ) -> bool:
    """q1 contained in q2 (a containment mapping from q2 onto q1 exists)."""
    return find_hom(q2, q1) is not None


def ucq_contains(q1, q2: UCQ) -> bool:
    """Every disjunct of ``q1`` contained in some disjunct of ``q2``.

    ``q1`` may be a UCQ or a plain list of CQs (a possibly-empty union).
    """
    disjuncts = q1.disjuncts if isinstance(q1, UCQ) else q1
    for d1 in disjuncts:
        by_pred = _atoms_by_pred(d1)
        if all(find_hom(d2, d1, by_pred) is None for d2 in q2.disjuncts):
            return False
    return True


# ---------------------------------------------------------------------------
# Substitution of views into source queries
# ---------------------------------------------------------------------------

def cq_substitute(q_s: UCQ, views: CqViews, source_preds: "set[str]") -> list[CQ]:
    """Replace source atoms by view bodies, distributing UCQ views.

    Disjuncts mentioning an undefined source predicate are dropped; the
    result may therefore be an empty union, returned as a plain list.
    Existential view variables are renamed freshly per atom occurrence.
    Repeated head variables in a view equate the corresponding atom
    arguments across the produced disjunct.
    """
    bodies = {
        pred: v.disjuncts if isinstance(v, UCQ) else (v,)
        for pred, v in views.items()
        if v is not None
    }
    out: list[CQ] = []
    for d in q_s.disjuncts:
        if any(a.pred in source_preds and a.pred not in bodies for a in d.atoms):
            continue
        per_atom: list[tuple["CQ | None", ...]] = []
        for atom in d.atoms:
            if atom.pred in source_preds:
                alternatives = bodies[atom.pred]
                arity = len(alternatives[0].head)
                if arity != len(atom.args):
                    raise InputError(
                        f"view for {atom.pred} has head arity {arity}, "
                        f"atom uses {len(atom.args)}"
                    )
                per_atom.append(alternatives)
            else:
                per_atom.append((None,))
        for combo in itertools.product(*per_atom):
            out.append(_splice_disjunct(d, combo))
    return out


def _splice_disjunct(d: CQ, combo) -> CQ:
    """``d`` with each atom whose ``combo`` entry is a view replaced by that
    view's body.  The source terms that a repeated view head variable
    equates are unioned first, each class written as its least member;
    then each body is written once, its head variables bound to those
    members and its existentials named afresh per occurrence."""
    parent: dict[str, str] = {}

    def find(v: str) -> str:
        while v in parent:
            v = parent[v]
        return v

    for atom, view_cq in zip(d.atoms, combo):
        if view_cq is None:
            continue
        first: dict[str, str] = {}
        for head_var, term in zip(view_cq.head, atom.args):
            seen = first.setdefault(head_var, term)
            if seen != term:
                ra, rb = find(seen), find(term)
                if ra != rb:
                    keep, drop = sorted((ra, rb))
                    parent[drop] = keep
    least = {v: find(v) for v in parent}

    atoms: list[Atom] = []
    for occurrence, (atom, view_cq) in enumerate(zip(d.atoms, combo)):
        if view_cq is None:
            if least:
                atom = Atom(atom.pred, tuple([least.get(v, v) for v in atom.args]))
            atoms.append(atom)
            continue
        bound = {h: least.get(t, t) for h, t in zip(view_cq.head, atom.args)}
        # existentials fresh per occurrence; '~' cannot appear in parsed names
        atoms.extend(
            Atom(b.pred, tuple([bound[v] if v in bound else f"{v}~{occurrence}" for v in b.args]))
            for b in view_cq.atoms
        )
    return CQ(tuple([least.get(v, v) for v in d.head]), tuple(atoms))


def refuted_by_signature(
    q_s: UCQ, views: CqViews, source_preds: "set[str]", target_sigs: "list[frozenset[str]]"
) -> bool:
    """Whether the predicates alone show ``cq_substitute(q_s, views,
    source_preds)`` not contained in a target whose disjuncts have the
    predicate sets ``target_sigs``.

    A containment mapping sends every target atom to an atom with the same
    predicate, so a target disjunct maps into an unfolded disjunct only if
    its predicates all occur there.  The unfolded disjunct's predicates are
    its source disjunct's own non-source predicates and those of the chosen
    view bodies; equating terms changes none.  If some unfolded disjunct has
    no target disjunct's predicates among its own, the union is not
    contained.  ``False`` says nothing either way.
    """
    body_sigs = {
        pred: {frozenset(d.predicates()) for d in v.disjuncts}
        if isinstance(v, UCQ)
        else (v.predicates(),)
        for pred, v in views.items()
        if v is not None
    }
    for d in q_s.disjuncts:
        own = {a.pred for a in d.atoms if a.pred not in source_preds}
        chosen = [body_sigs.get(a.pred) for a in d.atoms if a.pred in source_preds]
        if None in chosen:  # an undefined view: cq_substitute drops the disjunct
            continue
        for combo in itertools.product(*chosen):
            preds = own.union(*combo)
            if not any(sig <= preds for sig in target_sigs):
                return True
    return False


# ---------------------------------------------------------------------------
# Bounds and candidate enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisBounds:
    """Search bounds making the candidate enumeration complete.  The atom
    and disjunct bounds cap what the search enumerates; ``variable_bound``
    is only the reported ceiling, since each layer sizes its own variable
    pool by its atom count (``enumerate_view_candidates``)."""

    atom_bound: int      # sum over mappings of the largest target disjunct
    disjunct_bound: int  # total target disjuncts across mappings
    variable_bound: int

    def to_json(self):
        return asdict(self)


def bounds_for(instance: ProblemInstance) -> SynthesisBounds:
    atom_bound = 0
    disjunct_bound = 0
    for m in instance.mappings:
        target = m.target
        if not isinstance(target, UCQ):
            raise InputError("relational bounds need relational mappings")
        atom_bound += max(len(d.atoms) for d in target.disjuncts)
        disjunct_bound += len(target.disjuncts)
    arities = [instance.symbols[n].arity for n in instance.source_names] or [2]
    target_arities = [instance.symbols[n].arity for n in instance.target_names] or [2]
    variable_bound = max(arities) + atom_bound * max(target_arities)
    return SynthesisBounds(atom_bound, disjunct_bound, variable_bound)


def _head_patterns(arity: int) -> list[tuple[str, ...]]:
    """Canonical head tuples, repeats included (restricted-growth strings)."""
    patterns: list[tuple[str, ...]] = []

    def grow(prefix: list[int], used: int):
        if len(prefix) == arity:
            patterns.append(tuple(f"h{i}" for i in prefix))
            return
        for nxt in range(used + 1):
            grow(prefix + [nxt], max(used, nxt + 1))

    grow([], 0)
    return patterns


def enumerate_view_candidates(
    arity: int, target_schema: dict[str, int], n_atoms: int
) -> Iterator[CQ]:
    """Yield the canonical candidate CQ views with ``n_atoms`` atoms for one
    source predicate, in ``render()`` order, each distinct one once and as
    soon as it is built.  A consumer that stops early leaves the rest
    unbuilt, and a caller's filter that spends a budget stops it too.

    The order needs no sort.  Head patterns are taken in order of their
    rendering (at arity 11 or more, ``h10`` comes before ``h2``).  Within
    one head, ``combinations`` walks the sorted atom universe in
    lexicographic order, and that is ``render()`` order: ``(``, ``,`` and
    ``)`` sort below every identifier character, so comparing atoms as
    (predicate, arguments) tuples agrees with comparing their renderings.

    ``n_atoms`` atoms mention at most ``n_atoms`` times the largest target
    arity variables, head variables included, so that bounds the pool of
    existentials; each layer needs no more."""
    max_arity = max(target_schema.values(), default=2)
    for head in sorted(_head_patterns(arity), key=lambda head: CQ(head, ()).render()):
        head_vars = sorted(set(head))
        n_exist = max(0, n_atoms * max_arity - len(head_vars))
        pool = head_vars + [f"e{i}" for i in range(n_exist)]
        universe = sorted(
            Atom(pred, args)
            for pred in sorted(target_schema)
            for args in itertools.product(pool, repeat=target_schema[pred])
        )
        index = {(a.pred, a.args): i for i, a in enumerate(universe)}
        masks = [sum({1 << pool.index(v) for v in a.args}) for a in universe]
        n_head, head_bits = len(head_vars), (1 << len(head_vars)) - 1
        names = [sorted(pool[n_head:n_head + k]) for k in range(n_exist + 1)]
        for body in itertools.combinations(range(len(universe)), n_atoms):
            mask = 0
            for i in body:
                mask |= masks[i]
            em = mask >> n_head
            # skip unsafe bodies and those whose existentials are not e0..e(k-1)
            if ~mask & head_bits or em & (em + 1):
                continue
            # with at most one existential the only renaming is the identity
            if em < 2 or _least_relabelling(body, universe, index, head, names[em.bit_length()]):
                yield CQ(head, tuple(universe[i] for i in body))


def _least_relabelling(body: tuple[int, ...], universe, index, head, names) -> bool:
    """No renaming of the existentials gives a smaller sorted body.  The least
    renaming gives them the sorted ``names`` in order of first occurrence
    along its own sorted atoms, so renaming that way along each order of the
    body's atoms finds it: (atom count)! tries, not (existential count)!."""
    for order in itertools.permutations([universe[i] for i in body]):
        rename: dict[str, str] = {}
        for a in order:
            for v in a.args:
                if v not in rename and v not in head:
                    rename[v] = names[len(rename)]
        if rename == dict(zip(names, names)):  # the body itself
            continue
        image = sorted([index[a.pred, tuple([rename.get(v, v) for v in a.args])] for a in order])
        if tuple(image) < body:
            return False
    return True


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def capture_check_cq(
    instance: ProblemInstance, views: CqViews, mode: "str | None" = None
) -> CaptureResult:
    """Check whether views capture every mapping of a relational instance.

    ``views`` maps each occurring source symbol to its view (``None`` for
    an undefined view).
    """
    if instance.kind not in ("cq", "ucq"):
        raise InputError("capture_check_cq handles relational instances only")
    mode = mode or instance.mode
    instance.require_views(views)
    source_preds = set(instance.source_names)
    records = []
    for m in instance.mappings:
        distributed = cq_substitute(m.source, views, source_preds)
        contained = ucq_contains(distributed, m.target)
        record = Check(
            contained=contained,
            nonempty=bool(distributed),
            disjuncts=len(distributed),
        )
        if mode == "exact":
            record.reverse_contained = bool(distributed) and ucq_contains(
                m.target, UCQ(tuple(distributed))
            )
        records.append(record)
    return CaptureResult(mode, records)


def synthesize_cq(
    instance: ProblemInstance,
    mode: "str | None" = None,
    view_kind: str = "cq",
    budget: int = DEFAULT_SEARCH_BUDGET,
    find_all: bool = False,
) -> SynthesisReport:
    """Search candidate views in canonical order; first passing wins.

    ``view_kind`` selects single-CQ or UCQ views.  Each symbol's options are
    the undefined view, then its candidates in order of atom count and then
    of ``render()``, then, for UCQ views, unions of those candidates.  A
    candidate is kept only if it is locally sound (containment holds with
    all other symbols undefined; a violation there survives any extension,
    so the filter is lossless).  The options are one stream per symbol,
    memoized by ``itertools.tee``: each candidate is built, and its keep
    test made, only when some prefix first reaches it, and every later
    prefix re-reads it from the tee's buffer.  A layer is built whole only
    if the search walks past its end.  The unions are built from the
    complete list of single candidates, all built by the time the search
    reaches the first union.  A union with one disjunct contained in
    another is skipped: it equals the smaller union without that disjunct,
    which comes earlier and passes the same checks.  With ``find_all``
    every passing assignment is collected, subject to the budget.

    The search extends an assignment to the first symbols only while some
    completion of the others by the undefined view or the bottom view K*
    captures soundly, and answers not-found at once when no such completion
    of the empty assignment does (see the module docstring).  Sound capture
    is needed in exact mode and by ``find_all`` too, so that prune loses
    nothing in any mode.

    Sound mode without ``find_all`` never builds unions: a capturing UCQ
    view thins to any one of its disjuncts and still captures.  Sound
    containment survives, because (U)CQs are monotone and the substituted
    source loses disjuncts; nonemptiness survives, because it depends only
    on which views are defined.  That disjunct comes before every union in
    the option order, so even a search with unions finds a union-free first
    solution.  Exact existence genuinely differs between the two kinds.

    Each keep or prune test first compares predicate sets: a mapping whose
    unfolding would have a disjunct lacking the predicates of every target
    disjunct fails the test without being unfolded (see the module
    docstring).  Such a disjunct has no containment mapping from any
    target disjunct, so nothing is lost.

    ``budget`` bounds the checks the search makes: one per mapping in each
    keep or prune test, refuted by predicates or not, and one per full
    assignment it decides.  Candidates the search never reaches cost
    nothing.
    """
    if instance.kind not in ("cq", "ucq"):
        raise InputError(f"synthesize_cq supports cq/ucq instances, not {instance.kind}")
    if view_kind not in ("cq", "ucq"):
        raise InputError(f"unknown view kind {view_kind!r}")
    mode = mode or instance.mode
    bounds = bounds_for(instance)
    stats = SearchStats(mode=mode, view_kind=view_kind)
    source_preds = set(instance.source_names)
    occurring = instance.occurring_source_symbols()
    target_schema = {n: instance.symbols[n].arity for n in instance.target_names}
    target_sigs = [
        [frozenset(d.predicates()) for d in m.target.disjuncts] for m in instance.mappings
    ]

    def spend():
        stats.checks += 1
        if stats.checks > budget:
            raise BudgetExceeded("candidate view search", budget)

    def sound(views: CqViews, nonempty: bool) -> bool:
        """Containment (and, if asked, nonemptiness) for every mapping;
        symbols missing from ``views`` are undefined."""
        for m, sigs in zip(instance.mappings, target_sigs):
            spend()
            if refuted_by_signature(m.source, views, source_preds, sigs):
                return False
            distributed = cq_substitute(m.source, views, source_preds)
            if (nonempty and not distributed) or not ucq_contains(distributed, m.target):
                return False
        return True

    # K* needs a target atom of positive arity to be safe; without one a
    # symbol completes as undefined only
    safe = any(target_schema.values())
    completions = {
        sym: [None, _bottom_view(instance.symbols[sym].arity, target_schema)] if safe else [None]
        for sym in occurring
    }

    def bottom_completes(partial: CqViews) -> bool:
        rest = [sym for sym in occurring if sym not in partial]
        return any(
            sound({**partial, **dict(zip(rest, choice))}, nonempty=True)
            for choice in itertools.product(*(completions[sym] for sym in rest))
        )

    def accept(partial: CqViews):
        spend()
        assignment = dict(partial)
        result = capture_check_cq(instance, assignment, mode)
        return None, (assignment, result) if result.ok else None

    def candidates(sym: str):
        """The symbol's options in canonical order, each built and counted
        when the search first asks for it."""
        arity = instance.symbols[sym].arity
        built = stats.candidates_per_symbol

        def keep(view) -> bool:  # locally sound
            return sound({sym: view}, nonempty=False)

        built[sym] += 1
        yield None
        singles: list[CQ] = []
        for n_atoms in range(1, bounds.atom_bound + 1):
            for view in filter(keep, enumerate_view_candidates(arity, target_schema, n_atoms)):
                singles.append(view)
                built[sym] += 1
                yield view
        if view_kind == "ucq" and (mode == "exact" or find_all):
            # every single is built by now: the unions come after them all
            for size in range(2, bounds.disjunct_bound + 1):
                for combo in itertools.combinations(singles, size):
                    if any(cq_contained(a, b) for a, b in itertools.permutations(combo, 2)):
                        continue
                    view = UCQ(combo)
                    if keep(view):
                        built[sym] += 1
                        yield view

    stats.candidates_per_symbol = dict.fromkeys(occurring, 0)
    # copies of a tee that is never advanced share its buffer, so each option
    # is built once however many prefixes walk it
    streams = {sym: itertools.tee(candidates(sym), 1)[0] for sym in occurring}

    def options(sym: str):  # a generator, for the search's send(None)
        yield from copy(streams[sym])

    solutions = []
    if bottom_completes({}):
        solutions = search(
            occurring, options, lambda p: (None, bottom_completes(p)), accept, find_all
        )
    if not solutions:
        return SynthesisReport("not-found", None, None, stats, bounds=bounds)
    assignment, result = solutions[0]
    report = SynthesisReport("found", assignment, result, stats, bounds=bounds)
    if find_all:
        report.all_views = [views for views, _ in solutions]
    return report


def _bottom_view(arity: int, target_schema: dict[str, int]) -> CQ:
    """K*: one head variable repeated, and every target predicate on it alone."""
    atoms = tuple(Atom(pred, ("h0",) * n) for pred, n in sorted(target_schema.items()))
    return CQ(("h0",) * arity, atoms)
