"""View existence and synthesis for regular path queries.

The search space follows the congruence-class characterization: if any
views capture a mapping set, then views that are single congruence classes
of the target automaton (sound mode) or unions of classes (exact mode)
also capture it, so enumerating those is complete.  With several mappings
the target automaton is the disjoint union of their compiled targets: one
monoid serves all mappings, and each mapping is checked on its own.

The search decides each candidate in the monoid (:class:`_ClassCapture`):
nonemptiness and sound containment follow from the relations the classes
induce on the target automaton, exact mode's reverse containment from the
inclusion search ``first_unaccepted`` stepped by the monoid's product.
Automata are built only for the final report and for :func:`capture_check`,
which stays the referee of the monoid.
Sound containment is antitone in the views and nonemptiness depends only
on which views are empty, while reverse containment only grows with them
(Calvanese et al., PODS 1999).  So a symbol's unions are walked level by
level as in Apriori (Agrawal and Srikant, VLDB 1994), losing no solution.
"""

from __future__ import annotations

import itertools
import math
import time

from .errors import BudgetExceeded, InputError
from .model import EMPTY as EMPTY_REGEX
from .model import Mapping, ProblemInstance, Regex, UCQ, Word
from .automata import (
    DEFAULT_DET_CAP,
    NWA,
    bits,
    compile_regex,
    difference_witness,
    first_unaccepted,
    image,
    is_empty,
    mask,
    nwa_to_regex,
    substitute,
    union_nwa,
)
from .congruence import (
    DEFAULT_MONOID_CAP,
    TransitionMonoid,
    class_automaton,
    transition_monoid,
)
from .report import CaptureResult, Check, SearchStats, SynthesisReport
from .search import DEFAULT_SEARCH_BUDGET, search
from .twoway import fold_difference

# A class view is a set of monoid element indices, the union of their
# congruence classes; the empty set is the empty view.
ClassViews = dict[str, frozenset[int]]


def realize_views(views: ClassViews, monoid: TransitionMonoid) -> dict[str, "NWA | None"]:
    """Each class view's language as an NWA (``None`` for the empty view)."""
    return {
        sym: class_automaton(monoid, classes) if classes else None
        for sym, classes in views.items()
    }


# ---------------------------------------------------------------------------
# Capture checking
# ---------------------------------------------------------------------------

class _MappingChecker:
    """Pre-compiled automata for one mapping: the automata capture check.

    Both directions compare one side's words against the other side's
    closure: the language itself for RPQs, its fold closure for 2RPQs
    (Calvanese, De Giacomo, Lenzerini and Vardi, KR 2000), built only for
    the words of the side it is compared with.
    """

    def __init__(self, mapping: Mapping, source_syms, target_alpha, det_cap, two_way=False):
        if isinstance(mapping.source, UCQ):
            raise InputError("path-query capture check got a relational mapping")
        self.source_syms = frozenset(source_syms)
        self.a_s = compile_regex(mapping.source)
        self.a_t = compile_regex(mapping.target)
        self.det_cap = det_cap
        self.two_way = two_way
        self.alphabet = frozenset(
            (self.a_s.alphabet - self.source_syms) | self.a_t.alphabet | set(target_alpha)
        )

    def substituted(self, realized: dict[str, "NWA | None"]) -> NWA:
        return substitute(self.a_s, realized, self.source_syms, self.alphabet)

    def _difference(self, a: NWA, b: NWA) -> "Word | None":
        """A shortest word of ``a`` outside ``b``'s closure."""
        if self.two_way:
            return fold_difference(a, b, cap=self.det_cap)
        return difference_witness(a, b, cap=self.det_cap)

    def separating(self, sub: NWA) -> "Word | None":
        """A shortest word of ``sub`` outside the target; ``None`` when contained."""
        return self._difference(sub, self.a_t)

    def reverse_separating(self, sub: NWA) -> "Word | None":
        """A shortest target word outside ``sub``; ``None`` when contained."""
        return self._difference(self.a_t, sub)

    def check(self, realized: dict[str, "NWA | None"], mode: str) -> Check:
        sub = self.substituted(realized)
        empty, witness = is_empty(sub)
        separating = self.separating(sub)
        record = Check(
            contained=separating is None,
            nonempty=not empty,
            witness=witness,
            separating=separating,
        )
        if mode == "exact":
            rev = self.reverse_separating(sub)
            record.reverse_contained = rev is None
            record.reverse_separating = rev
        return record


def _checkers(instance: ProblemInstance, det_cap: int) -> list[_MappingChecker]:
    """One automata capture check per mapping of a path-query instance."""
    return [
        _MappingChecker(
            m,
            instance.source_names,
            instance.target_names,
            det_cap,
            two_way=instance.kind == "2rpq",
        )
        for m in instance.mappings
    ]


def capture_check(
    instance: ProblemInstance,
    views: dict[str, "NWA | None"],
    mode: "str | None" = None,
    det_cap: int = DEFAULT_DET_CAP,
    *,
    checkers: "list[_MappingChecker] | None" = None,
) -> CaptureResult:
    """Check whether views capture every mapping of a path-query instance.

    ``views`` maps each source symbol to its view language (``None`` for
    the empty view); :func:`realize_views` gives those of class views.
    ``checkers`` are the instance's compiled :func:`_checkers` at
    ``det_cap``, for a caller that holds them already.
    """
    if instance.kind not in ("rpq", "2rpq"):
        raise InputError("capture_check handles path-query instances only")
    mode = mode or instance.mode
    instance.require_views(views)
    if checkers is None:
        checkers = _checkers(instance, det_cap)
    return CaptureResult(mode=mode, per_mapping=[c.check(views, mode) for c in checkers])


class _ClassCapture:
    """Capture of one mapping by class views, decided in the monoid.

    The monoid is that of ``m``, the disjoint union of the compiled (and so
    trim) targets of all the instance's mappings; this mapping's target
    ``T`` is the block of ``m`` from state ``offset`` on.  Every word of a
    congruence class drives ``m`` by the class's relation, so a
    concatenation of classes and other labels drives it by the product of
    their relations, which keeps a set of ``T``'s states inside ``T``.
    Walking the source automaton while carrying the set of ``T`` states
    reachable from ``T``'s initial states therefore reaches a final source
    state with set ``S`` exactly when some word of the substituted source
    leads ``T`` to ``S``: :meth:`capture` decides nonemptiness and sound
    containment so.  Given the monoid's ``left_factors`` (exact mode), the
    tables of :meth:`reverse_contained` are built too, and it decides exact
    mode's reverse containment.  No automaton is built per candidate.
    """

    def __init__(
        self, checker: _MappingChecker, m: NWA, monoid: TransitionMonoid, offset: int,
        left_factors: "list[list[int]] | None",
    ):
        self.class_rows = monoid.elements
        target = checker.a_t
        self.start = mask(target.initials) << offset
        self.target_finals = mask(target.finals) << offset
        a_s = checker.a_s
        self.source_initials = a_s.initials
        self.source_finals = a_s.finals
        self.symbols = a_s.labels_present() & checker.source_syms
        # per source state: (source symbol, None, q) or (None, m's rows of the label, q)
        self.edges: list[list] = [[] for _ in range(a_s.n_states)]
        for p, x, q in a_s.transitions:
            if x in checker.source_syms:
                self.edges[p].append((x, None, q))
            else:
                self.edges[p].append((None, m.rows[x], q))
        if left_factors is None:
            return
        # N's state (p, x) of reverse_contained is bit p * width + x
        self.fresh = fresh = len(monoid.elements)
        self.width = width = fresh + 1
        self.identity = identity = monoid.identity_index
        self.closing = [
            [(sym, q * width + fresh) for sym, rows, q in out if rows is None] for out in self.edges
        ]
        self.reverse_start = sum(1 << (p * width + fresh) for p in a_s.initials)
        self.reverse_accepting = sum(1 << (p * width + fresh) for p in a_s.finals)
        self.fresh_bits = sum(1 << (p * width + fresh) for p in range(a_s.n_states))
        self.left_factors, self.target = left_factors, target
        self.letter_rows = {}
        for b in target.alphabet:
            rows = [0] * (a_s.n_states * width)
            for p in range(a_s.n_states):
                base = p * width
                if b in monoid.alphabet:
                    for x in range(fresh):
                        rows[base + x] = 1 << (base + monoid.right_multiply(x, b))
                    rows[base + fresh] = 1 << (base + monoid.right_multiply(identity, b))
                if b in a_s.alphabet and b not in checker.source_syms:
                    for q in bits(a_s.rows[b][p]):
                        rows[base + fresh] |= 1 << (q * width + fresh)
            self.letter_rows[b] = tuple(rows)

    def capture(self, views: ClassViews) -> tuple[bool, bool]:
        """(nonempty, contained) of the substituted source.

        A symbol without a view, or with the empty view, has no words.  The
        walk stops at the first word outside the target.
        """
        class_rows = self.class_rows
        edges = self.edges
        seen = {(p, self.start) for p in self.source_initials}
        stack = list(seen)
        nonempty = False
        while stack:
            p, reach = stack.pop()
            if p in self.source_finals:
                nonempty = True
                if not reach & self.target_finals:
                    return True, False
            for sym, rows, q in edges[p]:
                if sym is None:
                    images = (image(rows, reach),)
                else:
                    images = {image(class_rows[e], reach) for e in views.get(sym, ())}
                for nxt in images:
                    if (q, nxt) not in seen:
                        seen.add((q, nxt))
                        stack.append((q, nxt))
        return nonempty, True

    def _live(self, union: frozenset[int]) -> int:
        """The elements with a right multiple in ``union``, as a bitmask:
        a backward walk over the right multiplication."""
        live, stack = 0, list(union)
        while stack:
            y = stack.pop()
            if not live >> y & 1:
                live |= 1 << y
                stack.extend(self.left_factors[y])
        return live

    def reverse_contained(self, views: ClassViews, cap: int) -> bool:
        """Whether every word of the target ``T`` is a word of the
        substituted source ``S[V]``.

        ``S[V]`` is read by an implicit automaton ``N`` whose states are
        pairs ``(p, x)``: ``p`` is a source state and ``x`` the monoid
        element of the view factor read so far, or ``fresh`` when no factor
        is open.  A target letter ``b`` takes ``x`` to ``x·b`` by the
        monoid's right multiplication (``fresh`` reads as the identity, and
        a letter that generates nothing ends the factor); from ``fresh``,
        ``b`` also follows the source's own ``b`` edges, which read target
        letters directly.  ``(p, x)`` closes to ``(q, fresh)`` through every
        source edge ``p -a-> q`` whose view holds ``x`` (the identity when
        ``fresh``), transitively, so a view holding the identity class reads
        the empty factor.  ``N`` accepts in ``(final source state, fresh)``.
        An open ``(p, x)`` none of whose right multiples ``x·y`` lies in
        the union of the views on ``p``'s source edges can never close, so
        it is dropped from every set; ``(p, fresh)`` always stays.

        ``T`` lies inside ``S[V]`` exactly when ``first_unaccepted`` of
        ``T`` against the sets of ``N`` states finds no word; ``cap`` bounds
        the distinct sets one check meets (raising :class:`CapExceeded`).
        """
        width, fresh, identity = self.width, self.fresh, self.identity
        closing = self.closing

        def close(members: int) -> int:
            stack = list(bits(members))
            while stack:
                p, x = divmod(stack.pop(), width)
                element = identity if x == fresh else x
                for sym, j in closing[p]:
                    if not members >> j & 1 and element in views.get(sym, ()):
                        members |= 1 << j
                        stack.append(j)
            return members

        live = self.fresh_bits
        for p, out in enumerate(closing):
            union = frozenset().union(*(views.get(sym, ()) for sym, _ in out))
            live |= self._live(union) << (p * width)
        rows, accepting = self.letter_rows, self.reverse_accepting
        return first_unaccepted(
            self.target, close(self.reverse_start),
            lambda members, b: close(image(rows[b], members) & live),
            lambda members: members & accepting, cap, "determinization",
        ) is None


# ---------------------------------------------------------------------------
# Synthesis search
# ---------------------------------------------------------------------------

class _Engine:
    """Search context and counters shared by synthesis and maximization."""

    def __init__(
        self,
        instance: ProblemInstance,
        mode: str,
        det_cap: int = DEFAULT_DET_CAP,
        monoid_cap: int = DEFAULT_MONOID_CAP,
    ):
        if instance.kind != "rpq":
            raise InputError(f"synthesis supports kind rpq only, not {instance.kind}")
        if mode not in ("sound", "exact"):
            raise InputError(f"unknown mode {mode!r}")
        self.mode = mode
        self.det_cap = det_cap
        self.occurring = instance.occurring_source_symbols()
        self.checkers = _checkers(instance, det_cap)
        # the monoid automaton, on the compiled targets (trim, see compile_regex),
        # reads every label a source walk reads outside the source symbols;
        # only the target symbols generate the monoid
        labels = frozenset().union(*(c.alphabet for c in self.checkers))
        m = union_nwa([c.a_t for c in self.checkers], alphabet=labels)
        self.monoid = transition_monoid(m, generators=instance.target_names, cap=monoid_cap)
        offsets = itertools.accumulate((c.a_t.n_states for c in self.checkers), initial=0)
        left_factors = None
        if mode == "exact":
            # y's left factors, shared by all mappings: each x with x·b = y for a generator b
            left_factors = [[] for _ in self.monoid.elements]
            for x, b in itertools.product(range(len(left_factors)), self.monoid.alphabet):
                left_factors[self.monoid.right_multiply(x, b)].append(x)
        self.class_checks = [
            _ClassCapture(c, m, self.monoid, offset, left_factors)
            for c, offset in zip(self.checkers, offsets)
        ]
        self.stats = SearchStats(mode=mode, monoid_size=len(self.monoid.elements))

    def verdict(self, views: ClassViews, depth: int = -1) -> tuple[bool, bool, bool]:
        """(contained, stays, nonempty) of the views of the first ``depth + 1``
        symbols, a missing view being empty.  ``stays``: a larger view of the
        last may still capture.  Containment is antitone, and once that view
        is nonempty, growing it leaves empty a rewriting of assigned symbols."""
        grown = depth >= 0 and bool(views.get(self.occurring[depth]))
        stays = nonempty = True
        for cc in self.class_checks:
            some, contained = cc.capture(views)
            if not contained:
                return False, False, False
            nonempty = nonempty and some
            stays = stays and (some or not grown or not cc.symbols <= views.keys())
        return True, stays, nonempty

    def assignment_ok(self, views: ClassViews) -> tuple[bool, bool]:
        """(stays, captures) by :meth:`verdict` and, in exact mode, each
        mapping's :meth:`_ClassCapture.reverse_contained`."""
        full = {sym: views.get(sym, frozenset()) for sym in self.occurring}
        _, stays, nonempty = self.verdict(full, len(self.occurring) - 1)
        if nonempty and self.mode == "exact":
            return stays, all(cc.reverse_contained(full, self.det_cap) for cc in self.class_checks)
        return stays, nonempty

    def options(self, _sym: str):
        """A symbol's views in canonical order (by size, then lexicographic):
        the empty view, single classes, and in exact mode each larger union
        whose subsets one class smaller all stayed.  A view that did not stay
        rules out every larger one (see :meth:`verdict`), so every union of a
        solution is offered; the unions left out are counted as pruned."""
        m = len(self.monoid.elements)
        top = 1 if self.mode == "sound" else m
        stayed, size = [()] if (yield frozenset()) else [], 0
        covered = 1  # the unions of at most ``size`` classes
        while stayed and size < top:
            size += 1
            level = _grow(stayed) if size > 1 else [(e,) for e in range(m)]
            unions = math.comb(m, size)
            covered += unions
            self.stats.prefixes_pruned += unions - len(level)
            stayed = []
            for union in level:
                if (yield frozenset(union)):
                    stayed.append(union)
        # every union of more than ``size`` and at most ``top`` classes
        self.stats.prefixes_pruned += (2**m if top == m else 1 + m) - covered


def _grow(stayed: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The unions one class larger all of whose subsets one class smaller
    stayed, in lexicographic order like ``stayed``: each joins two of those
    subsets that share all but their last class."""
    kept = set(stayed)
    return [
        head + pair
        for head, group in itertools.groupby(stayed, lambda union: union[:-1])
        for pair in itertools.combinations([union[-1] for union in group], 2)
        if all(head[:j] + head[j + 1 :] + pair in kept for j in range(len(head)))
    ]


def synthesize(
    instance: ProblemInstance,
    mode: "str | None" = None,
    *,
    find_all: bool = False,
    maximal: bool = False,
    det_cap: int = DEFAULT_DET_CAP,
    monoid_cap: int = DEFAULT_MONOID_CAP,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> SynthesisReport:
    """Search for capturing views; see :func:`synthesize_sound` and
    :func:`synthesize_exact` for the two modes.

    With ``find_all`` every passing assignment is collected (subject to the
    budget), in canonical order; with ``maximal`` each result is greedily
    extended to a maximal capturing view set before reporting.
    """
    mode = mode or instance.mode
    started = time.monotonic()
    engine = _Engine(instance, mode, det_cap=det_cap, monoid_cap=monoid_cap)
    stats = engine.stats

    # a capturing rewriting, sound or exact, is nonempty and contained in
    # its target, so an empty target admits none
    for checker in engine.checkers:
        empty, _ = is_empty(checker.a_t)
        if empty:
            stats.elapsed = time.monotonic() - started
            return SynthesisReport("not-found", None, None, stats, monoid=engine.monoid)

    def accept(views: ClassViews) -> "tuple[bool, ClassViews | None]":
        stats.assignments_tried += 1
        if stats.assignments_tried > budget:
            raise BudgetExceeded("synthesis search", budget)
        stays, captures = engine.assignment_ok(views)
        return stays, dict(views) if captures else None

    def prefix_ok(partial: ClassViews) -> tuple[bool, bool]:
        contained, stays, _ = engine.verdict(partial, len(partial) - 1)
        stats.prefixes_pruned += not contained
        return stays, contained

    solutions = search(engine.occurring, engine.options, prefix_ok, accept, find_all)

    if maximal and solutions:
        # distinct seeds can grow into the same maximal views
        maximized = (_maximize_with_engine(engine, views) for views in solutions)
        solutions = list({frozenset(v.items()): v for v in maximized}.values())

    stats.elapsed = time.monotonic() - started
    if not solutions:
        return SynthesisReport("not-found", None, None, stats, monoid=engine.monoid)

    best = solutions[0]
    realized = realize_views(best, engine.monoid)
    report = SynthesisReport(
        outcome="found",
        views=best,
        checks=capture_check(instance, realized, mode, det_cap, checkers=engine.checkers),
        stats=stats,
        views_regex=views_to_regex(realized),
        monoid=engine.monoid,
    )
    if find_all:
        report.all_views = solutions
        report.all_views_regex = [report.views_regex] + [
            views_to_regex(realize_views(v, engine.monoid)) for v in solutions[1:]
        ]
    return report


def synthesize_sound(instance: ProblemInstance, **kwargs) -> SynthesisReport:
    """First (canonically least) sound-capturing view assignment, else not-found.

    Complete: when no assignment of empty/congruence-class views exists, no
    views in any language exist.
    """
    return synthesize(instance, "sound", **kwargs)


def synthesize_exact(instance: ProblemInstance, **kwargs) -> SynthesisReport:
    """Exact synthesis: views are empty or unions of congruence classes."""
    return synthesize(instance, "exact", **kwargs)


# ---------------------------------------------------------------------------
# Maximal views
# ---------------------------------------------------------------------------

def maximize(
    instance: ProblemInstance,
    views: ClassViews,
    mode: str = "sound",
    *,
    det_cap: int = DEFAULT_DET_CAP,
    monoid_cap: int = DEFAULT_MONOID_CAP,
) -> ClassViews:
    """Greedily add congruence classes while capture still holds.

    The result is maximal: once a class addition breaks capture it stays
    broken under any larger views, so a single canonical pass suffices.
    Raises when the seed views do not capture.
    """
    engine = _Engine(instance, mode, det_cap=det_cap, monoid_cap=monoid_cap)
    if not engine.assignment_ok(views)[1]:
        raise InputError("maximize needs views that already capture the mappings")
    return _maximize_with_engine(engine, views)


def _maximize_with_engine(engine: _Engine, views: ClassViews) -> ClassViews:
    # Growing capturing views keeps them nonempty and, in exact mode, keeps
    # the reverse containment, so a candidate captures exactly when it is
    # still contained: the monoid decides that, with no automaton built.
    current = {**dict.fromkeys(engine.occurring, frozenset()), **views}
    for sym in engine.occurring:
        for index in range(len(engine.monoid.elements)):
            if index in current[sym]:
                continue
            candidate = {**current, sym: current[sym] | {index}}
            if engine.verdict(candidate)[0]:
                current = candidate
    return current


# ---------------------------------------------------------------------------
# Presentation
# ---------------------------------------------------------------------------

def views_to_regex(realized: dict[str, "NWA | None"]) -> dict[str, Regex]:
    """Render each view language, as :func:`realize_views` gives it, as a
    regex (state elimination on its NWA)."""
    return {
        sym: EMPTY_REGEX if nwa is None else nwa_to_regex(nwa)
        for sym, nwa in realized.items()
    }
