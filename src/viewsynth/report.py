"""The capture verdict and the synthesis report, for both query families.

The paper's capture condition is the same for path and relational queries:
under the views, each source query must be a nonempty sound (or exact)
rewriting of its target query.  One record per mapping states that
verdict.  A JSON key appears because its field is set, with two fixed
shapes: a path record (one without ``disjuncts``) always carries
``witness``, ``null`` for an empty rewriting, and a relational report (one
with ``bounds``) lists its checks as a bare list of records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .model import Word

if TYPE_CHECKING:
    from .congruence import TransitionMonoid
    from .cq_synth import SynthesisBounds


@dataclass
class Check:
    """Capture record for one mapping under given views.

    Path records carry words: a ``witness`` of the rewriting, a
    ``separating`` word of the rewriting outside the target and a
    ``reverse_separating`` target word outside the rewriting.  Relational
    records carry the number of ``disjuncts`` of the rewriting.
    ``reverse_contained`` is set in exact mode only.
    """

    contained: bool
    nonempty: bool
    reverse_contained: "bool | None" = None
    witness: "Word | None" = None
    separating: "Word | None" = None
    reverse_separating: "Word | None" = None
    disjuncts: "int | None" = None

    def ok(self, mode: str) -> bool:
        good = self.contained and self.nonempty
        if mode == "exact":
            good = good and bool(self.reverse_contained)
        return good

    def to_json(self):
        out = {"contained": self.contained, "nonempty": self.nonempty}
        if self.disjuncts is None:  # a path record
            out["witness"] = list(self.witness) if self.witness is not None else None
        else:
            out["disjuncts"] = self.disjuncts
        if self.separating is not None:
            out["separating"] = list(self.separating)
        if self.reverse_separating is not None:
            out["reverse_separating"] = list(self.reverse_separating)
        if self.reverse_contained is not None:
            out["reverse_contained"] = self.reverse_contained
        return out


@dataclass
class CaptureResult:
    """The capture verdict over all mappings."""

    mode: str
    per_mapping: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok(self.mode) for c in self.per_mapping)

    def to_json(self):
        return {
            "ok": self.ok,
            "mode": self.mode,
            "mappings": [c.to_json() for c in self.per_mapping],
        }


@dataclass
class SearchStats:
    """Counters of one view search.  The JSON holds ``mode`` and whichever
    of ``monoid_size`` (path search) or ``view_kind`` (relational search)
    is set; the counters and the elapsed time are kept for tracing only,
    so JSON reports stay byte-identical across runs."""

    mode: str
    monoid_size: "int | None" = None
    view_kind: "str | None" = None
    assignments_tried: int = 0
    prefixes_pruned: int = 0
    checks: int = 0
    candidates_per_symbol: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self):
        out = {"mode": self.mode}
        if self.monoid_size is not None:
            out["monoid_size"] = self.monoid_size
        if self.view_kind is not None:
            out["view_kind"] = self.view_kind
        return out


@dataclass
class SynthesisReport:
    """Outcome of a view search.

    ``views`` maps each source symbol to its view in the search's own form.
    A path search also sets ``views_regex`` (and ``all_views_regex`` with
    ``all_views``) as their rendered languages and ``monoid``; a relational
    search sets ``bounds``.
    """

    outcome: str  # "found" | "not-found"
    views: "dict | None"
    checks: "CaptureResult | None"
    stats: SearchStats
    views_regex: "dict | None" = None
    all_views: "list[dict] | None" = None
    all_views_regex: "list[dict] | None" = None
    bounds: "SynthesisBounds | None" = None
    monoid: "TransitionMonoid | None" = field(default=None, repr=False)

    @property
    def found(self) -> bool:
        return self.outcome == "found"

    def to_json(self):
        def render(views):
            return {
                sym: v.render() if v is not None else "undefined"
                for sym, v in sorted(views.items())
            }

        views = self.views_regex if self.views_regex is not None else self.views
        all_views = self.all_views_regex if self.all_views_regex is not None else self.all_views
        checks = None
        if self.checks is not None:
            checks = self.checks.to_json()
            if self.bounds is not None:
                checks = checks["mappings"]
        out = {
            "outcome": self.outcome,
            "views": render(views) if views is not None else None,
            "checks": checks,
            "statistics": self.stats.to_json(),
        }
        if self.bounds is not None:
            out["bounds"] = self.bounds.to_json()
        if all_views is not None:
            out["all_views"] = [render(v) for v in all_views]
        return out
