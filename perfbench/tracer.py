"""Spans and counters around the engine's public functions.

The tracer replaces each listed function in its defining module and in every
``viewsynth`` module that imported it by name, so calls made through either
name are recorded, and puts every original back on exit.  Spans are kept in
memory (up to ``SPAN_CAP``) and written out by the caller after the run.  A
layer's self time is its spans' duration minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs; "NWA" stands for the automaton constructor
TRACED = {
    "cli": ("main",),
    "parser": ("parse_instance", "parse_views", "parse_regex"),
    "automata": (
        "compile_regex",
        "eliminate_epsilon",
        "trim",
        "product",
        "determinize",
        "complement",
        "is_empty",
        "difference_witness",
        "substitute",
        "nwa_to_regex",
        "union_nwa",
        "NWA",
    ),
    "congruence": ("transition_monoid", "class_automaton"),
    "rpq_synth": ("synthesize", "capture_check", "views_to_regex"),
    "cq_synth": (
        "synthesize_cq",
        "enumerate_view_candidates",
        "capture_check_cq",
        "cq_substitute",
        "ucq_contains",
        "find_hom",
    ),
    "twoway": ("fold_automaton", "two_to_one", "contains_2rpq"),
}

SPAN_FIELDS = ("request", "name", "parent", "start_ns", "end_ns")
SPAN_CAP = 100_000  # spans kept in memory; later ones are only counted


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Context manager that patches the traced functions while active."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.request = -1
        self._stack: list[list] = []  # [span index, child ns] per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "viewsynth" or name.startswith("viewsynth.")) and mod is not None
        }
        for mod_name, fns in TRACED.items():
            home = modules[f"viewsynth.{mod_name}"]
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if fn == "NWA":
                    cls = home.NWA
                    self._patch(cls, "__init__", self._wrap(name, cls.__init__))
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(name, original, _ON_RETURN.get(name))
                for mod in modules.values():
                    if getattr(mod, fn, None) is original:
                        self._patch(mod, fn, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, on_return=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans) if len(tracer.spans) < SPAN_CAP else -1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    tracer.spans.append((tracer.request, name, parent, start, end))
                else:
                    tracer.dropped_spans += 1
            if on_return is not None:
                on_return(tracer.counters, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes: int, scale: float) -> dict[str, float]:
        """Per-pass means of every per-layer metric, given the number of
        traced passes.  Self times are multiplied by ``scale``, the factor
        that takes the run's times to the reference machine speed."""
        out: dict[str, float] = {}
        for name in traced_names():
            out[f"{name}.calls"] = self.calls.get(name, 0) / passes
            out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9 / passes * scale
        c = self.counters
        for name in ("automata.substitute", "automata.product", "automata.determinize",
                     "twoway.two_to_one"):
            out[f"{name}.out_states"] = c[f"{name}.out_states"] / passes
        out["congruence.monoid_size"] = c["congruence.monoid_size"] / passes
        out["rpq_synth.assignments_tried"] = c["rpq_synth.assignments_tried"] / passes
        out["rpq_synth.prefixes_pruned"] = c["rpq_synth.prefixes_pruned"] / passes
        tried = c["rpq_synth.assignments_tried"]
        out["rpq_synth.solution_yield"] = c["rpq_synth.solutions"] / tried if tried else 0.0
        out["cq_synth.checks"] = c["cq_synth.checks"] / passes
        out["cq_synth.candidates"] = c["cq_synth.candidates"] / passes
        homs = self.calls.get("cq_synth.find_hom", 0)
        out["cq_synth.find_hom.hit_share"] = c["cq_synth.find_hom.hits"] / homs if homs else 0.0
        return out


def _out_states(name):
    def record(counters, result):
        counters[f"{name}.out_states"] += result.n_states

    return record


def _synthesis_report(counters, report):
    stats = report.stats
    counters["rpq_synth.assignments_tried"] += stats.assignments_tried
    counters["rpq_synth.prefixes_pruned"] += stats.prefixes_pruned
    if report.all_views is not None:
        counters["rpq_synth.solutions"] += len(report.all_views)
    else:
        counters["rpq_synth.solutions"] += 1 if report.found else 0


def _cq_report(counters, report):
    counters["cq_synth.checks"] += report.stats.checks
    counters["cq_synth.candidates"] += sum(report.stats.candidates_per_symbol.values())


def _monoid(counters, monoid):
    counters["congruence.monoid_size"] += len(monoid.elements)


def _hom(counters, hom):
    counters["cq_synth.find_hom.hits"] += hom is not None


_ON_RETURN = {
    "automata.substitute": _out_states("automata.substitute"),
    "automata.product": _out_states("automata.product"),
    "automata.determinize": _out_states("automata.determinize"),
    "twoway.two_to_one": _out_states("twoway.two_to_one"),
    "congruence.transition_monoid": _monoid,
    "rpq_synth.synthesize": _synthesis_report,
    "cq_synth.synthesize_cq": _cq_report,
    "cq_synth.find_hom": _hom,
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_yield", "_share", "_overhead")):
        return "ratio"
    return "count"
