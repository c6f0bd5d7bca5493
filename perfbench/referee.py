"""Reference answers that never come from the engine under test.

Verdicts are fixed before any timing by the brute-force oracle
(``viewsynth.oracle``: word enumeration, subset-pair search, random
databases) or by the construction that built the input.  Views the engine
returns are re-checked afterwards on sampled databases.  Parsing and
regex compilation are shared with the engine, as they are in the oracle.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

from viewsynth.automata import NWA, compile_regex
from viewsynth.model import UCQ, RCat, REps, Regex, RSym
from viewsynth.oracle import (
    brute_view_existence_rpq,
    coherence_soundness_sample,
    enumerate_language,
    nfa_contained_brute,
    substitute_words,
)
from viewsynth.parser import parse_instance, parse_regex, parse_ucq, parse_views

COHERENCE_SAMPLES = 50


def exit_code(verdict) -> int:
    """The CLI exit code for an oracle outcome or a containment truth value."""
    return 0 if verdict in ("found", True) else 1


def _nonempty(a: NWA) -> bool:
    seen = set(a.initials)
    queue = deque(seen)
    while queue:
        state = queue.popleft()
        if state in a.finals:
            return True
        for p, label, q in a.transitions:
            if p == state and label is not None and q not in seen:
                seen.add(q)
                queue.append(q)
    return False


def word_views_capture(inst, views) -> bool:
    """Sound capture by views that are single words (or empty), decided by
    textual substitution and a subset-pair search for a counterexample."""
    sources = inst.source_names
    for m in inst.mappings:
        substituted = substitute_words(compile_regex(m.source), views, sources)
        if not _nonempty(substituted):
            return False
        if not nfa_contained_brute(substituted, compile_regex(m.target)):
            return False
    return True


def render_word_views(views) -> str:
    lines = []
    for sym, word in sorted(views.items()):
        body = "empty" if word is None else (".".join(word) if word else "eps")
        lines.append(f"view {sym} = {body}")
    return "\n".join(lines) + "\n"


def rpq_contained(q1: Regex, q2: Regex) -> bool:
    return nfa_contained_brute(compile_regex(q1), compile_regex(q2))


def coherent_views(inst, mode: str):
    """A payload check: returned views pass sampled-database capture and
    make every source query nonempty.  ``None`` for a not-found payload."""

    def check(payload: dict) -> "bool | None":
        if payload.get("outcome") != "found":
            return None
        texts = payload.get("views") or {}
        if set(texts) != set(inst.occurring_source_symbols()):
            return False
        views = {sym: _parse_view(inst, text) for sym, text in texts.items()}
        if not all(_source_nonempty(inst, m, views) for m in inst.mappings):
            return False
        report = coherence_soundness_sample(
            inst, views, samples=COHERENCE_SAMPLES, seed=0, mode=mode
        )
        return report.ok

    return check


def _parse_view(inst, text: str):
    if text in ("undefined", "empty"):
        return None
    if inst.kind in ("rpq", "2rpq"):
        return compile_regex(parse_regex(text, set(inst.target_names)))
    schema = {n: inst.symbols[n].arity for n in inst.target_names}
    return parse_ucq(text, schema)


def _source_nonempty(inst, mapping, views) -> bool:
    sources = set(inst.source_names)
    if inst.kind in ("rpq", "2rpq"):
        realized = {
            sym: None if a is None or not _nonempty(a) else _shortest_word(a)
            for sym, a in views.items()
        }
        return _nonempty(substitute_words(compile_regex(mapping.source), realized, sources))
    source = mapping.source if isinstance(mapping.source, UCQ) else UCQ((mapping.source,))
    return any(
        all(a.pred not in sources or views.get(a.pred) is not None for a in d.atoms)
        for d in source.disjuncts
    )


def _shortest_word(a: NWA):
    for length in range(a.n_states + 1):
        words = enumerate_language(a, length)
        if words:
            return words[0]
    return None


SEC6_EXACT_ANSWER = (frozenset({()}), frozenset({("0", "0"), ("0", "1"), ("1", "0")}))


def sec6_exact_views(payload: dict) -> bool:
    """``sec6_exact.vs``: the first maximal exact views are ({eps}, 00+01+10)
    or its flip; {eps}.L = L is exact and no larger view stays sound."""
    if payload.get("outcome") != "found":
        return False
    views = payload.get("views") or {}
    if set(views) != {"a1", "a2"}:
        return False
    langs = tuple(
        frozenset(enumerate_language(compile_regex(parse_regex(views[s], {"0", "1"})), 6))
        for s in ("a1", "a2")
    )
    return langs in (SEC6_EXACT_ANSWER, SEC6_EXACT_ANSWER[::-1])


def _as_word(regex) -> "tuple[str, ...] | None":
    if regex is None:
        return None
    if isinstance(regex, REps):
        return ()
    if isinstance(regex, RSym):
        return (regex.label,)
    if isinstance(regex, RCat) and all(isinstance(p, RSym) for p in regex.parts):
        return tuple(p.label for p in regex.parts)
    raise ValueError(f"not a single word: {regex.render()}")


def demo_requests(demo_dir: Path):
    """(argv, expected exit code, payload check) for the demo instances."""
    def path(name):
        return str(demo_dir / name)

    def read(name):
        return (demo_dir / name).read_text(encoding="utf-8")

    out = []
    for name in ("sec6_sound.vs", "no_views.vs", "two_mappings.vs"):
        outcome, _ = brute_view_existence_rpq(parse_instance(read(name)))
        out.append((["synth", "--format", "json", path(name)], exit_code(outcome), None))
    # the demo comments and acceptance criterion 7 fix these as exact captures
    for name, kind in (("chain_cq.vs", "cq"), ("union_target_ucq.vs", "ucq")):
        inst = parse_instance(read(name))
        argv = ["synth", "--mode", "exact", "--view-kind", kind, "--format", "json", path(name)]
        out.append((argv, 0, coherent_views(inst, "exact")))
    sound = parse_instance(read("sec6_sound.vs"))
    for views_name in ("sec6_views_good.vsv", "sec6_views_bad.vsv"):
        views = {
            sym: _as_word(q) for sym, q in parse_views(read(views_name), sound).items()
        }
        argv = ["check", "--views", path(views_name), "--format", "json", path("sec6_sound.vs")]
        out.append((argv, exit_code(word_views_capture(sound, views)), None))
    return out
