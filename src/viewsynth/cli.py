"""Command-line interface.

Exit codes: 0 found / holds / pass, 1 not-found / does not hold / fail,
2 input error, 3 resource cap or search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .errors import BudgetExceeded, CapExceeded, InputError, ViewSynthError
from .parser import (
    parse_facts, parse_instance, parse_pair, parse_regex, parse_ucq_over, parse_views,
)
from .automata import (
    DEFAULT_DET_CAP,
    compile_regex,
    difference_witness,
    to_dot,
    union_nwa,
)
from .congruence import DEFAULT_MONOID_CAP, pairs, transition_monoid
from .cq_synth import capture_check_cq, synthesize_cq, ucq_contains
from .rpq_synth import capture_check, synthesize
from .search import DEFAULT_SEARCH_BUDGET
from .twoway import contains_2rpq


_OPTIONS = {
    "--det-cap": dict(
        type=int,
        default=DEFAULT_DET_CAP,
        help="state cap of containment checks: subset states, or crossing states for 2rpq",
    ),
    "--monoid-cap": dict(type=int, default=DEFAULT_MONOID_CAP, help="monoid element cap"),
    "--budget": dict(type=int, default=DEFAULT_SEARCH_BUDGET, help="search budget"),
    "--dot": dict(metavar="DIR", default=None, help="dump automata as DOT files"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="viewsynth",
        description="View synthesis from schema mappings (RPQ and (U)CQ families).",
    )
    parser.add_argument("--version", action="version", version=f"viewsynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, *options):
        """``--format`` and those of the cap, budget and DOT options the
        subcommand's handler reads."""
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])

    p_synth = sub.add_parser("synth", help="synthesize views for an instance file")
    p_synth.add_argument("file", help="instance file, or - for stdin")
    p_synth.add_argument("--mode", choices=("sound", "exact"), default=None)
    p_synth.add_argument("--maximal", action="store_true", help="maximize found views")
    p_synth.add_argument("--all", dest="find_all", action="store_true",
                         help="report every passing assignment")
    p_synth.add_argument("--view-kind", choices=("cq", "ucq"), default=None,
                         help="views of (u)cq instances (default cq)")
    add_options(p_synth, "--det-cap", "--monoid-cap", "--budget", "--dot")
    p_synth.set_defaults(func=cmd_synth)

    p_check = sub.add_parser("check", help="check user-supplied views against an instance")
    p_check.add_argument("file")
    p_check.add_argument("--views", required=True, help="views file")
    p_check.add_argument("--mode", choices=("sound", "exact"), default=None)
    add_options(p_check, "--det-cap")
    p_check.set_defaults(func=cmd_check)

    p_contain = sub.add_parser("contain", help="decide query containment q1 in q2")
    p_contain.add_argument("--kind", choices=("rpq", "2rpq", "cq", "ucq"), default="rpq")
    p_contain.add_argument("q1")
    p_contain.add_argument("q2")
    add_options(p_contain, "--det-cap", "--dot")
    p_contain.set_defaults(func=cmd_contain)

    p_monoid = sub.add_parser("monoid", help="print the transition monoid of a regex")
    p_monoid.add_argument("regex")
    add_options(p_monoid, "--monoid-cap", "--dot")
    p_monoid.set_defaults(func=cmd_monoid)

    p_oracle = sub.add_parser("oracle", help="brute-force semantics for ad-hoc use")
    osub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_eval = osub.add_parser("eval", help="evaluate a path query over a graph file")
    p_eval.add_argument("--kind", choices=("rpq", "2rpq"), default="rpq")
    p_eval.add_argument("graph", help="edge list: node -label-> node")
    p_eval.add_argument("regex")
    add_options(p_eval)
    p_eval.set_defaults(func=cmd_oracle_eval)

    p_evalq = osub.add_parser("eval-ucq", help="evaluate a UCQ over a facts file")
    p_evalq.add_argument("facts", help="facts file: one 'pred c1 c2 ...' per line")
    p_evalq.add_argument("query")
    add_options(p_evalq)
    p_evalq.set_defaults(func=cmd_oracle_eval_ucq)

    p_brute = osub.add_parser("brute-exists", help="exhaustive RPQ view existence")
    p_brute.add_argument("file")
    add_options(p_brute, "--budget")
    p_brute.set_defaults(func=cmd_oracle_brute)

    p_coh = osub.add_parser("coherence", help="sample databases against views")
    p_coh.add_argument("file")
    p_coh.add_argument("--views", required=True)
    p_coh.add_argument("--samples", type=int, default=50)
    p_coh.add_argument("--seed", type=int, default=0)
    p_coh.add_argument("--mode", choices=("sound", "exact"), default=None)
    add_options(p_coh)
    p_coh.set_defaults(func=cmd_oracle_coherence)

    return parser


def _cap(args, name: str) -> int:
    """The option ``name`` (``det_cap``, ``monoid_cap``, ``budget`` or
    ``samples``), which must be positive."""
    value = getattr(args, name)
    if value <= 0:
        raise InputError(f"--{name.replace('_', '-')} must be positive")
    return value


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError covers undecodable bytes and a NUL in the path
        raise InputError(f"cannot read {path}: {exc}") from None


def _views(args, instance) -> dict:
    """The views file's views: compiled automata for path kinds (``None``
    for the empty view), the parsed (U)CQs for relational kinds."""
    views = parse_views(_read(args.views), instance)
    if instance.kind in ("rpq", "2rpq"):
        return {sym: None if q is None else compile_regex(q) for sym, q in views.items()}
    return views


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        payload = dict(payload)
        payload["version"] = __version__
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _dump_dot(args, automata: dict[str, "object"]) -> None:
    if not args.dot:
        return
    outdir = Path(args.dot)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, nwa in automata.items():
            (outdir / f"{name}.dot").write_text(to_dot(nwa, name), encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError covers a NUL in the path
        raise InputError(f"cannot write DOT files to {args.dot}: {exc}") from None


def _solution_lines(views: dict[str, str], all_views: "list[dict[str, str]] | None"):
    """``view SYM = VIEW`` lines of the rendered first solution, then of each
    further solution of ``--all`` under a ``-- solution N --`` header."""
    lines = [f"view {sym} = {text}" for sym, text in sorted(views.items())]
    for i, more in enumerate((all_views or [])[1:], start=2):
        lines.append(f"-- solution {i} --")
        lines += [f"view {sym} = {text}" for sym, text in sorted(more.items())]
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    det_cap = _cap(args, "det_cap")
    monoid_cap = _cap(args, "monoid_cap")
    budget = _cap(args, "budget")
    instance = parse_instance(_read(args.file))
    mode = args.mode or instance.mode

    if instance.kind == "rpq":
        if args.view_kind:
            raise InputError("--view-kind applies to cq and ucq instances only")
        # the search runs on the disjoint unions of the mappings' automata;
        # they do not depend on the search, so dump them before it can stop
        if args.dot:
            _dump_dot(args, {
                side: union_nwa([compile_regex(getattr(m, side)) for m in instance.mappings])
                for side in ("target", "source")
            })
        report = synthesize(
            instance,
            mode,
            find_all=args.find_all,
            maximal=args.maximal,
            det_cap=det_cap,
            monoid_cap=monoid_cap,
            budget=budget,
        )
    elif instance.kind in ("cq", "ucq"):
        if args.maximal:
            raise InputError("maximal views are computed for rpq instances only")
        if args.dot:
            raise InputError("--dot dumps the automata of rpq instances only")
        report = synthesize_cq(
            instance, mode, view_kind=args.view_kind or "cq", budget=budget,
            find_all=args.find_all,
        )
    else:
        raise InputError("synthesis for 2rpq views is not supported (containment only)")

    payload = report.to_json()
    lines = [f"outcome: {report.outcome}"]
    if report.found:
        lines += _solution_lines(payload["views"], payload.get("all_views"))
        stats = report.stats
        if stats.monoid_size is not None:
            lines.append(
                f"tried {stats.assignments_tried} assignment(s), "
                f"monoid size {stats.monoid_size}, {stats.elapsed:.3f}s"
            )
    _emit(args, payload, "\n".join(lines))
    return 0 if report.found else 1


def cmd_check(args) -> int:
    det_cap = _cap(args, "det_cap")
    instance = parse_instance(_read(args.file))
    mode = args.mode or instance.mode
    views = _views(args, instance)
    if instance.kind in ("rpq", "2rpq"):
        result = capture_check(instance, views, mode, det_cap)
    else:
        result = capture_check_cq(instance, views, mode)

    lines = [f"capture: {'holds' if result.ok else 'fails'} ({mode})"]
    for i, rec in enumerate(result.per_mapping):
        status = "ok" if rec.ok(mode) else "violated"
        lines.append(f"mapping {i}: {status}")
        if rec.witness is not None:
            lines.append(f"  nonempty witness: {' '.join(rec.witness) or 'eps'}")
        if rec.separating is not None:
            lines.append(f"  separating word: {' '.join(rec.separating) or 'eps'}")
        if rec.reverse_separating is not None:
            word = " ".join(rec.reverse_separating) or "eps"
            lines.append(f"  missing from rewriting: {word}")
    _emit(args, result.to_json(), "\n".join(lines))
    return 0 if result.ok else 1


def cmd_contain(args) -> int:
    det_cap = _cap(args, "det_cap")
    q1, q2 = parse_pair(args.kind, args.q1, args.q2)
    witness = None
    if args.kind in ("cq", "ucq"):
        if args.dot:
            raise InputError("--dot dumps the automata of path queries only")
        holds = ucq_contains(q1, q2)
    else:
        a1, a2 = compile_regex(q1), compile_regex(q2)
        _dump_dot(args, {"q1": a1, "q2": a2})
        if args.kind == "2rpq":
            holds = contains_2rpq(a1, a2, cap=det_cap)
        else:
            witness = difference_witness(a1, a2, cap=det_cap)
            holds = witness is None
    payload = {"holds": holds, "kind": args.kind}
    text = f"containment {'holds' if holds else 'does not hold'}"
    if witness is not None:
        payload["witness"] = list(witness)
        text += f" (witness: {' '.join(witness) or 'eps'})"
    _emit(args, payload, text)
    return 0 if holds else 1


def cmd_monoid(args) -> int:
    monoid_cap = _cap(args, "monoid_cap")
    regex = parse_regex(args.regex, None)
    auto = compile_regex(regex)
    _dump_dot(args, {"target": auto})
    monoid = transition_monoid(auto, cap=monoid_cap)
    lines = [
        f"automaton states: {auto.n_states}",
        f"monoid size: {len(monoid.elements)}",
    ]
    for i, element in enumerate(monoid.elements):
        witness = " ".join(monoid.witnesses[i]) or "eps"
        relation = ", ".join(f"({p},{q})" for p, q in pairs(element)) or "(none)"
        tag = " = identity" if i == monoid.identity_index else ""
        lines.append(f"element {i}{tag}: witness '{witness}' relation {{{relation}}}")
    payload = {"automaton_states": auto.n_states, "monoid": monoid.to_json()}
    _emit(args, payload, "\n".join(lines))
    return 0


# The oracle handlers import the brute-force referee themselves, so that the
# engine commands never load it.

def cmd_oracle_eval(args) -> int:
    from .oracle import eval_2rpq, eval_rpq, parse_graph

    db = parse_graph(_read(args.graph))
    two_way = args.kind == "2rpq"
    regex = parse_regex(args.regex, None, two_way=two_way)
    auto = compile_regex(regex)
    pairs = sorted(eval_2rpq(db, auto) if two_way else eval_rpq(db, auto))
    text = "\n".join(f"{x} {y}" for x, y in pairs) or "(no pairs)"
    _emit(args, {"pairs": [list(p) for p in pairs]}, text)
    return 0


def cmd_oracle_eval_ucq(args) -> int:
    from .oracle import eval_ucq, rel_instance

    facts = parse_facts(_read(args.facts))
    rows = sorted(eval_ucq(rel_instance(facts), parse_ucq_over(args.query, facts)))
    text = "\n".join(" ".join(r) for r in rows) or "(no tuples)"
    _emit(args, {"tuples": [list(r) for r in rows]}, text)
    return 0


def cmd_oracle_brute(args) -> int:
    from .oracle import brute_view_existence_rpq

    budget = _cap(args, "budget")
    instance = parse_instance(_read(args.file))
    outcome, views = brute_view_existence_rpq(instance, budget=budget)
    lines = [f"outcome: {outcome}"]
    views_json = None
    if views is not None:
        views_json = {}
        for sym, word in sorted(views.items()):
            rendered = "empty" if word is None else (" ".join(word) or "eps")
            views_json[sym] = rendered
            lines.append(f"view {sym} = {rendered}")
    _emit(args, {"outcome": outcome, "views": views_json}, "\n".join(lines))
    return 0 if outcome == "found" else 1


def cmd_oracle_coherence(args) -> int:
    from .oracle import coherence_soundness_sample

    samples = _cap(args, "samples")
    instance = parse_instance(_read(args.file))
    report = coherence_soundness_sample(
        instance, _views(args, instance), samples=samples, seed=args.seed, mode=args.mode
    )
    text = f"coherence sampling: {'pass' if report.ok else 'FAIL'} ({report.samples} samples)"
    if report.counterexample is not None:
        text += f"\ncounterexample: {json.dumps(report.counterexample, sort_keys=True)}"
    _emit(args, report.to_json(), text)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ViewSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the regex and automaton walkers recurse per nesting level
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
