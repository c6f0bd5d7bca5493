import json
import os
from pathlib import Path

import pytest

from viewsynth.automata import compile_regex, to_dot
from viewsynth.cli import main
from viewsynth.parser import parse_instance
from viewsynth.rpq_synth import synthesize

from .conftest import rx

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SOUND = str(DEMOS / "instances" / "sec6_sound.vs")
EXACT = str(DEMOS / "instances" / "sec6_exact.vs")
NO_VIEWS = str(DEMOS / "instances" / "no_views.vs")
CHAIN_CQ = str(DEMOS / "instances" / "chain_cq.vs")
GOOD_VIEWS = str(DEMOS / "instances" / "sec6_views_good.vsv")
BAD_VIEWS = str(DEMOS / "instances" / "sec6_views_bad.vsv")
GRAPH = str(DEMOS / "data" / "chain.graph")
FACTS = str(DEMOS / "data" / "facts.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- synth -----------------------------------------------------------------------

def test_synth_sound_found(capsys):
    code, out, _ = run(capsys, "synth", "--mode", "sound", SOUND)
    assert code == 0
    assert "view a1 = b1" in out
    assert "view a2 = b2" in out
    assert "view a3 = empty" in out


def test_synth_not_found_exit_1(capsys):
    code, out, _ = run(capsys, "synth", NO_VIEWS)
    assert code == 1
    assert "not-found" in out


def test_synth_cq_instance(capsys):
    code, out, _ = run(capsys, "synth", "--mode", "exact", CHAIN_CQ)
    assert code == 0
    assert "r(h0,e0), s(e0,h1)" in out


def test_synth_cq_all_solutions(capsys):
    code, out, _ = run(capsys, "synth", "--mode", "sound", "--all", CHAIN_CQ)
    assert code == 0
    assert "-- solution 2 --" in out


def test_synth_cq_maximal_rejected(capsys):
    code, _, err = run(capsys, "synth", "--maximal", CHAIN_CQ)
    assert code == 2
    assert "maximal" in err


def test_synth_json_schema(capsys):
    code, out, _ = run(capsys, "synth", "--format", "json", SOUND)
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "found"
    assert payload["views"] == {"a1": "b1", "a2": "b2", "a3": "empty"}
    assert payload["version"]
    assert payload["statistics"]["monoid_size"] == 5


@pytest.mark.parametrize("text,extra", [
    (Path(SOUND).read_text(encoding="utf-8"), []),
    (Path(EXACT).read_text(encoding="utf-8"), ["--all"]),
    ("kind rpq\nsource a1 a2\ntarget b\nmap a1.a2|a1 ~> b.b|b\n", ["--mode", "exact", "--all"]),
], ids=["sec6_sound", "sec6_exact_all", "exact_union"])
def test_synth_json_repeatable(capsys, tmp_path, text, extra):
    path = tmp_path / "inst.vs"
    path.write_text(text, encoding="utf-8")
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "synth", "--format", "json", *extra, str(path))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_synth_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(Path(SOUND).read_text(encoding="utf-8"))
    )
    code, out, _ = run(capsys, "synth", "-")
    assert code == 0


def test_synth_budget_exceeded_exit_3(capsys):
    code, _, err = run(capsys, "synth", "--mode", "exact", "--budget", "2", EXACT)
    assert code == 3
    assert "budget" in err


def test_synth_bad_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.vs"
    bad.write_text("kind rpq\nsource a\ntarget b\nmap a ~> zz\n", encoding="utf-8")
    code, _, err = run(capsys, "synth", str(bad))
    assert code == 2
    assert "zz" in err


def test_synth_sound_empty_target_is_not_found_at_once(capsys, tmp_path):
    # no nonempty rewriting is contained in an empty target, in either mode
    f = tmp_path / "empty.vs"
    f.write_text(
        "kind rpq\nsource a c d\ntarget b1 b2 b3\n"
        "map a.c.d ~> empty\nmap a ~> (b1|b2.b3)*.b1.b2\n",
        encoding="utf-8",
    )
    for mode in ("sound", "exact"):
        code, out, _ = run(capsys, "synth", "--mode", mode, "--budget", "100", str(f))
        assert code == 1
        assert "not-found" in out


def test_synth_2rpq_rejected(capsys, tmp_path):
    f = tmp_path / "two.vs"
    f.write_text("kind 2rpq\nsource a\ntarget b\nmap a ~> b.b^-.b\n", encoding="utf-8")
    code, _, err = run(capsys, "synth", str(f))
    assert code == 2
    assert "2rpq" in err


def test_monoid_cap_option_exit_3(capsys):
    code, _, err = run(capsys, "synth", "--monoid-cap", "2", SOUND)
    assert code == 3
    assert "monoid" in err


def test_synth_multi_mapping_instance(capsys):
    two = str(DEMOS / "instances" / "two_mappings.vs")
    code, out, _ = run(capsys, "synth", two)
    assert code == 0
    assert "view a1 = b1.b1" in out


def test_synth_dot_dumps_combined_automata(capsys, tmp_path):
    two = str(DEMOS / "instances" / "two_mappings.vs")
    outdir = tmp_path / "dots"
    code, _, _ = run(capsys, "synth", "--dot", str(outdir), two)
    assert code == 0
    for side in ("target", "source"):
        text = (outdir / f"{side}.dot").read_text(encoding="utf-8")
        labels = set()
        for line in text.splitlines():
            if "->" in line and "label=" in line:
                labels.update(line.split('label="')[1].split('"')[0].split(","))
        assert "#" not in labels
        assert text.count("hidden ->") == 2  # one initial state per mapping
    assert "b2" in (outdir / "target.dot").read_text(encoding="utf-8")


def test_synth_dot_target_is_the_monoid_automaton(capsys, tmp_path):
    two = str(DEMOS / "instances" / "two_mappings.vs")
    code, _, _ = run(capsys, "synth", "--dot", str(tmp_path), two)
    assert code == 0
    text = (tmp_path / "target.dot").read_text(encoding="utf-8")
    states = sum(line.startswith("  q") and "[shape=" in line for line in text.splitlines())
    report = synthesize(parse_instance(Path(two).read_text(encoding="utf-8")))
    assert states == len(report.monoid.elements[0])


@pytest.mark.parametrize("command", ["contain", "check", "synth"])
def test_det_cap_help_names_both_caps(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "state cap of containment checks: subset states, or crossing states for 2rpq" in text


@pytest.mark.parametrize("cap", range(1, 9))
def test_synth_exact_det_cap_edge(capsys, cap):
    # the search's reverse checks meet at most six right-hand sets, and the
    # report's reverse check determinizes seven subset states
    code, out, err = run(capsys, "synth", "--mode", "exact", "--det-cap", str(cap), EXACT)
    if cap <= 6:
        assert (code, out, err) == (3, "", f"error: determinization exceeded cap of {cap} states\n")
    else:
        assert (code, err) == (0, "")


NEVER_CLOSING = (
    "kind rpq\nsource a1 a2\ntarget b1 b2 b3\n"
    "map a1|a2 ~> (b3|b2)*|eps\nmap b2.a2 ~> (b2.b2)*\nmap a2 ~> b3|b2\n"
)


@pytest.mark.parametrize("cap", [6, 7, 8, 12, 16])
@pytest.mark.parametrize("flags", [(), ("--all", "--maximal")])
def test_synth_exact_det_cap_drops_factors_that_never_close(capsys, tmp_path, cap, flags):
    # open factors no right multiple carries into a view of their source
    # state are dropped, so no reverse check meets more than seven sets;
    # keeping them, caps 7-16 stopped this not-found search
    path = tmp_path / "never_closing.vs"
    path.write_text(NEVER_CLOSING, encoding="utf-8")
    argv = ["synth", "--mode", "exact", "--det-cap", str(cap), *flags, str(path)]
    code, out, err = run(capsys, *argv)
    if cap <= 6:
        assert (code, out, err) == (3, "", f"error: determinization exceeded cap of {cap} states\n")
    else:
        assert (code, err) == (1, "")


def test_synth_dot_dumps_before_a_stopped_search(capsys, tmp_path):
    outdir = tmp_path / "dots"
    code, _, err = run(
        capsys, "synth", "--mode", "exact", "--budget", "2", "--dot", str(outdir), EXACT
    )
    assert code == 3
    assert "budget" in err
    assert (outdir / "target.dot").read_text(encoding="utf-8").startswith("digraph")
    assert (outdir / "source.dot").read_text(encoding="utf-8").startswith("digraph")


def test_synth_without_dot_builds_no_dot_automata(capsys, monkeypatch):
    def refuse(_automata):
        raise AssertionError("union_nwa called without --dot")

    monkeypatch.setattr("viewsynth.cli.union_nwa", refuse)
    monkeypatch.chdir(DEMOS.parent)
    argv = ["synth", "demos/instances/sec6_sound.vs", "--format", "json"]
    golden = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
    (entry,) = [e for e in golden["cli"] if e["argv"] == argv]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, entry["stdout"])


@pytest.mark.parametrize("kind", ["cq", "ucq"])
def test_synth_view_kind_on_rpq_instance_is_input_error(capsys, kind):
    code, out, err = run(capsys, "synth", "--view-kind", kind, SOUND)
    assert code == 2
    assert "--view-kind" in err
    assert out == ""


def test_synth_dot_on_cq_instance_is_input_error(capsys, tmp_path):
    outdir = tmp_path / "dots"
    code, _, err = run(capsys, "synth", "--dot", str(outdir), CHAIN_CQ)
    assert code == 2
    assert "--dot" in err
    assert not outdir.exists()


@pytest.mark.parametrize("kind", ["cq", "ucq"])
def test_contain_dot_on_relational_queries_is_input_error(capsys, tmp_path, kind):
    outdir = tmp_path / "dots"
    code, out, err = run(
        capsys, "contain", "--kind", kind, "--dot", str(outdir), "q(x) :- r(x)", "q(x) :- r(x)"
    )
    assert code == 2
    assert "--dot" in err
    assert out == ""
    assert not outdir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--dot", "D", SOUND, "--views", GOOD_VIEWS],
        ["check", "--budget", "5", SOUND, "--views", GOOD_VIEWS],
        ["check", "--monoid-cap", "5", SOUND, "--views", GOOD_VIEWS],
        ["contain", "--budget", "5", "b1", "b1|b2"],
        ["contain", "--monoid-cap", "5", "b1", "b1|b2"],
        ["monoid", "--budget", "5", "b1"],
        ["monoid", "--det-cap", "5", "b1"],
        ["oracle", "eval", "--dot", "D", GRAPH, "a"],
    ],
    ids=[
        "check-dot", "check-budget", "check-monoid-cap", "contain-budget",
        "contain-monoid-cap", "monoid-budget", "monoid-det-cap", "oracle-eval-dot",
    ],
)
def test_option_the_command_ignores_is_rejected(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "D").exists()


DEEP = "(" * 3000 + "b" + ")" * 3000


@pytest.mark.parametrize("command", ["contain", "synth", "check"])
def test_deep_nesting_is_input_error(capsys, tmp_path, command):
    inst = tmp_path / "deep.vs"
    if command == "synth":
        inst.write_text(f"kind rpq\nsource a\ntarget b\nmap a ~> {DEEP}\n", encoding="utf-8")
        argv = ["synth", str(inst)]
    elif command == "check":
        inst.write_text("kind rpq\nsource a\ntarget b\nmap a ~> b\n", encoding="utf-8")
        views = tmp_path / "deep.vsv"
        views.write_text(f"view a = {DEEP}\n", encoding="utf-8")
        argv = ["check", str(inst), "--views", str(views)]
    else:
        argv = ["contain", DEEP, "b"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "nested too deeply" in err
    assert "Traceback" not in err


def _unreadable(kind, tmp_path):
    if kind == "missing":
        return str(tmp_path / "missing.vs")
    if kind == "directory":
        return str(tmp_path)
    bad = tmp_path / "latin1.vs"
    bad.write_bytes(b"kind rpq\nsource a\ntarget b\nmap a ~> b # \xe9\xff\n")
    return str(bad)


@pytest.mark.parametrize("kind", ["missing", "directory", "invalid-utf8"])
@pytest.mark.parametrize("command", ["synth", "check-views"])
def test_unreadable_input_is_input_error(capsys, tmp_path, command, kind):
    path = _unreadable(kind, tmp_path)
    if command == "synth":
        argv = ["synth", path]
    else:
        argv = ["check", SOUND, "--views", path]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("below_a_file", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize("command", ["contain", "monoid", "synth"])
def test_uncreatable_dot_dir_is_input_error(capsys, tmp_path, command, below_a_file):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    outdir = str(taken / "dots" if below_a_file else taken)
    argv = {
        "contain": ["contain", "--dot", outdir, "b1", "b1|b2"],
        "monoid": ["monoid", "--dot", outdir, "b1.b2"],
        "synth": ["synth", "--dot", outdir, SOUND],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write DOT files to {outdir}: ")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from viewsynth.cli import build_parser

    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "monoid", "--format", "json", "b1.b2")
    assert code == 0
    assert json.loads(out)["monoid"]["size"] == 5
    with pytest.raises(SystemExit) as exc:
        main(["monoid", "--format", "yaml", "b1.b2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "monoid", "b1")
    assert code == 0
    assert out.startswith("automaton states: 2\n")


# Fragments of the instance, query, views, graph and facts syntax.
_FUZZ_PIECES = [
    "a1", "b1", "b2^-", "^-", "^", ".", "|", "+", "*", "(", ")", "eps", "empty",
    " ", "\n", "kind", "rpq", "cq", "source", "target", "map", "~>", "view",
    "=", "q(x,y)", ":-", ",", ";", "r(x,z)", "/2", "#", "-b1->", "1",
]


def _fuzz_regex(rng, labels, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(labels + ["eps", "b1"])
    op = rng.choice(".|*")
    left = _fuzz_regex(rng, labels, depth - 1)
    if op == "*":
        return f"({left})*"
    return f"({left}{op}{_fuzz_regex(rng, labels, depth - 1)})"


def _fuzz_cq(rng):
    atoms = [f"{rng.choice('rs')}({rng.choice('xyz')},{rng.choice('xyz')})"
             for _ in range(rng.randint(1, 3))]
    return "q(x,y) :- " + ", ".join(atoms)


def _fuzz_instance_and_views(rng):
    kind = rng.choice(["rpq", "rpq", "2rpq", "cq", "ucq"])
    if kind in ("cq", "ucq"):
        maps = f"map q(x,y) :- a(x,y) ~> {_fuzz_cq(rng)}\n"
        return (f"kind {kind}\nsource a/2\ntarget r/2 s/2\n{maps}",
                f"view a = {_fuzz_cq(rng)}\n")
    targets = ["b1", "b2"] + (["b1^-", "b2^-"] if kind == "2rpq" else [])
    maps = "".join(
        f"map {_fuzz_regex(rng, ['a1', 'a2'])} ~> {_fuzz_regex(rng, targets)}\n"
        for _ in range(rng.randint(1, 2))
    )
    views = "".join(f"view {a} = {_fuzz_regex(rng, targets, 2)}\n" for a in ("a1", "a2"))
    return f"kind {kind}\nsource a1 a2\ntarget b1 b2\n{maps}", views


def _fuzz(rng, text):
    """``text`` as bytes, often with random pieces spliced in, sometimes
    replaced by random pieces or by raw bytes."""
    roll = rng.random()
    if roll < 0.15:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 12)))
    if roll < 0.3:
        text = "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randint(0, 10)))
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randint(0, len(text))
        piece = rng.choice(_FUZZ_PIECES + [chr(rng.randrange(1, 0x3000))])
        text = text[:at] + piece + text[at:]
    return text.encode("utf-8", "surrogatepass")


def test_cli_fuzz_exits_with_a_documented_code(capsys, tmp_path):
    import random

    rng = random.Random(97)

    def arg(text):
        return _fuzz(rng, text).decode("utf-8", "replace")

    small = ["--budget", "200", "--det-cap", "200", "--monoid-cap", "50"]
    codes = set()
    for i in range(300):
        instance, views = _fuzz_instance_and_views(rng)
        regex = _fuzz_regex(rng, ["b1", "b2", "b1^-"])
        graph = "".join(f"n{rng.randrange(3)} -{rng.choice(['b1', 'b2'])}-> n{rng.randrange(3)}\n"
                        for _ in range(3))
        paths = {}
        for name, text in (("inst", instance), ("views", views), ("graph", graph),
                           ("facts", "r 1 2\ns 2 3\n")):
            paths[name] = tmp_path / f"{i}.{name}"
            paths[name].write_bytes(_fuzz(rng, text))
        inst, views_file, graph_file, facts_file = map(str, paths.values())
        # a DOT directory that cannot be created: an existing file, or below one
        dot = ["--dot", rng.choice([inst, f"{inst}/dots"])] if rng.random() < 0.2 else []
        kind = rng.choice(["rpq", "2rpq", "cq", "ucq"])
        if kind in ("cq", "ucq"):
            queries = [arg(_fuzz_cq(rng)), arg(_fuzz_cq(rng))]
        else:
            queries = [arg(regex), arg(_fuzz_regex(rng, ["b1", "b2", "b2^-"]))]
        argv = rng.choice([
            ["contain", "--kind", kind, "--det-cap", "200", *dot, *queries],
            ["monoid", "--monoid-cap", "50", *dot, arg(regex)],
            ["synth", "--mode", rng.choice(["sound", "exact"]), *small, *dot, inst],
            ["check", "--det-cap", "200", inst, "--views", views_file],
            # random text where a file name belongs
            ["check", arg(instance), "--views", arg(views)],
            ["oracle", "eval", "--kind", rng.choice(["rpq", "2rpq"]), graph_file, arg(regex)],
            ["oracle", "eval-ucq", facts_file, arg(_fuzz_cq(rng))],
            ["oracle", "brute-exists", "--budget", "200", inst],
            ["oracle", "coherence", "--samples", "2", inst, "--views", views_file],
        ])
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        codes.add(code)
    assert codes == {0, 1, 2, 3}


def _draw_ucq(rng, arities, head_arity, max_disjuncts):
    """A random UCQ; each disjunct reads ``arities`` (a predicate-to-arity
    map) or, now and then, a copy with one predicate at another arity."""
    from viewsynth.model import UCQ
    from viewsynth.oracle import random_cq

    disjuncts = []
    for _ in range(rng.randint(1, max_disjuncts)):
        schema = dict(arities)
        if rng.random() < 0.2:
            schema[rng.choice(sorted(schema))] = rng.randint(1, 3)
        disjuncts.append(random_cq(rng, schema, head_arity, max_atoms=3, max_vars=3))
    return UCQ(tuple(disjuncts))


def _two_arities(facts, *queries) -> bool:
    """Whether some predicate comes with two argument counts among ``facts``
    (``(pred, row)`` pairs) and the atoms of ``queries``."""
    atoms = [(a.pred, a.args) for q in queries for d in q.disjuncts for a in d.atoms]
    uses = {(pred, len(args)) for pred, args in [*facts, *atoms]}
    return len({pred for pred, _ in uses}) < len(uses)


def test_cli_verdicts_agree_with_the_referees(capsys, tmp_path):
    # contain, sound rpq synth and eval-ucq on drawn text, each against the
    # brute-force referee; a predicate at two arities is an input error
    import random

    from viewsynth.errors import BudgetExceeded
    from viewsynth.oracle import (
        brute_view_existence_rpq, eval_ucq, nfa_contained_brute, random_regex,
        random_rpq_instance, rel_instance, ucq_contained_canonical,
    )

    def call(*argv):
        code = main(list(argv))  # an uncaught exception fails the test here
        assert code in (0, 1, 2, 3), argv
        return code, capsys.readouterr().out

    rng = random.Random(16)
    seen = dict.fromkeys(
        ["rpq", "cq", "synth", "eval-ucq", "two arities", "synth verdicts", "skipped"], 0
    )
    for i in range(400):
        command = rng.choice(["rpq", "cq", "synth", "eval-ucq"])
        seen[command] += 1
        if command == "rpq":
            r1, r2 = (random_regex(rng, ["b1", "b2"], max_leaves=3) for _ in range(2))
            code, _ = call("contain", "--kind", "rpq", r1.render(), r2.render())
            assert code == (0 if nfa_contained_brute(compile_regex(r1), compile_regex(r2))
                            else 1), (r1, r2)
        elif command == "cq":
            kind = rng.choice(["cq", "ucq"])
            arities = {p: rng.randint(1, 2) for p in ("r", "s")}
            heads = (1, 2 if rng.random() < 0.1 else 1)
            q1, q2 = (_draw_ucq(rng, arities, h, 1 if kind == "cq" else 2) for h in heads)
            code, out = call("contain", "--kind", kind, q1.render(), q2.render())
            two_arities = _two_arities([], q1, q2)
            seen["two arities"] += two_arities
            if two_arities or q1.arity != q2.arity:
                assert (code, out) == (2, ""), (q1, q2)
            else:
                assert code == (0 if ucq_contained_canonical(q1, q2) else 1), (q1, q2)
        elif command == "synth":
            inst = random_rpq_instance(rng, n_mappings=rng.randint(1, 2))
            path = tmp_path / f"{i}.vs"
            path.write_text(
                f"kind rpq\nsource {' '.join(inst.source_names)}\n"
                f"target {' '.join(inst.target_names)}\n"
                + "".join(f"map {m.render()}\n" for m in inst.mappings),
                encoding="utf-8",
            )
            code, _ = call("synth", "--mode", "sound", "--budget", "2000", str(path))
            try:
                outcome, _ = brute_view_existence_rpq(inst, budget=20_000)
            except BudgetExceeded:
                seen["skipped"] += 1
                continue
            if code in (0, 1):
                seen["synth verdicts"] += 1
                assert code == (0 if outcome == "found" else 1), inst
        else:
            arities = {p: rng.randint(1, 2) for p in ("r", "s")}
            facts = [(p, tuple(str(rng.randrange(3)) for _ in range(arities[p])))
                     for p in rng.choices(sorted(arities), k=rng.randint(1, 5))]
            if rng.random() < 0.2:
                facts.append(("r", tuple("0" * rng.choice([1, 2, 3]))))
            lines = [f"{p} {' '.join(row)}" for p, row in facts]
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# a comment"]))
            path = tmp_path / f"{i}.facts"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            query = _draw_ucq(rng, arities, rng.randint(1, 2), 2)
            code, out = call("oracle", "eval-ucq", "--format", "json", str(path), query.render())
            if _two_arities(facts, query):
                seen["two arities"] += 1
                assert (code, out) == (2, ""), (facts, query)
            else:
                rows = {}
                for p, row in facts:
                    rows.setdefault(p, set()).add(row)
                expected = sorted(eval_ucq(rel_instance(rows), query))
                assert code == 0
                assert json.loads(out)["tuples"] == [list(r) for r in expected], (facts, query)
    assert min(seen[c] for c in ("rpq", "cq", "synth", "eval-ucq")) >= 80, seen
    assert seen["two arities"] >= 30, seen
    assert seen["skipped"] < seen["synth"] / 2 < seen["synth verdicts"], seen

    # contain --kind 2rpq against brute-force folding, and check against the
    # sampled semantics, on a stream of their own
    from collections import Counter

    from viewsynth.model import RSym, ralt
    from viewsynth.oracle import coherence_soundness_sample, enumerate_language
    from viewsynth.parser import parse_views

    from .test_twoway import brute_fold_accepts

    rng = random.Random(19)
    tally = Counter()
    for i in range(60):
        # star-free, at most 6 leaves: q2 has no word longer than 6, so
        # enumerating its words that long is the whole brute-force search
        r1, r2 = (random_regex(rng, ["a", "a^-", "b"], max_leaves=3, star_ok=False)
                  for _ in range(2))
        if rng.random() < 0.3:
            r2 = ralt([r1, r2])  # built to hold
        code, _ = call("contain", "--kind", "2rpq", r1.render(), r2.render())
        if code == 0:
            tally["2rpq holds"] += 1
            q1, q2 = compile_regex(r1), compile_regex(r2)
            for u in enumerate_language(q1, 6):
                assert brute_fold_accepts(q2, u, 6), (r1, r2, u)
        # no word of q2 reads c, so none folds onto the word c
        code, _ = call("contain", "--kind", "2rpq", ralt([r1, RSym("c")]).render(), r2.render())
        assert code == 1, (r1, r2)

        inst = random_rpq_instance(rng, n_mappings=rng.randint(1, 2))
        path = tmp_path / f"check{i}.vs"
        path.write_text(
            f"kind rpq\nsource {' '.join(inst.source_names)}\n"
            f"target {' '.join(inst.target_names)}\n"
            + "".join(f"map {m.render()}\n" for m in inst.mappings),
            encoding="utf-8",
        )
        mode = rng.choice(["sound", "exact"])
        code, out = call("synth", "--mode", mode, "--budget", "2000", "--format", "json", str(path))
        found = json.loads(out)["views"] if code == 0 else {}
        lines = []
        for sym in inst.source_names:  # mostly the views synth found, if any
            if sym in found and rng.random() < 0.8:
                view = found[sym]
            elif rng.random() < 0.2:
                view = "empty"
            else:
                view = random_regex(rng, list(inst.target_names), max_leaves=2).render()
            lines.append(f"view {sym} = {view}\n")
        views_path = tmp_path / f"check{i}.vsv"
        views_path.write_text("".join(lines), encoding="utf-8")
        code, _ = call("check", "--mode", mode, str(path), "--views", str(views_path))
        views = {
            sym: None if q is None else compile_regex(q)
            for sym, q in parse_views(views_path.read_text(encoding="utf-8"), inst).items()
        }
        sample = coherence_soundness_sample(inst, views, samples=20, seed=i, mode=mode)
        if code == 0:
            assert sample.ok, (inst, lines, mode)
        tally["check", code] += 1
        tally["sample rejects"] += not sample.ok
    assert tally["2rpq holds"] >= 10, tally
    assert tally["check", 0] >= 20 and tally["check", 1] >= 20, tally
    assert tally["sample rejects"] >= 15, tally


# --- check ------------------------------------------------------------------------

def test_check_good_views(capsys):
    code, out, _ = run(capsys, "check", SOUND, "--views", GOOD_VIEWS)
    assert code == 0
    assert "holds" in out


def test_check_bad_views_shows_separating_word(capsys):
    code, out, _ = run(capsys, "check", SOUND, "--views", BAD_VIEWS)
    assert code == 1
    assert "separating word: b1 b1" in out


def test_check_missing_view_exit_2(capsys, tmp_path):
    partial = tmp_path / "v.vsv"
    partial.write_text("view a1 = b1\n", encoding="utf-8")
    code, _, err = run(capsys, "check", SOUND, "--views", str(partial))
    assert code == 2


def test_check_cq_missing_view_exit_2(capsys, tmp_path):
    empty = tmp_path / "v.vsv"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "check", CHAIN_CQ, "--views", str(empty))
    assert code == 2
    assert "views missing" in err


# --- contain ----------------------------------------------------------------------

def test_contain_rpq(capsys):
    assert run(capsys, "contain", "b1.b2", "b1.(b2|b1)")[0] == 0
    code, out, _ = run(capsys, "contain", "b1*", "b1.b1")
    assert code == 1
    assert "does not hold" in out


def test_contain_2rpq(capsys):
    code, _, _ = run(capsys, "contain", "--kind", "2rpq", "a.b.c", "a.b.b^-.b.c")
    assert code == 0
    assert run(capsys, "contain", "--kind", "2rpq", "a.b", "a.c")[0] == 1


def test_contain_2rpq_conversion_cap_exit_3(capsys):
    code, out, err = run(
        capsys, "contain", "--kind", "2rpq", "--det-cap", "2", "a.b", "a.b.b^-.b"
    )
    assert code == 3
    assert out == ""
    assert err == "error: two-way conversion exceeded cap of 2 states\n"


def test_contain_2rpq_det_cap_bounds_only_crossing_states(capsys):
    # three crossing states decide a.b against the fold of a.b.b^-.b; the
    # walk adds no subset construction and so no sink state to the cap
    code, out, err = run(
        capsys, "contain", "--kind", "2rpq", "--det-cap", "3", "a.b", "a.b.b^-.b"
    )
    assert (code, out, err) == (0, "containment holds\n", "")


def test_contain_ucq(capsys):
    code, _, _ = run(
        capsys,
        "contain",
        "--kind",
        "ucq",
        "q(x,y) :- r(x,z), s(z,y), r(x,w)",
        "q(x,y) :- r(x,z), s(z,y)",
    )
    assert code == 0


def test_contain_cq_rejects_a_union(capsys):
    union = "q(x) :- r(x) ; q(x) :- s(x)"
    for q1, q2 in ((union, "q(x) :- r(x)"), ("q(x) :- r(x)", union)):
        code, _, err = run(capsys, "contain", "--kind", "cq", q1, q2)
        assert code == 2
        assert "single-disjunct" in err
    assert run(capsys, "contain", "--kind", "ucq", union, "q(x) :- r(x)")[0] == 1


@pytest.mark.parametrize("kind, q1, q2", [
    ("ucq", "q(x) :- r(x,y)", "q(x) :- r(x)"),
    ("cq", "q(x) :- r(x)", "q(x) :- r(x,x)"),
    ("ucq", "q(x) :- r(x) ; q(x) :- s(x), r(x,x)", "q(x) :- s(x)"),
    ("cq", "q(x) :- r(x), r(x,x)", "q(x) :- r(x)"),
], ids=["across-ucq", "across-cq", "across-disjuncts", "within-one-body"])
def test_contain_predicate_at_two_arities_is_input_error(capsys, kind, q1, q2):
    code, out, err = run(capsys, "contain", "--kind", kind, q1, q2)
    assert code == 2
    assert out == ""
    assert "predicate 'r' used with arities" in err


@pytest.mark.parametrize("q1, q2, message", [
    ("q(x) :- r(x) ; q(x) :- s(x)", "q(x) :- r(x)", "kind cq admits single-disjunct queries only"),
    ("q(x) :- r(x)", "q(x,y) :- r(x), r(y)", "source and target queries disagree on head arity"),
], ids=["single-disjunct", "head-arity"])
def test_contain_and_a_map_line_give_one_message(capsys, tmp_path, q1, q2, message):
    code, out, err = run(capsys, "contain", "--kind", "cq", q1, q2)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    path = tmp_path / "inst.vs"
    path.write_text(f"kind cq\nsource a/1\ntarget r/1 s/1\nmap {q1} ~> {q2}\n", encoding="utf-8")
    code, out, err = run(capsys, "synth", str(path))
    assert (code, out, err) == (2, "", f"error: line 4: {message}\n")


@pytest.mark.parametrize("command, text, err", [
    ("synth", "kind cq\nsource a/1\ntarget r/1\nmap q(x :- a(x) ~> q(x) :- r(x)\n",
     "line 4: expected ')', got ':-'"),
    ("synth", "kind rpq\nsource a\ntarget b\nmap a | | b ~> b\n", "line 4: unexpected '|'"),
    ("check", "view a1 = b1 . b2 )\n", "line 1: trailing input ')'"),
], ids=["expected", "unexpected", "trailing"])
def test_parse_errors_name_the_line_and_quote_the_token(capsys, tmp_path, command, text, err):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = ["synth", str(path)] if command == "synth" else ["check", SOUND, "--views", str(path)]
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


# --- monoid -----------------------------------------------------------------------

def test_monoid_dot_dumps_before_the_cap_stops_the_build(capsys, tmp_path):
    outdir = tmp_path / "dots"
    code, _, err = run(capsys, "monoid", "--monoid-cap", "1", "--dot", str(outdir), "b1.b2")
    assert code == 3
    assert "monoid" in err
    assert (outdir / "target.dot").read_text(encoding="utf-8") == to_dot(rx("b1.b2"), "target")


def test_monoid_listing(capsys):
    code, out, _ = run(capsys, "monoid", "b1.b2")
    assert code == 0
    assert "monoid size: 5" in out
    assert "identity" in out


def test_monoid_json(capsys):
    code, out, _ = run(capsys, "monoid", "--format", "json", "b1.b2")
    payload = json.loads(out)
    assert payload["monoid"]["size"] == 5


MONOID_TEXT = {
    "b1.b2": (
        "automaton states: 3\n"
        "monoid size: 5\n"
        "element 0: witness 'b1 b1' relation {(none)}\n"
        "element 1: witness 'b1' relation {(0,1)}\n"
        "element 2: witness 'b1 b2' relation {(0,2)}\n"
        "element 3: witness 'b2' relation {(1,2)}\n"
        "element 4 = identity: witness 'eps' relation {(0,0), (1,1), (2,2)}\n"
    ),
    "(b1|b2)*.b1": (
        "automaton states: 4\n"
        "monoid size: 3\n"
        "element 0: witness 'b2' relation {(0,2), (1,2), (2,2)}\n"
        "element 1: witness 'b1' relation {(0,1), (0,3), (1,1), (1,3), (2,1), (2,3)}\n"
        "element 2 = identity: witness 'eps' relation {(0,0), (1,1), (2,2), (3,3)}\n"
    ),
}


@pytest.mark.parametrize("regex", sorted(MONOID_TEXT))
def test_monoid_text_is_pinned(capsys, regex):
    assert run(capsys, "monoid", regex) == (0, MONOID_TEXT[regex], "")


# --- oracle -----------------------------------------------------------------------

def test_oracle_eval(capsys):
    code, out, _ = run(capsys, "oracle", "eval", GRAPH, "b1.b2")
    assert code == 0
    assert "x z" in out


def test_oracle_eval_2rpq(capsys):
    code, out, _ = run(
        capsys, "oracle", "eval", "--kind", "2rpq", GRAPH, "b1.b1^-"
    )
    assert code == 0
    assert "x x" in out


def test_oracle_eval_ucq(capsys):
    code, out, _ = run(
        capsys, "oracle", "eval-ucq", FACTS, "q(x,y) :- r(x,z), s(z,y)"
    )
    assert code == 0
    assert "1 3" in out


@pytest.mark.parametrize("facts, query, where", [
    ("r a b\nr a\n", "q(x) :- r(x,y)", "line 2: "),
    ("r a b\n", "q(x) :- r(x)", ""),
    ("r a b\n", "q(x) :- r(x), r(x,y)", ""),
], ids=["facts", "query-against-facts", "within-the-query"])
def test_oracle_eval_ucq_predicate_at_two_arities_is_input_error(
    capsys, tmp_path, facts, query, where
):
    path = tmp_path / "facts.txt"
    path.write_text(facts, encoding="utf-8")
    code, out, err = run(capsys, "oracle", "eval-ucq", str(path), query)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}predicate 'r' used with arities ")


def test_oracle_brute_exists(capsys):
    assert run(capsys, "oracle", "brute-exists", SOUND)[0] == 0
    assert run(capsys, "oracle", "brute-exists", NO_VIEWS)[0] == 1


def test_oracle_coherence(capsys):
    code, out, _ = run(
        capsys, "oracle", "coherence", SOUND, "--views", GOOD_VIEWS, "--samples", "25"
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "oracle",
        "coherence",
        SOUND,
        "--views",
        BAD_VIEWS,
        "--samples",
        "200",
    )
    assert code == 1
    assert "counterexample" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_oracle_coherence_needs_a_positive_sample_count(capsys, samples):
    code, out, err = run(
        capsys, "oracle", "coherence", SOUND, "--views", BAD_VIEWS, "--samples", samples
    )
    assert code == 2
    assert out == ""
    assert "--samples must be positive" in err


@pytest.mark.parametrize(
    "instance, views, missing",
    [(SOUND, "view a1 = b1\n", "['a2', 'a3']"), (CHAIN_CQ, "", "['a']")],
)
def test_oracle_coherence_missing_view_exit_2(capsys, tmp_path, instance, views, missing):
    path = tmp_path / "v.vsv"
    path.write_text(views, encoding="utf-8")
    code, out, err = run(capsys, "oracle", "coherence", instance, "--views", str(path))
    assert code == 2
    assert out == ""
    assert f"views missing for occurring source symbol(s) {missing}" in err


# --- misc -------------------------------------------------------------------------

def test_dot_export(capsys, tmp_path):
    outdir = tmp_path / "dots"
    code, _, _ = run(capsys, "contain", "--dot", str(outdir), "b1", "b1|b2")
    assert code == 0
    assert (outdir / "q1.dot").read_text(encoding="utf-8").startswith("digraph")


def _dot(name, finals, edges, initials=(0,)):
    """The DOT text of an automaton with states ``0..len(finals)-1``, the
    given initial states and the given ``(p, q, label)`` edges."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for s, final in enumerate(finals):
        shape = "doublecircle" if final else "circle"
        lines.append(f'  q{s} [shape={shape}, label="{s}"];')
    lines += [f"  hidden -> q{s};" for s in initials]
    lines += [f'  q{p} -> q{q} [label="{label}"];' for p, q, label in edges]
    return "\n".join(lines + ["}"])


def test_contain_dot_files_are_pinned(capsys, tmp_path):
    outdir = tmp_path / "dots"
    code, _, _ = run(capsys, "contain", "--dot", str(outdir), "b1.b2|b1", "b1.(b2|eps)")
    assert code == 0
    assert (outdir / "q1.dot").read_text(encoding="utf-8") == _dot(
        "q1", [0, 0, 1, 1], [(0, 1, "b1"), (0, 3, "b1"), (1, 2, "b2")]
    )
    assert (outdir / "q2.dot").read_text(encoding="utf-8") == _dot(
        "q2", [0, 1, 1], [(0, 1, "b1"), (1, 2, "b2")]
    )


def test_synth_dot_files_are_pinned(capsys, tmp_path):
    outdir = tmp_path / "dots"
    two = str(DEMOS / "instances" / "two_mappings.vs")
    assert run(capsys, "synth", "--dot", str(outdir), two)[0] == 0
    # the disjoint unions of the two mappings' automata, one block each
    assert (outdir / "source.dot").read_text(encoding="utf-8") == _dot(
        "source", [0, 1, 0, 0, 1], [(0, 1, "a1"), (2, 3, "a2"), (3, 4, "b1")], initials=(0, 2)
    )
    assert (outdir / "target.dot").read_text(encoding="utf-8") == _dot(
        "target",
        [0, 0, 1, 0, 0, 1],
        [(0, 1, "b1"), (1, 2, "b1"), (3, 4, "b2"), (4, 5, "b1")],
        initials=(0, 3),
    )


def test_synth_dot_of_one_mapping_is_its_compiled_automata(capsys, tmp_path):
    outdir = tmp_path / "dots"
    assert run(capsys, "synth", "--dot", str(outdir), SOUND)[0] == 0
    inst = parse_instance(Path(SOUND).read_text(encoding="utf-8"))
    for side in ("source", "target"):
        auto = compile_regex(getattr(inst.mappings[0], side))
        assert (outdir / f"{side}.dot").read_text(encoding="utf-8") == to_dot(auto, side)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
