import re

import pytest

from viewsynth.errors import ParseError
from viewsynth.model import CQ, RAlt, RCat, REps, RSym, UCQ
from viewsynth.parser import (
    parse_cq,
    parse_facts,
    parse_instance,
    parse_regex,
    parse_ucq,
    parse_views,
)
from viewsynth.automata import compile_regex, equivalent

from .conftest import CHAIN_CQ, SEC6_SOUND


def test_parse_sec6_instance():
    inst = parse_instance(SEC6_SOUND)
    assert inst.kind == "rpq"
    assert inst.source_names == ("a1", "a2", "a3")
    assert inst.target_names == ("b1", "b2")
    assert len(inst.mappings) == 1
    assert inst.mappings[0].render() == "(a1|a3).(a2|a3) ~> b1.b2"


def test_parse_cq_instance():
    inst = parse_instance(CHAIN_CQ)
    assert inst.kind == "cq"
    assert inst.symbols["a"].arity == 2
    source = inst.mappings[0].source
    assert isinstance(source, UCQ) and len(source.disjuncts) == 1


def test_undeclared_symbol_is_named():
    text = SEC6_SOUND.replace("b1.b2", "b1.b3")
    with pytest.raises(ParseError, match="b3"):
        parse_instance(text)


def test_source_symbol_in_target_query_rejected():
    text = SEC6_SOUND.replace("~> b1.b2", "~> b1.a1")
    with pytest.raises(ParseError, match="source symbol"):
        parse_instance(text)


@pytest.mark.parametrize(
    "target, message",
    [
        ("r(x,y), ab(x,y)", "undeclared symbol 'ab'"),
        ("r(x,y), a(x,y)", "source symbol 'a' used in a target query"),
    ],
)
def test_cq_target_error_names_the_problem(target, message):
    text = f"kind cq\nsource a/2\ntarget r/2\nmap q(x,y) :- a(x,y) ~> q(x,y) :- {target}"
    with pytest.raises(ParseError, match=message):
        parse_instance(text)


def test_duplicate_symbol_rejected():
    with pytest.raises(ParseError, match="twice"):
        parse_instance("kind rpq\nsource a a\ntarget b\nmap a ~> b")


def test_missing_mapping_rejected():
    with pytest.raises(ParseError, match="no mappings"):
        parse_instance("kind rpq\nsource a\ntarget b")


CQ_HEAD = "kind cq\nsource a/2\ntarget r/2\n"


@pytest.mark.parametrize(
    "instance, views, message, line",
    [
        ("kind rpq\nkind cq\n", None, "kind declared twice", 2),
        ("kind rpq\nmode sound\nmode exact\n", None, "mode declared twice", 3),
        ("source a\nkind rpq\n", None, "kind must be declared before symbols", 1),
        ("map a ~> b\n", None, "missing kind declaration", None),
        ("kind rpq\nsource a/2\n", None, "path symbols take no arity: 'a/2'", 2),
        ("kind cq\nsource a\n", None, "relational symbols need an arity: 'a'", 2),
        ("kind cq\nsource a/x\n", None, "bad arity in 'a/x'", 2),
        ("kind cq\nsource a/0\n", None, "bad arity in 'a/0'", 2),
        (CQ_HEAD + "map q(x) :- a(x,:-) ~> q(x) :- r(x,x)\n", None, "bad term ':-'", 4),
        (CQ_HEAD + "map q(x) :- ((x) ~> q(x) :- r(x,x)\n", None, "bad predicate '('", 4),
        (CQ_HEAD + "map q(x) :- a(x,x) ~> q(x) :- r(x,x) & r(x,x)\n", None,
         "unexpected character '&'", 4),
        (SEC6_SOUND, "view a1 = b1 ^ b2\n", "unexpected character '^'", 1),
        (
            CQ_HEAD + "map q(x) :- a(x,x) ~> q(x) :- r(x,x) ; q(x) :- r(x,y)\n",
            None,
            "kind cq admits single-disjunct queries only",
            4,
        ),
        (
            CQ_HEAD + "map q(x) :- a(x,y) ~> q(x,y) :- r(x,y)\n",
            None,
            "source and target queries disagree on head arity",
            4,
        ),
        (CQ_HEAD + "map q(x) :- a(y,y) ~> q(x) :- r(x,x)\n", None,
         "head variable x does not occur in any atom", 4),
        (SEC6_SOUND, "view a1 b1\n", "a view line reads 'view NAME = QUERY'", 1),
        (SEC6_SOUND, "view a1 = b1\nview a1 = b2\n", "view for 'a1' defined twice", 2),
        (CHAIN_CQ, "view a = q(x) :- r(x,y)\n", "view head arity 1 does not match a/2", 1),
        (
            "kind ucq\nsource a/1\ntarget r/1\n"
            "map q(x) :- a(x) ~> q(x) :- r(x) ; q(x,y) :- r(x), r(y)\n",
            None,
            "UCQ disjuncts disagree on head arity",
            4,
        ),
        (
            CHAIN_CQ,
            "# views\nview a = q(x,y) :- r(x,y) ; q(x) :- r(x,x)\n",
            "UCQ disjuncts disagree on head arity",
            2,
        ),
    ],
)
def test_parse_error_names_the_problem_and_its_line(instance, views, message, line):
    # an instance error is raised before the views are read
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse_views(views, parse_instance(instance))
    assert info.value.line == line


def test_regex_concat_and_eps():
    r = parse_regex("b1.b2", {"b1", "b2"})
    assert r == RCat((RSym("b1"), RSym("b2")))
    assert parse_regex("eps", set()) == REps()
    both = parse_regex("a|b", {"a", "b"})
    plus = parse_regex("a+b", {"a", "b"})
    assert both == plus == RAlt((RSym("a"), RSym("b")))


def test_regex_whitespace_concatenation_2rpq():
    r = parse_regex("a b^- b c", None, two_way=True)
    assert r == RCat((RSym("a"), RSym("b^-"), RSym("b"), RSym("c")))


def test_inverse_outside_2rpq_rejected():
    with pytest.raises(ParseError, match="2rpq"):
        parse_regex("a^-", {"a"}, two_way=False)


def test_parse_cq_shapes():
    cq = parse_cq("q(x,y) :- r(x,z), s(z,y)", {"r": 2, "s": 2})
    assert cq.head == ("x", "y")
    assert [a.pred for a in cq.atoms] == ["r", "s"]

    ucq = parse_ucq("q(x,y) :- r(x,y) ; q(u,v) :- s(u,v)", {"r": 2, "s": 2})
    assert len(ucq.disjuncts) == 2


def test_cq_arity_mismatch():
    with pytest.raises(ParseError, match="arity"):
        parse_cq("q(x) :- r(x)", {"r": 2})


def test_cq_unsafe_head_rejected():
    with pytest.raises(Exception, match="head variable"):
        parse_cq("q(x,w) :- r(x,y)", {"r": 2})


@pytest.mark.parametrize(
    "text",
    ["b1.b2", "(b1|b2)*", "b1.(b2|b1)*.b1", "eps|b1", "empty", "b1*|b2.b2"],
)
def test_regex_round_trip_semantics(text):
    alphabet = {"b1", "b2"}
    r = parse_regex(text, alphabet)
    r2 = parse_regex(r.render(), alphabet)
    assert equivalent(compile_regex(r), compile_regex(r2))


def test_cq_round_trip():
    cq = parse_cq("q(x,y) :- r(x,z), s(z,y)", {"r": 2, "s": 2})
    again = parse_cq(cq.render(), {"r": 2, "s": 2})
    assert cq == again


def test_parse_views_file(sec6_sound):
    views = parse_views(
        "view a1 = b1\nview a2 = b2\nview a3 = empty\n", sec6_sound
    )
    assert views["a3"] is None
    assert views["a1"].render() == "b1"
    with pytest.raises(ParseError, match="undeclared"):
        parse_views("view zz = b1", sec6_sound)


def test_mode_line_in_instance_file():
    inst = parse_instance("kind rpq\nmode exact\nsource a\ntarget b\nmap a ~> b\n")
    assert inst.mode == "exact"
    with pytest.raises(ParseError, match="mode"):
        parse_instance("kind rpq\nmode fancy\nsource a\ntarget b\nmap a ~> b\n")


def test_parse_facts_skips_comments_and_blank_lines():
    facts = parse_facts("# a database\nr 1 2  # an edge\n\n   \ns 2\nr 1 2\n")
    assert facts == {"r": {("1", "2")}, "s": {("2",)}}


@pytest.mark.parametrize("text, message, line", [
    ("r 1 2\n\nr\n", "a fact needs at least one constant", 3),
    ("r 1 2\n# r 1\nr 1\n", "predicate 'r' used with arities 2 and 1", 3),
])
def test_parse_facts_error_names_its_line(text, message, line):
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse_facts(text)
    assert info.value.line == line


@pytest.mark.parametrize("text", [
    "q(x) :- r(x), r(x,y)",
    "q(x) :- r(x) ; q(x) :- r(x,x)",
])
def test_ucq_without_schema_keeps_one_arity_per_predicate(text):
    with pytest.raises(ParseError, match="predicate 'r' used with arities 1 and 2"):
        parse_ucq(text)
