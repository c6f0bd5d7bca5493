"""Shared fixtures and tiny word-level oracles used across the suite."""

import itertools

import pytest
from hypothesis import settings

from viewsynth.automata import NWA, accepts, compile_regex
from viewsynth.model import Mapping, ProblemInstance, RSym, rcat
from viewsynth.parser import parse_instance, parse_regex

# Hypothesis draws the same examples on every run (a seed derived from each
# test) and neither stores nor replays examples, so tier-1 is repeatable;
# each test's own @settings still sets its max_examples.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

SEC6_SOUND = """
kind rpq
source a1 a2 a3
target b1 b2
map (a1|a3).(a2|a3) ~> b1.b2
"""

SEC6_EXACT = """
kind rpq
source a1 a2
target 0 1
map a1.a2 ~> 0.0|0.1|1.0
"""

CHAIN_CQ = """
kind cq
source a/2
target r/2 s/2
map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,z), s(z,y)
"""


@pytest.fixture
def sec6_sound():
    return parse_instance(SEC6_SOUND)


@pytest.fixture
def sec6_exact():
    return parse_instance(SEC6_EXACT)


@pytest.fixture
def chain_cq():
    return parse_instance(CHAIN_CQ)


def rx(text, alphabet=None, two_way=False):
    """Compile a regex string to an NWA."""
    return compile_regex(parse_regex(text, alphabet, two_way=two_way))


def all_words(alphabet, max_len):
    """Every word over the alphabet up to the length bound, shortest first."""
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(sorted(alphabet), repeat=n))
    return out


def bounded_language(a: NWA, alphabet, max_len):
    """Accepted words up to a bound, by direct word-by-word simulation."""
    return {w for w in all_words(alphabet, max_len) if accepts(a, w)}


def assert_same_language_bounded(a: NWA, b: NWA, alphabet, max_len):
    for w in all_words(alphabet, max_len):
        assert accepts(a, w) == accepts(b, w), f"disagree on {w!r}"


def joined_instance(instance: ProblemInstance) -> ProblemInstance:
    """The paper's one-mapping instance: the sources, and the targets, joined
    in order around a separator ``#`` that is declared neither source nor
    target, so no view can use it."""
    sep = RSym("#")
    assert "#" not in instance.symbols

    def join(parts):
        return rcat([x for i, part in enumerate(parts) for x in ((sep, part) if i else (part,))])

    mapping = Mapping(
        source=join([m.source for m in instance.mappings]),
        target=join([m.target for m in instance.mappings]),
    )
    return ProblemInstance(instance.kind, instance.symbols, (mapping,), instance.mode)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion"):
        return
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {status}", flush=True)
