"""Seeded request families for the four benchmark workloads.

Every family is drawn once from a fixed family seed with the generators in
``viewsynth.oracle``, so a family names the same problems on every run.  The
run's ``--seed`` renames every symbol and CQ variable and shuffles the order
of the requests.  The seed thus changes the bytes the engine reads but not
the work it does: random instances of these shapes have run times spread
over four orders of magnitude, and ten freshly drawn families would not
agree on a total within any useful bound.

A request is the argument list of one ``viewsynth`` CLI call plus the
reference its verdict is checked against (see ``referee.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from viewsynth.errors import BudgetExceeded
from viewsynth.model import (
    CQ,
    UCQ,
    Atom,
    Mapping,
    ProblemInstance,
    RAlt,
    RCat,
    Regex,
    RStar,
    RSym,
    SymbolId,
    ralt,
    rcat,
    rstar,
)
from viewsynth.oracle import (
    brute_view_existence_rpq,
    random_rpq_instance,
    random_ucq_instance,
)

import referee

FAMILY_SEED = 7  # the family seed named by ROADMAP item 1
UCQ_FAMILY_SEED = 88  # the criterion-8 family of tests/test_acceptance.py
ORACLE_BUDGET = 20_000  # brute oracle search-space limit; larger instances are excluded
DEMO_DIR = Path("demos/instances")


@dataclass
class Request:
    """One CLI call and the reference its verdict must match.

    ``expect_exit`` is the exit code fixed before the run (0 found/holds,
    1 not found/does not hold), or ``None`` when no referee fixes it.
    ``check`` re-checks the returned payload after the run and answers
    ``True``/``False``, or ``None`` when it cannot judge this payload.
    ``pair`` groups requests whose verdicts must agree.
    """

    argv: list[str]
    expect_exit: "int | None" = None
    check: "Callable[[dict], bool | None] | None" = None
    pair: "str | None" = None


@dataclass
class Workload:
    requests: list[Request]
    files: list[str]  # instance and views files, loaded by the set-up measurement
    families: dict = field(default_factory=dict)  # family name -> parameters and counts


# ---------------------------------------------------------------------------
# Answer-preserving rewrites
# ---------------------------------------------------------------------------

def suffix_names(rng: random.Random, names) -> dict[str, str]:
    """Rename each name by appending a random suffix.

    Appending keeps the sorted order of the names, which is the order the
    engine's searches follow, so a renamed problem costs the same work.
    Shuffling operands or permuting names instead moves the first solution
    of a search: it changed the assignments the rpq_sound family tries by
    up to 44% across six seeds.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    return {n: f"{n}_{''.join(rng.choice(letters) for _ in range(3))}" for n in sorted(names)}


def rewrite_regex(node: Regex, rename: dict[str, str]) -> Regex:
    """Rename labels, keeping inverse marks."""
    if isinstance(node, RSym):
        base, inverse = (node.label[:-2], "^-") if node.label.endswith("^-") else (node.label, "")
        return RSym(rename.get(base, base) + inverse)
    if isinstance(node, RAlt):
        return ralt([rewrite_regex(p, rename) for p in node.parts])
    if isinstance(node, RCat):
        return rcat([rewrite_regex(p, rename) for p in node.parts])
    if isinstance(node, RStar):
        return rstar(rewrite_regex(node.inner, rename))
    return node


def _rewrite_ucq(q: UCQ, rename: dict[str, str]) -> UCQ:
    def cq(d: CQ) -> CQ:
        atoms = tuple(Atom(rename[a.pred], tuple(rename[v] for v in a.args)) for a in d.atoms)
        return CQ(tuple(rename[v] for v in d.head), atoms)

    return UCQ(tuple(cq(d) for d in q.disjuncts))


def rewrite_instance(inst: ProblemInstance, rng: random.Random):
    """The same problem under seeded names, with the renaming applied."""
    names = set(inst.symbols)
    if inst.kind in ("cq", "ucq"):
        for m in inst.mappings:
            for q in (m.source, m.target):
                names |= {v for d in q.disjuncts for v in d.variables()}
        rewrite = _rewrite_ucq
    else:
        rewrite = rewrite_regex
    rename = suffix_names(rng, names)
    mappings = tuple(
        Mapping(rewrite(m.source, rename), rewrite(m.target, rename)) for m in inst.mappings
    )
    symbols = {
        rename[n]: SymbolId(rename[n], s.kind, s.arity) for n, s in inst.symbols.items()
    }
    return ProblemInstance(inst.kind, symbols, mappings, inst.mode), rename


def render_instance(inst: ProblemInstance) -> str:
    """The instance-file text that ``parse_instance`` reads back."""
    path = inst.kind in ("rpq", "2rpq")

    def decl(names):
        return " ".join(n if path else f"{n}/{inst.symbols[n].arity}" for n in names)

    lines = [f"kind {inst.kind}"]
    if inst.mode != "sound":
        lines.append(f"mode {inst.mode}")
    lines.append(f"source {decl(inst.source_names)}")
    lines.append(f"target {decl(inst.target_names)}")
    lines.extend(f"map {m.render()}" for m in inst.mappings)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Family draws
# ---------------------------------------------------------------------------

def draw_rpq_family(shape, count: int, seed: int = FAMILY_SEED):
    """``count`` draws of shape (max source, max target, target leaves, mappings),
    each paired with the brute oracle's verdict and views.

    Draws whose brute search space exceeds ``ORACLE_BUDGET`` have no
    reference answer and are excluded, whatever the engine would make of
    them; the second value returned counts them.
    """
    rng = random.Random(seed)
    max_source, max_target, leaves, mappings = shape
    kept, excluded = [], 0
    for _ in range(count):
        inst = random_rpq_instance(
            rng,
            n_mappings=mappings,
            max_source_symbols=max_source,
            max_target_symbols=max_target,
            max_target_leaves=leaves,
        )
        try:
            outcome, views = brute_view_existence_rpq(inst, budget=ORACLE_BUDGET)
        except BudgetExceeded:
            excluded += 1
            continue
        kept.append((inst, outcome, views))
    return kept, excluded


class _Writer:
    """Writes numbered input files into the run's work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.files: list[str] = []

    def write(self, stem: str, text: str) -> str:
        path = self.workdir / f"{len(self.files):04d}-{stem}"
        path.write_text(text, encoding="utf-8")
        self.files.append(str(path))
        return str(path)


def _synth(path: str, *flags: str) -> list[str]:
    return ["synth", *flags, "--format", "json", path]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

RPQ_SOUND_FAMILIES = {"rpq-3342": ((3, 3, 4, 2), 100), "rpq-4363": ((4, 3, 6, 3), 12)}


def rpq_sound(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    out = _Writer(workdir)
    requests, families = [], {}
    for name, (shape, count) in RPQ_SOUND_FAMILIES.items():
        kept, excluded = draw_rpq_family(shape, count)
        families[name] = _family_record(shape, count, len(kept), excluded)
        for inst, outcome, _ in kept:
            text = render_instance(rewrite_instance(inst, rng)[0])
            path = out.write("sound.vs", text)
            requests.append(
                Request(_synth(path, "--mode", "sound"), referee.exit_code(outcome))
            )
    rng.shuffle(requests)
    return Workload(requests, out.files, families)


RPQ_EXACT_FAMILIES = {"rpq-2212": ((2, 2, 1, 2), 100)}
EXACT_FLAGS = ("--mode", "exact", "--all", "--maximal")


def rpq_exact(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    out = _Writer(workdir)
    sec6 = str(DEMO_DIR / "sec6_exact.vs")
    requests = [Request(_synth(sec6, *EXACT_FLAGS), 0, referee.sec6_exact_views)]
    families = {"sec6_exact": {"file": sec6, "instances": 1}}
    for name, (shape, count) in RPQ_EXACT_FAMILIES.items():
        kept, excluded = draw_rpq_family(shape, count)
        families[name] = _family_record(shape, count, len(kept), excluded)
        for inst, outcome, _ in kept:
            inst, _ = rewrite_instance(inst, rng)
            path = out.write("exact.vs", render_instance(inst))
            # exact capture implies sound capture, so a sound "not-found"
            # fixes the exact verdict; exact views are re-checked by sampling
            expect = 1 if outcome == "not-found" else None
            requests.append(
                Request(_synth(path, *EXACT_FLAGS), expect, referee.coherent_views(inst, "exact"))
            )
    rng.shuffle(requests)
    return Workload(requests, out.files + [sec6], families)


CQ_UCQ_COUNT = 50


def cq_ucq(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    family = random.Random(UCQ_FAMILY_SEED)
    out = _Writer(workdir)
    requests = []
    for i in range(CQ_UCQ_COUNT):
        inst, _ = rewrite_instance(random_ucq_instance(family), rng)
        path = out.write("ucq.vs", render_instance(inst))
        check = referee.coherent_views(inst, "sound")
        for kind in ("cq", "ucq"):
            argv = _synth(path, "--mode", "sound", "--view-kind", kind)
            requests.append(Request(argv, None, check, pair=f"ucq-{i}"))
    rng.shuffle(requests)
    families = {
        "criterion-8": {
            "generator": "oracle.random_ucq_instance",
            "family_seed": UCQ_FAMILY_SEED,
            "params": {"max_source_preds": 2, "max_disjuncts": 2},
            "drawn": CQ_UCQ_COUNT,
            "instances": CQ_UCQ_COUNT,
            "verdicts": 2 * CQ_UCQ_COUNT,
        }
    }
    return Workload(requests, out.files, families)


CHECK_FAMILY = ((3, 3, 4, 2), 40)
CONTAIN_PAIRS = 30  # per kind (rpq and 2rpq)
CONTAIN_LEAVES = (8, 16)
CONTAIN_LABELS = ("a", "b", "c")


def check_contain(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    family = random.Random(FAMILY_SEED)
    out = _Writer(workdir)
    requests: list[Request] = []

    shape, count = CHECK_FAMILY
    kept, excluded = draw_rpq_family(shape, count)
    for i, (inst, _, oracle_views) in enumerate(kept):
        # every other request offers the oracle's capturing views where they
        # exist; the rest offer random words, which mostly fail
        views = oracle_views if (i % 2 == 0 and oracle_views) else _random_word_views(inst, family)
        inst, rename = rewrite_instance(inst, rng)
        views = {
            rename[sym]: None if word is None else tuple(rename[x] for x in word)
            for sym, word in views.items()
        }
        path = out.write("check.vs", render_instance(inst))
        views_path = out.write("check.vsv", referee.render_word_views(views))
        argv = ["check", "--mode", "sound", "--views", views_path, "--format", "json", path]
        requests.append(Request(argv, referee.exit_code(referee.word_views_capture(inst, views))))

    for kind in ("rpq", "2rpq"):
        for i in range(CONTAIN_PAIRS):
            q1, q2, holds = _contain_pair(family, kind, hold=i % 2 == 0)
            rename = suffix_names(rng, CONTAIN_LABELS)
            q1, q2 = rewrite_regex(q1, rename), rewrite_regex(q2, rename)
            if holds is None:
                holds = referee.rpq_contained(q1, q2)
            argv = ["contain", "--kind", kind, "--format", "json", q1.render(), q2.render()]
            requests.append(Request(argv, referee.exit_code(holds)))

    demos = referee.demo_requests(DEMO_DIR)
    demo_files = []
    for argv, expect, check in demos:
        requests.append(Request(argv, expect, check))
        demo_files.extend(a for a in argv if a.startswith(str(DEMO_DIR)))
    rng.shuffle(requests)
    families = {
        "check": _family_record(shape, count, len(kept), excluded),
        "contain": {
            "pairs_per_kind": CONTAIN_PAIRS,
            "kinds": ["rpq", "2rpq"],
            "leaves": list(CONTAIN_LEAVES),
            "labels": list(CONTAIN_LABELS),
            "family_seed": FAMILY_SEED,
        },
        "demos": {"requests": len(demos)},
    }
    return Workload(requests, out.files + sorted(set(demo_files)), families)


def _family_record(shape, drawn: int, kept: int, excluded: int) -> dict:
    return {
        "generator": "oracle.random_rpq_instance",
        "family_seed": FAMILY_SEED,
        "shape": dict(zip(("max_source", "max_target", "target_leaves", "mappings"), shape)),
        "oracle_budget": ORACLE_BUDGET,
        "drawn": drawn,
        "instances": kept,
        "excluded_by_oracle_budget": excluded,
    }


def _random_word_views(inst: ProblemInstance, rng: random.Random) -> dict:
    targets = list(inst.target_names)
    views = {}
    for sym in inst.source_names:
        length = rng.randint(-1, 2)  # -1 stands for the empty view
        views[sym] = None if length < 0 else tuple(rng.choice(targets) for _ in range(length))
    return views


def random_path_query(rng: random.Random, labels, leaves: int) -> Regex:
    """A random regex with exactly ``leaves`` symbol occurrences and inner stars."""
    parts: list[Regex] = [RSym(rng.choice(labels)) for _ in range(leaves)]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        left, right = parts[i], parts[i + 1]
        node = rcat([left, right]) if rng.random() < 0.6 else ralt([left, right])
        if rng.random() < 0.15:
            node = rstar(node)
        parts[i : i + 2] = [node]
    return parts[0]


def _widen(node: Regex, rng: random.Random, labels, two_way: bool) -> Regex:
    """A query containing ``node``: some leaves x become x|y, x* or, for
    two-way queries, the back-and-forth detour x.x^-.x, which folds onto x."""
    if isinstance(node, RSym):
        roll = rng.random()
        if roll < 0.15:
            return ralt([node, RSym(rng.choice(labels))])
        if roll < 0.25:
            return rstar(node)
        if two_way and roll < 0.4:
            label = node.label
            back = label[:-2] if label.endswith("^-") else label + "^-"
            return rcat([node, RSym(back), node])
        return node
    if isinstance(node, RAlt):
        return ralt([_widen(p, rng, labels, two_way) for p in node.parts])
    if isinstance(node, RCat):
        return rcat([_widen(p, rng, labels, two_way) for p in node.parts])
    if isinstance(node, RStar):
        return rstar(_widen(node.inner, rng, labels, two_way))
    return node


def _contain_pair(rng: random.Random, kind: str, hold: bool):
    """(q1, q2, holds) with ``holds`` fixed by construction, or ``None`` when
    the referee must decide it."""
    two_way = kind == "2rpq"
    labels = list(CONTAIN_LABELS) + ([f"{x}^-" for x in CONTAIN_LABELS] if two_way else [])
    q1 = random_path_query(rng, labels, rng.randint(*CONTAIN_LEAVES))
    if hold:
        return q1, _widen(q1, rng, labels, two_way), True
    if two_way:
        # every word of q2 uses the label c, which q1 never mentions, so a
        # database spelling one word of q1 answers q1 but not q2
        q1 = random_path_query(rng, labels[:2] + labels[3:5], rng.randint(*CONTAIN_LEAVES))
        q2 = rcat([_widen(q1, rng, labels, True), RSym("c"), rstar(RSym(rng.choice(labels)))])
        return q1, q2, False
    return q1, random_path_query(rng, labels, rng.randint(*CONTAIN_LEAVES)), None


WORKLOADS = {
    "rpq_sound": rpq_sound,
    "rpq_exact": rpq_exact,
    "cq_ucq": cq_ucq,
    "check_contain": check_contain,
}
