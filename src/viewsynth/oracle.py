"""Independent brute-force semantics used to validate every synthesis path.

Everything here re-derives its answers from first principles (graph
reachability, word enumeration, homomorphism enumeration) without calling
into the determinize/complement containment pipeline, so agreement between
this module and the engine is meaningful evidence.  The only shared code is
the errors, the model's data types, from automata the NWA type with regex
compilation and epsilon elimination, and the parser's line reader; of an
NWA it reads the fields it is built from, not the ``rows`` the kernels read.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from dataclasses import dataclass, field

from .errors import BudgetExceeded, InputError, ParseError
from .model import (
    Atom,
    CQ,
    EPS,
    Mapping,
    ProblemInstance,
    RSym,
    Regex,
    SymbolId,
    UCQ,
    Word,
    base_label,
    is_inverse,
    ralt,
    rcat,
    rstar,
)
from .automata import NWA, compile_regex, eliminate_epsilon
from .parser import _content_lines

DEFAULT_ORACLE_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# Graph databases and path-query evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphDatabase:
    """A finite edge-labeled graph."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str, str]]  # (source, label, destination)

    def __post_init__(self):
        for s, _, d in self.edges:
            if s not in self.nodes or d not in self.nodes:
                raise InputError("edge endpoint outside the node set")

    def to_json(self):
        return {
            "nodes": sorted(self.nodes),
            "edges": sorted(list(e) for e in self.edges),
        }


def parse_graph(text: str) -> GraphDatabase:
    """Parse the edge-list format ``node -label-> node``, one edge per line."""
    nodes: set[str] = set()
    edges: set[tuple[str, str, str]] = set()
    for lineno, line in _content_lines(text):
        m = re.fullmatch(r"([^-]*)-(.*?)->(.*)", line)
        src, label, dst = (g.strip() for g in m.groups()) if m else ("", "", "")
        if not (src and label and dst):
            raise ParseError("expected 'node -label-> node'", lineno)
        nodes |= {src, dst}
        edges.add((src, label, dst))
    return GraphDatabase(frozenset(nodes), frozenset(edges))


def eval_rpq(db: GraphDatabase, a: NWA) -> set[tuple[str, str]]:
    """Pairs of objects connected by a path in L(a): product-graph reachability."""
    return _eval_path(db, a, two_way=False)


def eval_2rpq(db: GraphDatabase, a: NWA) -> set[tuple[str, str]]:
    """Pairs connected by a semipath conforming to L(a); inverse labels walk
    edges backwards."""
    return _eval_path(db, a, two_way=True)


def _eval_path(db: GraphDatabase, a: NWA, two_way: bool) -> set[tuple[str, str]]:
    forward: dict[tuple[str, str], set[str]] = {}
    backward: dict[tuple[str, str], set[str]] = {}
    for s, lbl, d in db.edges:
        forward.setdefault((s, lbl), set()).add(d)
        backward.setdefault((d, lbl), set()).add(s)
    moves: dict[int, list[tuple[str, int]]] = {}
    for p, label, q in a.transitions:
        moves.setdefault(p, []).append((label, q))
    answers: set[tuple[str, str]] = set()
    for origin in db.nodes:
        seen = {(origin, s) for s in a.initials}
        queue = deque(seen)
        while queue:
            node, state = queue.popleft()
            if state in a.finals:
                answers.add((origin, node))
            for label, nxt_state in moves.get(state, ()):
                if two_way and is_inverse(label):
                    hops = backward.get((node, base_label(label)), ())
                else:
                    hops = forward.get((node, label), ())
                for nxt_node in hops:
                    cfg = (nxt_node, nxt_state)
                    if cfg not in seen:
                        seen.add(cfg)
                        queue.append(cfg)
    return answers


# ---------------------------------------------------------------------------
# Relational instances and (U)CQ evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelInstance:
    """Per-predicate sets of constant tuples."""

    facts: dict[str, frozenset[tuple[str, ...]]] = field(default_factory=dict)

    def tuples(self, pred: str) -> frozenset[tuple[str, ...]]:
        return self.facts.get(pred, frozenset())

    def merged_with(self, other: "RelInstance") -> "RelInstance":
        facts = dict(self.facts)
        for pred, rows in other.facts.items():
            facts[pred] = facts.get(pred, frozenset()) | rows
        return RelInstance(facts)

    def to_json(self):
        return {pred: sorted(list(t) for t in rows) for pred, rows in self.facts.items()}


def rel_instance(facts: dict[str, set[tuple[str, ...]]]) -> RelInstance:
    return RelInstance({p: frozenset(rows) for p, rows in facts.items() if rows})


def _hom_extensions(atoms, inst: RelInstance, binding: dict[str, str]):
    """All total variable bindings mapping every atom onto a fact."""
    if not atoms:
        yield dict(binding)
        return
    atom, rest = atoms[0], atoms[1:]
    for row in inst.tuples(atom.pred):
        if len(row) != len(atom.args):
            continue
        local = dict(binding)
        ok = True
        for var, const in zip(atom.args, row):
            if local.get(var, const) != const:
                ok = False
                break
            local[var] = const
        if ok:
            yield from _hom_extensions(rest, inst, local)


def eval_cq(inst: RelInstance, q: CQ) -> set[tuple[str, ...]]:
    return {
        tuple(b[v] for v in q.head)
        for b in _hom_extensions(list(q.atoms), inst, {})
    }


def eval_ucq(inst: RelInstance, q: UCQ) -> set[tuple[str, ...]]:
    out: set[tuple[str, ...]] = set()
    for d in q.disjuncts:
        out |= eval_cq(inst, d)
    return out


def canonical_db(q: CQ) -> tuple[RelInstance, tuple[str, ...]]:
    """Freeze the variables of a CQ into constants; returns (instance, head)."""
    facts: dict[str, set[tuple[str, ...]]] = {}
    for a in q.atoms:
        facts.setdefault(a.pred, set()).add(tuple(a.args))
    return rel_instance(facts), tuple(q.head)


def cq_contained_canonical(q1: CQ, q2: "CQ | UCQ") -> bool:
    """q1 contained in q2, decided on q1's canonical database."""
    inst, head = canonical_db(q1)
    target = q2 if isinstance(q2, UCQ) else UCQ((q2,))
    return head in eval_ucq(inst, target)


def ucq_contained_canonical(q1: UCQ, q2: UCQ) -> bool:
    return all(cq_contained_canonical(d, q2) for d in q1.disjuncts)


def _canonical_existentials(atoms: tuple[Atom, ...], head_vars: set[str]):
    """Least sorted atom tuple over renamings of the existentials onto
    ``e0..e(k-1)``, found by trying every permutation."""
    existentials = sorted({v for a in atoms for v in a.args if v not in head_vars})
    names = [f"e{i}" for i in range(len(existentials))]
    renames = (dict(zip(existentials, p)) for p in itertools.permutations(names))
    return min(
        tuple(sorted(Atom(a.pred, tuple(r.get(v, v) for v in a.args)) for a in atoms))
        for r in renames
    )


def brute_view_candidates(
    arity: int, target_schema: dict[str, int], atom_bound: int, keep
) -> list[CQ]:
    """Referee for ``cq_synth.enumerate_view_candidates``: every CQ view of
    the given head arity with at most ``atom_bound`` target atoms, one per
    renaming class of its existentials, that passes ``keep``.  Each body
    over a large enough variable pool is built and canonicalized by trying
    every permutation; ``keep`` meets each new canonical form once."""
    max_arity = max(target_schema.values(), default=2)
    seen: set[CQ] = set()
    kept: list[CQ] = []
    # head patterns: tuples over h0, h1, ... naming each new variable in order
    heads = {
        tuple(f"h{sorted(set(t), key=t.index).index(i)}" for i in t)
        for t in itertools.product(range(arity), repeat=arity)
    }
    for head in sorted(heads):
        head_vars = sorted(set(head))
        n_exist = max(0, atom_bound * max_arity - len(head_vars))
        pool = head_vars + [f"e{i}" for i in range(n_exist)]
        universe = sorted(
            Atom(pred, args)
            for pred in sorted(target_schema)
            for args in itertools.product(pool, repeat=target_schema[pred])
        )
        for n_atoms in range(1, atom_bound + 1):
            for body in itertools.combinations(universe, n_atoms):
                if not set(head_vars) <= {v for a in body for v in a.args}:
                    continue
                view = CQ(head, _canonical_existentials(body, set(head_vars)))
                if view not in seen:
                    seen.add(view)
                    if keep(view):
                        kept.append(view)
    return sorted(kept, key=lambda c: (len(c.atoms), c.render()))


# ---------------------------------------------------------------------------
# Word-level helpers (no determinization anywhere below)
# ---------------------------------------------------------------------------

def _stepper(a: NWA):
    """``step(states, label)``, read off ``a.transitions``, not the engine's rows."""
    moves: dict[tuple[int, str], list[int]] = {}
    for p, x, q in a.transitions:
        moves.setdefault((p, x), []).append(q)
    return lambda states, label: frozenset(q for p in states for q in moves.get((p, label), ()))


def enumerate_language(a: NWA, max_len: int, cap: int | None = None) -> list[Word]:
    """All accepted words of length at most ``max_len``, shortest first."""
    step = _stepper(a)
    out: list[Word] = []
    layer: dict[Word, frozenset[int]] = {(): frozenset(a.initials)}
    for _ in range(max_len + 1):
        next_layer: dict[Word, frozenset[int]] = {}
        for word in sorted(layer):
            states = layer[word]
            if states & a.finals:
                out.append(word)
                if cap is not None and len(out) > cap:
                    raise BudgetExceeded("language enumeration", cap)
            for label in sorted(a.labels_present()):
                nxt = step(states, label)
                if nxt:
                    next_layer[word + (label,)] = nxt
        layer = next_layer
    return out


def nfa_contained_brute(a: NWA, b: NWA) -> bool:
    """Containment by searching the joint subset graph for a counterexample.

    Independent of the engine's determinize/complement pipeline: explores
    pairs (reachable subset of a, reachable subset of b) directly.
    """
    labels = sorted(a.labels_present() | b.alphabet)
    step_a, step_b = _stepper(a), _stepper(b)
    start = (frozenset(a.initials), frozenset(b.initials))
    seen = {start}
    queue = deque([start])
    while queue:
        sa, sb = queue.popleft()
        if (sa & a.finals) and not (sb & b.finals):
            return False
        for label in labels:
            na = step_a(sa, label)
            if not na:
                continue
            nb = step_b(sb, label)
            cfg = (na, nb)
            if cfg not in seen:
                seen.add(cfg)
                queue.append(cfg)
    return True


def substitute_words(a: NWA, views: dict[str, "Word | None"], source_symbols) -> NWA:
    """Textual substitution of singleton-word views into an automaton.

    Each source-labeled transition becomes a chain spelling the view word
    (an epsilon edge for the empty word) or disappears for the empty view.
    """
    source_symbols = set(source_symbols)
    transitions: set[tuple[int, "str | None", int]] = set()
    labels: set[str] = set(a.alphabet - source_symbols)
    n = a.n_states
    for p, x, q in a.transitions:
        if x not in source_symbols:
            transitions.add((p, x, q))
            continue
        word = views.get(x)
        if word is None:
            continue
        labels |= set(word)
        if len(word) == 0:
            transitions.add((p, None, q))
            continue
        prev = p
        for letter in word[:-1]:
            transitions.add((prev, letter, n))
            prev = n
            n += 1
        transitions.add((prev, word[-1], q))
    return eliminate_epsilon(n, labels, a.initials, a.finals, transitions)


# ---------------------------------------------------------------------------
# Brute-force RPQ view existence
# ---------------------------------------------------------------------------

def _stabilization_length(targets: list[NWA], alphabet, max_len: int) -> int:
    """First word length adding no new joint state relation.

    Once a full length level realizes only relations seen at shorter
    lengths, every longer word behaves like a shorter one inside every
    target automaton, so capture checks never need longer view words.
    """
    steps = [(t, _stepper(t)) for t in targets]

    def relation(word):
        rels = []
        for t, step in steps:
            pairs = []
            for p in range(t.n_states):
                cur = {p}
                for lbl in word:
                    cur = step(cur, lbl)
                pairs.extend((p, q) for q in cur)
            rels.append(frozenset(pairs))
        return tuple(rels)

    seen = {relation(())}
    length = 0
    for level in range(1, max_len + 1):
        fresh = False
        for word in itertools.product(sorted(alphabet), repeat=level):
            sig = relation(word)
            if sig not in seen:
                seen.add(sig)
                fresh = True
        if not fresh:
            break
        length = level
    return length


def brute_view_existence_rpq(
    instance: ProblemInstance,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> tuple[str, dict[str, "Word | None"] | None]:
    """Exhaustive search over singleton-word (or empty) views.

    Completeness rests on two facts: capturing views can be thinned to one
    word (or nothing) per symbol, and words beyond the point where target
    state relations stop being new are interchangeable with shorter ones.
    Returns ``("found", views)`` or ``("not-found", None)``.
    """
    if instance.kind != "rpq":
        raise InputError("the brute RPQ oracle handles kind rpq only")
    target_alpha = sorted(instance.target_names)
    sources = instance.occurring_source_symbols()
    source_autos = [compile_regex(m.source) for m in instance.mappings]
    target_autos = [compile_regex(m.target) for m in instance.mappings]

    word_bound = _stabilization_length(target_autos, target_alpha, max_len=12)
    words: list[Word] = [()]
    for length in range(1, word_bound + 1):
        words.extend(itertools.product(target_alpha, repeat=length))
    options: list[Word | None] = [None] + words

    total = len(options) ** max(len(sources), 1)
    if total > budget:
        raise BudgetExceeded("brute view search", budget)

    def captures(assignment: dict[str, Word | None]) -> bool:
        for src_auto, tgt_auto in zip(source_autos, target_autos):
            substituted = substitute_words(src_auto, assignment, sources)
            if not _has_accepting_path(substituted):
                return False
            if not nfa_contained_brute(substituted, tgt_auto):
                return False
        return True

    for combo in itertools.product(options, repeat=len(sources)):
        assignment = dict(zip(sources, combo))
        if captures(assignment):
            return "found", assignment
    return "not-found", None


def _has_accepting_path(a: NWA) -> bool:
    succ: dict[int, list[int]] = {}
    for p, _, q in a.transitions:
        succ.setdefault(p, []).append(q)
    seen = set(a.initials)
    queue = deque(seen)
    while queue:
        s = queue.popleft()
        if s in a.finals:
            return True
        for d in succ.get(s, ()):
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return False


# ---------------------------------------------------------------------------
# Semantic soundness sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleReport:
    ok: bool
    samples: int
    seed: int = 0
    counterexample: "dict | None" = None

    def to_json(self):
        out = {"ok": self.ok, "samples": self.samples, "seed": self.seed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def coherence_soundness_sample(
    instance: ProblemInstance,
    views,
    samples: int = 50,
    seed: int = 0,
    mode: "str | None" = None,
) -> SampleReport:
    """Check capture semantically on random databases.

    For each sampled target database, source relations are populated with
    exactly the evaluation of their views, the source queries are evaluated
    over the combined database, and the answers must be a subset of (in
    exact mode: equal to) the target query's answers.

    ``views`` maps source symbols to view automata / CQ views (``None`` for
    the empty view), matching the instance kind.
    """
    instance.require_views(views)
    mode = mode or instance.mode
    rng = random.Random(seed)
    if instance.kind in ("rpq", "2rpq"):
        return _sample_paths(instance, views, samples, rng, mode, seed)
    return _sample_relational(instance, views, samples, rng, mode, seed)


def _sample_paths(instance, views, samples, rng, mode, seed=0) -> SampleReport:
    source_names = set(instance.source_names)
    compiled = [
        (compile_regex(m.source), compile_regex(m.target)) for m in instance.mappings
    ]
    two_way = instance.kind == "2rpq"
    evaluate = eval_2rpq if two_way else eval_rpq
    for i in range(samples):
        db_t = random_graph(rng, list(instance.target_names), max_nodes=4)
        edges = set(db_t.edges)
        for name in sorted(source_names):
            view = views.get(name)
            if view is None:
                continue
            for x, y in sorted(evaluate(db_t, view)):
                edges.add((x, name, y))
        combined = GraphDatabase(db_t.nodes, frozenset(edges))
        for m_idx, (src_auto, tgt_auto) in enumerate(compiled):
            got = evaluate(combined, src_auto)
            want = evaluate(db_t, tgt_auto)
            bad = got - want if mode == "sound" else got ^ want
            if bad:
                return SampleReport(
                    ok=False,
                    samples=i + 1,
                    seed=seed,
                    counterexample={
                        "database": db_t.to_json(),
                        "mapping": m_idx,
                        "pairs": sorted(list(p) for p in bad),
                    },
                )
    return SampleReport(ok=True, samples=samples, seed=seed)


def _sample_relational(instance, views, samples, rng, mode, seed=0) -> SampleReport:
    target_schema = {
        n: instance.symbols[n].arity for n in instance.target_names
    }
    for i in range(samples):
        inst_t = random_rel_instance(rng, target_schema, max_constants=4)
        facts: dict[str, set[tuple[str, ...]]] = {}
        for name in instance.source_names:
            view = views.get(name)
            if view is None:
                continue
            rows = eval_ucq(inst_t, view if isinstance(view, UCQ) else UCQ((view,)))
            if rows:
                facts[name] = set(rows)
        combined = inst_t.merged_with(rel_instance(facts))
        for m_idx, m in enumerate(instance.mappings):
            got = eval_ucq(combined, m.source)
            want = eval_ucq(inst_t, m.target)
            bad = got - want if mode == "sound" else got ^ want
            if bad:
                return SampleReport(
                    ok=False,
                    samples=i + 1,
                    seed=seed,
                    counterexample={
                        "database": inst_t.to_json(),
                        "mapping": m_idx,
                        "tuples": sorted(list(t) for t in bad),
                    },
                )
    return SampleReport(ok=True, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, labels: list[str], max_nodes: int = 4) -> GraphDatabase:
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.choice(nodes), rng.choice(labels), rng.choice(nodes)))
    return GraphDatabase(frozenset(nodes), frozenset(edges))


def random_rel_instance(
    rng: random.Random, schema: dict[str, int], max_constants: int = 4
) -> RelInstance:
    consts = [f"c{i}" for i in range(rng.randint(1, max_constants))]
    facts: dict[str, set[tuple[str, ...]]] = {}
    for pred, arity in schema.items():
        rows = set()
        for _ in range(rng.randint(0, 3)):
            rows.add(tuple(rng.choice(consts) for _ in range(arity)))
        if rows:
            facts[pred] = rows
    return rel_instance(facts)


def random_regex(
    rng: random.Random,
    labels: list[str],
    max_leaves: int = 2,
    star_ok: bool = True,
) -> Regex:
    """A small random regex with at most ``max_leaves`` symbol occurrences."""
    leaves = rng.randint(1, max_leaves)
    parts: list[Regex] = [RSym(rng.choice(labels)) for _ in range(leaves)]
    while len(parts) > 1:
        right = parts.pop()
        left = parts.pop()
        parts.append(rcat([left, right]) if rng.random() < 0.6 else ralt([left, right]))
    node = parts[0]
    if star_ok and rng.random() < 0.25:
        node = rstar(node)
    if rng.random() < 0.1:
        node = ralt([node, EPS])
    return node


def random_rpq_instance(
    rng: random.Random,
    n_mappings: int = 1,
    max_source_symbols: int = 2,
    max_target_symbols: int = 2,
    max_target_leaves: int = 2,
) -> ProblemInstance:
    """A small RPQ instance in the regime used by the cross-validation suites."""
    n_src = rng.randint(1, max_source_symbols)
    n_tgt = rng.randint(1, max_target_symbols)
    src_names = [f"a{i+1}" for i in range(n_src)]
    tgt_names = [f"b{i+1}" for i in range(n_tgt)]
    symbols = {n: SymbolId(n, "source") for n in src_names}
    symbols.update({n: SymbolId(n, "target") for n in tgt_names})
    mappings = []
    for _ in range(n_mappings):
        # source queries mention source symbols, sometimes a target symbol
        pool = src_names + (tgt_names if rng.random() < 0.3 else [])
        src = random_regex(rng, pool, max_leaves=3, star_ok=False)
        tgt = random_regex(rng, tgt_names, max_leaves=max_target_leaves)
        mappings.append(Mapping(source=src, target=tgt))
    return ProblemInstance(kind="rpq", symbols=symbols, mappings=tuple(mappings))


def random_cq(
    rng: random.Random,
    schema: dict[str, int],
    head_arity: int = 2,
    max_atoms: int = 3,
    max_vars: int = 4,
) -> CQ:
    variables = [f"x{i}" for i in range(max_vars)]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        pred = rng.choice(sorted(schema))
        atoms.append(
            Atom(pred, tuple(rng.choice(variables) for _ in range(schema[pred])))
        )
    body_vars = sorted({v for a in atoms for v in a.args})
    head = tuple(rng.choice(body_vars) for _ in range(head_arity))
    return CQ(head, tuple(atoms))


def random_ucq_instance(
    rng: random.Random,
    max_source_preds: int = 2,
    max_disjuncts: int = 2,
) -> ProblemInstance:
    """A small UCQ instance for the UCQ-vs-CQ view existence comparison."""
    n_src = rng.randint(1, max_source_preds)
    src_names = [f"a{i+1}" for i in range(n_src)]
    tgt_names = ["r", "s"]
    symbols = {n: SymbolId(n, "source", 2) for n in src_names}
    symbols.update({n: SymbolId(n, "target", 2) for n in tgt_names})
    schema_src = {n: 2 for n in src_names}
    schema_tgt = {n: 2 for n in tgt_names}

    def query(schema, max_atoms):
        disjuncts = []
        for _ in range(rng.randint(1, max_disjuncts)):
            disjuncts.append(
                random_cq(rng, schema, head_arity=2, max_atoms=max_atoms, max_vars=3)
            )
        return UCQ(tuple(disjuncts))

    src_schema = dict(schema_src)
    if rng.random() < 0.3:
        src_schema.update(schema_tgt)
    mapping = Mapping(source=query(src_schema, 2), target=query(schema_tgt, 2))
    return ProblemInstance(kind="ucq", symbols=symbols, mappings=(mapping,))
