"""Parsers for instance files, queries, and views files.

The instance grammar is line-oriented; ``#`` starts a comment.  Keywords:

    kind   rpq | 2rpq | cq | ucq
    mode   sound | exact            (optional, default sound)
    source NAME ...                 (path kinds)   /  NAME/ARITY ... (cq, ucq)
    target NAME ...
    map    QUERY ~> QUERY

Regex operators: ``.`` or juxtaposition for concatenation, ``|`` or ``+``
for union, ``*`` for iteration, ``eps`` / ``empty`` for the unit and zero
languages.  In 2rpq instances a symbol may carry the inverse suffix ``^-``.
CQs are written ``q(x,y) :- r(x,z), s(z,y)``; ``;`` separates UCQ disjuncts.

Views files hold lines ``view NAME = REGEX|CQ|empty``.  Facts files (databases
for ``oracle eval-ucq``) hold lines ``PRED CONST ...``, each PRED at one arity.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .model import (
    EMPTY,
    EPS,
    KINDS,
    PATH_KINDS,
    Atom,
    CQ,
    Mapping,
    ProblemInstance,
    Query,
    RSym,
    Regex,
    SymbolId,
    UCQ,
    base_label,
    is_inverse,
    ralt,
    rcat,
    rstar,
)

_IDENT = re.compile(r"[A-Za-z0-9_]+")
# group 1 is a token, group 2 a stray character; whitespace matches neither
_REGEX_TOKEN = re.compile(r"([A-Za-z0-9_]+(?:\^-)?|[.|+*()])|(\S)")
_CQ_TOKEN = re.compile(r"([A-Za-z0-9_]+|:-|[(),])|(\S)")


class _Tokens:
    """A token stream; errors name the line and quote the offending token."""

    def __init__(self, text: str, pattern: re.Pattern, line: int | None):
        self.line = line
        self.items: list[str] = []
        for token, stray in pattern.findall(text):
            if stray:
                raise ParseError(f"unexpected character {stray!r}", line)
            self.items.append(token)
        self.i = 0

    def peek(self) -> str | None:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line)
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line)

    def done(self) -> bool:
        return self.i >= len(self.items)


# ---------------------------------------------------------------------------
# Regexes
# ---------------------------------------------------------------------------

def parse_regex(
    text: str,
    alphabet: set[str] | None = None,
    *,
    two_way: bool = False,
    line: int | None = None,
) -> Regex:
    """Parse a path query.

    ``alphabet`` is the set of declared base symbol names; ``None`` accepts
    any identifier (used by the CLI ``contain`` command, which infers the
    alphabet from the queries themselves).
    """
    toks = _Tokens(text, _REGEX_TOKEN, line)
    node = _parse_union(toks, alphabet, two_way)
    if not toks.done():
        raise ParseError(f"trailing input {toks.peek()!r}", line)
    return node


def _parse_union(toks, alphabet, two_way) -> Regex:
    parts = [_parse_concat(toks, alphabet, two_way)]
    while toks.peek() in ("|", "+"):
        toks.next()
        parts.append(_parse_concat(toks, alphabet, two_way))
    return ralt(parts)


def _parse_concat(toks, alphabet, two_way) -> Regex:
    parts = [_parse_star(toks, alphabet, two_way)]
    while True:
        nxt = toks.peek()
        if nxt == ".":
            toks.next()
            parts.append(_parse_star(toks, alphabet, two_way))
        elif nxt is not None and nxt not in ("|", "+", ")", "*", "."):
            # juxtaposition: "a b^- b c"
            parts.append(_parse_star(toks, alphabet, two_way))
        else:
            break
    return rcat(parts)


def _parse_star(toks, alphabet, two_way) -> Regex:
    node = _parse_atom(toks, alphabet, two_way)
    while toks.peek() == "*":
        toks.next()
        node = rstar(node)
    return node


def _parse_atom(toks, alphabet, two_way) -> Regex:
    tok = toks.next()
    if tok == "(":
        node = _parse_union(toks, alphabet, two_way)
        toks.expect(")")
        return node
    if tok in (".", "|", "+", "*", ")"):
        raise ParseError(f"unexpected {tok!r}", toks.line)
    if tok == "eps":
        return EPS
    if tok == "empty":
        return EMPTY
    if is_inverse(tok) and not two_way:
        raise ParseError(f"inverse symbol {tok!r} outside a 2rpq instance", toks.line)
    if alphabet is not None and base_label(tok) not in alphabet:
        raise ParseError(f"undeclared symbol {base_label(tok)!r}", toks.line)
    return RSym(tok)


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------

def parse_cq(
    text: str,
    schema: dict[str, int] | None = None,
    *,
    line: int | None = None,
) -> CQ:
    """Parse one rule ``q(x,y) :- r(x,z), s(z,y)``.

    ``schema`` maps declared predicate names to arities; ``None`` accepts any
    predicate, each at one arity.
    """
    toks = _Tokens(text, _CQ_TOKEN, line)
    cq = _parse_rule(toks, schema)
    if not toks.done():
        raise ParseError(f"trailing input {toks.peek()!r}", line)
    if schema is None:
        _one_arity(cq.atoms, {}, line)
    return cq


def parse_ucq(
    text: str,
    schema: dict[str, int] | None = None,
    *,
    line: int | None = None,
) -> UCQ:
    """Parse ``;``-separated rules into a UCQ; ``schema`` as for
    :func:`parse_cq`, so without one a predicate keeps one arity in all rules."""
    disjuncts = []
    for part in text.split(";"):
        if part.strip() == "":
            raise ParseError("empty disjunct", line)
        disjuncts.append(parse_cq(part, schema, line=line))
    if len({len(d.head) for d in disjuncts}) != 1:
        raise ParseError("UCQ disjuncts disagree on head arity", line)
    ucq = UCQ(tuple(disjuncts))
    if schema is None:
        _one_arity(ucq.atoms(), {}, line)
    return ucq


def _one_arity(atoms, arities: dict[str, int], line: int | None = None) -> None:
    """Record each atom's arity in ``arities``; a predicate at a second arity is an error."""
    for atom in atoms:
        n = len(atom.args)
        if arities.setdefault(atom.pred, n) != n:
            raise ParseError(
                f"predicate {atom.pred!r} used with arities {arities[atom.pred]} and {n}", line
            )


def _parse_rule(toks: _Tokens, schema) -> CQ:
    toks.next()  # head predicate name, irrelevant
    head = _parse_term_list(toks)
    toks.expect(":-")
    atoms = [_parse_atom_cq(toks, schema)]
    while toks.peek() == ",":
        toks.next()
        atoms.append(_parse_atom_cq(toks, schema))
    body_vars = {v for a in atoms for v in a.args}
    for v in head:
        if v not in body_vars:
            raise ParseError(f"head variable {v} does not occur in any atom", toks.line)
    return CQ(tuple(head), tuple(atoms))


def _parse_term_list(toks: _Tokens) -> list[str]:
    toks.expect("(")
    terms = [toks.next()]
    while toks.peek() == ",":
        toks.next()
        terms.append(toks.next())
    toks.expect(")")
    for t in terms:
        if not _IDENT.fullmatch(t):
            raise ParseError(f"bad term {t!r}", toks.line)
    return terms


def _parse_atom_cq(toks: _Tokens, schema) -> Atom:
    pred = toks.next()
    if not _IDENT.fullmatch(pred):
        raise ParseError(f"bad predicate {pred!r}", toks.line)
    args = _parse_term_list(toks)
    if schema is not None:
        if pred not in schema:
            raise ParseError(f"undeclared symbol {pred!r}", toks.line)
        if schema[pred] != len(args):
            raise ParseError(
                f"arity mismatch: {pred} declared /{schema[pred]}, used /{len(args)}",
                toks.line,
            )
    return Atom(pred, tuple(args))


# ---------------------------------------------------------------------------
# Instance and facts files
# ---------------------------------------------------------------------------

def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_facts(text: str) -> dict[str, set[tuple[str, ...]]]:
    """Parse ``PRED CONST ...`` lines into the rows of each predicate."""
    facts: dict[str, set[tuple[str, ...]]] = {}
    arities: dict[str, int] = {}
    for lineno, line in _content_lines(text):
        pred, *consts = line.split()
        if not consts:
            raise ParseError("a fact needs at least one constant", lineno)
        fact = Atom(pred, tuple(consts))
        _one_arity([fact], arities, lineno)
        facts.setdefault(pred, set()).add(fact.args)
    return facts


def parse_ucq_over(text: str, facts: dict[str, set[tuple[str, ...]]]) -> UCQ:
    """Parse a UCQ over ``facts``: a predicate keeps the arity of its facts."""
    query = parse_ucq(text)
    _one_arity(query.atoms(), {p: len(row) for p, rows in facts.items() for row in rows})
    return query


def parse_instance(text: str) -> ProblemInstance:
    """Parse an instance file into a :class:`ProblemInstance`."""
    kind: str | None = None
    mode = "sound"
    symbols: dict[str, SymbolId] = {}
    map_lines: list[tuple[int, str]] = []

    for lineno, line in _content_lines(text):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "kind":
            if rest not in KINDS:
                raise ParseError(f"unknown kind {rest!r}", lineno)
            if kind is not None and rest != kind:
                raise ParseError("kind declared twice", lineno)
            kind = rest
        elif keyword == "mode":
            if rest not in ("sound", "exact"):
                raise ParseError(f"unknown mode {rest!r}", lineno)
            mode = rest
        elif keyword in ("source", "target"):
            if kind is None:
                raise ParseError("kind must be declared before symbols", lineno)
            for decl in rest.split():
                sym = _parse_symbol_decl(decl, keyword, kind, lineno)
                if sym.name in symbols:
                    raise ParseError(f"symbol {sym.name!r} declared twice", lineno)
                symbols[sym.name] = sym
        elif keyword == "map":
            map_lines.append((lineno, rest))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno)

    if kind is None:
        raise ParseError("missing kind declaration")
    if not map_lines:
        raise ParseError("instance declares no mappings")

    mappings = []
    for lineno, rest in map_lines:
        src_text, arrow, tgt_text = rest.partition("~>")
        if not arrow:
            raise ParseError("a mapping needs '~>'", lineno)
        mappings.append(Mapping(*parse_pair(kind, src_text, tgt_text, symbols, line=lineno)))
    return ProblemInstance(kind=kind, symbols=symbols, mappings=tuple(mappings), mode=mode)


def _parse_symbol_decl(decl: str, side: str, kind: str, lineno: int) -> SymbolId:
    name, slash, arity_text = decl.partition("/")
    if kind in PATH_KINDS:
        if slash:
            raise ParseError(f"path symbols take no arity: {decl!r}", lineno)
        arity = 2
    else:
        if not slash:
            raise ParseError(f"relational symbols need an arity: {decl!r}", lineno)
        if not arity_text.isdigit() or int(arity_text) < 1:
            raise ParseError(f"bad arity in {decl!r}", lineno)
        arity = int(arity_text)
    if not _IDENT.fullmatch(name):
        raise ParseError(f"bad symbol name {name!r}", lineno)
    return SymbolId(name=name, kind=side, arity=arity)


def parse_pair(
    kind: str, src_text: str, tgt_text: str, symbols: dict[str, SymbolId] | None = None,
    *, line: int | None = None,
) -> tuple[Query, Query]:
    """Parse the two queries of a ``map`` line or of a containment question.

    ``symbols`` holds the declared symbols, ``None`` accepts any.  The target
    uses no source symbol.  Relational queries share their head arity and
    each predicate's arity, and have one disjunct each in kind ``cq``.
    """
    texts = (src_text, tgt_text)
    if kind in PATH_KINDS:
        alphabet = None if symbols is None else set(symbols)
        src, tgt = (parse_regex(t, alphabet, two_way=kind == "2rpq", line=line) for t in texts)
        used = map(base_label, tgt.symbols())
    else:
        schema = None if symbols is None else {n: s.arity for n, s in symbols.items()}
        src, tgt = (parse_ucq(t, schema, line=line) for t in texts)
        if schema is None:
            _one_arity([*src.atoms(), *tgt.atoms()], {}, line)
        used = sorted(tgt.predicates())
    for name in used:
        if symbols is not None and symbols[name].kind == "source":
            raise ParseError(f"source symbol {name!r} used in a target query", line)
    if kind == "cq" and any(len(q.disjuncts) != 1 for q in (src, tgt)):
        raise ParseError("kind cq admits single-disjunct queries only", line)
    if kind not in PATH_KINDS and src.arity != tgt.arity:
        raise ParseError("source and target queries disagree on head arity", line)
    return src, tgt


# ---------------------------------------------------------------------------
# Views files
# ---------------------------------------------------------------------------

def parse_views(text: str, instance: ProblemInstance) -> dict[str, Query | None]:
    """Parse ``view NAME = ...`` lines.

    Returns a map from source symbol to a query over the target alphabet,
    or ``None`` for the reserved token ``empty``.
    """
    out: dict[str, Query | None] = {}
    target_names = set(instance.target_names)
    schema_tgt = {n: instance.symbols[n].arity for n in target_names}
    for lineno, line in _content_lines(text):
        keyword, _, rest = line.partition(" ")
        if keyword != "view":
            raise ParseError(f"unknown keyword {keyword!r} in views file", lineno)
        name, eq, body = rest.partition("=")
        name = name.strip()
        body = body.strip()
        if not eq or not body:
            raise ParseError("a view line reads 'view NAME = QUERY'", lineno)
        if name not in instance.symbols or instance.symbols[name].kind != "source":
            raise ParseError(f"view for undeclared source symbol {name!r}", lineno)
        if name in out:
            raise ParseError(f"view for {name!r} defined twice", lineno)
        if body == "empty":
            out[name] = None
        elif instance.kind in PATH_KINDS:
            out[name] = parse_regex(
                body, target_names, two_way=instance.kind == "2rpq", line=lineno
            )
        else:
            view = parse_ucq(body, schema_tgt, line=lineno)
            if view.arity != instance.symbols[name].arity:
                raise ParseError(
                    f"view head arity {view.arity} does not match {name}/"
                    f"{instance.symbols[name].arity}",
                    lineno,
                )
            out[name] = view
    return out
