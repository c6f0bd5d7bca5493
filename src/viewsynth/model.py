"""Core data model: alphabets, query ASTs, mappings, and problem instances.

All values here are immutable after construction and safe to share across
threads.  Parsing lives in :mod:`viewsynth.parser`; this module only defines
the shapes and their printers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import InputError

INVERSE_SUFFIX = "^-"

Word = tuple[str, ...]


def inverse(label: str) -> str:
    """Involution on edge labels: a <-> a^-."""
    if label.endswith(INVERSE_SUFFIX):
        return label[: -len(INVERSE_SUFFIX)]
    return label + INVERSE_SUFFIX


def is_inverse(label: str) -> bool:
    return label.endswith(INVERSE_SUFFIX)


def base_label(label: str) -> str:
    return label[: -len(INVERSE_SUFFIX)] if is_inverse(label) else label


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolId:
    """A declared relation symbol, either source-side or target-side."""

    name: str
    kind: str  # "source" | "target"
    arity: int = 2

    def __post_init__(self):
        if self.kind not in ("source", "target"):
            raise InputError(f"bad symbol kind {self.kind!r}")
        if self.arity < 1:
            raise InputError(f"symbol {self.name} has non-positive arity")


# ---------------------------------------------------------------------------
# Regular expressions (RPQ / 2RPQ queries)
# ---------------------------------------------------------------------------

class Regex:
    """Base class for regular-expression AST nodes.

    Leaves carry symbol names; in 2RPQ mode a leaf label may end in ``^-``
    to denote the inverse of a base symbol.
    """

    def symbols(self) -> Iterator[str]:
        """Yield every leaf label (with inverse suffix, if any)."""
        raise NotImplementedError

    def render(self) -> str:
        return _render(self, 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"


@dataclass(frozen=True, repr=False)
class REmpty(Regex):
    def symbols(self):
        return iter(())


@dataclass(frozen=True, repr=False)
class REps(Regex):
    def symbols(self):
        return iter(())


@dataclass(frozen=True, repr=False)
class RSym(Regex):
    label: str

    def symbols(self):
        yield self.label


@dataclass(frozen=True, repr=False)
class RCat(Regex):
    parts: tuple[Regex, ...]

    def symbols(self):
        for p in self.parts:
            yield from p.symbols()


@dataclass(frozen=True, repr=False)
class RAlt(Regex):
    parts: tuple[Regex, ...]

    def symbols(self):
        for p in self.parts:
            yield from p.symbols()


@dataclass(frozen=True, repr=False)
class RStar(Regex):
    inner: Regex

    def symbols(self):
        return self.inner.symbols()


EMPTY = REmpty()
EPS = REps()


def rcat(parts) -> Regex:
    """Concatenation with the usual simplifications (eps unit, empty zero)."""
    flat: list[Regex] = []
    for p in parts:
        if isinstance(p, REmpty):
            return EMPTY
        if isinstance(p, REps):
            continue
        if isinstance(p, RCat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EPS
    if len(flat) == 1:
        return flat[0]
    return RCat(tuple(flat))


def ralt(parts) -> Regex:
    """Union with empty dropped and duplicates removed (order preserved)."""
    flat: list[Regex] = []
    seen = set()
    for p in parts:
        items = p.parts if isinstance(p, RAlt) else (p,)
        for q in items:
            if isinstance(q, REmpty):
                continue
            if q not in seen:
                seen.add(q)
                flat.append(q)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return RAlt(tuple(flat))


def rstar(inner: Regex) -> Regex:
    if isinstance(inner, (REmpty, REps)):
        return EPS
    if isinstance(inner, RStar):
        return inner
    return RStar(inner)


def _render(r: Regex, level: int) -> str:
    # level: 0 = union context, 1 = concat context, 2 = star operand
    if isinstance(r, REmpty):
        return "empty"
    if isinstance(r, REps):
        return "eps"
    if isinstance(r, RSym):
        return r.label
    if isinstance(r, RAlt):
        body = "|".join(_render(p, 1) for p in r.parts)
        return f"({body})" if level >= 1 else body
    if isinstance(r, RCat):
        body = ".".join(_render(p, 2) for p in r.parts)
        return f"({body})" if level >= 2 else body
    if isinstance(r, RStar):
        return _render(r.inner, 2) + "*"
    raise TypeError(f"not a regex node: {r!r}")


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Atom:
    pred: str
    args: tuple[str, ...]

    def render(self) -> str:
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class CQ:
    """A conjunctive query: head variable tuple plus a body of atoms."""

    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def variables(self) -> set[str]:
        out = set(self.head)
        for a in self.atoms:
            out.update(a.args)
        return out

    def predicates(self) -> set[str]:
        return {a.pred for a in self.atoms}

    def render(self, head_name: str = "q") -> str:
        body = ", ".join(a.render() for a in self.atoms)
        return f"{head_name}({','.join(self.head)}) :- {body}"


@dataclass(frozen=True)
class UCQ:
    """A union of conjunctive queries sharing one head arity."""

    disjuncts: tuple[CQ, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise InputError("a UCQ needs at least one disjunct")
        arities = {len(d.head) for d in self.disjuncts}
        if len(arities) != 1:
            raise InputError("UCQ disjuncts disagree on head arity")

    @property
    def arity(self) -> int:
        return len(self.disjuncts[0].head)

    def atoms(self):
        return (a for d in self.disjuncts for a in d.atoms)

    def predicates(self) -> set[str]:
        return {a.pred for a in self.atoms()}

    def render(self) -> str:
        return " ; ".join(d.render() for d in self.disjuncts)


Query = Union[Regex, UCQ]


# ---------------------------------------------------------------------------
# Mappings and instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mapping:
    """One schema mapping: a source query rewriting a target query."""

    source: Query
    target: Query

    def render(self) -> str:
        return f"{self.source.render()} ~> {self.target.render()}"


PATH_KINDS = ("rpq", "2rpq")
RELATIONAL_KINDS = ("cq", "ucq")
KINDS = PATH_KINDS + RELATIONAL_KINDS


@dataclass(frozen=True)
class ProblemInstance:
    """A parsed view-synthesis problem."""

    kind: str
    symbols: dict[str, SymbolId] = field(compare=False)
    mappings: tuple[Mapping, ...] = ()
    mode: str = "sound"  # "sound" | "exact"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown kind {self.kind!r}")
        if self.mode not in ("sound", "exact"):
            raise InputError(f"unknown mode {self.mode!r}")
        if not self.mappings:
            raise InputError("an instance needs at least one mapping")

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, s in self.symbols.items() if s.kind == "source"))

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, s in self.symbols.items() if s.kind == "target"))

    def occurring_source_symbols(self) -> tuple[str, ...]:
        """Source symbols that actually appear in some source query."""
        src = set(self.source_names)
        seen: set[str] = set()
        for m in self.mappings:
            if isinstance(m.source, UCQ):
                seen.update(m.source.predicates() & src)
            else:
                seen.update(base_label(s) for s in m.source.symbols() if base_label(s) in src)
        return tuple(sorted(seen))

    def require_views(self, views) -> None:
        """Raise unless ``views`` has a key for every occurring source symbol."""
        missing = [s for s in self.occurring_source_symbols() if s not in views]
        if missing:
            raise InputError(f"views missing for occurring source symbol(s) {missing}")
