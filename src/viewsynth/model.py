"""Core data model: alphabets, query ASTs, mappings, and problem instances.

All values here are immutable after construction and safe to share across
threads.  Parsing lives in :mod:`viewsynth.parser`; this module only defines
the shapes and their printers.

The values are ``__slots__`` records (:class:`FrozenRecord`), not
dataclasses, whose import and generated methods would cost every CLI launch
milliseconds.  The regex nodes, atoms and CQs, built in bulk, spell out
their own equality and hashing, which is faster than the generic ones.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

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
# Records
# ---------------------------------------------------------------------------

_set = object.__setattr__  # how a frozen record's constructor sets its fields


class Record:
    """Base of the slotted records: equality by exact type and the fields
    named ``compared``, and a repr in dataclass form over those named
    ``shown``.  Both default to the class's own ``__slots__``, which list
    its fields in constructor order, and are given as class keywords."""

    __slots__ = ()

    def __init_subclass__(cls, compared=None, shown=None):
        fields = cls.__dict__.get("__slots__", ())
        cls._compared = fields if compared is None else compared
        cls._shown = fields if shown is None else shown

    def _fill(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, bypassing immutability."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable :class:`Record`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

class SymbolId(FrozenRecord):
    """A declared relation symbol, either source-side or target-side."""

    __slots__ = ("name", "kind", "arity")

    def __init__(self, name: str, kind: str, arity: int = 2):
        if kind not in ("source", "target"):
            raise InputError(f"bad symbol kind {kind!r}")
        if arity < 1:
            raise InputError(f"symbol {name} has non-positive arity")
        self._fill(name, kind, arity)  # kind: "source" | "target"


# ---------------------------------------------------------------------------
# Regular expressions (RPQ / 2RPQ queries)
# ---------------------------------------------------------------------------

class Regex(FrozenRecord):
    """Base class for regular-expression AST nodes.

    Leaves carry symbol names; in 2RPQ mode a leaf label may end in ``^-``
    to denote the inverse of a base symbol.
    """

    __slots__ = ()

    def symbols(self) -> Iterator[str]:
        """Yield every leaf label (with inverse suffix, if any)."""
        raise NotImplementedError

    def render(self) -> str:
        return _render(self, 0)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"


class REmpty(Regex):
    __slots__ = ()

    def symbols(self):
        return iter(())


class REps(Regex):
    __slots__ = ()

    def symbols(self):
        return iter(())


class RSym(Regex):
    __slots__ = ("label",)

    def __init__(self, label: str):
        _set(self, "label", label)

    def __eq__(self, other):
        return self.label == other.label if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.label,))

    def symbols(self):
        yield self.label


class RCat(Regex):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Regex, ...]):
        _set(self, "parts", parts)

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    def symbols(self):
        for p in self.parts:
            yield from p.symbols()


class RAlt(Regex):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Regex, ...]):
        _set(self, "parts", parts)

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    def symbols(self):
        for p in self.parts:
            yield from p.symbols()


class RStar(Regex):
    __slots__ = ("inner",)

    def __init__(self, inner: Regex):
        _set(self, "inner", inner)

    def __eq__(self, other):
        return self.inner == other.inner if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.inner,))

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

@functools.total_ordering
class Atom(FrozenRecord):
    """One atom ``pred(args)``; atoms order by predicate, then arguments."""

    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[str, ...]):
        _set(self, "pred", pred)
        _set(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pred == other.pred and self.args == other.args
        return NotImplemented

    def __hash__(self):
        return hash((self.pred, self.args))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.pred, self.args) < (other.pred, other.args)
        return NotImplemented

    def render(self) -> str:
        return f"{self.pred}({','.join(self.args)})"


class CQ(FrozenRecord):
    """A conjunctive query: head variable tuple plus a body of atoms."""

    __slots__ = ("head", "atoms")

    def __init__(self, head: tuple[str, ...], atoms: tuple[Atom, ...]):
        _set(self, "head", head)
        _set(self, "atoms", atoms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.head == other.head and self.atoms == other.atoms
        return NotImplemented

    def __hash__(self):
        return hash((self.head, self.atoms))

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


class UCQ(FrozenRecord):
    """A union of conjunctive queries sharing one head arity."""

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts: tuple[CQ, ...]):
        if not disjuncts:
            raise InputError("a UCQ needs at least one disjunct")
        arities = {len(d.head) for d in disjuncts}
        if len(arities) != 1:
            raise InputError("UCQ disjuncts disagree on head arity")
        self._fill(disjuncts)

    @property
    def arity(self) -> int:
        return len(self.disjuncts[0].head)

    def atoms(self):
        return (a for d in self.disjuncts for a in d.atoms)

    def predicates(self) -> set[str]:
        return {a.pred for a in self.atoms()}

    def render(self) -> str:
        return " ; ".join(d.render() for d in self.disjuncts)


Query = Regex | UCQ


# ---------------------------------------------------------------------------
# Mappings and instances
# ---------------------------------------------------------------------------

class Mapping(FrozenRecord):
    """One schema mapping: a source query rewriting a target query."""

    __slots__ = ("source", "target")

    def __init__(self, source: Query, target: Query):
        self._fill(source, target)

    def render(self) -> str:
        return f"{self.source.render()} ~> {self.target.render()}"


PATH_KINDS = ("rpq", "2rpq")
RELATIONAL_KINDS = ("cq", "ucq")
KINDS = PATH_KINDS + RELATIONAL_KINDS


class ProblemInstance(FrozenRecord, compared=("kind", "mappings", "mode")):
    """A parsed view-synthesis problem.  Equality ignores ``symbols``."""

    __slots__ = ("kind", "symbols", "mappings", "mode")

    def __init__(
        self, kind: str, symbols: dict[str, SymbolId], mappings: tuple[Mapping, ...] = (),
        mode: str = "sound",
    ):
        if kind not in KINDS:
            raise InputError(f"unknown kind {kind!r}")
        if mode not in ("sound", "exact"):
            raise InputError(f"unknown mode {mode!r}")
        if not mappings:
            raise InputError("an instance needs at least one mapping")
        self._fill(kind, symbols, mappings, mode)

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
