"""The view search both query families run."""

from __future__ import annotations

import itertools


def search(symbols, options, prefix_ok, accept, find_all: bool) -> list:
    """Accepted solutions in canonical order, each once; the first only
    unless ``find_all``.

    The depth-first search takes ``symbols`` in order and each symbol's
    ``options(symbol)`` in their canonical order, so it meets full
    assignments in lexicographic canonical order and never meets one twice.
    An assignment to the first symbols is extended only while
    ``prefix_ok(partial)`` holds, which must hold for every prefix of an
    accepted assignment.  The path search checks containment with the
    unassigned symbols having no view, which is lossless because sound
    containment is antitone in the views: growing a view only adds to the
    substituted source.  The relational search checks completions by its
    bottom view (``cq_synth``).
    ``accept(assignment)`` returns the solution to report for a full
    assignment, or ``None``; the assignment is the search's own dict, so a
    solution must copy it.
    """
    partial: dict = {}

    def dfs(depth: int):
        if depth == len(symbols):
            solution = accept(partial)
            if solution is not None:
                yield solution
            return
        sym = symbols[depth]
        for view in options(sym):
            partial[sym] = view
            if depth + 1 == len(symbols) or prefix_ok(partial):
                yield from dfs(depth + 1)
            del partial[sym]

    found = dfs(0)
    return list(found) if find_all else list(itertools.islice(found, 1))
