"""The view search both query families run."""

from __future__ import annotations

import itertools

DEFAULT_SEARCH_BUDGET = 1_000_000


def search(symbols, options, prefix_ok, accept, find_all: bool) -> list:
    """Accepted solutions in canonical order, each once; the first only
    unless ``find_all``.

    The depth-first search takes ``symbols`` in order and each symbol's
    ``options(symbol)`` in their canonical order, so it meets full
    assignments in lexicographic canonical order and never meets one twice.
    ``prefix_ok(partial)`` gives ``(stayed, viable)``, and only a viable
    prefix is extended; ``accept(assignment)`` gives ``(stayed, solution)``,
    a copy of the search's own dict or ``None``.  The search sends the
    options' generator whether each view stayed, that is, whether a larger
    view may still lead to a solution.  The path search grows only those
    views, and checks containment with the unassigned symbols having no
    view, both lossless as sound containment is antitone in the views
    (``rpq_synth``).  The relational search checks completions by its
    bottom view and reports ``None`` for what stayed (``cq_synth``).
    """
    partial: dict = {}

    def dfs(depth: int):
        if depth == len(symbols):
            stayed, solution = accept(partial)
            if solution is not None:
                yield solution
            return stayed
        sym = symbols[depth]
        views, stayed = options(sym), None
        while True:
            try:
                partial[sym] = views.send(stayed)
            except StopIteration:
                partial.pop(sym, None)
                return
            if depth + 1 == len(symbols):
                stayed = yield from dfs(depth + 1)
            else:
                stayed, viable = prefix_ok(partial)
                if viable:
                    yield from dfs(depth + 1)

    found = dfs(0)
    return list(found) if find_all else list(itertools.islice(found, 1))
