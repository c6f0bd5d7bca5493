"""View synthesis from schema mappings.

Given mappings relating source queries to target queries, decide whether
one view per source symbol exists making every source query a nonempty
sound (or exact) rewriting of its target query, and produce such views.
Covers regular path queries (congruence-class search) and (unions of)
conjunctive queries (bounded candidate search), plus containment of
two-way path queries via folding.
"""

__version__ = "0.1.0"
