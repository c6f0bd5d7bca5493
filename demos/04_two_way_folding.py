"""Folding and containment for two-way path queries.

A word with inverse letters folds onto a word it can trace with
back-and-forth steps: abb^-bc folds onto abc by walking right over b,
backing up over it, and walking forward again.  Containment of two-way
queries reduces to one-way containment against the fold closure.
"""

from viewsynth.automata import accepts, compile_regex
from viewsynth.oracle import GraphDatabase, eval_2rpq
from viewsynth.parser import parse_regex
from viewsynth.twoway import contains_2rpq, fold_automaton, folds_onto, two_to_one


def rx2(text):
    return compile_regex(parse_regex(text, None, two_way=True))


cert = folds_onto(("a", "b", "b^-", "b", "c"), ("a", "b", "c"))
print("abb^-bc folds onto abc via positions:", cert)

folded = two_to_one(fold_automaton(rx2("a b b^- b c")))
print("fold closure accepts abc:", accepts(folded, ("a", "b", "c")))

print("\ncontainments:")
print("  a.b.c  <=  a.b.b^-.b.c :", contains_2rpq(rx2("a.b.c"), rx2("a.b.b^-.b.c")))
print("  a.c    <=  a.b.b^-.c   :", contains_2rpq(rx2("a.c"), rx2("a.b.b^-.c")))

# the second containment fails for a semantic reason: a database with no
# b edge answers a.c but cannot support the b-detour
db = GraphDatabase(
    frozenset({"x", "y", "w"}),
    frozenset({("x", "a", "y"), ("y", "c", "w")}),
)
print("\non the b-free database:")
print("  a.c answers        :", sorted(eval_2rpq(db, rx2("a.c"))))
print("  a.b.b^-.c answers  :", sorted(eval_2rpq(db, rx2("a.b.b^-.c"))))
