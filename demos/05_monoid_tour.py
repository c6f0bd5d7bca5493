"""The transition monoid behind the search.

Every word over the target alphabet acts on the target automaton's states
as a binary relation; words acting identically are interchangeable inside
any capture, which is what makes searching congruence classes complete.
"""

import itertools

from viewsynth.automata import accepts, compile_regex
from viewsynth.congruence import class_automaton, class_of, pairs, transition_monoid
from viewsynth.parser import parse_regex

target = compile_regex(parse_regex("b1.b2", {"b1", "b2"}))
monoid = transition_monoid(target)

print(f"target automaton: {target.n_states} states")
print(f"monoid size: {len(monoid.elements)}\n")
for i, element in enumerate(monoid.elements):
    witness = " ".join(monoid.witnesses[i]) or "eps"
    tag = "  (identity)" if i == monoid.identity_index else ""
    print(f"  element {i}: witness '{witness}' relation {pairs(element)}{tag}")

print("\nthe class automata partition all words:")
autos = [class_automaton(monoid, i) for i in range(len(monoid.elements))]
for length in range(3):
    for word in itertools.product(("b1", "b2"), repeat=length):
        owner = [i for i, a in enumerate(autos) if accepts(a, word)]
        print(f"  {' '.join(word) or 'eps':12} -> class {owner[0]}")
        assert owner == [class_of(target, word, monoid)]
