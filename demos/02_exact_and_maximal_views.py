"""Exact synthesis, maximal views, and why unions of views can overshoot.

On a1.a2 ~> 00+01+10 the view pairs {0, 0+1} and {0+1, 0} both capture the
mapping soundly and neither can be enlarged, yet their pointwise union
lets the word 11 through.  Exact synthesis searches unions of congruence
classes and verifies containment in both directions.
"""

from viewsynth.automata import compile_regex
from viewsynth.congruence import class_of
from viewsynth.parser import parse_instance, parse_regex
from viewsynth.rpq_synth import (
    capture_check,
    maximize,
    realize_views,
    synthesize_exact,
    synthesize_sound,
    views_to_regex,
)

instance = parse_instance("""
kind rpq
source a1 a2
target 0 1
map a1.a2 ~> 0.0|0.1|1.0
""")

exact = synthesize_exact(instance, find_all=True, maximal=True)
print("exact outcome:", exact.outcome)
for i, views in enumerate(exact.all_views_regex, start=1):
    rendered = {sym: r.render() for sym, r in sorted(views.items())}
    print(f"  exact maximal solution {i}: {rendered}")

# the two incomparable sound-maximal view pairs, grown from single classes
target = compile_regex(parse_regex("0.0|0.1|1.0", {"0", "1"}))
monoid = exact.monoid
c0 = class_of(target, ("0",), monoid)
c1 = class_of(target, ("1",), monoid)

seed = {"a1": frozenset({c0}), "a2": frozenset({c0})}
grown = maximize(instance, seed)
print("\nmaximize from (0, 0):",
      {s: r.render() for s, r in sorted(views_to_regex(grown, monoid).items())})

# the pointwise union of the two incomparable maxima is NOT a capture
union = {"a1": frozenset({c0, c1}), "a2": frozenset({c0, c1})}
result = capture_check(instance, realize_views(union, monoid), "sound")
print("union of the maxima captures?", result.ok,
      "| separating word:", " ".join(result.per_mapping[0].separating))

print("\nall sound-maximal view sets:")
sound = synthesize_sound(instance, find_all=True, maximal=True)
for views in sound.all_views_regex:
    print("  ", {sym: r.render() for sym, r in sorted(views.items())})
