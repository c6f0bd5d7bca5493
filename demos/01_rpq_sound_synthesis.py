"""Sound view synthesis for regular path queries, end to end.

The mapping (a1|a3).(a2|a3) ~> b1.b2 only works if a3 is assigned the
empty view: any word given to a3 would have to serve as both a first and
a second letter of b1.b2.
"""

from viewsynth.oracle import coherence_soundness_sample
from viewsynth.parser import parse_instance
from viewsynth.rpq_synth import realize_views, synthesize_sound

instance = parse_instance("""
kind rpq
source a1 a2 a3
target b1 b2
map (a1|a3).(a2|a3) ~> b1.b2
""")

report = synthesize_sound(instance)
print("outcome:", report.outcome)
for sym, regex in sorted(report.views_regex.items()):
    print(f"  view {sym} = {regex.render()}")

print("\nper-mapping verification:")
for i, rec in enumerate(report.checks.per_mapping):
    print(f"  mapping {i}: contained={rec.contained} nonempty={rec.nonempty}",
          f"witness={' '.join(rec.witness)}")

# semantic spot check: build random target databases, populate the sources
# from the views, and confirm source answers stay inside target answers
views = realize_views(report.views, report.monoid)
sample = coherence_soundness_sample(instance, views, samples=50, seed=7)
print("\ncoherence sampling:", "pass" if sample.ok else "FAIL")

print(f"\nsearch statistics: {report.stats.assignments_tried} assignments tried,",
      f"monoid size {report.stats.monoid_size}")
