"""View synthesis for conjunctive queries and unions.

Two stories: the classic LAV composition (a source relation standing for
an r-then-s chain), and a union target that a single CQ view cannot match
exactly but a UCQ view can.
"""

from viewsynth.cq_synth import synthesize_cq
from viewsynth.parser import parse_instance

chain = parse_instance("""
kind cq
source a/2
target r/2 s/2
map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,z), s(z,y)
""")

report = synthesize_cq(chain, "exact")
print("chain mapping:", report.outcome)
for sym, view in sorted(report.views.items()):
    print(f"  view {sym} = {view.render() if view is not None else 'undefined'}")
print("  bounds:", report.bounds.to_json())

union_target = parse_instance("""
kind ucq
source a/2
target r/2 s/2
map q(x,y) :- a(x,y) ~> q(x,y) :- r(x,y) ; q(x,y) :- s(x,y)
""")

with_cq = synthesize_cq(union_target, "exact", view_kind="cq")
with_ucq = synthesize_cq(union_target, "exact", view_kind="ucq")
print("\nunion target, exact mode:")
print("  single-CQ views:", with_cq.outcome)
print("  UCQ views:      ", with_ucq.outcome)
if with_ucq.found:
    print("  found:", with_ucq.views["a"].render())

# sound existence does not distinguish the two view languages
sound_cq = synthesize_cq(union_target, "sound", view_kind="cq")
sound_ucq = synthesize_cq(union_target, "sound", view_kind="ucq")
print("\nsound mode agrees across view kinds:",
      sound_cq.outcome == sound_ucq.outcome)
