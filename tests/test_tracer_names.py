"""The functions and report fields the benchmark's tracer reads exist under
their names."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from viewsynth.cq_synth import synthesize_cq
from viewsynth.rpq_synth import synthesize

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    tracer = load_tracer()
    for mod_name, fns in tracer.TRACED.items():
        module = importlib.import_module(f"viewsynth.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"viewsynth.{mod_name}.{fn}"


def test_tracer_reads_the_synthesis_reports(sec6_sound, chain_cq):
    tracer = load_tracer()
    counters = defaultdict(float)
    tracer._ON_RETURN["rpq_synth.synthesize"](counters, synthesize(sec6_sound))
    tracer._ON_RETURN["cq_synth.synthesize_cq"](counters, synthesize_cq(chain_cq))
    for name in ("rpq_synth.assignments_tried", "rpq_synth.solutions",
                 "cq_synth.checks", "cq_synth.candidates"):
        assert counters[name] > 0, name
