"""The functions the benchmark's tracer patches exist under their names."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, fns in tracer.TRACED.items():
        module = importlib.import_module(f"viewsynth.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"viewsynth.{mod_name}.{fn}"
