"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_perfbench.py``.
The smoke tests run every workload for one pass, traced and untraced.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import families  # noqa: E402
import run  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from viewsynth.oracle import brute_view_existence_rpq  # noqa: E402
from viewsynth.parser import parse_instance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _generate(name, seed, workdir):
    workdir.mkdir()
    workload = families.WORKLOADS[name](seed, workdir)
    argv = [[a.replace(str(workdir), "WORK") for a in r.argv] for r in workload.requests]
    contents = {
        f.replace(str(workdir), "WORK"): Path(f).read_text(encoding="utf-8")
        for f in workload.files
    }
    return workload, argv, contents


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic_for_a_seed(name, tmp_path):
    first, argv1, files1 = _generate(name, 5, tmp_path / "a")
    second, argv2, files2 = _generate(name, 5, tmp_path / "b")
    assert argv1 == argv2 and files1 == files2
    assert [r.expect_exit for r in first.requests] == [r.expect_exit for r in second.requests]
    _, argv3, files3 = _generate(name, 6, tmp_path / "c")
    assert (argv3, files3) != (argv1, files1)
    assert len(first.requests) >= 100


def test_rewrite_keeps_the_oracle_verdict():
    kept, _ = families.draw_rpq_family((3, 3, 4, 2), 30)
    rng = random.Random(3)
    for inst, outcome, _ in kept:
        renamed, _ = families.rewrite_instance(inst, rng)
        reread = parse_instance(families.render_instance(renamed))
        assert brute_view_existence_rpq(reread, budget=families.ORACLE_BUDGET)[0] == outcome


def _bindings():
    mods = {n: m for n, m in sys.modules.items() if n.startswith("viewsynth") and m}
    out = {(n, attr): val for n, m in mods.items() for attr, val in vars(m).items()}
    out[("NWA", "__init__")] = mods["viewsynth.automata"].NWA.__dict__["__init__"]
    return out


def test_tracer_restores_every_patched_name():
    import viewsynth.cli  # noqa: F401  (load every module the tracer patches)

    before = _bindings()
    with Tracer() as tracer:
        inside = _bindings()
        from viewsynth import cli, rpq_synth

        assert cli.synthesize is rpq_synth.synthesize  # one wrapper for both names
        patched = {key for key in before if inside[key] is not before[key]}
        cli.main(["contain", "--format", "json", "a.b", "a.(b|c)"])
    assert _bindings() == before
    names = {f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns}
    assert {f"{m.split('.')[-1]}.{a}" for m, a in patched if m != "NWA"} | {"automata.NWA"} >= names
    assert tracer.calls["cli.main"] == 1 and tracer.calls["automata.difference_witness"] == 1


def test_judge_counts_wrong_and_failed_verdicts():
    workload = families.Workload([
        families.Request(["a"], expect_exit=0),
        families.Request(["b"], expect_exit=1),
        families.Request(["c"], expect_exit=0),
        families.Request(["d"], pair="p"),
        families.Request(["e"], pair="p"),
    ], [])
    found = json.dumps({"outcome": "found"})
    outputs = [
        [[0, found, 3]],
        [[0, found, 3]],  # wrong against its reference
        [[3, "", 3]],  # budget exceeded
        [[0, found, 3]],
        [[1, json.dumps({"outcome": "not-found"}), 3]],  # disagrees with its pair
    ]
    failed, unrefereed, problems = run.judge(workload, outputs)
    assert failed == 7 and unrefereed == 2 and len(problems) == 3


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_reports_every_metric(name, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace and name == "cq_ucq":
        reached = [
            k for k, v in result["metrics"].items()
            if k.startswith(("automata.", "congruence.")) and k.endswith(".calls") and v["value"]
        ]
        assert reached == []
