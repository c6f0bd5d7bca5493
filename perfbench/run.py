"""viewsynth benchmark: time to verdict on seeded instance families.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rpq_sound --seed 1 --seconds 25 --trace 0

One run measures one workload.  It writes the workload's input files,
computes their reference answers, times fresh-interpreter set-up, then runs
the closed loop of ``measure.py`` in a child process so that the child's
peak memory is the engine's alone.  Every verdict is checked against its
reference.  Times are scaled to a reference machine speed measured in the
same run (``measure.reference_scale``).  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's context (Python, cores, commit, seed, families).  With
``--trace 1`` the metrics are the per-layer ones.  Without ``--workload``
every workload runs in turn and a table of their metrics is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11

# Traced functions each workload never calls.  Any other traced function
# that records zero calls fails the traced run, so a renamed function shows
# as an error rather than as a silent zero.
_NO_TWOWAY = {"twoway.fold_automaton", "twoway.two_to_one", "twoway.contains_2rpq"}
_NO_CQ = {
    "cq_synth.synthesize_cq", "cq_synth.enumerate_view_candidates",
    "cq_synth.capture_check_cq", "cq_synth.cq_substitute", "cq_synth.ucq_contains",
    "cq_synth.find_hom",
}
UNREACHED = {
    "rpq_sound": _NO_TWOWAY | _NO_CQ | {
        "parser.parse_views", "automata.difference_witness", "automata.union_nwa",
    },
    "rpq_exact": _NO_TWOWAY | _NO_CQ | {"parser.parse_views", "automata.union_nwa"},
    "cq_ucq": _NO_TWOWAY | {
        "parser.parse_views", "parser.parse_regex",
        "automata.compile_regex", "automata.eliminate_epsilon", "automata.trim",
        "automata.product", "automata.determinize", "automata.complement",
        "automata.is_empty", "automata.difference_witness", "automata.substitute",
        "automata.nwa_to_regex", "automata.union_nwa", "automata.NWA",
        "congruence.transition_monoid", "congruence.class_automaton",
        "rpq_synth.synthesize", "rpq_synth.capture_check", "rpq_synth.views_to_regex",
    },
    "check_contain": {"automata.union_nwa"},
}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import viewsynth.cli
from viewsynth.parser import parse_instance
for name in sys.argv[2:]:
    with open(name, encoding="utf-8") as f:
        text = f.read()
    if name.endswith(".vs"):
        parse_instance(text)
"""


def measure_setup(files: list[str]) -> tuple[float, list[float]]:
    """Median wall time for a fresh interpreter to import ``viewsynth.cli``
    and load the workload's input files, and the calibration loop's times
    taken between launches.  The first launch also compiles bytecode and is
    not counted."""
    from measure import time_calibration

    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *files]
    times, calibration = [], []
    for _ in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - started)
        calibration.extend(time_calibration() for _ in range(5))
    return statistics.median(times[1:]), calibration


def judge(workload, outputs) -> tuple[int, int, list[str]]:
    """(failed verdicts, requests without a referee, problems found)."""
    failed, unrefereed, problems = 0, 0, []
    verdicts: dict[str, set] = {}
    for request, outs in zip(workload.requests, outputs):
        refereed = request.expect_exit is not None
        for code, text, passes in outs:
            problem = _problem(request, code, text)
            if problem is None and request.check is not None:
                verdict = request.check(_read_payload(text))
                refereed = refereed or verdict is not None
                if verdict is False:
                    problem = "returned views fail their re-check"
            if problem is not None:
                failed += passes
                problems.append(f"{' '.join(request.argv)}: {problem}")
            if request.pair is not None:
                verdicts.setdefault(request.pair, set()).add(code)
        unrefereed += not refereed
    for pair, codes in sorted(verdicts.items()):
        if len(codes) > 1:
            failed += 1
            problems.append(f"{pair}: cq and ucq views disagree ({sorted(map(str, codes))})")
    return failed, unrefereed, problems


def _read_payload(text: str) -> dict:
    """Only the verdict fields of the CLI's JSON, so that other keys may change."""
    payload = json.loads(text)
    return {k: payload[k] for k in ("outcome", "views", "holds", "ok") if k in payload}


def _problem(request, code, text) -> "str | None":
    if not isinstance(code, int):
        return code
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        payload = _read_payload(text)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    said = payload.get("outcome", payload.get("holds", payload.get("ok")))
    if (said in ("found", True)) != (code == 0):
        return f"exit code {code} contradicts the reported verdict {said!r}"
    if request.expect_exit is not None and code != request.expect_exit:
        return f"exit code {code}, reference says {request.expect_exit}"
    return None


def context(args, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "viewsynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "requests": len(workload.requests),
        "families": workload.families,
    }


def run_workload(args) -> "dict | None":
    """Run one workload; its record (context and result), or None when a
    traced run finds a traced function that was never called."""
    import families
    from measure import reference_scale

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = families.WORKLOADS[args.workload](args.seed, workdir)
        setup_s, setup_calibration = measure_setup(workload.files)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        plan = {
            "src": str(SRC),
            "requests": [r.argv for r in workload.requests],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "trace_file": str(trace_file),
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(plan_path), str(result_path)],
            # the loop ends within one cycle (two passes when traced) of
            # --seconds; the bound only stops a child that hangs
            check=True, cwd=ROOT, timeout=2 * args.seconds + 120,
        )
        raw = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, unrefereed, problems = judge(workload, raw["outputs"])
    for problem in problems:
        print(f"wrong verdict: {problem}", file=sys.stderr)
    passes = len(raw["pass_s"]) + len(raw.get("traced_pass_s", ()))
    record = context(args, workload)
    record.update(
        passes=passes,
        unrefereed_requests=unrefereed,
        wall_pass_s=raw["pass_s"],
        wall_setup_s=setup_s,
        calibration_median_s=statistics.median(raw["calibration_s"]),
        setup_calibration_median_s=statistics.median(setup_calibration),
    )

    if args.trace:
        from tracer import unit_of

        layers = dict(raw["layers"], trace_overhead=raw["trace_overhead"])
        silent = [
            name for name, value in layers.items()
            if name.endswith(".calls") and value == 0
            and name[: -len(".calls")] not in UNREACHED[args.workload]
        ]
        if silent:
            print(f"error: traced functions recorded no calls: {silent}", file=sys.stderr)
            return None
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
        record.update(trace_file=str(trace_file.relative_to(ROOT)), spans=raw["spans"],
                      dropped_spans=raw["dropped_spans"], wall_traced_pass_s=raw["traced_pass_s"])
    else:
        # each verdict's time is scaled to the reference speed by the
        # calibration samples around it; total_s sums each request's median
        # over the passes, the percentiles pool every verdict of every pass
        scaled = raw["scaled_request_s"]
        verdicts = [t for times in scaled for t in times]
        metrics = {
            "total_s": {
                "value": sum(statistics.median(t) for t in zip(*scaled)), "unit": "s"
            },
            "verdict_p50_ms": {"value": 1000 * statistics.median(verdicts), "unit": "ms"},
            "verdict_p90_ms": {
                "value": 1000 * statistics.quantiles(verdicts, n=10)[8], "unit": "ms"
            },
            "setup_s": {"value": setup_s * reference_scale(setup_calibration), "unit": "s"},
            "peak_rss_mb": {"value": raw["maxrss_kb"] / 1024, "unit": "MB"},
        }
    result = {
        "correct": failed == 0,
        "attempted": passes * len(workload.requests),
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def run_all(args) -> int:
    """Every workload in turn; the measuring loop of each still runs in a
    process of its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        record = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        print(f"== {name}")
        if record is None:
            status = 1
            continue
        result = record["result"]
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:48s} {m['value']:.6g} {m['unit']}")
    return status


WORKLOAD_NAMES = ("rpq_sound", "rpq_exact", "cq_ucq", "check_contain")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "viewsynth" / "cli.py").is_file():
        print(f"error: no viewsynth sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload is None:
        return run_all(args)
    record = run_workload(args)
    if record is None:
        return 1
    print(json.dumps({"context": {k: v for k, v in record.items() if k != "result"}}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
