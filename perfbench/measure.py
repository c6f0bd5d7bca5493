"""Closed-loop measurement of one workload, run in a process of its own.

One client with one thread calls ``viewsynth.cli.main`` in-process for each
request in turn and times it; passes over the request list repeat until the
run's time is used.  With tracing on, untraced and traced passes alternate.
Between requests, at most every ``CALIBRATION_EVERY_S``, a fixed piece of
pure-Python work is timed, and each request's time is scaled by how fast
the machine ran around it (see ``reference_scale``).

Usage: python3 perfbench/measure.py PLAN.json RESULT.json
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def call(cli, argv: list[str]):
    """Exit code (or the exception raised) and stdout of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed verdict, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW_S = 5.0  # calibration samples this close to a request scale it
# Median time of calibration_loop on the machine BENCHMARK.json's bounds
# were set on (a 2-core VM, CPython 3.11).
CALIBRATION_REF_S = 0.0035
# Other tenants of a shared machine slow everything on it for seconds to
# minutes at a time.  On that VM, over forty 10-second windows, the median
# time of a fixed set of engine requests moved by a factor of 1.5 and
# followed calibration_loop's median time to the power 0.72 (log-log
# slope, correlation 0.94).  Scaling by that power cut the spread of the
# engine's time across windows from 23% to 5% (IQR over median).
CALIBRATION_EXPONENT = 0.7


def reference_scale(calibration_s: list[float]) -> float:
    """Factor taking times measured alongside these calibration samples to
    the reference machine's speed.  A change to the engine moves the scaled
    times in full; only the machine's own slowdowns are divided out."""
    return (CALIBRATION_REF_S / statistics.median(calibration_s)) ** CALIBRATION_EXPONENT


def calibration_loop() -> int:
    """Fixed pure-Python work like the engine's: integer arithmetic and
    hashing of tuples and frozensets into dicts and sets (a few ms)."""
    table: dict = {}
    seen = set()
    acc = 0
    for i in range(4000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        seen.add(frozenset((i % 31, i % 7, i % 5)))
        acc += (i * i) % 7
    return acc + len(table) + len(seen)


def time_calibration() -> float:
    started = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - started


class Loop:
    def __init__(self, cli, requests: list[list[str]]):
        self.cli = cli
        self.requests = requests
        # per request: distinct (code, stdout) -> number of passes producing it
        self.outputs: list[dict] = [{} for _ in requests]
        self.calibration_at: list[float] = []
        self.calibration_s: list[float] = []

    def calibrate_if_due(self) -> None:
        now = time.perf_counter()
        if not self.calibration_at or now - self.calibration_at[-1] >= CALIBRATION_EVERY_S:
            self.calibration_at.append(now)
            self.calibration_s.append(time_calibration())

    def run_pass(self, tracer=None):
        """Per request: (start, seconds)."""
        clock = time.perf_counter
        samples = []
        for i, argv in enumerate(self.requests):
            self.calibrate_if_due()
            # a CLI call starts in a fresh process with no garbage to collect;
            # without this, which request pays for a full collection depends
            # on the order of the requests, which the seed shuffles
            gc.collect()
            if tracer is not None:
                tracer.request = i
            t0 = clock()
            code, text = call(self.cli, argv)
            samples.append((t0, clock() - t0))
            key = (code, text)
            self.outputs[i][key] = self.outputs[i].get(key, 0) + 1
        self.calibrate_if_due()
        return samples

    def scaled(self, start: float, seconds: float) -> float:
        """One request's time at the reference speed, judged by the
        calibration samples taken within CALIBRATION_WINDOW_S of it."""
        lo = bisect.bisect_left(self.calibration_at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.calibration_at, start + seconds + CALIBRATION_WINDOW_S)
        return seconds * reference_scale(self.calibration_s[lo:hi] or self.calibration_s)


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path[:0] = [plan["src"], str(Path(__file__).resolve().parent)]
    import viewsynth.cli as cli
    from tracer import SPAN_FIELDS, Tracer

    gc.collect()
    gc.freeze()  # later collections skip the interpreter's and modules' objects
    loop = Loop(cli, plan["requests"])
    seconds = plan["seconds"]
    passes, traced_pass_s = [], []
    tracer = Tracer() if plan["trace"] else None
    started = time.perf_counter()
    cycles = []
    while True:
        cycle = time.perf_counter()
        passes.append(loop.run_pass())
        if tracer is not None:
            with tracer:
                traced = loop.run_pass(tracer)
            traced_pass_s.append(sum(t for _, t in traced))
        cycles.append(time.perf_counter() - cycle)
        if time.perf_counter() - started + statistics.median(cycles) > seconds:
            break

    pass_s = [sum(t for _, t in samples) for samples in passes]
    result = {
        "pass_s": pass_s,
        "scaled_request_s": [[loop.scaled(*sample) for sample in samples] for samples in passes],
        "outputs": [
            [[code, text, n] for (code, text), n in outs.items()] for outs in loop.outputs
        ],
        "calibration_s": loop.calibration_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["traced_pass_s"] = traced_pass_s
        result["layers"] = tracer.layer_metrics(
            len(traced_pass_s), reference_scale(loop.calibration_s)
        )
        result["trace_overhead"] = statistics.median(traced_pass_s) / statistics.median(pass_s)
        result["spans"] = len(tracer.spans)
        result["dropped_spans"] = tracer.dropped_spans
        with open(plan["trace_file"], "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": SPAN_FIELDS,
                                "dropped": tracer.dropped_spans}) + "\n")
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
