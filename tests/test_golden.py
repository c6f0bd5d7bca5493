"""Pinned output of the CLI and of the demo scripts.

``golden.json`` holds two recordings:

- ``cli``: the argv (run from the repository root), optional stdin, exit
  code and stdout of in-process ``viewsynth.cli.main`` requests on
  ``demos/instances`` and ``demos/data``, with ``--format json`` except for
  two ``check`` requests in text mode.  They cover every subcommand:
  RPQ/CQ/UCQ ``synth`` in both modes with ``--all`` and ``--maximal``,
  ``check`` of path and CQ views, ``contain`` for all four kinds,
  ``monoid`` and the four ``oracle`` commands.  The next six entries pin
  the report shapes: a path check with an empty rewriting (``"witness":
  null``), an exact path check with separating words in both directions
  (JSON and text), the text of a failing CQ check, and two exact ``synth``
  requests that find nothing (CQ with ``bounds``, and RPQ with an empty
  target).  Then comes a two-mapping RPQ ``synth`` whose second target is
  empty: its ``monoid_size`` 3 is that of the disjoint union of the two
  trimmed targets, not of one target joined around a separator.  The last
  ten entries pin the fold path, whose separating words come from
  ``twoway.two_to_one``'s automaton: ``check`` of the 2RPQ instance
  ``fold_2rpq.vs`` in sound and exact mode, with a passing and a failing
  views file, in JSON and text, and a holding and a failing ``contain
  --kind 2rpq``.
- ``demos``: the stdout of each ``demos/0*.py`` script.

Both were recorded with the code before union views began skipping
disjuncts that another disjunct contains.  That change altered one entry,
``synth --all --view-kind ucq union_target_ucq.vs``: its ``all_views``
lost the two unions that equal one of their own disjuncts, and the entry
was updated to the new output.  When ``oracle brute-exists --bound`` was
removed, the one entry that passed ``--bound 2`` lost those two arguments;
its stdout is unchanged.  JSON reports carry no timing fields, so the
recordings are byte-stable.  The ``cli`` entries are replayed in process,
under the test process's hash seed, and once more in a fresh interpreter
for each of ``PYTHONHASHSEED`` 0 and 1.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from viewsynth.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", GOLDEN["cli"], ids=[" ".join(e["argv"]) for e in GOLDEN["cli"]]
)
def test_cli_stdout_is_pinned(entry, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "stdin", io.StringIO(entry.get("stdin", "")))
    code = main(entry["argv"])
    assert code == entry["exit"]
    assert capsys.readouterr().out == entry["stdout"]


# Replays the ``cli`` entries read from stdin through ``main`` and prints
# each entry's exit code and stdout as JSON.
REPLAY = """
import contextlib, io, json, sys
from viewsynth.cli import main
results = []
for entry in json.load(sys.stdin):
    sys.stdin = io.StringIO(entry.get("stdin", ""))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(entry["argv"])
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _env(**extra) -> dict:
    """The environment with ``src`` first on ``PYTHONPATH``, plus ``extra``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("seed", ["0", "1"])
def test_cli_stdout_is_pinned_under_fixed_hash_seeds(seed):
    # the in-process test runs under whatever hash seed pytest has
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY], input=json.dumps(GOLDEN["cli"]), cwd=ROOT,
        capture_output=True, text=True, env=_env(PYTHONHASHSEED=seed), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for entry, (code, out) in zip(GOLDEN["cli"], json.loads(proc.stdout), strict=True):
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]


@pytest.mark.parametrize("name", sorted(GOLDEN["demos"]))
def test_demo_stdout_is_pinned(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN["demos"][name]
