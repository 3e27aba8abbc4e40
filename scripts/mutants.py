#!/usr/bin/env python3
"""Run the test suite against named source mutations and report which it kills.

Usage: ``python scripts/mutants.py [--mutant NAME ...] [TEST_PATH ...]``.

Each mutant is one string replacement in one file of ``src/imbalance``,
from the fixed list ``MUTANTS`` below; ``--mutant`` picks some of them by
name (default: all; an unknown name lists the known ones).  The
repository is copied once, without its ``.git``, into a temporary
directory (under ``$TMPDIR`` when set), and the tests run there as
``python -m pytest -q --continue-on-collection-errors TEST_PATH...``
(default: ``tests``), never in the checkout itself, so each TEST_PATH is
relative to the repository's root.  The script's own tests are left out: they check the
unmutated source and would run the script again.

First the unmutated copy runs.  It must pass, and its time sets the
bound: a mutant run longer than ``BOUND_FACTOR`` times the clean run is
stopped: it counts as killed when a test had failed by then, and as
stalled otherwise.  Then each mutant is applied, run and
reverted, with the hypothesis database cleared before every run so that
no run replays another's failures.  For each mutant the report gives
``killed`` (some test failed), ``survived`` (every test passed) or
``stalled``, the seconds until the first failing test was reported, the
seconds of the whole run (``+`` when the bound stopped it) and the number
of failing tests reported.  A survivor or
a stall marks a gap in the tests: close it in the tests, never by
changing the mutant.

Exit code: 0 when every mutant was killed, 1 when one survived or
stalled, 2 on bad usage or when the clean run fails.  Standard library
only, like ``scripts/unrun_lines.py``; the suite itself needs pytest.
This is mutation analysis (DeMillo, Lipton & Sayward 1978, "Hints on
test data selection: help for the practicing programmer").
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOUND_FACTOR = 2
# this script's own tests check the unmutated source and run the script again, so they stay out
OWN_TESTS = "tests/test_mutants_script.py"

# (name, file under src/imbalance, text, replacement); each text occurs exactly once
MUTANTS = [
    ("content-recorded-as-one", "feasibility.py",
     "steps.append((p, ap, fp, content))", "steps.append((p, ap, fp, 1))"),
    ("end-fold-dropped", "feasibility.py",
     "steps[-1] = steps[-1][:3] + (content,)", "steps[-1] = steps[-1][:3] + (1,)"),
    ("end-division-dropped", "feasibility.py",
     "if steps and steps[-1][1] == 1:", "if steps and steps[-1][1] == 1 and False:"),
    ("pivot-most-held", "feasibility.py",
     "min(ints, key=priority)", "max(ints, key=priority)"),
    ("certificate-sign", "feasibility.py",
     "weights[q] = weights.get(q, 0) - w * fp", "weights[q] = weights.get(q, 0) + w * fp"),
    ("certificate-check-ignores-rhs", "feasibility.py",
     "return not any(combined.values()) and rhs_total != 0", "return not any(combined.values())"),
    ("assignment-check-skips-last-row", "feasibility.py",
     "        for row in system.rows\n    )", "        for row in system.rows[:-1]\n    )"),
    ("deletion-count-short-first-run", "feasibility.py",
     "len(ids)), end - k))", "len(ids)), end - k - (k == 0 and end - k > 1)))"),
    ("second-price-bag-takes-top", "rules.py",
     "_second_price, lambda s: s[-2])", "_second_price, lambda s: s[-1])"),
    ("variable-order-by-size-only", "feasibility.py",
     "order = sorted(sorted(ids), key=len)", "order = sorted(ids, key=len)"),
    ("forced-payment-one-bidder-short", "payments.py",
     "target / (2 + len(base))", "target / (1 + len(base))"),
    ("flat-invariance-numerators-only", "rules.py",
     "(value.numerator, value.denominator) == pair", "value.numerator == pair[0]"),
    ("masks-drop-last-holder", "bids.py",
     "for pos in group if", "for pos in group[:-1] if"),
    ("collector-left-paused", "cli.py",
     "gc.enable()", "pass"),
    ("substitution-rescale-dropped", "feasibility.py",
     "num *= common // den", "pass"),
]

# a pytest plugin, loaded with -p, that records the time of each failing test report
PLUGIN = '''
import os, time

def pytest_runtest_logreport(report):
    if report.failed:
        with open(os.environ["MUTANTS_FAILURES"], "a") as out:
            out.write(f"{time.monotonic()!r}\\n")
'''


def run_suite(work: Path, tests: list[str],
              bound: float | None) -> tuple[str, float | None, str, int]:
    """Run the tests in ``work``; return the verdict, the seconds to the
    first failing test (None when none failed), the seconds of the run as
    text (marked ``+`` when the bound stopped it) and the number of
    failing tests reported."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    failures = work / "failures.txt"
    failures.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": f"{work / 'src'}{os.pathsep}{work}",
           "PYTHONDONTWRITEBYTECODE": "1", "MUTANTS_FAILURES": str(failures)}
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider", "-p", "mutants_plugin", f"--ignore={OWN_TESTS}", *tests]
    start = time.monotonic()
    proc = subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code, stopped = proc.wait(timeout=bound), False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        code, stopped = proc.wait(), True
    elapsed = f"{time.monotonic() - start:.1f}" + ("+" if stopped else "")
    times = [float(t) for t in failures.read_text().split()] if failures.exists() else []
    first = times[0] - start if times else None
    if stopped:
        verdict = "killed" if times else "stalled"
    else:
        verdict = "killed" if code else "survived"
    return verdict, first, elapsed, len(times)


def main(argv: list[str]) -> int:
    chosen, tests = [], []
    args = iter(argv)
    for arg in args:
        if arg == "--mutant":
            chosen.append(next(args, ""))
        else:
            tests.append(arg)
    names = [name for name, *_ in MUTANTS]
    unknown = [name for name in chosen if name not in names]
    if unknown:
        print(f"unknown mutant {unknown[0]!r}; known: {', '.join(names)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not chosen or m[0] in chosen]
    tests = tests or ["tests"]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work"))
        (work / "mutants_plugin.py").write_text(PLUGIN, encoding="utf-8")
        verdict, _, clean, _ = run_suite(work, tests, None)
        if verdict != "survived":
            print(f"the clean run did not pass ({verdict}) in {clean} s", file=sys.stderr)
            return 2
        bound = BOUND_FACTOR * float(clean)
        print(f"clean run: passed in {clean} s; bound {bound:.1f} s ({BOUND_FACTOR} x clean)")
        print(f"{'mutant':<34}{'verdict':<10}{'first fail s':>13}{'run s':>8}{'failing':>9}")
        gaps = 0
        for name, module, text, replacement in mutants:
            path = work / "src" / "imbalance" / module
            source = path.read_text(encoding="utf-8")
            if source.count(text) != 1:
                print(f"mutant {name!r}: its text occurs {source.count(text)} times in {module}",
                      file=sys.stderr)
                return 2
            path.write_text(source.replace(text, replacement), encoding="utf-8")
            try:
                verdict, first, elapsed, failing = run_suite(work, tests, bound)
            finally:
                path.write_text(source, encoding="utf-8")
            gaps += verdict != "killed"
            shown = "-" if first is None else f"{first:.1f}"
            print(f"{name:<34}{verdict:<10}{shown:>13}{elapsed:>8}{failing:>9}", flush=True)
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
