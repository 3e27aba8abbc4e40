"""``scripts/mutants.py`` runs the tests against named source mutations
and reports which mutants they kill."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def run_script(tmp_path, *args):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_mutant_applies_to_the_source_once():
    mutants = runpy.run_path(str(SCRIPT))["MUTANTS"]
    assert len({name for name, *_ in mutants}) == len(mutants)
    for name, module, text, replacement in mutants:
        source = (ROOT / "src" / "imbalance" / module).read_text(encoding="utf-8")
        assert source.count(text) == 1, name
        assert text != replacement, name


def test_one_mutant_is_killed_by_one_test_file(tmp_path):
    """Dropping the rhs test from ``verify_certificate`` accepts all-zero
    multipliers, which ``tests/test_feasibility.py`` rejects."""
    done = run_script(tmp_path, "--mutant", "certificate-check-ignores-rhs",
                      "tests/test_feasibility.py")
    assert done.returncode == 0, done.stdout + done.stderr
    out = done.stdout.splitlines()
    assert out[0].startswith("clean run: passed in ")
    name, verdict, first, *_ = out[2].split()
    assert (name, verdict) == ("certificate-check-ignores-rhs", "killed")
    assert float(first) >= 0
    assert (ROOT / "src" / "imbalance" / "feasibility.py").read_text(encoding="utf-8").count(
        "and rhs_total != 0") == 1  # the checkout itself is never mutated


def test_an_unknown_mutant_is_a_usage_error(tmp_path):
    done = run_script(tmp_path, "--mutant", "no-such-mutant")
    assert done.returncode == 2
    assert "unknown mutant 'no-such-mutant'" in done.stderr
    assert done.stdout == ""
