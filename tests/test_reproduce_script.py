"""The reproduction script runs to the end; every check in it holds, and a
wrong verdict prints ``BROKEN`` instead of stopping the script."""

import re
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

import imbalance
from imbalance import Certificate, Feasible, Infeasible

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_results.py"


def test_reproduction_script_verifies_everything(capsys):
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out = capsys.readouterr().out
    refuted = re.findall(r"^ *(\d+) +\d+ +\d+ +INFEASIBLE +verified ", out, re.MULTILINE)
    assert refuted == [str(n) for n in range(1, 9)]
    assert "BROKEN" not in out
    assert out.count("satisfies all 20 equations exactly") == 2
    assert out.endswith("done.\n")


@pytest.mark.parametrize("fake", [
    lambda system: Feasible(()),
    lambda system: Infeasible(Certificate((Fraction(0),) * len(system.rows))),
], ids=["feasible-without-values", "infeasible-with-zero-certificate"])
def test_wrong_verdicts_print_broken(fake, monkeypatch, capsys):
    monkeypatch.setattr(imbalance, "solve_or_refute", fake)
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("BROKEN") == 8 + 1 + 2  # witness rows, grid, controls
    assert out.endswith("done.\n")
