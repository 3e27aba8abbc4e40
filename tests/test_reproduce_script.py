"""Smoke test: the reproduction script runs to the end and every check in it holds."""

import re
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_results.py"


def test_reproduction_script_verifies_everything(capsys):
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out = capsys.readouterr().out
    refuted = re.findall(r"^ *(\d+) +\d+ +\d+ +INFEASIBLE +verified ", out, re.MULTILINE)
    assert refuted == [str(n) for n in range(1, 9)]
    assert "BROKEN" not in out
    assert out.count("satisfies all 20 equations exactly") == 2
    assert out.endswith("done.\n")
