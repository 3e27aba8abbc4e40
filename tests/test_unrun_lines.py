"""``scripts/unrun_lines.py`` runs a script under a line tracer and lists
the package lines it never ran."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "unrun_lines.py"
RATIONALS = ROOT / "src" / "imbalance" / "rationals.py"


def test_lists_the_return_a_script_skips(tmp_path):
    tiny = tmp_path / "tiny.py"
    tiny.write_text(
        "import sys\n"
        "from fractions import Fraction\n"
        "from imbalance.rationals import format_rational\n"
        "print(format_rational(Fraction(1, 2)))\n"
        "sys.exit(3)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(SCRIPT), str(tiny)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr  # the script's exit code, after the report
    out = done.stdout.splitlines()
    assert out[0] == "1/2"
    source = RATIONALS.read_text(encoding="utf-8").splitlines()
    whole = source.index("        return str(value.numerator)") + 1
    p_over_q = source.index('    return f"{value.numerator}/{value.denominator}"') + 1
    assert f"rationals.py:{whole}: return str(value.numerator)" in out
    assert not any(line.startswith(f"rationals.py:{p_over_q}:") for line in out)
    assert "unrun lines per module:" in out
    assert any(line.split() and line.split()[0] == "rationals.py" for line in out)
