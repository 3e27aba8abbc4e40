"""Byte guard: every ``theorem --trace --out`` output over the built-in rules.

``benchmarks/hashes.json`` pins only the stock pair (neg-second-price with
neg-first-price).  This test runs ``theorem`` for every ``--rule`` and
``--g`` drawn from the four built-ins and ``constant:7/3``, at n = 1..4,
and requires the sha256 of the exit code, stdout and report file recorded
in ``theorem_outputs.json``.  That covers the ``HYPOTHESES NOT MET``
details and the ``iteration trace unavailable`` lines as well as the
``HOLDS`` lines.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_theorem_outputs.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from imbalance.cli import main

RECORDED = Path(__file__).resolve().parent / "theorem_outputs.json"
RULES = ["second-price", "neg-second-price", "first-price", "neg-first-price", "constant:7/3"]
CASES = [(rule, g, n) for rule in RULES for g in RULES for n in range(1, 5)]


def case_key(rule: str, g: str, n: int) -> str:
    return f"{rule} {g} {n}"


def output_hash(rule: str, g: str, n: int, out: Path, read_stdout) -> str:
    """sha256 over the exit code, stdout and report file of one call."""
    code = main(["theorem", "--n", str(n), "--rule", rule, "--g", g, "--trace",
                 "--out", str(out)])
    digest = hashlib.sha256()
    for part in (str(code).encode(), read_stdout().encode("utf-8"), out.read_bytes()):
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def test_recording_covers_every_case(recorded):
    assert sorted(recorded) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("rule,g,n", CASES)
def test_theorem_bytes(rule, g, n, recorded, tmp_path, capsys):
    got = output_hash(rule, g, n, tmp_path / "report.json", lambda: capsys.readouterr().out)
    assert got == recorded[case_key(rule, g, n)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rule, g, n in CASES:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                hashes[case_key(rule, g, n)] = output_hash(
                    rule, g, n, Path(tmp) / "report.json", buffer.getvalue)
    RECORDED.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(hashes)} hashes in {RECORDED}", file=sys.stderr)
