"""Byte guard: CLI outputs must hash to what the benchmark recorded.

``benchmarks/hashes.json`` holds the sha256 of every stdout and output
file the benchmark workloads produce.  This test re-runs the smaller of
those calls on witness files in canonical order (the order ``witness``
writes), the ``witness`` call alone at the two larger sizes, and every
grid call (k = 3 and 4, B = 4..6) on the seed-0 grid
files that ``benchmarks/workloads.py`` itself writes, and requires the
same hashes, so a change to any output byte fails here and not only in a
benchmark run.  The benchmark files are read, never modified.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from imbalance.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
HASHES = json.loads((BENCHMARKS / "hashes.json").read_text(encoding="utf-8"))


def _load_workloads():
    """Load ``workloads.py``, with its directory on the path for its ``import checks``.

    The module is registered before it runs, as its dataclasses look it up.
    """
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARKS / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


workloads = _load_workloads()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, capsys, out: Path, code: int) -> dict[str, str]:
    """Run one call; the hashes of its stdout and of the file it wrote."""
    assert main(argv + ["--out", str(out)]) == code
    return {"stdout": sha256(capsys.readouterr().out.encode("utf-8")),
            "out": sha256(out.read_bytes())}


@pytest.mark.parametrize("n", range(1, 7))
def test_witness_and_check_balance(n, tmp_path, capsys):
    witness = tmp_path / "w.json"
    refute, control = HASHES["witness-refute"][f"k={n}"], HASHES["witness-control"][f"k={n}"]
    got = run(["witness", "--n", str(n)], capsys, witness, 0)
    assert got == {"stdout": refute["witness.stdout"], "out": refute["witness.out"]}
    for rule, code, want in (("neg-second-price", 3, refute), ("constant:7/3", 0, control)):
        got = run(["check-balance", "--witness", str(witness), "--rule", rule],
                  capsys, tmp_path / "r.json", code)
        assert got == {"stdout": want["check-balance.stdout"],
                       "out": want["check-balance.out"]}, rule


@pytest.mark.parametrize("n", [7, 8])
def test_witness(n, tmp_path, capsys):
    want = HASHES["witness-refute"][f"k={n}"]
    got = run(["witness", "--n", str(n)], capsys, tmp_path / "w.json", 0)
    assert got == {"stdout": want["witness.stdout"], "out": want["witness.out"]}


@pytest.mark.parametrize("n", range(1, 9))
def test_theorem_trace(n, tmp_path, capsys):
    want = HASHES["theorem-ladder"][f"n={n}"]
    got = run(["theorem", "--n", str(n), "--trace"], capsys, tmp_path / "report.json", 0)
    assert got == {"stdout": want["theorem.stdout"], "out": want["theorem.out"]}


@pytest.fixture(scope="module")
def grid_sweep(tmp_path_factory):
    workload = workloads.grid_sweep(tmp_path_factory.mktemp("grids"), 0)
    workload.prepare(main)
    return {instance.name: instance for instance in workload.instances}


# k = 4 grids repeat each bag under the most vectors; k = 3 ids are the bare B
GRIDS = [pytest.param(3, b, id=str(b)) for b in (4, 5, 6)] + [
    pytest.param(4, b, id=f"k=4,B={b}") for b in (4, 5, 6)
]


@pytest.mark.parametrize("k,b", GRIDS)
def test_grid_sweep(k, b, grid_sweep, capsys):
    name = f"k={k},B={b}"
    want = HASHES["grid-sweep"]["0"][name]
    for call in grid_sweep[name].calls:
        assert main(call.argv) == call.exit, call.label
        got = {"stdout": sha256(capsys.readouterr().out.encode("utf-8")),
               "out": sha256(call.out.read_bytes())}
        assert got == {"stdout": want[f"{call.label}.stdout"],
                       "out": want[f"{call.label}.out"]}, call.label
