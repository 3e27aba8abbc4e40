"""The benchmark tracer must keep resolving against the package.

``benchmarks/tracing.py`` wraps package functions by (module, name), so a
rename or deletion in ``imbalance`` would otherwise only show when a
traced benchmark run fails.  The file is loaded here, never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import imbalance
import imbalance.cli

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TRACED = [(module, attr) for module, attr, _, _ in tracing.SPANS] + list(tracing.COUNTED)


def _bindings():
    """Every global of every package module, plus the wrapped rule call."""
    out = {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "imbalance" or name.startswith("imbalance.")
        for attr, value in vars(module).items()
    }
    out[("rules.PriceRule", "__call__")] = imbalance.rules.PriceRule.__call__
    return out


def test_every_traced_name_resolves():
    for module_name, attr in TRACED:
        module = importlib.import_module(f"imbalance.{module_name}")
        assert callable(getattr(module, attr, None)), f"imbalance.{module_name}.{attr}"


def test_install_wraps_and_uninstall_restores(tmp_path, capsys):
    witness = tmp_path / "w1.json"
    assert imbalance.cli.main(["witness", "--n", "1", "--out", str(witness)]) == 0
    before = _bindings()
    tracer = tracing.Tracer("imbalance")
    tracer.install()
    try:
        for module_name, attr in TRACED:
            module = importlib.import_module(f"imbalance.{module_name}")
            assert getattr(module, attr) is not before[(f"imbalance.{module_name}", attr)]
        # through the module attribute, which is what the tracer wraps
        code = imbalance.cli.main(["check-balance", "--witness", str(witness), "--rule", "neg-second-price"])
        totals = tracer.layer_totals()
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert code == 3
    for span in ("cli.main", "bids.vector_from_json", "feasibility.build",
                 "feasibility.solve", "feasibility.verify_certificate"):
        assert totals.get(f"{span}.calls", 0) >= 1, span
