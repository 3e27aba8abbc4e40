"""Benchmark of the ``imbalance`` command line, run in-process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-test
    python3 benchmarks/run.py --workload NAME --seed N --record-hashes

Run from the repository root.  One process runs one workload: it imports
the package from ``src/``, builds the workload's inputs from the seed and
warms up, then repeats whole passes over the workload's instances for
``--seconds``.  That set-up runs three times before the first pass and
again before each later one; ``setup_s`` is the median.  Every instance calls
``imbalance.cli.main(argv)`` with stdout captured; only those calls are
timed.  Times are reported at reference machine speed (``speed.py``): each
timed block's wall time is scaled by the mean speed a fixed probe kernel
measured in and around it, because a shared host's speed can swing by 2.5x
every few seconds.  Unscaled wall times are printed on the lines above the
result.  Every output is checked each pass: exit code and stdout, sha256
against the hashes recorded in ``hashes.json`` and against the run's first
pass, and an independent re-check (``checks.py``) of each certificate,
assignment and theorem report.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` the run alternates plain and traced passes and reports
the per-layer metrics of ``tracing.py``.  Work files go to
``.bench_work/`` under the root and are removed on exit.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from speed import SpeedMeter
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "imbalance"
HASHES = HERE / "hashes.json"
METRIC_MAP = HERE / "metric_map.json"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3

END_TO_END = {
    "verdict_s": "s",
    "top_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "feasibility.solve.self_s": "s",
    "feasibility.verify_certificate.self_s": "s",
    "feasibility.cert.support": "count",
    "feasibility.cert.max_bits": "bits",
    "feasibility.unknowns": "count",
    "feasibility.nnz": "count",
    "feasibility.build.self_s": "s",
    "feasibility.rows": "count",
    "rules.eval.calls": "count",
    "rules.eval.self_s": "s",
    "bids.vector_from_json.self_s": "s",
    "rationals.ensure_rational.calls": "count",
    "rationals.format_rational.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_in": "B",
    "cli.bytes_out": "B",
    "payments.build_adequate_set.calls": "count",
    "payments.build_adequate_set.distinct_ratio": "ratio",
    "payments.build_adequate_set.self_s": "s",
    "payments.is_adequate.calls": "count",
    "payments.is_adequate.self_s": "s",
    "payments.forced_payment_sum.self_s": "s",
    "payments.build_payment_table.self_s": "s",
    "rules.check_flat_invariance.self_s": "s",
    "witness.verify_imbalance.self_s": "s",
    "bids.full_family.calls": "count",
    "bids.full_family.self_s": "s",
    "bids.completion.self_s": "s",
    "bids.restrictions.calls": "count",
    "bids.restrictions.items": "count",
    "bids.restrictions.self_s": "s",
    "bids.sub_multisets.items": "count",
    "bids.sub_multisets.self_s": "s",
    "bids.extend.self_s": "s",
    "witness.vickrey_witness_set.self_s": "s",
    "witness.vectors": "count",
    "trace.overhead_s": "s",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_package():
    """Import the package afresh from the checkout's ``src/``."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(cli.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise RuntimeError(f"{PACKAGE} was imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclasses.dataclass
class PassStats:
    seconds: float          # wall time of the timed calls
    scaled: float           # the same at reference speed
    top_scaled: float       # the largest instance alone, at reference speed
    bytes_in: int
    bytes_out: int


class Runner:
    """Runs instances through ``cli.main`` and checks every output."""

    def __init__(self, recorded: dict | None, meter: SpeedMeter):
        self.cli = None
        self.meter = meter
        self.recorded = recorded
        self.first_hashes: dict[str, dict[str, str]] = {}
        self.checked: dict[tuple, dict[str, int]] = {}
        self.sizes: dict[str, dict[str, int]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, call: workloads.Call) -> workloads.CallResult:
        if call.before:
            call.before()
        input_bytes = call.input.read_bytes() if call.input else b""
        if call.out:
            call.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            block = self.meter.start()
            try:
                code = self.cli.main(call.argv)
            finally:
                self.meter.stop(block)
        out_bytes = call.out.read_bytes() if call.out and call.out.exists() else b""
        return workloads.CallResult(code, stdout.getvalue(), input_bytes, out_bytes,
                                    block.seconds, block.scaled)

    def output_hashes(self, instance, results) -> dict[str, str]:
        hashes = {}
        for call, result in zip(instance.calls, results):
            hashes[f"{call.label}.stdout"] = sha256(result.stdout.encode("utf-8"))
            hashes[f"{call.label}.out"] = sha256(result.out_bytes)
        return hashes

    def verify(self, instance, results) -> None:
        for call, result in zip(instance.calls, results):
            checks.require(result.exit == call.exit,
                           f"{call.label}: exit {result.exit}, want {call.exit}")
            checks.require(call.stdout is None or result.stdout == call.stdout,
                           f"{call.label}: unexpected stdout {result.stdout[:200]!r}")
        hashes = self.output_hashes(instance, results)
        checks.require(self.first_hashes.setdefault(instance.name, hashes) == hashes,
                       "outputs differ from the first pass of this run")
        if self.recorded is not None:
            checks.require(self.recorded.get(instance.name) == hashes,
                           "outputs differ from the recorded hashes")
        # identical inputs and outputs need the independent check only once
        key = (instance.name, tuple(sha256(r.input_bytes) for r in results),
               tuple(sorted(hashes.items())))
        if key not in self.checked:
            self.checked[key] = instance.check(results)
        self.sizes[instance.name] = self.checked[key]

    def run_instance(self, instance) -> tuple[list[workloads.CallResult], bool]:
        self.attempted += 1
        results: list[workloads.CallResult] = []
        try:
            for call in instance.calls:
                results.append(self.call(call))
            self.verify(instance, results)
            return results, True
        except checks.CheckFailed as exc:
            self.failures.append(f"{instance.name}: {exc}")
        except Exception:  # a crash in the program or its output is a failed instance
            self.failures.append(f"{instance.name}: {traceback.format_exc()}")
        return results, False

    def run_pass(self, workload: workloads.Workload) -> PassStats:
        gc.collect()
        stats = PassStats(0.0, 0.0, 0.0, 0, 0)
        for instance in workload.instances:
            results, _ = self.run_instance(instance)
            stats.seconds += sum(r.seconds for r in results)
            scaled = sum(r.scaled for r in results)
            stats.scaled += scaled
            if instance is workload.top:
                stats.top_scaled = scaled
            stats.bytes_in += sum(len(r.input_bytes) for r in results)
            stats.bytes_out += sum(len(r.stdout.encode("utf-8")) + len(r.out_bytes)
                                   for r in results)
        return stats


def recorded_hashes(workload: workloads.Workload, seed: int) -> dict | None:
    if not HASHES.is_file():
        return None
    recorded = json.loads(HASHES.read_text(encoding="utf-8")).get(workload.name)
    if recorded is not None and workload.seed_dependent_hashes:
        recorded = recorded.get(str(seed))
    return recorded


def set_up(name: str, seed: int, work: Path, runner: Runner) -> workloads.Workload:
    """Import, input generation and warm-up: everything before the passes."""
    runner.cli = load_package()
    workload = workloads.WORKLOADS[name](work, seed)
    workload.prepare(runner.cli.main)
    for instance in workload.warmup:
        runner.run_instance(instance)
    return workload


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_benchmark(args, work: Path) -> int:
    probe = workloads.WORKLOADS[args.workload](work, args.seed)
    recorded = None if args.record_hashes else recorded_hashes(probe, args.seed)
    meter = SpeedMeter()
    runner = Runner(recorded, meter)
    setup_times: list[float] = []
    setup_scaled: list[float] = []

    def timed_setup() -> workloads.Workload:
        fresh_dir(work)
        block = meter.start()
        try:
            workload = set_up(args.workload, args.seed, work, runner)
        finally:
            meter.stop(block)
        setup_times.append(block.seconds)
        setup_scaled.append(block.scaled)
        return workload

    for _ in range(1 if args.record_hashes else SETUP_REPS):
        workload = timed_setup()

    tracer = Tracer(PACKAGE, meter.clock) if args.trace else None
    plain: list[PassStats] = []
    traced: list[PassStats] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if plain:
            # machine speed drifts over the run; sample set-up across it too
            workload = timed_setup()
        plain.append(runner.run_pass(workload))
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                stats = runner.run_pass(workload)
            finally:
                tracer.uninstall()
            traced.append(stats)
            # self times at reference speed, by the pass's mean speed
            factor = stats.scaled / stats.seconds if stats.seconds else 1.0
            totals = {name: value * factor if name.endswith(".self_s") else value
                      for name, value in tracer.layer_totals().items()}
            totals["cli.bytes_in"] = stats.bytes_in
            totals["cli.bytes_out"] = stats.bytes_out
            layers.append(totals)
        if args.record_hashes or time.perf_counter() >= deadline:
            break

    for name, sizes in runner.sizes.items():
        print(f"size {args.workload} {name} " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    if recorded is None:
        print(f"hashes: none recorded for {args.workload} at seed {args.seed}; "
              "outputs compared across passes only")
    for failure in runner.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"instances attempted {runner.attempted}, failed {len(runner.failures)}")
    def show(label: str, wall: list[float], scaled: list[float]) -> None:
        print(f"{label} ({len(wall)}): wall " + " ".join(f"{t:.4f}" for t in wall)
              + "; at reference speed " + " ".join(f"{t:.4f}" for t in scaled))

    show("setup seconds", setup_times, setup_scaled)
    show("plain pass seconds", [p.seconds for p in plain], [p.scaled for p in plain])
    if traced:
        show("traced pass seconds", [p.seconds for p in traced], [p.scaled for p in traced])

    if args.record_hashes:
        if runner.failures:
            return 1
        return record(workload, args.seed, runner.first_hashes)

    if tracer:
        values = {name: statistics.median(run.get(name, 0) for run in layers)
                  for name in PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(p.scaled for p in traced)
                                      - statistics.median(p.scaled for p in plain))
        metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    else:
        attempted, failed = runner.attempted, len(runner.failures)
        values = {
            "verdict_s": statistics.median(p.scaled for p in plain),
            "top_s": statistics.median(p.top_scaled for p in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_scaled),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0 if not runner.failures else 1


def record(workload: workloads.Workload, seed: int, hashes: dict) -> int:
    table = json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.is_file() else {}
    if workload.seed_dependent_hashes:
        table.setdefault(workload.name, {})[str(seed)] = hashes
    else:
        table[workload.name] = hashes
    HASHES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(hashes)} instance hashes for {workload.name}")
    return 0


def self_test(work: Path) -> int:
    """Smallest instance of each workload, then two corrupted outputs."""
    problems = []
    for name in workloads.WORKLOADS:
        fresh_dir(work)
        runner = Runner(recorded_hashes(workloads.WORKLOADS[name](work, 0), 0), SpeedMeter())
        workload = set_up(name, 0, work, runner)
        instance = workload.instances[0]
        results, ok = runner.run_instance(instance)
        if not ok:
            problems.extend(runner.failures)
            continue
        print(f"self-test {name} {instance.name}: ok")
        if name == "witness-refute":
            problems += expect_caught(instance, results, "multipliers", corrupt_certificate)
        if name in ("witness-control", "grid-sweep"):
            problems += expect_caught(instance, results, "assignment", corrupt_assignment)
    problems += benchmark_json_problems()
    for problem in problems:
        print(f"self-test FAIL {problem}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def corrupt_certificate(out: dict) -> None:
    multipliers = out["certificate"]["multipliers"]
    pos = next(i for i, m in enumerate(multipliers) if Fraction(m))
    multipliers[pos] = str(Fraction(multipliers[pos]) + 1)


def corrupt_assignment(out: dict) -> None:
    entry = out["assignment"][0]
    entry["value"] = str(Fraction(entry["value"]) + 1)


def expect_caught(instance, results, what: str, corrupt) -> list[str]:
    last = results[-1]
    out = json.loads(last.out_bytes)
    corrupt(out)
    bad = results[:-1] + [dataclasses.replace(last, out_bytes=json.dumps(out).encode())]
    try:
        instance.check(bad)
    except checks.CheckFailed as exc:
        print(f"self-test corrupted {what} caught: {exc}")
        return []
    return [f"a corrupted {what} in {instance.name} passed the independent check"]


def benchmark_json_problems() -> list[str]:
    """BENCHMARK.json and metric_map.json must name exactly the workloads and
    metrics this file reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return ["no BENCHMARK.json at the root"]
    spec = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for key, expected in (("workloads", set(workloads.WORKLOADS)),
                          ("end_to_end", set(END_TO_END)), ("per_layer", set(PER_LAYER))):
        names = {entry["name"] for entry in spec[key]}
        if names != expected:
            problems.append(f"BENCHMARK.json {key} {sorted(names ^ expected)} do not match")
    units = {**END_TO_END, **PER_LAYER}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if units.get(entry["name"], entry["unit"]) != entry["unit"]:
            problems.append(f"BENCHMARK.json unit of {entry['name']} is not {units[entry['name']]}")
    mapped = [name for group in json.loads(METRIC_MAP.read_text(encoding="utf-8"))["groups"]
              for name in group["per_layer"]]
    if sorted(mapped) != sorted(PER_LAYER):
        problems.append("metric_map.json does not list every per-layer metric exactly once")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-hashes", action="store_true",
                        help="run one pass and store its output hashes in hashes.json")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    # the CLI reads its domain cap from the environment; benchmark the default
    os.environ.pop("IMBALANCE_MAX_DOM", None)
    work = WORK / (args.workload or "self-test")
    try:
        if args.self_test:
            return self_test(work)
        return run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
