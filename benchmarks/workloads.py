"""The four workloads: their inputs, the CLI calls they time, and the checks.

Each workload is a list of instances; an instance is one or more
``imbalance`` CLI calls plus an independent check of what they printed and
wrote.  The seed only shapes inputs (file order, grid bids); the program
sees nothing but the generated files.

* ``theorem-ladder``  forced closed forms only (bids, rules, payments,
  witness); never reaches feasibility, so a solver change must not move it.
* ``witness-refute``  square sparse integer systems ending in a 0 = 1
  certificate; the elimination dominates at k=8.
* ``witness-control`` the same matrices under a constant rule, which is
  feasible: back-substitution and a written assignment instead of a
  certificate, so a solver change that only helps refutation shows here.
* ``grid-sweep``      tall narrow systems with 20-bit bids, where parsing,
  system build and rule evaluation weigh as much as elimination; its
  constant-rule calls take the FEASIBLE path (back-substitution and a
  written assignment).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

INFEASIBLE_STDOUT = "INFEASIBLE certificate-verified=true\n"
FEASIBLE_STDOUT = "FEASIBLE\n"
REFUTED_RULE = "neg-second-price"
FEASIBLE_RULE = "constant:7/3"
GRID_RULES = [("neg-second-price", 3), ("second-price", 3), ("neg-first-price", 3),
              (FEASIBLE_RULE, 0)]
GRID_SHAPES = [(k, b) for k in (3, 4) for b in (4, 5, 6)]
MAX_BID_PART = 10 ** 6


@dataclass
class Call:
    label: str
    argv: list[str]
    exit: int
    stdout: str | None = None       # exact expected stdout, when fixed
    input: Path | None = None       # file the call reads
    out: Path | None = None         # file the call writes
    before: Callable[[], None] | None = None  # untimed step before the call


@dataclass
class CallResult:
    exit: int
    stdout: str
    input_bytes: bytes              # the input file as the call read it
    out_bytes: bytes
    seconds: float                  # wall time of the call
    scaled: float                   # the same at reference speed (speed.py)


@dataclass
class Instance:
    name: str
    calls: list[Call]
    # independent check of the call results; returns size counters
    check: Callable[[list[CallResult]], dict[str, int]]


@dataclass
class Workload:
    name: str
    instances: list[Instance]
    prepare: Callable[[Callable], None] = lambda cli_main: None
    seed_dependent_hashes: bool = False
    warmup: list[Instance] = field(default_factory=list)

    @property
    def top(self) -> Instance:
        return self.instances[-1]


def write_seeded_order(vectors: list[dict], path: Path, rng: random.Random) -> None:
    """Write a witness file with vectors and bid keys in a seeded order."""
    vectors = list(vectors)
    rng.shuffle(vectors)
    shuffled = []
    for vec in vectors:
        keys = list(vec["bids"])
        rng.shuffle(keys)
        shuffled.append({"bids": {key: vec["bids"][key] for key in keys}})
    path.write_text(json.dumps(shuffled, indent=2) + "\n", encoding="utf-8")


def _reorder(path: Path, seed_text: str) -> Callable[[], None]:
    def rewrite() -> None:
        vectors = json.loads(path.read_text(encoding="utf-8"))
        write_seeded_order(vectors, path, random.Random(seed_text))
    return rewrite


def _load(data: bytes):
    return json.loads(data.decode("utf-8"))


def _check_rule(rule: str, expect_exit: int):
    def check(result: CallResult) -> dict[str, int]:
        witness, out = _load(result.input_bytes), _load(result.out_bytes)
        if expect_exit == 3:
            return checks.check_certificate(witness, rule, out)
        return checks.check_assignment(witness, rule, out)
    return check


def theorem_ladder(work: Path, seed: int) -> Workload:
    def instance(n: int) -> Instance:
        report = work / f"report{n}.json"
        call = Call("theorem", ["theorem", "--n", str(n), "--trace", "--out", str(report)],
                    exit=0, out=report)
        return Instance(f"n={n}", [call],
                        lambda rs: checks.check_theorem(n, rs[0].stdout, _load(rs[0].out_bytes)))

    return Workload("theorem-ladder", [instance(n) for n in range(1, 9)],
                    warmup=[instance(n) for n in range(1, 4)])


def witness_refute(work: Path, seed: int) -> Workload:
    def instance(k: int) -> Instance:
        witness, result = work / f"w{k}.json", work / f"r{k}.json"
        emit = Call("witness", ["witness", "--n", str(k), "--out", str(witness)],
                    exit=0, stdout="", out=witness)
        refute = Call("check-balance", ["check-balance", "--witness", str(witness),
                                        "--rule", REFUTED_RULE, "--out", str(result)],
                      exit=3, stdout=INFEASIBLE_STDOUT, input=witness, out=result,
                      before=_reorder(witness, f"refute:{seed}:{k}"))
        return Instance(f"k={k}", [emit, refute],
                        lambda rs: _check_rule(REFUTED_RULE, 3)(rs[1]))

    return Workload("witness-refute", [instance(k) for k in range(1, 9)],
                    warmup=[instance(k) for k in range(1, 5)])


def witness_control(work: Path, seed: int) -> Workload:
    def prepare(cli_main) -> None:
        for k in range(1, 8):
            witness = work / f"w{k}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["witness", "--n", str(k), "--out", str(witness)])
            checks.require(code == 0, f"witness --n {k}: exit {code}")
            _reorder(witness, f"control:{seed}:{k}")()

    def instance(k: int) -> Instance:
        witness, result = work / f"w{k}.json", work / f"c{k}.json"
        call = Call("check-balance", ["check-balance", "--witness", str(witness),
                                      "--rule", FEASIBLE_RULE, "--out", str(result)],
                    exit=0, stdout=FEASIBLE_STDOUT, input=witness, out=result)
        return Instance(f"k={k}", [call], lambda rs: _check_rule(FEASIBLE_RULE, 0)(rs[0]))

    return Workload("witness-control", [instance(k) for k in range(1, 8)], prepare=prepare,
                    warmup=[instance(k) for k in range(1, 4)])


def grid_bids(seed: int, k: int, b: int) -> list[Fraction]:
    """``b`` distinct positive rationals with numerator and denominator <= 10^6."""
    rng = random.Random(f"grid-bids:{seed}:{k}:{b}")
    values: list[Fraction] = []
    while len(values) < b:
        value = Fraction(rng.randint(1, MAX_BID_PART), rng.randint(1, MAX_BID_PART))
        if value not in values:
            values.append(value)
    return values


def grid_sweep(work: Path, seed: int) -> Workload:
    def prepare(cli_main) -> None:
        for k, b in GRID_SHAPES:
            bids = grid_bids(seed, k, b)
            vectors = [{"bids": {str(i + 1): str(v) for i, v in enumerate(combo)}}
                       for combo in itertools.product(bids, repeat=k)]
            write_seeded_order(vectors, work / f"g{k}_{b}.json",
                               random.Random(f"grid-order:{seed}:{k}:{b}"))

    def instance(k: int, b: int) -> Instance:
        grid = work / f"g{k}_{b}.json"
        calls, rule_checks = [], []
        for rule, code in GRID_RULES:
            out = work / f"g{k}_{b}_{rule.replace(':', '_').replace('/', '_')}.json"
            calls.append(Call(rule, ["check-balance", "--witness", str(grid), "--rule", rule,
                                     "--out", str(out)],
                              exit=code, stdout=INFEASIBLE_STDOUT if code else FEASIBLE_STDOUT,
                              input=grid, out=out))
            rule_checks.append(_check_rule(rule, code))

        def check(results: list[CallResult]) -> dict[str, int]:
            sizes: dict[str, int] = {}
            for (rule, _), rule_check, result in zip(GRID_RULES, rule_checks, results):
                for key, value in rule_check(result).items():
                    # the system is the same under every rule; the solution is not
                    sizes[key if key in ("vectors", "unknowns", "nnz") else f"{key}[{rule}]"] = value
            return sizes

        return Instance(f"k={k},B={b}", calls, check)

    return Workload("grid-sweep", [instance(k, b) for k, b in GRID_SHAPES], prepare=prepare,
                    seed_dependent_hashes=True, warmup=[instance(3, 4)])


WORKLOADS = {
    "theorem-ladder": theorem_ladder,
    "witness-refute": witness_refute,
    "witness-control": witness_control,
    "grid-sweep": grid_sweep,
}
