"""Command-line interface: rule evaluation, witness generation, imbalance
verification, and balance refutation with certificates.

Exit codes are stable across commands: 0 for an affirmative result, 3 for
a refutation or unmet hypotheses (a finding, not a failure), 2 for usage
or parse errors.  All output is deterministic byte for byte.  The
environment variable IMBALANCE_MAX_DOM (default 10) caps bid-vector
domains to guard against accidental exponential enumeration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .bids import BidVector, bid_vector_from_json
from .feasibility import (
    Feasible,
    LinearSystem,
    build_balance_system,
    certificate_to_json,
    solve_or_refute,
    system_from_json,
    verify_assignment,
    verify_certificate,
)
from .payments import build_payment_table
from .rationals import format_rational
from .rules import RuleArityError, RuleDomainError, get_rule
from .witness import (
    verify_imbalance,
    vickrey_instance,
    vickrey_witness_set,
    witness_set_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FINDING = 3

DEFAULT_MAX_DOM = 10


class _UsageError(Exception):
    pass


def _max_dom() -> int:
    raw = os.environ.get("IMBALANCE_MAX_DOM")
    if raw is None:
        return DEFAULT_MAX_DOM
    try:
        cap = int(raw)
    except ValueError:
        raise _UsageError(f"IMBALANCE_MAX_DOM must be an integer, got {raw!r}")
    if cap < 1:
        raise _UsageError(f"IMBALANCE_MAX_DOM must be positive, got {cap}")
    return cap


def _check_dom(size: int, what: str) -> None:
    cap = _max_dom()
    if size > cap:
        raise _UsageError(
            f"{what} has {size} bidders, above the IMBALANCE_MAX_DOM cap of {cap}"
        )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):  # dict() kept only the last value of a repeated key
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"repeated object key {next(k for k, c in counts.items() if c > 1)!r}")
    return obj


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise _UsageError(f"no such file: {path}")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}")
    # ValueError covers JSONDecodeError, UnicodeDecodeError and _unique_keys;
    # RecursionError comes from deeply nested arrays or objects
    except (ValueError, RecursionError) as exc:
        raise _UsageError(f"invalid JSON in {path}: {exc}")


def _parse_bid_vector(obj, path: str) -> BidVector:
    try:
        vector = bid_vector_from_json(obj)
    except (ValueError, TypeError) as exc:  # TypeError: a bid neither string nor integer
        raise _UsageError(f"bad bid vector in {path}: {exc}")
    _check_dom(len(vector), f"bid vector in {path}")
    return vector


def _load_witness(path: str) -> list[BidVector]:
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise _UsageError(f"witness file {path} must be a JSON array of bid vectors")
    return [_parse_bid_vector(entry, path) for entry in obj]


def _get_rule(name: str):
    try:
        return get_rule(name)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_out(path: str | None, text: str) -> None:
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot write {path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _require_n(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be a positive integer, got {args.n}")
    _check_dom(args.n + 2, f"the instance for n={args.n}")
    return args.n


def cmd_eval(args: argparse.Namespace) -> int:
    rule = _get_rule(args.rule)
    vector = _parse_bid_vector(_load_json(args.bids), args.bids)
    try:
        value = rule(vector)
    except (RuleArityError, RuleDomainError) as exc:
        raise _UsageError(str(exc))
    print(format_rational(value))
    return EXIT_OK


def cmd_theorem(args: argparse.Namespace) -> int:
    n = _require_n(args)
    rule = _get_rule(args.rule)
    g = _get_rule(args.g)
    triple, selector_low, selector_high = vickrey_instance(n, g=g)
    report = verify_imbalance(rule, triple, selector_low, selector_high)

    if args.trace:
        for check in report.hypotheses:
            status = "PASS" if check.passed else "FAIL"
            suffix = f" ({check.detail})" if check.detail else ""
            print(f"HYP {check.name} {status}{suffix}")
        try:
            _, trace = build_payment_table(n + 2, n + 3, list(range(1, n + 1)), rule)
            for j, (shape, coeff) in enumerate(trace.steps):
                values = ",".join(format_rational(v) for v in shape.values)
                print(f"k_{j} = {format_rational(coeff)} @ [{values}]")
        except Exception as exc:  # trace is diagnostic only
            print(f"iteration trace unavailable: {exc}")

    if args.out:
        _write_out(args.out, _dump(report.to_json()))

    if report.hypotheses_met and report.holds:
        print(f"HOLDS lhs={format_rational(report.lhs)} rhs={format_rational(report.rhs)}")
        return EXIT_OK
    if report.hypotheses_met:
        print("HYPOTHESES MET BUT RESIDUALS EQUAL")
        return EXIT_FINDING
    print("HYPOTHESES NOT MET")
    return EXIT_FINDING


def cmd_witness(args: argparse.Namespace) -> int:
    n = _require_n(args)
    vectors = vickrey_witness_set(n)
    _write_out(args.out, _dump(witness_set_to_json(vectors)))
    return EXIT_OK


def _decide(system: LinearSystem) -> tuple[int, dict]:
    """Solve, re-check the result, and print the verdict line.

    A FEASIBLE assignment that violates a row is a solver bug and raises;
    an INFEASIBLE certificate's re-check is printed on the verdict line.
    Returns the exit code and the result document, which holds the status
    and either the assignment or the certificate.
    """
    result = solve_or_refute(system)
    if isinstance(result, Feasible):
        if not verify_assignment(system, result.assignment):
            raise AssertionError("elimination returned an assignment that violates a row")
        print("FEASIBLE")
        return EXIT_OK, {"status": "FEASIBLE", "assignment": result.assignment.to_json()}
    verified = verify_certificate(system, result.certificate)
    print(f"INFEASIBLE certificate-verified={str(verified).lower()}")
    return EXIT_FINDING, {"status": "INFEASIBLE",
                          "certificate": certificate_to_json(result.certificate)}


def cmd_check_balance(args: argparse.Namespace) -> int:
    rule = _get_rule(args.rule)
    vectors = _load_witness(args.witness)
    try:
        system = build_balance_system(vectors, rule)
    except ValueError as exc:
        raise _UsageError(str(exc))
    code, result = _decide(system)
    if args.out:
        _write_out(args.out, _dump(result))
    elif code == EXIT_FINDING:
        print(json.dumps(result["certificate"], sort_keys=True))
    return code


def cmd_solve_system(args: argparse.Namespace) -> int:
    try:
        system = system_from_json(_load_json(args.system))
    except (ValueError, TypeError) as exc:  # TypeError: a value neither string nor integer
        raise _UsageError(f"bad system in {args.system}: {exc}")
    code, result = _decide(system)
    print(json.dumps(result["assignment" if code == EXIT_OK else "certificate"], sort_keys=True))
    return code


_HANDLERS = {
    "eval": cmd_eval,
    "theorem": cmd_theorem,
    "witness": cmd_witness,
    "check-balance": cmd_check_balance,
    "solve-system": cmd_solve_system,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbalance",
        description="Exact budget-imbalance verification for symmetric auction rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a price rule on a bid vector")
    p_eval.add_argument("--rule", required=True)
    p_eval.add_argument("--bids", required=True, help="bid vector JSON file")

    p_theorem = sub.add_parser("theorem", help="verify the imbalance criterion")
    p_theorem.add_argument("--n", type=int, required=True)
    p_theorem.add_argument("--rule", default="neg-second-price")
    p_theorem.add_argument("--g", default="neg-first-price")
    p_theorem.add_argument("--out", help="write the report JSON here")
    p_theorem.add_argument("--trace", action="store_true")

    p_witness = sub.add_parser("witness", help="emit the canonical witness set")
    p_witness.add_argument("--n", type=int, required=True)
    p_witness.add_argument("--out", help="write the witness JSON here (default stdout)")

    p_check = sub.add_parser("check-balance", help="decide balance over a witness file")
    p_check.add_argument("--witness", required=True)
    p_check.add_argument("--rule", required=True)
    p_check.add_argument("--out", help="write the result JSON here")

    p_solve = sub.add_parser("solve-system", help="decide a raw linear system file")
    p_solve.add_argument("--system", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
