"""Command-line interface: rule evaluation, witness generation, imbalance
verification, and balance refutation with certificates.

Exit codes are stable across commands: 0 for an affirmative result, 3 for
a refutation or unmet hypotheses (a finding, not a failure), 2 for usage
or parse errors.  All output is deterministic byte for byte.  Handlers
return their exit code and stdout text, which ``main`` writes after any
``--out`` file, so an exit 2 prints nothing on stdout.  ``MAX_DOM`` (10)
caps the bidders of the ``theorem``/``witness`` instance, whose completion
families grow exponentially, and of each ``eval`` and ``check-balance``
input vector.

``main`` pauses the cyclic garbage collector while a handler runs.  A
``check-balance`` call builds thousands of small acyclic objects (a bid
vector, a flat key and a row per input vector) that reference counting
frees; over the benchmark's 24 grid-sweep calls the collector would run
about a hundred times and find nothing to free.  When ``main`` enables
it again, it collects the two younger generations once.  That collection
also counts toward the next full one; without it, a caller that runs
``main`` in a loop would get far fewer full collections, and cyclic
garbage of its own (the benchmark re-imports the package before each
pass) would wait longer to be freed and raise the peak memory.  A caller
that had disabled the collector finds it disabled after ``main`` returns.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections import Counter
from collections.abc import Callable
from pathlib import Path

from .bids import BidVector, ParseMemo, bid_vector_from_json
from .feasibility import (
    Feasible,
    Infeasible,
    LinearSystem,
    answer_text,
    build_balance_system,
    result_text,
    solve_or_refute,
    system_from_json,
    verify_assignment,
    verify_certificate,
)
from .rationals import format_rational
from .rules import RuleUndefinedError, get_rule
from .witness import verify_imbalance, vickrey_instance, vickrey_witness_set, witness_set_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FINDING = 3

MAX_DOM = 10


class _UsageError(Exception):
    pass


def _over_cap(size: int, what: str) -> _UsageError:
    """The error for ``size`` bidders above ``MAX_DOM``; callers compare
    first, so the message is formatted only for an input that fails."""
    return _UsageError(f"{what} has {size} bidders, above the cap of {MAX_DOM}")


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


def _parse_vectors(entries: list, path: str) -> list[BidVector]:
    memo = ParseMemo()
    vectors = []
    try:
        for entry in entries:
            vector = bid_vector_from_json(entry, memo)
            if len(vector.entries) > MAX_DOM:
                raise _over_cap(len(vector.entries), f"bid vector in {path}")
            vectors.append(vector)
    except (ValueError, TypeError) as exc:  # TypeError: a bid neither string nor integer
        raise _UsageError(f"bad bid vector in {path}: {exc}")
    return vectors


def _load_witness(path: str) -> list[BidVector]:
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise _UsageError(f"witness file {path} must be a JSON array of bid vectors")
    return _parse_vectors(obj, path)


def _get_rule(name: str):
    try:
        return get_rule(name)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _dump(obj) -> str:
    """Indented JSON with sorted keys, newline-ended: the theorem report.
    The witness file and the check-balance result file have their own
    writers, ``witness_set_text`` and ``result_text``, which give the same
    bytes for their shapes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _require_n(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be a positive integer, got {args.n}")
    if args.n + 2 > MAX_DOM:
        raise _over_cap(args.n + 2, f"the instance for n={args.n}")
    return args.n


def cmd_eval(args: argparse.Namespace) -> tuple[int, str]:
    rule = _get_rule(args.rule)
    [vector] = _parse_vectors([_load_json(args.bids)], args.bids)
    try:
        value = rule(vector)
    except RuleUndefinedError as exc:
        raise _UsageError(str(exc))
    return EXIT_OK, format_rational(value) + "\n"


def cmd_theorem(args: argparse.Namespace) -> tuple[int, str]:
    n = _require_n(args)
    rule = _get_rule(args.rule)
    g = _get_rule(args.g)
    triple, selector_low, selector_high = vickrey_instance(n, g=g)
    report = verify_imbalance(rule, triple, selector_low, selector_high)

    lines = []
    if args.trace:
        for check in report.hypotheses:
            status = "PASS" if check.passed else "FAIL"
            suffix = f" ({check.detail})" if check.detail else ""
            lines.append(f"HYP {check.name} {status}{suffix}\n")
        # the all-equal-bids iteration on n + 2 bidders at fill n + 3 with
        # extras 1..n, in closed form: each vector it visits has n + 3 as its
        # two highest bids, so every built-in rule keeps its flat value there
        # and step j, which keeps 1..j, pins 1/(n + 2)
        for j in range(n + 1):
            values = ",".join(map(str, [*range(1, j + 1), *[n + 3] * (n + 1 - j)]))
            lines.append(f"k_{j} = 1/{n + 2} @ [{values}]\n")

    if args.out:
        _write_out(args.out, _dump(report.to_json()))

    text = "".join(lines)
    if not report.hypotheses_met:
        return EXIT_FINDING, text + "HYPOTHESES NOT MET\n"
    if not report.holds:
        return EXIT_FINDING, text + "HYPOTHESES MET BUT RESIDUALS EQUAL\n"
    lhs, rhs = format_rational(report.lhs), format_rational(report.rhs)
    return EXIT_OK, text + f"HOLDS lhs={lhs} rhs={rhs}\n"


def cmd_witness(args: argparse.Namespace) -> tuple[int, str]:
    text = witness_set_text(vickrey_witness_set(_require_n(args)))
    if args.out:
        _write_out(args.out, text)
    return EXIT_OK, "" if args.out else text


def _decide(
    system: LinearSystem, write: Callable[[LinearSystem, Feasible | Infeasible], str]
) -> tuple[int, str, str]:
    """Solve and re-check: the exit code, the verdict line, and the text
    ``write(system, result)`` gives for the result, which is all of the
    result that gets printed or written.

    A FEASIBLE assignment that violates a row is a solver bug and raises;
    an INFEASIBLE certificate's re-check is reported on the verdict line.
    An integer past the interpreter's string conversion limit in the text
    is an exit 2, before anything is printed or written.
    """
    result = solve_or_refute(system)
    if isinstance(result, Feasible):
        if not verify_assignment(system, result.assignment):
            raise AssertionError("elimination returned an assignment that violates a row")
        code, verdict = EXIT_OK, "FEASIBLE\n"
    else:
        verified = verify_certificate(system, result.certificate)
        code, verdict = EXIT_FINDING, f"INFEASIBLE certificate-verified={str(verified).lower()}\n"
    try:
        text = write(system, result)
    except ValueError as exc:  # an integer past the interpreter's string conversion limit
        raise _UsageError(f"cannot write the result: {exc}")
    return code, verdict, text


def _certificate_line(system: LinearSystem, result: Feasible | Infeasible) -> str:
    """What ``check-balance`` prints after the verdict without ``--out``:
    the certificate of a refutation, nothing for an assignment."""
    return "" if isinstance(result, Feasible) else answer_text(system, result)


def cmd_check_balance(args: argparse.Namespace) -> tuple[int, str]:
    rule = _get_rule(args.rule)
    vectors = _load_witness(args.witness)
    try:
        system = build_balance_system(vectors, rule)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if not args.out:
        code, verdict, line = _decide(system, _certificate_line)
        return code, verdict + line
    code, verdict, text = _decide(system, result_text)
    _write_out(args.out, text)
    return code, verdict


def cmd_solve_system(args: argparse.Namespace) -> tuple[int, str]:
    try:
        system = system_from_json(_load_json(args.system))
    except (ValueError, TypeError) as exc:  # TypeError: a value neither string nor integer
        raise _UsageError(f"bad system in {args.system}: {exc}")
    code, verdict, answer = _decide(system, answer_text)
    return code, verdict + answer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbalance",
        description="Exact budget-imbalance verification for symmetric auction rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a price rule on a bid vector")
    p_eval.add_argument("--rule", required=True)
    p_eval.add_argument("--bids", required=True, help="bid vector JSON file")
    p_eval.set_defaults(handler=cmd_eval)

    p_theorem = sub.add_parser("theorem", help="verify the imbalance criterion")
    p_theorem.add_argument("--n", type=int, required=True)
    p_theorem.add_argument("--rule", default="neg-second-price")
    p_theorem.add_argument("--g", default="neg-first-price")
    p_theorem.add_argument("--out", help="write the report JSON here")
    p_theorem.add_argument("--trace", action="store_true")
    p_theorem.set_defaults(handler=cmd_theorem)

    p_witness = sub.add_parser("witness", help="emit the canonical witness set")
    p_witness.add_argument("--n", type=int, required=True)
    p_witness.add_argument("--out", help="write the witness JSON here (default stdout)")
    p_witness.set_defaults(handler=cmd_witness)

    p_check = sub.add_parser("check-balance", help="decide balance over a witness file")
    p_check.add_argument("--witness", required=True)
    p_check.add_argument("--rule", required=True)
    p_check.add_argument("--out", help="write the result JSON here")
    p_check.set_defaults(handler=cmd_check_balance)

    p_solve = sub.add_parser("solve-system", help="decide a raw linear system file")
    p_solve.add_argument("--system", required=True)
    p_solve.set_defaults(handler=cmd_solve_system)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    enabled = gc.isenabled()
    gc.disable()  # a handler's objects form no cycles; see the module docstring
    try:
        code, stdout = args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()
            gc.collect(1)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
