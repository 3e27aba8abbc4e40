#!/usr/bin/env python3
"""Desk-scale reproduction of all the headline results.

Runs the full pipeline and prints a summary table:

* imbalance verification for the stock instances n = 1..5 (residuals,
  their difference, hypothesis status),
* balance refutation over the canonical witness sets for n = 1..8
  (system size, certificate verification),
* exhaustive 3-bidder grid over bids {1,2,3,4},
* positive controls with constant rules, each assignment substituted
  back into every equation.

Everything is exact rational arithmetic; apart from the timing columns,
reruns are byte-identical.
"""

import itertools
import time

from imbalance import (
    BidVector,
    Feasible,
    Infeasible,
    build_balance_system,
    format_rational,
    get_rule,
    solve_or_refute,
    verify_assignment,
    verify_certificate,
    verify_imbalance,
    vickrey_instance,
    vickrey_witness_set,
)


def verdict(result):
    return "INFEASIBLE" if isinstance(result, Infeasible) else "FEASIBLE"


def certificate_check(system, result):
    """A refutation holds only as an INFEASIBLE result whose certificate re-checks."""
    if isinstance(result, Infeasible) and verify_certificate(system, result.certificate):
        return "verified"
    return "BROKEN"


def heading(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    neg2 = get_rule("neg-second-price")

    heading("Imbalance verification (rule: neg-second-price, helper: neg-first-price)")
    print(f"{'n':>2} {'lhs':>8} {'rhs':>8} {'lhs-rhs':>8} {'hypotheses':>11} {'time':>8}")
    for n in range(1, 6):
        triple, j_low, j_high = vickrey_instance(n)
        start = time.perf_counter()
        report = verify_imbalance(neg2, triple, j_low, j_high)
        elapsed = time.perf_counter() - start
        status = "all pass" if report.hypotheses_met else "FAILED"
        print(
            f"{n:>2} {format_rational(report.lhs):>8} {format_rational(report.rhs):>8} "
            f"{format_rational(report.lhs - report.rhs):>8} {status:>11} {elapsed:>7.3f}s"
        )

    heading("Balance refutation over the canonical witness sets")
    print(f"{'n':>2} {'vectors':>8} {'unknowns':>9} {'verdict':>11} {'certificate':>12} {'time':>8}")
    for n in range(1, 9):
        witness = vickrey_witness_set(n)
        start = time.perf_counter()
        system = build_balance_system(witness, neg2)
        result = solve_or_refute(system)
        elapsed = time.perf_counter() - start
        print(
            f"{n:>2} {len(system.rows):>8} {len(system.variables):>9} "
            f"{verdict(result):>11} {certificate_check(system, result):>12} {elapsed:>7.3f}s"
        )

    heading("Exhaustive 3-bidder grid, bids drawn from {1,2,3,4}")
    grid = [
        BidVector.of({1: a, 2: b, 3: c})
        for a, b, c in itertools.product([1, 2, 3, 4], repeat=3)
    ]
    system = build_balance_system(grid, neg2)
    result = solve_or_refute(system)
    print(
        f"{len(system.rows)} equations, {len(system.variables)} unknowns: {verdict(result)}, "
        f"certificate {certificate_check(system, result)}"
    )

    heading("Positive controls (the oracle does not refute vacuously)")
    witness = vickrey_witness_set(2)
    for name in ("constant:0", "constant:7/3"):
        system = build_balance_system(witness, get_rule(name))
        result = solve_or_refute(system)
        if isinstance(result, Feasible) and verify_assignment(system, result.assignment):
            check = f"satisfies all {len(system.rows)} equations exactly"
        else:
            check = "BROKEN"
        print(f"rule {name}: {verdict(result)}, assignment {check}")

    print()
    print("done.")


if __name__ == "__main__":
    main()
