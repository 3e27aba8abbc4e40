"""Acceptance suite: every criterion at its stated tolerance.

All tolerances are exact rational equality; timings are wall-clock bounds
on the stated desk-scale runs.  Each test prints one PASS/FAIL line.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import bag_rule, random_rational, rational_row, tag_residual
from imbalance import (
    BidVector,
    CounterexampleTriple,
    Feasible,
    Infeasible,
    RULE_F,
    RULE_G,
    build_adequate_set,
    build_balance_system,
    check_flat_invariance,
    default_selector,
    forced_payment,
    get_rule,
    is_adequate,
    is_counterexample,
    solve_or_refute,
    verify_certificate,
    verify_imbalance,
    vickrey_witness_set,
)
from imbalance.cli import main
from test_payment_table_reference import reference_build_payment_table

NEG2 = get_rule("neg-second-price")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_stock_instance_all_n(tmp_path, capsys):
    with criterion(1, "stock imbalance instance, n = 1..5"):
        for n in range(1, 6):
            out = tmp_path / f"report{n}.json"
            start = time.perf_counter()
            code = main(["theorem", "--n", str(n), "--out", str(out)])
            elapsed = time.perf_counter() - start
            stdout = capsys.readouterr().out
            assert code == 0, stdout
            assert stdout.startswith("HOLDS ")
            assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"
            report = json.loads(out.read_text())
            assert all(h["pass"] for h in report["hypotheses"])
            diff = Fraction(report["lhs"]) - Fraction(report["rhs"])
            assert diff == Fraction(n + 1, n + 2)


def test_criterion_2_closed_form_payment(capsys):
    with criterion(2, "closed-form payment on 200 randomized bases"):
        rng = random.Random(20240811)
        for _ in range(200):
            size = rng.randint(0, 6)
            ids = rng.sample(range(1, 28), size)
            base = BidVector.of({i: random_rational(rng) for i in ids})
            top = max(base.values(), default=Fraction(0))
            fill = top + Fraction(rng.randint(0, 12), rng.randint(1, 6))
            got = forced_payment(base, fill, NEG2, 28, 29)  # ids outside the sampled ones
            assert got == -fill / (2 + len(base))


def test_criterion_3_iterative_matches_closed_form(capsys):
    with criterion(3, "iterative table equals closed form, N = 2..6"):
        rng = random.Random(424242)
        for n_bidders in range(2, 7):
            for _ in range(8):
                fill = random_rational(rng, lo=-20, hi=30)
                extras = [
                    fill - abs(random_rational(rng, lo=0, hi=20))
                    for _ in range(rng.randint(0, n_bidders - 2))
                ]
                table, steps = reference_build_payment_table(n_bidders, fill, extras, NEG2)
                assert steps[0][1] == Fraction(1, n_bidders)
                for shape, value in table.items():
                    base_values = list(shape.values)
                    base_values.remove(fill)
                    base = BidVector.of({3 + k: v for k, v in enumerate(base_values)})
                    assert forced_payment(base, fill, NEG2, 1, 2) == value


def test_criterion_4_witness_refutation(capsys):
    with criterion(4, "witness systems infeasible with verified certificates, n = 1..4"):
        for n in range(1, 5):
            start = time.perf_counter()
            system = build_balance_system(vickrey_witness_set(n), NEG2)
            result = solve_or_refute(system)
            assert isinstance(result, Infeasible)
            assert verify_certificate(system, result.certificate)
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"n={n} took {elapsed:.3f}s"


def test_criterion_5_positive_controls(capsys):
    with criterion(5, "constant rules keep the oracle honest"):
        for n in range(1, 5):
            witness = vickrey_witness_set(n)
            zero_system = build_balance_system(witness, get_rule("constant:0"))
            zero_result = solve_or_refute(zero_system)
            assert isinstance(zero_result, Feasible)
            assert all(v == 0 for v in zero_result.assignment)
            for c in (Fraction(7, 3), Fraction(-2)):
                system = build_balance_system(witness, get_rule(f"constant:{c}"))
                result = solve_or_refute(system)
                assert isinstance(result, Feasible)
                for coeffs, _ in map(rational_row, system.rows):
                    total = sum(coeff * result.assignment[col] for col, coeff in coeffs.items())
                    assert total == c


def test_criterion_6_brute_force_grid(capsys):
    with criterion(6, "exhaustive 3-bidder grid over bids 1..4"):
        start = time.perf_counter()
        grid = [
            BidVector.of({1: a, 2: b, 3: c})
            for a, b, c in itertools.product([1, 2, 3, 4], repeat=3)
        ]
        system = build_balance_system(grid, NEG2)
        assert len(system.rows) == 64
        result = solve_or_refute(system)
        assert isinstance(result, Infeasible)
        assert verify_certificate(system, result.certificate)
        assert time.perf_counter() - start < 5.0


def test_criterion_7_adequacy_mutations(capsys):
    with criterion(7, "adequacy suite with 100 randomized mutation cases"):
        rng = random.Random(777)
        for _ in range(100):
            size = rng.randint(0, 4)
            ids = rng.sample(range(0, 18), size)
            base = BidVector.of({i: random_rational(rng) for i in ids})
            top = max(base.values(), default=Fraction(0))
            # strictly above every base bid so all completions stay distinct
            fill = top + Fraction(rng.randint(1, 10), rng.randint(1, 4))
            i1, i2 = 18, 19  # ids outside the sampled ones
            aset = build_adequate_set(base, fill, NEG2, i1, i2)
            assert aset.flat_invariant
            assert is_adequate(aset.members, base, fill, NEG2, i1, i2)

            dropped = rng.choice(sorted(aset.members, key=lambda b: b.entries))
            remaining = aset.members - {dropped}
            assert not is_adequate(remaining, base, fill, get_rule("constant:0"), i1, i2)
            assert not is_adequate(remaining, base, fill, NEG2, i1, i2)

            # a vector holding two bids above the fill moves the second price
            intruder_ids = sorted(base.dom | {i1, i2})
            intruder = BidVector.of(
                {
                    i: (fill + 1 if i in intruder_ids[:2] else fill)
                    for i in intruder_ids
                }
            )
            polluted = aset.members | {intruder}
            assert not check_flat_invariance(NEG2, polluted, base.dom | {i1, i2}, fill)
            assert not is_adequate(polluted, base, fill, NEG2, i1, i2)


def test_criterion_8_counterexample_and_residuals(capsys):
    with criterion(8, "hand values plus 500 generated residual checks"):
        low = BidVector.of({1: 1, 2: 2, 3: 4})
        high = BidVector.of({1: 1, 2: 3, 3: 4})
        h = {1: RULE_G, 2: RULE_G, 3: RULE_F}
        triple = CounterexampleTriple(low, high, h, get_rule("neg-first-price"))
        assert is_counterexample(triple, NEG2)
        report = verify_imbalance(NEG2, triple, default_selector(low), default_selector(high))
        assert (report.lhs, report.rhs, report.holds) == (Fraction(4, 3), Fraction(2, 3), True)

        rng = random.Random(31337)
        for _ in range(500):
            size = rng.randint(2, 6)
            ids = rng.sample(range(16), size)
            b_low = BidVector.of({i: random_rational(rng) for i in ids})
            b_high = BidVector.of(
                {i: b_low[i] + (random_rational(rng) if rng.random() < 0.5 else 0) for i in ids}
            )
            if b_low == b_high:
                b_high = BidVector.of(
                    {i: (b_low[i] + 1 if i == ids[0] else b_high[i]) for i in ids}
                )
            f_low, g_low = random_rational(rng), random_rational(rng)
            shift = Fraction(0)
            while shift == 0:
                shift = random_rational(rng)
            if rng.random() < 0.5:
                f_high, g_high = f_low, g_low + shift
            else:
                f_high, g_high = f_low + shift, g_low
            tags = {i: (RULE_F if rng.random() < 0.5 else RULE_G) for i in ids}
            tags[ids[0]], tags[ids[1]] = RULE_F, RULE_G
            if sorted(b_low.values()) == sorted(b_high.values()):
                continue  # one bag: a symmetric rule takes one value on both
            f = bag_rule("f", {b_low.values(): f_low, b_high.values(): f_high})
            g = bag_rule("g", {b_low.values(): g_low, b_high.values(): g_high})
            generated = CounterexampleTriple(b_low, b_high, tags, g)
            assert is_counterexample(generated, f)
            assert tag_residual(f, generated, b_low) != tag_residual(f, generated, b_high)
