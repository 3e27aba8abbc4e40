"""Differential test: the integer solver against the Fraction elimination it replaced.

``reference_solve_or_refute`` is the previous ``solve_or_refute``, kept
here unchanged as the reference.  Both use the same pivot rule (lowest
original row index with a nonzero reduced entry), so every certificate
and every assignment must be equal value for value, in the same order.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from imbalance import (
    BidMultiset,
    BidVector,
    Certificate,
    Feasible,
    Infeasible,
    LinearRow,
    LinearSystem,
    PaymentTable,
    build_balance_system,
    get_rule,
    solve_or_refute,
    vickrey_witness_set,
)


def reference_solve_or_refute(system: LinearSystem) -> Feasible | Infeasible:
    """Dense-style Fraction Gauss elimination, pivoting on the first remaining row."""
    # (original index, sparse coeffs, rhs, multipliers over original rows)
    work = [
        (idx, dict(row.coeffs), row.rhs, {idx: Fraction(1)})
        for idx, row in enumerate(system.rows)
    ]
    pivots: list[tuple[int, dict[int, Fraction], Fraction]] = []
    for col in range(len(system.variables)):
        pivot_pos = next(
            (pos for pos, (_, coeffs, _, _) in enumerate(work) if coeffs.get(col)), None
        )
        if pivot_pos is None:
            continue
        _, p_coeffs, p_rhs, p_mults = work.pop(pivot_pos)
        scale = p_coeffs[col]
        p_coeffs = {c: v / scale for c, v in p_coeffs.items()}
        p_rhs = p_rhs / scale
        p_mults = {r: v / scale for r, v in p_mults.items()}
        for pos, (orig, coeffs, rhs, mults) in enumerate(work):
            factor = coeffs.get(col)
            if not factor:
                continue
            for c, v in p_coeffs.items():
                new = coeffs.get(c, Fraction(0)) - factor * v
                if new:
                    coeffs[c] = new
                else:
                    coeffs.pop(c, None)
            for r, v in p_mults.items():
                new = mults.get(r, Fraction(0)) - factor * v
                if new:
                    mults[r] = new
                else:
                    mults.pop(r, None)
            work[pos] = (orig, coeffs, rhs - factor * p_rhs, mults)
        pivots.append((col, p_coeffs, p_rhs))

    leftovers = sorted(work, key=lambda item: item[0])
    for _, coeffs, rhs, mults in leftovers:
        if coeffs:
            raise AssertionError("elimination left a nonempty row")
        if rhs != 0:
            multipliers = tuple(
                mults.get(r, Fraction(0)) / rhs for r in range(len(system.rows))
            )
            return Infeasible(Certificate(multipliers))

    solution = {col: Fraction(0) for col in range(len(system.variables))}
    for col, coeffs, rhs in reversed(pivots):
        value = rhs
        for c, v in coeffs.items():
            if c != col:
                value -= v * solution[c]
        solution[col] = value
    table = PaymentTable(
        {system.variables[col]: value for col, value in solution.items()}
    )
    return Feasible(table)


def assert_same_result(system):
    got, want = solve_or_refute(system), reference_solve_or_refute(system)
    assert type(got) is type(want)
    if isinstance(want, Infeasible):
        assert got.certificate.multipliers == want.certificate.multipliers
    else:
        assert got.assignment.items() == want.assignment.items()


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6))


@st.composite
def systems(draw):
    """Small systems with rational entries, zero rhs, empty, scaled, repeated and summed rows."""
    n_vars = draw(st.integers(0, 5))
    columns = st.integers(0, n_vars - 1) if n_vars else st.nothing()
    entry = st.dictionaries(columns, nonzero, max_size=n_vars)
    rhs = st.one_of(st.just(Fraction(0)), rationals)
    rows = draw(st.lists(st.tuples(entry, rhs), max_size=5))
    for _ in range(draw(st.integers(0, 6)) if rows else 0):
        kind = draw(st.sampled_from(["scale", "repeat", "sum"]))
        coeffs, value = rows[draw(st.integers(0, len(rows) - 1))]
        # a shifted right-hand side (one draw in three) makes a dependent row contradict
        shift = draw(st.sampled_from([0, 0, 1])) * draw(nonzero)
        if kind == "scale":
            factor = draw(nonzero)
            coeffs, value = {c: factor * v for c, v in coeffs.items()}, factor * value
        elif kind == "sum":
            other, other_value = rows[draw(st.integers(0, len(rows) - 1))]
            summed = {c: coeffs.get(c, 0) + other.get(c, 0) for c in coeffs.keys() | other.keys()}
            coeffs, value = {c: v for c, v in summed.items() if v}, value + other_value
        rows.append((coeffs, value + shift))
    rows = draw(st.permutations(rows))
    return LinearSystem(
        variables=tuple(BidMultiset.of([k]) for k in range(n_vars)),
        rows=[LinearRow(dict(sorted(c.items())), v, BidVector.of({})) for c, v in rows],
    )


@settings(max_examples=120, deadline=None)
@given(systems())
def test_random_systems_match_reference(system):
    assert_same_result(system)


@pytest.mark.parametrize("rule", ["neg-second-price", "constant:7/3"])
@pytest.mark.parametrize("n", range(1, 7))
def test_witness_systems_match_reference(n, rule):
    assert_same_result(build_balance_system(vickrey_witness_set(n), get_rule(rule)))
