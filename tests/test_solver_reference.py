"""Differential test: the integer solver against the Fraction elimination it replaced.

``reference_solve_or_refute`` is an earlier ``solve_or_refute``, kept
here unchanged as the reference.  It visits columns in variable order and
pivots on the lowest-index row with a nonzero reduced entry; the current
solver eliminates rows in index order and stops at the first
contradiction.  Both make the pivot rows the greedy row basis, which
fixes the certificate and the assignment whatever the pivot columns, so
every certificate and every assignment must be equal value for value, in
the same order.
"""

import random
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
    build_balance_system,
    get_rule,
    solve_or_refute,
    vickrey_witness_set,
)
from test_build_reference import GRID_RULES, grid


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
    return Feasible(tuple(solution[col] for col in range(len(system.variables))))


def assert_same_result(system):
    got, want = solve_or_refute(system), reference_solve_or_refute(system)
    assert type(got) is type(want)
    if isinstance(want, Infeasible):
        assert got.certificate.multipliers == want.certificate.multipliers
    else:
        assert got.assignment == want.assignment


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6))


def row_lists(n_vars):
    """Up to five rows over ``n_vars`` columns, as (coefficients, rhs) pairs."""
    columns = st.integers(0, n_vars - 1) if n_vars else st.nothing()
    entry = st.dictionaries(columns, nonzero, max_size=n_vars)
    rhs = st.one_of(st.just(Fraction(0)), rationals)
    return st.lists(st.tuples(entry, rhs), max_size=5)


def linear_rows(rows):
    return [LinearRow(dict(sorted(c.items())), v, BidVector.of({})) for c, v in rows]


@st.composite
def systems(draw):
    """Small systems with rational entries, zero rhs, empty, scaled, repeated and summed rows."""
    n_vars = draw(st.integers(0, 5))
    rows = draw(row_lists(n_vars))
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
        rows=linear_rows(rows),
    )


@settings(max_examples=120, deadline=None)
@given(systems())
def test_random_systems_match_reference(system):
    assert_same_result(system)


@settings(max_examples=120, deadline=None)
@given(systems(), st.data())
def test_appended_rows_only_pad_the_certificate(system, data):
    """Rows after the first inconsistent row r* leave the certificate alone:
    it is that of rows[:r*+1], padded with zeros."""
    if isinstance(reference_solve_or_refute(system), Feasible):
        # a copy of a row (or an empty row) with a shifted rhs contradicts a feasible system
        coeffs, value = data.draw(st.sampled_from([(row.coeffs, row.rhs) for row in system.rows]
                                                  or [({}, Fraction(0))]))
        system.rows.append(linear_rows([(coeffs, value + data.draw(nonzero))])[0])
    want = reference_solve_or_refute(system).certificate.multipliers
    last = max(r for r, m in enumerate(want) if m)
    extra = linear_rows(data.draw(row_lists(len(system.variables))))
    padded = LinearSystem(system.variables, system.rows + extra)
    zeros = (Fraction(0),) * len(extra)
    assert reference_solve_or_refute(padded).certificate.multipliers == want + zeros
    assert solve_or_refute(padded).certificate.multipliers == want + zeros
    prefix = LinearSystem(system.variables, system.rows[:last + 1])
    assert solve_or_refute(prefix).certificate.multipliers == want[:last + 1]


WITNESS_RULES = ["neg-second-price", "constant:7/3"]


@pytest.mark.parametrize("vectors,rule", [
    *(pytest.param(n, rule, id=f"{n}-{rule}") for n in range(1, 7) for rule in WITNESS_RULES),
    # one seeded 20-bit grid per bidder count, as in test_build_reference
    *(pytest.param((k, b), rule, id=f"grid{k}x{b}-{rule}")
      for k, b in [(3, 6), (4, 5)] for rule in GRID_RULES),
])
def test_witness_systems_match_reference(vectors, rule):
    vectors = vickrey_witness_set(vectors) if isinstance(vectors, int) else grid(*vectors, seed=0)
    assert_same_result(build_balance_system(vectors, get_rule(rule)))


def rank_deficient_system(n_vars, rows, rhs_values):
    return LinearSystem(
        variables=tuple(BidMultiset.of([k]) for k in range(n_vars)),
        rows=[LinearRow({c: Fraction(v) for c, v in coeffs.items()}, Fraction(value),
                        BidVector.of({}))
              for coeffs, value in zip(rows, rhs_values)],
    )


def test_count_order_leaves_another_column_unpivoted():
    """Columns 0 and 1 are equal and held by one row each; column 2 by both rows.

    Variable order pivots column 0 and leaves column 1 without a pivot;
    ascending row count with ties to the higher index pivots column 1 and
    leaves column 0.  Zero on column 1 is the canonical choice: x = (2, 0, 1).
    """
    system = rank_deficient_system(3, [{0: 1, 1: 1, 2: 1}, {2: 1}], [3, 1])
    result = solve_or_refute(system)
    assert result.assignment == (2, 0, 1)
    assert_same_result(system)


@pytest.mark.parametrize("system", [
    # variable order leaves columns 3 and 4 free, the count order 1 and 2,
    # whose two null vectors share their top column 4
    rank_deficient_system(5, [{0: 1, 1: 1, 3: "2/3"}, {1: 1, 2: 2, 4: 1}, {0: 1, 1: 1, 2: 1},
                              {2: -1, 3: "2/3"}],
                          ["1/3", 2, "-1/2", "5/6"]),
    # a repeated row, and column 1 half of column 0: the count order leaves column 0 free
    rank_deficient_system(4, [{0: 3, 1: "3/2", 3: 1}, {2: 1, 3: -1},
                              {0: 3, 1: "3/2", 3: 1}, {0: -2, 1: -1, 2: 5}],
                          [1, "7/5", 1, 0]),
], ids=["two-free", "repeated-row"])
def test_rank_deficient_feasible_systems_match_reference(system):
    assert isinstance(reference_solve_or_refute(system), Feasible)
    assert_same_result(system)


@pytest.mark.parametrize("rule", WITNESS_RULES)
@pytest.mark.parametrize("n", range(4, 7))
def test_witness_subsets_with_more_unknowns_than_rows_match_reference(n, rule):
    """Seeded subsets of the witness: wide systems, so columns are left without a pivot."""
    vectors = sorted(vickrey_witness_set(n), key=lambda v: v.entries)
    rng = random.Random(f"subset:{n}")
    for _ in range(3):
        system = build_balance_system(rng.sample(vectors, len(vectors) // 3), get_rule(rule))
        assert len(system.variables) > len(system.rows)
        assert_same_result(system)
