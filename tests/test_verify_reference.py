"""Differential test: the integer judges against the Fraction judges they replaced.

``reference_verify_certificate`` and ``reference_verify_assignment`` are the
previous ``verify_certificate`` and ``verify_assignment``, kept here
unchanged as the references.  They add up ``Fraction`` products one term
at a time, on each row's rational form (``conftest.rational_row``); the
current judges read each row's integers and scale as stored and work over
one common denominator.  Both must give the
same verdict, and the same error, on systems whose coefficients,
right-hand sides, values and multipliers are all rational.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import rational_row
from imbalance import (
    BidMultiset,
    BidVector,
    Certificate,
    LinearRow,
    LinearSystem,
    verify_assignment,
    verify_certificate,
)


def reference_verify_certificate(system: LinearSystem, certificate: Certificate) -> bool:
    """Exact re-check: multipliers combine rows to zero but the rhs to nonzero."""
    if len(certificate.multipliers) != len(system.rows):
        raise ValueError(
            f"multiplier count mismatch: {len(certificate.multipliers)} multipliers "
            f"for {len(system.rows)} rows"
        )
    combined: dict[int, Fraction] = {}
    rhs_total = Fraction(0)
    for mult, (coeffs, rhs) in zip(certificate.multipliers, map(rational_row, system.rows)):
        if mult == 0:
            continue
        rhs_total += mult * rhs
        for col, coeff in coeffs.items():
            combined[col] = combined.get(col, Fraction(0)) + mult * coeff
    return all(v == 0 for v in combined.values()) and rhs_total != 0


def reference_verify_assignment(system: LinearSystem, values: tuple[Fraction, ...]) -> bool:
    """Exact re-check: the assignment satisfies every row.

    A value missing from the tuple is a failure, not a zero.
    """
    if len(values) != len(system.variables):
        return False
    return all(
        sum(coeff * values[col] for col, coeff in coeffs.items()) == rhs
        for coeffs, rhs in map(rational_row, system.rows)
    )


# small denominators that share factors, so lcm(q, s) and q*s differ
rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9]))
nonzero = rationals.filter(bool)


def make_system(n_vars, rows):
    return LinearSystem(
        variables=tuple(BidMultiset.of([k]) for k in range(n_vars)),
        rows=[LinearRow.of(coeffs, rhs, BidVector.of({})) for coeffs, rhs in rows],
    )


@st.composite
def rows_over(draw, n_vars, max_rows=5):
    columns = st.integers(0, n_vars - 1) if n_vars else st.nothing()
    return draw(st.lists(
        st.tuples(st.dictionaries(columns, rationals, max_size=n_vars), rationals),
        max_size=max_rows,
    ))


def combine(rows, multipliers):
    """The coefficients and rhs of sum(multiplier * row)."""
    coeffs: dict[int, Fraction] = {}
    total = Fraction(0)
    for mult, (row, rhs) in zip(multipliers, rows):
        total += mult * rhs
        for col, v in row.items():
            coeffs[col] = coeffs.get(col, 0) + mult * v
    return coeffs, total


@st.composite
def certificate_cases(draw):
    """A system and multipliers; mostly ones whose rows cancel, sometimes perturbed."""
    n_vars = draw(st.integers(0, 4))
    rows = draw(rows_over(n_vars))
    mults = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        # close the combination with one more row, so the coefficients cancel
        last = draw(nonzero)
        coeffs, _ = combine(rows, mults)
        rows.append(({c: -v / last for c, v in coeffs.items()}, draw(rationals)))
        mults.append(last)
        if rows[-1][0] and draw(st.integers(0, 3)) == 0:
            col = draw(st.sampled_from(sorted(rows[-1][0])))
            rows[-1][0][col] += draw(nonzero)
    order = draw(st.permutations(range(len(rows))))
    system = make_system(n_vars, [rows[k] for k in order])
    return system, Certificate(tuple(mults[k] for k in order))


@st.composite
def assignment_cases(draw):
    """A system and values; mostly ones that satisfy every row, sometimes perturbed or one value short."""
    n_vars = draw(st.integers(0, 4))
    values = draw(st.lists(rationals, min_size=n_vars, max_size=n_vars))
    rows = [
        (coeffs, sum((v * values[c] for c, v in coeffs.items()), Fraction(0))
         + draw(st.sampled_from([0, 0, 0, 1])) * draw(nonzero))
        for coeffs, _ in draw(rows_over(n_vars))
    ]
    if values and draw(st.integers(0, 5)) == 0:
        values = values[:-1]
    return make_system(n_vars, rows), tuple(values)


@settings(max_examples=150, deadline=None)
@given(certificate_cases())
def test_random_certificates_match_reference(case):
    system, certificate = case
    assert verify_certificate(system, certificate) == reference_verify_certificate(system, certificate)


@settings(max_examples=150, deadline=None)
@given(assignment_cases())
def test_random_assignments_match_reference(case):
    system, values = case
    assert verify_assignment(system, values) == reference_verify_assignment(system, values)


def test_product_of_denominators_is_needed():
    """(1/2) * (1/2 x) = 1/4 x: a common denominator of lcm(2, 2) would cancel it wrongly."""
    system = make_system(1, [({0: Fraction(1, 2)}, Fraction(1, 2)), ({0: Fraction(1, 4)}, Fraction(0))])
    for mults in [(Fraction(1, 2), Fraction(-1)), (Fraction(1, 2), Fraction(-2))]:
        certificate = Certificate(mults)
        assert verify_certificate(system, certificate) == reference_verify_certificate(system, certificate)
    assert verify_certificate(system, Certificate((Fraction(1, 2), Fraction(-1))))


def test_length_mismatch_raises_the_same_error():
    system = make_system(1, [({0: Fraction(1)}, Fraction(1))])
    certificate = Certificate((Fraction(1), Fraction(2)))
    with pytest.raises(ValueError) as want:
        reference_verify_certificate(system, certificate)
    with pytest.raises(ValueError) as got:
        verify_certificate(system, certificate)
    assert str(got.value) == str(want.value)
