"""The forcing multipliers: the balance rows of one adequate set combine
into the forced payment.

Take an adequate set with base bids B' and fill f.  Let B be the bag of
base bids other than f, c the number of base bids equal to f, and, for a
member, J the bag of its kept bids other than f.  The members are one per
sub-multiset J of B.  Give that member the multiplier

    mu_J = (-1)^d * prod_v C(b_v, j_v) * d! * (c + 1)! / (c + d + 2)!,

with d = |B| - |J| and b_v, j_v the counts of v in B and J.  Then the sum
of mu_J times the rational form of the member's balance row (its integers
over its scale, as ``verify_certificate`` reads it) is the unit row of
the variable P(bag(B') + {f}), and its right-hand side is the value
``forced_payment`` gives when the rule is flat-invariant on the set.  So
the forced route has a certificate that an exact checker can re-check
row by row.  A rule that is not flat-invariant on the set still gives the
unit row, since coefficients do not depend on the rule, and then
``forced_payment`` refuses to give a value.
"""

from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from imbalance import (
    AdequacyError,
    BidMultiset,
    BidVector,
    build_adequate_set,
    build_balance_system,
    forced_payment,
    get_rule,
)

RULES = ["second-price", "neg-second-price", "first-price", "neg-first-price"]
I1, I2 = 7, 8  # above every base bidder id


def multiplier(member: BidVector, base_bag: Counter, c: int, fill) -> Fraction:
    kept = Counter(v for v in member.values() if v != fill)
    d = sum(base_bag.values()) - sum(kept.values())
    ways = prod(comb(b, kept[v]) for v, b in base_bag.items())
    return (-1) ** d * ways * Fraction(factorial(d) * factorial(c + 1), factorial(c + d + 2))


@st.composite
def adequate_cases(draw):
    bids = draw(st.lists(st.integers(1, 6), max_size=5))
    # a fill equal to a base bid when there is one, so c > 0 is drawn often
    fill = draw(st.sampled_from(bids) if bids and draw(st.booleans()) else st.integers(1, 6))
    return BidVector.of(dict(enumerate(bids, start=1))), fill, draw(st.sampled_from(RULES))


@settings(max_examples=300, deadline=None)
@given(adequate_cases())
@example((BidVector.of({}), 3, "neg-second-price"))
@example((BidVector.of({1: 2, 2: 2, 3: 5}), 2, "neg-second-price"))
@example((BidVector.of({1: 4, 2: 4, 3: 4, 4: 1, 5: 6}), 4, "first-price"))
def test_multipliers_combine_the_rows_into_the_forced_payment(case):
    base, fill, name = case
    rule = get_rule(name)
    adequate = build_adequate_set(base, fill, rule, I1, I2)
    system = build_balance_system(adequate.members, rule)
    base_bag = Counter(v for v in base.values() if v != fill)
    c = len(base) - sum(base_bag.values())
    assert len(system.rows) == prod(b + 1 for b in base_bag.values())  # one member per J

    combined, rhs = Counter(), Fraction(0)
    for row in system.rows:
        mu = multiplier(row.origin, base_bag, c, fill)
        for col, v in row.coeffs.items():
            combined[col] += mu * Fraction(v, row.scale)
        rhs += mu * Fraction(row.rhs, row.scale)
    target = system.variables.index(BidMultiset.of([*base.values(), fill]))
    assert {col: v for col, v in combined.items() if v} == {target: 1}

    if adequate.flat_invariant:
        assert rhs == forced_payment(base, fill, rule, I1, I2)
    else:
        with pytest.raises(AdequacyError):
            forced_payment(base, fill, rule, I1, I2)
