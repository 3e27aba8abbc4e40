"""Shared hypothesis strategies and helpers for the test suite."""

from fractions import Fraction

import hypothesis.strategies as st

from imbalance import RULE_F, BidMultiset, BidVector

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=20)

bidder_ids = st.integers(min_value=0, max_value=12)


def bid_vectors(min_size=0, max_size=6):
    return st.dictionaries(bidder_ids, rationals, min_size=min_size, max_size=max_size).map(
        BidVector.of
    )


def multisets(max_size=5):
    return st.lists(rationals, max_size=max_size).map(BidMultiset.of)


def assert_canonical(obj):
    """Assert the order the raw constructors take on trust: a vector's ids
    strictly increase, a multiset's values never decrease.  Any other
    iterable (a family, a witness set, a tuple of variables) is checked
    member by member."""
    if isinstance(obj, BidVector):
        ids = [i for i, _ in obj.entries]
        assert all(a < b for a, b in zip(ids, ids[1:])), f"ids not strictly increasing: {obj!r}"
    elif isinstance(obj, BidMultiset):
        vals = obj.values
        assert all(a <= b for a, b in zip(vals, vals[1:])), f"values not sorted: {obj!r}"
    else:
        for member in obj:
            assert_canonical(member)


def random_rational(rng, lo=-50, hi=50, max_den=12) -> Fraction:
    """Seeded rational generator for counted randomized acceptance runs."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def tag_residual(rule, triple, vector) -> Fraction:
    """rule(b) - (1/n) * sum over bidders of the rule each one's tag names,
    evaluated at b: the residual the forced payments leave, read directly
    off the triple's tags."""
    tagged = sum((rule if triple.h[i] == RULE_F else triple.g)(vector) for i in vector.dom)
    return rule(vector) - Fraction(tagged) / len(vector)
