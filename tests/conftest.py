"""Shared hypothesis strategies and helpers for the test suite."""

from fractions import Fraction

import hypothesis.strategies as st

from imbalance import RULE_F, BidMultiset, BidVector, PriceRule, RuleUndefinedError
from imbalance.bids import rank_bids
from imbalance.rationals import ensure_rational

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=20)

bidder_ids = st.integers(min_value=0, max_value=12)


def bid_vectors(min_size=0, max_size=6):
    return st.dictionaries(bidder_ids, rationals, min_size=min_size, max_size=max_size).map(
        BidVector.of
    )


def multisets(max_size=5):
    return st.lists(rationals, max_size=max_size).map(BidMultiset.of)


def bag_rule(name, values, min_arity=0) -> PriceRule:
    """A rule read from one table: ``values`` maps bids, in any order, to a
    value, and both forms read the table at the sorted bids.  A bag missing
    from the table raises ``RuleUndefinedError``; two values on one bag are
    an error of the caller."""
    table = {}
    for bids, value in values.items():
        key, value = tuple(sorted(bids)), ensure_rational(value)
        assert table.setdefault(key, value) == value, f"two values on the bag {key!r}"

    def bag(bids):
        try:
            return table[tuple(bids)]
        except KeyError:
            raise RuleUndefinedError(f"rule undefined on this bag: {name!r} has no value "
                                     f"on {tuple(bids)!r}") from None

    return PriceRule(name, min_arity, lambda vector: bag(sorted(vector.values())), bag)


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


def assert_ranked(vectors):
    """``rank_bids`` against its definition: the distinct values in order,
    each bid object at its own value's rank, and (bidder, rank) pairs that
    order the vectors as their entries do and tell them apart exactly
    when their entries differ."""
    vectors = list(vectors)
    bids = [v for vec in vectors for _, v in vec.entries]
    values, rank_of = rank_bids(bids)
    assert values == sorted(set(bids))
    assert set(rank_of) == {id(v) for v in bids}
    assert all(values[rank_of[id(v)]] == v for v in bids)
    keys = [tuple((i, rank_of[id(v)]) for i, v in vec.entries) for vec in vectors]
    assert len(set(keys)) == len(set(vectors))
    by_rank = [vec for _, vec in sorted(zip(keys, vectors), key=lambda kv: kv[0])]
    by_entries = sorted(vectors, key=lambda b: b.entries)
    assert [v.entries for v in by_rank] == [v.entries for v in by_entries]


def rational_row(row) -> tuple[dict[int, Fraction], Fraction]:
    """The coefficients and right-hand side a ``LinearRow`` stands for:
    its integers over its scale."""
    return {c: Fraction(v, row.scale) for c, v in row.coeffs.items()}, Fraction(row.rhs, row.scale)


def random_rational(rng, lo=-50, hi=50, max_den=12) -> Fraction:
    """Seeded rational generator for counted randomized acceptance runs."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def tag_residual(rule, triple, vector) -> Fraction:
    """rule(b) - (1/n) * sum over bidders of the rule each one's tag names,
    evaluated at b: the residual the forced payments leave, read directly
    off the triple's tags."""
    tagged = sum((rule if triple.h[i] == RULE_F else triple.g)(vector) for i in vector.dom)
    return rule(vector) - Fraction(tagged) / len(vector)
