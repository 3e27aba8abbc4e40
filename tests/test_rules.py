from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import bid_vectors, rationals
from imbalance import (
    BidVector,
    RuleArityError,
    RuleDomainError,
    bag_of,
    check_flat_invariance,
    flat,
    get_rule,
    register_external,
)


def vec(mapping):
    return BidVector.of(mapping)


class TestEval:
    def test_second_price(self):
        assert get_rule("second-price")(vec({1: 1, 2: 2, 3: 4})) == 2

    def test_second_price_on_flat(self):
        assert get_rule("second-price")(flat(range(1, 6), 7)) == 7

    def test_second_price_tie_at_max(self):
        assert get_rule("second-price")(vec({1: 4, 2: 4, 3: 1})) == 4

    def test_first_price(self):
        assert get_rule("first-price")(vec({1: 1, 2: 2, 3: 4})) == 4

    def test_constant(self):
        assert get_rule("constant:-3/2")(vec({1: 1})) == Fraction(-3, 2)

    def test_arity_errors(self):
        with pytest.raises(RuleArityError, match="rule undefined on this arity"):
            get_rule("second-price")(vec({1: 5}))
        with pytest.raises(RuleArityError):
            get_rule("constant:0")(vec({}))

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rule("third-price")

    def test_constant_name_is_canonical(self):
        assert get_rule("constant:4/6").name == "constant:2/3"


class TestFlatInvariance:
    def test_neg_second_price_below_fill(self):
        # fill at least the maximum bid: every member evaluates to -fill
        members = {
            vec({1: 9, 2: 9, 3: 9}),
            vec({1: 9, 2: 9, 3: 4}),
            vec({1: 9, 2: 9, 3: 1}),
        }
        assert check_flat_invariance(get_rule("neg-second-price"), members, {1, 2, 3}, 9)

    def test_constant_rule_always_invariant(self):
        members = {vec({1: 1, 2: 2}), vec({1: 5, 2: 5})}
        assert check_flat_invariance(get_rule("constant:3"), members, {1, 2}, 0)

    def test_violation_detected(self):
        members = {vec({1: 9, 2: 1, 3: 1}), vec({1: 9, 2: 9, 3: 1})}
        assert not check_flat_invariance(get_rule("second-price"), members, {1, 2, 3}, 1)

    def test_domain_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="domain mismatch"):
            check_flat_invariance(get_rule("constant:0"), {vec({1: 1})}, {1, 2}, 0)


class TestExternalRules:
    def test_two_vector_table(self):
        low, high = vec({1: 1, 2: 2, 3: 4}), vec({1: 1, 2: 3, 3: 4})
        g = register_external("g", {low: -4, high: -4})
        assert g(high) - g(low) == 0

    def test_singleton_round_trip(self):
        b = vec({1: 1})
        rule = register_external("one", {b: Fraction(7, 2)})
        assert rule(b) == Fraction(7, 2)

    def test_lookup_outside_table(self):
        rule = register_external("one", {vec({1: 1}): 0})
        with pytest.raises(RuleDomainError, match="rule undefined at this bid vector"):
            rule(vec({1: 2}))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            register_external("none", {})


@pytest.mark.parametrize(
    "name", ["second-price", "neg-second-price", "first-price", "neg-first-price"]
)
@given(bid_vectors(min_size=2, max_size=6), st.randoms())
def test_permutation_symmetry(name, b, rnd):
    rule = get_rule(name)
    ids = sorted(b.dom)
    shuffled = ids[:]
    rnd.shuffle(shuffled)
    relabeled = BidVector.of({new: b[old] for old, new in zip(ids, shuffled)})
    assert rule(relabeled) == rule(b)
    assert bag_of(relabeled) == bag_of(b)


# few distinct values, so ties at the top are common; "2/4" respells "1/2"
TIED_BIDS = st.sampled_from([-3, "-3/2", "-6/4", 0, "1/2", "2/4", 1, "7/3", "14/6", 5, "10/2"])


@given(st.lists(st.one_of(TIED_BIDS, rationals), min_size=2, max_size=10))
def test_second_price_is_second_of_sorted(bids):
    b = vec(dict(enumerate(bids, 1)))
    assert get_rule("second-price")(b) == sorted(v for _, v in b.entries)[-2]


@given(bid_vectors(min_size=2, max_size=6))
def test_second_price_at_most_first_price(b):
    assert get_rule("second-price")(b) <= get_rule("first-price")(b)


@given(bid_vectors(min_size=2, max_size=6))
def test_neg_variants_negate(b):
    assert get_rule("neg-second-price")(b) == -get_rule("second-price")(b)
    assert get_rule("neg-first-price")(b) == -get_rule("first-price")(b)


@given(bid_vectors(min_size=1, max_size=5), rationals)
def test_constant_ignores_bids(b, c):
    assert get_rule(f"constant:{c}")(b) == c
