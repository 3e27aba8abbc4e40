from fractions import Fraction

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from conftest import bag_rule, bid_vectors, rationals
from imbalance import (
    BidMultiset,
    BidVector,
    PriceRule,
    RuleArityError,
    RuleUndefinedError,
    build_adequate_set,
    check_flat_invariance,
    ensure_rational,
    flat,
    get_rule,
    is_adequate,
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

    def test_a_rule_needs_a_bag_form(self):
        # the bag form is required: a rule made from an fn alone is refused
        with pytest.raises(TypeError, match="bag"):
            PriceRule("positional", 1, lambda b: Fraction(0))

    def test_undefined_errors_share_one_base(self):
        assert issubclass(RuleArityError, RuleUndefinedError)
        assert issubclass(RuleUndefinedError, ValueError)
        with pytest.raises(RuleUndefinedError):
            get_rule("second-price")(vec({1: 1}))


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

    @pytest.mark.parametrize("missing", ["flat", "member"])
    def test_undefined_rule_is_not_invariant(self, missing):
        # a rule undefined on the flat vector or on a member is not
        # flat-invariant there: the answer is False, nothing is raised
        flat_vector, member = flat({1, 2}, 9), vec({1: 9, 2: 4})
        kept = member if missing == "flat" else flat_vector
        rule = bag_rule("partial", {kept.values(): 0})
        assert check_flat_invariance(rule, [member], {1, 2}, 9) is False

    @pytest.mark.parametrize(
        "flat_value, member_value, invariant",
        [
            (Fraction(2), 2, True),
            (2, Fraction(2), True),
            (Fraction(4, 2), 2, True),
            (Fraction(2), 3, False),
            (Fraction(-2), 2, False),
            (Fraction(2, 3), 2, False),  # equal numerators, other denominators
        ],
    )
    def test_int_and_fraction_values_compare_by_value(self, flat_value, member_value, invariant):
        # a rule may return an int where the flat value is a Fraction
        def bag(bids):
            return flat_value if set(bids) == {Fraction(9)} else member_value

        rule = PriceRule("mixed", 1, lambda b: bag(b.values()), bag)
        members = {vec({1: 1, 2: 9}), vec({1: 9, 2: 3})}
        assert check_flat_invariance(rule, members, {1, 2}, 9) is invariant

    @given(rationals.filter(bool), st.integers(1, 30), st.booleans(), st.randoms())
    def test_a_member_value_sharing_the_flat_numerator_is_not_flat(self, flat_value, denominator,
                                                                   as_int, rnd):
        """A member value with the flat value's numerator over another
        denominator is another value, whichever member holds it; an integer
        flat value may be an ``int``."""
        member_value = Fraction(flat_value.numerator, denominator)
        assume(member_value.denominator == denominator and member_value != flat_value)
        if as_int and flat_value.denominator == 1:
            flat_value = int(flat_value)
        members = [vec({1: k, 2: 9}) for k in range(1, 5)]
        odd = rnd.choice(members).values()

        def bag(bids):
            return member_value if sorted(bids) == sorted(odd) else flat_value

        rule = PriceRule("shared-numerator", 1, lambda b: bag(b.values()), bag)
        assert check_flat_invariance(rule, members, {1, 2}, 9) is False
        assert check_flat_invariance(rule, [m for m in members if m.values() != odd], {1, 2}, 9)

    def test_domain_mismatch_is_an_error(self):
        # check_flat_invariance trusts its vectors' domains; a set from
        # outside is checked where it enters.  constant:0 is flat-invariant
        # on any domain, so only the structure check can reject it.
        base, rule = vec({3: 1}), get_rule("constant:0")
        members = build_adequate_set(base, 0, rule, 1, 2).members
        assert is_adequate(members, base, 0, rule, 1, 2)
        missing_bidder, foreign_bidder = vec({1: 0, 3: 1}), vec({1: 0, 2: 0, 3: 1, 4: 0})
        for stray in (missing_bidder, foreign_bidder):
            assert not is_adequate(members | {stray}, base, 0, rule, 1, 2)

    @given(bid_vectors(max_size=5), rationals, st.data())
    def test_adequate_set_members_have_the_holders_domain(self, base, fill, data):
        # the precondition check_flat_invariance relies on when
        # build_adequate_set calls it; a fill equal to a base bid is common
        fill = data.draw(st.sampled_from([fill, *base.values()]))
        i1, i2 = 13, 14  # above every id bidder_ids draws
        order = tuple(sorted(base.dom | {i1, i2}))
        members = build_adequate_set(base, fill, get_rule("neg-second-price"), i1, i2).members
        assert all(tuple(member) == order for member in members)


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
    assert BidMultiset.of(relabeled.values()) == BidMultiset.of(b.values())


# few distinct values, so ties at the top are common; "2/4" respells "1/2".
# Each text parses to a fresh object per draw, and ints stay raw ints.
TIED_BIDS = st.sampled_from(
    [-3, "-3/2", "-6/4", 0, "1/2", "2/4", 1, "7/3", "14/6", 5, "10/2"]
).map(lambda bid: ensure_rational(bid) if isinstance(bid, str) else bid)
# 20-bit numerators and denominators, as the grid-sweep benchmark draws them
WIDE_BIDS = st.builds(Fraction, st.integers(-(2**20), 2**20), st.integers(1, 2**20))
BID_LISTS = st.lists(st.one_of(TIED_BIDS, WIDE_BIDS, rationals), min_size=2, max_size=10)


def raw_vector(bids):
    """Bids in bidder order, each object kept as drawn (an int stays an int)."""
    return BidVector(tuple(enumerate(bids, 1)))


def reference_second_price(vector):
    """The one-pass second price comparing the bids themselves."""
    (_, top), (_, second), *rest = vector.entries
    if second > top:
        top, second = second, top
    for _, v in rest:
        if v > second:
            if v > top:
                top, second = v, top
            else:
                second = v
    return second


@given(BID_LISTS)
def test_second_price_is_second_of_sorted(bids):
    got = get_rule("second-price")(raw_vector(bids))
    assert got == sorted(bids)[-2]
    assert got is reference_second_price(raw_vector(bids))


@given(BID_LISTS)
def test_first_price_is_max(bids):
    # the first maximal bid object in bidder order, as max picks it
    assert get_rule("first-price")(raw_vector(bids)) is max(bids)


@pytest.mark.parametrize(
    "name", ["second-price", "neg-second-price", "first-price", "neg-first-price", "constant:7/3"]
)
def test_rules_make_no_fraction_order_compares(name, monkeypatch):
    calls = []
    for op in ("__lt__", "__gt__", "__le__", "__ge__"):
        original = getattr(Fraction, op)

        def counted(a, b, op=op, original=original):
            calls.append(op)
            return original(a, b)

        monkeypatch.setattr(Fraction, op, counted)
    b = raw_vector([Fraction(v, 7) for v in (3, -5, 9, 9, 40, 2, 40, 11, -1, 6)])
    want = {"second-price": Fraction(40, 7), "first-price": Fraction(40, 7),
            "constant:7/3": Fraction(7, 3)}
    value = get_rule(name)(b)
    assert calls == []
    assert value == (-want[name[4:]] if name.startswith("neg-") else want[name])


@pytest.mark.parametrize("name", [
    "second-price", "neg-second-price", "first-price", "neg-first-price", "constant:7/3",
    "constant:-2", "constant:0", "bag-rule",
])
@given(st.lists(st.one_of(TIED_BIDS, WIDE_BIDS, rationals), max_size=8), st.randoms())
def test_bag_form_agrees_with_the_vector_form(name, bids, rnd):
    # lists of 0 and 1 bids fall below every built-in arity; TIED_BIDS repeats
    # values, spells some as ints next to equal Fractions, and holds
    # negatives.  The tests' ``bag_rule`` holds the drawn bag half the time.
    if name == "bag-rule":
        rule = bag_rule(name, {tuple(bids): Fraction(len(bids), 3)} if rnd.random() < 0.5 else {},
                        min_arity=1)
    else:
        rule = get_rule(name)
    ids = rnd.sample(range(20), len(bids))
    vector = BidVector(tuple(sorted(zip(ids, bids))))
    try:
        want = rule(vector)
    except RuleUndefinedError as exc:
        assert len(bids) < rule.min_arity or name == "bag-rule"
        with pytest.raises(type(exc)) as got:
            rule.of_bag(sorted(vector.values()))
        assert str(got.value) == str(exc)
        return
    got = rule.of_bag(sorted(vector.values()))
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


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
