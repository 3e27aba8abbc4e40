import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import random_rational, rationals
from imbalance import (
    AdequacyError,
    BidMultiset,
    BidVector,
    PriceRule,
    build_adequate_set,
    build_balance_system,
    build_payment_table,
    check_flat_invariance,
    extend,
    flat,
    forced_payment,
    format_rational,
    forced_payment_sum,
    full_family,
    get_rule,
    is_adequate,
    register_external,
    solve_or_refute,
    verify_assignment,
    verify_certificate,
    verify_imbalance,
    vickrey_instance,
    Feasible,
    Infeasible,
    LinearRow,
    LinearSystem,
)
from test_payment_table_reference import reference_build_payment_table

NEG2 = get_rule("neg-second-price")
# Few distinct bids, so repeats and fills equal to a base bid are common.
FEW_BIDS = [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(4)]


def vec(mapping):
    return BidVector.of(mapping)


def bag(*values):
    return BidMultiset.of(values)


class TestBuildAdequateSet:
    def test_singleton_base(self):
        aset = build_adequate_set(vec({3: 1}), 4, NEG2, 1, 2)
        assert aset.members == {vec({1: 4, 2: 4, 3: 4}), vec({1: 4, 2: 4, 3: 1})}
        assert aset.flat_invariant

    def test_empty_base(self):
        aset = build_adequate_set(vec({}), 5, NEG2, 1, 2)
        assert aset.members == {flat({1, 2}, 5)}

    def test_two_element_base_counts(self):
        aset = build_adequate_set(vec({3: 1, 4: 2}), 5, NEG2, 1, 2)
        assert len(aset.members) == 4

    def test_freshness_enforced(self):
        with pytest.raises(ValueError, match="fresh and distinct"):
            build_adequate_set(vec({3: 1}), 4, NEG2, 1, 1)
        with pytest.raises(ValueError, match="fresh and distinct"):
            build_adequate_set(vec({3: 1}), 4, NEG2, 3, 2)

    def test_flat_invariance_reported_not_assumed(self):
        # two base bids above the fill shift the second-highest value, so
        # the member keeping both breaks flat-invariance
        aset = build_adequate_set(vec({3: 9, 4: 9}), 4, NEG2, 1, 2)
        assert not aset.flat_invariant

    @settings(max_examples=80)
    @given(
        st.dictionaries(st.integers(0, 6), st.sampled_from(FEW_BIDS), max_size=4),
        st.sampled_from(FEW_BIDS + [Fraction(7, 3)]),
        st.sampled_from(["Fraction", "str", "int"]),
        st.sampled_from([(7, 8), (8, 7), (10, 30)]),
    )
    def test_members_are_the_base_family_with_the_fill_holders_adjoined(
        self, mapping, fill, spelling, ids
    ):
        # one vector's family, built with i1 and i2 at the fill, is the base's
        # family with them adjoined: repeated bids, a fill equal to a base bid,
        # an empty base, and the fill as int, str or Fraction
        base = vec(mapping)
        if spelling == "str":
            given_fill = format_rational(fill)
        elif spelling == "int" and fill.denominator == 1:
            given_fill = int(fill)
        else:
            given_fill = fill
        i1, i2 = ids
        members = build_adequate_set(base, given_fill, NEG2, i1, i2).members
        assert members == extend(flat({i1, i2}, fill), full_family(base, fill))


class TestIsAdequate:
    def test_build_output_is_adequate(self):
        base = vec({3: 1, 4: 2})
        aset = build_adequate_set(base, 5, NEG2, 1, 2)
        assert is_adequate(aset.members, base, 5, NEG2, 1, 2)

    def test_missing_member_fails(self):
        base = vec({3: 1, 4: 2})
        aset = build_adequate_set(base, 5, NEG2, 1, 2)
        some = next(iter(aset.members))
        assert not is_adequate(aset.members - {some}, base, 5, NEG2, 1, 2)

    def test_base_bids_above_fill_fail(self):
        # note a single base bid above the fill is not enough for plain
        # second price: the member keeping it still evaluates to the fill
        rule = get_rule("second-price")
        single = vec({3: 9})
        aset = build_adequate_set(single, 4, rule, 1, 2)
        assert is_adequate(aset.members, single, 4, rule, 1, 2)
        double = vec({3: 9, 4: 9})
        aset = build_adequate_set(double, 4, rule, 1, 2)
        assert not is_adequate(aset.members, double, 4, rule, 1, 2)

    def test_padded_set_is_not_a_full_family(self):
        # four members but only three distinct sub-multiset roles: both
        # single-keep completions plus the two extremes
        base = vec({1: 10, 2: 10})
        members = {
            vec({1: 0, 2: 0, 5: 0, 6: 0}),
            vec({1: 10, 2: 0, 5: 0, 6: 0}),
            vec({1: 0, 2: 10, 5: 0, 6: 0}),
            vec({1: 10, 2: 10, 5: 0, 6: 0}),
        }
        assert not is_adequate(members, base, Fraction(0), get_rule("constant:0"), 5, 6)

    def test_coinciding_completions_still_adequate(self):
        base = vec({3: 5})
        aset = build_adequate_set(base, 5, NEG2, 1, 2)
        assert len(aset.members) == 1
        assert is_adequate(aset.members, base, 5, NEG2, 1, 2)


class TestForcedPayment:
    def test_two_element_base(self):
        assert forced_payment(vec({3: 1, 4: 2}), 5, NEG2, 1, 2) == Fraction(-5, 4)

    def test_constant_zero(self):
        assert forced_payment(vec({3: 1, 4: 2}), 5, get_rule("constant:0"), 1, 2) == 0

    def test_empty_base(self):
        assert forced_payment(vec({}), 6, NEG2, 1, 2) == -3

    def test_hypotheses_failure_names_member(self):
        with pytest.raises(AdequacyError, match="hypotheses fail.*9"):
            forced_payment(vec({3: 9, 4: 9}), 4, NEG2, 1, 2)

    def test_forced_value_is_the_unique_solution_of_the_balance_system(self):
        # independent oracle: solve the raw equations over the adequate set
        base = vec({3: 1, 4: 2})
        aset = build_adequate_set(base, 5, NEG2, 1, 2)
        system = build_balance_system(aset.members, NEG2)
        result = solve_or_refute(system)
        assert isinstance(result, Feasible)
        target = bag(*base.values(), 5)
        want = forced_payment(base, 5, NEG2, 1, 2)
        assert dict(zip(system.variables, result.assignment))[target] == want
        # the value is forced: adding any other value for it is contradictory
        pinned = build_balance_system(aset.members, NEG2)
        idx = pinned.variables.index(target)
        pinned.rows.append(
            LinearRow.of(coeffs={idx: Fraction(1)}, rhs=want + 1, origin=vec({}))
        )
        assert isinstance(solve_or_refute(pinned), Infeasible)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 6), rationals, max_size=3),
        st.fractions(min_value=-10, max_value=10, max_denominator=8),
        st.sampled_from(["neg-second-price", "second-price", "neg-first-price", "first-price",
                         "constant:0", "constant:7/3", "external"]),
        rationals,
    )
    def test_forced_value_matches_elimination(self, mapping, offset, name, constant):
        # the value forced_payment reads off the closed form is the one value of
        # P(bag(base) + {fill}) that the adequate set's own balance system admits
        base = vec(mapping)
        i1, i2 = 7, 8  # outside the drawn ids
        if name == "external" or name.startswith("constant:"):
            fill = max(base.values(), default=Fraction(0)) + offset
        else:  # a price rule is flat-invariant on the adequate set when fill tops the base
            fill = max(base.values(), default=Fraction(0)) + abs(offset)
        if name == "external":
            members = build_adequate_set(base, fill, NEG2, i1, i2).members
            rule = register_external("flat", {m: constant for m in members})
        else:
            rule = get_rule(name)
        forced = forced_payment(base, fill, rule, i1, i2)
        system = build_balance_system(build_adequate_set(base, fill, rule, i1, i2).members, rule)
        target = system.variables.index(bag(*base.values(), fill))
        for value, verdict in ((forced, Feasible), (forced + 1, Infeasible)):
            pinned = LinearSystem(
                system.variables,
                system.rows + [LinearRow.of(coeffs={target: Fraction(1)}, rhs=value, origin=vec({}))],
            )
            result = solve_or_refute(pinned)
            assert isinstance(result, verdict)
            if verdict is Feasible:
                assert verify_assignment(pinned, result.assignment)
            else:
                assert verify_certificate(pinned, result.certificate)

    @settings(max_examples=40)
    @given(
        st.dictionaries(st.integers(3, 9), rationals, max_size=4),
        st.fractions(min_value=0, max_value=10, max_denominator=8),
        st.fractions(min_value=1, max_value=20, max_denominator=8).filter(lambda c: c > 0),
    )
    def test_scale_covariance(self, mapping, slack, scale):
        base = vec(mapping)
        fill = max(base.values(), default=Fraction(0)) + slack
        one = forced_payment(base, fill, NEG2, 1, 2)
        scaled_base = vec({i: scale * v for i, v in base.items()})
        assert forced_payment(scaled_base, scale * fill, NEG2, 1, 2) == scale * one


class TestBuildPaymentTable:
    def test_flat_start(self):
        steps = build_payment_table(3, 4, [], NEG2)
        assert steps == ((bag(4, 4), Fraction(1, 3)),)
        # the payment that step pins: its coefficient times the flat value
        assert steps[0][1] * NEG2(flat(range(1, 4), 4)) == Fraction(-4, 3)

    def test_one_extra(self):
        steps = build_payment_table(3, 4, [1], NEG2)
        assert steps == ((bag(4, 4), Fraction(1, 3)), (bag(1, 4), Fraction(1, 3)))
        pinned = steps[1][1] * NEG2(flat(range(1, 4), 4))
        assert pinned == forced_payment(vec({9: 1}), 4, NEG2, 1, 2)

    def test_constant_zero_rule(self):
        steps = build_payment_table(4, 2, [1, 1], get_rule("constant:0"))
        assert steps == ((bag(2, 2, 2), Fraction(1, 4)), (bag(1, 2, 2), Fraction(1, 4)),
                         (bag(1, 1, 2), Fraction(1, 4)))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_payment_table(1, 4, [], NEG2)
        with pytest.raises(ValueError, match="too many extras"):
            build_payment_table(3, 4, [1, 2], NEG2)

    def test_flat_invariance_failure_names_step(self):
        with pytest.raises(AdequacyError, match="flat-invariance fails at iteration step"):
            build_payment_table(4, 4, [9, 9], NEG2)

    @pytest.mark.parametrize(
        "rule",
        [
            register_external("t", {flat(range(1, 4), 5): -5}),
            register_external("t", {vec({1: 1, 2: 5, 3: 5}): -5}),
            PriceRule("wide", 4, lambda b: Fraction(0)),
        ],
        ids=["undefined-on-visited-vector", "undefined-on-flat-vector", "undefined-on-arity"],
    )
    def test_undefined_rule_is_an_adequacy_failure(self, rule):
        # as in forced_payment, a rule undefined where the hypotheses are
        # checked fails them instead of escaping as a rule error
        with pytest.raises(AdequacyError, match="rule undefined"):
            build_payment_table(3, 5, [1], rule)
        with pytest.raises(AdequacyError, match="rule undefined"):
            forced_payment(vec({3: 1}), 5, rule, 1, 2)

    def test_all_coefficients_equal_reciprocal_bidders(self):
        rng = random.Random(7)
        for n_bidders in range(2, 7):
            fill = random_rational(rng, lo=0, hi=20)
            extras = [fill - abs(random_rational(rng, lo=0, hi=10)) for _ in range(n_bidders - 2)]
            steps = build_payment_table(n_bidders, fill, extras, NEG2)
            assert [k for _, k in steps] == [Fraction(1, n_bidders)] * (len(extras) + 1)
            assert [shape for shape, _ in steps] == [
                BidMultiset.of(extras[:j] + [fill] * (n_bidders - 1 - j))
                for j in range(len(extras) + 1)
            ]


class TestIterativeMatchesClosedForm:
    def test_agreement_across_sizes(self):
        rng = random.Random(20240811)
        for n_bidders in range(2, 7):
            for _ in range(5):
                fill = random_rational(rng, lo=-10, hi=20)
                extras = [
                    fill - abs(random_rational(rng, lo=0, hi=15))
                    for _ in range(rng.randint(0, n_bidders - 2))
                ]
                table, _ = reference_build_payment_table(n_bidders, fill, extras, NEG2)
                for shape, value in table.items():
                    base_values = list(shape.values)
                    base_values.remove(fill)
                    base = vec({3 + k: v for k, v in enumerate(sorted(base_values))})
                    assert forced_payment(base, fill, NEG2, 1, 2) == value


class TestForcedPaymentSum:
    def test_stock_low_vector(self):
        total, eta = forced_payment_sum(vec({1: 1, 2: 2, 3: 4}), NEG2, {1: 3, 2: 3, 3: 2})
        assert total == Fraction(-10, 3)
        assert eta == {1: -4, 2: -4, 3: -2}

    def test_stock_high_vector(self):
        total, eta = forced_payment_sum(vec({1: 1, 2: 3, 3: 4}), NEG2, {1: 3, 2: 3, 3: 2})
        assert total == Fraction(-11, 3)
        assert eta == {1: -4, 2: -4, 3: -3}

    def test_constant_zero(self):
        total, eta = forced_payment_sum(vec({1: 1, 2: 2, 3: 4}), get_rule("constant:0"), {1: 3, 2: 3, 3: 2})
        assert total == 0
        assert set(eta.values()) == {0}

    def test_sum_times_size_equals_eta_total(self):
        b = vec({1: 1, 2: 2, 3: 3, 4: 5})
        total, eta = forced_payment_sum(b, NEG2, {1: 4, 2: 4, 3: 4, 4: 3})
        assert total * len(b) == sum(eta.values())

    def test_empty_vector_is_an_error(self):
        with pytest.raises(ValueError, match="^bid vector must be nonempty$"):
            forced_payment_sum(vec({}), NEG2, {})

    def test_invalid_selector_identifies_bidder(self):
        with pytest.raises(ValueError, match="bidder 2"):
            forced_payment_sum(vec({1: 1, 2: 2, 3: 4}), NEG2, {1: 3, 2: 2, 3: 2})

    def test_adequacy_failure_identifies_bidder(self):
        # pairing the top bidder with the lowest one leaves two higher bids
        # in the base, so flat-invariance fails for that bidder
        b = vec({1: 1, 2: 3, 3: 4, 4: 5})
        with pytest.raises(AdequacyError, match="bidder 4"):
            forced_payment_sum(b, NEG2, {1: 4, 2: 4, 3: 4, 4: 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("rule,g", [("neg-second-price", None), ("second-price", "first-price")])
def test_forced_payment_sum_matches_verify_imbalance(n, rule, g):
    # the theorem route's eta maps and residuals are what
    # forced_payment_sum gives on each stock vector
    rule = get_rule(rule)
    triple, selector_low, selector_high = vickrey_instance(n, g and get_rule(g))
    report = verify_imbalance(rule, triple, selector_low, selector_high)
    assert report.hypotheses_met
    for vector, selector, eta, residual in (
        (triple.b_low, selector_low, report.eta_low, report.lhs),
        (triple.b_high, selector_high, report.eta_high, report.rhs),
    ):
        total, got = forced_payment_sum(vector, rule, selector)
        assert got == eta
        assert total == rule(vector) - residual


class TestForcedPaymentAgainstFlatInvariance:
    @settings(max_examples=30)
    @given(
        st.dictionaries(st.integers(3, 9), rationals, max_size=4),
        st.fractions(min_value=0, max_value=10, max_denominator=8),
    )
    def test_forced_payment_formula(self, mapping, slack):
        base = vec(mapping)
        fill = max(base.values(), default=Fraction(0)) + slack
        aset = build_adequate_set(base, fill, NEG2, 1, 2)
        assert check_flat_invariance(NEG2, aset.members, base.dom | {1, 2}, fill)
        assert forced_payment(base, fill, NEG2, 1, 2) == -fill / (2 + len(base))
