import random
from fractions import Fraction

import pytest

from conftest import random_rational
from imbalance import (
    BidVector,
    CounterexampleTriple,
    Feasible,
    RULE_F,
    RULE_G,
    bag_of,
    build_balance_system,
    default_selector,
    get_rule,
    is_counterexample,
    register_external,
    remove,
    residual_check,
    solve_or_refute,
    verify_imbalance,
    vickrey_instance,
    vickrey_vectors,
    vickrey_witness_set,
    witness_set_to_json,
)

NEG2 = get_rule("neg-second-price")
NEG1 = get_rule("neg-first-price")


def vec(mapping):
    return BidVector.of(mapping)


def stock_triple(n=1):
    triple, j_low, j_high = vickrey_instance(n)
    return triple, j_low, j_high


class TestIsCounterexample:
    def test_stock_instance(self):
        triple, _, _ = stock_triple()
        assert triple.b_low == vec({1: 1, 2: 2, 3: 4})
        assert triple.b_high == vec({1: 1, 2: 3, 3: 4})
        assert is_counterexample(triple, NEG2)

    def test_equal_constant_rules_fail(self):
        zero = get_rule("constant:0")
        triple, _, _ = stock_triple()
        same = CounterexampleTriple(triple.b_low, triple.b_high, triple.h, zero)
        assert not is_counterexample(same, zero)

    def test_both_differences_nonzero_fail(self):
        triple, _, _ = stock_triple()
        # first price also changes between the two stock vectors... use a
        # helper g that moves along with f
        g = register_external("moving", {triple.b_low: 0, triple.b_high: 5})
        moved = CounterexampleTriple(triple.b_low, triple.b_high, triple.h, g)
        assert not is_counterexample(moved, NEG2)

    def test_tag_map_must_use_both_rules(self):
        triple, _, _ = stock_triple()
        all_g = CounterexampleTriple(
            triple.b_low, triple.b_high, {i: RULE_G for i in triple.b_low.dom}, triple.g
        )
        assert not is_counterexample(all_g, NEG2)

    def test_domains_must_match(self):
        triple, _, _ = stock_triple()
        shifted = CounterexampleTriple(
            triple.b_low, vec({1: 1, 2: 3, 4: 4}), triple.h, triple.g
        )
        assert not is_counterexample(shifted, NEG2)


class TestResidualCheck:
    def test_stock_values(self):
        triple, _, _ = stock_triple()
        assert triple.h == {1: RULE_G, 2: RULE_G, 3: RULE_F}
        assert residual_check(triple, NEG2) == (Fraction(4, 3), Fraction(2, 3), True)

    def test_scaled_instance(self):
        triple, _, _ = stock_triple()
        doubled = CounterexampleTriple(
            vec({i: 2 * v for i, v in triple.b_low.items()}),
            vec({i: 2 * v for i, v in triple.b_high.items()}),
            triple.h,
            triple.g,
        )
        assert residual_check(doubled, NEG2) == (Fraction(8, 3), Fraction(4, 3), True)

    def test_arity_precondition(self):
        g = register_external("tiny", {vec({1: 1}): 0, vec({1: 2}): 0})
        f = register_external("tinyf", {vec({1: 1}): 0, vec({1: 2}): 1})
        tiny = CounterexampleTriple(vec({1: 1}), vec({1: 2}), {1: RULE_G}, g)
        with pytest.raises(ValueError, match="at least 2"):
            residual_check(tiny, f)

    def test_rejects_invalid_triples(self):
        triple, _, _ = stock_triple()
        zero = get_rule("constant:0")
        bad = CounterexampleTriple(triple.b_low, triple.b_high, triple.h, zero)
        with pytest.raises(ValueError, match="not a counterexample"):
            residual_check(bad, zero)

    def test_always_true_on_generated_triples(self):
        rng = random.Random(99)
        for _ in range(120):
            lhs, rhs, distinct = residual_check(*_random_triple(rng))
            assert distinct and lhs != rhs


def _random_triple(rng):
    """Triple built from table-backed rules meeting the counterexample
    conditions: one of the two rules keeps its value, the other moves."""
    size = rng.randint(2, 6)
    ids = rng.sample(range(16), size)
    low = vec({i: random_rational(rng) for i in ids})
    high = vec({i: low[i] + (random_rational(rng) if rng.random() < 0.5 else 0) for i in ids})
    if low == high:
        bump = ids[0]
        high = vec({i: (low[i] + 1 if i == bump else high[i]) for i in ids})
    f_low, g_low = random_rational(rng), random_rational(rng)
    shift = random_rational(rng)
    while shift == 0:
        shift = random_rational(rng)
    if rng.random() < 0.5:
        f_high, g_high = f_low, g_low + shift  # f keeps its value
    else:
        f_high, g_high = f_low + shift, g_low  # g keeps its value
    f = register_external("f", {low: f_low, high: f_high})
    g = register_external("g", {low: g_low, high: g_high})
    tags = {i: (RULE_F if rng.random() < 0.5 else RULE_G) for i in ids}
    tags[ids[0]], tags[ids[1]] = RULE_F, RULE_G  # both rules must appear
    return CounterexampleTriple(low, high, tags, g), f


class TestVickreyVectors:
    def test_n1(self):
        low, high = vickrey_vectors(1)
        assert low == vec({1: 1, 2: 2, 3: 4})
        assert high == vec({1: 1, 2: 3, 3: 4})

    def test_n2(self):
        low, high = vickrey_vectors(2)
        assert low == vec({1: 1, 2: 2, 3: 3, 4: 5})
        assert high == vec({1: 1, 2: 2, 3: 4, 4: 5})

    def test_domains_equal(self):
        for n in range(1, 6):
            low, high = vickrey_vectors(n)
            assert low.dom == high.dom == frozenset(range(1, n + 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            vickrey_vectors(0)


class TestVickreyWitnessSet:
    def test_n1_members(self):
        got = vickrey_witness_set(1)
        assert len(got) <= 14  # at most 2x(2x2 + 2) + 2 before merging
        assert got == {
            vec({1: 4, 2: 4, 3: 4}),
            vec({1: 4, 2: 2, 3: 4}),
            vec({1: 1, 2: 4, 3: 4}),
            vec({1: 2, 2: 2, 3: 2}),
            vec({1: 1, 2: 2, 3: 2}),
            vec({1: 4, 2: 3, 3: 4}),
            vec({1: 3, 2: 3, 3: 3}),
            vec({1: 1, 2: 3, 3: 3}),
            vec({1: 1, 2: 2, 3: 4}),
            vec({1: 1, 2: 3, 3: 4}),
        }

    def test_uniform_domains_and_base_vectors_present(self):
        for n in range(1, 5):
            low, high = vickrey_vectors(n)
            got = vickrey_witness_set(n)
            assert low in got and high in got
            assert all(member.dom == low.dom for member in got)

    def test_json_is_canonical(self):
        objs = witness_set_to_json(vickrey_witness_set(1))
        assert objs == sorted(objs, key=lambda o: sorted(o["bids"].items()))


class TestVerifyImbalance:
    def test_stock_n1(self):
        triple, j_low, j_high = stock_triple()
        report = verify_imbalance(NEG2, triple, j_low, j_high)
        assert report.hypotheses_met
        assert (report.lhs, report.rhs, report.holds) == (Fraction(4, 3), Fraction(2, 3), True)
        assert report.eta_low == {1: -4, 2: -4, 3: -2}
        assert report.eta_high == {1: -4, 2: -4, 3: -3}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_difference_formula(self, n):
        triple, j_low, j_high = vickrey_instance(n)
        report = verify_imbalance(NEG2, triple, j_low, j_high)
        assert report.hypotheses_met and report.holds
        assert report.lhs - report.rhs == Fraction(n + 1, n + 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residuals_agree_with_direct_check(self, n):
        triple, j_low, j_high = vickrey_instance(n)
        report = verify_imbalance(NEG2, triple, j_low, j_high)
        lhs, rhs, distinct = residual_check(triple, NEG2)
        assert (report.lhs, report.rhs, report.holds) == (lhs, rhs, distinct)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residuals_against_linear_solver_oracle(self, n):
        # independent route: solve the balance equations over the adequate
        # sets alone (base vectors excluded), read off the forced payments,
        # and recompute both residuals from the solution
        triple, j_low, j_high = vickrey_instance(n)
        report = verify_imbalance(NEG2, triple, j_low, j_high)
        members = report.witness_set - {triple.b_low, triple.b_high}
        result = solve_or_refute(build_balance_system(members, NEG2))
        assert isinstance(result, Feasible)
        for vector, want in ((triple.b_low, report.lhs), (triple.b_high, report.rhs)):
            paid = sum(
                result.assignment.value(bag_of(remove(vector, {i}))) for i in vector.dom
            )
            assert NEG2(vector) - paid == want

    def test_witness_set_matches_canonical_construction(self):
        for n in (1, 2, 3, 4, 5, 6):
            triple, j_low, j_high = vickrey_instance(n)
            report = verify_imbalance(NEG2, triple, j_low, j_high)
            assert report.witness_set == vickrey_witness_set(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_pass_builds_each_set_once(self, n, monkeypatch):
        from imbalance import payments, witness

        calls = []
        original = payments.build_adequate_set

        def counting(*args):
            calls.append(args)
            return original(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("a set built here needs no structure re-check")

        monkeypatch.setattr(witness, "build_adequate_set", counting)
        monkeypatch.setattr(payments, "build_adequate_set", counting)
        monkeypatch.setattr(payments, "is_adequate", forbidden)
        monkeypatch.setattr(witness, "is_adequate", forbidden, raising=False)
        triple, j_low, j_high = vickrey_instance(n)
        assert verify_imbalance(NEG2, triple, j_low, j_high).holds
        assert len(calls) == 2 * (n + 2)

    def test_invalid_partner_fails_its_side_only(self):
        triple, j_low, j_high = stock_triple(2)
        report = verify_imbalance(NEG2, triple, {**j_low, 1: 1}, j_high)
        names = [c.name for c in report.hypotheses]
        assert names == ["counterexample"] + [
            f"{kind}[{side},{i}]"
            for kind in ("adequate", "eta")
            for side in ("low", "high")
            for i in range(1, 5)
        ]
        failed = {c.name: c.detail for c in report.hypotheses if not c.passed}
        assert failed == {"adequate[low,1]": "invalid partner 1", "eta[low,1]": failed["eta[low,1]"]}
        assert (report.lhs, report.eta_low, report.holds) == (None, {}, None)
        assert report.rhs == Fraction(3, 4)
        assert report.eta_high == {1: -5, 2: -5, 3: -5, 4: -4}

    def test_relabeling_invariance(self):
        rng = random.Random(4)
        triple, j_low, j_high = vickrey_instance(2)
        ids = sorted(triple.b_low.dom)
        image = ids[:]
        rng.shuffle(image)
        perm = dict(zip(ids, image))
        relabeled = CounterexampleTriple(
            vec({perm[i]: v for i, v in triple.b_low.items()}),
            vec({perm[i]: v for i, v in triple.b_high.items()}),
            {perm[i]: t for i, t in triple.h.items()},
            triple.g,
        )
        report = verify_imbalance(NEG2, triple, j_low, j_high)
        relabeled_report = verify_imbalance(
            NEG2,
            relabeled,
            {perm[i]: perm[j] for i, j in j_low.items()},
            {perm[i]: perm[j] for i, j in j_high.items()},
        )
        assert (report.lhs, report.rhs, report.holds) == (
            relabeled_report.lhs,
            relabeled_report.rhs,
            relabeled_report.holds,
        )
        assert relabeled_report.eta_low == {perm[i]: v for i, v in report.eta_low.items()}
        assert relabeled_report.eta_high == {perm[i]: v for i, v in report.eta_high.items()}

    def test_invalid_tag_is_named(self):
        triple, j_low, j_high = vickrey_instance(1, g=get_rule("constant:-4"))
        tagged = CounterexampleTriple(triple.b_low, triple.b_high, {**triple.h, 1: "X"}, triple.g)
        report = verify_imbalance(NEG2, tagged, j_low, j_high)
        failed = {c.name: c.detail for c in report.hypotheses if not c.passed}
        assert failed["eta[low,1]"] == "invalid tag 'X', expected 'F' or 'G'"
        assert failed["eta[high,1]"] == "invalid tag 'X', expected 'F' or 'G'"
        assert report.holds is None

    def test_constant_rules_fail_hypotheses(self):
        zero = get_rule("constant:0")
        triple, j_low, j_high = vickrey_instance(1, g=zero)
        report = verify_imbalance(zero, triple, j_low, j_high)
        assert not report.hypotheses_met
        assert report.holds is None
        failed = [c.name for c in report.hypotheses if not c.passed]
        assert "counterexample" in failed

    def test_report_json_shape(self):
        triple, j_low, j_high = stock_triple()
        obj = verify_imbalance(NEG2, triple, j_low, j_high).to_json()
        assert obj["lhs"] == "4/3" and obj["rhs"] == "2/3" and obj["holds"] is True
        assert obj["eta_low"] == {"1": "-4", "2": "-4", "3": "-2"}
        assert obj["witness_size"] == 10
        assert all(set(c) == {"name", "pass", "detail"} for c in obj["hypotheses"])


class TestDefaultSelector:
    def test_points_at_top_and_runner_up(self):
        low, _ = vickrey_vectors(1)
        assert default_selector(low) == {1: 3, 2: 3, 3: 2}

    @pytest.mark.parametrize("bids", [{1: 5}, {}])
    def test_fewer_than_two_bidders_rejected(self, bids):
        with pytest.raises(ValueError, match=f"at least 2 bidders.*got {len(bids)}"):
            default_selector(vec(bids))
