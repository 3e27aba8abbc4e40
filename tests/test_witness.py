import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import bag_rule, tag_residual
from imbalance import (
    BidMultiset,
    BidVector,
    CounterexampleTriple,
    Feasible,
    RULE_F,
    RULE_G,
    PriceRule,
    RuleArityError,
    RuleUndefinedError,
    bid_vector_from_json,
    check_flat_invariance,
    build_balance_system,
    default_selector,
    flat,
    full_family,
    get_rule,
    is_counterexample,
    remove,
    solve_or_refute,
    verify_imbalance,
    vickrey_instance,
    vickrey_vectors,
    vickrey_witness_set,
)
from imbalance.witness import witness_set_text

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
        g = bag_rule("moving", {triple.b_low.values(): 0, triple.b_high.values(): 5})
        moved = CounterexampleTriple(triple.b_low, triple.b_high, triple.h, g)
        assert not is_counterexample(moved, NEG2)

    def test_tag_map_must_use_both_rules(self):
        triple, _, _ = stock_triple()
        all_g = CounterexampleTriple(
            triple.b_low, triple.b_high, {i: RULE_G for i in triple.b_low.dom}, triple.g
        )
        assert not is_counterexample(all_g, NEG2)

    def test_rule_undefined_on_a_vector_fails(self):
        # a table rule without b_low's bag has no difference to compare
        triple, _, _ = stock_triple()
        high_only = bag_rule("high-only", {triple.b_high.values(): -3})
        assert not is_counterexample(triple, high_only)

    def test_domains_must_match(self):
        triple, _, _ = stock_triple()
        shifted = CounterexampleTriple(
            triple.b_low, vec({1: 1, 2: 3, 4: 4}), triple.h, triple.g
        )
        assert not is_counterexample(shifted, NEG2)


class TestResidualCheck:
    def test_stock_values(self):
        triple, j_low, j_high = stock_triple()
        assert triple.h == {1: RULE_G, 2: RULE_G, 3: RULE_F}
        report = verify_imbalance(NEG2, triple, j_low, j_high)
        assert (report.lhs, report.rhs, report.holds) == (Fraction(4, 3), Fraction(2, 3), True)

    def test_scaled_instance(self):
        triple, _, _ = stock_triple()
        low = vec({i: 2 * v for i, v in triple.b_low.items()})
        high = vec({i: 2 * v for i, v in triple.b_high.items()})
        doubled = CounterexampleTriple(low, high, triple.h, triple.g)
        report = verify_imbalance(NEG2, doubled, default_selector(low), default_selector(high))
        assert report.hypotheses_met
        assert (report.lhs, report.rhs, report.holds) == (Fraction(8, 3), Fraction(4, 3), True)


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


def reference_witness_set(n):
    """The previous ``vickrey_witness_set``: the union as the criterion
    states it, one full family per stock vector and bidder, filled at the
    bid of the partner ``default_selector`` names, plus the two vectors."""
    low, high = vickrey_vectors(n)
    out = {low, high}
    for vector in (low, high):
        for i, partner in default_selector(vector).items():
            fill = vector[partner]
            holders = BidVector(tuple((b, fill if b == i else v) for b, v in vector.entries))
            out |= full_family(holders, fill)
    return frozenset(out)


class TestVickreyWitnessSet:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_per_bidder_union(self, n):
        assert vickrey_witness_set(n) == reference_witness_set(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_text_equals_the_per_bidder_unions(self, n):
        got, want = witness_set_text(vickrey_witness_set(n)), witness_set_text(reference_witness_set(n))
        assert got == want, f"witness text differs at n = {n}"  # no diff of two long texts

    @pytest.mark.parametrize("n", range(1, 9))
    def test_four_families_of_six_times_2_to_the_n_members(self, n, monkeypatch):
        from imbalance import witness

        sizes = []

        def counting(vector, fill):
            family = full_family(vector, fill)
            sizes.append(len(family))
            return family

        monkeypatch.setattr(witness, "full_family", counting)
        got = vickrey_witness_set(n)
        assert sizes == [2 ** (n + 1), 2 ** n] * 2
        assert sum(sizes) <= 6 * 2 ** n
        assert len(got) == 5 * 2 ** n

    def test_n1_members(self):
        got = vickrey_witness_set(1)
        assert len(got) <= 12  # at most 2x(4 + 2) before merging
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
        # the text parses back to the vectors in entries order; n = 8 has bidder 10
        for n in (1, 8):
            vectors = vickrey_witness_set(n)
            parsed = [bid_vector_from_json(o) for o in json.loads(witness_set_text(vectors))]
            want = sorted(vectors, key=lambda b: b.entries)
            assert [v.entries for v in parsed] == [v.entries for v in want]

    def test_json_of_a_one_shot_iterable_loses_nothing(self):
        vectors = vickrey_witness_set(1)
        want = witness_set_text(vectors)
        assert len(want) == 763
        assert witness_set_text(iter(vectors)) == want
        assert witness_set_text(v for v in vectors) == want


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
        lhs, rhs = (tag_residual(NEG2, triple, b) for b in (triple.b_low, triple.b_high))
        assert (report.lhs, report.rhs, report.holds) == (lhs, rhs, lhs != rhs)

    @staticmethod
    def check_against_linear_solver(f, g, n):
        # independent route: solve the balance equations over the adequate
        # sets alone (base vectors excluded), read off the forced payments,
        # and recompute both residuals from the solution
        triple, j_low, j_high = vickrey_instance(n, g=g)
        report = verify_imbalance(f, triple, j_low, j_high)
        assert report.hypotheses_met
        members = report.witness_set - {triple.b_low, triple.b_high}
        system = build_balance_system(members, f)
        result = solve_or_refute(system)
        assert isinstance(result, Feasible)
        values = dict(zip(system.variables, result.assignment))
        for vector, want in ((triple.b_low, report.lhs), (triple.b_high, report.rhs)):
            paid = sum(values[BidMultiset.of(remove(vector, {i}).values())] for i in vector.dom)
            assert f(vector) - paid == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_residuals_against_linear_solver_oracle(self, n):
        self.check_against_linear_solver(NEG2, NEG1, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_second_price_residuals_against_linear_solver_oracle(self, n):
        # the other rule pair the stock instance holds for
        self.check_against_linear_solver(get_rule("second-price"), get_rule("first-price"), n)

    def test_witness_set_matches_canonical_construction(self):
        for n in (1, 2, 3, 4, 5, 6):
            triple, j_low, j_high = vickrey_instance(n)
            report = verify_imbalance(NEG2, triple, j_low, j_high)
            assert report.witness_set == vickrey_witness_set(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_pass_builds_each_set_once(self, n, monkeypatch):
        from imbalance import payments

        decided = []
        original = payments.AdequateSets.decide

        def counting(table, bidder):
            # the set's own vector: the table's vector with the bidder's bid set to the fill
            fill = table.family.fill
            holders = BidVector(tuple((b, fill if b == bidder else v)
                                      for b, v in table.vector.entries))
            decided.append((holders, bidder))
            return original(table, bidder)

        def forbidden(*args, **kwargs):
            raise AssertionError("a set built here needs no structure re-check")

        monkeypatch.setattr(payments.AdequateSets, "decide", counting)
        monkeypatch.setattr(payments, "is_adequate", forbidden)
        triple, j_low, j_high = vickrey_instance(n)
        assert verify_imbalance(NEG2, triple, j_low, j_high).holds
        # bidder n + 1 has the same base, fill and ids on both stock vectors
        assert len(decided) == 2 * (n + 2) - 1
        assert len(set(decided)) == len(decided)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_member_is_built_twice_per_call(self, n, monkeypatch):
        from imbalance import bids

        families, builds, inside = [], Counter(), []
        original_init, original_masks = bids.CompletionFamilies.__init__, bids.CompletionFamilies.masks
        original_build = BidVector.__init__

        def recording_init(family, vector, fill):
            families.append(((vector, fill), family))
            original_init(family, vector, fill)

        def recording_masks(family, filled=None):
            inside.append(family)
            try:
                return original_masks(family, filled)
            finally:
                inside.pop()

        def counting_build(vector, *args, **kwargs):
            if inside:  # flat vectors are built outside any family
                builds[id(inside[-1])] += 1
            original_build(vector, *args, **kwargs)

        monkeypatch.setattr(bids.CompletionFamilies, "__init__", recording_init)
        monkeypatch.setattr(bids.CompletionFamilies, "masks", recording_masks)
        monkeypatch.setattr(BidVector, "__init__", counting_build)
        triple, j_low, j_high = vickrey_instance(n)
        assert verify_imbalance(NEG2, triple, j_low, j_high).holds
        # one table per (vector, fill), and each of its masks built once
        assert len({key for key, _ in families}) == len(families) == 4
        for _, family in families:
            assert builds[id(family)] == len(family.members)

    def test_each_member_object_is_evaluated_once(self, monkeypatch):
        from imbalance import payments

        tables, seen = [], []
        original_init = payments.AdequateSets.__init__

        def recording_init(table, *args):
            tables.append(table)
            original_init(table, *args)

        def counting(vector):
            seen.append(vector)  # kept alive, so no id is reused
            return NEG2.fn(vector)

        monkeypatch.setattr(payments.AdequateSets, "__init__", recording_init)
        rule = PriceRule(NEG2.name, NEG2.min_arity, counting, NEG2.bag)
        for n in (1, 2, 3, 4):
            tables.clear()
            seen.clear()
            triple, j_low, j_high = vickrey_instance(n)
            report = verify_imbalance(rule, triple, j_low, j_high)
            assert report.holds
            evaluated = Counter(map(id, seen))
            members = [m for table in tables for m in table.family.members.values()]
            assert {evaluated[id(m)] for m in members} == {1}
            # the rest are the stock vectors and the tables' flat vectors
            others = [triple.b_low, triple.b_high, *(table.flat for table in tables)]
            assert set(evaluated) == {id(v) for v in members + others}
            assert set(seen) == report.witness_set

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

    def test_self_partner_has_no_valid_partner(self):
        triple, j_low, j_high = vickrey_instance(1)
        report = verify_imbalance(NEG2, triple, {**j_low, 1: 1}, j_high)
        failed = {c.name: c.detail for c in report.hypotheses if not c.passed}
        assert failed == {"adequate[low,1]": "invalid partner 1",
                          "eta[low,1]": "no valid partner"}

    def test_the_ladder_hashes_no_member_and_builds_one_flat_vector_per_table(
            self, monkeypatch):
        from imbalance import payments

        counts, inside, hashed_inside = Counter(), [], []
        original_hash, original_of = BidVector.__hash__, BidVector.of
        original_init, original_decide = payments.AdequateSets.__init__, payments.AdequateSets.decide

        def counting_hash(vector):
            if inside:
                hashed_inside.append(vector)
            return original_hash(vector)

        def counting_of(entries):
            counts["of"] += 1
            return original_of(entries)

        def counting_init(table, *args):
            counts["tables"] += 1
            original_init(table, *args)

        def marking_decide(table, bidder):
            inside.append(table)
            try:
                return original_decide(table, bidder)
            finally:
                inside.pop()

        def counting(vector):
            counts["evaluations"] += 1
            return NEG2.fn(vector)

        instances = [vickrey_instance(n) for n in range(1, 9)]
        rule = PriceRule(NEG2.name, NEG2.min_arity, counting, NEG2.bag)
        monkeypatch.setattr(BidVector, "__hash__", counting_hash)
        monkeypatch.setattr(BidVector, "of", staticmethod(counting_of))
        monkeypatch.setattr(payments.AdequateSets, "__init__", counting_init)
        monkeypatch.setattr(payments.AdequateSets, "decide", marking_decide)
        for triple, j_low, j_high in instances:
            assert verify_imbalance(rule, triple, j_low, j_high).holds
        assert hashed_inside == []
        # 3,036 members, each once, and the stock and flat vectors at each check
        # that reads them; the low and high fill-(n + 3) tables hold equal members
        assert counts == {"tables": 32, "of": 32, "evaluations": 3284}

    def test_the_callers_rule_and_the_tables_flat_vector_reach_the_check(self, monkeypatch):
        from imbalance import payments

        rule = PriceRule(NEG2.name, NEG2.min_arity, NEG2.fn, NEG2.bag)
        tables, seen = [], []
        original_init = payments.AdequateSets.__init__

        def recording_init(table, *args):
            tables.append(table)
            original_init(table, *args)

        def capturing(rule, vectors, flat_vector):
            seen.append((rule, flat_vector))
            return check_flat_invariance(rule, vectors, flat_vector)

        monkeypatch.setattr(payments.AdequateSets, "__init__", recording_init)
        monkeypatch.setattr(payments, "check_flat_invariance", capturing)
        triple, j_low, j_high = vickrey_instance(2)
        assert verify_imbalance(rule, triple, j_low, j_high).holds
        assert seen and all(used is rule for used, _ in seen)
        assert {id(flat_vector) for _, flat_vector in seen} == {id(t.flat) for t in tables}
        assert [t.flat for t in tables] == [flat(t.vector.dom, t.family.fill) for t in tables]

    def test_rule_errors_are_not_cached(self):
        triple, j_low, j_high = vickrey_instance(2)
        top_flat = flat(triple.b_low.dom, triple.b_low[4])
        table = {b.values(): NEG2(b) for b in vickrey_witness_set(2) if b != top_flat}
        asked = Counter()
        lookup = bag_rule("gap", table)

        def counting(vector):
            asked[vector] += 1
            return lookup.fn(vector)

        rule = PriceRule(lookup.name, lookup.min_arity, counting, lookup.bag)
        reports = [verify_imbalance(rule, triple, j_low, j_high)]
        once = dict(asked)
        reports += [verify_imbalance(rule, triple, j_low, j_high) for _ in range(2)]
        assert reports[0].hypotheses == reports[1].hypotheses == reports[2].hypotheses
        failed = {c.name: c.detail for c in reports[0].hypotheses if not c.passed}
        assert "rule undefined on this bag" in failed["eta[low,1]"]
        # the missing vector, the flat vector at 5 of both stock vectors, fails
        # in each of the 5 sets decided there and each of the 6 eta checks, and
        # no call keeps anything for the next
        assert once[top_flat] == 11
        assert asked == {b: 3 * count for b, count in once.items()}

    @pytest.mark.parametrize(
        "error", [RuleUndefinedError, RuleArityError, ValueError]
    )
    def test_rule_undefined_on_a_base_vector(self, error):
        # all-G tags: the counterexample check fails before it evaluates the
        # rule, and the eta checks read g on the base vectors, so the
        # residual is the first evaluation of the rule on b_low
        triple, j_low, j_high = vickrey_instance(1)
        untagged = CounterexampleTriple(
            triple.b_low, triple.b_high, dict.fromkeys(triple.h, RULE_G), triple.g
        )

        def partial(vector):
            if vector == triple.b_low:
                raise error("no value on the low vector")
            return NEG2.fn(vector)

        rule = PriceRule("partial", 2, partial, NEG2.bag)
        if error is ValueError:  # not a rule-undefined error: it propagates
            with pytest.raises(ValueError, match="no value on the low vector"):
                verify_imbalance(rule, untagged, j_low, j_high)
            return
        report = verify_imbalance(rule, untagged, j_low, j_high)
        assert report.lhs is None and report.eta_low
        assert report.rhs == verify_imbalance(NEG2, untagged, j_low, j_high).rhs
        assert report.holds is None

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
