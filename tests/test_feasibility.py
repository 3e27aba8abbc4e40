import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import rational_row
from imbalance import (
    BidMultiset,
    BidVector,
    Certificate,
    Feasible,
    Infeasible,
    LinearRow,
    LinearSystem,
    build_balance_system,
    certificate_from_json,
    flat,
    get_rule,
    remove,
    solve_or_refute,
    system_from_json,
    system_to_json,
    verify_assignment,
    verify_certificate,
    vickrey_vectors,
    vickrey_witness_set,
)
from imbalance.feasibility import answer_text, result_text

NEG2 = get_rule("neg-second-price")


def vec(mapping):
    return BidVector.of(mapping)


def bag(*values):
    return BidMultiset.of(values)


def assert_solution_satisfies(system, assignment):
    assert len(assignment) == len(system.variables)
    for row in system.rows:
        coeffs, rhs = rational_row(row)
        total = sum(coeff * assignment[col] for col, coeff in coeffs.items())
        assert total == rhs, row.origin


class TestBuildBalanceSystem:
    def test_flat_vector_collapses_to_one_variable(self):
        system = build_balance_system([flat({1, 2, 3}, 4)], NEG2)
        assert system.variables == (bag(4, 4),)
        assert len(system.rows) == 1
        assert system.rows[0].coeffs == {0: 3}
        assert system.rows[0].rhs == -4

    def test_three_distinct_deletions(self):
        low, _ = vickrey_vectors(1)
        system = build_balance_system([low], NEG2)
        assert set(system.variables) == {bag(2, 4), bag(1, 4), bag(1, 2)}
        row = system.rows[0]
        assert all(c == 1 for c in row.coeffs.values())
        assert len(row.coeffs) == 3
        assert row.rhs == -2

    def test_empty_set(self):
        system = build_balance_system([], NEG2)
        assert system.variables == () and system.rows == []

    def test_undefined_rule_is_an_error(self):
        with pytest.raises(ValueError, match="undefined"):
            build_balance_system([vec({1: 1})], NEG2)

    def test_duplicate_vectors_merge(self):
        b = flat({1, 2}, 3)
        system = build_balance_system([b, vec({1: 3, 2: 3})], NEG2)
        assert len(system.rows) == 1


class _IndicesOnly(dict):
    """Coefficients whose column indices can be counted but whose values fail the test."""

    def _fail(self, *args):
        raise AssertionError("a value of a row after the first contradiction was read")

    __getitem__ = get = items = values = _fail


class _UnreducibleRow:
    """A row whose coefficient values and right-hand side fail the test when read."""

    origin = BidVector.of({})

    def __init__(self, row):
        self.coeffs = _IndicesOnly(dict.fromkeys(row.coeffs))

    @property
    def rhs(self):
        self.coeffs._fail()


class TestSolveOrRefute:
    def test_witness_system_is_infeasible_with_verified_certificate(self):
        system = build_balance_system(vickrey_witness_set(1), NEG2)
        result = solve_or_refute(system)
        assert isinstance(result, Infeasible)
        assert verify_certificate(system, result.certificate)

    def test_constant_zero_is_feasible_all_zero(self):
        system = build_balance_system(vickrey_witness_set(1), get_rule("constant:0"))
        result = solve_or_refute(system)
        assert isinstance(result, Feasible)
        assert all(v == 0 for v in result.assignment)

    def test_single_row_forced_value(self):
        system = build_balance_system([flat({1, 2, 3}, 4)], NEG2)
        result = solve_or_refute(system)
        assert isinstance(result, Feasible)
        assert dict(zip(system.variables, result.assignment))[bag(4, 4)] == Fraction(-4, 3)

    def test_feasible_solutions_satisfy_every_row(self):
        system = build_balance_system(vickrey_witness_set(2), get_rule("constant:5/2"))
        result = solve_or_refute(system)
        assert isinstance(result, Feasible)
        assert_solution_satisfies(system, result.assignment)

    def test_certificate_combines_to_unit_contradiction(self):
        system = build_balance_system(vickrey_witness_set(1), NEG2)
        result = solve_or_refute(system)
        total = sum(
            m * rational_row(row)[1] for m, row in zip(result.certificate.multipliers, system.rows)
        )
        assert total == 1

    def test_rows_after_the_first_contradiction_are_never_reduced(self):
        grid = [vec({1: a, 2: b, 3: c}) for a, b, c in itertools.product([1, 2, 3, 4], repeat=3)]
        system = build_balance_system(grid, NEG2)
        certificate = solve_or_refute(system).certificate
        # the first inconsistent row carries the highest-index nonzero multiplier
        last = max(r for r, m in enumerate(certificate.multipliers) if m)
        assert last < len(system.rows) - 1
        cut = LinearSystem(
            system.variables,
            system.rows[:last + 1] + [_UnreducibleRow(row) for row in system.rows[last + 1:]],
        )
        result = solve_or_refute(cut)
        assert result.certificate == certificate
        assert verify_certificate(cut, result.certificate)


class TestSystemUnchanged:
    """The solver reduces copies of the rows, and neither re-check writes to one."""

    @pytest.mark.parametrize("rule,verdict", [("neg-second-price", Infeasible), ("constant:7/3", Feasible)])
    def test_solve_and_both_checks_leave_the_system_unchanged(self, rule, verdict):
        system = build_balance_system(vickrey_witness_set(3), get_rule(rule))

        def snapshot():
            rows = [(list(row.coeffs.items()), row.rhs, row.scale) for row in system.rows]
            return rows, json.dumps(system_to_json(system))

        before = snapshot()
        result = solve_or_refute(system)
        assert isinstance(result, verdict)
        assert snapshot() == before
        zero = Fraction(0)
        certificate = result.certificate if verdict is Infeasible else Certificate((zero,) * len(system.rows))
        assignment = result.assignment if verdict is Feasible else (zero,) * len(system.variables)
        assert verify_certificate(system, certificate) == (verdict is Infeasible)
        assert snapshot() == before
        assert verify_assignment(system, assignment) == (verdict is Feasible)
        assert snapshot() == before


class TestVerifyCertificate:
    def test_all_zero_multipliers_rejected(self):
        system = build_balance_system(vickrey_witness_set(1), NEG2)
        zero = Certificate((Fraction(0),) * len(system.rows))
        assert not verify_certificate(system, zero)

    def test_wrong_system_rejected(self):
        infeasible = build_balance_system(vickrey_witness_set(1), NEG2)
        cert = solve_or_refute(infeasible).certificate
        other = build_balance_system(vickrey_witness_set(1), get_rule("constant:0"))
        # same shape, all right-hand sides zero: the combination is 0 = 0
        assert not verify_certificate(other, cert)

    def test_length_mismatch_is_an_error(self):
        system = build_balance_system(vickrey_witness_set(1), NEG2)
        with pytest.raises(ValueError, match="mismatch"):
            verify_certificate(system, Certificate((Fraction(1),)))


class TestVerifyAssignment:
    def setup_method(self):
        self.system = build_balance_system(vickrey_witness_set(2), get_rule("constant:5/2"))
        self.values = solve_or_refute(self.system).assignment

    def test_solver_assignment_accepted(self):
        assert verify_assignment(self.system, self.values)

    def test_perturbed_value_rejected(self):
        perturbed = (self.values[0] + Fraction(1, 7),) + self.values[1:]
        assert not verify_assignment(self.system, perturbed)

    @pytest.mark.parametrize("resize", [lambda v: v[:-1], lambda v: v + (Fraction(0),)],
                             ids=["one-short", "one-long"])
    def test_wrong_length_rejected(self, resize):
        # one value per variable: neither a missing value nor a spare one reads as zero
        assert not verify_assignment(self.system, resize(self.values))

    def test_float_value_is_a_type_error(self):
        with pytest.raises(TypeError, match="exact rational expected"):
            verify_assignment(self.system, (0.5,) + self.values[1:])


class TestSoundness:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.dictionaries(st.integers(1, 4), st.integers(0, 5), min_size=2, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    def test_solver_verdicts_check_out(self, raw_vectors):
        vectors = [vec(m) for m in raw_vectors]
        system = build_balance_system(vectors, NEG2)
        result = solve_or_refute(system)
        if isinstance(result, Feasible):
            assert_solution_satisfies(system, result.assignment)
        else:
            assert verify_certificate(system, result.certificate)

    def test_engineered_contradiction(self):
        variables = (bag(1), bag(2))
        rows = [
            LinearRow.of({0: Fraction(1), 1: Fraction(1)}, Fraction(3), vec({})),
            LinearRow.of({0: Fraction(2), 1: Fraction(2)}, Fraction(5), vec({})),
        ]
        system = LinearSystem(variables, rows)
        result = solve_or_refute(system)
        assert isinstance(result, Infeasible)
        assert verify_certificate(system, result.certificate)


class TestPermutationInvariance:
    def test_relabeled_witness_has_same_status(self):
        rng = random.Random(11)
        base = vickrey_witness_set(2)
        ids = sorted(next(iter(base)).dom)
        image = ids[:]
        rng.shuffle(image)
        perm = dict(zip(ids, image))
        relabeled = {vec({perm[i]: v for i, v in b.items()}) for b in base}
        original = build_balance_system(base, NEG2)
        shuffled = build_balance_system(relabeled, NEG2)
        assert original.variables == shuffled.variables
        assert isinstance(solve_or_refute(original), Infeasible)
        assert isinstance(solve_or_refute(shuffled), Infeasible)

    def test_grid_system_rows_are_label_independent(self):
        grid = [vec({1: a, 2: b}) for a, b in itertools.product([1, 2], repeat=2)]
        relabeled = [vec({7: b[1], 9: b[2]}) for b in grid]
        a = build_balance_system(grid, NEG2)
        b = build_balance_system(relabeled, NEG2)
        assert a.variables == b.variables
        assert [(r.coeffs, r.rhs) for r in a.rows] == [(r.coeffs, r.rhs) for r in b.rows]


class TestExhaustiveSmallGrid:
    def test_three_bidders_four_bids(self):
        grid = [
            vec({1: a, 2: b, 3: c})
            for a, b, c in itertools.product([1, 2, 3, 4], repeat=3)
        ]
        system = build_balance_system(grid, NEG2)
        assert len(system.rows) == 64
        result = solve_or_refute(system)
        assert isinstance(result, Infeasible)
        assert verify_certificate(system, result.certificate)


class TestJson:
    def test_system_round_trip(self):
        system = build_balance_system(vickrey_witness_set(1), NEG2)
        clone = system_from_json(system_to_json(system))
        assert clone.variables == system.variables
        assert [(r.coeffs, r.rhs, r.scale, r.origin) for r in clone.rows] == [
            (r.coeffs, r.rhs, r.scale, r.origin) for r in system.rows
        ]

    def test_certificate_round_trip(self):
        cert = Certificate((Fraction(1, 3), Fraction(-2)))
        empty = LinearSystem((), [])
        assert certificate_from_json(json.loads(answer_text(empty, Infeasible(cert)))) == cert
        document = json.loads(result_text(empty, Infeasible(cert)))
        assert certificate_from_json(document["certificate"]) == cert

    def test_bad_coefficient_index(self):
        obj = {
            "variables": [["1"]],
            "rows": [{"coeffs": {"4": "1"}, "rhs": "0", "origin": {"bids": {}}}],
        }
        with pytest.raises(ValueError, match="out of range"):
            system_from_json(obj)


def test_cross_check_forced_deletion_payments():
    # every deletion multiset of the two stock vectors gets the same value
    # from the raw equations as the closed form predicts
    low, high = vickrey_vectors(2)
    system = build_balance_system(
        vickrey_witness_set(2) - {low, high}, NEG2
    )
    result = solve_or_refute(system)
    assert isinstance(result, Feasible)
    values = dict(zip(system.variables, result.assignment))
    for vector in (low, high):
        for i in vector.dom:
            m = BidMultiset.of(remove(vector, {i}).values())
            fill = max(m.values)
            expected = -fill / (2 + (len(vector) - 2))
            assert values[m] == expected
