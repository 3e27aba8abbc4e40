"""Differential test: the integer solver against the Fraction elimination it replaced.

``reference_solve_or_refute`` is an earlier ``solve_or_refute``, kept
here unchanged as the reference.  It visits columns in variable order and
pivots on the lowest-index row with a nonzero reduced entry; the current
solver eliminates rows in index order and stops at the first
contradiction.  Both make the pivot rows the greedy row basis, which
fixes the certificate and the assignment whatever the pivot columns, so
every certificate and every assignment must be equal value for value, in
the same order.  The current solver also skips a row equal to one it has
already reduced, which the reference never does, so systems with copied
rows pin that skipping changes nothing.

The solver takes a working row's content only on a step that rescales
the whole row, and at the row's end when its last step did not.  Chain systems, in which one
late row absorbs every earlier pivot, drive both kinds of step on long
rows; replaying the recorded steps pins that every pivot row still ends
primitive, and a count of ``gcd`` arguments pins that the work stays
linear in the stored entries.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from heapq import heapify
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

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
    get_rule,
    solve_or_refute,
    system_to_json,
    vickrey_witness_set,
)
from imbalance import feasibility
from imbalance.cli import main
from imbalance.feasibility import answer_text
from test_build_reference import GRID_RULES, grid


def reference_solve_or_refute(system: LinearSystem) -> Feasible | Infeasible:
    """Dense-style Fraction Gauss elimination, pivoting on the first remaining row."""
    # (original index, sparse coeffs, rhs, multipliers over original rows)
    work = [
        (idx, *rational_row(row), {idx: Fraction(1)})
        for idx, row in enumerate(system.rows)
    ]
    pivots: list[tuple[int, dict[int, Fraction], Fraction]] = []
    for col in range(len(system.variables)):
        pivot_pos = next(
            (pos for pos, (_, coeffs, _, _) in enumerate(work) if coeffs.get(col)), None
        )
        if pivot_pos is None:
            continue
        _, p_coeffs, p_rhs, p_mults = work.pop(pivot_pos)
        scale = p_coeffs[col]
        p_coeffs = {c: v / scale for c, v in p_coeffs.items()}
        p_rhs = p_rhs / scale
        p_mults = {r: v / scale for r, v in p_mults.items()}
        for pos, (orig, coeffs, rhs, mults) in enumerate(work):
            factor = coeffs.get(col)
            if not factor:
                continue
            for c, v in p_coeffs.items():
                new = coeffs.get(c, Fraction(0)) - factor * v
                if new:
                    coeffs[c] = new
                else:
                    coeffs.pop(c, None)
            for r, v in p_mults.items():
                new = mults.get(r, Fraction(0)) - factor * v
                if new:
                    mults[r] = new
                else:
                    mults.pop(r, None)
            work[pos] = (orig, coeffs, rhs - factor * p_rhs, mults)
        pivots.append((col, p_coeffs, p_rhs))

    leftovers = sorted(work, key=lambda item: item[0])
    for _, coeffs, rhs, mults in leftovers:
        if coeffs:
            raise AssertionError("elimination left a nonempty row")
        if rhs != 0:
            multipliers = tuple(
                mults.get(r, Fraction(0)) / rhs for r in range(len(system.rows))
            )
            return Infeasible(Certificate(multipliers))

    solution = {col: Fraction(0) for col in range(len(system.variables))}
    for col, coeffs, rhs in reversed(pivots):
        value = rhs
        for c, v in coeffs.items():
            if c != col:
                value -= v * solution[c]
        solution[col] = value
    return Feasible(tuple(solution[col] for col in range(len(system.variables))))


# A wrong solver fails most drawn systems, and shrinking a failing system
# takes many times longer than finding it: the heaviest differential tests
# report their first failing example as drawn.
UNSHRUNK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


def assert_same_result(system):
    got, want = solve_or_refute(system), reference_solve_or_refute(system)
    assert type(got) is type(want)
    if isinstance(want, Infeasible):
        assert got.certificate.multipliers == want.certificate.multipliers
    else:
        assert got.assignment == want.assignment


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6))


def row_lists(n_vars):
    """Up to five rows over ``n_vars`` columns, as (coefficients, rhs) pairs."""
    columns = st.integers(0, n_vars - 1) if n_vars else st.nothing()
    entry = st.dictionaries(columns, nonzero, max_size=n_vars)
    rhs = st.one_of(st.just(Fraction(0)), rationals)
    return st.lists(st.tuples(entry, rhs), max_size=5)


def linear_rows(rows):
    return [LinearRow.of(dict(sorted(c.items())), v, BidVector.of({})) for c, v in rows]


@st.composite
def systems(draw):
    """Small systems with rational entries, zero rhs, empty, scaled, repeated and summed rows."""
    n_vars = draw(st.integers(0, 5))
    rows = draw(row_lists(n_vars))
    for _ in range(draw(st.integers(0, 6)) if rows else 0):
        kind = draw(st.sampled_from(["scale", "repeat", "sum"]))
        coeffs, value = rows[draw(st.integers(0, len(rows) - 1))]
        # a shifted right-hand side (one draw in three) makes a dependent row contradict
        shift = draw(st.sampled_from([0, 0, 1])) * draw(nonzero)
        if kind == "scale":
            factor = draw(nonzero)
            coeffs, value = {c: factor * v for c, v in coeffs.items()}, factor * value
        elif kind == "sum":
            other, other_value = rows[draw(st.integers(0, len(rows) - 1))]
            summed = {c: coeffs.get(c, 0) + other.get(c, 0) for c in coeffs.keys() | other.keys()}
            coeffs, value = {c: v for c, v in summed.items() if v}, value + other_value
        rows.append((coeffs, value + shift))
    rows = draw(st.permutations(rows))
    return LinearSystem(
        variables=tuple(BidMultiset.of([k]) for k in range(n_vars)),
        rows=linear_rows(rows),
    )


@settings(max_examples=120, deadline=None)
@given(systems())
def test_random_systems_match_reference(system):
    assert_same_result(system)


@settings(max_examples=120, deadline=None)
@given(systems(), st.data())
def test_appended_rows_only_pad_the_certificate(system, data):
    """Rows after the first inconsistent row r* leave the certificate alone:
    it is that of rows[:r*+1], padded with zeros."""
    if isinstance(reference_solve_or_refute(system), Feasible):
        # a copy of a row (or an empty row) with a shifted rhs contradicts a feasible system
        coeffs, value = data.draw(st.sampled_from([rational_row(row) for row in system.rows]
                                                  or [({}, Fraction(0))]))
        system.rows.append(linear_rows([(coeffs, value + data.draw(nonzero))])[0])
    want = reference_solve_or_refute(system).certificate.multipliers
    last = max(r for r, m in enumerate(want) if m)
    extra = linear_rows(data.draw(row_lists(len(system.variables))))
    padded = LinearSystem(system.variables, system.rows + extra)
    zeros = (Fraction(0),) * len(extra)
    assert reference_solve_or_refute(padded).certificate.multipliers == want + zeros
    assert solve_or_refute(padded).certificate.multipliers == want + zeros
    prefix = LinearSystem(system.variables, system.rows[:last + 1])
    assert solve_or_refute(prefix).certificate.multipliers == want[:last + 1]


@settings(max_examples=120, deadline=None, phases=UNSHRUNK)
@given(systems())
def test_rational_system_files_solve_like_reference(tmp_path_factory, system):
    """A drawn system written as a ``solve-system`` file: the file's rational
    texts become integer rows on the way in, and the command prints the
    reference solver's answer, formatted as the command formats it."""
    path = tmp_path_factory.getbasetemp() / "rational-system.json"
    path.write_text(json.dumps(system_to_json(system)), encoding="utf-8")
    want = reference_solve_or_refute(system)
    if isinstance(want, Feasible):
        code, verdict = 0, "FEASIBLE"
    else:
        code, verdict = 3, "INFEASIBLE certificate-verified=true"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve-system", "--system", str(path)]) == code
    assert out.getvalue() == f"{verdict}\n{answer_text(system, want)}"


@st.composite
def feasible_systems(draw):
    """A system with one solution x, and x: row i holds column i with a
    pivot entry of either sign and drawn entries on later columns, x holds
    values over several distinct denominators, and each rhs is its row
    at x.  Sums of two rows, also at x, are appended, and the rows are
    shuffled, so back-substitution meets negative pivot entries and mixes
    the denominators of the values it has already set."""
    n = draw(st.integers(1, 6))
    x = [Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3, 4, 5, 7, 9, 10])))
         for _ in range(n)]
    rows = []
    for i in range(n):
        coeffs = {i: draw(nonzero)}  # of either sign
        coeffs.update({c: draw(nonzero) for c in range(i + 1, n) if draw(st.booleans())})
        rows.append(coeffs)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        summed = {c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append({c: v for c, v in summed.items() if v})
    rows = draw(st.permutations(rows))
    pairs = [(coeffs, sum(v * x[c] for c, v in coeffs.items())) for coeffs in rows]
    return LinearSystem(tuple(BidMultiset.of([k]) for k in range(n)), linear_rows(pairs)), tuple(x)


@settings(max_examples=150, deadline=None)
@given(feasible_systems())
def test_feasible_systems_over_several_denominators_match_reference(drawn):
    """Back-substitution on integer (numerator, denominator) pairs gives
    the one solution, value for value, as the reference's ``Fraction``
    arithmetic does."""
    system, x = drawn
    assert solve_or_refute(system).assignment == x
    assert_same_result(system)


WITNESS_RULES = ["neg-second-price", "constant:7/3"]


@pytest.mark.parametrize("vectors,rule", [
    *(pytest.param(n, rule, id=f"{n}-{rule}") for n in range(1, 7) for rule in WITNESS_RULES),
    # one seeded 20-bit grid per bidder count, as in test_build_reference
    *(pytest.param((k, b), rule, id=f"grid{k}x{b}-{rule}")
      for k, b in [(3, 6), (4, 5)] for rule in GRID_RULES),
])
def test_witness_systems_match_reference(vectors, rule):
    vectors = vickrey_witness_set(vectors) if isinstance(vectors, int) else grid(*vectors, seed=0)
    assert_same_result(build_balance_system(vectors, get_rule(rule)))


def rank_deficient_system(n_vars, rows, rhs_values):
    return LinearSystem(
        variables=tuple(BidMultiset.of([k]) for k in range(n_vars)),
        rows=[LinearRow.of(coeffs, value, BidVector.of({})) for coeffs, value in zip(rows, rhs_values)],
    )


def test_count_order_leaves_another_column_unpivoted():
    """Columns 0 and 1 are equal and held by one row each; column 2 by both rows.

    Variable order pivots column 0 and leaves column 1 without a pivot;
    ascending row count with ties to the higher index pivots column 1 and
    leaves column 0.  Zero on column 1 is the canonical choice: x = (2, 0, 1).
    """
    system = rank_deficient_system(3, [{0: 1, 1: 1, 2: 1}, {2: 1}], [3, 1])
    result = solve_or_refute(system)
    assert result.assignment == (2, 0, 1)
    assert_same_result(system)


@pytest.mark.parametrize("system", [
    # variable order leaves columns 3 and 4 free, the count order 1 and 2,
    # so the lowest-column pass pivots on 0, 1 and 2 and leaves 3 and 4 at zero
    rank_deficient_system(5, [{0: 1, 1: 1, 3: "2/3"}, {1: 1, 2: 2, 4: 1}, {0: 1, 1: 1, 2: 1},
                              {2: -1, 3: "2/3"}],
                          ["1/3", 2, "-1/2", "5/6"]),
    # a repeated row, and column 1 half of column 0: the count order leaves column 0 free
    rank_deficient_system(4, [{0: 3, 1: "3/2", 3: 1}, {2: 1, 3: -1},
                              {0: 3, 1: "3/2", 3: 1}, {0: -2, 1: -1, 2: 5}],
                          [1, "7/5", 1, 0]),
], ids=["two-free", "repeated-row"])
def test_rank_deficient_feasible_systems_match_reference(system):
    assert isinstance(reference_solve_or_refute(system), Feasible)
    assert_same_result(system)


@pytest.mark.parametrize("rule", WITNESS_RULES)
@pytest.mark.parametrize("n", range(4, 7))
def test_witness_subsets_with_more_unknowns_than_rows_match_reference(n, rule):
    """Seeded subsets of the witness: wide systems, so columns are left without a pivot."""
    vectors = sorted(vickrey_witness_set(n), key=lambda v: v.entries)
    rng = random.Random(f"subset:{n}")
    for _ in range(3):
        system = build_balance_system(rng.sample(vectors, len(vectors) // 3), get_rule(rule))
        assert len(system.variables) > len(system.rows)
        assert_same_result(system)


def copied_row(row, kind, data):
    """A copy of ``row``: the same integers, the same coefficients with the
    rhs shifted, the entries in another insertion order, or the same
    rational row stored over a larger raw scale (other integers, so it is
    never skipped)."""
    if kind == "shifted":
        shift = data.draw(st.integers(1, 3))
        return LinearRow(dict(row.coeffs), row.rhs + shift, row.scale, row.origin)
    if kind == "reordered":
        return LinearRow(dict(data.draw(st.permutations(list(row.coeffs.items())))),
                         row.rhs, row.scale, row.origin)
    if kind == "rescaled":
        m = data.draw(st.integers(2, 4))
        return LinearRow({c: v * m for c, v in row.coeffs.items()}, row.rhs * m, row.scale * m,
                         row.origin)
    return LinearRow(dict(row.coeffs), row.rhs, row.scale, row.origin)


COPY_KINDS = ["same", "same", "shifted", "reordered", "rescaled"]  # exact copies drawn twice as often


@settings(max_examples=200, deadline=None, phases=UNSHRUNK)
@given(systems(), st.data())
def test_repeated_rows_match_reference(system, data):
    """Copies of rows at random positions, copies of copies included: a row
    equal to one already reduced is skipped, and the verdict, certificate
    and assignment stay the reference's."""
    rows = list(system.rows)
    kinds = data.draw(st.lists(st.sampled_from(COPY_KINDS), min_size=1, max_size=6)) if rows else []
    for kind in kinds:
        copy = copied_row(data.draw(st.sampled_from(rows)), kind, data)
        rows.insert(data.draw(st.integers(0, len(rows))), copy)
    repeated = LinearSystem(system.variables, rows)
    assert_same_result(repeated)
    if "shifted" in kinds:  # two rows with the same coefficients and different rhs
        assert isinstance(solve_or_refute(repeated), Infeasible)


@settings(max_examples=150, deadline=None)
@given(systems(), st.data())
def test_copies_around_the_contradiction_row_match_reference(system, data):
    """Copies placed before and after the first inconsistent row: those
    after it are never read, those before it are reduced or skipped."""
    if isinstance(reference_solve_or_refute(system), Feasible):
        coeffs, value = data.draw(st.sampled_from([rational_row(row) for row in system.rows]
                                                  or [({}, Fraction(0))]))
        system.rows.append(linear_rows([(coeffs, value + data.draw(nonzero))])[0])
    multipliers = reference_solve_or_refute(system).certificate.multipliers
    last = max(r for r, m in enumerate(multipliers) if m)
    rows = list(system.rows)
    kind = data.draw(st.sampled_from(COPY_KINDS))
    after = copied_row(data.draw(st.sampled_from(rows)), kind, data)
    rows.insert(data.draw(st.integers(last + 1, len(rows))), after)
    before = copied_row(data.draw(st.sampled_from(rows[:last + 1])), "same", data)
    rows.insert(data.draw(st.integers(0, last)), before)
    repeated = LinearSystem(system.variables, rows)
    assert isinstance(reference_solve_or_refute(repeated), Infeasible)
    assert_same_result(repeated)


def test_an_equal_row_is_never_reduced(monkeypatch):
    """One ``heapify`` per reduced row: on a full 4-bidder grid over 6 values
    each bag's 4!/(multiplicities) orderings give equal rows under a
    constant rule, so 126 of the 1,296 rows are reduced, one per bag."""
    calls = []

    def counted(queue):
        calls.append(len(queue))
        heapify(queue)

    monkeypatch.setattr(feasibility, "heapify", counted)
    system = build_balance_system(grid(4, 6, seed=0), get_rule("constant:7/3"))
    assert len(system.rows) == 6 ** 4
    assert isinstance(solve_or_refute(system), Feasible)
    assert len(calls) == 126  # C(6 + 4 - 1, 4) bags


# --- when a working row's content is taken ------------------------------


@pytest.mark.parametrize("rule", WITNESS_RULES)
@pytest.mark.parametrize("k", [7, 8])
def test_gcd_work_is_linear_in_the_stored_entries(k, rule, monkeypatch):
    """``gcd`` reads at most three arguments per stored entry over a whole
    solve: a step with ap == 1 reads only its pivot row, and a working
    row's content is taken only when a step rescales the whole row, and
    at the row's end when its last step did not.  Taking it on every
    step read 23 (k = 7) and 42 (k = 8) arguments per entry, as a few
    rows absorb hundreds of pivots."""
    system = build_balance_system(vickrey_witness_set(k), get_rule(rule))
    nnz = sum(len(row.coeffs) for row in system.rows)
    read = []

    def counted(*args):
        read.append(len(args))
        return gcd(*args)

    monkeypatch.setattr(feasibility, "gcd", counted)
    solve_or_refute(system)
    assert sum(read) <= 3 * nnz


def replayed_rows(rows, reduced):
    """The integers ``(coeffs, rhs)`` of each recorded row after its steps,
    replayed from the system's rows: a step ``(p, ap, fp, content)`` makes
    its row ``(ap*row - fp*pivot_p) / content``, and the content must divide
    exactly."""
    out = []
    for idx, steps in reduced:
        ints, rhs = dict(rows[idx].coeffs), rows[idx].rhs
        for p, ap, fp, content in steps:
            p_ints, p_rhs = out[p]
            combined = {c: ap * ints.get(c, 0) - fp * p_ints.get(c, 0)
                        for c in ints.keys() | p_ints}
            rhs = ap * rhs - fp * p_rhs
            assert content > 0 and rhs % content == 0
            assert all(v % content == 0 for v in combined.values())
            ints, rhs = {c: v // content for c, v in combined.items() if v}, rhs // content
        out.append((ints, rhs))
    return out


def recorded_steps(system):
    """The rows, steps and final rhs that ``_certificate`` receives when
    ``system`` is solved with a contradiction row appended, the sum of its
    rows with the rhs shifted by one: the original rows, each recorded
    row's index and steps (the pivot rows, then the certificate row), and
    the certificate row's rhs.  The appended row lies in the span of the
    rows, so it changes no pivot row, and it makes every solve end in a
    certificate, so ``_certificate`` receives every pivot row when the
    system is consistent."""
    summed: dict[int, Fraction] = {}
    total = Fraction(1)
    for row in system.rows:
        coeffs, rhs = rational_row(row)
        for c, v in coeffs.items():
            summed[c] = summed.get(c, 0) + v
        total += rhs
    appended = linear_rows([({c: v for c, v in summed.items() if v}, total)])
    seen = []
    real = feasibility._certificate

    def recording(rows, reduced, row_rhs):
        seen.append((rows, reduced, row_rhs))
        return real(rows, reduced, row_rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_certificate", recording)
        assert isinstance(solve_or_refute(LinearSystem(system.variables, system.rows + appended)),
                          Infeasible)
    (found,) = seen
    return found


def assert_primitive_pivot_rows(system):
    """Every recorded step replays exactly, every pivot row reduced by a
    step is primitive, one with no step is the stored row, and the
    certificate row ends at 0 = ±1."""
    rows, reduced, row_rhs = recorded_steps(system)
    replayed = replayed_rows(rows, reduced)
    for (idx, steps), (ints, rhs) in zip(reduced[:-1], replayed):
        assert ints  # a pivot row holds its pivot entry
        if steps:
            assert gcd(rhs, *ints.values()) == 1
        else:
            assert (ints, rhs) == (rows[idx].coeffs, rows[idx].rhs)
    assert replayed[-1] == ({}, row_rhs) and abs(row_rhs) == 1


entries = st.integers(-7, 7).filter(bool)
rhs_20_bits = st.integers(-(1 << 20), 1 << 20)


@st.composite
def chain_systems(draw):
    """Rows 0..n-1 each hold a pivot entry drawn from 1..7 on column i and
    drawn entries on later columns, with 20-bit right-hand sides; then a
    late row holding every column absorbs every earlier pivot, with steps
    of ap == 1 (the pivot entry divides the row's) and of ap != 1 on one
    long row.  The late row either contradicts (0 = c, |c| mostly above
    1), reduces to 0 = 0 only after its steps, or holds one more column
    and becomes a long pivot row; a first row may share a factor in all
    its integers, which its no-step pivot row keeps."""
    n = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["contradiction", "zero", "pivot"]))
    rows = []
    for i in range(n):
        coeffs = {i: Fraction(draw(st.integers(1, 7)))}
        for c in range(i + 1, n):
            if draw(st.booleans()):
                coeffs[c] = Fraction(draw(entries))
        rows.append((coeffs, Fraction(draw(rhs_20_bits))))
    factor = draw(st.integers(1, 6))
    rows[0] = ({c: factor * v for c, v in rows[0][0].items()}, factor * rows[0][1])
    late = {c: Fraction(draw(entries)) for c in range(n)}
    if kind == "zero":  # the rhs that makes the late row the combination its coefficients are
        solution = reference_solve_or_refute(chain_system(n, rows)).assignment
        rows.append((late, sum(v * solution[c] for c, v in late.items())))
    else:
        if kind == "pivot":
            late[n] = Fraction(draw(entries))
        rows.append((late, Fraction(draw(rhs_20_bits))))
    return chain_system(n + (kind == "pivot"), rows)


def chain_system(n_vars, rows):
    return LinearSystem(variables=tuple(BidMultiset.of([k]) for k in range(n_vars)),
                        rows=linear_rows(rows))


@settings(max_examples=200, deadline=None, phases=UNSHRUNK)
@given(chain_systems())
def test_chain_systems_match_reference(system):
    assert_same_result(system)


@settings(max_examples=100, deadline=None)
@given(chain_systems())
def test_chain_pivot_rows_are_primitive(system):
    assert_primitive_pivot_rows(system)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("rule", WITNESS_RULES)
def test_witness_pivot_rows_are_primitive(n, rule):
    assert_primitive_pivot_rows(build_balance_system(vickrey_witness_set(n), get_rule(rule)))


def test_steps_with_ap_one_fold_the_content_into_the_last_step():
    """Rows x0 = 2 and x1 = 3 leave steps with ap == 1 only: the late row
    5*x0 + 10*x1 = 45 becomes 0 = 5 with no division on the way, and its
    content 5 is taken once, at its end, and recorded in its last step,
    so the certificate row ends at 0 = 1."""
    system = chain_system(2, [({0: 1}, 2), ({1: 1}, 3), ({0: 5, 1: 10}, 45)])
    _, reduced, row_rhs = recorded_steps(system)
    assert reduced == [(0, []), (1, []), (2, [(0, 1, 5, 1), (1, 1, 10, 5)])]
    assert row_rhs == 1
    assert_same_result(system)


def test_a_rescaling_step_takes_the_content_at_once():
    """Pivot entry 2 against the row's 3 rescales the whole row (ap = 2), so
    that step takes the content: 2*(3, 9 | 6) - 3*(2, 0 | 4) = (0, 18 | 0)
    has content 18, and nothing is left to fold.  The late row x1 = 5 then
    becomes 0 = 5 on a step with ap == 1, and folds 5 at its end."""
    system = chain_system(2, [({0: 2}, 4), ({0: 3, 1: 9}, 6), ({1: 1}, 5)])
    _, reduced, row_rhs = recorded_steps(system)
    assert reduced == [(0, []), (1, [(0, 2, 3, 18)]), (2, [(1, 1, 1, 5)])]
    assert row_rhs == 1
    assert_same_result(system)
