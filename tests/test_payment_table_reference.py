"""Differential test: the closed-form iteration steps against the iteration.

``reference_build_payment_table`` is the all-equal-bids iteration itself,
as ``build_payment_table`` ran it before it keyed earlier values by count
tuples, then read every value off the closed form f / N, and then stopped
recording the values at all.  It builds, sorts and hashes a ``BidMultiset``
for every lookup of an earlier step and eliminates the known payments one
balance equation at a time.  Both must give the same steps, the same rule
evaluations in the same order, and the same errors; the reference's own
table must hold f / N on every shape, the closed form that lets
``build_payment_table`` skip it.  Other tests import the reference to
compare the iterated table with ``forced_payment``.
"""

from fractions import Fraction
from typing import Iterable

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from imbalance import (
    AdequacyError,
    BidMultiset,
    BidVector,
    PriceRule,
    RuleArityError,
    RuleDomainError,
    build_payment_table,
    ensure_rational,
    flat,
    format_rational,
    get_rule,
    register_external,
    sub_multisets,
)

RULES = ["neg-second-price", "second-price", "first-price", "neg-first-price", "constant:7/3"]


def reference_build_payment_table(
    n_bidders: int, fill, extras: Iterable[object], rule: PriceRule
) -> tuple[dict[BidMultiset, Fraction], tuple[tuple[BidMultiset, Fraction], ...]]:
    """Payment table from the all-equal-bids iteration.

    Starting from the vector where all ``n_bidders`` bid ``fill``, balance
    gives P on the (N-1)-fold {fill} bag with coefficient 1/N.  Replacing
    bids by the ``extras`` one at a time and re-imposing balance
    eliminates the known payments and pins each new shape in turn; the
    rule must keep its flat value on every vector visited (checked at
    each step).  The table covers every multiset

        m + {fill repeated N - 1 - |m|}   for every m <= bag(extras),

    and the steps pair the shape reached after introducing each extra bid
    with its elimination coefficient (the payment divided by the rule's
    flat value); every coefficient equals 1/N.  A rule undefined on a
    visited vector fails that check as AdequacyError.
    """
    if n_bidders < 2:
        raise ValueError("need at least 2 bidders")
    extra_bids = [ensure_rational(e) for e in extras]
    if len(extra_bids) > n_bidders - 2:
        raise ValueError(
            f"too many extras: at most {n_bidders - 2} for {n_bidders} bidders"
        )
    fill_bid = ensure_rational(fill)
    ids = tuple(range(1, n_bidders + 1))
    coefficients = [Fraction(1, n_bidders)]
    for size in range(1, len(extra_bids) + 1):
        coefficients.append((1 - size * coefficients[size - 1]) / (n_bidders - size))

    table: dict[BidMultiset, Fraction] = {}
    lattice = sub_multisets(BidMultiset.of(extra_bids))
    lattice.sort(key=lambda m: m.canonical_key())
    try:
        flat_value = rule(flat(ids, fill_bid))
        for m in lattice:
            assigned = list(m.values)
            visited = BidVector.of(
                {i: (assigned[i - 1] if i - 1 < len(assigned) else fill_bid) for i in ids}
            )
            value = rule(visited)
            if value != flat_value:
                raise AdequacyError(
                    f"flat-invariance fails at iteration step {m!r}: "
                    f"{rule.name!r} gives {format_rational(value)} there but "
                    f"{format_rational(flat_value)} on the flat vector"
                )
            n_fill = n_bidders - len(m)
            remainder = flat_value
            for v in m.distinct():
                others = list(m.values)
                others.remove(v)
                smaller = BidMultiset.of(others + [fill_bid] * n_fill)
                remainder -= m.count(v) * table[smaller]
            shape = BidMultiset.of(list(m.values) + [fill_bid] * (n_fill - 1))
            payment = remainder / n_fill
            assert table.setdefault(shape, payment) == payment, f"conflicting payment for {shape!r}"
    except (RuleArityError, RuleDomainError) as exc:
        raise AdequacyError(f"flat-invariance fails: {exc}") from exc

    steps = []
    for j in range(len(extra_bids) + 1):
        shape = BidMultiset.of(extra_bids[:j] + [fill_bid] * (n_bidders - 1 - j))
        steps.append((shape, coefficients[j]))
    return table, tuple(steps)


def reference_steps(n_bidders, fill, extras, rule):
    """The reference iteration's steps, its table dropped."""
    return reference_build_payment_table(n_bidders, fill, extras, rule)[1]


def outcome(build, n_bidders, fill, extras, rule):
    """The steps one build returns, or the type and message of what it
    raises, and every vector the rule saw."""
    seen = []

    def recording(vector):
        seen.append(vector)
        return rule(vector)

    watched = PriceRule(rule.name, rule.min_arity, recording)
    try:
        steps = build(n_bidders, fill, extras, watched)
    except Exception as exc:
        return ("raised", type(exc), str(exc), seen)
    return ("returned", steps, seen)


def visited_vectors(n_bidders, fill, extras):
    """The vectors the reference visits, the flat vector first."""
    ids = range(1, n_bidders + 1)
    lattice = sorted(sub_multisets(BidMultiset.of(extras)), key=lambda m: m.canonical_key())
    vectors = [flat(ids, fill)]
    for m in lattice:
        padded = list(m.values) + [fill] * (n_bidders - len(m))
        vectors.append(BidVector.of(dict(zip(ids, padded))))
    return vectors


# few small values, so extras repeat and often equal the fill
small = st.integers(-2, 3).map(Fraction) | st.sampled_from([Fraction(1, 2), Fraction(5, 2)])


@st.composite
def iteration_inputs(draw):
    n_bidders = draw(st.integers(2, 7))
    fill = draw(small)
    # one more extra than allowed, now and then, to reach the size check
    extras = draw(st.lists(small | st.just(fill), max_size=n_bidders - 1))
    if draw(st.booleans()):
        rule = get_rule(draw(st.sampled_from(RULES)))
    else:
        # a table over the visited vectors: some dropped, some off the flat value
        table = {}
        for vector in visited_vectors(n_bidders, fill, extras[: n_bidders - 2]):
            kind = draw(st.sampled_from(["flat", "flat", "flat", "flat", "missing", "other"]))
            if kind != "missing":
                table[vector] = Fraction(1) if kind == "flat" else draw(small)
        if not table:
            table[flat([99], 0)] = Fraction(0)
        rule = register_external("drawn", table)
    return n_bidders, fill, extras, rule


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(iteration_inputs())
    def test_same_steps_evaluations_and_errors(self, inputs):
        want = outcome(reference_steps, *inputs)
        got = outcome(build_payment_table, *inputs)
        assert got == want

    def test_drawn_cases_reach_every_outcome(self):
        """The strategy must reach success, each error and the fill-valued
        extras, or the comparison above would hold vacuously."""
        reached = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(iteration_inputs())
        def collect(inputs):
            n_bidders, fill, extras, _ = inputs
            kind, *rest = outcome(reference_steps, *inputs)
            reached.add(kind if kind == "returned" else rest[0].__name__)
            if kind == "returned" and fill in extras:
                reached.add("fill among extras")
            if kind == "raised" and "rule undefined" in rest[1]:
                reached.add("undefined")

        collect()
        assert {"returned", "AdequacyError", "ValueError", "fill among extras",
                "undefined"} <= reached


def off_mid_lattice(n):
    """A table rule over the vectors ``theorem --trace`` visits at size n:
    the flat value everywhere but at the middle step of the lattice."""
    visited = visited_vectors(n + 2, Fraction(n + 3), [Fraction(e) for e in range(1, n + 1)])
    table = dict.fromkeys(visited, Fraction(1))
    lattice = visited[1:]
    table[lattice[len(lattice) // 2]] = Fraction(2)
    return register_external("off-mid-lattice", table)


@pytest.mark.parametrize("name", [*RULES, "off-mid-lattice"])
@pytest.mark.parametrize("n", range(1, 9))
def test_cli_sizes_match_reference(n, name):
    # the exact arguments of ``theorem --n n --trace``, past the 7 bidders
    # the strategy above reaches
    rule = off_mid_lattice(n) if name == "off-mid-lattice" else get_rule(name)
    args = (n + 2, n + 3, list(range(1, n + 1)), rule)
    want = outcome(reference_steps, *args)
    assert want[:2] == ("raised", AdequacyError) if name == "off-mid-lattice" else want[0] == "returned"
    assert outcome(build_payment_table, *args) == want


@pytest.mark.parametrize("name", RULES)
@pytest.mark.parametrize("n", range(1, 9))
def test_reference_table_is_the_closed_form(n, name):
    # at the arguments of ``theorem --n n --trace``: the iterated table
    # pins every shape m + {fill}^(N - 1 - |m|), m <= bag(extras), and
    # nothing else, to f / N
    rule = get_rule(name)
    n_bidders, fill, extras = n + 2, Fraction(n + 3), [Fraction(e) for e in range(1, n + 1)]
    table, _ = reference_build_payment_table(n_bidders, fill, extras, rule)
    shapes = [BidMultiset.of([*m.values, *[fill] * (n_bidders - 1 - len(m))])
              for m in sub_multisets(BidMultiset.of(extras))]
    f = rule(flat(range(1, n_bidders + 1), fill))
    assert table == {shape: f / n_bidders for shape in shapes}
