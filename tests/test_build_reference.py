"""Differential test: the rank-keyed system build against the build it replaced.

``reference_build_balance_system`` is the previous ``build_balance_system``,
kept here unchanged as the reference.  It sorts and hashes the bids as
``Fraction`` values for every (vector, bidder) pair; the current build ranks
the distinct bids once and works on integer keys.  Both must give the same
variables, the same rows in the same order with the same coefficient
insertion order, the same origin objects, the same JSON bytes and the same
errors.
"""

import itertools
import json
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from imbalance import (
    BidMultiset,
    BidVector,
    LinearRow,
    LinearSystem,
    PriceRule,
    RuleArityError,
    RuleDomainError,
    bag_of,
    build_balance_system,
    get_rule,
    register_external,
    remove,
    system_to_json,
    vickrey_witness_set,
)

RULES = ["neg-second-price", "second-price", "first-price", "neg-first-price", "constant:7/3"]
GRID_RULES = ["neg-second-price", "second-price", "neg-first-price", "constant:7/3"]


def reference_build_balance_system(vectors, rule: PriceRule) -> LinearSystem:
    """One equation per vector: the deletion payments must sum to the rule.

    The coefficient of P(m) in the row for b is the number of bidders i
    with bag(b - i) = m; the right-hand side is rule(b).  Variables are
    the distinct deletion multisets in canonical order, rows follow the
    canonical vector order.
    """
    vecs = sorted(set(vectors), key=lambda b: b.entries)
    raw = []
    seen: set[BidMultiset] = set()
    for vec in vecs:
        try:
            rhs = rule(vec)
        except (RuleArityError, RuleDomainError) as exc:
            raise ValueError(f"rule {rule.name!r} undefined on {vec!r}: {exc}") from exc
        counts: dict[BidMultiset, int] = {}
        for i in vec.dom:
            m = bag_of(remove(vec, {i}))
            counts[m] = counts.get(m, 0) + 1
        seen.update(counts)
        raw.append((vec, counts, rhs))
    variables = tuple(sorted(seen, key=lambda m: m.canonical_key()))
    index = {m: k for k, m in enumerate(variables)}
    rows = [
        LinearRow(
            coeffs={index[m]: Fraction(c) for m, c in sorted(
                counts.items(), key=lambda kv: index[kv[0]]
            )},
            rhs=rhs,
            origin=vec,
        )
        for vec, counts, rhs in raw
    ]
    return LinearSystem(variables=variables, rows=rows)


def assert_same_build(vectors, rule, as_generator=False):
    """Both builds on the same input: equal systems, or the same error.

    With ``as_generator`` the current build reads a one-shot generator.
    """
    vectors = list(vectors)

    def build():
        return build_balance_system((v for v in vectors) if as_generator else vectors, rule)

    try:
        want = reference_build_balance_system(vectors, rule)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == str(exc)
        return
    got = build()
    assert got.variables == want.variables
    assert len(got.rows) == len(want.rows)
    for new, ref in zip(got.rows, want.rows):
        assert new.origin is ref.origin  # same representative of equal vectors
        assert list(new.coeffs.items()) == list(ref.coeffs.items())
        assert new.rhs == ref.rhs
    assert json.dumps(system_to_json(got)) == json.dumps(system_to_json(want))


# bids that normalize together ("2/4" and "1/2", 2 and Fraction(2)), negatives, repeats
BIDS = ["1/2", "2/4", 2, Fraction(2), "-3/2", Fraction(-6, 4), 0, "7/3", -1, 5]
RESPELL = {"1/2": "2/4", "2/4": "1/2", 2: "4/2", "-3/2": Fraction(-6, 4), "7/3": "14/6"}


@st.composite
def vector_lists(draw):
    raw = draw(st.lists(
        st.dictionaries(st.integers(0, 5), st.sampled_from(BIDS), min_size=0, max_size=4),
        max_size=10,
    ))
    vectors = [BidVector.of(m) for m in raw]
    # equal vectors as separate objects, some with their bids spelled another way
    for m, respell in draw(st.lists(st.tuples(st.sampled_from(raw), st.booleans()),
                                    max_size=3)) if raw else ():
        vectors.append(BidVector.of({i: RESPELL.get(v, v) if respell else v
                                     for i, v in m.items()}))
    return draw(st.permutations(vectors))


@settings(max_examples=150, deadline=None)
@given(vector_lists(), st.sampled_from(RULES), st.booleans())
def test_random_vector_lists_match_reference(vectors, rule, as_generator):
    assert_same_build(vectors, get_rule(rule), as_generator)


def test_unnormalized_int_bid_shares_a_variable_with_its_fraction():
    raw = BidVector(((1, 2), (2, 3)))  # int 2 entered without BidVector.of
    vectors = [raw, BidVector.of({1: Fraction(2), 2: 5}), BidVector.of({1: "4/2", 2: 3})]
    assert_same_build(vectors, get_rule("first-price"))


def test_empty_vector_under_a_table_rule():
    empty = BidVector.of({})
    rule = register_external("tiny", {empty: 1, BidVector.of({1: 3}): "1/2"})
    assert_same_build([BidVector.of({1: "6/2"}), empty, BidVector.of({})], rule)


def test_several_single_bidder_vectors_raise_the_same_error():
    vectors = [BidVector.of({4: 1}), BidVector.of({1: 2, 2: 3}), BidVector.of({2: "1/2"}),
               BidVector.of({1: 7})]
    with pytest.raises(ValueError, match="undefined on"):
        reference_build_balance_system(vectors, get_rule("neg-second-price"))
    assert_same_build(vectors, get_rule("neg-second-price"))


@pytest.mark.parametrize("rule", ["neg-second-price", "constant:7/3"])
@pytest.mark.parametrize("n", range(1, 7))
def test_witness_systems_match_reference(n, rule):
    assert_same_build(vickrey_witness_set(n), get_rule(rule))


def grid(k, b, seed):
    """Every k-bidder vector over b seeded 20-bit rational bids, in shuffled order."""
    rng = random.Random(f"{seed}:{k}:{b}")
    bids = set()
    while len(bids) < b:
        bids.add(Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)))
    vectors = [BidVector.of(dict(enumerate(t, 1)))
               for t in itertools.product(sorted(bids), repeat=k)]
    rng.shuffle(vectors)
    return vectors


@pytest.mark.parametrize("k,b", [(3, 6), (4, 5)])  # one grid per bidder count
def test_grid_systems_match_reference(k, b):
    vectors = grid(k, b, seed=0)
    for rule in GRID_RULES:
        assert_same_build(vectors, get_rule(rule))
