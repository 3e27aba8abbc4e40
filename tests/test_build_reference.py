"""Differential test: the rank-keyed system build against the build it replaced.

``reference_build_balance_system`` is the previous ``build_balance_system``,
kept here unchanged as the reference.  It sorts and hashes the bids as
``Fraction`` values for every (vector, bidder) pair; the current build ranks
the distinct bids once, works on integer keys and builds one coefficient map
per distinct bag.  Both must give the same variables, the same rows in the
same order with the same coefficient insertion order, the same integers
over the same scale (the reference rows come from ``LinearRow.of``, so the
scale is the lcm of the row's denominators), the same origin objects, the
same JSON bytes and the same errors, and no two rows of the
current build may share a coefficient dict.  Every input also checks the
build's ``rank_bids`` against its definition (``conftest.assert_ranked``).
The reference runs the rule once per distinct vector; the current build
runs a rule's bag form once per bag, on the bag's bids alone, which the
counting tests pin.
Fixed bags pin the build's run-length deletion map (runs of equal bids at
the start, middle and end, one bid held by all, one bid and none), and
bidder ids from 10 up pin the integer order of the build's flat keys and
the string order of the witness text's keys.
"""

import dataclasses
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import assert_canonical, assert_ranked, bag_rule
from imbalance import (
    BidMultiset,
    BidVector,
    LinearRow,
    LinearSystem,
    PriceRule,
    RuleUndefinedError,
    build_balance_system,
    get_rule,
    remove,
    system_to_json,
    vickrey_witness_set,
)
from imbalance.bids import bid_vector_to_json, rank_bids
from imbalance.witness import witness_set_text

RULES = ["neg-second-price", "second-price", "first-price", "neg-first-price", "constant:7/3"]
GRID_RULES = ["neg-second-price", "second-price", "neg-first-price", "constant:7/3"]


def each_bag(vectors):
    """A rule with its own value on each distinct bag of the vectors."""
    bags = dict.fromkeys(tuple(sorted(v.values())) for v in vectors)
    return bag_rule("each", {bag: n for n, bag in enumerate(bags)})


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
        except RuleUndefinedError as exc:
            raise ValueError(f"rule {rule.name!r} undefined on {vec!r}: {exc}") from exc
        counts: dict[BidMultiset, int] = {}
        for i in vec.dom:
            m = BidMultiset.of(remove(vec, {i}).values())
            counts[m] = counts.get(m, 0) + 1
        seen.update(counts)
        raw.append((vec, counts, rhs))
    variables = tuple(sorted(seen, key=lambda m: m.canonical_key()))
    index = {m: k for k, m in enumerate(variables)}
    rows = [
        LinearRow.of(
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
    assert_ranked(vectors)

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
    assert len({id(row.coeffs) for row in got.rows}) == len(got.rows)  # no aliasing
    assert_canonical(got.variables)
    assert_canonical(row.origin for row in got.rows)
    assert got.variables == want.variables
    assert len(got.rows) == len(want.rows)
    for new, ref in zip(got.rows, want.rows):
        assert new.origin is ref.origin  # same representative of equal vectors
        assert list(new.coeffs.items()) == list(ref.coeffs.items())
        assert (new.rhs, new.scale) == (ref.rhs, ref.scale)
    assert_same_json(got, want)


def assert_same_json(got: LinearSystem, want: LinearSystem):
    """Equal ``json.dumps(system_to_json(...))`` bytes, reported at the first
    variable or row that differs: pytest's own diff of the one-line texts
    of two 1,296-row systems runs for minutes."""
    got_json, want_json = system_to_json(got), system_to_json(want)
    assert list(got_json) == list(want_json) == ["variables", "rows"]
    for part in got_json:
        new = [json.dumps(item) for item in got_json[part]] + [""]
        ref = [json.dumps(item) for item in want_json[part]] + [""]
        if new != ref:
            at, (item, expected) = next((k, pair) for k, pair in enumerate(zip(new, ref))
                                        if pair[0] != pair[1])
            pytest.fail(f"{part} differ at {at}: {item} != {expected}")


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


@st.composite
def shared_bag_lists(draw):
    """Vectors in which each bag recurs under several bidder permutations and spellings."""
    vectors = []
    for bag in draw(st.lists(st.lists(st.sampled_from(BIDS), min_size=1, max_size=4),
                             min_size=1, max_size=4)):
        ids = draw(st.lists(st.integers(0, 5), min_size=len(bag), max_size=len(bag), unique=True))
        for _ in range(draw(st.integers(2, 4))):
            vectors.append(BidVector.of({
                i: RESPELL.get(v, v) if draw(st.booleans()) else v
                for i, v in zip(ids, draw(st.permutations(bag)))
            }))
    return draw(st.permutations(vectors))


@settings(max_examples=100, deadline=None)
@given(shared_bag_lists(), st.data())
def test_shared_bags_match_reference(vectors, data):
    for rule in RULES:
        assert_same_build(vectors, get_rule(rule))
    bags = list(dict.fromkeys(tuple(sorted(v.values())) for v in vectors))
    # values over several denominators, drawn per bag: each bag's rows share
    # its one scale, never one coefficient dict
    values = [Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(-5, 6)]
    assert_same_build(vectors, bag_rule("dens", {
        bag: values[data.draw(st.integers(0, len(values) - 1))] for bag in bags}))
    # one bag left out pins the "undefined on" error to the bag's first vector
    omitted = data.draw(st.sampled_from(bags))
    assert_same_build(vectors, bag_rule("omit", {bag: n for n, bag in enumerate(bags)
                                                 if bag != omitted}))


def test_unnormalized_int_bid_shares_a_variable_with_its_fraction():
    raw = BidVector(((1, 2), (2, 3)))  # int 2 entered without BidVector.of
    vectors = [raw, BidVector.of({1: Fraction(2), 2: 5}), BidVector.of({1: "4/2", 2: 3})]
    assert_same_build(vectors, get_rule("first-price"))


def test_equal_bids_share_a_rank_whatever_their_spelling():
    a, b, c = BidVector.of({1: "1/2", 2: -3}), BidVector.of({1: "2/4"}), BidVector.of({3: "-6/4"})
    assert a[1] is not b[1]
    values, rank_of = rank_bids([v for vec in (a, b, c) for _, v in vec.entries])
    assert values == [-3, Fraction(-3, 2), Fraction(1, 2)]
    assert rank_of[id(a[1])] == rank_of[id(b[1])] == 2
    assert rank_of[id(a[2])] == 0 and rank_of[id(c[3])] == 1
    assert_same_build([a, b, c], get_rule("constant:7/3"))


def test_empty_vector_under_a_table_rule():
    empty = BidVector.of({})
    rule = bag_rule("tiny", {(): 1, (3,): "1/2"})
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


def test_flat_keys_sort_prefixes_first_and_ids_as_integers():
    # one-, two- and three-bidder vectors, a bidder 0 and a bidder 10, and
    # vectors whose pairs are a prefix of another's
    a, b, z = Fraction(1, 2), 2, -1
    vectors = [BidVector.of(m) for m in [
        {1: a, 2: b}, {1: a}, {0: z}, {2: a}, {1: a, 2: b, 3: z}, {1: b},
        {1: a, 2: z}, {10: z}, {0: z, 1: a}, {2: a, 10: b},
    ]]
    want = sorted(vectors, key=lambda v: v.entries)
    assert want[:3] == [BidVector.of({0: z}), BidVector.of({0: z, 1: a}), BidVector.of({1: a})]
    for rule in ["first-price", "constant:7/3"]:
        assert [row.origin for row in build_balance_system(vectors, get_rule(rule)).rows] == want
        assert_same_build(vectors, get_rule(rule))
    assert_same_build(vectors, each_bag(vectors))


def counted(rule):
    """The rule with a counter on its ``fn`` and one on its bag form, every
    other field kept; the bag counter is keyed by the bids."""
    vector_calls, bag_calls = Counter(), Counter()

    def fn(vector):
        vector_calls[vector] += 1
        return rule.fn(vector)

    def bag(bids):
        bag_calls[tuple(bids)] += 1
        return rule.bag(bids)

    counting = dataclasses.replace(rule, fn=fn, bag=bag)
    return counting, vector_calls, bag_calls


def benchmark_grid(seed, k, b):
    """Every k-bidder vector over the grid-sweep benchmark's ``b`` seeded
    bids, a copy of its ``grid_bids``, in bidder-tuple order."""
    rng = random.Random(f"grid-bids:{seed}:{k}:{b}")
    bids: list[Fraction] = []
    while len(bids) < b:
        value = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        if value not in bids:
            bids.append(value)
    return [BidVector.of(dict(enumerate(t, 1))) for t in itertools.product(bids, repeat=k)]


def test_every_cli_rule_runs_once_per_bag_and_never_per_vector():
    # one rule of each family ``get_rule`` knows, the only rules the CLI reaches
    vectors = benchmark_grid(0, 4, 6)
    assert len(vectors) == 1296
    for name in RULES:
        rule, vector_calls, bag_calls = counted(get_rule(name))
        system = build_balance_system(vectors, rule)
        assert not vector_calls
        assert sum(bag_calls.values()) == len(bag_calls) == 126  # one per bag of 4 among 6 bids
        assert all(list(bids) == sorted(bids) for bids in bag_calls)
        assert_same_json(system, reference_build_balance_system(vectors, get_rule(name)))


def test_one_bag_on_other_bidders_runs_a_built_in_rule_once():
    a, b = Fraction(5, 3), Fraction(1, 4)
    for name in RULES:
        rule, vector_calls, bag_calls = counted(get_rule(name))
        system = build_balance_system([BidVector.of({1: a, 2: b}), BidVector.of({3: b, 4: a})],
                                      rule)
        assert not vector_calls
        assert dict(bag_calls) == {(b, a): 1}  # the bag's bids in increasing order
        first, second = system.rows
        assert (first.rhs, first.scale) == (second.rhs, second.scale)
        assert first.coeffs == second.coeffs


# Fixed bags for the run-length deletion map, each with its deletion
# counts: a run of equal bids at the start, in the middle and at the end
# of the sorted bag, one bid held by every bidder, one bid, and no bid.
RUN_BAGS = {
    "run-at-start": ([2, 2, 2, 5, 7], {(2, 2, 2, 5): 1, (2, 2, 2, 7): 1, (2, 2, 5, 7): 3}),
    "run-in-middle": ([1, 4, 9, 4], {(1, 4, 4): 1, (1, 4, 9): 2, (4, 4, 9): 1}),
    "run-at-end": ([8, 1, 3, 8], {(1, 3, 8): 2, (1, 8, 8): 1, (3, 8, 8): 1}),
    "all-equal": (["1/2", "2/4", Fraction(1, 2)], {(Fraction(1, 2), Fraction(1, 2)): 3}),
    "one-bid": (["7/3"], {(): 1}),
    "empty": ([], {}),
}


def orderings(bids, ids):
    """One vector per order of ``bids`` on ``ids``, each built on its own."""
    return [BidVector.of(dict(zip(ids, order))) for order in itertools.permutations(bids)]


@pytest.mark.parametrize("name", RUN_BAGS)
def test_run_length_deletion_map_matches_reference(name):
    bids, counts = RUN_BAGS[name]
    vectors = orderings(bids, [3, 10, 2, 11, 0][:len(bids)])
    for rule in (get_rule("first-price"), each_bag(vectors)):
        assert_same_build(vectors, rule)
    system = build_balance_system(vectors, each_bag(vectors))
    for row in system.rows:
        got = [(system.variables[c].values, v) for c, v in row.coeffs.items()]
        assert got == list(counts.items())  # in variable order
        assert list(row.coeffs) == sorted(row.coeffs)


def test_run_length_deletion_maps_of_several_bags_share_one_variable_order():
    vectors = [v for bids, _ in RUN_BAGS.values() for v in orderings(bids, [12, 1, 10, 2, 9])]
    assert_same_build([v for v in vectors if v], get_rule("first-price"))
    assert_same_build(vectors, each_bag(vectors))


def test_ids_from_10_up_sort_as_integers_in_the_build_and_as_strings_in_the_text():
    vectors = [BidVector.of(m) for m in [
        {2: 1, 10: 1, 11: 3}, {2: 3, 10: 1, 11: 1}, {1: 5, 9: 2, 10: 2, 100: 2},
        {10: "1/2"}, {2: "1/2"}, {2: 1, 10: 1, 11: 3}, {3: 4, 20: 4},
    ]]
    text = witness_set_text(vectors)  # the repeated vector is written twice
    assert text == json.dumps([bid_vector_to_json(v) for v in sorted(vectors, key=lambda b: b.entries)],
                              indent=2, sort_keys=True) + "\n"
    assert '"10": "1",\n      "11": "3",\n      "2": "1"' in text  # "10" sorts before "2"
    assert '"100": "2",\n      "9": "2"' in text
    want = sorted(set(vectors), key=lambda b: b.entries)
    for rule in (get_rule("first-price"), each_bag(vectors)):
        assert [row.origin for row in build_balance_system(vectors, rule).rows] == want
        assert_same_build(vectors, rule)
