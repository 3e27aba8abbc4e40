from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import assert_canonical, bid_vectors, bidder_ids, multisets, rationals
from imbalance import (
    BidMultiset,
    BidVector,
    bag_of,
    bid_vector_from_json,
    bid_vector_to_json,
    build_adequate_set,
    build_balance_system,
    build_payment_table,
    completion,
    extend,
    flat,
    format_rational,
    full_family,
    get_rule,
    multiset_from_json,
    multiset_to_json,
    remove,
    restrictions,
    sub_multisets,
    system_from_json,
    system_to_json,
    vickrey_witness_set,
)


def vec(mapping):
    return BidVector.of(mapping)


def bag(*values):
    return BidMultiset.of(values)


class TestBidVector:
    def test_extensional_equality(self):
        assert vec({1: 1, 2: 2}) == vec({2: 2, 1: 1})
        assert hash(vec({1: 1})) == hash(vec({1: Fraction(1)}))

    def test_rejects_bad_ids(self):
        with pytest.raises(ValueError):
            vec({-1: 2})
        with pytest.raises(ValueError):
            vec({"a": 2})

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            vec({1: 0.5})

    def test_rejects_repeated_ids(self):
        with pytest.raises(ValueError, match="bidder id 1 is repeated"):
            BidVector.of([(1, 2), (1, 3)])
        with pytest.raises(ValueError, match="bidder id 4 is repeated"):
            BidVector.of([(4, 2), (0, 1), (4, 2)])

    def test_lookup(self):
        b = vec({1: 1, 2: "2/3"})
        assert b[2] == Fraction(2, 3)
        assert 1 in b and 7 not in b
        assert len(b) == 2
        assert list(b) == [1, 2]

    def test_json_round_trip(self):
        b = vec({1: Fraction(-5, 4), 3: 10})
        assert bid_vector_to_json(b) == {"bids": {"1": "-5/4", "3": "10"}}
        assert bid_vector_from_json(bid_vector_to_json(b)) == b


class TestBidMultiset:
    def test_bag_of_counts_multiplicity(self):
        assert bag_of(vec({1: 10, 2: 20, 3: 10})) == bag(10, 10, 20)

    def test_bag_of_empty(self):
        assert bag_of(vec({})) == bag()

    def test_bag_of_singleton(self):
        assert bag_of(vec({7: "1/2"})) == bag(Fraction(1, 2))

    def test_submultiset_order(self):
        assert bag(2, 1, 1) <= bag(0, 0, 1, 1, 1, 2)
        assert not bag(2, 2) <= bag(1, 2)

    def test_sum(self):
        assert bag(1, 3) + bag(2, 3) == bag(1, 2, 3, 3)

    def test_remove_one(self):
        assert bag(1, 4, 4).remove_one(4) == bag(1, 4)
        with pytest.raises(ValueError):
            bag(1).remove_one(2)

    def test_json_round_trip(self):
        m = bag(Fraction(1, 2), 2, 2)
        assert multiset_to_json(m) == ["1/2", "2", "2"]
        assert multiset_from_json(multiset_to_json(m)) == m


class TestRemove:
    def test_single(self):
        assert remove(vec({1: 1, 2: 2, 3: 4}), {3}) == vec({1: 1, 2: 2})

    def test_pair(self):
        assert remove(vec({1: 1, 2: 2, 3: 4}), {2, 3}) == vec({1: 1})

    def test_absent_id_is_noop(self):
        assert remove(vec({1: 1}), {9}) == vec({1: 1})


class TestFlat:
    def test_basic(self):
        assert flat({1, 2, 3}, 4) == vec({1: 4, 2: 4, 3: 4})

    def test_empty(self):
        assert flat(set(), 9) == vec({})

    def test_singleton(self):
        assert flat({5}, Fraction(-1, 2)) == vec({5: Fraction(-1, 2)})


class TestSubMultisets:
    def test_enumeration_and_order(self):
        assert sub_multisets(bag(1, 1, 2)) == [
            bag(),
            bag(1),
            bag(1, 1),
            bag(2),
            bag(1, 2),
            bag(1, 1, 2),
        ]

    def test_empty(self):
        assert sub_multisets(bag()) == [bag()]

    def test_multiplicity_walk(self):
        assert sub_multisets(bag(5, 5)) == [bag(), bag(5), bag(5, 5)]

    @given(multisets(max_size=5))
    def test_count_is_product_of_multiplicities(self, m):
        expected = 1
        for c in m.counts().values():
            expected *= c + 1
        subs = sub_multisets(m)
        assert len(subs) == expected
        assert len(set(subs)) == expected
        assert all(s <= m for s in subs)


class TestRestrictions:
    def test_choice_between_equal_bids(self):
        assert restrictions(vec({1: 10, 2: 10, 3: 20}), bag(10)) == [
            vec({1: 10}),
            vec({2: 10}),
        ]

    def test_full_restriction_unique(self):
        b = vec({1: 1, 2: 2})
        assert restrictions(b, bag_of(b)) == [b]

    def test_empty_multiset(self):
        assert restrictions(vec({1: 1}), bag()) == [vec({})]

    def test_not_a_submultiset(self):
        assert restrictions(vec({1: 1}), bag(2)) == []


class TestCompletion:
    def test_fills_outside_kept(self):
        assert completion(vec({1: 10, 2: 20}), bag(20), 7) == vec({1: 7, 2: 20})

    def test_full_bag_keeps_everything(self):
        b = vec({1: 1, 2: 2, 3: 4})
        assert completion(b, bag_of(b), 99) == b

    def test_empty_bag_fills_everything(self):
        b = vec({1: 1, 2: 2})
        assert completion(b, bag(), 9) == flat(b.dom, 9)

    def test_error_outside_bag(self):
        with pytest.raises(ValueError, match="not a sub-multiset"):
            completion(vec({1: 1}), bag(2), 9)

    @given(bid_vectors(max_size=5), rationals, st.data())
    def test_completion_bag_identity(self, b, fill, data):
        subs = sub_multisets(bag_of(b))
        m = data.draw(st.sampled_from(subs))
        c = completion(b, m, fill)
        assert c.dom == b.dom
        assert bag_of(c) == m + BidMultiset.of([fill] * (len(b) - len(m)))


    @given(st.data())
    def test_matches_first_restriction(self, data):
        # a small value pool forces repeated bids and fills that occur among them
        pool = st.sampled_from([Fraction(1), Fraction(2), Fraction(5, 2)])
        b = data.draw(st.dictionaries(bidder_ids, pool, max_size=6).map(BidVector.of))
        m = data.draw(st.sampled_from(sub_multisets(bag_of(b))))
        fill = data.draw(st.one_of(pool, rationals))
        kept = restrictions(b, m)[0]
        expected = vec({i: kept[i] if i in kept else fill for i in b})
        assert completion(b, m, fill) == expected

class TestFullFamily:
    def test_two_bidders(self):
        family = full_family(vec({1: 1, 2: 2}), 9)
        assert family == {
            vec({1: 9, 2: 9}),
            vec({1: 1, 2: 9}),
            vec({1: 9, 2: 2}),
            vec({1: 1, 2: 2}),
        }

    def test_empty_base(self):
        assert full_family(vec({}), 9) == {vec({})}

    def test_coinciding_completions_merge(self):
        assert full_family(vec({3: 5}), 5) == {vec({3: 5})}

    @given(bid_vectors(max_size=4), rationals)
    def test_members_preserve_domain(self, b, fill):
        assert all(member.dom == b.dom for member in full_family(b, fill))


class TestExtend:
    def test_union_semantics(self):
        got = extend(vec({5: 9, 6: 9}), [vec({1: 1}), vec({1: 9})])
        assert got == {vec({1: 1, 5: 9, 6: 9}), vec({1: 9, 5: 9, 6: 9})}

    def test_identity_on_empty_pairs(self):
        family = {vec({1: 1}), vec({1: 2})}
        assert extend(vec({}), family) == family

    def test_empty_family(self):
        assert extend(vec({5: 9}), []) == frozenset()

    def test_domain_clash(self):
        with pytest.raises(ValueError, match="domain clash"):
            extend(vec({1: 9}), [vec({1: 1})])

    @given(bid_vectors(max_size=3), st.sets(bid_vectors(max_size=3), max_size=4))
    def test_cardinality_preserved(self, pairs, family):
        if any(pairs.dom & member.dom for member in family):
            return
        # unions with disjoint domains are injective in the family member
        assert len(extend(pairs, family)) == len(family)


@given(st.sets(st.integers(0, 10), max_size=6), rationals)
def test_bag_of_flat(ids, value):
    assert bag_of(flat(ids, value)) == BidMultiset.of([value] * len(ids))


class TestConstructorsKeepCanonicalOrder:
    """The raw constructors check nothing: every constructor that builds a
    vector or multiset must hand them ids in strictly increasing order and
    values in ascending order, whatever order its input comes in."""

    @given(st.lists(st.tuples(bidder_ids, rationals), max_size=6))
    def test_of_sorts_pairs_or_rejects_a_repeated_id(self, pairs):
        ids = [i for i, _ in pairs]
        if len(set(ids)) < len(ids):
            with pytest.raises(ValueError, match="is repeated"):
                BidVector.of(pairs)
        else:
            assert_canonical(BidVector.of(pairs))

    @given(bid_vectors(max_size=5), bid_vectors(max_size=4), rationals,
           st.sets(bidder_ids, max_size=4), st.data())
    def test_vector_operators(self, b, other, fill, gone, data):
        m = data.draw(st.sampled_from(sub_multisets(bag_of(b))))
        pairs = remove(other, b.dom)  # disjoint from b, ids interleaved with b's
        entries = data.draw(st.permutations(b.entries))
        as_json = {"bids": {str(i): format_rational(v) for i, v in entries}}
        family = full_family(b, fill)
        assert_canonical([
            remove(b, gone),
            flat(gone, fill),
            completion(b, m, fill),
            bid_vector_from_json(as_json),
            *family,
            *restrictions(b, m),
            *extend(pairs, family),
        ])
        # 13 and 14 lie above every id that bidder_ids draws
        adequate = build_adequate_set(b, fill, get_rule("constant:1"), 13, 14)
        assert_canonical(adequate.members)

    @given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=3), rationals)
    def test_multiset_operators(self, raw, extras, fill):
        m, other = BidMultiset.of(raw), BidMultiset.of(extras)
        assert_canonical([
            m,
            m + other,
            multiset_from_json([format_rational(v) for v in raw]),
            bag_of(BidVector.of(dict(enumerate(raw)))),
            *sub_multisets(m),
            *(m.remove_one(v) for v in m.distinct()),
        ])
        table, steps = build_payment_table(len(extras) + 2, fill, extras, get_rule("constant:1"))
        assert_canonical([key for key, _ in table.items()])
        assert_canonical([shape for shape, _ in steps])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.lists(bid_vectors(min_size=1, max_size=4), max_size=6))
    def test_witness_sets_and_balance_systems(self, k, extra):
        witness = vickrey_witness_set(k)
        assert_canonical(witness)
        system = build_balance_system([*witness, *extra], get_rule("constant:7/3"))
        assert_canonical(system.variables)
        assert_canonical(row.origin for row in system.rows)
        parsed = system_from_json(system_to_json(system))
        assert_canonical(parsed.variables)
        assert_canonical(row.origin for row in parsed.rows)
