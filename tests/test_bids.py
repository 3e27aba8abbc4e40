from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import bid_vectors, bidder_ids, multisets, rationals
from imbalance import (
    BidMultiset,
    BidVector,
    bag_of,
    bid_vector_from_json,
    bid_vector_to_json,
    completion,
    extend,
    flat,
    full_family,
    multiset_from_json,
    multiset_to_json,
    preimage,
    remove,
    restrictions,
    sub_multisets,
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


class TestPreimage:
    def test_scan(self):
        assert preimage(vec({1: 1, 2: 2, 3: 4}), {2, 4}) == {2, 3}

    def test_empty_values(self):
        assert preimage(vec({1: 1, 2: 2}), set()) == frozenset()

    def test_constant_vector(self):
        assert preimage(vec({1: 5, 2: 5}), {5}) == {1, 2}


class TestFlat:
    def test_basic(self):
        assert flat({1, 2, 3}, 4) == vec({1: 4, 2: 4, 3: 4})

    def test_empty(self):
        assert flat(set(), 9) == vec({})

    def test_singleton(self):
        assert flat({5}, Fraction(-1, 2)) == vec({5: Fraction(-1, 2)})


class TestFreshBidders:
    def test_allocates_above_max(self):
        from imbalance import fresh_bidders

        assert fresh_bidders(vec({3: 1, 7: 2})) == (8, 9)
        assert fresh_bidders(vec({}), count=3) == (1, 2, 3)


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
        assert family.members == {
            vec({1: 9, 2: 9}),
            vec({1: 1, 2: 9}),
            vec({1: 9, 2: 2}),
            vec({1: 1, 2: 2}),
        }

    def test_empty_base(self):
        assert full_family(vec({}), 9).members == {vec({})}

    def test_coinciding_completions_merge(self):
        family = full_family(vec({3: 5}), 5)
        assert family.members == {vec({3: 5})}
        assert len(family.indexed) == 2

    @given(bid_vectors(max_size=4), rationals)
    def test_members_preserve_domain(self, b, fill):
        family = full_family(b, fill)
        assert len(family.indexed) == len(sub_multisets(bag_of(b)))
        assert all(member.dom == b.dom for member in family.members)


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
