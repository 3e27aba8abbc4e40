import copy
import itertools
import math
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import assert_canonical, bid_vectors, bidder_ids, multisets, rationals
from imbalance import bids
from imbalance import (
    BidMultiset,
    BidVector,
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
        # truthiness comes from the length: only the empty vector is false
        assert b and vec({1: 0}) and not vec({}) and not BidVector()

    def test_json_round_trip(self):
        b = vec({1: Fraction(-5, 4), 3: 10})
        assert bid_vector_to_json(b) == {"bids": {"1": "-5/4", "3": "10"}}
        assert bid_vector_from_json(bid_vector_to_json(b)) == b

    def test_kept_hash_is_the_hash_of_bid_hashes(self):
        text, exact = vec({1: "2/4", 3: -2}), vec({1: Fraction(1, 2), 3: Fraction(-2)})
        raw_int = BidVector(((1, Fraction(1, 2)), (3, -2)))  # an int bid next to its Fraction
        assert text == exact == raw_int
        for b in (text, exact, raw_int):
            assert hash(b) == hash(((1, hash(Fraction(1, 2))), (3, hash(-2))))
            assert hash(b) == hash(b)  # the kept value on the second ask
            assert b.__dict__["_hash"] == hash(b)
        assert hash(text) == hash(exact) == hash(raw_int)
        assert hash(vec({})) == hash(())

    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_copies_keep_equality_and_hash(self, hashed_first):
        b = vec({2: "7/3", 5: 1})
        if hashed_first:
            hash(b)
        for twin in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert twin == b and twin.entries == b.entries
            assert hash(twin) == hash(b) == hash(((2, hash(Fraction(7, 3))), (5, hash(1))))
            assert hash(twin) == hash(BidVector(twin.entries))  # fresh, nothing kept


class TestBidMultiset:
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

    @given(st.sets(bidder_ids, max_size=8), st.one_of(rationals, st.integers(-5, 5)))
    def test_stored_hash_is_the_vector_hash(self, ids, value):
        v = flat(ids, value)
        assert v.__dict__["_hash"] == hash(BidVector(v.entries))

    def test_hashes_its_bid_once(self, monkeypatch):
        calls = []
        original = Fraction.__hash__

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        bid = Fraction(7, 3)
        v = flat(range(1, 11), bid)
        hash(v)
        assert calls == [bid]


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
        counts = Counter(m.values)
        expected = math.prod(c + 1 for c in counts.values())
        subs = sub_multisets(m)
        assert len(subs) == expected
        assert len(set(subs)) == expected
        assert all(not Counter(s.values) - counts for s in subs)


# Repeated values, each as an ``int`` and as an equal ``Fraction``.
MIXED_POOL = [1, Fraction(1), 2, Fraction(2), Fraction(5, 2)]


@st.composite
def mixed_vectors(draw, max_size=5):
    """A raw vector over ``MIXED_POOL``, so ``int`` bids stay ``int``."""
    bids = draw(st.dictionaries(bidder_ids, st.sampled_from(MIXED_POOL), max_size=max_size))
    return BidVector(tuple(sorted(bids.items())))


def raw_bag(values):
    return BidMultiset(tuple(sorted(values)))


@settings(max_examples=200, deadline=None)
@given(mixed_vectors(), st.data())
def test_restrictions_match_brute_force(b, data):
    present = [v for v in MIXED_POOL if v in b.values()]  # either spelling of a held bid
    kept = data.draw(st.lists(st.sampled_from(present), max_size=len(b)) if b else st.just([]))
    extra = data.draw(st.lists(st.sampled_from(MIXED_POOL), max_size=1))  # maybe not a sub-multiset
    m = raw_bag(kept + extra)
    expected = [combo for combo in itertools.combinations(b.entries, len(m))
                if tuple(sorted(v for _, v in combo)) == m.values]
    got = restrictions(b, m)
    assert [r.entries for r in got] == expected
    assert all(v is b[i] for r in got for i, v in r.entries)  # the vector's own bids


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(MIXED_POOL), max_size=6))
def test_sub_multisets_match_brute_force(values):
    m = raw_bag(values)
    bags = {tuple(sorted(sub))
            for size in range(len(m) + 1) for sub in itertools.combinations(m.values, size)}
    largest_first = sorted(set(m.values), reverse=True)
    # the count of the smallest value varies fastest
    expected = sorted(bags, key=lambda sub: [Counter(sub)[v] for v in largest_first])
    assert [s.values for s in sub_multisets(m)] == expected


class TestRestrictions:
    def test_choice_between_equal_bids(self):
        assert restrictions(vec({1: 10, 2: 10, 3: 20}), bag(10)) == [
            vec({1: 10}),
            vec({2: 10}),
        ]

    def test_full_restriction_unique(self):
        b = vec({1: 1, 2: 2})
        assert restrictions(b, BidMultiset.of(b.values())) == [b]

    def test_empty_multiset(self):
        assert restrictions(vec({1: 1}), bag()) == [vec({})]

    def test_not_a_submultiset(self):
        assert restrictions(vec({1: 1}), bag(2)) == []


class TestCompletion:
    def test_fills_outside_kept(self):
        assert completion(vec({1: 10, 2: 20}), bag(20), 7) == vec({1: 7, 2: 20})

    def test_full_bag_keeps_everything(self):
        b = vec({1: 1, 2: 2, 3: 4})
        assert completion(b, BidMultiset.of(b.values()), 99) == b

    def test_empty_bag_fills_everything(self):
        b = vec({1: 1, 2: 2})
        assert completion(b, bag(), 9) == flat(b.dom, 9)

    def test_error_outside_bag(self):
        with pytest.raises(ValueError, match="not a sub-multiset"):
            completion(vec({1: 1}), bag(2), 9)

    @given(bid_vectors(max_size=5), rationals, st.data())
    def test_completion_bag_identity(self, b, fill, data):
        subs = sub_multisets(BidMultiset.of(b.values()))
        m = data.draw(st.sampled_from(subs))
        c = completion(b, m, fill)
        assert c.dom == b.dom
        assert BidMultiset.of(c.values()) == BidMultiset.of(list(m.values) + [fill] * (len(b) - len(m)))


    @given(st.data())
    def test_matches_first_restriction(self, data):
        # a small value pool forces repeated bids and fills that occur among them
        pool = st.sampled_from([Fraction(1), Fraction(2), Fraction(5, 2)])
        b = data.draw(st.dictionaries(bidder_ids, pool, max_size=6).map(BidVector.of))
        m = data.draw(st.sampled_from(sub_multisets(BidMultiset.of(b.values()))))
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
    assert BidMultiset.of(flat(ids, value).values()) == BidMultiset.of([value] * len(ids))


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
        m = data.draw(st.sampled_from(sub_multisets(BidMultiset.of(b.values()))))
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
        m = BidMultiset.of(raw)
        assert_canonical([
            m,
            multiset_from_json([format_rational(v) for v in raw]),
            BidMultiset.of(BidVector.of(dict(enumerate(raw))).values()),
            *sub_multisets(m),
        ])
        steps = build_payment_table(len(extras) + 2, fill, extras, get_rule("constant:1"))
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


class TestParseMemo:
    """Each table parses a distinct key once; a value that is not a ``str``
    is parsed at every occurrence, and a failed parse is never stored."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        canonical_id, ensure_rational = bids.canonical_id, bids.ensure_rational

        def counted_id(key, noun):
            counts[noun, key] += 1
            return canonical_id(key, noun)

        def counted_rational(value):
            counts["text", type(value).__name__, value] += 1
            return ensure_rational(value)

        monkeypatch.setattr(bids, "canonical_id", counted_id)
        monkeypatch.setattr(bids, "ensure_rational", counted_rational)
        return counts

    def test_each_key_and_text_is_parsed_once(self, counts):
        memo = bids.ParseMemo()
        witness = [
            {"bids": {"1": "1/2", "2": "2/4", "10": 1}},
            {"bids": {"1": "2/4", "2": 1, "10": "1"}},
            {"bids": {"2": "1/2", "10": 1, "1": "1"}},
        ]
        parsed = [bid_vector_from_json(entry, memo) for entry in witness]
        assert [v.values() for v in parsed] == [
            (Fraction(1, 2), Fraction(1, 2), 1), (Fraction(1, 2), 1, 1), (1, Fraction(1, 2), 1)]
        for key in ("1", "2", "10", "1", "10"):
            assert memo.indices[key] == int(key)
        assert counts == {
            ("bidder ids", "1"): 1, ("bidder ids", "2"): 1, ("bidder ids", "10"): 1,
            ("coefficient indices", "1"): 1, ("coefficient indices", "2"): 1,
            ("coefficient indices", "10"): 1,
            ("text", "str", "1/2"): 1, ("text", "str", "2/4"): 1, ("text", "str", "1"): 1,
            ("text", "int", 1): 3,
        }
        assert set(memo.texts) == {"1/2", "2/4", "1"}

    def test_a_failed_parse_raises_each_time_and_stores_nothing(self, counts):
        memo = bids.ParseMemo()
        for _ in range(2):
            with pytest.raises(ValueError, match="^zero denominator$"):
                bid_vector_from_json({"bids": {"1": "1/0"}}, memo)
            with pytest.raises(ValueError) as error:
                bid_vector_from_json({"bids": {"01": "1"}}, memo)
            assert str(error.value) == "bidder ids must be non-negative canonical decimals, got '01'"
        assert "1/0" not in memo.texts and "01" not in memo.bidders
        assert counts["text", "str", "1/0"] == 2
        assert counts["bidder ids", "01"] == 2
