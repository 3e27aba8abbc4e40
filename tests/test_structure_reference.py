"""Differential test: the counting structure check against the matching it replaced.

``reference_has_full_family_structure`` and ``_completions_realized`` are the
previous structure check and its helper, kept here as the reference.  The
reference enumerates the sub-multisets each member realizes and runs a
bipartite (Kuhn) matching of members to sub-multiset roles; ``is_adequate``
counts the kept non-fill bags instead.  It is run under ``constant:0``,
which is flat-invariant on every member, so its result is the structural
half alone.  Both must give the same boolean on every input, or raise the
same exception type.

Member sets are drawn from keep-or-fill choices over any holders, not only
the first ones: full families with arbitrary holder choices, fills equal to
a base bid, empty bases, dropped members, extra members that duplicate a
role, invalid intruders (a third value, a missing or extra bidder, a wrong
bid on i1 or i2), non-fresh or equal i1/i2, and fills spelled as int, str,
``Fraction`` or float.  Mutants of the counting check that this file
catches: ``<= c + 1`` weakened to ``== 1``, the fill not dropped from the
base's bag before the roles are counted, the keep-or-fill test on base
bidders dropped, the count of kept bags compared with ``<=`` instead of
``==``, the member length check dropped, and any bid allowed on i1/i2.
"""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from imbalance import (
    BidMultiset,
    BidVector,
    ensure_rational,
    format_rational,
    get_rule,
    is_adequate,
    remove,
    sub_multisets,
)


def _completions_realized(candidate: BidVector, base: BidVector, fill: Fraction):
    """All sub-multisets m of bag(base) for which ``candidate`` is an
    m-completion of ``base`` to ``fill``.

    A vector can realize several m at once when ``fill`` occurs among the
    base bids; it realizes none if it disagrees with both ``base`` and
    ``fill`` somewhere.
    """
    if candidate.dom != base.dom:
        return set()
    forced: list[int] = []
    optional: list[int] = []
    for bidder in base.dom:
        value = candidate[bidder]
        if value == base[bidder]:
            if value == fill:
                optional.append(bidder)  # may count as kept or as filled
            else:
                forced.append(bidder)  # must be part of the kept restriction
        elif value != fill:
            return set()
    realized = set()
    for k in range(len(optional) + 1):
        for chosen in itertools.combinations(optional, k):
            kept = list(forced) + list(chosen)
            realized.add(BidMultiset.of(base[i] for i in kept))
    return realized


def reference_has_full_family_structure(
    members, base: BidVector, fill, i1: int, i2: int
) -> bool:
    """Whether ``members`` is exactly some full family extended by i1, i2.

    Checks that each member carries ``fill`` on the fresh bidders, that
    stripping those leaves vectors realizing sub-multisets of bag(base),
    that every sub-multiset is realized, and that the members can be put
    in one-to-one correspondence with (a subset of) the sub-multisets: a
    set with more members than distinct roles cannot be a full family.
    Meant for externally supplied sets, like ``is_adequate``.
    """
    member_list = sorted(set(members), key=lambda b: b.entries)
    if not member_list:
        return False
    if i1 == i2 or i1 in base.dom or i2 in base.dom:
        return False
    fill_bid = ensure_rational(fill)
    full_dom = base.dom | {i1, i2}
    stripped = []
    for member in member_list:
        if member.dom != full_dom:
            return False
        if member[i1] != fill_bid or member[i2] != fill_bid:
            return False
        stripped.append(remove(member, {i1, i2}))

    targets = sub_multisets(BidMultiset.of(base.values()))
    index_of = {m: k for k, m in enumerate(targets)}
    options = []
    covered: set[int] = set()
    for vec in stripped:
        realized = _completions_realized(vec, base, fill_bid)
        if not realized:
            return False
        slots = sorted(index_of[m] for m in realized)
        options.append(slots)
        covered.update(slots)
    if len(covered) != len(targets):
        return False

    # Each member must play a distinct sub-multiset role (Kuhn matching).
    assigned: dict[int, int] = {}

    def assign(member_idx: int, seen: set[int]) -> bool:
        for slot in options[member_idx]:
            if slot in seen:
                continue
            seen.add(slot)
            if slot not in assigned or assign(assigned[slot], seen):
                assigned[slot] = member_idx
                return True
        return False

    return all(assign(idx, set()) for idx in range(len(stripped)))


def structure(members, base, fill, i1, i2):
    """``is_adequate`` under a rule that every member passes."""
    return is_adequate(members, base, fill, get_rule("constant:0"), i1, i2)


def outcome(check, members, base, fill, i1, i2):
    """The boolean ``check`` returns, or the type of what it raises."""
    try:
        return check(members, base, fill, i1, i2)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


def assert_same(members, base, fill, i1, i2):
    members = list(members)
    want = outcome(reference_has_full_family_structure, members, base, fill, i1, i2)
    got = outcome(structure, members, base, fill, i1, i2)
    assert got == want, (members, base, fill, i1, i2)
    return want


# Few distinct bids, so repeats and fills equal to a base bid are common.
POOL = [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(4)]
FRESH = (20, 21)


@st.composite
def spelled(draw, value: Fraction):
    """``value`` as a caller may pass it as a fill.  A float is drawn
    rarely, as every case that reads it ends in the same TypeError."""
    if draw(st.integers(0, 19)) == 7:  # not a boundary, which is drawn often
        return float(value)
    out = [value, format_rational(value)]
    if value.denominator == 1:
        out.append(int(value))
    return draw(st.sampled_from(out))


def member_from(base: BidVector, kept, fill: Fraction, i1, i2) -> BidVector:
    """Keep the base bids of ``kept``, fill the other base bidders and i1, i2."""
    entries = {i: (v if i in kept else fill) for i, v in base.entries}
    entries[i1] = fill
    entries[i2] = fill
    return BidVector.of(entries)


@st.composite
def random_full_family(draw, base, fill, i1, i2):
    """A full family whose kept holders of each bid are any holders.

    Now and then a kept bag gets a second member with other holders, which
    a fill among the base bids lets play another role.
    """
    groups: dict[Fraction, list[int]] = {}
    for i, v in base.entries:
        if v != fill:
            groups.setdefault(v, []).append(i)
    members = []
    for counts in itertools.product(*(range(len(g) + 1) for g in groups.values())):
        for _ in range(draw(st.sampled_from([1, 1, 2]))):
            kept = set()
            for holders, count in zip(groups.values(), counts):
                kept.update(draw(st.permutations(holders))[:count])
            members.append(member_from(base, kept, fill, i1, i2))
    return members


@st.composite
def intruder(draw, base, fill, i1, i2):
    """A member that no full family of (base, fill, i1, i2) contains."""
    kept = draw(st.sets(st.sampled_from(list(base)))) if base else set()
    entries = dict(member_from(base, kept, fill, i1, i2).entries)
    kind = draw(st.sampled_from(["third", "missing", "extra", "i1/i2"]))
    if kind == "third" and base:
        entries[draw(st.sampled_from(list(base)))] = Fraction(99)
    elif kind == "missing":
        del entries[draw(st.sampled_from(sorted(entries)))]
    elif kind == "extra":
        entries[30] = fill
    else:  # a wrong bid on i1 or i2, also for a "third" value on an empty base
        entries[draw(st.sampled_from([i1, i2]))] = draw(
            st.sampled_from([v for v in POOL + [Fraction(99)] if v != fill])
        )
    return BidVector.of(entries)


@st.composite
def structure_cases(draw):
    ids = draw(st.lists(st.integers(0, 6), unique=True, max_size=4))
    base = BidVector.of({i: draw(st.sampled_from(POOL)) for i in ids})
    fill_bid = draw(st.sampled_from(POOL + [Fraction(7, 3)]))
    if draw(st.integers(0, 9)) == 0:
        i1, i2 = draw(st.integers(0, 7)), draw(st.integers(0, 7))  # maybe not fresh
    else:
        i1, i2 = FRESH
    if draw(st.booleans()):
        members = draw(random_full_family(base, fill_bid, i1, i2))
        if draw(st.booleans()):  # drop some roles
            members = [m for m in members if draw(st.integers(0, 3))]
    else:
        members = []
    for _ in range(draw(st.integers(0, 3))):  # extra keep-or-fill members
        kept = draw(st.sets(st.sampled_from(ids))) if ids else set()
        members.append(member_from(base, kept, fill_bid, i1, i2))
    if draw(st.integers(0, 4)) == 0:
        members.append(draw(intruder(base, fill_bid, i1, i2)))
    fill = draw(spelled(fill_bid))
    return draw(st.permutations(members)), base, fill, i1, i2


@settings(max_examples=300, deadline=None)
@given(structure_cases())
def test_random_member_sets_match_reference(case):
    assert_same(*case)


def family(base, fill, kept_sets):
    """One member per set of kept base bidders, with i1, i2 = 20, 21."""
    return [member_from(base, kept, fill, *FRESH) for kept in kept_sets]


def test_full_families_with_any_holders_are_accepted():
    base = BidVector.of({1: 3, 2: 3, 3: 5})
    kept_sets = [set(), {1}, {2, 1}, {3}, {2, 3}, {1, 2, 3}]
    assert assert_same(family(base, Fraction(9), kept_sets), base, 9, 20, 21) is True
    other = [set(), {2}, {2, 1}, {3}, {1, 3}, {1, 2, 3}]
    assert assert_same(family(base, Fraction(9), other), base, 9, 20, 21) is True


def test_each_base_bid_equal_to_the_fill_adds_a_role_per_kept_bag():
    # kept bag {3} has two members: with one base bid at the fill, the
    # first plays {3} and the second {3, 0}; without it there is one role
    base = BidVector.of({1: 3, 2: 3, 3: 0})
    kept_sets = [set(), {1}, {2}, {1, 2}]
    assert assert_same(family(base, Fraction(0), kept_sets), base, 0, 20, 21) is True
    base = BidVector.of({1: 3, 2: 3, 3: 5})
    assert assert_same(family(base, Fraction(5), kept_sets), base, "5", 20, 21) is True
    base = BidVector.of({1: 3, 2: 3})
    assert assert_same(family(base, Fraction(0), kept_sets), base, 0, 20, 21) is False


def test_dropped_role_is_rejected():
    base = BidVector.of({1: 3, 2: 5})
    kept_sets = [set(), {1}, {2}]
    assert assert_same(family(base, Fraction(0), kept_sets), base, 0, 20, 21) is False


@pytest.mark.parametrize("intruder", [
    {1: 3, 2: 0, 21: 0},  # bidder 20 missing
    {1: 3, 2: 0, 20: 0, 21: 0, 30: 0},  # an extra bidder
    {1: 7, 2: 0, 20: 0, 21: 0},  # a third value
    {1: 3, 2: 0, 20: 3, 21: 0},  # a base bid on i1
])
def test_an_intruder_in_a_full_family_is_rejected(intruder):
    base = BidVector.of({1: 3, 2: 0})
    members = family(base, Fraction(0), [set(), {1}]) + [BidVector.of(intruder)]
    assert assert_same(members, base, 0, 20, 21) is False


def test_empty_base():
    base = BidVector.of({})
    member = BidVector.of({20: 7, 21: 7})
    assert assert_same([member], base, 7, 20, 21) is True
    assert assert_same([BidVector.of({20: 7, 21: 6})], base, 7, 20, 21) is False


def test_empty_member_set_is_rejected_before_the_fill_is_read():
    base = BidVector.of({1: 3})
    assert assert_same([], base, 0.5, 20, 21) is False


@pytest.mark.parametrize("i1,i2", [(1, 21), (20, 1), (20, 20)])
def test_non_fresh_or_equal_ids_are_rejected_before_the_fill_is_read(i1, i2):
    base = BidVector.of({1: 3})
    member = member_from(base, {1}, Fraction(0), i1, i2)
    assert assert_same([member], base, 0.5, i1, i2) is False


@pytest.mark.parametrize("fill", [0.5, 2.0, None, "x/"])
def test_unreadable_fill_raises_the_same_error(fill):
    base = BidVector.of({1: 3})
    member = member_from(base, {1}, Fraction(1, 2), 20, 21)
    assert isinstance(assert_same([member], base, fill, 20, 21), type)
