"""Differential test: the shared member tables against the verifier they replaced.

``reference_verify_imbalance``, ``reference_build_adequate_set`` and
``reference_full_family`` are the previous ``verify_imbalance``,
``build_adequate_set`` and ``full_family``, kept here unchanged as the
references, apart from the names they call.  The old verifier built each
bidder's adequate set as its own full family and checked every member of
it; the current one keeps one ``AdequateSets`` table per (vector, fill),
builds each kept-position mask's member once and checks each member until
one set of the table has shown it flat.

Both must give equal reports (``to_json``, the witness set, the eta maps
and every hypothesis line) or raise the same error, on triples drawn with
repeated bids, fills held by several bidders, invalid partners and tags,
every built-in rule, and table rules that miss the bag of the flat
vector or of one member.  ``full_family`` must equal the old one, and each mask of a
``CompletionFamilies`` row must name exactly the positions that hold the
vector's own pair.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from fractions import Fraction
from typing import Mapping

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import assert_canonical, bag_rule
from imbalance import (
    RULE_F,
    RULE_G,
    AdequateSet,
    BidVector,
    CounterexampleTriple,
    HypothesisCheck,
    ImbalanceReport,
    PriceRule,
    RuleUndefinedError,
    build_adequate_set,
    check_flat_invariance,
    flat,
    full_family,
    get_rule,
    is_counterexample,
    remove,
    verify_imbalance,
    vickrey_instance,
)
from imbalance.bids import CompletionFamilies, _bid_groups
from imbalance.rationals import ensure_rational, format_rational


def reference_full_family(vector: BidVector, fill) -> frozenset[BidVector]:
    fill_bid = ensure_rational(fill)
    hashes = {id(fill_bid): hash(fill_bid)}
    for _, v in vector.entries:
        if id(v) not in hashes:
            hashes[id(v)] = hash(v)
    kept = vector.entries
    kept_hashes = [(i, hashes[id(v)]) for i, v in kept]
    rows = [([(i, fill_bid) for i, _ in kept], [(i, hashes[id(fill_bid)]) for i, _ in kept])]
    for positions in [g for v, g in _bid_groups(kept).items() if v != fill_bid]:
        grown = []
        for pairs, pair_hashes in rows:
            grown.append((pairs, pair_hashes))
            for pos in positions:
                pairs, pair_hashes = pairs[:], pair_hashes[:]
                pairs[pos], pair_hashes[pos] = kept[pos], kept_hashes[pos]
                grown.append((pairs, pair_hashes))
        rows = grown
    return frozenset([BidVector._hashed(tuple(pairs), tuple(pair_hashes))
                      for pairs, pair_hashes in rows])


def reference_build_adequate_set(
    base: BidVector, fill, rule: PriceRule, i1: int, i2: int
) -> AdequateSet:
    if i1 == i2 or i1 in base.dom or i2 in base.dom:
        raise ValueError(
            f"i1,i2 must be fresh and distinct: got {i1}, {i2} with base domain "
            f"{sorted(base.dom)}"
        )
    fill_bid = ensure_rational(fill)
    holders = BidVector.of([*base.entries, (i1, fill_bid), (i2, fill_bid)])
    members = reference_full_family(holders, fill_bid)
    invariant = check_flat_invariance(rule, members, holders.dom, fill_bid)
    return AdequateSet(members=members, flat_invariant=invariant)


def reference_verify_imbalance(
    rule: PriceRule,
    triple: CounterexampleTriple,
    selector_low: Mapping[int, int],
    selector_high: Mapping[int, int],
) -> ImbalanceReport:
    rule = replace(rule, fn=functools.cache(rule.fn))
    counter_ok = is_counterexample(triple, rule)  # both tags in use: at least two bidders
    counter = HypothesisCheck(
        "counterexample",
        counter_ok,
        "" if counter_ok else "triple does not separate the two rules on >= 2 bidders",
    )

    adequacy_checks: list[HypothesisCheck] = []
    eta_checks: list[HypothesisCheck] = []
    witness: set[BidVector] = {triple.b_low, triple.b_high}
    invariant: dict[tuple, bool] = {}  # (base, fill, i, partner) -> its set's flat-invariance
    residuals: list[Fraction | None] = []
    etas: list[dict[int, Fraction]] = []
    for label, vector, selector in (
        ("low", triple.b_low, selector_low),
        ("high", triple.b_high, selector_high),
    ):
        adequate_all = True
        eta: dict[int, Fraction] = {}
        for i in sorted(vector.dom):
            partner = selector.get(i)
            if partner == i or partner not in vector.dom:
                adequacy_checks.append(
                    HypothesisCheck(f"adequate[{label},{i}]", False, f"invalid partner {partner!r}")
                )
                eta_checks.append(HypothesisCheck(f"eta[{label},{i}]", False, "no valid partner"))
                adequate_all = False
                continue
            fill = vector[partner]
            key = (remove(vector, {i, partner}), fill, i, partner)
            ok = invariant.get(key)
            if ok is None:
                adequate = reference_build_adequate_set(key[0], fill, rule, i, partner)
                ok = invariant[key] = adequate.flat_invariant
                if ok:
                    witness |= adequate.members
            detail = "" if ok else f"rule not flat-invariant at fill {format_rational(fill)}"
            adequacy_checks.append(HypothesisCheck(f"adequate[{label},{i}]", ok, detail))
            adequate_all = adequate_all and ok

            tag = triple.h.get(i)
            try:
                eta[i] = rule(flat(vector.dom, fill))
                if tag not in (RULE_F, RULE_G):
                    ok, detail = False, f"invalid tag {tag!r}, expected {RULE_F!r} or {RULE_G!r}"
                else:
                    tagged_value = (rule if tag == RULE_F else triple.g)(vector)
                    ok = eta[i] == tagged_value
                    detail = "" if ok else (
                        f"flat value {format_rational(eta[i])} differs from "
                        f"tagged value {format_rational(tagged_value)}"
                    )
            except RuleUndefinedError as exc:
                ok, detail = False, str(exc)
            eta_checks.append(HypothesisCheck(f"eta[{label},{i}]", ok, detail))

        residual = None
        if adequate_all and vector and len(eta) == len(vector):
            try:
                residual = rule(vector) - sum(eta.values(), Fraction(0)) / len(vector)
            except RuleUndefinedError:  # no residual to report
                pass
        else:
            eta = {}
        residuals.append(residual)
        etas.append(eta)

    lhs, rhs = residuals
    hypotheses = (counter, *adequacy_checks, *eta_checks)
    met = all(c.passed for c in hypotheses)
    holds = (lhs != rhs) if met else None
    return ImbalanceReport(
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        eta_low=etas[0],
        eta_high=etas[1],
        witness_set=frozenset(witness),
        hypotheses=hypotheses,
    )


# --- helpers -----------------------------------------------------------

RULES = ["neg-second-price", "second-price", "first-price", "neg-first-price", "constant:7/3"]


def assert_same_report(rule, triple, selector_low, selector_high):
    """Both verifiers on the same input: equal reports, or the same error."""
    try:
        want = reference_verify_imbalance(rule, triple, selector_low, selector_high)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            verify_imbalance(rule, triple, selector_low, selector_high)
        assert str(got.value) == str(exc)
        return
    got = verify_imbalance(rule, triple, selector_low, selector_high)
    assert got.hypotheses == want.hypotheses
    assert (got.eta_low, got.eta_high) == (want.eta_low, want.eta_high)
    assert (got.lhs, got.rhs, got.holds) == (want.lhs, want.rhs, want.holds)
    assert got.witness_set == want.witness_set
    assert got.to_json() == want.to_json()
    assert_canonical(got.witness_set)


def completions(vector, fill):
    """Every vector a verifier on ``vector`` may evaluate at ``fill``: the
    full family of the vector with each bidder's bid set to the fill."""
    out = set()
    for i in vector.dom:
        out |= reference_full_family(
            BidVector(tuple((b, fill if b == i else v) for b, v in vector.entries)), fill)
    return out


# --- drawn triples -----------------------------------------------------

# repeated bids, so fills are often held by several bidders
POOL = [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(-1, 3)]
TAGS = [RULE_F, RULE_G, RULE_F, RULE_G, "X"]


@st.composite
def triples(draw):
    ids = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True))
    low = BidVector.of({i: draw(st.sampled_from(POOL)) for i in ids})
    high = BidVector.of({i: draw(st.sampled_from(POOL)) if draw(st.booleans()) else low[i]
                         for i in ids})
    h = {i: draw(st.sampled_from(TAGS)) for i in ids if draw(st.integers(0, 9))}
    g = get_rule(draw(st.sampled_from(RULES)))

    def selector():
        # mostly valid partners; sometimes the bidder itself, an outsider or none
        out = {}
        for i in ids:
            choice = draw(st.integers(0, 11))
            if choice == 0:
                out[i] = i
            elif choice == 1:
                out[i] = 99
            elif choice > 2 and len(ids) > 1:
                out[i] = draw(st.sampled_from([j for j in ids if j != i]))
        return out

    return CounterexampleTriple(low, high, h, g), selector(), selector()


@settings(max_examples=300, deadline=None)
@given(triples(), st.sampled_from(RULES))
def test_drawn_triples_match_reference(drawn, rule):
    triple, selector_low, selector_high = drawn
    assert_same_report(get_rule(rule), triple, selector_low, selector_high)


@settings(max_examples=150, deadline=None)
@given(triples(), st.sampled_from(RULES), st.data())
def test_table_rules_with_a_gap_match_reference(drawn, name, data):
    triple, selector_low, selector_high = drawn
    base = get_rule(name)
    vectors = {triple.b_low, triple.b_high}
    for vector in (triple.b_low, triple.b_high):
        for fill in set(vector.values()):
            vectors |= completions(vector, fill)
    table = {}
    for vector in vectors:
        try:
            table[vector] = base(vector)
        except RuleUndefinedError:
            pass
    assert_same_report(bag_rule("full", {v.values(): value for v, value in table.items()}),
                       triple, selector_low, selector_high)
    # a table that misses the bag of one flat vector, or of one member
    flats = sorted((v for v in table if len(set(v.values())) == 1), key=lambda b: b.entries)
    missing = data.draw(st.sampled_from(flats or sorted(table, key=lambda b: b.entries) or [None]))
    if missing is None:
        return
    others = sorted((v for v in table if v != missing), key=lambda b: b.entries)
    gone = data.draw(st.sampled_from([missing] + others))
    gap = {v.values(): value for v, value in table.items()
           if sorted(v.values()) != sorted(gone.values())}
    assert_same_report(bag_rule("gap", gap), triple, selector_low, selector_high)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("g", ["neg-first-price", "first-price", "constant:7/3"])
def test_stock_instance_matches_reference(rule, g):
    for n in range(1, 7):
        triple, j_low, j_high = vickrey_instance(n, g=get_rule(g))
        assert_same_report(get_rule(rule), triple, j_low, j_high)


def test_a_failed_set_is_checked_again_by_a_later_set():
    # on the low vector 1, 2, 3, 5 every bidder but 4 is filled at 5; the
    # skewed member keeps only bidder 3's bid, so it is in bidder 1's set
    # and bidder 2's, not in bidder 3's: bidder 1's set fails and shows
    # nothing flat, so bidder 2's set checks its members again
    triple, j_low, j_high = vickrey_instance(2)
    neg2 = get_rule("neg-second-price")
    table = {v: neg2(v) for vector in (triple.b_low, triple.b_high)
             for fill in set(vector.values()) for v in completions(vector, fill)}
    skew = BidVector.of({1: 5, 2: 5, 3: 3, 4: 5})
    table[skew] += 1
    rule = bag_rule("skew", {v.values(): value for v, value in table.items()})
    assert_same_report(rule, triple, j_low, j_high)
    report = verify_imbalance(rule, triple, j_low, j_high)
    failed = [c.name for c in report.hypotheses if not c.passed and c.name.startswith("adequate")]
    assert failed == ["adequate[low,1]", "adequate[low,2]"]
    assert skew not in report.witness_set


# --- full families and their masks -------------------------------------

bases = st.dictionaries(st.integers(0, 9), st.sampled_from(POOL), max_size=6).map(BidVector.of)
fills = st.sampled_from(POOL + [Fraction(7)]).flatmap(
    lambda f: st.sampled_from([f, str(f)] + ([int(f)] if f.denominator == 1 else []))
)


def assert_masks_name_own_pairs(vector, fill, filled):
    """Each member of the ``filled`` family holds the vector's own pair
    exactly at its mask's positions, and the fill everywhere else."""
    family = CompletionFamilies(vector, fill)
    masks = family.masks(filled)
    assert len(set(masks)) == len(masks)
    for mask in masks:
        member = family.members[mask]
        own = sum(1 << p for p, pair in enumerate(member.entries) if pair is vector.entries[p])
        assert own == mask
        assert member.entries == tuple(
            vector.entries[p] if mask >> p & 1 else (i, family.fill)
            for p, (i, _) in enumerate(vector.entries))
    holders = BidVector(tuple((i, family.fill if i == filled else v) for i, v in vector.entries))
    assert {family.members[mask] for mask in masks} == reference_full_family(holders, fill)


@settings(max_examples=300, deadline=None)
@given(bases, fills)
def test_full_family_matches_reference(base, fill):
    assert full_family(base, fill) == reference_full_family(base, fill)
    assert_masks_name_own_pairs(base, fill, None)
    for i in base.dom:
        assert_masks_name_own_pairs(base, fill, i)


@settings(max_examples=200, deadline=None)
@given(bases, fills)
def test_one_table_serves_every_bidder_in_turn(base, fill):
    """One table grows every bidder's family in turn, as ``AdequateSets``
    uses it: each call names the members a fresh table names, and a member
    grown from a parent that an earlier call built holds the hash of its
    own entries."""
    family = CompletionFamilies(base, fill)
    for filled in [None, *base.dom]:
        fresh = CompletionFamilies(base, fill)
        masks = family.masks(filled)
        assert masks == fresh.masks(filled)
        assert [family.members[m] for m in masks] == [fresh.members[m] for m in masks]
    for member in family.members.values():
        assert member.__dict__["_hash"] == hash(BidVector(member.entries))


@pytest.mark.parametrize("fill", [5, "5", Fraction(5), "10/2", 3])
def test_fill_equal_to_a_bid(fill):
    base = BidVector.of({1: 5, 2: 3, 4: 5, 6: 3})
    assert full_family(base, fill) == reference_full_family(base, fill)
    for filled in [None, *base.dom]:
        assert_masks_name_own_pairs(base, fill, filled)


def test_empty_vector():
    empty = BidVector.of({})
    assert full_family(empty, 0) == reference_full_family(empty, 0) == {empty}
    assert_masks_name_own_pairs(empty, 0, None)


@settings(max_examples=100, deadline=None)
@given(bases, fills, st.sampled_from(RULES), st.integers(10, 11), st.integers(12, 13))
def test_build_adequate_set_matches_reference(base, fill, rule, i1, i2):
    got = build_adequate_set(base, fill, get_rule(rule), i1, i2)
    assert got == reference_build_adequate_set(base, fill, get_rule(rule), i1, i2)
