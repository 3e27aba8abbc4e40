"""Symmetric payment machinery: adequate sets and the values they force.

A symmetric payment rule P assigns an amount to the *bag* of the other
participants' bids.  Imposing the balance equation

    sum over i in dom(b) of P(bag(b - i))  =  rule(b)

on a structured finite set of vectors pins P down on specific multisets.
The structured sets are the *adequate sets*: adjoin two fresh bidders
bidding ``fill`` to a base vector, take the full family of
``fill``-completions of that one vector (its fill-holders read ``fill`` in
every member), and require the rule to be flat-invariant on the result (it
must equal its value on the all-``fill`` vector everywhere).  Balance
on such a set forces

    P(bag(base) + {fill})  =  rule(all-fill vector) / (2 + |dom(base)|),

which this module computes directly (``forced_payment``) and, through
it, summed per bidder for a whole vector (``forced_payment_sum``).
Whether the rule is flat-invariant on a set, a rule undefined on some
member or on the flat vector counting as not, is decided in one place,
``rules.check_flat_invariance``: ``build_adequate_set`` records its answer
and ``forced_payment`` reads it.  Adequate sets are built in one way,
through ``AdequateSets``: the sets of one vector and fill share one member
table, keyed by kept-position mask, so each member is built once and
checked until one set has shown it flat.  ``build_adequate_set`` is its
one-set case, and ``witness.verify_imbalance`` keeps one table per vector
and fill.  ``is_adequate`` checks both adequacy
predicates, structure and flat-invariance, on a set supplied from
outside.  Along the all-equal-bids iteration (``build_payment_table``)
every forced value is the same closed form f / N, once the rule is
checked to keep its flat value f on each N-bidder vector visited, so that
function returns only the iteration's steps and records no values.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .bids import (
    BidMultiset,
    BidVector,
    CompletionFamilies,
    flat,
    remove,
)
from .rationals import ensure_rational, format_rational
from .rules import PriceRule, RuleUndefinedError, check_flat_invariance


class AdequacyError(ValueError):
    """An adequate-set hypothesis needed for a forced value does not hold."""


@dataclass(frozen=True)
class AdequateSet:
    """Completion family with two fresh fill bidders.

    ``flat_invariant`` records whether the rule is defined and constant at
    its flat value across the members; ``check_flat_invariance`` decides
    it at build time, and it is never assumed.  The fill is not kept: every
    caller already holds it.
    """

    members: frozenset[BidVector]
    flat_invariant: bool


class AdequateSets:
    """The adequate sets of one vector and fill, which share one member
    table: the set of bidder i is the full family of the vector with i's
    bid set to the fill.

    Bidder i reads the fill in every member of its set, so a member of any
    set of the table is fixed by the positions that keep their own bid:
    it is the vector with every other position set to the fill.  The
    members are therefore keyed by kept-position mask, and each is built
    once, by ``CompletionFamilies``; which masks a set holds is decided
    per set, by the first-holders rule, so repeated bids are covered too.
    Every set of the table has the same flat vector, the fill on the
    vector's domain, so a member shown flat for one set is flat for every
    set: ``decide`` passes ``check_flat_invariance`` only the members no
    earlier set has shown flat, and ``flat_masks`` gathers those that
    passed.  A set that fails shows nothing flat, since the check stops at
    its first failing member, and a later set checks those members again.
    So ``flat_masks`` is the union of the masks of the sets that passed.
    """

    def __init__(self, vector: BidVector, fill, rule: PriceRule):
        self.vector = vector
        self.family = CompletionFamilies(vector, fill)
        self.flat_masks: set[int] = set()
        self._rule = rule

    def decide(self, bidder: int) -> bool:
        """Whether the rule is flat-invariant on ``bidder``'s set."""
        shown = self.flat_masks
        fresh = [mask for mask in self.family.masks(bidder) if mask not in shown]
        members = self.family.members
        invariant = check_flat_invariance(
            self._rule, [members[mask] for mask in fresh], self.vector.dom, self.family.fill)
        if invariant:
            shown.update(fresh)
        return invariant


def build_adequate_set(
    base: BidVector, fill, rule: PriceRule, i1: int, i2: int
) -> AdequateSet:
    """The full family of base + {i1: fill, i2: fill}: every fill-holder
    reads ``fill`` in every member, so this is the family of ``base`` with
    fresh bidders i1, i2 adjoined at ``fill``.  It is the one-set case of
    ``AdequateSets``, on that vector with i1 as the bidder set to the
    fill, which it already bids."""
    if i1 == i2 or i1 in base.dom or i2 in base.dom:
        raise ValueError(
            f"i1,i2 must be fresh and distinct: got {i1}, {i2} with base domain "
            f"{sorted(base.dom)}"
        )
    fill_bid = ensure_rational(fill)
    table = AdequateSets(BidVector.of([*base.entries, (i1, fill_bid), (i2, fill_bid)]),
                         fill_bid, rule)
    invariant = table.decide(i1)
    return AdequateSet(members=frozenset(table.family.members.values()), flat_invariant=invariant)


def is_adequate(
    members: Iterable[BidVector], base: BidVector, fill, rule: PriceRule, i1: int, i2: int
) -> bool:
    """Both adequacy predicates: family structure and flat-invariance.

    For externally supplied sets only: ``build_adequate_set`` constructs
    the structure and records flat-invariance itself, so its output needs
    no re-check.

    The structure is checked by counting, not by matching members to
    sub-multiset roles.  A valid member reads ``fill`` on i1 and i2 and
    the base bid or ``fill`` on each base bidder.  With K the bag of its
    kept non-fill bids and c the number of base bids equal to ``fill``, it
    realizes the sub-multisets K + {fill}^j of bag(base) for j = 0..c, so
    the matching of members to roles splits into complete blocks of c + 1
    roles, one per K.  Hence ``members`` is exactly some full family
    extended by i1, i2 when every member is valid, every K is present (the
    product of (multiplicity + 1) over non-fill base bids) and no K occurs
    more than c + 1 times.  Only then is the rule evaluated.
    """
    member_set = frozenset(members)
    if not member_set or i1 == i2 or i1 in base.dom or i2 in base.dom:
        return False
    fill_bid = ensure_rational(fill)
    layout = dict(base.entries)
    layout[i1] = layout[i2] = fill_bid
    kept_bags: Counter[tuple[Fraction, ...]] = Counter()
    for member in member_set:
        if len(member) != len(layout) or any(
            i not in layout or (v != fill_bid and v != layout[i]) for i, v in member.entries
        ):
            return False
        kept_bags[tuple(sorted(v for v in member.values() if v != fill_bid))] += 1
    non_fill = Counter(v for v in base.values() if v != fill_bid)
    roles_per_bag = len(base) - sum(non_fill.values()) + 1
    if (len(kept_bags) != math.prod(m + 1 for m in non_fill.values())
            or max(kept_bags.values()) > roles_per_bag):
        return False
    return check_flat_invariance(rule, member_set, layout.keys(), fill_bid)


def forced_payment(base: BidVector, fill, rule: PriceRule, i1: int, i2: int) -> Fraction:
    """Payment value forced on bag(base) + {fill} by balance on an adequate set.

    When the rule is flat-invariant on the adequate set built from
    (base, fill, i1, i2), imposing balance on every member pins the
    symmetric payment for bag(base) + {fill} to

        rule(flat vector at fill on {i1, i2} and dom(base)) / (2 + |dom(base)|).

    The flat vector is evaluated once.  Flat-invariance is decided by
    ``build_adequate_set``; only when it fails are the members scanned, in
    ``entries`` order, for the first one where the rule is undefined or
    differs from its flat value, and AdequacyError names it, so a set not
    flat-invariant never returns a value.
    """
    adequate = build_adequate_set(base, fill, rule, i1, i2)
    try:
        target = rule(flat(base.dom | {i1, i2}, fill))
        if not adequate.flat_invariant:
            # the rule is pure, so the member that failed the check fails again
            member = next(m for m in sorted(adequate.members, key=lambda b: b.entries)
                          if rule(m) != target)
            raise AdequacyError(
                f"adequate-set hypotheses fail: {rule.name!r} gives "
                f"{format_rational(rule(member))} on {member!r} but "
                f"{format_rational(target)} on the flat vector"
            )
    except RuleUndefinedError as exc:
        raise AdequacyError(f"adequate-set hypotheses fail: {exc}") from exc
    return target / (2 + len(base))


def build_payment_table(
    n_bidders: int, fill, extras: Iterable[object], rule: PriceRule
) -> tuple[tuple[BidMultiset, Fraction], ...]:
    """Steps of the all-equal-bids iteration, in closed form.

    Starting from the vector where all N = ``n_bidders`` bid ``fill``,
    the iteration replaces bids by the ``extras`` one at a time and
    re-imposes balance, which pins each new shape in turn; the rule must
    keep its flat value f on every vector visited (checked at each step).
    The shapes pinned are

        m + {fill repeated N - 1 - |m|}   for every m <= bag(extras),

    and every one of them is pinned to f / N.  By induction on |m|: on
    the vector keeping m, the N - |m| fill bidders each see the shape of
    m, and each of the |m| others the shape of m less its own bid,
    already f / N, so balance reads (N - |m|) * P + |m| * f / N = f,
    and P = f / N.  The returned steps pair the shape reached after
    introducing each extra bid with its elimination coefficient (the
    payment divided by f), 1/N every time.
    ``tests/test_payment_table_reference.py`` keeps the iteration itself,
    with its payment table, as the reference this closed form must match.

    Visited vectors are indexed by count tuples c over the sorted distinct
    extras, in the key order (|c|, -c), which is the canonical order of
    the multisets they count, so the first vector to fail keeps that
    order.  A rule undefined on a visited vector fails the check as
    AdequacyError.
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
    values = sorted(set(extra_bids))
    lattice = sorted(
        itertools.product(*(range(extra_bids.count(v) + 1) for v in values)),
        key=lambda c: (sum(c), tuple(-x for x in c)),
    )
    try:
        flat_value = rule(flat(ids, fill_bid))
        for counts in lattice:
            kept = [v for v, c in zip(values, counts) for _ in range(c)]
            n_fill = n_bidders - len(kept)
            value = rule(BidVector(tuple(zip(ids, kept + [fill_bid] * n_fill))))
            if value != flat_value:
                raise AdequacyError(
                    f"flat-invariance fails at iteration step {BidMultiset(tuple(kept))!r}: "
                    f"{rule.name!r} gives {format_rational(value)} there but "
                    f"{format_rational(flat_value)} on the flat vector"
                )
    except RuleUndefinedError as exc:
        raise AdequacyError(f"flat-invariance fails: {exc}") from exc

    coefficient = Fraction(1, n_bidders)
    return tuple(
        (BidMultiset(tuple(sorted(extra_bids[:j] + [fill_bid] * (n_bidders - 1 - j)))),
         coefficient)
        for j in range(len(extra_bids) + 1)
    )


def forced_payment_sum(
    vector: BidVector, rule: PriceRule, selector: Mapping[int, int]
) -> tuple[Fraction, dict[int, Fraction]]:
    """Sum of the forced per-bidder payments for a whole vector.

    ``selector`` picks for each bidder i a distinct partner j(i), and
    ``forced_payment`` on (vector - {i, j(i)}, vector[j(i)], i, j(i))
    gives P(bag(vector - i)), rule(flat vector at vector[j(i)]) / |dom|.
    Returns the sum of those payments together with the per-bidder map
    eta of the flat values, each payment times |dom|.  Raises when a
    selector is invalid or an adequacy hypothesis fails, identifying the
    bidder.
    """
    if not vector:
        raise ValueError("bid vector must be nonempty")
    payments: dict[int, Fraction] = {}
    for i in sorted(vector.dom):
        partner = selector.get(i)
        if partner == i or partner not in vector.dom:
            raise ValueError(f"invalid selector for bidder {i}: "
                             "must name another bidder in the domain")
        try:
            payments[i] = forced_payment(
                remove(vector, {i, partner}), vector[partner], rule, i, partner)
        except AdequacyError as exc:
            raise AdequacyError(
                f"adequacy fails for bidder {i} with partner {partner}: {exc}") from exc
    total = sum(payments.values(), Fraction(0))
    return total, {i: p * len(vector) for i, p in payments.items()}
