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

which this module computes directly (``forced_payment``), via the
all-equal-bids iteration (``build_payment_table``), and summed per bidder
for a whole vector (``forced_payment_sum``).  The linear-feasibility
module re-derives the same values from the raw equations as an
independent oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .bids import (
    BidMultiset,
    BidVector,
    flat,
    full_family,
    multiset_to_json,
    remove,
    sub_multisets,
)
from .rationals import ensure_rational, format_rational
from .rules import PriceRule, RuleArityError, RuleDomainError, check_flat_invariance


class AdequacyError(ValueError):
    """An adequate-set hypothesis needed for a forced value does not hold."""


class PaymentLookupError(KeyError):
    """The payment table holds no value for the requested multiset."""


class PaymentTable:
    """Partial map BidMultiset -> Fraction; missing keys are errors.

    The symmetric payment rule is only pinned down where balance on some
    adequate set pins it down, so lookups outside the recorded shapes
    raise instead of defaulting to zero.
    """

    def __init__(self, values: Mapping[BidMultiset, object] | None = None):
        pairs = (values or {}).items()
        self._values: dict[BidMultiset, Fraction] = {k: ensure_rational(v) for k, v in pairs}

    def record(self, multiset: BidMultiset, value) -> None:
        val = ensure_rational(value)
        old = self._values.get(multiset)
        if old is not None and old != val:
            raise ValueError(
                f"conflicting payment for {multiset!r}: "
                f"{format_rational(old)} vs {format_rational(val)}"
            )
        self._values[multiset] = val

    def value(self, multiset: BidMultiset) -> Fraction:
        try:
            return self._values[multiset]
        except KeyError:
            raise PaymentLookupError(f"no payment value recorded for {multiset!r}") from None

    def items(self) -> list[tuple[BidMultiset, Fraction]]:
        return sorted(self._values.items(), key=lambda kv: kv[0].canonical_key())

    def to_json(self) -> list[dict]:
        return [
            {"multiset": multiset_to_json(m), "value": format_rational(v)}
            for m, v in self.items()
        ]


@dataclass(frozen=True)
class AdequateSet:
    """Completion family with two fresh fill bidders.

    ``flat_invariant`` records whether the rule is constant at its flat
    value across the members; it is checked at build time, never assumed.
    """

    members: frozenset[BidVector]
    fill: Fraction
    flat_invariant: bool


def build_adequate_set(
    base: BidVector, fill, rule: PriceRule, i1: int, i2: int
) -> AdequateSet:
    """The full family of base + {i1: fill, i2: fill}: every fill-holder
    reads ``fill`` in every member, so this is the family of ``base`` with
    fresh bidders i1, i2 adjoined at ``fill``."""
    if i1 == i2 or i1 in base.dom or i2 in base.dom:
        raise ValueError(
            f"i1,i2 must be fresh and distinct: got {i1}, {i2} with base domain "
            f"{sorted(base.dom)}"
        )
    fill_bid = ensure_rational(fill)
    holders = BidVector.of([*base.entries, (i1, fill_bid), (i2, fill_bid)])
    members = full_family(holders, fill_bid)
    try:
        invariant = check_flat_invariance(rule, members, holders.dom, fill_bid)
    except (RuleArityError, RuleDomainError):
        invariant = False
    return AdequateSet(members=members, fill=fill_bid, flat_invariant=invariant)


def has_full_family_structure(
    members: Iterable[BidVector], base: BidVector, fill, i1: int, i2: int
) -> bool:
    """Whether ``members`` is exactly some full family extended by i1, i2.

    A valid member reads ``fill`` on i1 and i2 and the base bid or
    ``fill`` on each base bidder.  With K the bag of its kept non-fill
    bids and c the number of base bids equal to ``fill``, it realizes the
    sub-multisets K + {fill}^j of bag(base) for j = 0..c, so the matching
    of members to sub-multiset roles splits into complete blocks of c + 1
    roles, one per K.  Hence: every member valid, every K present (the
    product of (multiplicity + 1) over non-fill base bids), and no K more
    than c + 1 times.  Meant for externally supplied sets, like ``is_adequate``.
    """
    member_set = set(members)
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
    return (len(kept_bags) == math.prod(m + 1 for m in non_fill.values())
            and max(kept_bags.values()) <= roles_per_bag)


def is_adequate(
    members: Iterable[BidVector], base: BidVector, fill, rule: PriceRule, i1: int, i2: int
) -> bool:
    """Both adequacy predicates: family structure and flat-invariance.

    For externally supplied sets only: ``build_adequate_set`` constructs
    the structure and records flat-invariance itself, so its output needs
    no re-check.
    """
    member_set = frozenset(members)
    if not has_full_family_structure(member_set, base, fill, i1, i2):
        return False
    try:
        return check_flat_invariance(rule, member_set, base.dom | {i1, i2}, fill)
    except (RuleArityError, RuleDomainError, ValueError):
        return False


def forced_payment(base: BidVector, fill, rule: PriceRule, i1: int, i2: int) -> Fraction:
    """Payment value forced on bag(base) + {fill} by balance on an adequate set.

    When the rule is flat-invariant on the adequate set built from
    (base, fill, i1, i2), imposing balance on every member pins the
    symmetric payment for bag(base) + {fill} to

        rule(flat vector at fill on {i1, i2} and dom(base)) / (2 + |dom(base)|).

    Verifies its own hypotheses and raises AdequacyError naming the first
    offending member when flat-invariance fails.
    """
    adequate = build_adequate_set(base, fill, rule, i1, i2)
    reference = flat(base.dom | {i1, i2}, adequate.fill)
    if not adequate.flat_invariant:
        try:
            target = rule(reference)
            for member in sorted(adequate.members, key=lambda b: b.entries):
                if rule(member) != target:
                    raise AdequacyError(
                        f"adequate-set hypotheses fail: {rule.name!r} gives "
                        f"{format_rational(rule(member))} on {member!r} but "
                        f"{format_rational(target)} on the flat vector"
                    )
        except (RuleArityError, RuleDomainError) as exc:
            raise AdequacyError(f"adequate-set hypotheses fail: {exc}") from exc
        raise AdequacyError("adequate-set hypotheses fail: rule not flat-invariant")
    return rule(reference) / (2 + len(base))


def build_payment_table(
    n_bidders: int, fill, extras: Iterable[object], rule: PriceRule
) -> tuple[PaymentTable, tuple[tuple[BidMultiset, Fraction], ...]]:
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

    table = PaymentTable()
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
                smaller = m.remove_one(v) + BidMultiset.of([fill_bid] * n_fill)
                remainder -= m.count(v) * table.value(smaller)
            shape = m + BidMultiset.of([fill_bid] * (n_fill - 1))
            table.record(shape, remainder / n_fill)
    except (RuleArityError, RuleDomainError) as exc:
        raise AdequacyError(f"flat-invariance fails: {exc}") from exc

    steps = []
    for j in range(len(extra_bids) + 1):
        prefix = BidMultiset.of(extra_bids[:j])
        shape = prefix + BidMultiset.of([fill_bid] * (n_bidders - 1 - j))
        steps.append((shape, coefficients[j]))
    return table, tuple(steps)


def forced_payment_sum(
    vector: BidVector, rule: PriceRule, selector: Mapping[int, int]
) -> tuple[Fraction, dict[int, Fraction]]:
    """Sum of the forced per-bidder payments for a whole vector.

    ``selector`` picks for each bidder i a distinct partner j(i); balance
    on the adequate set built from (vector - {i, j(i)}, vector[j(i)], i,
    j(i)) forces P(bag(vector - i)).  Summed over the domain this yields

        (1 / |dom|) * sum over i of rule(flat vector at vector[j(i)]),

    returned together with the per-bidder map eta of those flat values.
    Each adequate set is built once; its structure holds by construction
    and its recorded ``flat_invariant`` decides adequacy.  Raises when a
    selector is invalid or an adequacy hypothesis fails, identifying the
    bidder.
    """
    if not vector:
        raise ValueError("bid vector must be nonempty")
    eta: dict[int, Fraction] = {}
    for i in sorted(vector.dom):
        partner = selector.get(i)
        if partner is None or partner == i or partner not in vector.dom:
            raise ValueError(
                f"invalid selector for bidder {i}: must name another bidder in the domain"
            )
        fill_bid = vector[partner]
        adequate = build_adequate_set(remove(vector, {i, partner}), fill_bid, rule, i, partner)
        if not adequate.flat_invariant:
            raise AdequacyError(
                f"adequacy fails for bidder {i}: rule {rule.name!r} is not "
                f"flat-invariant on the set built with partner {partner}"
            )
        eta[i] = rule(flat(vector.dom, fill_bid))
    total = sum(eta.values(), Fraction(0)) / len(vector)
    return total, eta
