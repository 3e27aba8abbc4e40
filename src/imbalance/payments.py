"""Symmetric payment machinery: adequate sets and the values they force.

A symmetric payment rule P assigns an amount to the *bag* of the other
participants' bids.  Imposing the balance equation

    sum over i in dom(b) of P(bag(b - i))  =  rule(b)

on a structured finite set of vectors pins P down on specific multisets.
The structured sets are the *adequate sets*: take a full family of
``fill``-completions of a base vector, adjoin two fresh bidders both
bidding ``fill``, and require the rule to be flat-invariant on the result
(it must equal its value on the all-``fill`` vector everywhere).  Balance
on such a set forces

    P(bag(base) + {fill})  =  rule(all-fill vector) / (2 + |dom(base)|),

which this module computes directly (``forced_payment``), via the
all-equal-bids iteration (``build_payment_table``), and summed per bidder
for a whole vector (``forced_payment_sum``).  The linear-feasibility
module re-derives the same values from the raw equations as an
independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .bids import (
    BidMultiset,
    BidVector,
    bag_of,
    extend,
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
        self._values: dict[BidMultiset, Fraction] = {}
        for key, val in (values or {}).items():
            self.record(key, val)

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

    def __contains__(self, multiset: BidMultiset) -> bool:
        return multiset in self._values

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> list[tuple[BidMultiset, Fraction]]:
        return sorted(self._values.items(), key=lambda kv: kv[0].canonical_key())

    def to_json(self) -> list[dict]:
        return [
            {"multiset": multiset_to_json(m), "value": format_rational(v)}
            for m, v in self.items()
        ]


@dataclass(frozen=True)
class AdequateSet:
    """Completion family with two fresh fill bidders, plus the quintuple.

    ``flat_invariant`` records whether the rule is constant at its flat
    value across the members; it is checked at build time, never assumed.
    """

    members: frozenset[BidVector]
    base: BidVector
    fill: Fraction
    rule: PriceRule
    i1: int
    i2: int
    flat_invariant: bool


@dataclass(frozen=True)
class IterationTrace:
    """Per-step record of the all-equal-bids elimination.

    ``steps`` pairs the multiset shape reached after introducing each
    extra bid with its elimination coefficient (the payment divided by
    the rule's flat value).  Every coefficient equals 1/N.
    """

    n_bidders: int
    steps: tuple[tuple[BidMultiset, Fraction], ...]


def build_adequate_set(
    base: BidVector, fill, rule: PriceRule, i1: int, i2: int
) -> AdequateSet:
    """Adjoin fresh bidders i1, i2 at ``fill`` to the full completion family."""
    if i1 == i2 or i1 in base.dom or i2 in base.dom:
        raise ValueError(
            f"i1,i2 must be fresh and distinct: got {i1}, {i2} with base domain "
            f"{sorted(base.dom)}"
        )
    fill_bid = ensure_rational(fill)
    family = full_family(base, fill_bid)
    members = extend(flat({i1, i2}, fill_bid), family.members)
    try:
        invariant = check_flat_invariance(rule, members, base.dom | {i1, i2}, fill_bid)
    except (RuleArityError, RuleDomainError):
        invariant = False
    return AdequateSet(
        members=members,
        base=base,
        fill=fill_bid,
        rule=rule,
        i1=i1,
        i2=i2,
        flat_invariant=invariant,
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


def has_full_family_structure(
    members: Iterable[BidVector], base: BidVector, fill, i1: int, i2: int
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

    targets = sub_multisets(bag_of(base))
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
    if not adequate.flat_invariant:
        reference = flat(base.dom | {i1, i2}, adequate.fill)
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
    reference = flat(base.dom | {i1, i2}, adequate.fill)
    return rule(reference) / (2 + len(base))


def build_payment_table(
    n_bidders: int, fill, extras: Iterable[object], rule: PriceRule
) -> tuple[PaymentTable, IterationTrace]:
    """Payment table from the all-equal-bids iteration.

    Starting from the vector where all ``n_bidders`` bid ``fill``, balance
    gives P on the (N-1)-fold {fill} bag with coefficient 1/N.  Replacing
    bids by the ``extras`` one at a time and re-imposing balance
    eliminates the known payments and pins each new shape in turn; the
    rule must keep its flat value on every vector visited (checked at
    each step).  The table covers every multiset

        m + {fill repeated N - 1 - |m|}   for every m <= bag(extras),

    and the trace records the per-step coefficients, which all equal 1/N.
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
    flat_value = rule(flat(ids, fill_bid))

    coefficients = [Fraction(1, n_bidders)]
    for size in range(1, len(extra_bids) + 1):
        coefficients.append((1 - size * coefficients[size - 1]) / (n_bidders - size))

    table = PaymentTable()
    lattice = sub_multisets(BidMultiset.of(extra_bids))
    lattice.sort(key=lambda m: m.canonical_key())
    for m in lattice:
        assigned = list(m.values)
        visited = BidVector.of(
            {i: (assigned[i - 1] if i - 1 < len(assigned) else fill_bid) for i in ids}
        )
        if rule(visited) != flat_value:
            raise AdequacyError(
                f"flat-invariance fails at iteration step {m!r}: "
                f"{rule.name!r} gives {format_rational(rule(visited))} there but "
                f"{format_rational(flat_value)} on the flat vector"
            )
        n_fill = n_bidders - len(m)
        remainder = flat_value
        for v in m.distinct():
            smaller = m.remove_one(v) + BidMultiset.of([fill_bid] * n_fill)
            remainder -= m.count(v) * table.value(smaller)
        shape = m + BidMultiset.of([fill_bid] * (n_fill - 1))
        table.record(shape, remainder / n_fill)

    steps = []
    for j in range(len(extra_bids) + 1):
        prefix = BidMultiset.of(extra_bids[:j])
        shape = prefix + BidMultiset.of([fill_bid] * (n_bidders - 1 - j))
        steps.append((shape, coefficients[j]))
    return table, IterationTrace(n_bidders=n_bidders, steps=tuple(steps))


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
