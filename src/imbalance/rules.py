"""Price rules: total maps from bid vectors to exact rational amounts.

The built-in rules are symmetric (they factor through the bid multiset):

* ``second-price``   highest bid after deleting one occurrence of the
  maximum, i.e. the second highest counted with multiplicity; needs at
  least two bidders,
* ``first-price``    the maximum bid,
* ``neg-second-price`` / ``neg-first-price``   negations of the above,
* ``constant:<p/q>`` ignores the bids entirely.

Table-backed rules (``register_external``) are defined on an explicit
finite set of vectors only, which lets tests and experiments plug in
arbitrary maps.  Rules are immutable after construction and evaluation is
pure, so they are safe to share.

``PriceRule.symmetric`` marks a rule whose value, and whether it is
defined at all, depend only on the bag of bids, so callers may evaluate it
once per bag.  ``get_rule`` sets it on every built-in rule.
``register_external`` never does: a table is defined one vector at a time,
so another ordering of a bag, or the same bids on other bidders, may be
missing from it, and a value read by bag would hide that error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .bids import BidVector, flat
from .rationals import ensure_rational, format_rational


class RuleUndefinedError(ValueError):
    """The rule has no value on the vector; callers that treat an
    undefined rule as a failed check catch this name."""


class RuleArityError(RuleUndefinedError):
    """The rule is undefined on vectors with this few bidders."""


class RuleDomainError(RuleUndefinedError):
    """A table-backed rule was evaluated outside its table."""


@dataclass(frozen=True)
class PriceRule:
    """Named total map BidVector -> Fraction (total above ``min_arity``).

    ``symmetric`` promises that ``fn`` gives equal values on any two
    vectors with equal bags (the same bids, counted with multiplicity,
    whoever holds them), and that the rule is defined on both or on
    neither; the arity check reads only the bag's size.  A caller may then
    evaluate the rule on one vector per bag.  It is False unless set.
    """

    name: str
    min_arity: int
    fn: Callable[[BidVector], Fraction] = field(compare=False, repr=False)
    symmetric: bool = False

    def __call__(self, vector: BidVector) -> Fraction:
        if len(vector) < self.min_arity:
            raise RuleArityError(
                f"rule undefined on this arity: {self.name!r} needs at least "
                f"{self.min_arity} bidders, got {len(vector)}"
            )
        return self.fn(vector)


def _second_price(vector: BidVector) -> Fraction:
    """The second highest bid, counted with multiplicity, in one pass.

    ``top`` and ``second`` are the two largest bids seen so far, so a bid
    equal to the maximum still becomes ``second``.  Bids are compared as
    ``a.numerator * b.denominator > b.numerator * a.denominator``, exact
    because denominators are positive (an ``int`` has denominator 1).
    """
    (_, top), (_, second), *rest = vector.entries
    tn, td, sn, sd = top.numerator, top.denominator, second.numerator, second.denominator
    if sn * td > tn * sd:
        top, tn, td, second, sn, sd = second, sn, sd, top, tn, td
    for _, v in rest:
        vn, vd = v.numerator, v.denominator
        if vn * sd > sn * vd:
            if vn * td > tn * vd:
                top, tn, td, second, sn, sd = v, vn, vd, top, tn, td
            else:
                second, sn, sd = v, vn, vd
    return second


def _first_price(vector: BidVector) -> Fraction:
    """The first maximal bid in bidder order, as ``max`` picks it, compared
    as integers like ``_second_price``."""
    (_, top), *rest = vector.entries
    tn, td = top.numerator, top.denominator
    for _, v in rest:
        vn, vd = v.numerator, v.denominator
        if vn * td > tn * vd:
            top, tn, td = v, vn, vd
    return top


def get_rule(name: str) -> PriceRule:
    """Look up a built-in rule by its registry name."""
    if name == "second-price":
        return PriceRule(name, 2, _second_price, symmetric=True)
    if name == "neg-second-price":
        return PriceRule(name, 2, lambda b: -_second_price(b), symmetric=True)
    if name == "first-price":
        return PriceRule(name, 1, _first_price, symmetric=True)
    if name == "neg-first-price":
        return PriceRule(name, 1, lambda b: -_first_price(b), symmetric=True)
    if name.startswith("constant:"):
        value = ensure_rational(name.split(":", 1)[1])
        canonical = f"constant:{format_rational(value)}"
        return PriceRule(canonical, 1, lambda b: value, symmetric=True)
    raise ValueError(
        f"unknown rule {name!r}; expected second-price, neg-second-price, "
        "first-price, neg-first-price, or constant:<p/q>"
    )


def register_external(name: str, table: Mapping[BidVector, object]) -> PriceRule:
    """Rule defined exactly on the table's vectors; lookups elsewhere fail.

    Two keys that name the same vector, such as the same pairs listed in
    another order, are an error, never a silent overwrite.
    """
    if not table:
        raise ValueError("external rule table must be nonempty")
    frozen = {BidVector.of(k): ensure_rational(v) for k, v in table.items()}
    if len(frozen) != len(table):  # the dict kept only the last value of a repeated vector
        counts = Counter(BidVector.of(k) for k in table)
        repeated = next(v for v, c in counts.items() if c > 1)
        raise ValueError(f"external rule table repeats the vector {repeated!r}")

    def lookup(vector: BidVector) -> Fraction:
        try:
            return frozen[vector]
        except KeyError:
            raise RuleDomainError(
                f"rule undefined at this bid vector: {name!r} has no entry for {vector!r}"
            ) from None

    return PriceRule(f"external:{name}", 0, lookup)


def check_flat_invariance(
    rule: PriceRule, vectors: Iterable[BidVector], bidders: Iterable[int], fill
) -> bool:
    """Whether the rule is defined and takes its flat value on every vector.

    The reference value is the rule applied to the constant vector at
    ``fill`` on ``bidders``.  A rule undefined on that vector or on any of
    the vectors is not flat-invariant there: the answer is False, and no
    ``RuleUndefinedError`` escapes.  The flat vector is evaluated first,
    then the vectors in iteration order, up to the first that is undefined
    or differs.  Precondition, not checked here: each vector has domain
    exactly ``bidders``.  ``build_adequate_set`` passes ``full_family``
    members, which keep the holders' ids by construction, and
    ``is_adequate`` calls this only once its structure check has accepted
    every member's domain.

    Values are compared as (numerator, denominator) pairs, equal exactly
    when the values are: both are in lowest terms with a positive
    denominator, an ``int``'s being 1.  This skips the Python-level
    ``Fraction.__eq__`` on every member.
    """
    try:
        target = rule(flat(bidders, fill))
        pair = (target.numerator, target.denominator)
        return all((value.numerator, value.denominator) == pair for value in map(rule, vectors))
    except RuleUndefinedError:
        return False
