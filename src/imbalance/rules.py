"""Price rules: total maps from bid vectors to exact rational amounts.

The built-in rules are symmetric (they factor through the bid multiset):

* ``second-price``   highest bid after deleting one occurrence of the
  maximum, i.e. the second highest counted with multiplicity; needs at
  least two bidders,
* ``first-price``    the maximum bid,
* ``neg-second-price`` / ``neg-first-price``   negations of the above,
* ``constant:<p/q>`` ignores the bids entirely.

Rules are immutable after construction and evaluation is pure, so they
are safe to share.

Every rule has a bag form, ``PriceRule.bag``: the same rule as a function
of the bag's bids in increasing order, ``s``.  The built-in forms are
``s[-2]``, ``-s[-2]``, ``s[-1]``, ``-s[-1]`` and the constant.  The balance
equation's left side depends only on the bag, so a rule that gave two
orderings of one bag different values would be refuted by those two rows
alone; callers that hold the bags, not the vectors, evaluate a rule once
per bag through ``PriceRule.of_bag`` and read no bidder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .bids import BidVector
from .rationals import ensure_rational, format_rational


class RuleUndefinedError(ValueError):
    """The rule has no value on the vector; callers that treat an
    undefined rule as a failed check catch this name."""


class RuleArityError(RuleUndefinedError):
    """The rule is undefined on vectors with this few bidders."""


@dataclass(frozen=True)
class PriceRule:
    """Named total map BidVector -> Fraction (total above ``min_arity``).

    ``fn`` is the vector form and ``bag``, required, the bag form:
    ``bag(sorted(v.values())) == fn(v)`` on every vector ``v`` the rule is
    defined on, so the value depends only on the bag (the same bids,
    counted with multiplicity, whoever holds them), and the arity check
    reads only the bag's size.  A caller may evaluate the rule once per
    bag, on its bids alone, through ``of_bag``.
    """

    name: str
    min_arity: int
    fn: Callable[[BidVector], Fraction] = field(compare=False, repr=False)
    bag: Callable[[list[Fraction]], Fraction] = field(compare=False, repr=False)

    def __call__(self, vector: BidVector) -> Fraction:
        if len(vector.entries) < self.min_arity:  # skips the Python-level BidVector.__len__
            raise self._arity_error(len(vector.entries))
        return self.fn(vector)

    def of_bag(self, bids: list[Fraction]) -> Fraction:
        """The rule on any vector whose bids, in increasing order, are
        ``bids``, with ``__call__``'s arity check and error."""
        if len(bids) < self.min_arity:
            raise self._arity_error(len(bids))
        return self.bag(bids)

    def _arity_error(self, size: int) -> RuleArityError:
        return RuleArityError(
            f"rule undefined on this arity: {self.name!r} needs at least "
            f"{self.min_arity} bidders, got {size}"
        )


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
        return PriceRule(name, 2, _second_price, lambda s: s[-2])
    if name == "neg-second-price":
        return PriceRule(name, 2, lambda b: -_second_price(b), lambda s: -s[-2])
    if name == "first-price":
        return PriceRule(name, 1, _first_price, lambda s: s[-1])
    if name == "neg-first-price":
        return PriceRule(name, 1, lambda b: -_first_price(b), lambda s: -s[-1])
    if name.startswith("constant:"):
        value = ensure_rational(name.split(":", 1)[1])
        canonical = f"constant:{format_rational(value)}"
        return PriceRule(canonical, 1, lambda b: value, lambda s: value)
    raise ValueError(
        f"unknown rule {name!r}; expected second-price, neg-second-price, "
        "first-price, neg-first-price, or constant:<p/q>"
    )


def check_flat_invariance(
    rule: PriceRule, vectors: Iterable[BidVector], flat_vector: BidVector
) -> bool:
    """Whether the rule is defined and takes its flat value on every vector.

    The reference value is the rule applied to ``flat_vector``, the
    constant vector at the fill on the vectors' bidders.  A rule undefined
    on that vector or on any of the vectors is not flat-invariant there:
    the answer is False, and no ``RuleUndefinedError`` escapes.  The flat
    vector is evaluated first, then the vectors in iteration order, up to
    the first that is undefined or differs.  Precondition, not checked
    here: ``flat_vector`` is constant, and each vector has its domain.
    ``AdequateSets.decide`` passes its table's flat vector and members of
    its ``CompletionFamilies``, which keep the vector's ids by
    construction, and ``is_adequate`` calls this only once its structure
    check has accepted every member's domain.

    Values are compared as (numerator, denominator) pairs, equal exactly
    when the values are: both are in lowest terms with a positive
    denominator, an ``int``'s being 1.  This skips the Python-level
    ``Fraction.__eq__`` on every member.
    """
    try:
        target = rule(flat_vector)
        pair = (target.numerator, target.denominator)
        return all((value.numerator, value.denominator) == pair for value in map(rule, vectors))
    except RuleUndefinedError:
        return False
