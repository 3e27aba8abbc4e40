"""Bid vectors and bid multisets with the restriction/completion operators.

A bid vector is a finite map from bidder id to exact rational bid, modeled
extensionally as its graph (a set of pairs): two vectors are equal exactly
when they hold the same pairs.  A bid multiset is the vector's range
counted with multiplicity; symmetric payment rules only ever look at the
multiset, never at who placed which bid.

On top of the two value types this module provides the combinatorial
operators the verification pipeline is assembled from:

* ``bag_of`` - range with multiplicities,
* ``remove`` / ``preimage`` / ``flat`` - restriction, fiber, constant map,
* ``sub_multisets`` - every sub-multiset, in a fixed canonical order,
* ``restrictions`` / ``completion`` - sub-vectors realizing a multiset,
  and the canonical vector agreeing with one of them and constantly equal
  to a fill bid elsewhere,
* ``full_family`` - one completion per sub-multiset of the vector's bag,
* ``extend`` - union of a fixed set of pairs with each member of a family.

Everything is immutable and enumerations come back in deterministic order,
so downstream artifacts (witness files, reports) are reproducible byte for
byte.  Sub-multiset enumeration is exponential in the number of entries;
the package targets desk scale (vectors of at most ~10 bidders).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .rationals import ensure_rational, format_rational


@dataclass(frozen=True)
class BidVector:
    """Finite map bidder id -> bid, stored as its sorted graph."""

    entries: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        ids = [i for i, _ in self.entries]
        if ids != sorted(set(ids)):
            raise ValueError("entries must be sorted by bidder id, without duplicates")

    @staticmethod
    def of(entries: Mapping[int, object] | Iterable[tuple[int, object]] | "BidVector") -> "BidVector":
        """Build from a mapping or iterable of (bidder, bid) pairs."""
        if isinstance(entries, BidVector):
            return entries
        items = entries.items() if isinstance(entries, Mapping) else entries
        normalized = []
        for bidder, bid in items:
            if isinstance(bidder, bool) or not isinstance(bidder, int) or bidder < 0:
                raise ValueError(f"bidder ids must be non-negative integers, got {bidder!r}")
            normalized.append((bidder, ensure_rational(bid)))
        normalized.sort(key=lambda entry: entry[0])
        return BidVector(tuple(normalized))

    @cached_property
    def dom(self) -> frozenset[int]:
        return frozenset(self._lookup)

    @cached_property
    def _lookup(self) -> dict[int, Fraction]:
        return dict(self.entries)

    def __getitem__(self, bidder: int) -> Fraction:
        return self._lookup[bidder]

    def __contains__(self, bidder: int) -> bool:
        return bidder in self._lookup

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return (i for i, _ in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.entries)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self.entries

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {format_rational(v)}" for i, v in self.entries)
        return f"BidVector({{{body}}})"


@dataclass(frozen=True)
class BidMultiset:
    """Bag of rational bids, stored as a sorted tuple with repetition."""

    values: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if list(self.values) != sorted(self.values):
            raise ValueError("multiset values must be sorted ascending")

    @staticmethod
    def of(values: Iterable[object]) -> "BidMultiset":
        return BidMultiset(tuple(sorted(ensure_rational(v) for v in values)))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value) -> bool:
        return ensure_rational(value) in self.values

    def count(self, value) -> int:
        needle = ensure_rational(value)
        return sum(1 for v in self.values if v == needle)

    def distinct(self) -> tuple[Fraction, ...]:
        out = []
        for v in self.values:
            if not out or out[-1] != v:
                out.append(v)
        return tuple(out)

    def counts(self) -> dict[Fraction, int]:
        out: dict[Fraction, int] = {}
        for v in self.values:
            out[v] = out.get(v, 0) + 1
        return out

    def __add__(self, other: "BidMultiset") -> "BidMultiset":
        """Multiset sum: multiplicities add."""
        return BidMultiset(tuple(sorted(self.values + other.values)))

    def __le__(self, other: "BidMultiset") -> bool:
        """Sub-multiset order: every multiplicity bounded by the other's."""
        theirs = other.counts()
        return all(theirs.get(v, 0) >= c for v, c in self.counts().items())

    def remove_one(self, value) -> "BidMultiset":
        """Drop a single occurrence of ``value``."""
        needle = ensure_rational(value)
        vals = list(self.values)
        try:
            vals.remove(needle)
        except ValueError:
            raise ValueError(f"{format_rational(needle)} not in multiset") from None
        return BidMultiset(tuple(vals))

    def canonical_key(self) -> tuple:
        """Sort key: by size, then by the sorted value tuple."""
        return (len(self.values), self.values)

    def __repr__(self) -> str:
        return "BidMultiset([" + ", ".join(format_rational(v) for v in self.values) + "])"


@dataclass(frozen=True)
class FullFamily:
    """One completion of ``base`` to ``fill`` per sub-multiset of its bag.

    ``indexed`` pairs each sub-multiset with its canonical completion, in
    canonical sub-multiset order.  Distinct sub-multisets can yield the
    same vector when ``fill`` already occurs among the base bids, so the
    deduplicated ``members`` set may be smaller than ``indexed``.
    """

    base: BidVector
    fill: Fraction
    indexed: tuple[tuple[BidMultiset, BidVector], ...]

    @property
    def members(self) -> frozenset[BidVector]:
        return frozenset(vec for _, vec in self.indexed)


def bag_of(vector: BidVector) -> BidMultiset:
    """Range of the vector counted with multiplicity."""
    return BidMultiset(tuple(sorted(v for _, v in vector.entries)))


def remove(vector: BidVector, bidders: Iterable[int]) -> BidVector:
    """Restriction to dom(vector) minus ``bidders``; absent ids are ignored."""
    gone = frozenset(bidders)
    return BidVector(tuple((i, v) for i, v in vector.entries if i not in gone))


def preimage(vector: BidVector, values: Iterable[object]) -> frozenset[int]:
    """All bidders whose bid lies in ``values`` (the fiber of the set)."""
    needles = frozenset(ensure_rational(v) for v in values)
    return frozenset(i for i, v in vector.entries if v in needles)


def flat(bidders: Iterable[int], value) -> BidVector:
    """Constant vector: every id in ``bidders`` maps to ``value``."""
    bid = ensure_rational(value)
    return BidVector.of({i: bid for i in bidders})


def fresh_bidders(vector: BidVector, count: int = 2) -> tuple[int, ...]:
    """``count`` distinct ids outside the vector's domain, allocated as
    max(dom)+1, max(dom)+2, ..."""
    start = max(vector.dom, default=0) + 1
    return tuple(range(start, start + count))


def sub_multisets(multiset: BidMultiset) -> list[BidMultiset]:
    """Every sub-multiset, each exactly once, in canonical order.

    The count is the product of (multiplicity + 1) over distinct values.
    Order: the multiplicity of the smallest value varies fastest.
    """
    values = multiset.distinct()
    mults = [multiset.count(v) for v in values]
    out = []
    for picked_rev in itertools.product(*(range(m + 1) for m in reversed(mults))):
        picked = tuple(reversed(picked_rev))
        vals: list[Fraction] = []
        for v, c in zip(values, picked):
            vals.extend([v] * c)
        out.append(BidMultiset(tuple(vals)))
    return out


def restrictions(vector: BidVector, multiset: BidMultiset) -> list[BidVector]:
    """All sub-vectors of ``vector`` whose bag equals ``multiset``.

    Returns the empty list when ``multiset`` is not a sub-multiset of the
    vector's bag.  Ordered by the sorted tuple of kept bidder ids.
    """
    if not (multiset <= bag_of(vector)):
        return []
    groups = []
    for v in multiset.distinct():
        holders = sorted(i for i, w in vector.entries if w == v)
        groups.append(list(itertools.combinations(holders, multiset.count(v))))
    out = []
    for combo in itertools.product(*groups):
        kept = sorted(i for group in combo for i in group)
        out.append(BidVector(tuple((i, vector[i]) for i in kept)))
    out.sort(key=lambda b: tuple(i for i, _ in b.entries))
    return out


def completion(vector: BidVector, multiset: BidMultiset, fill) -> BidVector:
    """Canonical completion: keep the first restriction, fill the rest.

    Same domain as ``vector``; agrees with the lexicographically smallest
    restriction realizing ``multiset`` and is constantly ``fill`` on the
    remaining bidders.  That restriction keeps, for each value, its first
    ``count`` holders in bidder-id order, so it is built in one scan.
    """
    remaining = multiset.counts()
    keep = []
    for _, v in vector.entries:
        kept = remaining.get(v, 0) > 0
        if kept:
            remaining[v] -= 1
        keep.append(kept)
    if any(remaining.values()):
        raise ValueError(f"not a sub-multiset: {multiset!r} of {bag_of(vector)!r}")
    fill_bid = ensure_rational(fill)
    return BidVector(
        tuple((i, v if k else fill_bid) for (i, v), k in zip(vector.entries, keep))
    )


def full_family(vector: BidVector, fill) -> FullFamily:
    """The canonical full family of ``fill``-completions of ``vector``."""
    fill_bid = ensure_rational(fill)
    indexed = tuple(
        (m, completion(vector, m, fill_bid)) for m in sub_multisets(bag_of(vector))
    )
    return FullFamily(base=vector, fill=fill_bid, indexed=indexed)


def extend(pairs: BidVector, family: Iterable[BidVector]) -> frozenset[BidVector]:
    """Union of a fixed set of pairs with each member of ``family``.

    Domains must be disjoint so every union is again a function.
    """
    out = []
    for member in family:
        clash = pairs.dom & member.dom
        if clash:
            raise ValueError(f"domain clash on bidders {sorted(clash)}")
        out.append(BidVector(tuple(sorted(pairs.entries + member.entries))))
    return frozenset(out)


# --- JSON encoding -----------------------------------------------------

def bid_vector_to_json(vector: BidVector) -> dict:
    return {"bids": {str(i): format_rational(v) for i, v in vector.entries}}


def bid_vector_from_json(obj) -> BidVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("bids"), dict):
        raise ValueError('bid vector JSON must be {"bids": {"<id>": "<p/q>", ...}}')
    entries = {}
    for key, text in obj["bids"].items():
        # "01" would silently merge with "1", so only canonical decimals pass
        if not (key.isdecimal() and key == str(int(key))):
            raise ValueError(f"bidder ids must be non-negative canonical decimals, got {key!r}")
        entries[int(key)] = ensure_rational(text)
    return BidVector.of(entries)


def multiset_to_json(multiset: BidMultiset) -> list[str]:
    return [format_rational(v) for v in multiset.values]


def multiset_from_json(obj) -> BidMultiset:
    if not isinstance(obj, list):
        raise ValueError("multiset JSON must be an array of 'p/q' strings")
    return BidMultiset.of(obj)
