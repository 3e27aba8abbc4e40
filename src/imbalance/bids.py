"""Bid vectors and bid multisets with the restriction/completion operators.

A bid vector is a finite map from bidder id to exact rational bid, modeled
extensionally as its graph (a set of pairs): two vectors are equal exactly
when they hold the same pairs.  A bid multiset is the vector's range
counted with multiplicity; symmetric payment rules only ever look at the
multiset, never at who placed which bid.

On top of the two value types this module provides the combinatorial
operators the verification pipeline is assembled from:

* ``remove`` / ``flat`` - restriction, constant map,
* ``full_family`` - one completion per sub-multiset of the vector's bag.

``bag_of`` takes a vector's range with multiplicities, ``sub_multisets``
lists every sub-multiset in a fixed canonical order, and ``restrictions``,
``completion`` and ``extend`` define the family and the adequate sets
member by member.  No other module calls these five, and within this one
only ``restrictions`` and ``completion`` call ``bag_of``; tests call them,
and the benchmark tracer wraps all but ``bag_of``.

A vector hashes as the tuple of its (bidder, hash(bid)) pairs and keeps
that hash.  ``full_family`` builds its members from shared pairs, with
their hashes set from one hash per distinct bid object, and ``flat`` sets
its vector's hash from the one hash of its bid; both hand those pairs to
``BidVector._hashed``, the one place outside ``__hash__`` that stores a
hash.  ``rank_bids`` ranks the distinct bid values of a set of vectors,
so the system build and the witness writer can sort and key on integers.

``ParseMemo`` holds what one input file's texts parse to, so each distinct
bidder key and bid text in a file is parsed once.

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
    """Finite map bidder id -> bid, stored as its sorted graph: ids strictly
    increase, which the raw constructor trusts and ``of`` establishes.

    The hash is that of the tuple of (bidder, hash(bid)) pairs, so equal
    vectors hash equal, an ``int`` bid like its ``Fraction``.  It is kept
    in the instance once asked for, or set by ``_hashed`` when the builder
    already holds those pairs, so a vector that keys several lookups
    hashes its bids once.  Truthiness comes from ``__len__``: only the
    empty vector is false.
    """

    entries: tuple[tuple[int, Fraction], ...] = ()

    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash(tuple([(i, hash(v)) for i, v in self.entries]))
        return value

    @staticmethod
    def _hashed(entries: tuple[tuple[int, Fraction], ...], pair_hashes: tuple) -> "BidVector":
        """The raw vector on ``entries`` with its hash set from
        ``pair_hashes``, its (bidder, hash(bid)) pairs in the same order."""
        vector = BidVector(entries)
        vector.__dict__["_hash"] = hash(pair_hashes)
        return vector

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
        for (i, _), (j, _) in zip(normalized, normalized[1:]):
            if i == j:
                raise ValueError(f"bidder id {i} is repeated")
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

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.entries)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self.entries

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {format_rational(v)}" for i, v in self.entries)
        return f"BidVector({{{body}}})"


@dataclass(frozen=True)
class BidMultiset:
    """Bag of rational bids, stored as a sorted tuple with repetition: the
    raw constructor trusts the order, ``of`` sorts."""

    values: tuple[Fraction, ...] = ()

    @staticmethod
    def of(values: Iterable[object]) -> "BidMultiset":
        return BidMultiset(tuple(sorted(ensure_rational(v) for v in values)))

    def __len__(self) -> int:
        return len(self.values)

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

    def __le__(self, other: "BidMultiset") -> bool:
        """Sub-multiset order: every multiplicity bounded by the other's."""
        theirs = other.counts()
        return all(theirs.get(v, 0) >= c for v, c in self.counts().items())

    def canonical_key(self) -> tuple:
        """Sort key: by size, then by the sorted value tuple."""
        return (len(self.values), self.values)

    def __repr__(self) -> str:
        return "BidMultiset([" + ", ".join(format_rational(v) for v in self.values) + "])"


def bag_of(vector: BidVector) -> BidMultiset:
    """Range of the vector counted with multiplicity."""
    return BidMultiset(tuple(sorted(v for _, v in vector.entries)))


def remove(vector: BidVector, bidders: Iterable[int]) -> BidVector:
    """Restriction to dom(vector) minus ``bidders``; absent ids are ignored."""
    gone = frozenset(bidders)
    return BidVector(tuple((i, v) for i, v in vector.entries if i not in gone))


def flat(bidders: Iterable[int], value) -> BidVector:
    """Constant vector: every id in ``bidders`` maps to ``value``.

    ``BidVector.of`` checks and sorts the ids; the vector's hash is set
    through ``BidVector._hashed`` from one hash of the bid.
    """
    bid = ensure_rational(value)
    entries = BidVector.of(dict.fromkeys(bidders, bid)).entries
    bid_hash = hash(bid)
    return BidVector._hashed(entries, tuple([(i, bid_hash) for i, _ in entries]))


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


def _bid_groups(entries) -> dict[Fraction, list[int]]:
    """Each distinct bid of ``entries`` with the positions holding it, in
    bidder-id order."""
    groups: dict[Fraction, list[int]] = {}
    for pos, (_, v) in enumerate(entries):
        groups.setdefault(v, []).append(pos)
    return groups


def _keep_first_holders(ids, bids, groups, counts, fill: Fraction) -> BidVector:
    """Keep the first ``count`` positions of each group, fill the rest.

    ``ids`` and ``bids`` are a vector's entries split into two tuples.
    ``groups`` and ``counts`` are parallel: the positions holding one bid,
    in bidder-id order, and how many of them to keep.  Keeping the first
    holders of each bid gives the lexicographically smallest restriction
    with those counts.
    """
    values = [fill] * len(ids)
    for positions, count in zip(groups, counts):
        for pos in positions[:count]:
            values[pos] = bids[pos]
    return BidVector(tuple(zip(ids, values)))


def completion(vector: BidVector, multiset: BidMultiset, fill) -> BidVector:
    """Canonical completion: keep the first restriction, fill the rest.

    Same domain as ``vector``; agrees with the lexicographically smallest
    restriction realizing ``multiset`` and is constantly ``fill`` on the
    remaining bidders.  That restriction keeps, for each value, its first
    ``count`` holders in bidder-id order.
    """
    groups = _bid_groups(vector.entries)
    counts = multiset.counts()
    if any(c > len(groups.get(v, ())) for v, c in counts.items()):
        raise ValueError(f"not a sub-multiset: {multiset!r} of {bag_of(vector)!r}")
    return _keep_first_holders(tuple(vector), vector.values(), [groups[v] for v in counts],
                               counts.values(), ensure_rational(fill))


def full_family(vector: BidVector, fill) -> frozenset[BidVector]:
    """The canonical full family: one ``fill``-completion of ``vector`` per
    sub-multiset of its bag.

    A sub-multiset is a tuple of counts, one per distinct bid, and its
    completion keeps the first holders of each bid.  A holder of a bid
    equal to ``fill`` reads the same kept or filled, so the counts of that
    bid all give the same member: only the other bids' counts are
    enumerated, and each count tuple gives a distinct member.  The family
    can therefore have fewer members than the bag has sub-multisets.

    Members are built from shared pairs: each position's kept pair is the
    vector's own, and its filled pair and both (bidder, hash) pairs are
    built once, from one hash per distinct bid object.  The pair lists
    grow one bid group at a time, each list so far copied with the
    group's first 1, 2, ... holders kept.  Each member gets its hash from
    its pair hashes through ``BidVector._hashed`` when it is built, and
    families of vectors that share bid objects share them too, so their
    equal members compare equal by identity.
    """
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


def rank_bids(vectors: Iterable[BidVector]) -> tuple[list[Fraction], dict[int, int]]:
    """The distinct bid values of ``vectors`` in increasing order, and the
    rank of each bid object among them, keyed by the object's ``id``.

    Values are keyed by (numerator, denominator), so equal values held by
    distinct objects, an ``int`` and its ``Fraction`` included, share a
    rank, and no bid is hashed.  Ranks are injective and order-preserving
    on values, so tuples of (bidder, rank) pairs order vectors as their
    ``entries`` do and are equal exactly when the vectors are.  An id
    names its bid only while the caller holds the vectors.
    """
    objs = {id(v): v for vec in vectors for _, v in vec.entries}
    values = sorted({(v.numerator, v.denominator): v for v in objs.values()}.values())
    rank = {(v.numerator, v.denominator): r for r, v in enumerate(values)}
    return values, {i: rank[v.numerator, v.denominator] for i, v in objs.items()}


def extend(pairs: BidVector, family: Iterable[BidVector]) -> frozenset[BidVector]:
    """Union of a fixed set of pairs with each member of ``family``.

    Domains must be disjoint so every union is again a function.
    """
    taken = pairs.dom
    out = []
    for member in family:
        clash = [i for i, _ in member.entries if i in taken]
        if clash:
            raise ValueError(f"domain clash on bidders {clash}")
        out.append(BidVector(tuple(sorted(pairs.entries + member.entries))))
    return frozenset(out)


# --- JSON encoding -----------------------------------------------------

def bid_vector_to_json(vector: BidVector) -> dict:
    return {"bids": {str(i): format_rational(v) for i, v in vector.entries}}


def canonical_id(key: str, noun: str) -> int:
    """The integer a JSON object key names, as bidder id or variable index.

    Only canonical decimals pass: ``"01"`` would silently merge with ``"1"``.
    """
    if not (key.isdecimal() and key == str(int(key))):
        raise ValueError(f"{noun} must be non-negative canonical decimals, got {key!r}")
    return int(key)


class ParseMemo:
    """What the texts of one input file parse to, each distinct text once.

    Object keys (bidder ids, coefficient indices) and rational texts (bids,
    coefficients, right-hand sides) live in separate tables, so a key never
    answers for a text.  A key is stored only once ``canonical_id`` accepts
    it, and its integer does not depend on the noun, so bidder ids and
    coefficient indices can share a table.  Only ``str`` texts are stored:
    any other JSON value goes through ``ensure_rational`` every time, which
    keeps its exact error (``true`` would hit the slot of ``1``, and a list
    cannot be hashed).  A failed parse raises and stores nothing.  A memo
    serves one file; it is never shared across files.
    """

    def __init__(self):
        self.keys: dict[str, int] = {}
        self.texts: dict[str, Fraction] = {}

    def key(self, key: str, noun: str) -> int:
        value = self.keys.get(key)
        if value is None:
            value = self.keys[key] = canonical_id(key, noun)
        return value

    def rational(self, text) -> Fraction:
        if not isinstance(text, str):
            return ensure_rational(text)
        value = self.texts.get(text)
        if value is None:
            value = self.texts[text] = ensure_rational(text)
        return value


def bid_vector_from_json(obj, memo: ParseMemo | None = None) -> BidVector:
    """Parse ``{"bids": {"<id>": "<p/q>", ...}}``, with ``memo`` holding the
    texts already parsed from the same file."""
    if not isinstance(obj, dict) or not isinstance(obj.get("bids"), dict):
        raise ValueError('bid vector JSON must be {"bids": {"<id>": "<p/q>", ...}}')
    memo = ParseMemo() if memo is None else memo
    entries = [(memo.key(key, "bidder ids"), memo.rational(text))
               for key, text in obj["bids"].items()]
    entries.sort()  # canonical ids are distinct, so only ids are compared
    return BidVector(tuple(entries))


def multiset_to_json(multiset: BidMultiset) -> list[str]:
    return [format_rational(v) for v in multiset.values]


def multiset_from_json(obj, memo: ParseMemo | None = None) -> BidMultiset:
    if not isinstance(obj, list):
        raise ValueError("multiset JSON must be an array of 'p/q' strings")
    memo = ParseMemo() if memo is None else memo
    return BidMultiset(tuple(sorted(memo.rational(v) for v in obj)))
