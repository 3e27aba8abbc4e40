"""Bid vectors and bid multisets with the restriction/completion operators.

A bid vector is a finite map from bidder id to exact rational bid, modeled
extensionally as its graph (a set of pairs): two vectors are equal exactly
when they hold the same pairs.  A bid multiset is the vector's range
counted with multiplicity; symmetric payment rules only ever look at the
multiset, never at who placed which bid.

On top of the two value types this module provides the combinatorial
operators the verification pipeline is assembled from:

* ``remove`` / ``flat`` - restriction, constant map,
* ``full_family`` - one completion per sub-multiset of the vector's bag,
* ``CompletionFamilies`` - the one enumeration of such families: the
  families of one vector and fill, each with at most one more bidder set
  to the fill, with every member keyed by its kept-position mask and
  built once.  Bit p of a mask is set when position p keeps the vector's
  own pair; every other position holds the fill, so a mask names one
  member whichever family it came from.  ``full_family`` is its one-family
  case, and ``payments.AdequateSets`` shares one between adequate sets.

``sub_multisets`` lists every sub-multiset in a fixed canonical order, and
``restrictions``, ``completion`` and ``extend`` define the family and the
adequate sets member by member.  No other module calls these four; tests
call them, and the benchmark tracer wraps them.  They count a bag's bids
with ``collections.Counter`` and find each bid's holders with
``_bid_groups``, the grouping ``CompletionFamilies`` builds on.

A vector hashes as the tuple of its (bidder, hash(bid)) pairs and keeps
that hash.  ``CompletionFamilies`` builds its members from shared pairs,
with their hashes set from one hash per distinct bid object, and ``flat``
sets its vector's hash from the one hash of its bid; both hand those
pairs to ``BidVector._hashed``, the one place outside ``__hash__`` that
stores a hash.  ``rank_bids`` ranks the distinct values of a collection
of bids, and ``flat_keys`` keys each vector by its bidders and their
bids' ranks, so the system build and the witness and result writers can
sort and key on integers.

``ParseMemo`` holds what one input file's texts parse to, so each distinct
bidder key and bid text in a file is parsed once: its tables parse a
missing key themselves, so a hit is one subscript.  A text that is not a
``str`` (a JSON number, ``true``, a list) is parsed every time and never
stored, since ``true`` would hit the slot of ``1`` and a list cannot be
hashed.

Everything is immutable and enumerations come back in deterministic order,
so downstream artifacts (witness files, reports) are reproducible byte for
byte.  Sub-multiset enumeration is exponential in the number of entries;
the package targets desk scale (vectors of at most ~10 bidders).
"""

from __future__ import annotations

import itertools
from collections import Counter
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

    def canonical_key(self) -> tuple:
        """Sort key: by size, then by the sorted value tuple."""
        return (len(self.values), self.values)

    def __repr__(self) -> str:
        return "BidMultiset([" + ", ".join(format_rational(v) for v in self.values) + "])"


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


def _bid_groups(entries) -> dict[Fraction, list[int]]:
    """Each distinct bid of ``entries`` with the positions holding it, in
    bidder-id order."""
    groups: dict[Fraction, list[int]] = {}
    for pos, (_, v) in enumerate(entries):
        groups.setdefault(v, []).append(pos)
    return groups


def sub_multisets(multiset: BidMultiset) -> list[BidMultiset]:
    """Every sub-multiset, each exactly once, in canonical order.

    The count is the product of (multiplicity + 1) over distinct values.
    Order: the multiplicity of the smallest value varies fastest.
    """
    counts = Counter(multiset.values)
    return [BidMultiset(tuple(v for v, c in zip(counts, reversed(picked)) for _ in range(c)))
            for picked in itertools.product(*(range(m + 1) for m in reversed(counts.values())))]


def restrictions(vector: BidVector, multiset: BidMultiset) -> list[BidVector]:
    """All sub-vectors of ``vector`` whose bag equals ``multiset``.

    Returns the empty list when ``multiset`` is not a sub-multiset of the
    vector's bag.  Ordered by the sorted tuple of kept bidder ids.
    """
    groups = _bid_groups(vector.entries)
    # a bid held fewer times than it is counted has no combinations, and
    # then the product is empty
    combos = itertools.product(*(itertools.combinations(groups.get(v, ()), c)
                                 for v, c in Counter(multiset.values).items()))
    # positions increase with bidder ids, so sorting them sorts the ids
    kept = sorted(sorted(pos for group in combo for pos in group) for combo in combos)
    return [BidVector(tuple(vector.entries[pos] for pos in k)) for k in kept]


def completion(vector: BidVector, multiset: BidMultiset, fill) -> BidVector:
    """Canonical completion: keep the first restriction, fill the rest.

    Same domain as ``vector``; agrees with the lexicographically smallest
    restriction realizing ``multiset`` and is constantly ``fill`` on the
    remaining bidders.  That restriction keeps, for each value, its first
    ``count`` holders in bidder-id order.
    """
    groups = _bid_groups(vector.entries)
    counts = Counter(multiset.values)
    if any(c > len(groups.get(v, ())) for v, c in counts.items()):
        raise ValueError(
            f"not a sub-multiset: {multiset!r} of {BidMultiset.of(vector.values())!r}")
    kept = {pos for v, c in counts.items() for pos in groups[v][:c]}
    fill_bid = ensure_rational(fill)
    return BidVector(tuple(pair if pos in kept else (pair[0], fill_bid)
                           for pos, pair in enumerate(vector.entries)))


class CompletionFamilies:
    """The ``fill``-completion families of one vector, in which at most one
    more bidder bids ``fill``, with their members keyed by kept-position
    mask and each built once.

    Bit p of a member's mask is set when position p holds the vector's own
    pair.  Every other position holds the fill: the bidder set to the fill
    never keeps its bid, and a bid equal to the fill is never kept, since
    it reads the same either way.  So the member of a mask is the vector
    with every position outside the mask set to the fill, whichever family
    it came from, and ``members`` maps each mask built so far to its one
    member.  Which masks a family holds is decided per family, by the
    first-holders rule below.

    A sub-multiset is a tuple of counts, one per distinct bid, and its
    completion keeps the first holders of each bid.  Only the counts of
    bids other than the fill are enumerated, and each count tuple gives a
    distinct member, so a family can have fewer members than the bag has
    sub-multisets.

    Members are built from shared pairs: each position's kept pair is the
    vector's own, and its filled pair and both (bidder, hash) pairs are
    built once, from one hash per distinct bid object.  The pair lists
    grow one bid group at a time, each list so far copied with the
    group's first 1, 2, ... holders kept, and each row carries its mask
    along.  A member gets its hash from its pair hashes through
    ``BidVector._hashed`` when it is built, and families of vectors that
    share bid objects share them too, so their equal members compare
    equal by identity.
    """

    def __init__(self, vector: BidVector, fill):
        self.fill = fill_bid = ensure_rational(fill)
        hashes = {id(fill_bid): hash(fill_bid)}
        for _, v in vector.entries:
            if id(v) not in hashes:
                hashes[id(v)] = hash(v)
        self._kept = kept = vector.entries
        self._kept_hashes = [(i, hashes[id(v)]) for i, v in kept]
        self._filled = ([(i, fill_bid) for i, _ in kept], [(i, hashes[id(fill_bid)]) for i, _ in kept])
        self._groups = [g for v, g in _bid_groups(kept).items() if v != fill_bid]
        self.members: dict[int, BidVector] = {}

    def masks(self, filled: int | None = None) -> list[int]:
        """The masks of the family of the vector with bidder ``filled``'s
        bid set to the fill, in enumeration order; a member not built
        before is built and kept in ``members``."""
        kept, kept_hashes, members = self._kept, self._kept_hashes, self.members
        rows = [(0, *self._filled)]
        for group in self._groups:
            positions = [(pos, 1 << pos) for pos in group if kept[pos][0] != filled]
            grown = []
            for mask, pairs, pair_hashes in rows:
                grown.append((mask, pairs, pair_hashes))
                for pos, bit in positions:
                    pairs, pair_hashes = pairs[:], pair_hashes[:]
                    pairs[pos], pair_hashes[pos] = kept[pos], kept_hashes[pos]
                    mask |= bit
                    grown.append((mask, pairs, pair_hashes))
            rows = grown
        for mask, pairs, pair_hashes in rows:
            if mask not in members:
                members[mask] = BidVector._hashed(tuple(pairs), tuple(pair_hashes))
        return [mask for mask, _, _ in rows]


def full_family(vector: BidVector, fill) -> frozenset[BidVector]:
    """The canonical full family: one ``fill``-completion of ``vector`` per
    sub-multiset of its bag, each built once by ``CompletionFamilies``.

    A holder of a bid equal to ``fill`` reads the same kept or filled, so
    the counts of that bid all give the same member, and the family can
    have fewer members than the bag has sub-multisets.
    """
    family = CompletionFamilies(vector, fill)
    family.masks()
    return frozenset(family.members.values())


def rank_bids(bids: Iterable[Fraction]) -> tuple[list[Fraction], dict[int, int]]:
    """The distinct values of ``bids`` in increasing order, and the rank of
    each bid object among them, keyed by the object's ``id``.

    Values are keyed by (numerator, denominator), so equal values held by
    distinct objects, an ``int`` and its ``Fraction`` included, share a
    rank, and no bid is hashed.  Ranks are injective and order-preserving
    on values, so tuples of (bidder, rank) pairs order vectors as their
    ``entries`` do and are equal exactly when the vectors are, and
    (size, ranks) orders multisets like ``BidMultiset.canonical_key``.
    An id names its bid only while the caller holds the bids.
    """
    objs = {id(v): v for v in bids}
    values = sorted({(v.numerator, v.denominator): v for v in objs.values()}.values())
    rank = {(v.numerator, v.denominator): r for r, v in enumerate(values)}
    return values, {i: rank[v.numerator, v.denominator] for i, v in objs.items()}


def flat_keys(vectors: list[BidVector]) -> tuple[list[Fraction], list[tuple[int, ...]]]:
    """The distinct bids of ``vectors`` in increasing order, from
    ``rank_bids``, and the flat key ``(i1, r1, i2, r2, ...)`` of each
    vector, its bidders with their bids' ranks, in the order given.

    Every (bidder, rank) pair is two integers, so flat keys order vectors
    like ``BidVector.entries`` (a vector whose pairs are a prefix of
    another's sorts first) with integer compares only, and are equal
    exactly when the vectors are.
    """
    values, rank_of = rank_bids([v for vec in vectors for _, v in vec.entries])
    keys = []
    for vec in vectors:
        key = []
        for i, v in vec.entries:
            key.append(i)
            key.append(rank_of[id(v)])
        keys.append(tuple(key))
    return values, keys


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


class _Table(dict):
    """A dict that parses a missing key with ``parse`` and stores the
    result; a failed parse raises before anything is stored."""

    __slots__ = ("parse",)

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


class ParseMemo:
    """What the texts of one input file parse to, each distinct text once.

    Three self-filling tables: ``bidders`` and ``indices`` map object keys
    through ``canonical_id`` (the noun names the key in its error), and
    ``texts`` maps ``str`` texts (bids, coefficients, right-hand sides)
    through ``ensure_rational``.  A hit is one subscript; a miss parses,
    stores and returns, and a failed parse raises and stores nothing.
    Only ``str`` texts are stored: any other JSON value goes through
    ``ensure_rational`` every time, which keeps its exact error (``true``
    would hit the slot of ``1``, and a list cannot be hashed).  The tables
    take ``ensure_rational`` as it is bound when the memo is made.  A memo
    serves one file; it is never shared across files.
    """

    def __init__(self):
        self.bidders: dict[str, int] = _Table(lambda key: canonical_id(key, "bidder ids"))
        self.indices: dict[str, int] = _Table(lambda key: canonical_id(key, "coefficient indices"))
        self.texts: dict[str, Fraction] = _Table(ensure_rational)

    def rational(self, text) -> Fraction:
        return self.texts[text] if isinstance(text, str) else ensure_rational(text)


def bid_vector_from_json(obj, memo: ParseMemo | None = None) -> BidVector:
    """Parse ``{"bids": {"<id>": "<p/q>", ...}}``, with ``memo`` holding the
    texts already parsed from the same file.

    Each key and each ``str`` text is one subscript of a ``memo`` table,
    which parses it on a miss; a text that is not a ``str`` goes through
    ``ensure_rational`` and is never stored.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("bids"), dict):
        raise ValueError('bid vector JSON must be {"bids": {"<id>": "<p/q>", ...}}')
    memo = ParseMemo() if memo is None else memo
    bidders, texts = memo.bidders, memo.texts
    entries = []
    for key, text in obj["bids"].items():
        entries.append((bidders[key], texts[text] if isinstance(text, str) else ensure_rational(text)))
    entries.sort()  # canonical ids are distinct, so only ids are compared
    return BidVector(tuple(entries))


def multiset_to_json(multiset: BidMultiset) -> list[str]:
    return [format_rational(v) for v in multiset.values]


def multiset_from_json(obj, memo: ParseMemo | None = None) -> BidMultiset:
    if not isinstance(obj, list):
        raise ValueError("multiset JSON must be an array of 'p/q' strings")
    memo = ParseMemo() if memo is None else memo
    return BidMultiset(tuple(sorted(memo.rational(v) for v in obj)))
