"""Differential tests: interned parsing, rank-based completion families
and the one-pass witness text writer against the code they replaced.

The ``reference_*`` functions are the previous ``bid_vector_from_json``,
``system_from_json``, ``completion``, ``full_family`` and
``witness_set_to_json``, kept here unchanged; the witness file is
``json.dumps(..., indent=2, sort_keys=True)`` of the last.  The old
parsers coerce every entry on its own (a bid went through
``ensure_rational`` twice, the second time in ``BidVector.of``); the new
ones parse each distinct text of a file once through a ``ParseMemo``.  The old family builds a
``BidMultiset`` and a ``Fraction``-keyed count dict per sub-multiset; the
new one enumerates count tuples over bid groups, skips the group equal to
the fill, and gives each member the hash it would compute, built from one
hash per distinct bid object.  The old writer sorts by ``entries`` and
dumps one dict per vector; the new one sorts by flat (bidder, rank) keys
from ``flat_keys``, on ranks from ``rank_bids`` checked against their
definition on the same inputs (``conftest.assert_ranked``), and joins
the lines with the bidder keys in string order.

Both routes must give equal results, with bids as ``Fraction`` and ids as
``int``, or the same exception type and message raised at the same entry.
Mutants these tests catch (each checked on a broken copy of the package):

* one memo table shared by bidder keys and bid texts (a text ``"1"``
  answers for the key ``"1"`` with a ``Fraction``, and a text ``"01"``
  lets the key ``"01"`` through);
* a memo that also stores JSON ints, so ``true`` hits the slot of ``1``
  instead of raising;
* keeping the last holders of a bid instead of the first;
* enumerating counts ``0..m-1`` instead of ``0..m``;
* a fill that is not coerced, so a ``str`` fill lands in the vectors;
* a member's kept hash that uses the fill's hash at a kept position;
* checking the domain cap after every vector's parse, so a bad bid in
  vector 1 hides vector 0's cap error.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import assert_canonical, assert_ranked
from imbalance import (
    BidMultiset,
    BidVector,
    LinearRow,
    LinearSystem,
    completion,
    full_family,
    multiset_from_json,
    sub_multisets,
    system_from_json,
)
from imbalance.bids import ParseMemo, bid_vector_from_json, bid_vector_to_json, canonical_id
from imbalance.cli import main
from imbalance.rationals import ensure_rational, format_rational
from imbalance import witness
from imbalance.witness import vickrey_witness_set, witness_set_text


# --- the replaced code, verbatim ---------------------------------------

def reference_bid_vector_from_json(obj) -> BidVector:
    if not isinstance(obj, dict) or not isinstance(obj.get("bids"), dict):
        raise ValueError('bid vector JSON must be {"bids": {"<id>": "<p/q>", ...}}')
    return BidVector.of({
        canonical_id(key, "bidder ids"): ensure_rational(text)
        for key, text in obj["bids"].items()
    })


def reference_system_from_json(obj) -> LinearSystem:
    if not isinstance(obj, dict) or "variables" not in obj or "rows" not in obj:
        raise ValueError('linear system JSON must have "variables" and "rows"')
    variables = tuple(multiset_from_json(m) for m in obj["variables"])
    if len(set(variables)) != len(variables):
        # one unknown per multiset: a repeated one would fold two columns into one
        raise ValueError("variables must be distinct multisets")
    rows = []
    for row in obj["rows"]:
        if not isinstance(row, dict) or not isinstance(row.get("coeffs"), dict) or "rhs" not in row:
            raise ValueError('each row must be an object with "coeffs" and "rhs"')
        coeffs = {}
        for key, text in row["coeffs"].items():
            col = canonical_id(key, "coefficient indices")
            if col >= len(variables):
                raise ValueError(f"coefficient index {col} out of range")
            value = ensure_rational(text)
            if value:  # the solver reads a stored coefficient as nonzero
                coeffs[col] = value
        rows.append(
            LinearRow.of(
                coeffs=coeffs,
                rhs=ensure_rational(row["rhs"]),
                origin=reference_bid_vector_from_json(row.get("origin", {"bids": {}})),
            )
        )
    return LinearSystem(variables=variables, rows=rows)


def reference_completion(vector: BidVector, multiset: BidMultiset, fill) -> BidVector:
    remaining = Counter(multiset.values)
    keep = []
    for _, v in vector.entries:
        kept = remaining.get(v, 0) > 0
        if kept:
            remaining[v] -= 1
        keep.append(kept)
    if any(remaining.values()):
        raise ValueError(f"not a sub-multiset: {multiset!r} of {BidMultiset.of(vector.values())!r}")
    fill_bid = ensure_rational(fill)
    return BidVector(
        tuple((i, v if k else fill_bid) for (i, v), k in zip(vector.entries, keep))
    )


def reference_full_family(vector: BidVector, fill) -> frozenset[BidVector]:
    fill_bid = ensure_rational(fill)
    return frozenset(
        reference_completion(vector, m, fill_bid) for m in sub_multisets(BidMultiset.of(vector.values()))
    )


def reference_witness_set_to_json(vectors: frozenset[BidVector]) -> list[dict]:
    return [bid_vector_to_json(v) for v in sorted(vectors, key=lambda b: b.entries)]


def reference_witness_set_text(vectors: frozenset[BidVector]) -> str:
    return json.dumps(reference_witness_set_to_json(vectors), indent=2, sort_keys=True) + "\n"


# --- helpers -----------------------------------------------------------

def typed(vector: BidVector) -> tuple:
    """The entries with their types: int ids and Fraction bids compare
    equal to a Fraction id or an int bid, so equality alone would miss a
    value taken from the wrong memo table."""
    assert_canonical(vector)
    return tuple((type(i), i, type(v), v) for i, v in vector.entries)


def assert_same_text(got: str, want: str):
    """Byte equality, reported at the first line that differs: pytest's
    own diff of two texts the size of the k = 8 witness file runs for
    minutes."""
    if got != want:
        pairs = zip(got.splitlines(True) + [""], want.splitlines(True) + [""])
        at, (line, expected) = next((k, pair) for k, pair in enumerate(pairs) if pair[0] != pair[1])
        pytest.fail(f"texts differ at line {at + 1}: {line!r} != {expected!r}")


def parse_each(parse, entries):
    """Parse entries in order: the typed vectors, and the first error as
    (position, type, message), or None."""
    out = []
    for pos, entry in enumerate(entries):
        try:
            vector = parse(entry)
        except Exception as exc:
            return out, (pos, type(exc), str(exc))
        out.append(typed(vector))  # outside the try: a broken order must fail, not compare
    return out, None


def assert_same_parse(entries):
    memo = ParseMemo()
    got = parse_each(lambda e: bid_vector_from_json(e, memo), entries)
    assert got == parse_each(reference_bid_vector_from_json, entries)


# --- parsing -----------------------------------------------------------

# repeated texts, "2/4" next to "1/2", JSON ints (1 sits where true would
# land in a memo that kept ints), negatives, texts that also appear as keys
TEXTS = ["1/2", "2/4", "1", "01", "2", "-3/2", "-6/4", "0", "-0", "7/3", 1, 2, 0, -5]
KEYS = ["0", "1", "2", "3", "7"]
BAD = {
    "float bid": lambda e: {"bids": {**e["bids"], "9": 1.5}},
    "true bid": lambda e: {"bids": {**e["bids"], "9": True}},
    "null bid": lambda e: {"bids": {**e["bids"], "9": None}},
    "list bid": lambda e: {"bids": {**e["bids"], "9": ["1"]}},
    "bad text": lambda e: {"bids": {**e["bids"], "9": "1/0"}},
    "01 key": lambda e: {"bids": {**e["bids"], "01": "1"}},
    "non-object": lambda e: ["1", "2"],
    "missing bids": lambda e: {"bid": e["bids"]},
}

vector_objects = st.fixed_dictionaries(
    {"bids": st.dictionaries(st.sampled_from(KEYS), st.sampled_from(TEXTS), max_size=5)}
)


@st.composite
def witness_arrays(draw):
    entries = draw(st.lists(vector_objects, max_size=8))
    if entries and draw(st.booleans()):
        pos = draw(st.integers(0, len(entries) - 1))
        entries[pos] = BAD[draw(st.sampled_from(sorted(BAD)))](entries[pos])
    return entries


@settings(max_examples=300, deadline=None)
@given(witness_arrays())
def test_witness_arrays_parse_like_reference(entries):
    assert_same_parse(entries)


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("pos", [0, 2])
def test_each_bad_entry_fails_like_reference(bad, pos):
    entries = [{"bids": {"1": "1", "2": 1, "3": "01"}}, {"bids": {"1": "1/2", "3": "2/4"}},
               {"bids": {}}]
    entries[pos] = BAD[bad](entries[pos])
    assert_same_parse(entries)


def test_keys_and_texts_never_share_a_slot():
    # each text is also a key: "1" and "3" as bids, then as keys
    entries = [{"bids": {"2": "1", "4": "3"}}, {"bids": {"1": "2", "3": "4"}},
               {"bids": {"5": "01"}}, {"bids": {"01": "5"}}]
    assert_same_parse(entries)


# small systems whose texts repeat across variables, coefficients, rhs and origins
SYSTEM_TEXTS = st.sampled_from(["1", "2", "1/2", "2/4", "0", "0/7", "-1", "-3/6", "01", 1, 1.5, True,
                                None])
systems = st.fixed_dictionaries({
    "variables": st.lists(st.lists(SYSTEM_TEXTS, max_size=2), max_size=3),
    "rows": st.lists(
        st.fixed_dictionaries(
            {"coeffs": st.dictionaries(st.sampled_from(["0", "1", "2", "01"]), SYSTEM_TEXTS,
                                       max_size=3),
             "rhs": SYSTEM_TEXTS},
            optional={"origin": st.fixed_dictionaries({"bids": st.dictionaries(
                st.sampled_from(["0", "1", "2", "01"]), SYSTEM_TEXTS, max_size=3)})},
        ),
        max_size=4,
    ),
})


def system_summary(system: LinearSystem) -> tuple:
    assert_canonical(system.variables)
    return (
        tuple(tuple((type(v), v) for v in m.values) for m in system.variables),
        tuple((tuple((c, type(v), v) for c, v in row.coeffs.items()),
               type(row.rhs), row.rhs, row.scale, typed(row.origin)) for row in system.rows),
    )


@settings(max_examples=300, deadline=None)
@given(systems)
def test_systems_parse_like_reference(obj):
    def outcome(parse):
        try:
            system = parse(obj)
        except Exception as exc:
            return type(exc), str(exc)
        return system_summary(system)

    assert outcome(system_from_json) == outcome(reference_system_from_json)


# --- completion families -----------------------------------------------

# repeated bids, and fills drawn from the same pool so they often equal a base bid
POOL = [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(-1, 3)]
bases = st.dictionaries(st.integers(0, 9), st.sampled_from(POOL), max_size=6).map(BidVector.of)
fills = st.sampled_from(POOL + [Fraction(7)]).flatmap(
    lambda f: st.sampled_from([f, str(f)] + ([int(f)] if f.denominator == 1 else []))
)


def assert_kept_hashes(family):
    """Each member holds its hash from the build, and it is the hash of a
    fresh vector on the same entries and of one built by ``BidVector.of``
    from equal but distinct bid objects."""
    for member in family:
        kept = member.__dict__["_hash"]
        assert kept == hash(BidVector(member.entries))
        assert kept == hash(BidVector.of({i: format_rational(v) for i, v in member.entries}))


@settings(max_examples=300, deadline=None)
@given(bases, fills)
def test_full_family_matches_reference(base, fill):
    got = full_family(base, fill)
    assert got == reference_full_family(base, fill)
    assert {typed(v) for v in got} == {typed(v) for v in reference_full_family(base, fill)}
    assert_kept_hashes(got)


@pytest.mark.parametrize("fill", [5, "5", Fraction(5), "10/2"])
def test_fill_equal_to_a_repeated_base_bid(fill):
    base = BidVector.of({1: 5, 2: 3, 4: 5, 6: 3})
    family = full_family(base, fill)
    assert family == reference_full_family(base, fill)
    assert len(family) == 3  # only the two 3-holders vary
    assert_kept_hashes(family)


@pytest.mark.parametrize("fill", [0, "0", Fraction(0)])
def test_empty_base(fill):
    family = full_family(BidVector.of({}), fill)
    assert family == reference_full_family(BidVector.of({}), fill)
    assert_kept_hashes(family)


# --- the witness writer ------------------------------------------------

# ints next to equal Fractions; each Fraction is built afresh per draw, so
# equal values are held by distinct objects
VALUES = [-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3)]
bid_objects = st.sampled_from(VALUES) | st.sampled_from(VALUES).map(Fraction)
# ids whose string order differs from their integer order ("10" < "2")
BIDDERS = [0, 1, 2, 3, 9, 10, 11, 100]
raw_vectors = st.dictionaries(st.sampled_from(BIDDERS), bid_objects, max_size=5).map(
    lambda bids: BidVector(tuple(sorted(bids.items())))  # keeps int bids as ints
)


@settings(max_examples=300, deadline=None)
@given(st.frozensets(raw_vectors, max_size=12))
@example(frozenset())
@example(frozenset({BidVector()}))
def test_witness_writer_matches_reference(vectors):
    assert_same_text(witness_set_text(vectors), reference_witness_set_text(vectors))
    assert_ranked(vectors)


def test_witness_writer_ranks_spellings_negatives_and_20_bit_bids():
    rng = random.Random(20)
    wide = [Fraction(rng.choice([-1, 1]) * rng.randint(2 ** 19, 2 ** 20),
                     rng.randint(2 ** 19, 2 ** 20)) for _ in range(6)]
    # "1/2" and "2/4" parse to distinct objects of one value, next to negatives
    spelled = [BidVector.of({1: "1/2", 2: "-3"}), BidVector.of({1: "2/4", 3: -3}),
               BidVector.of({0: "-2/4", 1: "1/2"})]
    assert spelled[0][1] is not spelled[1][1]
    vectors = frozenset(spelled + [BidVector.of(dict(enumerate(wide[k:k + 3]))) for k in range(4)])
    assert len(vectors) == 7
    assert_ranked(vectors)
    assert_same_text(witness_set_text(vectors), reference_witness_set_text(vectors))


@pytest.mark.parametrize("n", [1, 4, 8])
def test_witness_writer_matches_reference_on_stock_sets(n):
    vectors = vickrey_witness_set(n)
    assert_same_text(witness_set_text(vectors), reference_witness_set_text(vectors))


# --- cost guard: bids hashed per distinct bid, never per member ----------

@pytest.fixture
def fraction_hashes(monkeypatch):
    """A list that grows by one on every ``Fraction.__hash__`` call."""
    calls = []
    original = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    return calls


# Ten bids each time.  A call hashes each bid once to group the bids, and
# each distinct bid object, the fill's included, once more: at most
# 2 * 10 + 1, whatever the family's size.
@pytest.mark.parametrize(
    "bids, size, hashes",
    [
        # ten distinct values, one equal to the fill: the largest family
        ({i: Fraction(i) for i in range(1, 11)}, 512, 10 + 11),
        # one object equal to the fill, held ten times: a single member
        (dict.fromkeys(range(1, 11), Fraction(1)), 1, 10 + 2),
        # ten distinct objects of one value other than the fill
        ({i: Fraction(3) for i in range(1, 11)}, 11, 10 + 11),
    ],
    ids=["distinct", "all-fill", "repeated"],
)
def test_full_family_hashes_each_bid_object_once(bids, size, hashes, fraction_hashes):
    family = full_family(BidVector(tuple(bids.items())), Fraction(1))
    assert len(family) == size
    assert len(fraction_hashes) == hashes


def test_witness_writer_hashes_no_bid(fraction_hashes):
    vectors = vickrey_witness_set(8)
    fraction_hashes.clear()
    assert witness_set_text(vectors).count('"bids"') == 1280
    assert fraction_hashes == []


def test_witness_writer_formats_each_value_once(monkeypatch):
    # 12,800 entries over the 11 values 1..9, 10 and 11
    calls = []

    def counted(value):
        calls.append(value)
        return format_rational(value)

    monkeypatch.setattr(witness, "format_rational", counted)
    assert witness_set_text(vickrey_witness_set(8)).count('"bids"') == 1280
    assert sorted(calls) == [Fraction(v) for v in range(1, 12)]


@settings(max_examples=200, deadline=None)
@given(bases, st.lists(st.sampled_from(POOL), max_size=4).map(BidMultiset.of), fills)
def test_completion_matches_reference(base, multiset, fill):
    def outcome(complete):
        try:
            return typed(complete(base, multiset, fill))
        except ValueError as exc:
            return str(exc)

    assert outcome(completion) == outcome(reference_completion)


# --- the CLI checks each vector's domain cap right after that vector parses --

ELEVEN = {"bids": {str(i): str(i) for i in range(1, 12)}}


@pytest.mark.parametrize(
    "vectors, err",
    [
        # vector 0 is over the cap; vector 1's bad bid is never reached
        ([ELEVEN, {"bids": {"1": 1.5}}],
         "error: bid vector in {path} has 11 bidders, above the cap of 10\n"),
        # vector 0's bad bid is reported before vector 1's cap
        ([{"bids": {"1": 1.5}}, ELEVEN],
         "error: bad bid vector in {path}: exact rational expected, got float\n"),
    ],
    ids=["over-cap-before-bad-bid", "bad-bid-before-bad-cap"],
)
def test_cap_is_checked_where_it_was(tmp_path, capsys, vectors, err):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(vectors), encoding="utf-8")
    assert main(["check-balance", "--witness", str(path), "--rule", "constant:7/3"]) == 2
    assert capsys.readouterr().err == err.format(path=path)
