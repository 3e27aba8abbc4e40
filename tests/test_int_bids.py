"""``int`` bids stay ``int``: results stay exact, and outputs keep their bytes.

``ensure_rational`` returns an ``int`` unchanged, and the stock instance
bids ``int``s, so every quantity computed from them is an ``int`` or,
after a true division, a ``Fraction``, never a ``float``.  A ``float``
would still compare equal (``-1.25 == Fraction(-5, 4)``), so the results
are checked by type.  The stock pair built from ``Fraction`` bids must
give the same bytes as the ``int`` pair on every command that prints it.

Parsed text follows the same rule: an integral text is an ``int``, so a
witness file of integer bids reaches the solver with no ``Fraction`` bid,
and ``check-balance`` prints the same bytes whichever way a bid is
spelled.  The cost guards count exactly: per witness file, no
``Fraction`` negation and one ``Fraction`` per distinct non-integral
certificate multiplier; each distinct bidder key and bid text parsed once.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from imbalance import (
    AdequacyError,
    BidVector,
    build_payment_table,
    default_selector,
    forced_payment,
    forced_payment_sum,
    get_rule,
    verify_imbalance,
    vickrey_instance,
    witness,
)
from imbalance import bids, cli, rationals
from imbalance.bids import bid_vector_from_json
from imbalance.cli import main
from imbalance.witness import vickrey_witness_set, witness_set_text

RULES = ["second-price", "neg-second-price", "first-price", "neg-first-price"]
RECORDED = Path(__file__).resolve().parent / "theorem_outputs.json"


def assert_exact(*values):
    for value in values:
        assert type(value) in (int, Fraction), f"{value!r} is a {type(value).__name__}"


# --- exactness ---------------------------------------------------------

def test_readme_example_is_a_fraction():
    value = forced_payment(BidVector.of({3: 1, 4: 2}), 5, get_rule("neg-second-price"), 1, 2)
    assert type(value) is Fraction and value == Fraction(-5, 4)


int_vectors = st.dictionaries(st.integers(1, 6), st.integers(-4, 9), min_size=2, max_size=5).map(
    BidVector.of)


@settings(max_examples=100, deadline=None)
@given(int_vectors, st.sampled_from(RULES))
def test_forced_payments_on_int_bids_are_exact(vector, name):
    rule = get_rule(name)
    assert all(type(v) is int for v in vector.values())
    try:
        total, eta = forced_payment_sum(vector, rule, default_selector(vector))
    except AdequacyError:
        return
    assert_exact(total, *eta.values())
    top = max(vector.dom)
    assert_exact(forced_payment(BidVector.of({}), vector[top], rule, 7, 8))


@pytest.mark.parametrize("n_bidders, fill, extras", [(2, 3, []), (4, 5, [1, 2]), (5, 7, [2, 2, 6])])
def test_payment_table_coefficients_are_exact(n_bidders, fill, extras):
    for _, coefficient in build_payment_table(n_bidders, fill, extras, get_rule("first-price")):
        assert_exact(coefficient)


@pytest.mark.parametrize("name", RULES)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_stock_report_is_exact(n, name):
    report = verify_imbalance(get_rule(name), *vickrey_instance(n))
    values = [v for v in (report.lhs, report.rhs) if v is not None]
    assert_exact(*values, *report.eta_low.values(), *report.eta_high.values())


# --- the same bytes from either spelling of the stock bids -------------

def fraction_vickrey_vectors(n: int) -> tuple[BidVector, BidVector]:
    """The stock pair with one ``Fraction`` object per bid value."""
    bid = [Fraction(v) for v in range(n + 4)]
    low = {i: bid[i] for i in range(1, n + 2)}
    low[n + 2] = bid[n + 3]
    high = dict(low)
    high[n + 1] = bid[n + 2]
    return BidVector.of(low), BidVector.of(high)


def rule_pairs() -> list[tuple[str, str]]:
    keys = json.loads(RECORDED.read_text(encoding="utf-8"))
    return sorted({tuple(key.split(" ")[:2]) for key in keys})


def outputs(n: int, out: Path, capsys) -> list:
    """Exit code, stdout and report of ``theorem --trace`` for every rule
    pair, then the ``witness`` text."""
    got = []
    for rule, g in rule_pairs():
        code = main(["theorem", "--n", str(n), "--rule", rule, "--g", g, "--trace",
                     "--out", str(out)])
        got.append((rule, g, code, capsys.readouterr().out, out.read_bytes()))
    got.append((main(["witness", "--n", str(n)]), capsys.readouterr().out))
    return got


@pytest.mark.parametrize("n", range(1, 7))
def test_fraction_and_int_stock_bids_print_the_same_bytes(n, tmp_path, capsys, monkeypatch):
    assert len(rule_pairs()) == 25
    assert all(type(v) is int for vector in witness.vickrey_vectors(n) for v in vector.values())
    as_ints = outputs(n, tmp_path / "report.json", capsys)
    monkeypatch.setattr(witness, "vickrey_vectors", fraction_vickrey_vectors)
    triple = vickrey_instance(n)[0]
    assert all(type(v) is Fraction for vector in (triple.b_low, triple.b_high)
               for v in vector.values())
    as_fractions = outputs(n, tmp_path / "report.json", capsys)
    for got, want in zip(as_ints, as_fractions, strict=True):
        assert got == want, got[:2]


# --- parsed texts: integral texts are ints ------------------------------

def stock_file(tmp_path, n: int, spell=str) -> tuple[str, list]:
    """The stock witness file for ``n``, each bid text passed through
    ``spell``; its path and its entries."""
    entries = json.loads(witness_set_text(vickrey_witness_set(n)))
    entries = [{"bids": {k: spell(t) for k, t in e["bids"].items()}} for e in entries]
    path = tmp_path / f"witness-{n}.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path), entries


@pytest.mark.parametrize("rule", ["neg-second-price", "constant:7/3"])
def test_a_bid_spelled_as_a_quotient_prints_the_same_bytes(rule, tmp_path, capsys):
    """``"6"`` and ``"12/2"`` are one ``int``: stdout and the result file agree."""
    got = []
    for spell in (str, lambda t: f"{2 * int(t)}/2"):
        path, entries = stock_file(tmp_path, 3, spell)
        out = tmp_path / "result.json"
        plain = main(["check-balance", "--witness", path, "--rule", rule]), capsys.readouterr().out
        written = main(["check-balance", "--witness", path, "--rule", rule, "--out", str(out)])
        got.append((plain, written, capsys.readouterr().out, out.read_bytes()))
    assert all(text.endswith("/2") for e in entries for text in e["bids"].values())
    assert got[0] == got[1]


@pytest.fixture
def fraction_calls(monkeypatch):
    """Counts of ``Fraction`` constructions and negations."""
    counts = Counter()
    new, neg = Fraction.__new__, Fraction.__neg__

    def counted_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new(cls, *args, **kwargs)

    def counted_neg(self):
        counts["neg"] += 1
        return neg(self)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(Fraction, "__neg__", counted_neg)
    return counts


@pytest.mark.parametrize("n", range(1, 9))
def test_refuting_a_stock_file_makes_no_bid_fraction(n, tmp_path, capsys, fraction_calls):
    """The only ``Fraction``s are the distinct non-integral multipliers of
    the certificate; no second price is negated as a ``Fraction``."""
    path, _ = stock_file(tmp_path, n)
    fraction_calls.clear()
    assert main(["check-balance", "--witness", path, "--rule", "neg-second-price"]) == 3
    multipliers = json.loads(capsys.readouterr().out.splitlines()[1])["multipliers"]
    assert fraction_calls == Counter(new=len({m for m in multipliers if "/" in m}))


@pytest.mark.parametrize("n", [1, 5, 8])
def test_each_key_text_and_pair_of_a_file_is_parsed_once(n, tmp_path, capsys, monkeypatch):
    path, entries = stock_file(tmp_path, n)
    keys, texts = Counter(), Counter()
    canonical_id, parse_rational = bids.canonical_id, rationals.parse_rational
    memos = []

    class RecordedMemo(bids.ParseMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    def counted_id(key, noun):
        keys[key] += 1
        return canonical_id(key, noun)

    def counted_rational(text):
        texts[text] += 1
        return parse_rational(text)

    monkeypatch.setattr(bids, "canonical_id", counted_id)
    monkeypatch.setattr(rationals, "parse_rational", counted_rational)
    monkeypatch.setattr(cli, "ParseMemo", RecordedMemo)
    assert main(["check-balance", "--witness", path, "--rule", "neg-second-price"]) == 3
    capsys.readouterr()
    items = {item for e in entries for item in e["bids"].items()}
    assert keys == Counter({key for key, _ in items})
    assert texts == Counter({text for _, text in items})
    [memo] = memos
    assert set(memo.pairs) == items


@pytest.mark.parametrize("n", [1, 5, 8])
def test_vectors_that_share_a_pair_share_its_tuple(n, tmp_path):
    _, entries = stock_file(tmp_path, n)
    memo = bids.ParseMemo()
    vectors = [bid_vector_from_json(e, memo) for e in entries]
    first = {}
    for vector in vectors:
        for pair in vector.entries:
            assert first.setdefault(pair, pair) is pair
    assert len(first) == len({item for e in entries for item in e["bids"].items()})
