"""Witness construction and the end-to-end imbalance verification.

The pipeline falsifies budget balance for a price rule f on a small,
explicit set of bid vectors:

1. pick two vectors on the same bidders together with a tag map h that
   assigns each bidder one of two rules (f itself or a helper rule g)
   such that exactly one of f, g changes value between the two vectors
   (``CounterexampleTriple`` / ``is_counterexample``);
2. for each bidder and each vector, build the adequate set that forces
   the payment on the corresponding deletion multiset: the full family of
   the vector with the bidder's bid set to its partner's, the fill;
3. with every forced payment substituted, the residual
   f(vector) - (1/n) * sum of tagged rule values differs between the two
   vectors, so balance cannot hold on both - the union of the adequate
   sets plus the two vectors is a finite witness.

``verify_imbalance`` runs the three steps in one pass, logs each
hypothesis check, and reports both residuals; ``vickrey_vectors`` and
``vickrey_witness_set`` build the stock instance that refutes balance for
the negated second-price rule, and ``witness_set_text`` writes a set as
the witness file.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .bids import BidVector, flat, full_family, rank_bids, remove
from .payments import build_adequate_set
from .rationals import format_rational
from .rules import PriceRule, RuleUndefinedError, get_rule

RULE_F = "F"
RULE_G = "G"


@dataclass(frozen=True)
class CounterexampleTriple:
    """Two vectors on the same bidders plus the per-bidder rule tags.

    ``h`` maps every bidder to RULE_F or RULE_G, selecting which of the
    two rules the bidder's forced payment evaluates through.
    """

    b_low: BidVector
    b_high: BidVector
    h: Mapping[int, str]
    g: PriceRule


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ImbalanceReport:
    """Outcome of one full verification run.

    ``holds`` is the strict inequality of the two residuals and is only
    set when every hypothesis passed; otherwise it is None and the run
    documents, via ``hypotheses``, why the instance does not qualify.
    ``witness_set`` collects every vector on which balance was imposed:
    all adequate-set members plus the two base vectors.
    """

    lhs: Fraction | None
    rhs: Fraction | None
    holds: bool | None
    eta_low: dict[int, Fraction]
    eta_high: dict[int, Fraction]
    witness_set: frozenset[BidVector]
    hypotheses: tuple[HypothesisCheck, ...]

    @property
    def hypotheses_met(self) -> bool:
        return all(check.passed for check in self.hypotheses)

    def to_json(self) -> dict:
        fmt = lambda v: None if v is None else format_rational(v)
        return {
            "lhs": fmt(self.lhs),
            "rhs": fmt(self.rhs),
            "holds": self.holds,
            "eta_low": {str(i): format_rational(v) for i, v in sorted(self.eta_low.items())},
            "eta_high": {str(i): format_rational(v) for i, v in sorted(self.eta_high.items())},
            "witness_size": len(self.witness_set),
            "hypotheses": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.hypotheses
            ],
        }


def is_counterexample(triple: CounterexampleTriple, rule: PriceRule) -> bool:
    """Whether the triple separates the two rules in the required way.

    Needs equal nonempty domains, a tag map that actually uses both rules
    somewhere, and value differences {f(high) - f(low), g(high) - g(low)}
    forming a strict superset of {0}: one difference zero, the other not.
    """
    dom = triple.b_low.dom
    if not dom or dom != triple.b_high.dom:
        return False
    tags = set()
    for bidder in dom:
        tag = triple.h.get(bidder)
        if tag not in (RULE_F, RULE_G):
            return False
        tags.add(tag)
    if tags != {RULE_F, RULE_G}:
        return False
    try:
        diff_f = rule(triple.b_high) - rule(triple.b_low)
        diff_g = triple.g(triple.b_high) - triple.g(triple.b_low)
    except RuleUndefinedError:
        return False
    diffs = {diff_f, diff_g}
    return 0 in diffs and diffs != {Fraction(0)}


def vickrey_vectors(n: int) -> tuple[BidVector, BidVector]:
    """The stock pair on bidders 1..n+2: bids 1..n+1 then n+3, and the
    same with the (n+1)-th bid raised to n+2.  Both hold one ``Fraction``
    object per value, so their families' members compare by identity."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bid = [Fraction(v) for v in range(n + 4)]
    low = {i: bid[i] for i in range(1, n + 2)}
    low[n + 2] = bid[n + 3]
    high = dict(low)
    high[n + 1] = bid[n + 2]
    return BidVector.of(low), BidVector.of(high)


def default_selector(vector: BidVector) -> dict[int, int]:
    """Partner map: everyone points at the top bidder, who points at the
    runner-up (ties broken by bidder id)."""
    if len(vector) < 2:
        raise ValueError(f"need at least 2 bidders to pick partners, got {len(vector)}")
    ranked = sorted(vector.entries, key=lambda e: (e[1], e[0]))
    top = ranked[-1][0]
    runner_up = ranked[-2][0]
    return {i: (top if i != top else runner_up) for i in vector.dom}


def vickrey_instance(
    n: int, g: PriceRule | None = None
) -> tuple[CounterexampleTriple, dict[int, int], dict[int, int]]:
    """Counterexample triple and selectors for the stock instance.

    Tags: the top bidder goes through the main rule, everyone else
    through g (negated first price by default).
    """
    g = g if g is not None else get_rule("neg-first-price")
    low, high = vickrey_vectors(n)
    top = n + 2
    h = {i: (RULE_F if i == top else RULE_G) for i in low.dom}
    triple = CounterexampleTriple(b_low=low, b_high=high, h=h, g=g)
    return triple, default_selector(low), default_selector(high)


def vickrey_witness_set(n: int) -> frozenset[BidVector]:
    """The canonical finite set on which balance is already contradictory.

    For each of the two stock vectors and each bidder i with partner j(i)
    named by ``default_selector``: the full family, filled at j(i)'s bid,
    of the vector with i's bid set to that fill, so i and j(i) read the
    fill in every member.  Every non-top bidder is paired with the top
    bidder and the top bidder with the runner-up.  The two stock vectors
    themselves complete the set.  Duplicates merge under graph equality.
    """
    low, high = vickrey_vectors(n)
    out: set[BidVector] = {low, high}
    for vector in (low, high):
        for i, partner in default_selector(vector).items():
            fill = vector[partner]
            holders = BidVector(tuple((b, fill if b == i else v) for b, v in vector.entries))
            out |= full_family(holders, fill)
    return frozenset(out)


def verify_imbalance(
    rule: PriceRule,
    triple: CounterexampleTriple,
    selector_low: Mapping[int, int],
    selector_high: Mapping[int, int],
) -> ImbalanceReport:
    """Check every hypothesis of the imbalance criterion and report.

    In order: the counterexample conditions; per bidder and per vector,
    selector validity and adequacy of the forced-payment set; per bidder
    and per vector, that the rule's flat value at the partner's bid equals
    the tagged rule's value (so the forced sum telescopes against the tag
    map).  Failures are logged, never raised: the report shows why a
    candidate instance does not qualify.

    One pass over (vector, bidder) builds each adequate set once and
    reads adequacy from its recorded flat-invariance.  Adequate sets
    share most of their members, so the rule's values are cached for the
    call and each distinct vector is evaluated once; an error is not
    cached and recurs on every evaluation.  The flat value the eta check
    evaluates is the bidder's forced term, so when a vector's sets are
    all adequate its residual is rule(vector) minus the mean of those
    flat values.  When all hypotheses pass, both residuals exist, since
    the counterexample check has evaluated the rule on both vectors and
    every eta value is set, and they must differ.
    """
    rule = replace(rule, fn=functools.cache(rule.fn))
    counter_ok = is_counterexample(triple, rule)  # both tags in use: at least two bidders
    counter = HypothesisCheck(
        "counterexample",
        counter_ok,
        "" if counter_ok else "triple does not separate the two rules on >= 2 bidders",
    )

    adequacy_checks: list[HypothesisCheck] = []
    eta_checks: list[HypothesisCheck] = []
    witness: set[BidVector] = {triple.b_low, triple.b_high}
    residuals: list[Fraction | None] = []
    etas: list[dict[int, Fraction]] = []
    for label, vector, selector in (
        ("low", triple.b_low, selector_low),
        ("high", triple.b_high, selector_high),
    ):
        adequate_all = True
        eta: dict[int, Fraction] = {}
        for i in sorted(vector.dom):
            partner = selector.get(i)
            if partner == i or partner not in vector.dom:
                adequacy_checks.append(
                    HypothesisCheck(f"adequate[{label},{i}]", False, f"invalid partner {partner!r}")
                )
                eta_checks.append(HypothesisCheck(f"eta[{label},{i}]", False, "no valid partner"))
                adequate_all = False
                continue
            fill = vector[partner]
            adequate = build_adequate_set(remove(vector, {i, partner}), fill, rule, i, partner)
            ok = adequate.flat_invariant
            if ok:
                witness |= adequate.members
            detail = "" if ok else f"rule not flat-invariant at fill {format_rational(fill)}"
            adequacy_checks.append(HypothesisCheck(f"adequate[{label},{i}]", ok, detail))
            adequate_all = adequate_all and ok

            tag = triple.h.get(i)
            try:
                eta[i] = rule(flat(vector.dom, fill))
                if tag not in (RULE_F, RULE_G):
                    ok, detail = False, f"invalid tag {tag!r}, expected {RULE_F!r} or {RULE_G!r}"
                else:
                    tagged_value = (rule if tag == RULE_F else triple.g)(vector)
                    ok = eta[i] == tagged_value
                    detail = "" if ok else (
                        f"flat value {format_rational(eta[i])} differs from "
                        f"tagged value {format_rational(tagged_value)}"
                    )
            except RuleUndefinedError as exc:
                ok, detail = False, str(exc)
            eta_checks.append(HypothesisCheck(f"eta[{label},{i}]", ok, detail))

        residual = None
        if adequate_all and vector and len(eta) == len(vector):
            try:
                residual = rule(vector) - sum(eta.values(), Fraction(0)) / len(vector)
            except RuleUndefinedError:  # no residual to report
                pass
        else:
            eta = {}
        residuals.append(residual)
        etas.append(eta)

    lhs, rhs = residuals
    hypotheses = (counter, *adequacy_checks, *eta_checks)
    met = all(c.passed for c in hypotheses)
    holds = (lhs != rhs) if met else None
    return ImbalanceReport(
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        eta_low=etas[0],
        eta_high=etas[1],
        witness_set=frozenset(witness),
        hypotheses=hypotheses,
    )


def witness_set_text(vectors: Iterable[BidVector]) -> str:
    """The witness file: a JSON array with one ``{"bids": {...}}`` object
    per vector, sorted by ``entries``, in the bytes of
    ``json.dumps(..., indent=2, sort_keys=True)`` plus a final newline.

    Vectors are sorted by their (bidder, rank) pairs from ``rank_bids``,
    which order them as their entries do, with integer compares and no
    bid hashed.  Each rank's text is formatted once and each (bidder,
    rank) line built once.  Keys sort as strings ("10" before "2"), so
    the order of a domain's positions is worked out once per distinct
    domain.  Nothing needs escaping: a key is a canonical decimal and a
    value a ``format_rational`` text, which hold only digits, ``-`` and
    ``/``.  ``vectors`` is read once, into a list, so a one-shot iterable
    such as a generator loses nothing; the list also keeps the bids alive
    while their ids key ``rank_of``.
    """
    vectors = list(vectors)
    values, rank_of = rank_bids([v for vec in vectors for _, v in vec.entries])
    texts = [format_rational(v) for v in values]
    keys = sorted([tuple([(i, rank_of[id(v)]) for i, v in vec.entries]) for vec in vectors])
    lines: dict[tuple[int, int], str] = {}
    orders: dict[tuple[int, ...], list[int]] = {}
    items = []
    for key in keys:
        ids = tuple([i for i, _ in key])
        order = orders.get(ids)
        if order is None:
            order = orders[ids] = sorted(range(len(ids)), key=[str(i) for i in ids].__getitem__)
        body = []
        for pos in order:
            pair = key[pos]
            line = lines.get(pair)
            if line is None:
                line = lines[pair] = f'      "{pair[0]}": "{texts[pair[1]]}"'
            body.append(line)
        items.append('  {\n    "bids": {\n' + ",\n".join(body) + "\n    }\n  }" if body
                     else '  {\n    "bids": {}\n  }')
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"
