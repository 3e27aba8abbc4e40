"""Exact linear-feasibility oracle for balance systems, with certificates.

Given any finite set of bid vectors, imposing the balance equation on each
one yields a linear system over the unknown symmetric payments P(m), one
unknown per deletion multiset.  This module builds that system and
decides it by exact, fraction-free Gaussian elimination over Python
integers (Bareiss 1968): each row is scaled once to integer entries, and
a column index keeps elimination to the rows that have an entry in the
pivot column.  When the system is infeasible the solver produces a
combination of rows summing to the contradiction 0 = 1: a list of
rational multipliers that anyone can re-check independently of the solver
(``verify_certificate``).  A feasible assignment is re-checked by
substituting it into every row (``verify_assignment``).

The pivot for each column is the row with the lowest original index whose
reduced entry there is nonzero.  That rule alone fixes the certificate and
the assignment byte for byte, so changing it (for example to Markowitz
pivoting) changes recorded outputs.

This is the package's independent route to the imbalance results: it
never looks at adequate sets or forced closed forms, only at the raw
equations.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .bids import (
    BidMultiset,
    BidVector,
    bid_vector_from_json,
    bid_vector_to_json,
    canonical_id,
    multiset_from_json,
    multiset_to_json,
)
from .payments import PaymentLookupError, PaymentTable
from .rationals import ensure_rational, format_rational
from .rules import PriceRule, RuleArityError, RuleDomainError


@dataclass
class LinearRow:
    """One balance equation: sparse coefficients over variable indices."""

    coeffs: dict[int, Fraction]
    rhs: Fraction
    origin: BidVector


@dataclass
class LinearSystem:
    """Equations over unknown payments, one variable per deletion multiset."""

    variables: tuple[BidMultiset, ...]
    rows: list[LinearRow]


@dataclass(frozen=True)
class Certificate:
    """Row multipliers combining the system into 0 = nonzero."""

    multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class Feasible:
    assignment: PaymentTable


@dataclass(frozen=True)
class Infeasible:
    certificate: Certificate


def build_balance_system(vectors: Iterable[BidVector], rule: PriceRule) -> LinearSystem:
    """One equation per vector: the deletion payments must sum to the rule.

    The coefficient of P(m) in the row for b is the number of bidders i
    with bag(b - i) = m; the right-hand side is rule(b).  Variables are
    the distinct deletion multisets in canonical order, rows follow the
    canonical vector order; equal vectors give one row, built from the
    first one given.

    Rank invariant: the distinct bids, keyed by (numerator, denominator),
    are sorted once, and each bid is replaced by its position in that
    order.  Ranks are injective and order-preserving, so a tuple of
    ranks compares and hashes exactly as the tuple of bids it stands for:
    (bidder, rank) pairs order vectors like ``BidVector.entries``, and
    (size, ranks) orders multisets like ``BidMultiset.canonical_key``.
    The build works on those integer keys, and builds one ``BidMultiset``
    per variable at the end.
    """
    vecs = list(vectors)
    bids = {(v.numerator, v.denominator): v for vec in vecs for _, v in vec.entries}
    values = sorted(bids.values())
    rank = {(v.numerator, v.denominator): r for r, v in enumerate(values)}
    first: dict[tuple[tuple[int, int], ...], BidVector] = {}
    for vec in vecs:
        first.setdefault(
            tuple((i, rank[v.numerator, v.denominator]) for i, v in vec.entries), vec
        )
    raw = []
    seen: set[tuple[int, ...]] = set()
    for key in sorted(first):
        vec = first[key]
        try:
            rhs = rule(vec)
        except (RuleArityError, RuleDomainError) as exc:
            raise ValueError(f"rule {rule.name!r} undefined on {vec!r}: {exc}") from exc
        ranks = sorted(r for _, r in key)
        counts: dict[tuple[int, ...], int] = {}
        for r, c in Counter(ranks).items():
            j = ranks.index(r)
            counts[tuple(ranks[:j] + ranks[j + 1:])] = c
        seen.update(counts)
        raw.append((vec, counts, rhs))
    order = sorted(seen, key=lambda m: (len(m), m))
    index = {m: k for k, m in enumerate(order)}
    rows = [
        LinearRow(
            coeffs=dict(sorted((index[m], Fraction(c)) for m, c in counts.items())),
            rhs=rhs,
            origin=vec,
        )
        for vec, counts, rhs in raw
    ]
    variables = tuple(BidMultiset(tuple(values[r] for r in m)) for m in order)
    return LinearSystem(variables=variables, rows=rows)


def solve_or_refute(system: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; free variables are fixed to zero.

    Fraction-free elimination over ``int``: each row is scaled once by the
    lcm of the denominators of its coefficients and right-hand side, then
    updated as ``(a/g)*row - (f/g)*pivot`` (``a`` the pivot entry, ``f``
    the row's entry, ``g`` their gcd) and divided by the gcd of all its
    integers.  A column index maps each variable to the live rows with a
    nonzero entry there, so only those rows are touched.  Each working row
    carries its expression as an integer combination of original rows; a
    pivot row's combination is dropped once its column is eliminated.

    Pivot invariant: the pivot for a column is the live row with the
    lowest original index whose reduced entry there is nonzero.  Row
    scaling never changes which reduced entries are nonzero, so this rule
    alone fixes the pivot set, and with it the certificate (the first
    leftover row, by original index, reduced to 0 = nonzero, scaled so the
    combined right-hand side is 1) and the assignment.  Changing the rule
    changes those bytes.
    """
    coeffs: list[dict[int, int]] = []
    rhs: list[int] = []
    mults: list[dict[int, int]] = []
    col_rows: defaultdict[int, set[int]] = defaultdict(set)
    for idx, row in enumerate(system.rows):
        scale = lcm(row.rhs.denominator, *(v.denominator for v in row.coeffs.values()))
        ints = {c: v.numerator * (scale // v.denominator) for c, v in row.coeffs.items() if v}
        for c in ints:
            col_rows[c].add(idx)
        coeffs.append(ints)
        rhs.append(row.rhs.numerator * (scale // row.rhs.denominator))
        mults.append({idx: scale})

    pivots: list[tuple[int, dict[int, int], int]] = []
    pivot_rows: set[int] = set()
    for col in range(len(system.variables)):
        targets = col_rows.pop(col, None)
        if not targets:
            continue
        piv = min(targets)
        targets.remove(piv)
        p_coeffs, p_rhs, p_mults = coeffs[piv], rhs[piv], mults[piv]
        for c in p_coeffs:
            if c != col:
                col_rows[c].discard(piv)
        a = p_coeffs[col]
        for r in targets:
            row, row_mults = coeffs[r], mults[r]
            f = row[col]
            g = gcd(a, f)
            ap, fp = a // g, f // g
            if ap != 1:
                for c in row:
                    row[c] *= ap
                for c in row_mults:
                    row_mults[c] *= ap
            del row[col]
            for c, v in p_coeffs.items():
                if c == col:
                    continue
                new = row.get(c, 0) - fp * v
                if new:
                    if c not in row:
                        col_rows[c].add(r)
                    row[c] = new
                elif c in row:
                    del row[c]
                    col_rows[c].discard(r)
            for c, v in p_mults.items():
                new = row_mults.get(c, 0) - fp * v
                if new:
                    row_mults[c] = new
                else:
                    row_mults.pop(c, None)
            row_rhs = ap * rhs[r] - fp * p_rhs
            content = gcd(row_rhs, *row.values(), *row_mults.values())
            if content != 1:
                for c in row:
                    row[c] //= content
                for c in row_mults:
                    row_mults[c] //= content
                row_rhs //= content
            rhs[r] = row_rhs
        mults[piv] = {}  # no later step reads a pivot row's combination
        pivot_rows.add(piv)
        pivots.append((col, p_coeffs, p_rhs))

    for idx in range(len(system.rows)):
        if idx in pivot_rows:
            continue
        if coeffs[idx]:
            raise AssertionError("elimination left a nonempty row")
        if rhs[idx] != 0:
            row_mults, row_rhs = mults[idx], rhs[idx]
            multipliers = tuple(
                Fraction(row_mults.get(r, 0), row_rhs) for r in range(len(system.rows))
            )
            return Infeasible(Certificate(multipliers))

    solution = {col: Fraction(0) for col in range(len(system.variables))}
    for col, p_coeffs, p_rhs in reversed(pivots):
        num, den = p_rhs, 1  # the pivot row's residual num/den, over a common denominator
        for c, v in p_coeffs.items():
            if c != col:
                value = solution[c]
                d = value.denominator
                if den % d:
                    common = lcm(den, d)
                    num *= common // den
                    den = common
                num -= v * value.numerator * (den // d)
        solution[col] = Fraction(num, den * p_coeffs[col])
    table = PaymentTable(
        {system.variables[col]: value for col, value in solution.items()}
    )
    return Feasible(table)


def verify_certificate(system: LinearSystem, certificate: Certificate) -> bool:
    """Exact re-check: multipliers combine rows to zero but the rhs to nonzero."""
    if len(certificate.multipliers) != len(system.rows):
        raise ValueError(
            f"multiplier count mismatch: {len(certificate.multipliers)} multipliers "
            f"for {len(system.rows)} rows"
        )
    combined: dict[int, Fraction] = {}
    rhs_total = Fraction(0)
    for mult, row in zip(certificate.multipliers, system.rows):
        if mult == 0:
            continue
        rhs_total += mult * row.rhs
        for col, coeff in row.coeffs.items():
            combined[col] = combined.get(col, Fraction(0)) + mult * coeff
    return all(v == 0 for v in combined.values()) and rhs_total != 0


def verify_assignment(system: LinearSystem, table: PaymentTable) -> bool:
    """Exact re-check: the assignment satisfies every row.

    A variable missing from the table is a failure, not a zero.
    """
    try:
        values = [table.value(m) for m in system.variables]
    except PaymentLookupError:
        return False
    return all(
        sum(coeff * values[col] for col, coeff in row.coeffs.items()) == row.rhs
        for row in system.rows
    )


# --- JSON encoding -----------------------------------------------------

def system_to_json(system: LinearSystem) -> dict:
    return {
        "variables": [multiset_to_json(m) for m in system.variables],
        "rows": [
            {
                "coeffs": {
                    str(col): format_rational(v) for col, v in sorted(row.coeffs.items())
                },
                "rhs": format_rational(row.rhs),
                "origin": bid_vector_to_json(row.origin),
            }
            for row in system.rows
        ],
    }


def system_from_json(obj) -> LinearSystem:
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
            LinearRow(
                coeffs=coeffs,
                rhs=ensure_rational(row["rhs"]),
                origin=bid_vector_from_json(row.get("origin", {"bids": {}})),
            )
        )
    return LinearSystem(variables=variables, rows=rows)


def certificate_to_json(certificate: Certificate) -> dict:
    return {"multipliers": [format_rational(v) for v in certificate.multipliers]}


def certificate_from_json(obj) -> Certificate:
    if not isinstance(obj, dict) or not isinstance(obj.get("multipliers"), list):
        raise ValueError('certificate JSON must be {"multipliers": [...]}')
    return Certificate(tuple(ensure_rational(v) for v in obj["multipliers"]))
