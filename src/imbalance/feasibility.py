"""Exact linear-feasibility oracle for balance systems, with certificates.

Given any finite set of bid vectors, imposing the balance equation on each
one yields a linear system over the unknown symmetric payments P(m), one
unknown per deletion multiset.  This module builds that system, decides it
by exact rational Gaussian elimination, and, when it is infeasible,
produces a combination of rows summing to the contradiction 0 = 1: a list
of rational multipliers that anyone can re-check independently of the
solver (``verify_certificate``).

This is the package's independent route to the imbalance results: it
never looks at adequate sets or forced closed forms, only at the raw
equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .bids import (
    BidMultiset,
    BidVector,
    bag_of,
    bid_vector_from_json,
    bid_vector_to_json,
    canonical_id,
    multiset_from_json,
    multiset_to_json,
    remove,
)
from .payments import PaymentTable
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
    canonical vector order.
    """
    vecs = sorted(set(vectors), key=lambda b: b.entries)
    raw = []
    seen: set[BidMultiset] = set()
    for vec in vecs:
        try:
            rhs = rule(vec)
        except (RuleArityError, RuleDomainError) as exc:
            raise ValueError(f"rule {rule.name!r} undefined on {vec!r}: {exc}") from exc
        counts: dict[BidMultiset, int] = {}
        for i in vec.dom:
            m = bag_of(remove(vec, {i}))
            counts[m] = counts.get(m, 0) + 1
        seen.update(counts)
        raw.append((vec, counts, rhs))
    variables = tuple(sorted(seen, key=lambda m: m.canonical_key()))
    index = {m: k for k, m in enumerate(variables)}
    rows = [
        LinearRow(
            coeffs={index[m]: Fraction(c) for m, c in sorted(
                counts.items(), key=lambda kv: index[kv[0]]
            )},
            rhs=rhs,
            origin=vec,
        )
        for vec, counts, rhs in raw
    ]
    return LinearSystem(variables=variables, rows=rows)


def solve_or_refute(system: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; free variables are fixed to zero.

    Elimination pivots on the first remaining row with a nonzero entry in
    canonical variable order, so results are deterministic.  Each working
    row carries its expression as a combination of original rows; the
    first row reduced to 0 = nonzero yields the certificate, scaled so
    the combined right-hand side is 1.
    """
    # (original index, sparse coeffs, rhs, multipliers over original rows)
    work = [
        (idx, dict(row.coeffs), row.rhs, {idx: Fraction(1)})
        for idx, row in enumerate(system.rows)
    ]
    pivots: list[tuple[int, dict[int, Fraction], Fraction]] = []
    for col in range(len(system.variables)):
        pivot_pos = next(
            (pos for pos, (_, coeffs, _, _) in enumerate(work) if coeffs.get(col)), None
        )
        if pivot_pos is None:
            continue
        _, p_coeffs, p_rhs, p_mults = work.pop(pivot_pos)
        scale = p_coeffs[col]
        p_coeffs = {c: v / scale for c, v in p_coeffs.items()}
        p_rhs = p_rhs / scale
        p_mults = {r: v / scale for r, v in p_mults.items()}
        for pos, (orig, coeffs, rhs, mults) in enumerate(work):
            factor = coeffs.get(col)
            if not factor:
                continue
            for c, v in p_coeffs.items():
                new = coeffs.get(c, Fraction(0)) - factor * v
                if new:
                    coeffs[c] = new
                else:
                    coeffs.pop(c, None)
            for r, v in p_mults.items():
                new = mults.get(r, Fraction(0)) - factor * v
                if new:
                    mults[r] = new
                else:
                    mults.pop(r, None)
            work[pos] = (orig, coeffs, rhs - factor * p_rhs, mults)
        pivots.append((col, p_coeffs, p_rhs))

    leftovers = sorted(work, key=lambda item: item[0])
    for _, coeffs, rhs, mults in leftovers:
        if coeffs:
            raise AssertionError("elimination left a nonempty row")
        if rhs != 0:
            multipliers = tuple(
                mults.get(r, Fraction(0)) / rhs for r in range(len(system.rows))
            )
            return Infeasible(Certificate(multipliers))

    solution = {col: Fraction(0) for col in range(len(system.variables))}
    for col, coeffs, rhs in reversed(pivots):
        value = rhs
        for c, v in coeffs.items():
            if c != col:
                value -= v * solution[c]
        solution[col] = value
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
