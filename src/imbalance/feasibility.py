"""Exact linear-feasibility oracle for balance systems, with certificates.

Given any finite set of bid vectors, imposing the balance equation on each
one yields a linear system over the unknown symmetric payments P(m), one
unknown per deletion multiset.  This module builds that system and
decides it by exact, fraction-free Gaussian elimination over Python
integers (Bareiss 1968): each row is scaled once to integer entries and
reduced against the pivot rows before it.  When the system is infeasible
the solver produces a combination of rows summing to the contradiction
0 = 1: a list of rational multipliers that anyone can re-check
independently of the solver (``verify_certificate``).  When the system
is feasible the solver produces an assignment: one rational value per
variable, in variable order, as the certificate holds one multiplier per
row in row order.  It is re-checked by substituting it into every row
(``verify_assignment``).

Rows are eliminated in their original order, so each pivot row is
independent of all rows before it: the pivot rows are the greedy row
basis, whichever column each one pivots on.  The first row that reduces
to 0 = nonzero ends the solve: no later row is scaled or reduced.  The
certificate is the unique combination of that row with the basis rows
before it, rebuilt from the recorded elimination steps; the assignment
is the unique solution that is zero on every column in the span of
lower-index columns.  Neither depends on the pivot columns, so the
choice of column (the one held by the fewest original rows) changes
only the work, never the bytes.

This is the package's independent route to the imbalance results: it
never looks at adequate sets or forced closed forms, only at the raw
equations.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable

from .bids import (
    BidMultiset,
    BidVector,
    ParseMemo,
    bid_vector_from_json,
    bid_vector_to_json,
    multiset_from_json,
    multiset_to_json,
    rank_bids,
)
from .rationals import ensure_rational, format_rational
from .rules import PriceRule, RuleUndefinedError


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
    """One value per variable, in ``LinearSystem.variables`` order."""

    assignment: tuple[Fraction, ...]


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

    Rank invariant: each bid is replaced by its rank from ``rank_bids``,
    so (bidder, rank) pairs order vectors like ``BidVector.entries``, and
    (size, ranks) orders multisets like ``BidMultiset.canonical_key``.
    The build works on those integer keys, and builds one ``BidMultiset``
    per variable at the end.

    Bag invariant: a row's coefficients depend only on the bag of its
    vector, the sorted tuple of its ranks, never on which bidder holds
    which bid.  So the map from "bag minus one r" to the multiplicity of r,
    and the sorted coefficient dict built from it, are computed once per
    distinct bag, and each row gets its own copy of its bag's dict.  The
    rule still runs once per distinct vector, on its first-seen
    representative, since a table rule need not be symmetric.
    """
    vecs = list(vectors)  # holds the bids while their ids key ``rank_of``
    values, rank_of = rank_bids(vecs)
    first: dict[tuple[tuple[int, int], ...], BidVector] = {}
    for vec in vecs:
        first.setdefault(tuple([(i, rank_of[id(v)]) for i, v in vec.entries]), vec)
    raw = []
    maps: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}  # bag -> its deletion counts
    for key in sorted(first):
        vec = first[key]
        try:
            rhs = rule(vec)
        except RuleUndefinedError as exc:
            raise ValueError(f"rule {rule.name!r} undefined on {vec!r}: {exc}") from exc
        bag = tuple(sorted([r for _, r in key]))
        if bag not in maps:
            counts = maps[bag] = {}
            for r, c in Counter(bag).items():
                j = bag.index(r)
                counts[bag[:j] + bag[j + 1:]] = c
        raw.append((vec, bag, rhs))
    order = sorted({m for counts in maps.values() for m in counts}, key=lambda m: (len(m), m))
    index = {m: k for k, m in enumerate(order)}
    as_fraction = {c: Fraction(c) for counts in maps.values() for c in counts.values()}
    coeffs = {
        bag: dict(sorted((index[m], as_fraction[c]) for m, c in counts.items()))
        for bag, counts in maps.items()
    }
    rows = [LinearRow(coeffs=dict(coeffs[bag]), rhs=rhs, origin=vec) for vec, bag, rhs in raw]
    variables = tuple(BidMultiset(tuple(values[r] for r in m)) for m in order)
    return LinearSystem(variables=variables, rows=rows)


def solve_or_refute(system: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; free variables are fixed to zero.

    Fraction-free elimination over ``int``, one row at a time in original
    index order.  Each row is scaled once by the lcm of the denominators
    of its coefficients and right-hand side (``_scaled``), then reduced
    against the pivot rows accepted before it, in the order they were
    accepted.  Each step is ``(a/g)*row - (f/g)*pivot`` (``a`` the pivot
    entry, ``f`` the row's entry, ``g`` their gcd), divided by the content
    (the gcd of all the row's integers), and is recorded as
    ``(pivot number, a/g, f/g, content)``.  A pivot row is zero only at
    the pivot columns accepted before it, so reducing by pivot p adds
    entries at later pivots' columns only; a heap of the pivot numbers
    the row holds applies them in order.  A row with entries left becomes
    a pivot row on the column held by the fewest original rows, ties to
    the higher index, so few later rows need that pivot; a row reduced to
    0 = 0 is dropped.  Counting the holders reads every row's column
    indices, and nothing else of a row before its turn.

    Row invariant: a row reduces to nothing exactly when it lies in the
    span of the rows before it, so the pivot rows are the greedy row basis
    (each row independent of all lower-index rows), whichever column each
    one pivots on.  The first row reduced to 0 = nonzero is the certificate
    row, and the solve stops there: no later row is scaled or reduced.  The
    certificate is the unique combination of that row with the basis rows
    below it whose right-hand sides sum to 1; ``_certificate`` rebuilds it
    from the recorded steps.  The assignment is the unique solution that
    is zero on every column in the span of lower-index columns.  Both are
    fixed by the system alone, so the pivot columns change only the work,
    never the bytes.  When each column holding an entry gets a pivot,
    back-substitution gives the assignment directly; otherwise one
    canonical step shifts the back-substituted solution by null vectors
    onto it.
    """
    pivots: list[tuple[int, dict[int, int], int]] = []
    pivot_of: dict[int, int] = {}  # column -> number of the pivot row on it
    reduced: list[tuple[int, int, list[tuple[int, int, int, int]]]] = []  # per pivot: row, scale, steps
    held = Counter(c for row in system.rows for c in row.coeffs)  # column -> rows holding it
    for idx, row in enumerate(system.rows):
        scale, ints, row_rhs = _scaled(row)
        steps: list[tuple[int, int, int, int]] = []
        queue = [pivot_of[c] for c in ints if c in pivot_of]
        heapify(queue)
        while queue:
            p = heappop(queue)
            col, p_coeffs, p_rhs = pivots[p]
            f = ints.get(col)
            if f is None:  # cancelled, or eliminated under an earlier push of p
                continue
            a = p_coeffs[col]
            g = gcd(a, f)
            ap, fp = a // g, f // g
            if ap != 1:
                for c in ints:
                    ints[c] *= ap
            del ints[col]
            for c, v in p_coeffs.items():
                if c == col:
                    continue
                new = ints.get(c, 0) - fp * v
                if new:
                    if c not in ints and c in pivot_of:
                        heappush(queue, pivot_of[c])
                    ints[c] = new
                elif c in ints:
                    del ints[c]
            row_rhs = ap * row_rhs - fp * p_rhs
            content = gcd(row_rhs, *ints.values())
            if content > 1:
                for c in ints:
                    ints[c] //= content
                row_rhs //= content
            steps.append((p, ap, fp, content))
        if ints:
            col = min(ints, key=lambda c: (held[c], -c))
            pivot_of[col] = len(pivots)
            pivots.append((col, ints, row_rhs))
            reduced.append((idx, scale, steps))
        elif row_rhs:
            reduced.append((idx, scale, steps))
            return Infeasible(_certificate(len(system.rows), reduced, row_rhs))

    solution = _back_substitute(pivots, {}, with_rhs=True)
    unpivoted = [c for c in held if c not in pivot_of]
    if unpivoted:
        # Shift onto the solution that is zero on every column in the span of
        # lower-index columns: those columns are exactly the highest indices
        # of an echelon basis of the null space, reduced on descending index.
        basis: dict[int, dict[int, Fraction]] = {}
        for free in unpivoted:
            vec = _back_substitute(pivots, {free: Fraction(1)}, with_rhs=False)
            while vec:
                top = max(vec)
                if top not in basis:
                    basis[top] = {c: v / vec[top] for c, v in vec.items()}
                    break
                vec = _axpy(vec, -vec[top], basis[top])
        for top in sorted(basis, reverse=True):
            if top in solution:
                solution = _axpy(solution, -solution[top], basis[top])
    zero = Fraction(0)
    return Feasible(tuple(solution.get(col, zero) for col in range(len(system.variables))))


def _certificate(
    n_rows: int, reduced: list[tuple[int, int, list[tuple[int, int, int, int]]]], row_rhs: int
) -> Certificate:
    """Multipliers from the recorded steps of each pivot row, then of the certificate row.

    ``reduced[p]`` holds the original index, the scale and the steps of
    pivot row p; the last entry is the certificate row, reduced to
    0 = ``row_rhs``.  A step ``(p, ap, fp, content)`` made its row
    ``(ap*row - fp*pivot_p) / content``, so weight w on its result is
    weight w*ap/content on the row before it and -w*fp/content on pivot
    row p.  A pivot row comes before every row reduced by it, so one pass
    in descending row index settles each row's weight before its own steps
    are undone.  The weights are integers over one shared denominator,
    raised only when a content does not divide a weight (ap and fp are
    coprime, so content divides both w*ap and w*fp exactly when it divides
    w).  The weight left on a row's scaled integers, times its scale, is
    its multiplier times the denominator times ``row_rhs``.
    """
    den = 1
    weights = {len(reduced) - 1: 1}  # position in ``reduced`` -> weight on that row
    numerators: dict[int, int] = {}  # original index -> multiplier times den * row_rhs
    for p in range(len(reduced) - 1, -1, -1):
        w = weights.pop(p, 0)
        if not w:
            continue
        idx, scale, steps = reduced[p]
        for q, ap, fp, content in reversed(steps):
            if w % content:
                m = content // gcd(w, content)
                w, den = w * m, den * m
                for k in weights:
                    weights[k] *= m
                for k in numerators:
                    numerators[k] *= m
            w //= content
            weights[q] = weights.get(q, 0) - w * fp
            w *= ap
        numerators[idx] = w * scale
    den *= row_rhs
    zero = Fraction(0)
    return Certificate(tuple(
        Fraction(numerators[r], den) if r in numerators else zero for r in range(n_rows)
    ))


def _back_substitute(
    pivots: list[tuple[int, dict[int, int], int]], solution: dict[int, Fraction], with_rhs: bool
) -> dict[int, Fraction]:
    """Fill in each pivot column from its row, the last pivot first.

    ``solution`` holds the values of the columns without a pivot; a column
    missing from it is zero, and only nonzero values are stored.  Without
    ``with_rhs`` every right-hand side reads as zero, so the result is a
    null vector of the system.
    """
    for col, p_coeffs, p_rhs in reversed(pivots):
        num, den = (p_rhs if with_rhs else 0), 1  # the residual num/den, over a common denominator
        for c, v in p_coeffs.items():
            value = solution.get(c)  # None for col itself, which is not set yet
            if value:
                d = value.denominator
                if den % d:
                    common = lcm(den, d)
                    num *= common // den
                    den = common
                num -= v * value.numerator * (den // d)
        if num:
            solution[col] = Fraction(num, den * p_coeffs[col])
    return solution


def _axpy(vec: dict[int, Fraction], factor: Fraction, other: dict[int, Fraction]) -> dict[int, Fraction]:
    """``vec + factor * other`` on sparse vectors, keeping only nonzero entries."""
    out = dict(vec)
    for c, v in other.items():
        new = out.get(c, 0) + factor * v
        if new:
            out[c] = new
        else:
            out.pop(c, None)
    return out


def verify_certificate(system: LinearSystem, certificate: Certificate) -> bool:
    """Exact re-check: multipliers combine rows to zero but the rhs to nonzero.

    Works in integers: row r times its scale s (``_scaled``) with
    multiplier p/q contributes p*(D/(q*s)) times its integer entries, where
    D is the lcm of q*s over the nonzero multipliers.
    """
    if len(certificate.multipliers) != len(system.rows):
        raise ValueError(
            f"multiplier count mismatch: {len(certificate.multipliers)} multipliers "
            f"for {len(system.rows)} rows"
        )
    terms = [(mult, _scaled(row)) for mult, row in zip(certificate.multipliers, system.rows) if mult]
    denom = lcm(*(mult.denominator * scale for mult, (scale, _, _) in terms))
    combined: defaultdict[int, int] = defaultdict(int)
    rhs_total = 0
    for mult, (scale, ints, row_rhs) in terms:
        factor = mult.numerator * (denom // (mult.denominator * scale))
        rhs_total += factor * row_rhs
        for col, v in ints.items():
            combined[col] += factor * v
    return not any(combined.values()) and rhs_total != 0


def verify_assignment(system: LinearSystem, values: tuple[Fraction, ...]) -> bool:
    """Exact re-check: the assignment satisfies every row.

    ``values`` holds one value per variable, in variable order; a tuple
    of another length is a failure, not a zero-padded assignment, and a
    value that is not exact rational raises ``TypeError``.  The values
    are brought to one denominator D once, so row r times its scale s
    holds exactly when its integer entries dotted with the integer values
    equal its integer rhs times D.
    """
    if len(values) != len(system.variables):
        return False
    values = [ensure_rational(v) for v in values]
    denom = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (denom // v.denominator) for v in values]
    return all(
        sum(v * ints[col] for col, v in coeffs.items()) == row_rhs * denom
        for _, coeffs, row_rhs in map(_scaled, system.rows)
    )


def _scaled(row: LinearRow) -> tuple[int, dict[int, int], int]:
    """The row times s, the lcm of its denominators: s, integer coefficients, integer rhs."""
    scale = lcm(row.rhs.denominator, *(v.denominator for v in row.coeffs.values()))
    ints = {c: v.numerator * (scale // v.denominator) for c, v in row.coeffs.items() if v}
    return scale, ints, row.rhs.numerator * (scale // row.rhs.denominator)


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
    memo = ParseMemo()
    variables = tuple(multiset_from_json(m, memo) for m in obj["variables"])
    if len(set(variables)) != len(variables):
        # one unknown per multiset: a repeated one would fold two columns into one
        raise ValueError("variables must be distinct multisets")
    rows = []
    for row in obj["rows"]:
        if not isinstance(row, dict) or not isinstance(row.get("coeffs"), dict) or "rhs" not in row:
            raise ValueError('each row must be an object with "coeffs" and "rhs"')
        coeffs = {}
        for key, text in row["coeffs"].items():
            col = memo.key(key, "coefficient indices")
            if col >= len(variables):
                raise ValueError(f"coefficient index {col} out of range")
            value = memo.rational(text)
            if value:  # the solver reads a stored coefficient as nonzero
                coeffs[col] = value
        rows.append(
            LinearRow(
                coeffs=coeffs,
                rhs=memo.rational(row["rhs"]),
                origin=bid_vector_from_json(row.get("origin", {"bids": {}}), memo),
            )
        )
    return LinearSystem(variables=variables, rows=rows)


def assignment_to_json(system: LinearSystem, values: tuple[Fraction, ...]) -> list[dict]:
    """The assignment as multiset-value pairs, sorted by ``BidMultiset.canonical_key``.

    A system file may list its variables in any order; the written
    assignment is canonical whatever that order.
    """
    pairs = sorted(zip(system.variables, values), key=lambda mv: mv[0].canonical_key())
    return [{"multiset": multiset_to_json(m), "value": format_rational(v)} for m, v in pairs]


def certificate_to_json(certificate: Certificate) -> dict:
    return {"multipliers": [format_rational(v) for v in certificate.multipliers]}


def certificate_from_json(obj) -> Certificate:
    if not isinstance(obj, dict) or not isinstance(obj.get("multipliers"), list):
        raise ValueError('certificate JSON must be {"multipliers": [...]}')
    return Certificate(tuple(ensure_rational(v) for v in obj["multipliers"]))
