"""Exact linear-feasibility oracle for balance systems, with certificates.

Given any finite set of bid vectors, imposing the balance equation on each
one yields a linear system over the unknown symmetric payments P(m), one
unknown per deletion multiset.  This module builds that system and
decides it by exact, fraction-free Gaussian elimination over Python
integers (Bareiss 1968).  Each row is stored as integers over one scale
(``LinearRow``) from the build on; the solver and both re-checks read
those integers as stored, and each row is reduced against the pivot rows
before it.  When the system is infeasible
the solver produces a combination of rows summing to the contradiction
0 = 1: a list of rational multipliers that anyone can re-check
independently of the solver (``verify_certificate``).  When the system
is feasible the solver produces an assignment: one rational value per
variable, in variable order, as the certificate holds one multiplier per
row in row order.  It is re-checked by substituting it into every row
(``verify_assignment``).

Rows are eliminated in their original order, so each pivot row is
independent of all rows before it: the pivot rows are the greedy row
basis, whichever column each one pivots on.  A working row is divided by
its content (the gcd of its integers) only on a step that rescales the
whole row and at the end of its reduction, so a step costs the
length of its pivot row, not of the working row, and a row that absorbs
hundreds of pivots is not rescanned on each.  The row between divisions
is a positive multiple of the fully divided one, so the pivot rows end
primitive and the same as with a division on every step.  The first row
that reduces to 0 = nonzero ends the solve: no later row is copied or
reduced.  A row equal to one already reduced would reduce to 0 = 0, so
it is skipped.  The certificate is the unique combination of that row
with the basis rows before it, rebuilt from the recorded elimination
steps; the assignment is the unique solution that is zero on every
column in the span of lower-index columns.  Neither depends on the pivot
columns, so the choice of column (the one held by the fewest original
rows) changes only the work, never the bytes.  When that choice leaves a
column that holds an entry without a pivot, a second pass eliminates the
first pass's pivot rows again, each pivoting on its lowest column, and
back-substitution with every column but the pivot columns at zero gives
the assignment.

This is the package's independent route to the imbalance results: it
never looks at adequate sets or forced closed forms, only at the raw
equations.

JSON: ``system_to_json`` and ``system_from_json`` write and read system
files, whose ``variables`` and ``rows`` must be arrays, and
``certificate_from_json`` reads a certificate.  ``result_text`` writes a
result (the status with the assignment or the certificate) as the
``check-balance`` result file, and ``answer_text`` writes the assignment
or certificate alone as the line the commands print, in the bytes of
``json.dumps`` with sorted keys, indented and compact.  Both sort an
assignment in the one ranked pass of ``_ranked_assignment``, on integer
bid ranks from ``rank_bids``, and format each distinct bid and value
once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping

from .bids import (
    BidMultiset,
    BidVector,
    ParseMemo,
    bid_vector_from_json,
    bid_vector_to_json,
    flat_keys,
    multiset_from_json,
    multiset_to_json,
    rank_bids,
)
from .rationals import ensure_rational, format_rational
from .rules import PriceRule, RuleUndefinedError


@dataclass
class LinearRow:
    """One balance equation ``sum(coeffs[c] * x[c]) / scale = rhs / scale``.

    Row invariant: ``coeffs`` maps variable indices to nonzero integers,
    ``rhs`` is an integer, and ``scale`` is positive and equal to the lcm
    of the denominators of the rational row it came from.  The raw
    constructor trusts its integers; ``of`` takes rationals and is the one
    place where a rational row becomes integers.
    """

    coeffs: dict[int, int]
    rhs: int
    scale: int
    origin: BidVector

    @staticmethod
    def of(coeffs: Mapping[int, object], rhs: object, origin: BidVector) -> "LinearRow":
        """Build from rational coefficients and rhs, dropping zero coefficients."""
        coeffs = {c: ensure_rational(v) for c, v in coeffs.items()}
        rhs = ensure_rational(rhs)
        scale = lcm(rhs.denominator, *(v.denominator for v in coeffs.values()))
        ints = {c: v.numerator * (scale // v.denominator) for c, v in coeffs.items() if v}
        return LinearRow(ints, rhs.numerator * (scale // rhs.denominator), scale, origin)


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
    with bag(b - i) = m; the right-hand side is rule(b).  The row is
    stored over the scale q, the denominator of rule(b): each count times
    q, and the numerator of rule(b).  Variables are the distinct deletion
    multisets in canonical order, rows follow the canonical vector order;
    equal vectors give one row, built from the first one given.

    Rank invariant: each bid is replaced by its rank, and a vector is
    keyed by its flat tuple ``(i1, r1, i2, r2, ...)`` of bidders and
    ranks from ``flat_keys``, which orders vectors like
    ``BidVector.entries``, so the sort compares integers only.
    (size, ranks) orders multisets like ``BidMultiset.canonical_key``.
    The build works on those integer keys, and builds one ``BidMultiset``
    per variable at the end.

    Bag invariant: a row's coefficients depend only on the bag of its
    vector, the sorted tuple of its ranks ``key[1::2]``, never on which
    bidder holds which bid.  So the map from "bag minus one r" to the
    multiplicity of r, and the coefficient dict built from it, are
    computed once per distinct bag.  The map comes from one pass over the
    bag's runs of equal ranks, from the last run to the first: deleting
    one r from the run that starts at position k leaves
    ``bag[:k] + bag[k + 1:]``, and the run's length is the count.  For
    r < s, the bag minus one s agrees with the bag minus one r below r
    and holds one more r, so it is the smaller tuple.  Every "bag minus
    one r" has the bag's size less one, so the runs in reverse give the
    map in increasing deletion order with no sort.

    Interning: each deletion a bag yields is hashed once, in the lookup
    that gives it a provisional id (the number of distinct deletions seen
    before it) or reads the one it has; a bag's map holds (id, count)
    pairs.  The distinct deletions are then sorted once by (size, ranks),
    the variable order, and a list maps each provisional id to its
    variable index.  That list is increasing in the deletion order, so
    each bag's coefficient dict, built through it from the pairs in their
    increasing order, is inserted in variable index order with no sort
    per bag.  Each bag's dict is built once, already scaled: its counts
    times the bag's one scale, the denominator of its rule value.  The
    bag's first row keeps the dict and each later row gets a copy, so
    every row owns its dict.

    The rule runs in canonical vector order, once per distinct bag,
    through ``of_bag`` on the bag's bids in increasing order
    ``[values[r] for r in bag]``, and reads no bidder and no ``Fraction``
    field; every vector of the bag takes that rhs.  It runs at the bag's
    first vector, and its arity check reads only the bag's size, so the
    first error names the same vector as one evaluation per vector would.
    """
    vecs = list(vectors)
    values, keys = flat_keys(vecs)
    first: dict[tuple[int, ...], BidVector] = {}
    for key, vec in zip(keys, vecs):
        first.setdefault(key, vec)
    raw = []
    ids: dict[tuple[int, ...], int] = {}  # deletion -> provisional id, in first-seen order
    bags: dict[tuple[int, ...], tuple[list[tuple[int, int]], Fraction]] = {}  # bag -> pairs, rhs
    for key in sorted(first):
        vec = first[key]
        bag = tuple(sorted(key[1::2]))
        new = bag not in bags
        if new:
            try:
                rhs = rule.of_bag([values[r] for r in bag])
            except RuleUndefinedError as exc:
                raise ValueError(f"rule {rule.name!r} undefined on {vec!r}: {exc}") from exc
            counts = []
            end = len(bag)
            for k in range(end - 1, -1, -1):
                if k == 0 or bag[k - 1] != bag[k]:  # k starts a run of equal ranks
                    counts.append((ids.setdefault(bag[:k] + bag[k + 1:], len(ids)), end - k))
                    end = k
            bags[bag] = counts, rhs
        raw.append((vec, bag, new))
    order = sorted(sorted(ids), key=len)
    remap = [0] * len(order)  # provisional id -> variable index
    for k, m in enumerate(order):
        remap[ids[m]] = k
    scaled = {bag: ({remap[p]: c * rhs.denominator for p, c in counts}, rhs.numerator,
                    rhs.denominator) for bag, (counts, rhs) in bags.items()}
    rows = []
    for vec, bag, new in raw:
        ints, num, den = scaled[bag]  # the bag's first row keeps the dict
        rows.append(LinearRow(ints if new else dict(ints), num, den, vec))
    variables = tuple(BidMultiset(tuple(values[r] for r in m)) for m in order)
    return LinearSystem(variables=variables, rows=rows)


def solve_or_refute(system: LinearSystem) -> Feasible | Infeasible:
    """Decide the system exactly; free variables are fixed to zero.

    Fraction-free elimination over ``int``, one row at a time in original
    index order.  Each row's integers are copied, so the system is left
    unchanged, and reduced against the pivot rows accepted before it, in
    the order they were accepted; only ``_certificate`` reads its scale.
    Each step makes the row ``((a/g)*row - (f/g)*pivot) / content``
    (``a`` the pivot entry, ``f`` the row's entry, ``g`` their gcd) and is
    recorded as ``(pivot number, a/g, f/g, content)``.  The content, the
    gcd of all the row's integers, is taken on a step with a/g != 1,
    which has rescaled the whole row anyway and leaves it primitive, and
    once more at the row's end when its last step had a/g == 1; that
    content is recorded in the last step.  Every other step records 1 and
    costs only the length of its pivot row.  A row with no steps is left
    as it is, and a row reduced to 0 = 0 (content 0) is never divided.
    Between divisions the row is a positive
    multiple of the row that a division on every step would keep, so it
    has the same zero pattern, meets the same pivots, and ends as the
    same primitive row: the pivot rows, and so the certificate and the
    assignment, are unchanged.  A pivot row is zero only at the pivot
    columns accepted before it, so reducing by pivot p adds entries at later
    pivots' columns only; a heap of the pivot numbers the row holds
    applies them in order.  A row with entries left becomes a pivot row on
    the column held by the fewest original rows, ties to the higher index,
    so few later rows need that pivot; a row reduced to 0 = 0 is
    dropped.  Counting the holders reads every row's column
    indices, and nothing else of a row before its turn.  The choice reads
    one integer per column, set once: its holder count times V + 1, less
    its index, for V variables.  Every index is below V, so these
    integers order the columns by holder count and then by decreasing
    index.

    Repeat invariant: a row equal to a row already reduced, keyed by
    value on its rhs, its scale, its column indices in order and their
    values in the same order, is skipped without a copy.
    It lies in the span of the rows before it, and no row before it
    contradicted, so it would reduce to 0 = 0 and be dropped: the pivot
    rows, their steps, the certificate and the assignment are the same,
    and the skipped row's multiplier is 0 as a dropped row's is.  The
    ``held`` counts still cover every row, so the pivot columns do not
    change either.  Under a symmetric rule every ordering of a bag's bids
    gives the same row, so a full grid reduces at most one row per bag.
    A row that equals an earlier one only as a rational row, or lists the
    same entries in another order, has another key and is reduced.

    Row invariant: a row reduces to nothing exactly when it lies in the
    span of the rows before it, so the pivot rows are the greedy row basis
    (each row independent of all lower-index rows), whichever column each
    one pivots on.  The first row reduced to 0 = nonzero is the certificate
    row, and the solve stops there: no later row is copied or reduced.  The
    certificate is the unique combination of that row with the basis rows
    below it whose right-hand sides sum to 1; ``_certificate`` rebuilds it
    from the recorded steps.  The assignment is the unique solution that
    is zero on every column in the span of lower-index columns.  Both are
    fixed by the system alone, so the pivot columns change only the work,
    never the bytes.

    Column invariant: when each column holding an entry gets a pivot,
    back-substitution gives the assignment directly.  Otherwise the system
    is consistent, and the same loop runs once more over the pivot rows of
    the first pass, in their order, each pivoting on its lowest column.  A
    row the first pass dropped or skipped lies in the span of the rows
    before it, so a second pass over all rows would drop it again and keep
    the same pivot rows with the same steps.  A reduced row is zero at
    every earlier pivot column, so with lowest-column pivots the pivot
    rows sorted by pivot column are a row echelon form, whatever the row
    order.  The pivot columns of a row echelon form are exactly the
    columns independent of all lower-index columns, the basic columns, so
    back-substitution with every other column at zero gives the unique
    solution supported on them: the assignment.  Back-substitution runs
    from the last pivot row to the first, as a pivot row holds no earlier
    pivot's column.
    """
    # column -> number of rows holding it
    held = Counter(chain.from_iterable([row.coeffs for row in system.rows]))
    # column -> its place in the pivot choice: fewest holders first, then the higher index
    width = len(system.variables) + 1
    priority = {c: h * width - c for c, h in held.items()}.__getitem__
    for lowest in (False, True):
        pivots: list[tuple[int, dict[int, int], int]] = []
        pivot_of: dict[int, int] = {}  # column -> number of the pivot row on it
        reduced: list[tuple[int, list[tuple[int, int, int, int]]]] = []  # per pivot: row, steps
        first: dict[tuple, int] = {}  # row key -> index of the first row with that key
        for idx, row in enumerate(system.rows):
            key = (row.rhs, row.scale, tuple(row.coeffs), tuple(row.coeffs.values()))
            if first.setdefault(key, idx) != idx:
                continue  # equal to a row already reduced: it would reduce to 0 = 0
            ints, row_rhs = dict(row.coeffs), row.rhs
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
                content = 1
                if ap != 1:  # the whole row was rescaled, so its content costs no more
                    content, row_rhs = _divide_out_content(ints, row_rhs)
                steps.append((p, ap, fp, content))
            if steps and steps[-1][1] == 1:  # a last step with ap != 1 left the row primitive
                content, row_rhs = _divide_out_content(ints, row_rhs)
                if content > 1:  # fold it into the last step, which recorded 1
                    steps[-1] = steps[-1][:3] + (content,)
            if ints:
                col = min(ints) if lowest else min(ints, key=priority)
                pivot_of[col] = len(pivots)
                pivots.append((col, ints, row_rhs))
                reduced.append((idx, steps))
            elif row_rhs:
                reduced.append((idx, steps))
                return Infeasible(_certificate(system.rows, reduced, row_rhs))
        if len(pivots) == len(held):
            break  # every column holding an entry is a pivot column
        system = LinearSystem(system.variables, [system.rows[idx] for idx, _ in reduced])

    # Back-substitution, the last pivot first, with every other column at zero.
    solution: dict[int, Fraction] = {}  # pivot column -> its value, if nonzero
    for col, p_coeffs, p_rhs in reversed(pivots):
        num, den = p_rhs, 1  # the residual num/den, over a common denominator
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
    zero = Fraction(0)
    return Feasible(tuple(solution.get(col, zero) for col in range(len(system.variables))))


def _divide_out_content(ints: dict[int, int], rhs: int) -> tuple[int, int]:
    """Divide a working row by its content, the gcd of its integers; return
    the content and the new rhs.  A row 0 = 0 has content 0 and is left
    as it is."""
    content = gcd(rhs, *ints.values())
    if content > 1:
        for c in ints:
            ints[c] //= content
        rhs //= content
    return content, rhs


def _certificate(
    rows: list[LinearRow], reduced: list[tuple[int, list[tuple[int, int, int, int]]]], row_rhs: int
) -> Certificate:
    """Multipliers from the recorded steps of each pivot row, then of the certificate row.

    ``reduced[p]`` holds the original index and the steps of pivot row p;
    the last entry is the certificate row, reduced to
    0 = ``row_rhs``.  A step ``(p, ap, fp, content)`` made its row
    ``(ap*row - fp*pivot_p) / content``, so weight w on its result is
    weight w*ap/content on the row before it and -w*fp/content on pivot
    row p.  A pivot row comes before every row reduced by it, so one pass
    in descending row index settles each row's weight before its own steps
    are undone.  The weights are integers over one shared denominator,
    raised only when a content does not divide a weight (ap and fp are
    coprime, so content divides both w*ap and w*fp exactly when it divides
    w).  The weight left on a row's integers, times its ``scale``, is its
    multiplier times the denominator times ``row_rhs``.
    """
    den = 1
    weights = {len(reduced) - 1: 1}  # position in ``reduced`` -> weight on that row
    numerators: dict[int, int] = {}  # original index -> multiplier times den * row_rhs
    for p in range(len(reduced) - 1, -1, -1):
        w = weights.pop(p, 0)
        if not w:
            continue
        idx, steps = reduced[p]
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
        numerators[idx] = w * rows[idx].scale
    den *= row_rhs
    zero = Fraction(0)
    return Certificate(tuple(
        Fraction(numerators[r], den) if r in numerators else zero for r in range(len(rows))
    ))


def verify_certificate(system: LinearSystem, certificate: Certificate) -> bool:
    """Exact re-check: multipliers combine rows to zero but the rhs to nonzero.

    Works in integers: row r, whose rational form is its integers over its
    scale s, with multiplier p/q contributes p*(D/(q*s)) times its
    integers, where D is the lcm of q*s over the nonzero multipliers.
    """
    if len(certificate.multipliers) != len(system.rows):
        raise ValueError(
            f"multiplier count mismatch: {len(certificate.multipliers)} multipliers "
            f"for {len(system.rows)} rows"
        )
    terms = [(mult, row) for mult, row in zip(certificate.multipliers, system.rows) if mult]
    denom = lcm(*(mult.denominator * row.scale for mult, row in terms))
    combined: defaultdict[int, int] = defaultdict(int)
    rhs_total = 0
    for mult, row in terms:
        factor = mult.numerator * (denom // (mult.denominator * row.scale))
        rhs_total += factor * row.rhs
        for col, v in row.coeffs.items():
            combined[col] += factor * v
    return not any(combined.values()) and rhs_total != 0


def verify_assignment(system: LinearSystem, values: tuple[Fraction, ...]) -> bool:
    """Exact re-check: the assignment satisfies every row.

    ``values`` holds one value per variable, in variable order; a tuple
    of another length is a failure, not a zero-padded assignment, and a
    value that is not exact rational raises ``TypeError``.  The values
    are brought to one denominator D once, so a row holds exactly when its
    integer coefficients dotted with the integer values equal its integer
    rhs times D.  Its rational form is both sides over its scale, which is
    therefore never read.
    """
    if len(values) != len(system.variables):
        return False
    values = [ensure_rational(v) for v in values]
    denom = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (denom // v.denominator) for v in values]
    return all(
        sum(v * ints[col] for col, v in row.coeffs.items()) == row.rhs * denom
        for row in system.rows
    )


# --- JSON encoding -----------------------------------------------------

def system_to_json(system: LinearSystem) -> dict:
    return {
        "variables": [multiset_to_json(m) for m in system.variables],
        "rows": [
            {
                "coeffs": {
                    str(col): format_rational(Fraction(v, row.scale))
                    for col, v in sorted(row.coeffs.items())
                },
                "rhs": format_rational(Fraction(row.rhs, row.scale)),
                "origin": bid_vector_to_json(row.origin),
            }
            for row in system.rows
        ],
    }


def system_from_json(obj) -> LinearSystem:
    if not isinstance(obj, dict) or "variables" not in obj or "rows" not in obj:
        raise ValueError('linear system JSON must have "variables" and "rows"')
    for field in ("variables", "rows"):
        if not isinstance(obj[field], list):
            raise ValueError(f'linear system "{field}" must be a JSON array')
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
            col = memo.indices[key]
            if col >= len(variables):
                raise ValueError(f"coefficient index {col} out of range")
            coeffs[col] = memo.rational(text)
        origin = row.get("origin", {"bids": {}})
        rows.append(LinearRow.of(coeffs, memo.rational(row["rhs"]), bid_vector_from_json(origin, memo)))
    return LinearSystem(variables=variables, rows=rows)


def result_text(system: LinearSystem, result: Feasible | Infeasible) -> str:
    """The result file, in the bytes of ``json.dumps(document, indent=2,
    sort_keys=True)`` plus a final newline.

    The document is ``{"assignment": [{"multiset": [...], "value": ...},
    ...], "status": "FEASIBLE"}``, in the order of ``_ranked_assignment``,
    or ``{"certificate": {"multipliers": [...]}, "status": "INFEASIBLE"}``.
    """
    if isinstance(result, Infeasible):
        multipliers = _indented(_quoted(result.certificate.multipliers), 4)
        return ('{\n  "certificate": {\n    "multipliers": ' + multipliers
                + '\n  },\n  "status": "INFEASIBLE"\n}\n')
    bids, entries = _ranked_assignment(system, result.assignment)
    items = [f'{{\n      "multiset": {_indented([bids[r] for r in ranks], 6)},'
             f'\n      "value": {value}\n    }}' for ranks, value in entries]
    return f'{{\n  "assignment": {_indented(items, 2)},\n  "status": "FEASIBLE"\n}}\n'


def answer_text(system: LinearSystem, result: Feasible | Infeasible) -> str:
    """The result's answer on one line, in the bytes of ``json.dumps(answer,
    sort_keys=True)`` plus a final newline: the assignment list or the
    certificate object of ``result_text``'s document."""
    if isinstance(result, Infeasible):
        return f'{{"multipliers": [{", ".join(_quoted(result.certificate.multipliers))}]}}\n'
    bids, entries = _ranked_assignment(system, result.assignment)
    items = [f'{{"multiset": [{", ".join([bids[r] for r in ranks])}], "value": {value}}}'
             for ranks, value in entries]
    return f'[{", ".join(items)}]\n'


def _ranked_assignment(
    system: LinearSystem, values: tuple[Fraction, ...]
) -> tuple[list[str], list[tuple[tuple[int, ...], str]]]:
    """The quoted text of each bid rank, and each variable's ranks with the
    quoted text of its value, sorted like ``BidMultiset.canonical_key``.

    A system file may list its variables in any order; the assignment is
    written in canonical order whatever that order.  Variables are sorted
    on (size, ranks) from ``rank_bids``, with integer compares only, and
    each distinct bid and each distinct value is formatted once.
    """
    bids, rank_of = rank_bids([v for m in system.variables for v in m.values])
    ranks = [tuple([rank_of[id(v)] for v in m.values]) for m in system.variables]
    order = sorted(range(len(ranks)), key=lambda k: (len(ranks[k]), ranks[k]))
    texts = _quoted([values[k] for k in order])
    return [f'"{format_rational(b)}"' for b in bids], [(ranks[k], t) for k, t in zip(order, texts)]


def _quoted(values: Iterable[Fraction]) -> list[str]:
    """The JSON string of each value's ``format_rational`` text, each
    distinct value formatted once.  The texts hold only digits, ``-`` and
    ``/``, so nothing needs escaping."""
    texts: dict[tuple[int, int], str] = {}
    out = []
    for v in values:
        key = (v.numerator, v.denominator)
        text = texts.get(key)
        if text is None:
            text = texts[key] = f'"{format_rational(v)}"'
        out.append(text)
    return out


def _indented(items: list[str], indent: int) -> str:
    """A JSON array of encoded items, as ``json.dumps(indent=2)`` writes it
    at ``indent`` spaces."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def certificate_from_json(obj) -> Certificate:
    if not isinstance(obj, dict) or not isinstance(obj.get("multipliers"), list):
        raise ValueError('certificate JSON must be {"multipliers": [...]}')
    return Certificate(tuple(ensure_rational(v) for v in obj["multipliers"]))
