"""Output checks that do not trust the package under test.

Everything here is rebuilt from the files the CLI read and wrote, with the
standard library only: rationals are parsed with ``fractions.Fraction``,
the price rules are re-implemented, and the balance rows are rebuilt from
the input vectors.  Nothing imports ``imbalance``, so a defect in its
``verify_certificate`` or ``build_balance_system`` cannot hide a wrong output here.

Each check returns the instance's size counters and raises ``CheckFailed``
naming the first violated condition.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rule_value(rule: str, bids: list[Fraction]) -> Fraction:
    """The CLI's built-in rules, re-implemented from their definitions."""
    ranked = sorted(bids)
    if rule == "second-price":
        return ranked[-2]
    if rule == "neg-second-price":
        return -ranked[-2]
    if rule == "first-price":
        return ranked[-1]
    if rule == "neg-first-price":
        return -ranked[-1]
    if rule.startswith("constant:"):
        return Fraction(rule.split(":", 1)[1])
    raise CheckFailed(f"no reference implementation for rule {rule!r}")


def parse_vectors(witness: list) -> list[tuple[tuple[int, Fraction], ...]]:
    """Distinct witness vectors in canonical order: sorted by their graph."""
    vectors = set()
    for entry in witness:
        vectors.add(tuple(sorted((int(k), Fraction(v)) for k, v in entry["bids"].items())))
    return sorted(vectors)


def balance_rows(vectors, rule: str) -> list[tuple[dict[tuple, int], Fraction]]:
    """One row per vector: how often each deletion bag occurs, and rule(vector)."""
    rows = []
    for vec in vectors:
        bids = [bid for _, bid in vec]
        counts: dict[tuple, int] = {}
        for pos in range(len(bids)):
            bag = tuple(sorted(bids[:pos] + bids[pos + 1:]))
            counts[bag] = counts.get(bag, 0) + 1
        rows.append((counts, rule_value(rule, bids)))
    return rows


def bit_length(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def system_sizes(rows) -> dict[str, int]:
    unknowns = set()
    for counts, _ in rows:
        unknowns.update(counts)
    return {
        "vectors": len(rows),
        "unknowns": len(unknowns),
        "nnz": sum(len(counts) for counts, _ in rows),
    }


def check_certificate(witness: list, rule: str, result: dict) -> dict[str, int]:
    """The multipliers must combine the rows to 0 = nonzero."""
    require(result.get("status") == "INFEASIBLE", f"status {result.get('status')!r}, want INFEASIBLE")
    multipliers = [Fraction(m) for m in result["certificate"]["multipliers"]]
    rows = balance_rows(parse_vectors(witness), rule)
    require(len(multipliers) == len(rows),
            f"{len(multipliers)} multipliers for {len(rows)} rows")
    lhs: dict[tuple, Fraction] = {}
    rhs = Fraction(0)
    for mult, (counts, row_rhs) in zip(multipliers, rows):
        if not mult:
            continue
        rhs += mult * row_rhs
        for bag, count in counts.items():
            lhs[bag] = lhs.get(bag, 0) + mult * count
    require(all(v == 0 for v in lhs.values()), "certificate leaves a nonzero coefficient")
    require(rhs != 0, "certificate combines the right-hand sides to 0")
    sizes = system_sizes(rows)
    sizes["support"] = sum(1 for m in multipliers if m)
    sizes["max_bits"] = bit_length(multipliers)
    return sizes


def check_assignment(witness: list, rule: str, result: dict) -> dict[str, int]:
    """Every row must hold once the printed payments are substituted."""
    require(result.get("status") == "FEASIBLE", f"status {result.get('status')!r}, want FEASIBLE")
    payment = {tuple(Fraction(v) for v in entry["multiset"]): Fraction(entry["value"])
               for entry in result["assignment"]}
    rows = balance_rows(parse_vectors(witness), rule)
    for counts, rhs in rows:
        missing = [bag for bag in counts if bag not in payment]
        if missing:
            raise CheckFailed(f"assignment has no payment for bag {missing[0]}")
        require(sum(count * payment[bag] for bag, count in counts.items()) == rhs,
                "assignment violates a balance row")
    sizes = system_sizes(rows)
    sizes["support"] = sum(1 for v in payment.values() if v)
    sizes["max_bits"] = bit_length(payment.values())
    return sizes


def check_theorem(n: int, stdout: str, report: dict) -> dict[str, int]:
    """Every hypothesis passes and the residual gap is (n+1)/(n+2)."""
    hypotheses = report["hypotheses"]
    require(bool(hypotheses) and all(h["pass"] is True for h in hypotheses),
            "a hypothesis failed in the report")
    hyp_lines = [line for line in stdout.splitlines() if line.startswith("HYP ")]
    require(len(hyp_lines) == len(hypotheses), "stdout and report list different hypotheses")
    require(all(line.split()[2] == "PASS" for line in hyp_lines), "a HYP line is not PASS")
    require(report["holds"] is True, "report does not hold")
    lhs, rhs = Fraction(report["lhs"]), Fraction(report["rhs"])
    require(lhs - rhs == Fraction(n + 1, n + 2), f"lhs - rhs = {lhs - rhs}, want {n + 1}/{n + 2}")
    require(stdout.splitlines()[-1] == f"HOLDS lhs={report['lhs']} rhs={report['rhs']}",
            "last stdout line does not state HOLDS with the report's residuals")
    return {"hypotheses": len(hypotheses), "vectors": report["witness_size"]}
