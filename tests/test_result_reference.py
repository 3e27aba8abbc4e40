"""Differential tests: the one-pass result writers against the code they replaced.

``reference_assignment_to_json`` and ``reference_certificate_to_json`` are
the previous ``assignment_to_json`` and ``certificate_to_json``, kept here
unchanged.  The check-balance result file was ``json.dumps(document,
indent=2, sort_keys=True)`` of their document, and the printed answer
``json.dumps(answer, sort_keys=True)``; ``result_text`` and ``answer_text``
must give the same bytes.  The old writer sorts variables by
``BidMultiset.canonical_key`` with ``Fraction`` compares and formats every
bid of every multiset; the new one sorts on (size, ranks) from
``rank_bids`` and formats each distinct bid and value once.

Mutants these tests catch (each checked on a broken copy of the package):

* sorting variables on their rank tuples alone, not size first;
* keying the value texts on the numerator alone.
"""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from imbalance import (
    BidMultiset,
    Certificate,
    Feasible,
    Infeasible,
    LinearSystem,
    build_balance_system,
    get_rule,
    solve_or_refute,
    vickrey_witness_set,
)
from imbalance import feasibility
from imbalance.bids import multiset_to_json
from imbalance.cli import main
from imbalance.feasibility import answer_text, result_text
from imbalance.rationals import format_rational
from test_intern_reference import assert_same_text, bid_objects
from test_solver_reference import systems


# --- the replaced code, verbatim ---------------------------------------

def reference_assignment_to_json(system: LinearSystem, values: tuple[Fraction, ...]) -> list[dict]:
    pairs = sorted(zip(system.variables, values), key=lambda mv: mv[0].canonical_key())
    return [{"multiset": multiset_to_json(m), "value": format_rational(v)} for m, v in pairs]


def reference_certificate_to_json(certificate: Certificate) -> dict:
    return {"multipliers": [format_rational(v) for v in certificate.multipliers]}


def reference_answer(system: LinearSystem, result: Feasible | Infeasible):
    if isinstance(result, Feasible):
        return reference_assignment_to_json(system, result.assignment)
    return reference_certificate_to_json(result.certificate)


def reference_result_text(system: LinearSystem, result: Feasible | Infeasible) -> str:
    if isinstance(result, Feasible):
        document = {"status": "FEASIBLE", "assignment": reference_answer(system, result)}
    else:
        document = {"status": "INFEASIBLE", "certificate": reference_answer(system, result)}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def reference_answer_text(system: LinearSystem, result: Feasible | Infeasible) -> str:
    return json.dumps(reference_answer(system, result), sort_keys=True) + "\n"


def assert_same_writes(system: LinearSystem, result: Feasible | Infeasible):
    assert_same_text(result_text(system, result), reference_result_text(system, result))
    assert_same_text(answer_text(system, result), reference_answer_text(system, result))


# --- drawn assignments and certificates --------------------------------

# bids: ints next to equal Fractions held by distinct objects, negatives
# and non-integers; the raw constructor keeps int bids as ints
multisets = st.lists(bid_objects, max_size=4).map(lambda bids: BidMultiset(tuple(sorted(bids))))
# drawn in any order, so the variables are rarely listed canonically
variable_lists = st.lists(multisets, max_size=8, unique=True)
values = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)) | st.builds(
    Fraction, st.integers(-(2 ** 20), 2 ** 20), st.integers(1, 2 ** 20))


@st.composite
def assignments(draw):
    variables = draw(variable_lists)
    assignment = draw(st.lists(values, min_size=len(variables), max_size=len(variables)))
    return LinearSystem(tuple(variables), []), Feasible(tuple(assignment))


@settings(max_examples=300, deadline=None)
@given(assignments())
@example((LinearSystem((), []), Feasible(())))
# one variable per size, listed largest first; [1, 1] ranks below [2]
@example((LinearSystem((BidMultiset((1, 1)), BidMultiset((2,)), BidMultiset(())), []),
          Feasible((Fraction(1, 2), Fraction(-2), Fraction(0)))))
# a value equal in numerator to another but not in denominator
@example((LinearSystem((BidMultiset((Fraction(1, 2),)), BidMultiset((3,))), []),
          Feasible((Fraction(1, 2), Fraction(1, 3)))))
def test_assignments_write_like_reference(case):
    assert_same_writes(*case)


@settings(max_examples=200, deadline=None)
@given(st.lists(values | st.just(Fraction(0)), max_size=12))
@example([])
def test_certificates_write_like_reference(multipliers):
    assert_same_writes(LinearSystem((), []), Infeasible(Certificate(tuple(multipliers))))


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_solved_systems_write_like_reference(system, data):
    """The solver's results on drawn systems, FEASIBLE and INFEASIBLE,
    with the variables replaced by distinct multisets in drawn order."""
    n = len(system.variables)
    variables = data.draw(st.lists(multisets, min_size=n, max_size=n, unique=True))
    system = LinearSystem(tuple(variables), system.rows)
    assert_same_writes(system, solve_or_refute(system))


# --- the command line on the stock witness sets --------------------------

@pytest.fixture(scope="module")
def witness_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("witness")
    for n in range(1, 8):
        assert main(["witness", "--n", str(n), "--out", str(root / f"w{n}.json")]) == 0
    return root


@pytest.mark.parametrize("rule", ["constant:7/3", "neg-second-price"])
@pytest.mark.parametrize("n", range(1, 8))
def test_check_balance_out_matches_reference(witness_files, tmp_path, capsys, n, rule):
    out = tmp_path / "result.json"
    argv = ["check-balance", "--witness", str(witness_files / f"w{n}.json"), "--rule", rule]
    main(argv + ["--out", str(out)])
    system = build_balance_system(vickrey_witness_set(n), get_rule(rule))
    result = solve_or_refute(system)
    assert_same_text(out.read_text(encoding="utf-8"), reference_result_text(system, result))
    verdict = capsys.readouterr().out
    main(argv)
    printed = capsys.readouterr().out
    assert printed.startswith(verdict)
    if isinstance(result, Infeasible):
        assert_same_text(printed[len(verdict):], reference_answer_text(system, result))
    else:
        assert printed == verdict == "FEASIBLE\n"


# --- cost guard: each distinct bid and value formatted once, no indented dump --

def test_result_file_formats_each_bid_and_value_once(witness_files, tmp_path, monkeypatch):
    system = build_balance_system(vickrey_witness_set(7), get_rule("constant:7/3"))
    assignment = solve_or_refute(system).assignment
    bids = {v for m in system.variables for v in m.values}
    formatted, dumps = [], []

    def counted(value):
        formatted.append(value)
        return format_rational(value)

    def recorded(*args, **kwargs):
        dumps.append(kwargs)
        return real_dumps(*args, **kwargs)

    real_dumps = json.dumps
    monkeypatch.setattr(feasibility, "format_rational", counted)
    monkeypatch.setattr(json, "dumps", recorded)
    out = tmp_path / "result.json"
    assert main(["check-balance", "--witness", str(witness_files / "w7.json"), "--rule", "constant:7/3",
                 "--out", str(out)]) == 0
    assert len(formatted) <= len(bids) + len(set(assignment))
    assert not [kwargs for kwargs in dumps if kwargs.get("indent") is not None]
    assert out.read_text(encoding="utf-8").count('"multiset"') == len(system.variables)
