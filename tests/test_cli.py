import contextlib
import gc
import io
import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from imbalance import (
    BidMultiset,
    Feasible,
    HypothesisCheck,
    ImbalanceReport,
    bid_vector_from_json,
    build_balance_system,
    build_payment_table,
    certificate_from_json,
    format_rational,
    get_rule,
    system_to_json,
    verify_certificate,
    vickrey_witness_set,
)
from imbalance import cli
from imbalance.cli import main


def write_json(path, obj):
    """Write ``obj`` as JSON, or write it as it is when it is already bytes."""
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# every rule family the command line accepts, several constants included
TRACE_RULES = ["second-price", "neg-second-price", "first-price", "neg-first-price",
               "constant:7/3", "constant:0", "constant:-5/2"]


@pytest.fixture
def bids_file(tmp_path):
    return write_json(tmp_path / "bids.json", {"bids": {"1": "1", "2": "2", "3": "4"}})


class TestEval:
    def test_second_price(self, bids_file, capsys):
        assert main(["eval", "--rule", "second-price", "--bids", bids_file]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_constant(self, bids_file, capsys):
        assert main(["eval", "--rule", "constant:7", "--bids", bids_file]) == 0
        assert capsys.readouterr().out == "7\n"

    def test_arity_error(self, tmp_path, capsys):
        single = write_json(tmp_path / "one.json", {"bids": {"1": "5"}})
        assert main(["eval", "--rule", "second-price", "--bids", single]) == 2
        assert "rule undefined on this arity" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["eval", "--rule", "second-price", "--bids", str(bad)]) == 2

    def test_missing_file(self, capsys):
        assert main(["eval", "--rule", "second-price", "--bids", "/nonexistent.json"]) == 2


class TestTheorem:
    def test_n1_summary_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["theorem", "--n", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "HOLDS lhs=4/3 rhs=2/3\n"
        report = json.loads(out.read_text())
        assert report["holds"] is True
        assert report["lhs"] == "4/3" and report["rhs"] == "2/3"
        assert all(h["pass"] for h in report["hypotheses"])

    def test_n4_difference(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["theorem", "--n", "4", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        lhs = Fraction(report["lhs"])
        rhs = Fraction(report["rhs"])
        assert lhs - rhs == Fraction(5, 6)

    def test_n0_usage_error(self, capsys):
        assert main(["theorem", "--n", "0"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_constant_rules_fail_hypotheses(self, capsys):
        code = main(["theorem", "--n", "1", "--rule", "constant:0", "--g", "constant:0"])
        assert code == 3
        assert "HYPOTHESES NOT MET" in capsys.readouterr().out

    def test_trace_lines(self, capsys):
        assert main(["theorem", "--n", "1", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "HYP counterexample PASS" in out
        assert "k_0 = 1/3 @ [4,4]" in out
        assert "k_1 = 1/3 @ [1,4]" in out

    @pytest.mark.parametrize("rule", TRACE_RULES)
    def test_trace_lines_are_the_iterations_closed_form(self, rule, capsys):
        """The ``k_j`` lines restate what ``build_payment_table`` derives for
        each rule the command line accepts: every step pins 1/(n + 2)."""
        for n in range(1, 9):
            steps = build_payment_table(n + 2, n + 3, list(range(1, n + 1)), get_rule(rule))
            assert steps == tuple(
                (BidMultiset.of([*range(1, j + 1), *[n + 3] * (n + 1 - j)]), Fraction(1, n + 2))
                for j in range(n + 1)
            )
            expected = [
                f"k_{j} = {format_rational(coeff)} @ [{','.join(map(format_rational, shape.values))}]\n"
                for j, (shape, coeff) in enumerate(steps)
            ]
            main(["theorem", "--n", str(n), "--rule", rule, "--trace"])
            # the k_j block sits between the HYP lines and the verdict
            assert capsys.readouterr().out.splitlines(keepends=True)[-n - 2:-1] == expected

    @pytest.mark.parametrize("trace", [False, True])
    def test_hypotheses_met_but_residuals_equal(self, trace, monkeypatch, capsys):
        report = ImbalanceReport(
            lhs=Fraction(1, 2), rhs=Fraction(1, 2), holds=False, eta_low={}, eta_high={},
            witness_set=frozenset(),
            hypotheses=(HypothesisCheck("counterexample", True),
                        HypothesisCheck("adequate[low,1]", True, "stub")),
        )
        monkeypatch.setattr(cli, "verify_imbalance", lambda *args: report)
        assert main(["theorem", "--n", "1", *(["--trace"] if trace else [])]) == 3
        trace_lines = (
            "HYP counterexample PASS\n"
            "HYP adequate[low,1] PASS (stub)\n"
            "k_0 = 1/3 @ [4,4]\n"
            "k_1 = 1/3 @ [1,4]\n"
        )
        assert capsys.readouterr().out == (
            (trace_lines if trace else "") + "HYPOTHESES MET BUT RESIDUALS EQUAL\n"
        )

    def test_trace_bug_propagates_with_empty_stdout(self, tmp_path, monkeypatch, capsys):
        """A bug after the trace lines are built still leaves stdout empty:
        it is written only once the handler has returned."""
        def bug(*args):
            raise TypeError("stub")

        monkeypatch.setattr(cli, "_dump", bug)
        out = tmp_path / "r.json"
        with pytest.raises(TypeError, match="stub"):
            main(["theorem", "--n", "1", "--trace", "--out", str(out)])
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_unknown_rule(self, capsys):
        assert main(["theorem", "--n", "1", "--rule", "nth-price"]) == 2

    def test_report_bytes_are_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        main(["theorem", "--n", "2", "--out", str(first)])
        main(["theorem", "--n", "2", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestWitness:
    def test_writes_canonical_set(self, tmp_path):
        out = tmp_path / "w1.json"
        assert main(["witness", "--n", "1", "--out", str(out)]) == 0
        vectors = {bid_vector_from_json(o) for o in json.loads(out.read_text())}
        assert vectors == vickrey_witness_set(1)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["witness", "--n", "2", "--out", str(a)])
        main(["witness", "--n", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert main(["witness", "--n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stdout_and_file_hold_the_indented_dump(self, n, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["witness", "--n", str(n)]) == 0
        stdout = capsys.readouterr().out
        assert main(["witness", "--n", str(n), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode("utf-8")
        assert stdout == json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"


class TestCheckBalance:
    @pytest.fixture
    def witness_file(self, tmp_path):
        out = tmp_path / "w1.json"
        main(["witness", "--n", "1", "--out", str(out)])
        return str(out)

    def test_refutation_with_certificate(self, witness_file, capsys):
        code = main(["check-balance", "--witness", witness_file, "--rule", "neg-second-price"])
        assert code == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "INFEASIBLE certificate-verified=true"
        cert = certificate_from_json(json.loads(lines[1]))
        system = build_balance_system(vickrey_witness_set(1), get_rule("neg-second-price"))
        assert verify_certificate(system, cert)

    def test_constant_zero_feasible(self, witness_file, capsys):
        code = main(["check-balance", "--witness", witness_file, "--rule", "constant:0"])
        assert code == 0
        assert capsys.readouterr().out == "FEASIBLE\n"

    def test_feasible_without_out_writes_no_result(self, tmp_path, monkeypatch, capsys):
        """Without ``--out`` an assignment is neither printed nor written,
        so no writer runs."""
        witness = tmp_path / "w3.json"
        assert main(["witness", "--n", "3", "--out", str(witness)]) == 0

        def unused(system, result):
            raise AssertionError("a result text was built")

        monkeypatch.setattr(cli, "result_text", unused)
        monkeypatch.setattr(cli, "answer_text", unused)
        assert main(["check-balance", "--witness", str(witness), "--rule", "constant:7/3"]) == 0
        assert capsys.readouterr().out == "FEASIBLE\n"

    def test_result_file(self, witness_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        main(["check-balance", "--witness", witness_file, "--rule", "neg-second-price",
              "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["status"] == "INFEASIBLE"
        assert "certificate" in payload

    def test_bad_witness_file(self, tmp_path, capsys):
        bad = write_json(tmp_path / "w.json", {"bids": {}})
        assert main(["check-balance", "--witness", bad, "--rule", "constant:0"]) == 2


class TestSolveSystem:
    def test_consistent_single_row(self, tmp_path, capsys):
        from imbalance import flat

        system = build_balance_system([flat({1, 2, 3}, 4)], get_rule("neg-second-price"))
        path = write_json(tmp_path / "sys.json", system_to_json(system))
        assert main(["solve-system", "--system", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FEASIBLE"
        assert json.loads(lines[1]) == [{"multiset": ["4", "4"], "value": "-4/3"}]

    def test_assignment_is_written_in_canonical_order(self, tmp_path, capsys):
        # a file may list its variables in any order; the assignment is
        # sorted by size, then by value, whatever that order
        obj = {
            "variables": [["2"], ["1"], ["1", "1"]],
            "rows": [
                {"coeffs": {"0": "1"}, "rhs": "2"},
                {"coeffs": {"1": "1"}, "rhs": "1"},
                {"coeffs": {"2": "1"}, "rhs": "1/2"},
            ],
        }
        path = write_json(tmp_path / "sys.json", obj)
        assert main(["solve-system", "--system", path]) == 0
        assert capsys.readouterr().out == (
            'FEASIBLE\n[{"multiset": ["1"], "value": "1"}, {"multiset": ["2"], "value": "2"}, '
            '{"multiset": ["1", "1"], "value": "1/2"}]\n'
        )

    def test_contradictory_file(self, tmp_path, capsys):
        obj = {
            "variables": [["1"]],
            "rows": [
                {"coeffs": {"0": "1"}, "rhs": "1", "origin": {"bids": {}}},
                {"coeffs": {"0": "1"}, "rhs": "2", "origin": {"bids": {}}},
            ],
        }
        path = write_json(tmp_path / "sys.json", obj)
        assert main(["solve-system", "--system", path]) == 3
        assert "INFEASIBLE certificate-verified=true" in capsys.readouterr().out

    def test_skipped_equal_row_keeps_its_zero_multiplier(self, tmp_path, capsys):
        # the second row equals the first, so it is never reduced; the
        # certificate still holds one multiplier per row
        row = {"coeffs": {"0": "1"}, "rhs": "1"}
        obj = {"variables": [["1"]], "rows": [row, row, {"coeffs": {"0": "1"}, "rhs": "2"}]}
        path = write_json(tmp_path / "sys.json", obj)
        assert main(["solve-system", "--system", path]) == 3
        assert capsys.readouterr().out == (
            'INFEASIBLE certificate-verified=true\n{"multipliers": ["-1", "0", "1"]}\n'
        )

    def test_explicit_zero_coefficient(self, tmp_path, capsys):
        obj = {"variables": [["1"]], "rows": [{"coeffs": {"0": "0"}, "rhs": "1"}]}
        path = write_json(tmp_path / "sys.json", obj)
        assert main(["solve-system", "--system", path]) == 3
        assert capsys.readouterr().out == (
            'INFEASIBLE certificate-verified=true\n{"multipliers": ["1"]}\n'
        )

    def test_malformed_system(self, tmp_path):
        path = write_json(tmp_path / "sys.json", {"rows": []})
        assert main(["solve-system", "--system", path]) == 2

    def test_violating_assignment_is_a_solver_bug(self, tmp_path, monkeypatch, capsys):
        obj = {"variables": [["1"]], "rows": [{"coeffs": {"0": "2"}, "rhs": "1"}]}
        path = write_json(tmp_path / "sys.json", obj)
        wrong = Feasible((Fraction(1),))
        monkeypatch.setattr(cli, "solve_or_refute", lambda system: wrong)
        with pytest.raises(AssertionError, match="violates a row"):
            main(["solve-system", "--system", path])
        assert capsys.readouterr().out == ""


_INPUT_FLAG = {"eval": "--bids", "check-balance": "--witness", "solve-system": "--system"}

# 4000-digit integers parse, but the certificate of A/C*x = 0, B*x = 1 holds
# -B*C/A, whose 7998-digit numerator is past the str conversion limit
_A = 10 ** 3999
_PAST_STR_LIMIT = {
    "variables": [["1"]],
    "rows": [{"coeffs": {"0": f"{_A}/{_A - 1}"}, "rhs": "0"}, {"coeffs": {"0": str(_A + 1)}, "rhs": "1"}],
}
# and the assignment of (1/A)*x = A+1 holds x = A*(A+1), 7999 digits long
_FEASIBLE_PAST_STR_LIMIT = {
    "variables": [["1"]],
    "rows": [{"coeffs": {"0": f"1/{_A}"}, "rhs": str(_A + 1)}],
}

_NOT_A_ROW = 'bad system in {path}: each row must be an object with "coeffs" and "rhs"'
_STR_LIMIT = ("cannot write the result: Exceeds the limit (4300 digits) for integer string conversion;"
              " use sys.set_int_max_str_digits() to increase the limit")
_ELEVEN = {"bids": {str(i): str(i) for i in range(1, 12)}}


class TestBadInput:
    """Malformed files, and results too long to write, end with exit 2 and
    an ``error:`` line, never a traceback, and never lose data silently."""

    @pytest.mark.parametrize(
        "command, payload, error",
        [
            ("eval", {"bids": {"1": 1.5, "2": "2"}},
             "bad bid vector in {path}: exact rational expected, got float"),
            ("check-balance", [{"bids": {"1": 1.5, "2": "2"}}],
             "bad bid vector in {path}: exact rational expected, got float"),
            ("eval", {"bids": {"1": "1", "01": "2", "3": "4"}},
             "bad bid vector in {path}: bidder ids must be non-negative canonical decimals, got '01'"),
            ("check-balance", [{"bids": {"1": "1", "01": "2", "3": "4"}}],
             "bad bid vector in {path}: bidder ids must be non-negative canonical decimals, got '01'"),
            ("solve-system", {"variables": [["1"]], "rows": [{"rhs": "1"}]}, _NOT_A_ROW),
            ("solve-system", {"variables": [["1"]], "rows": [{"coeffs": {"0": "1"}}]}, _NOT_A_ROW),
            ("solve-system", {"variables": [["1"]], "rows": [["0", "1"]]}, _NOT_A_ROW),
            ("solve-system", {"variables": [["1"]], "rows": [{"coeffs": {"0": "1"}, "rhs": 1.5}]},
             "bad system in {path}: exact rational expected, got float"),
            (
                "solve-system",
                {"variables": [["1"], ["2"]], "rows": [{"coeffs": {"1": "1", "01": "2"}, "rhs": "1"}]},
                "bad system in {path}: coefficient indices must be non-negative canonical decimals, got '01'",
            ),
            ("eval", b'{"bids": {"1": "1", "1": "2", "2": "5"}}',
             "invalid JSON in {path}: repeated object key '1'"),
            ("solve-system", b'{"variables": [["1"]], "rows": [{"coeffs": {"0": "1", "0": "2"}, "rhs": "1"}]}',
             "invalid JSON in {path}: repeated object key '0'"),
            ("eval", b'{"bids": {"1": "1", "2": "\xff"}}',
             "invalid JSON in {path}: 'utf-8' codec can't decode byte 0xff in position 26: invalid start byte"),
            ("eval", b"[" * 100_000 + b"]" * 100_000,
             "invalid JSON in {path}: maximum recursion depth exceeded while decoding a JSON array"
             " from a unicode string"),
            (
                "solve-system",
                {
                    "variables": [[], []],
                    "rows": [{"coeffs": {"0": "1"}, "rhs": "1"}, {"coeffs": {"1": "1"}, "rhs": "2"}],
                },
                "bad system in {path}: variables must be distinct multisets",
            ),
            ("solve-system", _PAST_STR_LIMIT, _STR_LIMIT),
            ("solve-system", _FEASIBLE_PAST_STR_LIMIT, _STR_LIMIT),
            ("check-balance", {"bids": {"1": "1"}}, "witness file {path} must be a JSON array of bid vectors"),
            ("eval", _ELEVEN, "bid vector in {path} has 11 bidders, above the cap of 10"),
            ("check-balance", [_ELEVEN], "bid vector in {path} has 11 bidders, above the cap of 10"),
            (
                "solve-system",
                {"variables": [["1"], ["2"]], "rows": [{"coeffs": {"01": "1"}, "rhs": "1"}]},
                "bad system in {path}: coefficient indices must be non-negative canonical decimals, got '01'",
            ),
            ("solve-system", {"variables": ["1"], "rows": []},
             "bad system in {path}: multiset JSON must be an array of 'p/q' strings"),
        ],
        ids=[
            "eval-float-bid",
            "check-balance-float-bid",
            "eval-noncanonical-id",
            "check-balance-noncanonical-id",
            "row-without-coeffs",
            "row-without-rhs",
            "row-not-an-object",
            "float-rhs",
            "noncanonical-index",
            "eval-duplicate-key",
            "solve-system-duplicate-key",
            "eval-not-utf8",
            "eval-deeply-nested",
            "repeated-variable",
            "result-past-str-limit",
            "feasible-result-past-str-limit",
            "witness-not-an-array",
            "eval-eleven-bidders",
            "check-balance-eleven-bidders",
            "first-index-noncanonical",
            "variable-not-an-array",
        ],
    )
    def test_exits_2_with_error_line(self, tmp_path, capsys, command, payload, error):
        path = write_json(tmp_path / "input.json", payload)
        argv = [command, _INPUT_FLAG[command], path]
        if command != "solve-system":
            argv += ["--rule", "constant:0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + error.replace("{path}", path) + "\n"

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"variables": {}, "rows": []}, "variables"),
            ({"variables": "", "rows": []}, "variables"),
            ({"variables": 7, "rows": []}, "variables"),
            ({"variables": [], "rows": ""}, "rows"),
            ({"variables": [], "rows": 5}, "rows"),
        ],
        ids=["variables-object", "variables-string", "variables-number", "rows-string", "rows-number"],
    )
    def test_system_fields_must_be_arrays(self, tmp_path, capsys, payload, field):
        path = write_json(tmp_path / "sys.json", payload)
        assert main(["solve-system", "--system", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f'error: bad system in {path}: linear system "{field}" must be a JSON array\n'

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["eval", "--rule", "constant:0", "--bids", "{tmp}"], "error: cannot read"),
            (["witness", "--n", "1", "--out", "{tmp}/missing/w.json"], "error: cannot write"),
            (["theorem", "--n", "1", "--out", "{tmp}/missing/r.json"], "error: cannot write"),
            (["theorem", "--n", "1", "--trace", "--out", "{tmp}/missing/r.json"], "error: cannot write"),
            (["check-balance", "--witness", "{tmp}/w.json", "--rule", "neg-second-price",
              "--out", "{tmp}/missing/r.json"], "error: cannot write"),
            (["check-balance", "--witness", "{tmp}/w.json", "--rule", "constant:7/3",
              "--out", "{tmp}/missing/r.json"], "error: cannot write"),
        ],
        ids=["directory-as-input", "witness-unwritable-out", "theorem-unwritable-out",
             "theorem-trace-unwritable-out", "check-balance-infeasible-unwritable-out",
             "check-balance-feasible-unwritable-out"],
    )
    def test_unusable_path_exits_2(self, tmp_path, capsys, argv, error):
        """Also when the command has its result: nothing reaches stdout."""
        assert main(["witness", "--n", "1", "--out", str(tmp_path / "w.json")]) == 0
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(error)


_json_keys = st.sampled_from(
    ["0", "1", "01", "2", "bids", "variables", "rows", "coeffs", "rhs", "origin"]
)
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "0", "1", "2", "01", "-1/2", "2/0", "x"])
    | st.text(max_size=3)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_json_keys, inner, max_size=3),
    max_leaves=12,
)
# shaped like the real inputs, so that many draws get past the first check
_ids = st.sampled_from(["0", "1", "2", "3", "01"])
_numbers = st.sampled_from(["0", "1", "2", "-1/2", "3/4"]) | st.integers(min_value=-3, max_value=3)
_bid_vectors = st.fixed_dictionaries({"bids": st.dictionaries(_ids, _numbers, max_size=4)})
_systems = st.fixed_dictionaries({
    "variables": st.lists(st.lists(_numbers, max_size=2), max_size=4),
    "rows": st.lists(
        st.fixed_dictionaries({"coeffs": st.dictionaries(_ids, _numbers, max_size=3), "rhs": _numbers}),
        max_size=4,
    ),
})


@pytest.mark.parametrize(
    "argv, shaped",
    [
        (["eval", "--rule", "second-price", "--bids"], _bid_vectors),
        (["check-balance", "--rule", "neg-second-price", "--witness"], st.lists(_bid_vectors, max_size=4)),
        (["solve-system", "--system"], _systems),
    ],
    ids=["eval", "check-balance", "solve-system"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_input_ends_in_0_2_or_3(tmp_path_factory, argv, shaped, data):
    """Whatever JSON a file holds, the command ends with a finding, a
    result or a usage error, never a traceback."""
    payload = data.draw(_json_values | shaped)
    path = write_json(tmp_path_factory.getbasetemp() / f"fuzz-{argv[0]}.json", payload)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + [path]) in (0, 2, 3)


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_max_dom_cap(self, tmp_path, capsys):
        assert cli.MAX_DOM == 10
        assert main(["theorem", "--n", "8"]) == 0  # n + 2 = 10 bidders
        capsys.readouterr()
        assert main(["theorem", "--n", "9"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "has 11 bidders, above the cap of 10" in err
        eleven = {"bids": {str(i): str(i) for i in range(1, 12)}}
        bids = write_json(tmp_path / "eleven.json", eleven)
        assert main(["eval", "--rule", "second-price", "--bids", bids]) == 2
        witness = write_json(tmp_path / "witness.json", [eleven])
        assert main(["check-balance", "--witness", witness, "--rule", "constant:7/3"]) == 2

    def test_cap_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("IMBALANCE_MAX_DOM", "4")
        assert main(["theorem", "--n", "3"]) == 0

    def test_one_parser_per_process_behaves_as_a_fresh_one(self, bids_file, monkeypatch, capsys):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        calls = [
            (["eval", "--rule", "second-price", "--bids", bids_file], 0),
            (["theorem", "--n", "x"], 2),
            (["--help"], 0),
            (["theorem", "--n", "1"], 0),
            (["frobnicate"], 2),
            (["check-balance", "--help"], 0),
            (["eval", "--rule", "second-price"], 2),
            (["theorem", "--n", "0"], 2),
            (["eval", "--rule", "first-price", "--bids", bids_file], 0),
        ]
        for argv, code in calls * 2:
            assert main(argv) == code, argv
            cached = capsys.readouterr()
            with monkeypatch.context() as m:
                m.setattr(cli, "_parser", cli.build_parser)
                assert main(argv) == code, argv
            assert capsys.readouterr() == cached, argv
            if code == 2:
                assert cached.out == "" and cached.err, argv


class TestCollector:
    """``main`` pauses the cyclic garbage collector while the handler runs
    and leaves it as the caller had it, on every way out of ``main``."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.fixture
    def handler_states(self, monkeypatch):
        """Whether the collector was enabled at each ``_load_json`` call,
        which every case below that reaches a handler makes."""
        states = []
        load = cli._load_json

        def recording(path):
            states.append(gc.isenabled())
            return load(path)

        monkeypatch.setattr(cli, "_load_json", recording)
        return states

    @staticmethod
    def argv(case, tmp_path):
        one_row = {"variables": [["1"]], "rows": [{"coeffs": {"0": "2"}, "rhs": "1"}]}
        contradiction = {"variables": [["1"]], "rows": [{"coeffs": {"0": "1"}, "rhs": "1"},
                                                        {"coeffs": {"0": "1"}, "rhs": "2"}]}
        if case in ("exit-0", "handler-raises"):
            return ["solve-system", "--system", write_json(tmp_path / "s.json", one_row)]
        if case == "exit-3":
            return ["solve-system", "--system", write_json(tmp_path / "s.json", contradiction)]
        if case == "usage-error":
            return ["solve-system", "--system", str(tmp_path / "missing.json")]
        return ["solve-system"]  # argparse exits: --system is required

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case, code", [
        ("exit-0", 0), ("usage-error", 2), ("exit-3", 3), ("argparse-exit", 2),
        ("handler-raises", None),
    ])
    def test_every_exit_restores_the_callers_state(self, case, code, enabled, tmp_path,
                                                   handler_states, monkeypatch, capsys):
        argv = self.argv(case, tmp_path)
        if case == "handler-raises":  # a FEASIBLE assignment that violates its row
            monkeypatch.setattr(cli, "solve_or_refute", lambda system: Feasible((Fraction(1),)))
        (gc.enable if enabled else gc.disable)()
        if code is None:
            with pytest.raises(AssertionError, match="violates a row"):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
        assert handler_states == ([] if case == "argparse-exit" else [False])

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_a_collection_of_the_young_generations_follows_the_pause(self, enabled, bids_file,
                                                                     monkeypatch, capsys):
        """Only a pause that ``main`` ended itself is followed by a
        collection, of generations 0 and 1."""
        collected = []
        monkeypatch.setattr(gc, "collect", lambda generation=2: collected.append(generation) or 0)
        (gc.enable if enabled else gc.disable)()
        assert main(["eval", "--rule", "second-price", "--bids", bids_file]) == 0
        assert collected == ([1] if enabled else [])
