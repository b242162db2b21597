import json
import sys

import pytest

from kbonacci.cli import main, parse_range


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_single_value(self):
        assert list(parse_range("4")) == [4]

    def test_inclusive_range(self):
        assert list(parse_range("0..3")) == [0, 1, 2, 3]

    def test_negative_start(self):
        assert list(parse_range("-2..1")) == [-2, -1, 0, 1]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_range("5..2")


class TestEval:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "2", "--n", "4")
        assert code == 0
        assert out == "5\n"

    def test_degenerate_family(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "1", "--n", "9")
        assert code == 0
        assert out == "1\n"

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "3", "--n", "0..3")
        assert code == 0
        assert out.split() == ["1", "1", "2", "4"]

    def test_engines_print_identical_bytes(self, capsys):
        outputs = set()
        for engine in ("recurrence", "dunkel-term", "matrix"):
            _, out, _ = run(capsys, "eval", "--k", "3", "--n", "0..25", "--engine", engine)
            outputs.add(out)
        assert len(outputs) == 1

    def test_parameter_error_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--k", "0", "--n", "4")
        assert code == 2
        assert out == ""
        assert "k must be" in err

    def test_negative_n_allowed_on_recurrence(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "3", "--n=-2")
        assert code == 0
        assert out == "0\n"


class TestSum:
    def test_direct(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "2", "--n", "4")
        assert (code, out) == (0, "12\n")

    def test_base_case_value(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "9", "--n", "6")
        assert (code, out) == (0, "64\n")

    def test_extended_with_limit(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--k", "2", "--n", "4", "--engine", "dunkel-extended", "--m", "2"
        )
        assert (code, out) == (0, "12\n")

    def test_extended_defaults_to_largest_legal_limit(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "2", "--n", "4", "--engine", "dunkel-extended")
        assert (code, out) == (0, "12\n")

    def test_sum_engines_print_identical_bytes(self, capsys):
        outputs = set()
        for engine in ("direct", "dunkel", "dunkel-extended", "matrix"):
            _, out, _ = run(capsys, "sum", "--k", "2", "--n", "0..20", "--engine", engine)
            outputs.add(out)
        assert len(outputs) == 1

    def test_limit_outside_engine_rejected(self, capsys):
        code, _, err = run(capsys, "sum", "--k", "2", "--n", "4", "--m", "2")
        assert code == 2
        assert "dunkel-extended" in err

    def test_out_of_range_limit_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sum", "--k", "2", "--n", "4", "--engine", "dunkel-extended", "--m", "9"
        )
        assert code == 2
        assert "outside" in err


class TestTerms:
    def test_sum_formula_rows(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "3", "--n", "7")
        assert code == 0
        assert out.splitlines() == ["0 + 128", "1 - 32"]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "2", "--n", "0")
        assert (code, out) == (0, "0 + 1\n")

    def test_term_formula_rows(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "2", "--n", "4", "--which", "term-formula")
        assert code == 0
        assert out.splitlines() == ["0 + 8", "1 - 3"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "terms", "--k", "3", "--n", "7", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["j,sign,magnitude", "0,1,128", "1,-1,32"]


class TestTilings:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "4", "--count")
        assert (code, out) == (0, "5\n")

    def test_count_window_four(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "4", "--n", "4", "--count")
        assert (code, out) == (0, "8\n")

    def test_bounded_count(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "4", "--bounded", "--count")
        assert (code, out) == (0, "12\n")

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["[1,1,1]", "[1,2]", "[2,1]"]

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "tilings", "--k", "2", "--n", "3", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"tiles": [1, 1, 1], "total": 3},
            {"tiles": [1, 2], "total": 3},
            {"tiles": [2, 1], "total": 3},
        ]

    def test_cap_flag_allows_and_blocks(self, capsys):
        code, _, err = run(capsys, "tilings", "--k", "1", "--n", "30", "--count")
        assert code == 2
        assert "cap" in err
        code, out, _ = run(capsys, "tilings", "--k", "1", "--n", "30", "--count", "--cap", "30")
        assert (code, out) == (0, "1\n")

    def test_cap_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("KBONACCI_ENUM_CAP", "30")
        code, out, _ = run(capsys, "tilings", "--k", "1", "--n", "30", "--count")
        assert (code, out) == (0, "1\n")

    def test_cap_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KBONACCI_ENUM_CAP", "30")
        code, _, err = run(
            capsys, "tilings", "--k", "1", "--n", "30", "--count", "--cap", "10"
        )
        assert code == 2
        assert "cap" in err

    def test_bad_env_var_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("KBONACCI_ENUM_CAP", "lots")
        code, _, err = run(capsys, "tilings", "--k", "2", "--n", "4", "--count")
        assert code == 2
        assert "KBONACCI_ENUM_CAP" in err


class TestJsonRoundTrip:
    def test_eval_records(self, capsys):
        _, out, _ = run(capsys, "eval", "--k", "2", "--n", "0..6", "--format", "json")
        for line in out.splitlines():
            parsed = json.loads(line)
            assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line

    def test_bench_records(self, capsys):
        _, out, _ = run(
            capsys, "bench", "--k", "2", "--n", "100", "--reps", "1", "--format", "json"
        )
        for line in out.splitlines():
            parsed = json.loads(line)
            assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line


class TestVerify:
    def test_default_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "1..3", "--n", "0..8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_selected_suites(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "engines,inclusion-exclusion", "--k", "1..3", "--n", "0..8"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("PASS engines")
        assert out.splitlines()[1].startswith("PASS inclusion-exclusion")

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "engines", "--k", "1..2", "--n", "0..5", "--format", "json"
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["suite"] == "engines"
        assert record["status"] == "pass"
        assert record["failures"] == []

    def test_failure_exits_1(self, capsys, monkeypatch):
        import kbonacci.verify as verify_mod

        monkeypatch.setitem(
            verify_mod.SUITES, "engines", lambda ks, ns, cap=None: _broken_result()
        )
        code, out, _ = run(capsys, "verify", "--suite", "engines")
        assert code == 1
        assert "FAIL engines" in out
        assert "forced mismatch" in out


def _broken_result():
    from kbonacci.verify import SuiteResult

    result = SuiteResult("engines")
    result.expect(False, "forced mismatch")
    return result


class TestBench:
    def test_value_engines_report_identical_values(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--k", "2", "--n", "3000",
            "--engines", "recurrence,dunkel-term,matrix",
            "--reps", "1", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3
        assert len({row["value"] for row in rows}) == 1
        assert all(row["elapsed_ns"] >= 0 for row in rows)
        by_engine = {row["engine"]: row for row in rows}
        assert by_engine["matrix"]["ops"] < by_engine["recurrence"]["ops"]

    def test_sum_engines_report_identical_values(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--k", "5", "--n", "500",
            "--engines", "dunkel,matrix,direct",
            "--reps", "1", "--format", "json",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len({row["value"] for row in rows}) == 1

    def test_rows_sorted_by_engine(self, capsys):
        _, out, _ = run(
            capsys,
            "bench", "--k", "2", "--n", "50",
            "--engines", "recurrence,matrix,dunkel-term",
            "--reps", "1", "--format", "json",
        )
        engines = [json.loads(line)["engine"] for line in out.splitlines()]
        assert engines == sorted(engines)

    def test_trivial_index(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--k", "2", "--n", "0", "--reps", "1", "--format", "json"
        )
        assert code == 0
        assert all(json.loads(line)["value"] == "1" for line in out.splitlines())

    def test_mixed_quantities_rejected(self, capsys):
        code, _, err = run(
            capsys, "bench", "--k", "2", "--n", "10", "--engines", "recurrence,dunkel"
        )
        assert code == 2
        assert "mix" in err

    def test_unknown_engine_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "--k", "2", "--n", "10", "--engines", "warp")
        assert code == 2
        assert "unknown engine" in err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_rejected(self, capsys, reps):
        code, out, err = run(capsys, "bench", "--k", "2", "--n", "10", "--reps", reps)
        assert code == 2
        assert out == ""
        assert "--reps must be at least 1" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--k", "2"])  # --n missing
    assert exc.value.code == 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_digit_limit_restored_after_main(capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, _ = run(capsys, "eval", "--k", "2", "--n", "30000", "--engine", "matrix")
        assert code == 0
        assert len(out.strip()) > 5000  # lifted while main runs
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["eval", "--k", "2"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)
