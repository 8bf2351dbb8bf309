import json

import pytest

from thompson_fp.cli import build_parser, run


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_growth_positive_series(capsys):
    code, payload = _run_json(capsys, ["growth", "positive", "--p", "2", "--n", "6"])
    assert code == 0
    assert payload["schema"] == "1"
    assert payload["coefficients"] == [1, 2, 4, 9, 20, 45]


def test_growth_positive_brute_matches_series(capsys):
    code, payload = _run_json(
        capsys, ["growth", "positive", "--p", "3", "--n", "5", "--method", "brute"]
    )
    assert code == 0
    assert payload["coefficients"] == [1, 3, 9, 29, 94]


def test_growth_csv_format(capsys):
    code = run(["growth", "positive", "--p", "2", "--n", "3", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "n,count"
    assert out[1:] == ["0,1", "1,2", "2,4"]


def test_growth_language_methods_agree(capsys):
    results = []
    for method in ("automaton", "closed-form", "brute"):
        code, payload = _run_json(
            capsys,
            ["growth", "language", "--p", "2", "--n", "7", "--method", method],
        )
        assert code == 0
        results.append(payload["counts"])
    assert results[0] == results[1] == results[2]
    assert results[0][:3] == [1, 4, 12]
    # past the brute-force range, the one walk against the closed form
    long_runs = [
        _run_json(capsys, ["growth", "language", "--p", "3", "--n", "60", "--method", method])
        for method in ("automaton", "closed-form")
    ]
    assert [code for code, _ in long_runs] == [0, 0]
    assert long_runs[0][1]["counts"] == long_runs[1][1]["counts"]
    assert len(long_runs[0][1]["counts"]) == 60


def test_rate_positive_exact_fractions(capsys):
    code, payload = _run_json(capsys, ["rate", "positive", "--p", "2", "--tol", "1/1000"])
    assert code == 0
    assert "/" in payload["value_low"] or isinstance(payload["value_low"], int)
    num, den = map(int, payload["value_low"].split("/"))
    assert 2.24 < num / den < 2.25


def test_rate_lower_bound_float(capsys):
    code, payload = _run_json(capsys, ["rate", "lower-bound", "--p", "2", "--float"])
    assert code == 0
    assert abs(payload["midpoint"] - 2.618033989) < 1e-6


def test_rate_report_csv(capsys):
    code = run(["rate", "report", "--pmax", "3", "--tol", "1e-6", "--format", "csv", "--float"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("p,zeta_low")
    assert len(out) == 3


def test_normalize_inf(capsys):
    code, payload = _run_json(capsys, ["normalize", "--p", "2", "--form", "inf", "x2 x0"])
    assert code == 0
    assert payload["result"] == "x0 x3"
    assert "trace" not in payload


def test_normalize_trace(capsys):
    code, payload = _run_json(
        capsys, ["normalize", "--p", "2", "--form", "fin", "--trace", "x2 x0"]
    )
    assert code == 0
    assert payload["trace"][-1]["rule"] == "bar"


def test_length_with_classes(capsys):
    code, payload = _run_json(capsys, ["length", "--p", "2", "--classes", "x2"])
    assert code == 0
    assert payload["length"] == 3
    weights = [entry["weight"] for entry in payload["classes"].values()]
    assert sum(weights) == 3


def test_length_rejects_negative_word(capsys):
    code = run(["length", "--p", "2", "x0^-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "not positive" in err


def test_equal_command(capsys):
    code, payload = _run_json(capsys, ["equal", "--p", "3", "x2 x1", "x1 x4"])
    assert code == 0
    assert payload["equal"] is True
    code, payload = _run_json(capsys, ["equal", "--p", "3", "x2 x1", "x1 x2"])
    assert payload["equal"] is False


def test_eval_command(capsys):
    code, payload = _run_json(capsys, ["eval", "--p", "2", "x0"])
    assert code == 0
    assert payload["pair"] == "CCLLL|CLCLL"
    assert payload["positive"] is True


def test_verify_small(capsys):
    code, payload = _run_json(capsys, ["verify", "--p", "2", "--profile", "small"])
    assert code == 0
    assert payload["ok"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_usage_error_exit_code(capsys):
    assert run(["growth", "positive", "--p", "2"]) == 2  # missing --n
    assert run(["growth", "positive", "--p", "1", "--n", "3"]) == 2  # p < 2
    assert run(["nonsense"]) == 2


def test_malformed_word_exit_code(capsys):
    code = run(["normalize", "--p", "2", "--form", "inf", "x0 zz"])
    err = capsys.readouterr().err
    assert code == 1
    assert "zz" in err


def test_parser_help_mentions_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("growth", "rate", "normalize", "length", "equal", "eval", "verify"):
        assert name in text


def test_console_script_entry_point():
    # packaging wires thompson-fp to cli.main (tomllib is 3.11+, so scan text)
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'thompson-fp = "thompson_fp.cli:main"' in text
