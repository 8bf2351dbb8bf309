import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from thompson_fp import fordham, normal_forms
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


# sha256 of `growth positive --p P --n 200 --format csv`, pinned so that a
# change to the series arithmetic cannot move a coefficient past order 30
GROWTH_POSITIVE_N200_CSV_SHA256 = {
    2: "f028a60a73f14a7ce1c740ee53f2e83779dffbafc0339b5b7e642845bd436d1f",
    3: "70d39b7b1ca7ff2831c261cb429544a0ce7c798b197f5e4e48b91937e73e0fd1",
    4: "7047aebb1410c792706cfff580c3b4f16f4f389ed7b2f6664df5707f412dabf7",
    5: "43737c59b1506b21bde0f8e6c6c7919015a4290250a622615b9a12d1d17ccfde",
    6: "c49a4ed6ff7b188c6467eddfd95d61c2708595e2c0a4fd374d2d45a28e7f3ba0",
}


@pytest.mark.parametrize("p", sorted(GROWTH_POSITIVE_N200_CSV_SHA256))
def test_growth_positive_csv_bytes_are_pinned(capsys, p):
    code = run(["growth", "positive", "--p", str(p), "--n", "200", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROWTH_POSITIVE_N200_CSV_SHA256[p]


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


def test_growth_language_brute_refuses_before_enumerating(capsys, monkeypatch):
    # the guard must trip before any word is tested, not at the last length
    def no_enumeration(p, word):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr("thompson_fp.automaton.is_in_Lp", no_enumeration)
    for p, n in ((2, 13), (3, 10)):
        code = run(["growth", "language", "--p", str(p), "--n", str(n), "--method", "brute"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "exceeds the enumeration limit" in captured.err


def test_rate_positive_exact_fractions(capsys):
    code, payload = _run_json(capsys, ["rate", "positive", "--p", "2", "--tol", "1/1000"])
    assert code == 0
    assert "/" in payload["value_low"] or isinstance(payload["value_low"], int)
    num, den = map(int, payload["value_low"].split("/"))
    assert 2.24 < num / den < 2.25
    # a whole bound prints as a JSON int
    code, payload = _run_json(capsys, ["rate", "positive", "--p", "2", "--tol", "1"])
    assert code == 0
    assert payload["value_low"] == 2 and isinstance(payload["value_low"], int)


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


def test_normalize_refuses_a_huge_finite_form(capsys):
    # bar of x_j has about 2j / (p - 1) letters; the CLI must refuse before
    # building them
    code = run(["normalize", "--p", "2", "--form", "fin", "x1000000000000"])
    err = capsys.readouterr().err
    assert code == 1
    assert "1999999999999 letters" in err and "BAR_LENGTH_LIMIT" in err


def test_normalize_refuses_a_trace_past_the_limit(capsys, monkeypatch):
    argv = ["normalize", "--p", "2", "--form", "inf", "--trace", "x1 x3 x4 x5 x1^-1"]
    monkeypatch.setattr(normal_forms, "TRACE_LENGTH_LIMIT", 4)
    code, payload = _run_json(capsys, argv)
    assert code == 0 and len(payload["trace"]) == 4
    monkeypatch.setattr(normal_forms, "TRACE_LENGTH_LIMIT", 3)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "TRACE_LENGTH_LIMIT = 3" in captured.err


def test_length_with_classes(capsys):
    code, payload = _run_json(capsys, ["length", "--p", "2", "--classes", "x2"])
    assert code == 0
    assert payload["length"] == 3
    weights = [entry["weight"] for entry in payload["classes"].values()]
    assert sum(weights) == 3


def test_length_runs_the_fordham_pass_once(capsys, monkeypatch):
    calls = []
    inner = fordham._pass

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(fordham, "_pass", counting)
    for flags in (["--classes"], []):
        calls.clear()
        assert run(["length", "--p", "3", *flags, "x0 x2 x5"]) == 0
        assert len(calls) == 1, flags
    capsys.readouterr()


@pytest.mark.parametrize(
    "p, word, out",
    [
        (2, "x0 x0^-1", '{"schema": "1", "command": "length", "p": 2, "word": "x0 x0^-1", '
         '"length": 0, "classes": {}}\n'),
        (3, "1", '{"schema": "1", "command": "length", "p": 3, "word": "1", '
         '"length": 0, "classes": {}}\n'),
    ],
)
def test_length_classes_of_the_identity(capsys, p, word, out):
    # the identity's trees have no carets, so it has no classes
    assert run(["length", "--p", str(p), "--classes", word]) == 0
    assert capsys.readouterr().out == out


def test_length_rejects_negative_word(capsys):
    for flags in ([], ["--classes"]):
        code = run(["length", "--p", "2", *flags, "x0^-1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "not positive" in err


@pytest.mark.parametrize("p", [2, 3])
def test_length_of_long_generator_powers(p, capsys):
    # x0^n is a geodesic; its source tree is n + 1 carets deep
    for n in (1, 2, 300, 2000):
        code, payload = _run_json(capsys, ["length", "--p", str(p), " ".join(["x0"] * n)])
        assert code == 0
        assert payload["length"] == n


def test_eval_long_word(capsys):
    rng = random.Random(1600)
    word = " ".join(f"x{rng.randrange(9)}" for _ in range(1600))
    code, payload = _run_json(capsys, ["eval", "--p", "3", word])
    assert code == 0
    assert payload["positive"] is True


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
    capsys.readouterr()
    for argv, message in (
        (["growth", "positive", "--p", "2"], "required: --n"),
        (["growth", "positive", "--p", "1", "--n", "3"], "must be >= 2, got 1"),
        (["nonsense"], "invalid choice"),
        (["growth", "positive", "--p", "2", "--n", "abc"], "argument --n: 'abc' is not an integer"),
        (["rate", "positive", "--p", "2", "--tol", "abc"],
         "argument --tol: 'abc' is not a rational tolerance"),
        (["rate", "positive", "--p", "2", "--tol", "0"], "argument --tol: tolerance must be positive"),
    ):
        errs = []
        for _ in range(2):
            assert run(argv) == 2
            errs.append(capsys.readouterr().err)
        assert message in errs[0]
        assert errs[0] == errs[1]


def test_malformed_word_exit_code(capsys):
    code = run(["normalize", "--p", "2", "--form", "inf", "x0 zz"])
    err = capsys.readouterr().err
    assert code == 1
    assert "zz" in err


def test_run_reuses_one_parser(capsys, monkeypatch):
    assert build_parser() is build_parser()
    run(["eval", "--p", "2", "x0"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["growth", "language", "--p", "2", "--n", "4"],
        ["rate", "positive", "--p", "2", "--tol", "1e-3"],
        ["normalize", "--p", "2", "--form", "inf", "x2 x0"],
        ["length", "--p", "2", "x1"],
        ["equal", "--p", "2", "x1", "x1"],
        ["eval", "--p", "3", "x4 x0"],
        ["verify", "--p", "2", "--profile", "huge"],
    ):
        assert run(argv) == (2 if argv[0] == "verify" else 0)
    capsys.readouterr()
    assert built == []


# Usage errors, help and domain errors interleaved with flags set and then
# left unset: a parser that kept anything from one parse would show it in
# the next call's output.
STATE_LEAK_ARGVS = [
    ["rate", "positive", "--p", "2", "--tol", "1e-6", "--float"],
    ["growth", "positive", "--p", "2"],
    ["rate", "positive", "--p", "2", "--tol", "1e-6"],
    ["normalize", "--p", "2", "--form", "fin", "--trace", "x2 x0"],
    ["growth", "positive", "--p", "1", "--n", "3"],
    ["normalize", "--p", "2", "--form", "fin", "x2 x0"],
    ["--help"],
    ["length", "--p", "2", "--classes", "x2 x1"],
    ["nonsense"],
    ["length", "--p", "2", "x2 x1"],
    ["normalize", "--p", "2", "--form", "inf", "x0 zz"],
    ["rate", "report", "--pmax", "3", "--tol", "1e-6", "--format", "csv"],
    ["rate", "report", "--help"],
    ["rate", "report", "--pmax", "3", "--tol", "1e-6"],
    ["growth", "positive", "--p", "2", "--n", "5", "--format", "csv"],
    ["growth", "positive", "--p", "2", "--n", "5"],
]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    def outcomes(fresh):
        seen = []
        for argv in STATE_LEAK_ARGVS:
            if fresh:
                build_parser.cache_clear()
            code = run(argv)
            captured = capsys.readouterr()
            seen.append((argv, code, captured.out, captured.err))
        return seen

    try:
        shared = outcomes(fresh=False)
        fresh = outcomes(fresh=True)
    finally:
        build_parser.cache_clear()
    assert shared == fresh
    assert [code for _, code, _, _ in shared] == [0, 2, 0, 0, 2, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0]
    out = {tuple(argv): out for argv, _, out, _ in shared}
    for flag, key in (("--trace", '"trace"'), ("--classes", '"classes"')):
        [with_flag] = [argv for argv in STATE_LEAK_ARGVS if flag in argv]
        assert key in out[tuple(with_flag)]
        assert key not in out[tuple(a for a in with_flag if a != flag)]


def test_parser_help_mentions_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("growth", "rate", "normalize", "length", "equal", "eval", "verify"):
        assert name in text


def test_cli_imports_neither_dataclasses_nor_inspect():
    # each of them costs every command process start-up time and no output
    # needs them; -S keeps site's own imports out of the count
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, thompson_fp.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_console_script_entry_point():
    # packaging wires thompson-fp to cli.main (tomllib is 3.11+, so scan text)
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'thompson-fp = "thompson_fp.cli:main"' in text


def test_word_commands_refuse_a_generator_past_the_size_limit(capsys):
    # x_n alone needs trees of about n characters; refused before any is built
    for command, *words in (
        ("eval", "x100000000"), ("length", "x0 x100000000^-1"), ("equal", "x0", "x100000000"),
    ):
        code = run([command, "--p", "2", *words])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", command
        assert "index 100000000 grows the trees to 2000000" in captured.err
        assert "DIAGRAM_SIZE_LIMIT = 10000000" in captured.err
