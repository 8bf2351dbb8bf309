"""Command line interface.

Subcommands:

    growth positive --p P --n N [--method series|brute]
    growth language --p P --n N [--method automaton|closed-form|brute]
    rate positive   --p P [--tol T]
    rate lower-bound --p P [--tol T]
    rate report     --pmax P [--tol T]
    normalize --p P --form inf|fin [--trace] WORD
    length    --p P [--classes] WORD
    equal     --p P WORD WORD
    eval      --p P WORD
    verify    --p P [--profile small|full]

Output is a single JSON object (top-level key "schema": "1") on stdout, or
CSV for the table-shaped commands with --format csv.  Exact rationals print
as "num/den" strings unless --float is given.  Exit codes: 0 success (for
verify: all checks passed), 1 domain errors or failed verification, 2 usage
errors.  One parser is built per process and shared by every `run` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import automaton as automaton_mod
from . import diagrams, fordham, normal_forms, oracle, rates, series
from .words import format_word, parse_word

SCHEMA = "1"


def _positive_int(minimum: int):
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if v < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {v}")
        return v

    return parse


def _tolerance(text: str) -> Fraction:
    try:
        v = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational tolerance")
    if v <= 0:
        raise argparse.ArgumentTypeError("tolerance must be positive")
    return v


def _rational(v: Fraction, as_float: bool):
    if as_float:
        return float(v)
    if v.denominator == 1:
        return v.numerator
    return f"{v.numerator}/{v.denominator}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned by every
    later one.  `run` parses every argv with it, so it is shared: read it and
    call `parse_args` on it, but do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="thompson-fp",
        description="Growth arithmetic for the generalized Thompson groups F(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp):
        sp.add_argument("--p", type=_positive_int(2), required=True,
                        help="arity parameter of F(p), an integer >= 2")

    growth = sub.add_parser("growth", help="counting sequences")
    growth_sub = growth.add_subparsers(dest="what", required=True)

    gp = growth_sub.add_parser("positive", help="positive elements by word length")
    add_p(gp)
    gp.add_argument("--n", type=_positive_int(1), required=True,
                    help="number of terms (lengths 0..n-1)")
    gp.add_argument("--method", choices=["series", "brute"], default="series")
    gp.add_argument("--format", choices=["json", "csv"], default="json")

    gl = growth_sub.add_parser("language", help="normal-form words by length")
    add_p(gl)
    gl.add_argument("--n", type=_positive_int(1), required=True,
                    help="number of terms (lengths 0..n-1)")
    gl.add_argument("--method", choices=["automaton", "closed-form", "brute"],
                    default="automaton")
    gl.add_argument("--format", choices=["json", "csv"], default="json")

    rate = sub.add_parser("rate", help="growth rate enclosures")
    rate_sub = rate.add_subparsers(dest="what", required=True)
    for name, helptext in (
        ("positive", "positive-monoid growth rate"),
        ("lower-bound", "normal-form language growth rate"),
    ):
        rp = rate_sub.add_parser(name, help=helptext)
        add_p(rp)
        rp.add_argument("--tol", type=_tolerance, default=rates.DEFAULT_TOL,
                        help="enclosure width, rational or decimal (default 1e-9)")
        rp.add_argument("--float", action="store_true", dest="as_float")
    rr = rate_sub.add_parser("report", help="table of rates for p = 2..pmax")
    rr.add_argument("--pmax", type=_positive_int(2), required=True)
    rr.add_argument("--tol", type=_tolerance, default=rates.DEFAULT_TOL)
    rr.add_argument("--float", action="store_true", dest="as_float")
    rr.add_argument("--format", choices=["json", "csv"], default="json")

    nz = sub.add_parser("normalize", help="rewrite a word to normal form")
    add_p(nz)
    nz.add_argument("--form", choices=["inf", "fin"], required=True,
                    help="inf: irreducible over all x_i; fin: x_0..x_{p-1} form")
    nz.add_argument("--trace", action="store_true",
                    help="include the rewriting steps in the payload")
    nz.add_argument("word")

    ln = sub.add_parser("length", help="word length of a positive element")
    add_p(ln)
    ln.add_argument("--classes", action="store_true",
                    help="include the caret classification of the source tree")
    ln.add_argument("word")

    eq = sub.add_parser("equal", help="whether two words represent the same element")
    add_p(eq)
    eq.add_argument("word1")
    eq.add_argument("word2")

    ev = sub.add_parser("eval", help="reduced diagram of a word")
    add_p(ev)
    ev.add_argument("word")

    vf = sub.add_parser("verify", help="run the cross-validation suite")
    add_p(vf)
    vf.add_argument("--profile", choices=["small", "full"], default="small")

    return parser


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _emit(args, payload: dict, rows: list[dict]) -> None:
    """The payload as JSON, or with --format csv the rows as a table whose
    header is the first row's keys."""
    if args.format == "csv":
        cols = list(rows[0])
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) for c in cols))
    else:
        _emit_json(payload)


def _cmd_growth(args) -> int:
    if args.what == "positive":
        key = "coefficients"
        if args.method == "series":
            counts = series.positive_growth_series(args.p, args.n).counts()
        else:
            counts = list(oracle.enumerate_positive_by_weight(args.p, args.n - 1).counts)
    else:
        key = "counts"
        if args.method == "automaton":
            counts = automaton_mod.language_counts(args.p, args.n)
        elif args.method == "closed-form":
            counts = series.series_to_ints(automaton_mod.phi_series(args.p, args.n))
        else:
            # longest first, so the enumeration guard refuses before any work
            brute = automaton_mod.count_language_bruteforce
            counts = [brute(args.p, n) for n in reversed(range(args.n))][::-1]
    _emit(args, {
        "schema": SCHEMA, "command": f"growth {args.what}", "p": args.p,
        "n": args.n, "method": args.method, key: counts,
    }, [{"n": n, "count": c} for n, c in enumerate(counts)])
    return 0


def _rate_payload(result: rates.RateResult, as_float: bool) -> dict:
    return {
        "p": result.p,
        "equation": result.equation,
        "value_low": _rational(result.low, as_float),
        "value_high": _rational(result.high, as_float),
        "midpoint": _rational(result.midpoint, as_float),
    }


def _cmd_rate(args) -> int:
    if args.what == "positive":
        body = _rate_payload(rates.zeta(args.p, args.tol), args.as_float)
        _emit_json({"schema": SCHEMA, "command": "rate positive", **body})
        return 0
    if args.what == "lower-bound":
        body = _rate_payload(rates.xi(args.p, args.tol), args.as_float)
        _emit_json({"schema": SCHEMA, "command": "rate lower-bound", **body})
        return 0
    rows = rates.rate_report(args.pmax, args.tol)
    table = [
        {
            "p": r.p,
            "zeta_low": _rational(r.zeta.low, args.as_float),
            "zeta_high": _rational(r.zeta.high, args.as_float),
            "xi_low": _rational(r.xi.low, args.as_float),
            "xi_high": _rational(r.xi.high, args.as_float),
            "lambda": _rational(r.lambda_excess, args.as_float),
            "xi_over_2p_minus_1": _rational(r.xi_over_2p_minus_1, args.as_float),
            "asymptotic_gap": _rational(r.asymptotic_gap, args.as_float),
            "bounds_ok": r.bounds_ok,
        }
        for r in rows
    ]
    _emit(args, {"schema": SCHEMA, "command": "rate report", "rows": table}, table)
    return 0


def _cmd_normalize(args) -> int:
    w = parse_word(args.word)
    trace: list | None = [] if args.trace else None
    if args.form == "inf":
        result = normal_forms.to_infinite_nf(args.p, w, trace)
    else:
        result = normal_forms.finite_nf(args.p, w, trace)
    payload = {
        "schema": SCHEMA, "command": "normalize", "p": args.p,
        "word": format_word(w), "form": args.form, "result": format_word(result),
    }
    if trace is not None:
        payload["trace"] = trace
    _emit_json(payload)
    return 0


def _cmd_length(args) -> int:
    w = parse_word(args.word)
    source = fordham._positive_source(args.p, diagrams.evaluate(args.p, w))
    with_classes = args.classes and source != diagrams.LEAF
    classified = fordham.classify(args.p, source) if with_classes else None
    payload = {
        "schema": SCHEMA, "command": "length", "p": args.p, "word": format_word(w),
        "length": classified.total_weight if classified else fordham.tree_weight(args.p, source),
    }
    if args.classes:
        payload["classes"] = classified.to_json() if classified else {}
    _emit_json(payload)
    return 0


def _cmd_equal(args) -> int:
    w1, w2 = parse_word(args.word1), parse_word(args.word2)
    # Reduced diagrams are unique, so equal elements have equal strings.
    same = diagrams.evaluate(args.p, w1) == diagrams.evaluate(args.p, w2)
    _emit_json({
        "schema": SCHEMA, "command": "equal", "p": args.p,
        "word1": format_word(w1), "word2": format_word(w2), "equal": same,
    })
    return 0


def _cmd_eval(args) -> int:
    w = parse_word(args.word)
    pair = diagrams.evaluate(args.p, w)
    _emit_json({
        "schema": SCHEMA, "command": "eval", "p": args.p,
        "word": format_word(w), "pair": str(pair),
        "carets": diagrams.num_carets(pair.source),
        "positive": diagrams.is_right_spine(args.p, pair.target),
    })
    return 0


def _cmd_verify(args) -> int:
    report = oracle.verify_suite(args.p, args.profile)
    _emit_json({"schema": SCHEMA, "command": "verify", **report.to_json()})
    return 0 if report.ok else 1


_HANDLERS = {
    "growth": _cmd_growth,
    "rate": _cmd_rate,
    "normalize": _cmd_normalize,
    "length": _cmd_length,
    "equal": _cmd_equal,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
