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

Each handler returns its result as data: a payload dict, and for the
table-shaped commands its CSV rows as well.  `run` then builds the whole text
in one place and prints it in one call, so a command that fails writes
nothing to stdout.  The text is a single JSON object (top-level key "schema":
"1"), or CSV for the table-shaped commands with --format csv.  Exact
rationals print as ints or "num/den" strings unless --float is given, and
integers of any size print in full.  Exit codes: 0 success (for verify: all
checks passed), 1 domain errors or failed verification, 2 usage errors.  One
parser is built per process and shared by every `run` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import automaton as automaton_mod
from . import diagrams, fordham, normal_forms, oracle, rates, series
from .words import _digit_limit, format_word, parse_word

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


def _cmd_growth(args) -> tuple[dict, list[dict]]:
    if args.what == "positive":
        key = "coefficients"
        if args.method == "series":
            counts = series.positive_counts(args.p, args.n)
        else:
            counts = list(oracle.enumerate_positive_by_weight(args.p, args.n - 1).counts)
    else:
        key = "counts"
        if args.method == "automaton":
            counts = automaton_mod.language_counts(args.p, args.n)
        elif args.method == "closed-form":
            counts = series.series_to_ints(automaton_mod.phi_series(args.p, args.n))
        else:
            counts = automaton_mod.language_counts_bruteforce(args.p, args.n)
    payload = {
        "command": f"growth {args.what}", "p": args.p,
        "n": args.n, "method": args.method, key: counts,
    }
    return payload, [{"n": n, "count": c} for n, c in enumerate(counts)]


def _cmd_rate(args) -> dict | tuple[dict, list[dict]]:
    num = float if args.as_float else Fraction
    if args.what != "report":
        r = (rates.zeta if args.what == "positive" else rates.xi)(args.p, args.tol)
        return {
            "command": f"rate {args.what}", "p": r.p, "equation": r.equation,
            "value_low": num(r.low), "value_high": num(r.high), "midpoint": num(r.midpoint),
        }
    table = [
        {
            "p": r.p,
            "zeta_low": num(r.zeta.low),
            "zeta_high": num(r.zeta.high),
            "xi_low": num(r.xi.low),
            "xi_high": num(r.xi.high),
            "lambda": num(r.lambda_excess),
            "xi_over_2p_minus_1": num(r.xi_over_2p_minus_1),
            "asymptotic_gap": num(r.asymptotic_gap),
            "bounds_ok": r.bounds_ok,
        }
        for r in rates.rate_report(args.pmax, args.tol)
    ]
    return {"command": "rate report", "rows": table}, table


def _cmd_normalize(args) -> dict:
    w = parse_word(args.word)
    trace: list | None = [] if args.trace else None
    if args.form == "inf":
        result = normal_forms.to_infinite_nf(args.p, w, trace)
    else:
        result = normal_forms.finite_nf(args.p, w, trace)
    payload = {
        "command": "normalize", "p": args.p,
        "word": format_word(w), "form": args.form, "result": format_word(result),
    }
    if trace is not None:
        payload["trace"] = trace
    return payload


def _cmd_length(args) -> dict:
    w = parse_word(args.word)
    # evaluate returns the reduced diagram that _positive_source expects
    source = fordham._positive_source(args.p, diagrams.evaluate(args.p, w))
    classified = fordham.classify(args.p, source) if args.classes else None
    payload = {
        "command": "length", "p": args.p, "word": format_word(w),
        "length": classified.total_weight if classified else fordham.tree_weight(args.p, source),
    }
    if classified:
        payload["classes"] = classified.to_json()
    return payload


def _cmd_equal(args) -> dict:
    w1, w2 = parse_word(args.word1), parse_word(args.word2)
    # Reduced diagrams are unique, so equal elements have equal strings.
    same = diagrams.evaluate(args.p, w1) == diagrams.evaluate(args.p, w2)
    return {
        "command": "equal", "p": args.p,
        "word1": format_word(w1), "word2": format_word(w2), "equal": same,
    }


def _cmd_eval(args) -> dict:
    w = parse_word(args.word)
    pair = diagrams.evaluate(args.p, w)
    return {
        "command": "eval", "p": args.p,
        "word": format_word(w), "pair": str(pair),
        "carets": diagrams.num_carets(pair.source),
        "positive": diagrams.is_right_spine(args.p, pair.target),
    }


def _cmd_verify(args) -> dict:
    return {"command": "verify", **oracle.verify_suite(args.p, args.profile).to_json()}


def _json_rational(v: Fraction):
    if not isinstance(v, Fraction):
        raise TypeError(f"{type(v).__name__} is not JSON serializable")
    return v.numerator if v.denominator == 1 else str(v)


def _json_trace(trace: list) -> str:
    """json.dumps(trace), encoding each distinct entry object once: the
    entries of a rule trace are shared, one dict per rule and position."""
    # the trace holds every entry, so no id is reused while this runs
    text = {i: json.dumps(entry) for i, entry in dict(zip(map(id, trace), trace)).items()}
    return "[%s]" % ", ".join(map(text.__getitem__, map(id, trace)))


def _render(payload: dict, rows: list[dict] | None) -> str:
    """The whole text of one result: the rows as a CSV table whose header is
    the first row's keys, or else the payload as one JSON object with
    "schema" first and each Fraction as an int or a "num/den" string.  A
    "trace" is encoded by _json_trace and spliced in where json.dumps
    would put it, so the text is json.dumps's to the byte.

    Integers of any size print in full: the interpreter's limit on int-to-str
    digits is lifted for this step alone and restored after it, so arguments
    and words are still parsed under it."""
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if rows is not None:
            cols = list(rows[0])
            lines = [",".join(str(row[c]) for c in cols) for row in rows]
            return "\n".join([",".join(cols), *lines])
        obj = {"schema": SCHEMA, **payload}
        if "trace" not in obj:
            return json.dumps(obj, default=_json_rational)
        # json.dumps writes a dict as {"key": value, ...}; one join builds it
        parts = []
        for k, v in obj.items():
            parts += (", " if parts else "{", json.dumps(k), ": ")
            parts.append(_json_trace(v) if k == "trace" else json.dumps(v, default=_json_rational))
        parts.append("}")
        return "".join(parts)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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
        out = _HANDLERS[args.command](args)
        payload, rows = out if isinstance(out, tuple) else (out, None)
        text = _render(payload, rows if getattr(args, "format", "json") == "csv" else None)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0 if payload.get("ok", True) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
