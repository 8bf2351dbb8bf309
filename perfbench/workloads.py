"""Seeded job lists for the benchmark's workloads.

A job is one command line for `thompson_fp.cli.run`, plus what the checker
needs to know about it.  The child interpreter receives only the argv.  No
argv repeats within a run, so a result cache kept across jobs cannot stand
in for the computation.

The seed picks the words, the small jitter on orders, lengths and
tolerances, the output format and the job order.  It never changes how much
work a list holds by more than a few per cent, so that runs on different
seeds measure the same thing.
"""

from __future__ import annotations

import random

WORKLOADS = {
    "growth-series": (
        "series does nearly all the work; diagrams, fordham and normal_forms do "
        "none, so series and automaton rewrites show here and nowhere else"
    ),
    "census": (
        "oracle and fordham dominate over about 4e5 small trees and thousands of "
        "tiny compose calls; series runs only at tiny orders"
    ),
    "word-ops": (
        "normal_forms and diagrams dominate on a few large words; positive words "
        "hit cubic push-positive rewriting, signed words mostly cancel"
    ),
}

# growth-series.  The job times cluster in three blocks, so that the median
# and the tail fall inside a block and do not jump between jobs of different
# cost from one run to the next: TINY_ORDERS and the rate jobs are quick
# queries, and the median falls among the rate jobs; each p's BIG_ORDERS cost
# about the same at the seed commit, and the tail falls among them.  The seed
# leaves one of the six big orders out.  MID_ORDER widens the range of orders
# that series.time_slope is fitted on.
TINY_ORDERS = {p: (1, 2, 3, 4) for p in range(2, 11)}
MID_ORDER = {2: 20, 3: 20, 4: 20, 5: 20, 6: 18}
BIG_ORDERS = {2: range(39, 45), 3: range(29, 35), 4: range(25, 31), 5: range(23, 29),
              6: range(21, 27)}
RATE_PS = range(2, 9)
RATE_DIGITS = ((30, 39), (40, 49), (50, 60))
LANGUAGE_N = ((120, 200), (150, 280))  # (automaton, closed-form) orders
REPORTS = ((3, 30), (4, 40), (5, 40), (6, 50))  # (pmax, fewest tolerance digits)
TINY_ORDERS_SMOKE = {2: (2,), 3: (2,)}
MID_ORDER_SMOKE = {2: 6, 3: 6}
BIG_ORDERS_SMOKE = {2: range(8, 11), 3: range(7, 10)}
LANGUAGE_N_SMOKE = ((10, 20), (30, 40))
REPORTS_SMOKE = ((3, 30), (4, 40))

# census: the brute-force census for every n up to the cap, for each p, and
# verify --profile small.  Seven jobs take the better part of a second or
# more; below them about ten take a few tenths of a second, among which the
# tail falls.  More than half are quick ones (n = 1 up to p = 45), among
# which the median falls.
CENSUS_CAPS = {2: 10, 3: 7, 4: 6, 5: 5, 6: 4, 7: 4, **{p: 3 for p in range(8, 16)},
               **{p: 1 for p in range(16, 46)}}
CENSUS_CAPS_SMOKE = {2: 5, 3: 3}
VERIFY_PS = (2, 3, 4)
VERIFY_PS_SMOKE = (2,)

WORD_PS = (2, 3, 5)
# (word length, rounds per p and word kind); see _word_ops.  The longest
# words are only normalized, and only positive ones: those few jobs take the
# top ten places, so that the tail falls among the many jobs on mid-length
# words.
WORD_ROUNDS = ((100, 4), (175, 2))
WORD_ROUNDS_SMOKE = ((12, 1), (24, 1))
LONG_WORD = 250
LONG_WORD_SMOKE = 36


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The job list of one run.  The same (workload, seed, smoke) always
    gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    build = {"growth-series": _growth_series, "census": _census, "word-ops": _word_ops}[workload]
    jobs = build(rng, smoke)
    rng.shuffle(jobs)
    argvs = [tuple(j["argv"]) for j in jobs]
    if len(set(argvs)) != len(argvs):
        raise AssertionError(f"{workload} seed {seed}: an argv repeats")
    return jobs


def _job(argv: list[str], **check) -> dict:
    return {"argv": argv, "check": check}


def _fmt(rng: random.Random) -> str:
    return rng.choice(("json", "csv"))


def _growth_series(rng: random.Random, smoke: bool) -> list[dict]:
    jobs = []

    def positive(p, n):
        fmt = _fmt(rng)
        jobs.append(_job(["growth", "positive", "--p", str(p), "--n", str(n), "--format", fmt],
                         kind="positive", p=p, n=n, format=fmt))

    if smoke:
        tiny, mid, big = TINY_ORDERS_SMOKE, MID_ORDER_SMOKE, BIG_ORDERS_SMOKE
    else:
        tiny, mid, big = TINY_ORDERS, MID_ORDER, BIG_ORDERS
    for p, ns in tiny.items():
        for n in ns:
            positive(p, n)
    for p, n in mid.items():
        positive(p, n)
    for p, ns in big.items():
        ns = list(ns)
        ns.remove(rng.choice(ns))
        for n in ns:
            positive(p, n)
    for p in mid:
        for method, ns in zip(("automaton", "closed-form"),
                              LANGUAGE_N_SMOKE if smoke else LANGUAGE_N):
            for n in ns:
                n += rng.randint(-4, 4)
                fmt = _fmt(rng)
                jobs.append(_job(
                    ["growth", "language", "--p", str(p), "--n", str(n), "--method", method,
                     "--format", fmt],
                    kind="language", p=p, n=n, format=fmt,
                ))
    for p in mid if smoke else RATE_PS:
        for what in ("positive", "lower-bound"):
            for lo, hi in RATE_DIGITS:
                tol = f"1e-{rng.randint(lo, hi)}"
                jobs.append(_job(["rate", what, "--p", str(p), "--tol", tol],
                                 kind="rate", what=what, p=p, tol=tol))
    for pmax, digits in REPORTS_SMOKE if smoke else REPORTS:
        tol = f"1e-{digits + rng.randint(0, 10)}"
        fmt = _fmt(rng)
        jobs.append(_job(["rate", "report", "--pmax", str(pmax), "--tol", tol, "--format", fmt],
                         kind="report", pmax=pmax, tol=tol, format=fmt))
    return jobs


def _census(rng: random.Random, smoke: bool) -> list[dict]:
    jobs = []
    for p, cap in (CENSUS_CAPS_SMOKE if smoke else CENSUS_CAPS).items():
        for n in range(1, cap + 1):
            fmt = _fmt(rng)
            jobs.append(_job(
                ["growth", "positive", "--p", str(p), "--n", str(n), "--method", "brute",
                 "--format", fmt],
                kind="positive", p=p, n=n, format=fmt,
            ))
    for p in VERIFY_PS_SMOKE if smoke else VERIFY_PS:
        jobs.append(_job(["verify", "--p", str(p), "--profile", "small"], kind="verify", p=p))
    return jobs


def random_word(rng: random.Random, p: int, length: int, positive: bool) -> list[tuple[int, int]]:
    """Letters (index, sign) with indices <= 3p; signs are fair coins unless
    the word is positive."""
    return [
        (rng.randint(0, 3 * p), 1 if positive or rng.random() < 0.5 else -1)
        for _ in range(length)
    ]


def format_word(word: list[tuple[int, int]]) -> str:
    return " ".join(f"x{i}" if s > 0 else f"x{i}^-1" for i, s in word) or "1"


def _relation_move(rng: random.Random, p: int, w: list[tuple[int, int]]) -> bool:
    """Apply one defining relation x_j x_i = x_i x_{j+p-1} (i < j), or its
    inverse form, at a random position where it fits."""
    if len(w) < 2:
        return False
    k = rng.randrange(len(w) - 1)
    (a, ea), (b, eb) = w[k], w[k + 1]
    if ea != eb:
        return False
    if ea > 0 and a > b:  # x_j x_i -> x_i x_{j+p-1}
        w[k:k + 2] = [(b, 1), (a + p - 1, 1)]
    elif ea > 0 and b >= a + p:  # x_i x_{j+p-1} -> x_j x_i
        w[k:k + 2] = [(b - p + 1, 1), (a, 1)]
    elif ea < 0 and a < b:  # x_i^-1 x_j^-1 -> x_{j+p-1}^-1 x_i^-1
        w[k:k + 2] = [(b + p - 1, -1), (a, -1)]
    elif ea < 0 and a >= b + p:  # x_{j+p-1}^-1 x_i^-1 -> x_i^-1 x_j^-1
        w[k:k + 2] = [(b, -1), (a - p + 1, -1)]
    else:
        return False
    return True


def equal_partner(rng: random.Random, p: int, word: list[tuple[int, int]], same: bool):
    """A second word that equals `word` in F(p) by construction, or, when
    `same` is false, that differs from it by one inserted generator (F(p) is
    torsion-free, so u x_k v never equals u v)."""
    w = list(word)
    moves = max(1, len(w) // 8)
    for _ in range(20 * moves):
        if moves == 0:
            break
        moves -= _relation_move(rng, p, w)
    for _ in range(3):
        i, e = rng.randint(0, 3 * p), rng.choice((1, -1))
        k = rng.randint(0, len(w))
        w[k:k] = [(i, e), (i, -e)]
    if not same:
        w.insert(rng.randint(0, len(w)), (rng.randint(0, 3 * p), rng.choice((1, -1))))
    return w


def _word_ops(rng: random.Random, smoke: bool) -> list[dict]:
    """Per p, word length and word kind (positive or signed), some rounds of:
    normalize to each form, eval, length (positive words only) and equal.
    Every job gets a fresh word.  Only the short words carry --trace, in the
    first round, since the trace of a long positive word runs to megabytes.
    Last, one positive word of LONG_WORD letters per p and form, to
    normalize."""
    jobs = []
    rounds = WORD_ROUNDS_SMOKE if smoke else WORD_ROUNDS
    for p in WORD_PS[:1] if smoke else WORD_PS:
        ps = str(p)
        for length, n_rounds in rounds:
            for positive in (True, False):
                def word():
                    jitter = rng.randint(-5, 5) if length > 20 else 0
                    return random_word(rng, p, length + jitter, positive)

                for r in range(n_rounds):
                    trace = r == 0 and length == rounds[0][0]
                    for form in ("inf", "fin"):
                        w = word()
                        jobs.append(_job(
                            ["normalize", "--p", ps, "--form", form]
                            + (["--trace"] if trace else []) + [format_word(w)],
                            kind="normalize", p=p, form=form, trace=trace, word=w,
                        ))
                    w = word()
                    jobs.append(_job(["eval", "--p", ps, format_word(w)],
                                     kind="eval", p=p, word=w))
                    if positive:
                        w = word()
                        classes = rng.random() < 0.5
                        jobs.append(_job(
                            ["length", "--p", ps] + (["--classes"] if classes else [])
                            + [format_word(w)],
                            kind="length", p=p, classes=classes, word=w,
                        ))
                    same = rng.random() < 0.5
                    w = word()
                    pair = [format_word(w), format_word(equal_partner(rng, p, w, same))]
                    rng.shuffle(pair)
                    jobs.append(_job(["equal", "--p", ps] + pair, kind="equal", p=p, expected=same))
        for form in ("inf", "fin"):
            w = random_word(rng, p, (LONG_WORD_SMOKE if smoke else LONG_WORD) + rng.randint(-5, 5),
                            True)
            jobs.append(_job(["normalize", "--p", ps, "--form", form, format_word(w)],
                             kind="normalize", p=p, form=form, trace=False, word=w))
    return jobs
