"""Checks of every job's output.  They run in the parent process, after the
timed child has finished, and use reference values that no seed changes.

Imports the package under test from the checkout's `src/`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from thompson_fp import diagrams, fordham, normal_forms, rates
from thompson_fp.words import Letter

# Coefficients per p, from the series solver at the seed commit, up to the
# largest order any workload asks for (growth-series' BIG_ORDERS for p=2..6).
# They agree with the brute-force census as far as it reaches in a few
# seconds (weight 9 for p=2, 6 for p=3, 5 for p=4, 4 for p=5, 6, and 2 for
# p=7..10 and 3 for p=11..18).
POSITIVE_PREFIX = {
    2: [1, 2, 4, 9, 20, 45, 101, 227, 510, 1146, 2575, 5786, 13001, 29213, 65641, 147494,
        331416, 744685, 1673292, 3759853, 8448313, 18983187, 42654834, 95844542, 215360731,
        483911170, 1087338529, 2443227497, 5489882353, 12335653674, 27717962204, 62281695729,
        139945699988, 314455133501, 706574271261, 1587657976035, 3567435089830, 8015953884434,
        18011684882663, 40471888559930, 90939508118089, 204339219913445, 459146059385049,
        1031691830565454],
    3: [1, 3, 9, 29, 94, 307, 1005, 3296, 10824, 35586, 117104, 385650, 1270830, 4189972,
        13820718, 45605649, 150540292, 497066248, 1641676488, 5423248298, 17919207568,
        59218296952, 195732323916, 647040615092, 2139225816973, 7073467214462, 23391273680041,
        77360088434164, 255869099616066, 846356183736341, 2799754572832458, 9262229574907625,
        30643439469497939, 101387335708997511],
    4: [1, 4, 16, 67, 283, 1204, 5143, 22031, 94572, 406643, 1750866, 7547105, 32562426,
        140604584, 607545153, 2626718232, 11362424993, 49172647419, 212886455620, 921986937848,
        3994267095931, 17308948864787, 75026235004748, 325277262938773, 1410532009966832,
        6117762451631746, 26538441306980892, 115139649152346393, 499614859347358369,
        2168211443318914048],
    5: [1, 5, 25, 129, 671, 3513, 18473, 97455, 515403, 2731137, 14495556, 77037581, 409878775,
        2182836392, 11634347430, 62054147323, 331183476269, 1768492287682, 9448156452780,
        50498355879093, 270006281977423, 1444175341639173, 7726817292505179, 41352631701579149,
        221368684374023418, 1185304170288833369, 6347975858984274966, 34003589076618148484],
    6: [1, 6, 36, 221, 1366, 8491, 53001, 331911, 2083906, 13111126, 82631866, 521529181,
        3295623716, 20847239182, 131992711698, 836356603555, 5303119985141, 33646114379243,
        213585799663789, 1356496552904546, 8618909276327332, 54784107549802594,
        348344816065765670, 2215656571148074092, 14096829497322903693, 89713002956354066415],
    7: [1, 7, 49, 349, 2500, 17995, 130021, 942342, 6846890, 49851726, 363598865],
    8: [1, 8, 64, 519, 4229, 34602, 284075, 2338771, 19300464, 159593211],
    9: [1, 9, 81, 737, 6733, 61729, 567633, 5233021, 48348677],
    10: [1, 10, 100, 1009, 10216, 103753, 1056493, 10782715],
    11: [1, 11, 121, 1341],
    12: [1, 12, 144, 1739],
    13: [1, 13, 169, 2209],
    14: [1, 14, 196, 2757],
    15: [1, 15, 225, 3389],
    16: [1, 16, 256, 4111],
    17: [1, 17, 289, 4929],
    18: [1, 18, 324, 5849],
}
# Normal-form words by length: the rational generating function
# numerator / denominator of each p (integer coefficients, lowest degree
# first), as the seed commit's closed form gives it.  Its expansion agrees
# with the transfer matrix to length 300 and with brute-force enumeration as
# far as that reaches.
LANGUAGE_GF = {
    2: ([1, 0, 0, 1], [1, -4, 4, -1]),
    3: ([1, 0, 1, 1, -1], [1, -6, 9, -5, 1]),
    4: ([1, 0, 2, 0, -2, 1], [1, -8, 16, -14, 6, -1]),
    5: ([1, 0, 3, -2, -2, 3, -1], [1, -10, 25, -30, 20, -7, 1]),
    6: ([1, 0, 4, -5, 0, 5, -4, 1], [1, -12, 36, -55, 50, -27, 8, -1]),
}


def language_counts(p: int, n: int) -> list[int]:
    """The first n coefficients of LANGUAGE_GF[p] (the denominator's
    constant term is 1)."""
    num, den = LANGUAGE_GF[p]
    out: list[int] = []
    for k in range(n):
        c = num[k] if k < len(num) else 0
        c -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        out.append(c)
    return out


class CheckFailed(Exception):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


def _letters(word) -> tuple:
    return tuple(Letter(i, s) for i, s in word)


def _parse_counts(stdout: str, fmt: str, key: str) -> list[int]:
    if fmt == "csv":
        lines = stdout.split()
        _require(lines[0] == "n,count", "csv header")
        rows = [line.split(",") for line in lines[1:]]
        _require(all(int(n) == k for k, (n, _) in enumerate(rows)), "csv row numbers")
        return [int(c) for _, c in rows]
    return json.loads(stdout)[key]


def _check_counts(counts: list[int], n: int, reference: list[int]) -> None:
    _require(len(reference) >= n, f"no reference for {n} terms")
    _require(counts == reference[:n], "terms differ from the reference")


def _check_enclosure(what: str, p: int, tol: Fraction, low: Fraction, high: Fraction) -> None:
    """The enclosure must be at most tol wide and meet the bracket that the
    alternate root equation gives at a finer tolerance; both contain the one
    root, so they can only miss each other if one of them is wrong."""
    alt = (rates.zeta_via_y if what == "zeta" else rates.xi_via_y)(p, tol / 1000)
    _require(low <= high and high - low <= tol, f"{what} enclosure wider than tol")
    _require(low <= alt.high and alt.low <= high,
             f"{what} enclosure misses the alternate bracket")


def _diagram(p: int, word) -> diagrams.TreePair:
    """The reduced diagram of a word, built without `diagrams.evaluate`,
    which the jobs use: the letters' generator diagrams are multiplied in
    pairs, as a balanced product tree, not one letter at a time."""
    gens = [diagrams.generator_pair(p, i) for i, _ in word]
    level = [g if s > 0 else diagrams.invert(g) for g, (_, s) in zip(gens, word)]
    level = level or [diagrams.identity(p)]
    while len(level) > 1:
        level = [diagrams.compose(*level[k:k + 2]) if k + 1 < len(level) else level[k]
                 for k in range(0, len(level), 2)]
    return diagrams.reduce(level[0])


def _parse_word(text: str) -> list[tuple[int, int]]:
    if text == "1":
        return []
    out = []
    for tok in text.split():
        neg = tok.endswith("^-1")
        out.append((int(tok[1:-3] if neg else tok[1:]), -1 if neg else 1))
    return out


def check_job(job: dict, rc: int, stdout: str) -> None:
    """Raise CheckFailed unless the job exited 0 with a correct output."""
    c = job["check"]
    kind = c["kind"]
    _require(rc == 0, f"exit code {rc}")
    if kind == "positive":
        # Past p = 18 the census runs at order 1 only, whose one term is 1.
        _check_counts(_parse_counts(stdout, c["format"], "coefficients"), c["n"],
                      POSITIVE_PREFIX.get(c["p"], [1]))
    elif kind == "language":
        _check_counts(_parse_counts(stdout, c["format"], "counts"), c["n"],
                      language_counts(c["p"], c["n"]))
    elif kind == "rate":
        out = json.loads(stdout)
        _check_enclosure("zeta" if c["what"] == "positive" else "xi", c["p"],
                         Fraction(c["tol"]), Fraction(str(out["value_low"])),
                         Fraction(str(out["value_high"])))
    elif kind == "report":
        if c["format"] == "csv":
            lines = stdout.split()
            cols = lines[0].split(",")
            rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
        else:
            rows = json.loads(stdout)["rows"]
        _require([int(r["p"]) for r in rows] == list(range(2, c["pmax"] + 1)), "report rows")
        tol = Fraction(c["tol"])
        for r in rows:
            _require(str(r["bounds_ok"]) == "True", "bounds_ok is false")
            for what in ("zeta", "xi"):
                _check_enclosure(what, int(r["p"]), tol, Fraction(str(r[f"{what}_low"])),
                                 Fraction(str(r[f"{what}_high"])))
    elif kind == "verify":
        out = json.loads(stdout)
        _require(out["ok"] is True and all(ch["status"] == "pass" for ch in out["checks"]),
                 "a verify check failed")
    elif kind == "normalize":
        out = json.loads(stdout)
        p, result = c["p"], _letters(_parse_word(out["result"]))
        if c["form"] == "fin":
            _require(normal_forms.is_in_Lp(p, result), "result is not in L_p")
            result = normal_forms.unbar(p, result)
        _require(normal_forms.is_infinite_nf(p, result), "result is not irreducible")
        _require(_diagram(p, [(a.index, a.sign) for a in result]) == _diagram(p, c["word"]),
                 "result names another element")
        _require(("trace" in out) == c["trace"], "trace presence")
        if c["trace"]:
            rules = {normal_forms.CANCEL, normal_forms.PUSH_POS, normal_forms.PUSH_NEG, "bar"}
            _require(all(s["rule"] in rules for s in out["trace"]), "unknown trace rule")
    elif kind == "eval":
        out = json.loads(stdout)
        p = c["p"]
        src_text, tgt_text = out["pair"].split("|")
        pair = diagrams.TreePair(p, diagrams.parse_tree(p, src_text),
                                 diagrams.parse_tree(p, tgt_text))
        _require(pair == _diagram(p, c["word"]), "not the word's reduced diagram")
        _require(out["carets"] == diagrams.num_carets(pair.source), "caret count")
        _require(out["positive"] == diagrams.is_right_spine(p, pair.target), "positive flag")
        if all(s > 0 for _, s in c["word"]):
            _require(out["positive"], "a positive word gave a non-positive element")
    elif kind == "length":
        out = json.loads(stdout)
        source = _diagram(c["p"], c["word"]).source
        classified = fordham.classify(c["p"], source) if source.children else None
        _require(out["length"] == (classified.total_weight if classified else 0),
                 "length differs from the caret classification")
        if c["classes"]:
            _require(out["classes"] == (classified.to_json() if classified else {}),
                     "classes differ")
    elif kind == "equal":
        _require(json.loads(stdout)["equal"] is c["expected"], "wrong answer")
    else:
        raise CheckFailed(f"unknown job kind {kind!r}")

