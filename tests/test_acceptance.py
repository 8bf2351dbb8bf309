"""End-to-end acceptance checks.

Each test prints exactly one [PASS]/[FAIL] line (run with -s to see them all
together) and enforces a wall-clock budget.  These are the checks we consider
release-gating: exact agreement between independent computations of the same
quantity, certified enclosures landing where theory says they must, and
normal forms behaving as bijections.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import isqrt

from thompson_fp import automaton, diagrams, fordham, normal_forms, oracle, rates, series
from thompson_fp.words import x

F = Fraction


def _criterion(number: int, name: str, budget_s: float, body):
    t0 = time.perf_counter()
    err: BaseException | None = None
    detail = ""
    try:
        detail = body()
    except BaseException as exc:  # the line must appear even when the body dies
        err = exc
        detail = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    ok = err is None and elapsed < budget_s
    print(
        f"[{'PASS' if ok else 'FAIL'}] {number}. {name} "
        f"({elapsed:.1f}s / budget {budget_s:.0f}s): {detail}",
        flush=True,
    )
    if err is not None:
        raise err
    assert elapsed < budget_s, f"runtime budget exceeded: {elapsed:.1f}s >= {budget_s}s"


def test_criterion_1_p2_series_closed_form():
    def body():
        order = 30
        s = series.positive_growth_series(2, order).s
        closed = series.expand_rational([1, 0, -1], [1, -2, -1, 1], order)
        assert (s - closed).is_zero, "solver disagrees with rational expansion"
        counts = series.series_to_ints(s)
        assert counts[:6] == [1, 2, 4, 9, 20, 45], counts[:6]
        return f"30 terms equal; head {counts[:6]}"

    _criterion(1, "p=2 positive series equals its rational closed form", 1.0, body)


def test_criterion_2_census_vs_series():
    def body():
        parts = []
        for p, w in ((2, 12), (3, 6), (4, 6)):
            census = oracle.enumerate_positive_by_weight(p, w)
            expected = series.positive_growth_series(p, w + 1).counts()
            assert list(census.counts) == expected, (p, census.counts, expected)
            parts.append(f"p={p} w<={w} ok ({census.trees_scanned} trees)")
        return "; ".join(parts)

    _criterion(2, "tree census equals series coefficients", 300.0, body)


def test_criterion_3_fordham_length_equals_bfs_distance():
    def body():
        parts = []
        for p in (2, 3):
            ball = oracle.bfs_group_ball(p, 5)
            positives = 0
            mismatches = 0
            for el, w in ball.elements.items():
                if diagrams.is_positive(el):
                    positives += 1
                    if fordham.positive_length(p, el) != len(w):
                        mismatches += 1
            assert mismatches == 0, f"p={p}: {mismatches} mismatches"
            parts.append(f"p={p} ball {len(ball.elements)}, positives {positives}")
        return "; ".join(parts)

    _criterion(3, "caret-weight length equals BFS distance to radius 5", 300.0, body)


def test_criterion_4_positive_rate_enclosures():
    def body():
        tol = F(1, 10**9)
        for p in range(2, 11):
            r = rates.zeta(p, tol)
            assert p < r.low and r.high < F(2 * p + 1, 2), p
            y = rates.zeta_via_y(p, tol)
            assert abs(y.midpoint - r.midpoint) <= 2 * tol, p
        r2 = rates.zeta(2, tol)
        assert F("2.24") < r2.low and r2.high < F("2.25"), float(r2.midpoint)
        return f"p<rate<p+1/2 for p=2..10; rate(2)={float(r2.midpoint):.9f}"

    _criterion(4, "positive growth rate enclosures and cross-form agreement", 1.0, body)


def test_criterion_5_language_rate_reference_values():
    def body():
        refs = {2: "2.618033989", 3: "4.079595623", 4: "5.530132718", 5: "6.977144180"}
        for p, txt in refs.items():
            r = rates.xi(p, F(1, 10**9))
            assert abs(r.midpoint - F(txt)) < F(1, 10**6), (p, float(r.midpoint))
        # p=2 value is (3+sqrt(5))/2; bracket sqrt(5) by exact integer sqrt
        r2 = rates.xi(2, F(1, 10**12))
        root = isqrt(5 * 10**28)
        lo = (3 + F(root, 10**14)) / 2
        hi = (3 + F(root + 1, 10**14)) / 2
        eps = F(1, 10**9)
        assert lo - eps <= r2.midpoint <= hi + eps, float(r2.midpoint)
        return "four reference values within 1e-6; golden-ratio form within 1e-9"

    _criterion(5, "language growth rate reference values", 1.0, body)


def test_criterion_6_automaton_triple_agreement():
    def body():
        parts = []
        for p in range(2, 7):
            matrix_counts = [automaton.count_paths(p, n) for n in range(41)]
            closed = series.series_to_ints(automaton.phi_series(p, 41))
            assert matrix_counts == closed, f"p={p} closed form"
            # brute force sized for runtime; stays far below the hard guard
            nb = 0
            while (2 * p) ** (nb + 1) <= 250_000:
                nb += 1
            for n in range(nb + 1):
                assert automaton.count_language_bruteforce(p, n) == matrix_counts[n], (p, n)
            parts.append(f"p={p} brute n<={nb}")
        return "matrix==closed form to n=40 for p=2..6; " + ", ".join(parts)

    _criterion(6, "automaton, closed form, and brute force count alike", 30.0, body)


def test_criterion_7_normal_form_soundness_uniqueness():
    def body():
        rng = random.Random(20260814)
        # two rewriting strategies agree on 10^4 random words for each p
        for p in (2, 3, 5):
            for _ in range(10_000):
                n = rng.randrange(1, 10)
                w = tuple(
                    x(rng.randrange(6), 1 if rng.random() < 0.5 else -1) for _ in range(n)
                )
                det = normal_forms.to_infinite_nf(p, w)
                assert det == normal_forms.rewrite_random(p, w, rng), (p, w)
                assert normal_forms.is_infinite_nf(p, det), (p, w)

        # bar/unbar is a bijection on exhaustive small corpora
        for p, max_len, bound in ((2, 4, 4), (3, 4, 4)):
            n_checked = 0
            for w in oracle.enumerate_infinite_nf(p, max_len, bound):
                image = normal_forms.bar(p, w)
                assert normal_forms.is_in_Lp(p, image), (p, w)
                assert normal_forms.unbar(p, image) == w, (p, w)
                n_checked += 1
            assert n_checked > 1000
        for p, max_len in ((2, 6), (3, 4)):
            letters = [x(i, s) for i in range(p) for s in (1, -1)]
            for n in range(max_len + 1):
                for w in itertools.product(letters, repeat=n):
                    if normal_forms.is_in_Lp(p, w):
                        back = normal_forms.unbar(p, w)
                        assert normal_forms.is_infinite_nf(p, back), (p, w)
                        assert normal_forms.bar(p, back) == w, (p, w)

        # canonical finite forms separate the elements of B(4)
        parts = []
        for p in (2, 3):
            ball = oracle.bfs_group_ball(p, 4)
            seen: dict = {}
            for key, w in ball.elements.items():
                nf = normal_forms.finite_nf(p, w)
                assert normal_forms.is_in_Lp(p, nf), (p, key)
                assert seen.setdefault(nf, key) == key, f"collision at {key}"
                assert diagrams.equal(
                    diagrams.evaluate(p, nf), key
                ), (p, key)
            parts.append(f"p={p} injective on {len(ball.elements)} elements")
        return "3x10^4 confluence samples; bijection exhaustive; " + "; ".join(parts)

    _criterion(7, "normal forms are sound, confluent, and injective", 120.0, body)


def test_criterion_8_series_identity_residuals():
    def body():
        order = 30
        for p in range(2, 7):
            b = series.positive_growth_series(p, order)
            one = series.PowerSeries.one(order)
            xs = series.PowerSeries.x(order)
            x2, x3 = xs.int_power(2), xs.int_power(3)
            n_series = (one - x3 * b.m).int_power(-1).truncate(order)

            def zero(s, tag):
                assert s.is_zero, f"p={p}: residual {tag}"

            zero(n_series.int_power(p - 1).truncate(order) - (one - x2 + x2 * b.m), "M")
            zero(b.l * (one - xs * b.m) - one, "L")
            zero(b.r * (one - x2 * b.m) - (one - x2) * b.mi[-1], "R")
            zero(b.s * (one - xs * b.m) * (one - x2 * b.m) - (one - x2) * b.m, "S")
            prod = one
            for i, mi in enumerate(b.mi, start=1):
                prod = prod * mi
                zero(x2 * (prod - one) - (n_series.int_power(i).truncate(order) - one),
                     f"partial product {i}")
            zero(prod - b.m, "full product")
            middle = one
            for mi in b.mi[:-1]:
                middle = middle * mi
            zero(b.l * middle * b.r - b.s, "S factorization")
            zero(xs * n_series.int_power(p) + (x3 - xs - one) * n_series + one,
                 "master equation")
        return "all residuals vanish to order 30 for p=2..6"

    _criterion(8, "series identities hold to order 30", 30.0, body)


def test_criterion_9_rate_asymptotics():
    def body():
        tol = F(1, 10**7)
        gaps = []
        for p in range(4, 65):
            gap = abs(rates.xi(p, tol).midpoint - rates.xi_asymptotic(p, F(1, 10**9)))
            gaps.append((p, gap))
        at_50 = dict(gaps)[50]
        assert at_50 < F(5, 100), float(at_50)
        inversions = [
            (gaps[i][0], gaps[i + 1][0])
            for i in range(len(gaps) - 1)
            if gaps[i + 1][1] > gaps[i][1]
        ]
        # the guarantee is only that the gap tends to 0, so allow one wobble
        assert len(inversions) <= 1, f"gap rises at {inversions[:4]}"
        warn = f"; WARN single inversion at {inversions}" if inversions else ""
        return f"|gap| at p=50 is {float(at_50):.5f}; nonincreasing on 4..64{warn}"

    _criterion(9, "language rate approaches its asymptotic form", 5.0, body)
