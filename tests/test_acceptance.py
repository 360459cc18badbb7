"""Acceptance battery: one test per criterion, one printed line each.

Run with -s (or read the verbose test lines) to see the per-criterion
summary; every timed criterion asserts its own wall-clock bound.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from lubintate2d.copolygon import (
    Copolygon,
    emit_svg,
    intersect_tie_loci,
)
from lubintate2d.lubintate import (
    build_group,
    build_logarithm,
    gamma_endomorphism,
    group_axioms_report,
    multiplication,
    verify_p_congruences,
)
from lubintate2d.padics import Padic, cross_frobenius
from lubintate2d.series import Series, SeriesPair, compose, invert_pair
from lubintate2d.torsion import (
    gcd_lemma,
    ramification_report,
    torsion_valuations,
    torsion_valuations_via_minplus,
)
from paper_checks import (cauchy_gap, closed_form_logarithm, count_p_torsion, is_endomorphism,
                          lower_bound_check)

FIXTURES = ((2, (2, 3)), (3, (1, 2)))
GOLDEN = Path(__file__).parent / "data" / "ex1_golden.svg"


def criterion(num, label, bound, body):
    start = time.perf_counter()
    try:
        body()
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d} {label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if bound is not None:
        assert elapsed < bound, f"criterion {num} took {elapsed:.2f}s >= {bound}s"
        print(f"criterion {num:02d} {label}: PASS ({elapsed:.2f}s < {bound}s)")
    else:
        print(f"criterion {num:02d} {label}: PASS ({elapsed:.2f}s, exact)")


def test_criterion_01_logarithm_recursion():
    def body():
        for p, heights in FIXTURES:
            log, closed = build_logarithm(p, heights, 40), closed_form_logarithm(p, heights, 40)
            assert [s.terms for s in log] == [s.terms for s in closed], (p, heights)

    criterion(1, "logarithm recursion at D=40", 5.0, body)


def test_criterion_02_group_axioms():
    def body():
        for p, heights in FIXTURES:
            group = build_group(p, heights, 8)
            report = group_axioms_report(group)
            assert report.ok, [str(v) for v in report.violations]

    criterion(2, "group axioms with full associativity at D=8", 60.0, body)


def test_criterion_03_p_congruences():
    def body():
        for p, heights in FIXTURES:
            group = build_group(p, heights, 9)
            report = verify_p_congruences(group)
            assert report.ok, [str(v) for v in report.violations]

    criterion(3, "[p] congruences and logarithm linearity at D=9", 5.0, body)


def test_criterion_04_integrality():
    def body():
        for p, heights in FIXTURES:
            group = build_group(p, heights, 9)
            law_min = group.group_law.min_valuation()
            assert law_min is not None and law_min >= 0
            for a in sorted({2, 3, p, p * p}):
                m = multiplication(a, group)
                mv = m.min_valuation()
                assert mv is not None and mv >= 0, (p, heights, a)

    criterion(4, "integral group law and [a] for a in {2,3,p,p^2}", None, body)


def test_criterion_05_non_endomorphism_counterexample():
    def body():
        group = build_group(2, (2, 3), 9)
        f = SeriesPair(
            Series.from_coeffs(2, 2, 9, {(1, 0): 2, (4, 0): 1}),
            Series.from_coeffs(2, 2, 9, {(0, 1): 2, (0, 8): 1}),
        )
        report = is_endomorphism(f, group)
        assert report.ok is False
        violation = report.violations[0]
        assert violation.component in (1, 2)
        assert len(violation.exponents) == 4

    criterion(5, "uncrossed Frobenius pair is not an endomorphism", 10.0, body)


def test_criterion_06_copolygon_vertex_and_svg():
    def body():
        ex1 = Series.from_coeffs(2, 2, 9, {(1, 1): 2, (4, 0): 1, (0, 5): 1})
        poly = Copolygon.from_series(ex1)
        assert poly.vertices() == [(Fraction(5, 11), Fraction(4, 11),
                                    Fraction(20, 11))]
        assert emit_svg(poly).encode("utf-8") == GOLDEN.read_bytes()

    criterion(6, "worked copolygon vertex and golden SVG", None, body)


def test_criterion_07_level_one_intersection_and_count():
    def body():
        first, second = (Copolygon.from_series(Series.from_coeffs(2, 2, 9, c))
                         for c in cross_frobenius(2, (2, 3)))
        points = intersect_tie_loci(first, second)
        assert points == [(Fraction(5, 31), Fraction(9, 31))]
        assert count_p_torsion(2, (2, 3)) == 32

    criterion(7, "tie-locus intersection and p-torsion count", None, body)


def test_criterion_08_closed_form_vs_minplus():
    def body():
        for p, heights in ((3, (2, 3)), (5, (2, 3)), (7, (3, 4)), (2, (2, 3))):
            h = heights[0] + heights[1]
            profiles = {n: torsion_valuations(p, heights, n) for n in range(1, 7)}
            for n in range(1, 7):
                assert torsion_valuations_via_minplus(p, heights, n) == profiles[n]
            for n in range(1, 5):
                assert p**h * profiles[n + 2].v_xi == profiles[n].v_xi
                assert p**h * profiles[n + 2].v_eta == profiles[n].v_eta

    criterion(8, "closed form vs min-plus with scaling, n=1..6", 1.0, body)


def test_criterion_09_gcd_sweep():
    def body():
        checked = 0
        for p in (3, 5, 7):
            for s in range(3, 16, 2):
                for t in range(2, 16):
                    if math.gcd(s, t) != 1:
                        continue
                    assert gcd_lemma(p, s, t) == 1, (p, s, t)
                    checked += 1
        assert checked == 3 * 74

    criterion(9, "gcd lemma sweep over p in {3,5,7}", 1.0, body)


def test_criterion_10_ramification_degrees():
    def body():
        r1 = ramification_report(3, (2, 3))
        assert r1.degree == 121
        assert (r1.witness_h1, r1.witness_h2) == (1, 1)
        r2 = ramification_report(5, (2, 3))
        assert r2.degree == 1562
        assert (r2.witness_h1, r2.witness_h2) == (1, 1)

    criterion(10, "ramification degrees 121 and 1562", None, body)


def test_criterion_11_cauchy_gaps():
    def body():
        group = build_group(2, (2, 3), 9)
        for m, n in ((2, 1), (3, 1), (3, 2)):
            gap = cauchy_gap(group, m, n)
            assert gap is not None and gap >= n + 1, (m, n, gap)

    criterion(11, "renormalized iterate gaps >= n+1", 30.0, body)


def test_criterion_12_gamma_endomorphism():
    def body():
        # every T_gamma, gamma in mu_31, commutes with the logarithm: the
        # weights i + 8j are 1 modulo 31 on L1 and 8 on L2
        group = build_group(2, (2, 3), 9, prec=16)
        result = gamma_endomorphism(group.logarithm, group.heights)
        assert result.ok, [str(v) for v in result.violations]

    criterion(12, "mu_31 acts through the logarithm by T_gamma weights", 10.0, body)


def _random_copolygon(rng):
    count = rng.randint(2, 7)
    funcs = []
    for _ in range(count):
        funcs.append((rng.randint(0, 6), rng.randint(0, 6),
                      Fraction(rng.randint(0, 12))))
    return Copolygon(funcs)


def _random_point(rng):
    return (Fraction(rng.randint(0, 24), 8), Fraction(rng.randint(0, 24), 8))


def _sweep_concavity(rng):
    for _ in range(200):
        poly = _random_copolygon(rng)
        a, b = _random_point(rng), _random_point(rng)
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        assert 2 * poly.evaluate(mid) >= poly.evaluate(a) + poly.evaluate(b)
        step = (Fraction(rng.randint(0, 8), 8), Fraction(rng.randint(0, 8), 8))
        up = (a[0] + step[0], a[1] + step[1])
        assert poly.evaluate(up) >= poly.evaluate(a)


def _random_series(rng, p):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = (rng.randint(0, 5), rng.randint(0, 5))
        unit = rng.randint(1, 50)
        while unit % p == 0:
            unit += 1
        terms[e] = p ** rng.randint(0, 6) * unit * rng.choice((1, -1))
    return Series.from_coeffs(p, 2, 10, terms)


def _sweep_lower_bounds(rng):
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        s = _random_series(rng, p)
        point = []
        for _ in range(2):
            unit = rng.randint(1, 40)
            while unit % p == 0:
                unit += 1
            point.append(Padic(p, rng.randint(1, 5), unit))
        assert lower_bound_check(s, tuple(point)) is True


def _random_invertible_pair(rng, p):
    comps = []
    for var in ((1, 0), (0, 1)):
        terms = {var: 1}
        for _ in range(rng.randint(0, 5)):
            e = (rng.randint(0, 5), rng.randint(0, 5))
            if sum(e) < 2 or sum(e) > 5:
                continue
            terms[e] = rng.randint(-9, 9)
        comps.append(Series.from_coeffs(p, 2, 5, terms))
    return SeriesPair(comps[0], comps[1])


def _sweep_inversions(rng):
    ident = {2: SeriesPair.identity(2, 5), 3: SeriesPair.identity(3, 5),
             5: SeriesPair.identity(5, 5)}
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        f = _random_invertible_pair(rng, p)
        g = invert_pair(f)
        assert (compose(f, g) - ident[p]).is_zero
        assert (compose(g, f) - ident[p]).is_zero


def test_criterion_13_property_suites():
    def body():
        _sweep_concavity(random.Random(20260818))
        _sweep_lower_bounds(random.Random(4099))
        _sweep_inversions(random.Random(773))

    criterion(13, "random property suites 200/100/50", 60.0, body)
