import random
import re
from fractions import Fraction
from math import gcd

import pytest

from lubintate2d import torsion
from lubintate2d.copolygon import Copolygon
from lubintate2d.lubintate import congruence_report
from lubintate2d.padics import Padic, _check_reach, cross_frobenius
from lubintate2d.series import Series, SeriesPair, compose, invert_pair
from lubintate2d.torsion import (
    AmbiguousBranchError,
    ValuationProfile,
    component_copolygons,
    gcd_lemma,
    hypothesis_status,
    profile_report,
    ramification_csv,
    ramification_report,
    torsion_valuations,
    torsion_valuations_via_minplus,
)
from paper_checks import colength_mod_p, count_p_torsion, forbidden_imports, system_pair

def test_dynamical_system_shape():
    assert cross_frobenius(2, (2, 3)) == ({(1, 0): 2, (0, 4): 1}, {(0, 1): 2, (8, 0): 1})
    with pytest.raises(ValueError, match="7 drops a Frobenius monomial: need at least 8"):
        _check_reach(2, (2, 3), 7)
    with pytest.raises(ValueError):
        _check_reach(4, (2, 3), 16)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_component_copolygons_are_those_of_the_system(p):
    """The min-plus walk reads its copolygons off `padics.cross_frobenius`
    with no series; they are the copolygons of the system as series, over
    every coprime pair of heights at most 6."""
    for h1 in range(1, 7):
        for h2 in range(1, 7):
            if gcd(h1, h2) != 1:
                continue
            system = system_pair(p, (h1, h2), p**max(h1, h2))
            assert component_copolygons(p, (h1, h2)) == tuple(map(Copolygon.from_series, system))


def test_dynamical_system_satisfies_p_congruences():
    """Over the benchmark's `small` grid, p in {2, 3, 5, 7} and coprime
    heights at most 6, the system passes `congruence_report` at
    D = max(p^h1, p^h2); one degree less, `_check_reach` refuses it."""
    for p in (2, 3, 5, 7):
        for hs in ((h1, h2) for h1 in range(1, 7) for h2 in range(1, 7) if gcd(h1, h2) == 1):
            degree = p**max(hs)
            report = congruence_report(system_pair(p, hs, degree), hs)
            assert report.ok, (p, hs, [str(v) for v in report.violations])
            with pytest.raises(ValueError, match=f"monomial: need at least {degree}$"):
                _check_reach(p, hs, degree - 1)


def test_hypothesis_status():
    assert hypothesis_status(3, (2, 3)) == "in"
    assert hypothesis_status(7, (3, 4)) == "in"
    assert hypothesis_status(2, (2, 3)) == "outside"
    assert hypothesis_status(3, (1, 2)) == "outside"


def test_closed_form_frozen_values():
    assert torsion_valuations(2, (2, 3), 1) == ValuationProfile(
        Fraction(5, 31), Fraction(9, 31))
    assert torsion_valuations(2, (2, 3), 2) == ValuationProfile(
        Fraction(9, 248), Fraction(5, 124))
    assert torsion_valuations(2, (2, 3), 3) == ValuationProfile(
        Fraction(5, 992), Fraction(9, 992))
    assert torsion_valuations(3, (1, 2), 1) == ValuationProfile(
        Fraction(2, 13), Fraction(5, 13))


def test_torsion_valuations_validation():
    with pytest.raises(ValueError):
        torsion_valuations(2, (2, 3), 0)
    with pytest.raises(ValueError):
        torsion_valuations(6, (2, 3), 1)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: torsion_valuations_via_minplus(2, (2, 3), 0),
                 "torsion level n must be at least 1", id="minplus-level-0"),
])
def test_input_guards(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is ValueError and str(caught.value) == message


def test_minplus_step_from_level_one():
    start = ValuationProfile(Fraction(5, 31), Fraction(9, 31))
    step = torsion._minplus_step(*component_copolygons(2, (2, 3)), start)
    assert step == torsion_valuations(2, (2, 3), 2)


def test_minplus_ambiguous_branch():
    # from (2, 9) at (3, (1, 2)) the first inversion makes the linear and
    # Frobenius branches of the first component tie at value 2
    start = ValuationProfile(Fraction(2), Fraction(9))
    with pytest.raises(AmbiguousBranchError, match=re.escape(
            "linear and Frobenius branches tie at (Fraction(1, 1), Fraction(2, 3))")):
        torsion._minplus_step(*component_copolygons(3, (1, 2)), start)


def test_minplus_undercut_branch():
    # from (3, 9) the linear branch of the first component sits strictly
    # below the Frobenius target
    start = ValuationProfile(Fraction(3), Fraction(9))
    with pytest.raises(AmbiguousBranchError, match=re.escape(
            "linear branch undercuts the Frobenius branch at (Fraction(1, 1), Fraction(1, 1))")):
        torsion._minplus_step(*component_copolygons(3, (1, 2)), start)


def test_profile_report_rows():
    rows = profile_report(3, (2, 3), 4)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(r["agree"] for r in rows)
    assert all(r["hypothesis_status"] == "in" for r in rows)
    assert rows[0]["v_xi"] == Fraction(10, 242)


@pytest.mark.parametrize("p,heights", [(2, (1, 2)), (2, (2, 3)), (3, (1, 2)), (3, (2, 3)),
                                       (5, (3, 4)), (7, (1, 1))])
def test_profile_report_rows_equal_the_per_level_calls(p, heights):
    status = hypothesis_status(p, heights)
    want = []
    for n in range(1, 7):
        closed = torsion_valuations(p, heights, n)
        want.append({"n": n, "v_xi": closed.v_xi, "v_eta": closed.v_eta,
                     "agree": closed == torsion_valuations_via_minplus(p, heights, n),
                     "hypothesis_status": status})
    assert profile_report(p, heights, 6) == want


def test_profile_report_crosses_the_tie_loci_once(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return intersect(*args)

    intersect = torsion.intersect_tie_loci
    monkeypatch.setattr(torsion, "intersect_tie_loci", spy)
    for p, heights in ((2, (2, 3)), (3, (1, 2))):
        calls.clear()
        assert len(profile_report(p, heights, 6)) == 6
        assert len(calls) == 1


@pytest.mark.parametrize("n_max", [0, -3])
def test_profile_report_rejects_n_max_below_one(n_max):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        profile_report(2, (2, 3), n_max)


def test_count_p_torsion():
    assert count_p_torsion(3, (1, 2)) == 27


def test_the_count_is_the_colength_of_the_reduced_pair():
    """(2 x1 + x2^2, 2 x2 + x1^8) reduces to (x2^2, x1^8), colength 16; a
    first component without its Frobenius monomial reduces to 0, and two
    powers of x2 cut out no finite scheme."""
    pair = system_pair(2, (1, 3), 8)
    assert colength_mod_p(pair) == 16
    with pytest.raises(ValueError, match="not one monomial"):
        colength_mod_p(SeriesPair(Series.from_coeffs(2, 2, 8, {(1, 0): 2}), pair.second))
    with pytest.raises(ValueError, match="same variable"):
        colength_mod_p(SeriesPair(pair.first, pair.first))


def test_p_torsion_identities_sweep():
    """At a nontrivial p-torsion point the two branches of each component
    of the leading system meet: 1 + v_xi = p^h1 * v_eta and
    p^h2 * v_xi = 1 + v_eta."""
    rng = random.Random(3491)
    pairs = [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (1, 4)]
    for _ in range(30):
        p = rng.choice([2, 3, 5, 7, 11])
        h1, h2 = rng.choice(pairs)
        level1 = torsion_valuations(p, (h1, h2), 1)
        assert 1 + level1.v_xi == p**h1 * level1.v_eta, (p, h1, h2)
        assert p**h2 * level1.v_xi == 1 + level1.v_eta, (p, h1, h2)


def test_the_cross_frobenius_limit_law_is_not_integral():
    """The renormalised iterates L_n = p^{-n} D^{n} of the system converge,
    but the law L^{-1}(L(X) + L(Y)) of their limit has a coefficient of
    valuation -1: D is not [p] of an integral group (p = 2, heights (1, 2))."""
    p, degree = 2, 12
    system = system_pair(p, (1, 2), degree)
    iterate, previous = system, None
    for n in range(2, 40):
        previous, iterate = iterate, compose(system, iterate)
    log = iterate.scale(Padic(p, -39, 1))
    step = log - previous.scale(Padic(p, -38, 1))
    assert step.min_valuation() >= 35
    law = compose(invert_pair(log), log.embed(4, (0, 1)) + log.embed(4, (2, 3)))
    c = law.first.coefficient((0, 8, 4, 0))
    assert (c.valuation, c.prec) == (-1, 57)


def test_gcd_lemma_hypotheses():
    with pytest.raises(ValueError):
        gcd_lemma(2, 3, 2)
    with pytest.raises(ValueError):
        gcd_lemma(3, 4, 3)  # s even
    with pytest.raises(ValueError):
        gcd_lemma(3, 3, 6)  # not coprime
    with pytest.raises(ValueError):
        gcd_lemma(3, 1, 2)


def test_gcd_lemma_raw_counterexample():
    # dropping the coprimality hypothesis breaks the lemma
    assert gcd((3**6 - 1) // 2, (3**3 + 1) // 2) == 14
    assert gcd_lemma(3, 5, 2) == 1


def test_ramification_frozen_degrees():
    r = ramification_report(3, (2, 3))
    assert r.v_xi == Fraction(5, 121) and r.v_eta == Fraction(14, 121)
    assert ramification_report(3, (2, 5)).degree == 1093
    assert ramification_report(3, (3, 4)).degree == 1093


def test_ramification_witness_values():
    # at (5, (2, 3)) the witnesses certify coprimality against 13 and 63
    assert gcd_lemma(5, 5, 2) == 1
    assert (5**2 + 1) // 2 == 13 and (5**3 + 1) // 2 == 63
    assert gcd_lemma(5, 5, 3) == 1


def test_ramification_hypothesis_errors():
    with pytest.raises(ValueError):
        ramification_report(2, (2, 3))
    with pytest.raises(ValueError):
        ramification_report(3, (1, 2))
    with pytest.raises(ValueError):
        ramification_report(3, (3, 5))  # h even
    with pytest.raises(ValueError):
        ramification_report(3, (2, 4))  # heights not coprime


def test_ramification_csv():
    assert ramification_csv(ramification_report(5, (2, 3))) == (
        "p,h1,h2,degree,v_xi,v_eta,witness_h1,witness_h2\n"
        "5,2,3,1562,13/1562,63/1562,1,1\n"
    )


def test_torsion_does_not_import_lubintate():
    """`torsion` reads its copolygons off `padics.cross_frobenius` and
    needs no group."""
    assert forbidden_imports({"lubintate"}, {"torsion"}) == []
