import random
from fractions import Fraction

import pytest

from lubintate2d.lubintate import congruence_report
from lubintate2d.series import Series
from lubintate2d.torsion import (
    AmbiguousBranchError,
    ValuationProfile,
    count_p_torsion,
    dynamical_system,
    gcd_lemma,
    gcd_lemma_raw,
    hypothesis_status,
    p_torsion_report,
    profile_report,
    ramification_csv,
    ramification_report,
    torsion_valuations,
    torsion_valuations_via_minplus,
)

SWEEP_PARAMS = [(3, (2, 3)), (5, (2, 3)), (7, (3, 4)), (2, (2, 3))]


def test_dynamical_system_shape():
    d = dynamical_system(2, (2, 3), 9)
    assert d.first == Series.from_coeffs(2, 2, 9, {(1, 0): 2, (0, 4): 1})
    assert d.second == Series.from_coeffs(2, 2, 9, {(0, 1): 2, (8, 0): 1})
    with pytest.raises(ValueError):
        dynamical_system(2, (2, 3), 7)
    with pytest.raises(ValueError):
        dynamical_system(4, (2, 3), 16)


def test_dynamical_system_satisfies_p_congruences():
    for p, hs in ((2, (2, 3)), (3, (1, 2))):
        d = dynamical_system(p, hs, p**max(hs))
        report = congruence_report(d, p, hs)
        assert report.ok, [str(v) for v in report.violations]


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


def test_minplus_matches_closed_form():
    for p, hs in SWEEP_PARAMS:
        for n in range(1, 7):
            closed = torsion_valuations(p, hs, n)
            geometric = torsion_valuations_via_minplus(p, hs, n)
            assert closed == geometric, (p, hs, n)


def test_scaling_identity():
    for p, hs in SWEEP_PARAMS:
        h = sum(hs)
        for n in range(1, 5):
            deep = torsion_valuations(p, hs, n + 2)
            shallow = torsion_valuations(p, hs, n)
            assert deep.v_xi * p**h == shallow.v_xi
            assert deep.v_eta * p**h == shallow.v_eta


def test_minplus_start_passthrough():
    start = ValuationProfile(Fraction(5, 31), Fraction(9, 31))
    assert torsion_valuations_via_minplus(2, (2, 3), 1, start=start) == start
    two_step = torsion_valuations_via_minplus(2, (2, 3), 2, start=start)
    assert two_step == torsion_valuations(2, (2, 3), 2)


def test_minplus_ambiguous_branch():
    # from (2, 9) at (3, (1, 2)) the first inversion makes the linear and
    # Frobenius branches of the first component tie at value 2
    start = ValuationProfile(Fraction(2), Fraction(9))
    with pytest.raises(AmbiguousBranchError):
        torsion_valuations_via_minplus(3, (1, 2), 2, start=start)


def test_minplus_undercut_branch():
    # from (3, 9) the linear branch of the first component sits strictly
    # below the Frobenius target
    start = ValuationProfile(Fraction(3), Fraction(9))
    with pytest.raises(AmbiguousBranchError):
        torsion_valuations_via_minplus(3, (1, 2), 2, start=start)


def test_profile_report_rows():
    rows = profile_report(3, (2, 3), 4)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(r["agree"] for r in rows)
    assert all(r["hypothesis_status"] == "in" for r in rows)
    assert rows[0]["v_xi"] == Fraction(10, 242)


@pytest.mark.parametrize("n_max", [0, -3])
def test_profile_report_rejects_n_max_below_one(n_max):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        profile_report(2, (2, 3), n_max)


def test_count_p_torsion():
    assert count_p_torsion(2, (2, 3)) == 32
    assert count_p_torsion(3, (1, 2)) == 27


def test_p_torsion_report_frozen():
    r = p_torsion_report(2, (2, 3))
    assert r.v_xi == Fraction(5, 31) and r.v_eta == Fraction(9, 31)
    assert r.identity_first and r.identity_second
    assert r.family_size == 248
    assert r.torsion_count == 32
    assert r.hypothesis_status == "outside"
    assert "p^(5/31)" in r.sample.xi
    assert "zeta * p^(9/31)" == r.sample.eta


def test_p_torsion_identities_sweep():
    rng = random.Random(3491)
    pairs = [(1, 2), (2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (1, 4)]
    for _ in range(30):
        p = rng.choice([2, 3, 5, 7, 11])
        h1, h2 = rng.choice(pairs)
        r = p_torsion_report(p, (h1, h2))
        assert r.identity_first and r.identity_second, (p, h1, h2)
        assert r.family_size == (r.torsion_count - 1) * p**h2


def test_gcd_lemma_hypotheses():
    with pytest.raises(ValueError):
        gcd_lemma(2, 3, 2)
    with pytest.raises(ValueError):
        gcd_lemma(3, 4, 3)  # s even
    with pytest.raises(ValueError):
        gcd_lemma(3, 3, 6)  # not coprime
    with pytest.raises(ValueError):
        gcd_lemma(3, 1, 2)


def test_gcd_lemma_sweep():
    from math import gcd
    for p in (3, 5, 7):
        for s in range(3, 16, 2):
            for t in range(2, 16):
                if gcd(s, t) == 1:
                    assert gcd_lemma(p, s, t) == 1, (p, s, t)


def test_gcd_lemma_raw_counterexample():
    # dropping the coprimality hypothesis breaks the lemma
    assert gcd_lemma_raw(3, 6, 3) == 14
    assert gcd_lemma_raw(3, 5, 2) == 1


def test_ramification_frozen_degrees():
    r = ramification_report(3, (2, 3))
    assert r.degree == 121
    assert (r.witness_h1, r.witness_h2) == (1, 1)
    assert r.v_xi == Fraction(5, 121) and r.v_eta == Fraction(14, 121)
    assert ramification_report(5, (2, 3)).degree == 1562
    assert ramification_report(3, (2, 5)).degree == 1093
    assert ramification_report(3, (3, 4)).degree == 1093


def test_ramification_witness_values():
    # at (5, (2, 3)) the witnesses certify coprimality against 13 and 63
    assert gcd_lemma_raw(5, 5, 2) == 1
    assert (5**2 + 1) // 2 == 13 and (5**3 + 1) // 2 == 63
    assert gcd_lemma_raw(5, 5, 3) == 1


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
    text = ramification_csv([(3, (2, 3)), (5, (2, 3))])
    assert text == (
        "p,h1,h2,degree,v_xi,v_eta,witness_h1,witness_h2\n"
        "3,2,3,121,5/121,14/121,1,1\n"
        "5,2,3,1562,13/1562,63/1562,1,1\n"
    )


def test_torsion_does_not_import_lubintate():
    import ast
    from pathlib import Path

    from lubintate2d import torsion

    tree = ast.parse(Path(torsion.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert "lubintate" not in names
