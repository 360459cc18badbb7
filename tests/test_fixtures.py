import pytest

from lubintate2d.fixtures import (
    FIXTURE_NAMES,
    dynamical_system,
    frobenius_profile,
    load_fixture,
    stored_mult45,
    worked_copolygon_series,
)
from lubintate2d.lubintate import congruence_report
from lubintate2d.series import Series, SeriesPair


def test_worked_copolygon_series():
    s = worked_copolygon_series()
    assert s.p == 2
    assert s.degree == 9
    assert s.support() == [(1, 1), (4, 0), (0, 5)]
    assert s.coefficient((1, 1)).to_fraction() == 2
    assert s.coefficient((4, 0)).to_fraction() == 1
    shallow = worked_copolygon_series(degree=4)
    assert shallow.support() == [(1, 1), (4, 0)]


def test_stored_sample_header_and_terms():
    header, pair = stored_mult45()
    assert header == {"D": 32, "N": 64, "h1": 4, "h2": 5, "p": 2}
    assert pair.first.support() == [(1, 0), (4, 0), (4, 2), (2, 16), (32, 0)]
    assert pair.second.support() == [(0, 1), (0, 4), (2, 4), (8, 2), (0, 16)]
    first = {e: pair.first.coefficient(e).to_fraction() for e in pair.first.support()}
    second = {e: pair.second.coefficient(e).to_fraction() for e in pair.second.support()}
    assert first == {(1, 0): 2, (4, 0): 4, (4, 2): 16, (2, 16): 2, (32, 0): 1}
    assert second == {(0, 1): 2, (0, 4): 8, (2, 4): 8, (8, 2): 2, (0, 16): 1}


def test_stored_sample_frobenius_profile():
    header, pair = stored_mult45()
    profile = frobenius_profile(pair)
    # the stored sample reduces to the diagonal pair (x1^32, x2^16) mod 2,
    # not the crossed orientation a height-(4, 5) multiplication needs
    assert profile == {
        "linear_ok": True,
        "first": (32, 0),
        "second": (0, 16),
        "cross": False,
        "exponents": [16, 32],
    }


def test_stored_sample_fails_cross_congruence():
    header, pair = stored_mult45()
    report = congruence_report(pair, (header["h1"], header["h2"]))
    assert not report.ok
    assert len(report.violations) == 4
    assert all(v.check == "frobenius" for v in report.violations)
    where = {(v.component, v.exponents) for v in report.violations}
    assert where == {(1, (0, 16)), (1, (32, 0)), (2, (0, 16)), (2, (32, 0))}


def test_cross_profile_on_real_multiplication():
    dyn = dynamical_system(2, (2, 3), 9)
    profile = frobenius_profile(dyn)
    assert profile["linear_ok"]
    assert profile["cross"]
    assert profile["first"] == (0, 4)
    assert profile["second"] == (8, 0)
    assert profile["exponents"] == [4, 8]


def test_a_component_with_two_monomials_mod_p_has_no_frobenius_monomial():
    # 2*x1 + x2^4 + x1^3 and 2*x2 + x1^4 + x2^3 each keep two monomials mod 2
    pair = SeriesPair(Series.from_coeffs(2, 2, 9, {(1, 0): 2, (0, 4): 1, (3, 0): 1}),
                      Series.from_coeffs(2, 2, 9, {(0, 1): 2, (4, 0): 1, (0, 3): 1}))
    assert frobenius_profile(pair) == {
        "linear_ok": True,
        "first": None,
        "second": None,
        "cross": False,
        "exponents": [],
    }


def test_load_fixture_registry():
    assert FIXTURE_NAMES == ("ex1", "dyn23", "dyn312", "mult45")
    ex1 = load_fixture("ex1")
    assert isinstance(ex1, Series)
    assert ex1.support() == [(1, 1), (4, 0), (0, 5)]
    dyn23 = load_fixture("dyn23")
    assert isinstance(dyn23, SeriesPair)
    assert dyn23.first.support() == [(1, 0), (0, 4)]
    assert dyn23.second.support() == [(0, 1), (8, 0)]
    dyn312 = load_fixture("dyn312")
    assert dyn312.first.support() == [(1, 0), (0, 3)]
    stored = load_fixture("mult45")
    assert stored.first.support() == stored_mult45()[1].first.support()
    assert [ex1.degree, dyn23.degree, dyn312.degree, stored.degree] == [9, 9, 9, 32]


def test_load_fixture_errors():
    with pytest.raises(ValueError, match="unknown fixture"):
        load_fixture("nope")
