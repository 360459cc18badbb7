import pytest

from lubintate2d.copolygon import Copolygon
from lubintate2d.fixtures import FIXTURE_NAMES, frobenius_profile, load_fixture, stored_mult45
from lubintate2d.lubintate import congruence_report
from lubintate2d.padics import _check_reach
from lubintate2d.series import Series, SeriesPair
from paper_checks import system_pair, to_fraction


def test_stored_sample_header_and_terms():
    header, pair = stored_mult45()
    assert header == {"D": 32, "N": 64, "h1": 4, "h2": 5, "p": 2}
    assert pair.first.support() == [(1, 0), (4, 0), (4, 2), (2, 16), (32, 0)]
    assert pair.second.support() == [(0, 1), (0, 4), (2, 4), (8, 2), (0, 16)]
    first = {e: to_fraction(pair.first.coefficient(e)) for e in pair.first.support()}
    second = {e: to_fraction(pair.second.coefficient(e)) for e in pair.second.support()}
    assert first == {(1, 0): 2, (4, 0): 4, (4, 2): 16, (2, 16): 2, (32, 0): 1}
    assert second == {(0, 1): 2, (0, 4): 8, (2, 4): 8, (8, 2): 2, (0, 16): 1}


def test_the_stored_sample_is_read_from_no_file(monkeypatch):
    """The package ships no data file: with `open` refused, the stored
    sample is still the pinned one."""
    def refuse(*args, **kwargs):
        raise OSError("the stored sample opened a file")

    monkeypatch.setattr("builtins.open", refuse)
    test_stored_sample_header_and_terms()


def test_stored_sample_frobenius_profile():
    header, pair = stored_mult45()
    profile = frobenius_profile(pair, (header["h1"], header["h2"]))
    # the stored sample reduces to the diagonal pair (x1^32, x2^16) mod 2,
    # not the crossed orientation a height-(4, 5) multiplication needs
    assert profile == {"cross": False, "exponents": [16, 32]}


def test_stored_sample_fails_cross_congruence():
    header, pair = stored_mult45()
    report = congruence_report(pair, (header["h1"], header["h2"]))
    assert not report.ok
    assert len(report.violations) == 4
    assert all(v.check == "frobenius" for v in report.violations)
    where = {(v.component, v.exponents) for v in report.violations}
    assert where == {(1, (0, 16)), (1, (32, 0)), (2, (0, 16)), (2, (32, 0))}


def test_cross_profile_on_real_multiplication():
    profile = frobenius_profile(system_pair(2, (2, 3)), (2, 3))
    assert profile == {"cross": True, "exponents": [4, 8]}


def test_a_component_with_two_monomials_mod_p_has_no_frobenius_monomial():
    # 2*x1 + x2^4 + x1^3 and 2*x2 + x1^4 + x2^3 each keep two monomials mod 2
    pair = SeriesPair(Series.from_coeffs(2, 2, 9, {(1, 0): 2, (0, 4): 1, (3, 0): 1}),
                      Series.from_coeffs(2, 2, 9, {(0, 1): 2, (4, 0): 1, (0, 3): 1}))
    assert frobenius_profile(pair, (2, 3)) == {"cross": False, "exponents": []}


def test_load_fixture_registry():
    assert FIXTURE_NAMES == ("ex1", "dyn23", "dyn312", "mult45")
    ex1, dyn23, dyn312, stored = map(load_fixture, FIXTURE_NAMES)
    assert ex1 == (2, 9, (Copolygon([(1, 1, 1), (4, 0, 0), (0, 5, 0)]),))
    assert dyn23 == (2, 9, (Copolygon([(1, 0, 1), (0, 4, 0)]),
                            Copolygon([(0, 1, 1), (8, 0, 0)])))
    assert dyn312 == (3, 9, (Copolygon([(1, 0, 1), (0, 3, 0)]),
                             Copolygon([(0, 1, 1), (9, 0, 0)])))
    assert stored == (2, 32, tuple(map(Copolygon.from_series, stored_mult45()[1])))


def test_fixtures_are_the_copolygons_of_their_series():
    """Each fixture read without series is the copolygon of its series
    form at degree 9: 2*x1*x2 + x1^4 + x2^5 over Z_2, and the
    cross-Frobenius systems, whose Frobenius monomials degree 9 keeps."""
    ex1 = Series.from_coeffs(2, 2, 9, {(1, 1): 2, (4, 0): 1, (0, 5): 1})
    assert load_fixture("ex1")[2] == (Copolygon.from_series(ex1),)
    for name, p, hs in (("dyn23", 2, (2, 3)), ("dyn312", 3, (1, 2))):
        _check_reach(p, hs, 9)
        assert load_fixture(name)[2] == tuple(map(Copolygon.from_series, system_pair(p, hs)))


def test_load_fixture_errors():
    with pytest.raises(ValueError, match="unknown fixture"):
        load_fixture("nope")
