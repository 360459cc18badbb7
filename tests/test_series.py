import json
import random
from fractions import Fraction
from itertools import product

import pytest

from lubintate2d.padics import Padic, PrecisionError, _powers, _raw_add
from lubintate2d.series import (
    Series,
    SeriesPair,
    compose,
    dump_sections,
    grlex,
    invert_pair,
    parse_sections,
)
from lubintate2d.series_ops import (_ONE, _accumulate, _mul_triples, _pack, _settle,
                                     _triple_power, _unpack)
from paper_checks import (assert_canonical, evaluate_series, from_fraction, min_val_plus_degree,
                          run_lt2d)


def test_constructor_drops_zeros_and_validates():
    z = Padic(2, 0, 0)
    s = Series.from_coeffs(2, 2, 5, {(1, 0): Padic(2, 0, 1), (0, 1): z})
    assert s.support() == [(1, 0)]
    assert Series(2, 2, 5, {(1, 0): (0, 1, 64), (0, 1): (0, 0, 64)}).support() == [(1, 0)]
    with pytest.raises(ValueError):
        Series(2, 2, 3, {(2, 2): (0, 1, 64)})
    with pytest.raises(ValueError):
        Series(2, 2, 3, {(1,): (0, 1, 64)})
    with pytest.raises(ValueError):
        Series.from_coeffs(2, 2, 3, {(1, 0): Padic(3, 0, 1)})
    with pytest.raises(TypeError):
        Series(2, 2, 3, {(1, 0): Padic(2, 0, 1)})


def test_an_int_is_known_modulo_p_prec_and_a_fraction_to_relative_prec():
    """An int n enters known modulo p^prec, so v_p(n) digits come off its
    relative precision; a rational (`paper_checks.from_fraction`) keeps
    relative precision prec.  The int rule sets the caps of [p] and [p^2]."""
    n = Padic(2, 0, 4, 10)
    q = from_fraction(2, 4, 10)
    assert (n.val, n.unit, n.prec) == (2, 1, 8)
    assert (q.val, q.unit, q.prec) == (2, 1, 10)
    assert Padic(2, 0, 4, 10).prec == 8  # the constructor keeps val + prec
    assert Series.from_coeffs(2, 1, 3, {(1,): 4}, prec=10).terms == {(1,): (2, 1, 10)}
    assert Series.from_coeffs(2, 1, 3, {(1,): q}, prec=10).terms == {(1,): (2, 1, 12)}


def test_add_mul_truncates():
    x1 = Series.variable(2, 2, 2, 0)
    x2 = Series.variable(2, 2, 2, 1)
    s = x1 + x2
    sq = s * s
    assert sq.coefficient((2, 0)) == Padic(2, 0, 1)
    assert sq.coefficient((1, 1)) == Padic(2, 0, 2)
    assert (sq * x1).is_zero  # degree 3 terms all dropped at D=2


def test_scale_and_neg():
    x1 = Series.variable(3, 2, 4, 0)
    s = x1.scale(Padic(3, -1, 1))
    assert s.coefficient((1, 0)).valuation == -1
    assert (-s + s).is_zero


def test_support_is_graded_lex():
    s = Series.from_coeffs(2, 2, 6, {(0, 3): 1, (2, 0): 1, (1, 1): 1, (0, 1): 1, (5, 0): 1})
    assert s.support() == [(0, 1), (1, 1), (2, 0), (0, 3), (5, 0)]
    assert sorted([(1, 2), (3, 0), (0, 3)], key=grlex) == [(0, 3), (1, 2), (3, 0)]


def test_reshaping_helpers():
    s = Series.from_coeffs(2, 2, 8, {(1, 0): 1, (0, 4): 3})
    r = s.raise_vars(2)
    assert r.support() == [(2, 0), (0, 8)]
    assert r.coefficient((2, 0)) == Padic(2, 0, 1)
    assert r.coefficient((0, 8)) == Padic(2, 0, 3)
    assert s.raise_vars(1) == s

    e = s.embed(4, (2, 3))
    assert e.support() == [(0, 0, 1, 0), (0, 0, 0, 4)] or set(e.support()) == {(0, 0, 1, 0), (0, 0, 0, 4)}

    p = Series.from_coeffs(2, 4, 8, {(1, 2, 0, 3): 1}).embed(4, (2, 3, 0, 1))
    assert p.support() == [(0, 3, 1, 2)]

    el = Series.from_coeffs(2, 4, 8, {(1, 0, 0, 0): 5, (1, 0, 2, 0): 7}).eliminate_zeros((2, 3))
    assert el.nvars == 2
    assert el.support() == [(1, 0)]
    assert el.coefficient((1, 0)) == Padic(2, 0, 5)


def test_raise_vars_drops_overflow():
    s = Series.from_coeffs(2, 2, 8, {(0, 4): 1, (1, 0): 1})
    r = s.raise_vars(4)
    assert r.support() == [(4, 0)]


def hand_logarithm_pair(degree=9):
    """The two-variable pair (x1 + x2^4/2, x2 + x1^8/2) over Z_2."""
    f1 = Series.from_coeffs(2, 2, degree, {(1, 0): 1, (0, 4): Padic(2, -1, 1)})
    f2 = Series.from_coeffs(2, 2, degree, {(0, 1): 1, (8, 0): Padic(2, -1, 1)})
    return SeriesPair(f1, f2)


def test_compose_with_scaled_identity():
    f = hand_logarithm_pair()
    two = Padic(2, 0, 2)
    inner = SeriesPair.identity(2, 9).scale(two)
    out = compose(f, inner)
    # 2^4 / 2 = 2^3 on the x2^4 monomial
    assert out.first.coefficient((0, 4)) == Padic(2, 3, 1)
    assert out.first.coefficient((1, 0)) == two
    assert out.second.coefficient((8, 0)) == Padic(2, 7, 1)


def test_compose_identity_is_neutral():
    f = hand_logarithm_pair()
    ident = SeriesPair.identity(2, 9)
    assert compose(f, ident) == f
    assert compose(ident, f) == f


def test_substitute_rejects_constant_term():
    f = Series.variable(2, 2, 5, 0)
    bad = Series.from_coeffs(2, 2, 5, {(0, 0): 1})
    good = Series.variable(2, 2, 5, 1)
    with pytest.raises(ValueError):
        f.substitute([bad, good])


def random_series(rng, p, nvars, degree, allow_const=False, allow_linear=True):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        e = tuple(rng.randrange(0, degree + 1) for _ in range(nvars))
        total = sum(e)
        if total > degree:
            continue
        if total == 0 and not allow_const:
            continue
        if total == 1 and not allow_linear:
            continue
        terms[e] = Padic(p, 0, rng.randrange(-20, 21))
    return Series.from_coeffs(p, nvars, degree, terms)


def random_zero_constant_pair(rng, p, degree):
    a = random_series(rng, p, 2, degree, allow_const=False)
    b = random_series(rng, p, 2, degree, allow_const=False)
    return SeriesPair(a, b)


def test_compose_is_associative():
    rng = random.Random(2027)
    for _ in range(15):
        p = rng.choice((2, 3))
        D = rng.randrange(4, 7)
        a = random_zero_constant_pair(rng, p, D)
        b = random_zero_constant_pair(rng, p, D)
        c = random_zero_constant_pair(rng, p, D)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_mul_ring_laws_random():
    rng = random.Random(515)
    for _ in range(25):
        p = rng.choice((2, 5))
        D = rng.randrange(3, 6)
        a = random_series(rng, p, 2, D, allow_const=True)
        b = random_series(rng, p, 2, D, allow_const=True)
        c = random_series(rng, p, 2, D, allow_const=True)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c


def test_invert_hand_pair():
    f = hand_logarithm_pair()
    g = invert_pair(f)
    # derived by solving g1 + g2^4/2 = x1 degree by degree
    assert g.first.coefficient((0, 4)) == Padic(2, -1, -1)
    assert g.first.support() == [(1, 0), (0, 4)]
    assert g.second.coefficient((8, 0)) == Padic(2, -1, -1)
    ident = SeriesPair.identity(2, 9)
    assert compose(f, g) == ident
    assert compose(g, f) == ident


def test_invert_requires_identity_linear_part():
    f1 = Series.from_coeffs(2, 2, 5, {(1, 0): 2})
    f2 = Series.variable(2, 2, 5, 1)
    with pytest.raises(ValueError):
        invert_pair(SeriesPair(f1, f2))
    g1 = Series.from_coeffs(2, 2, 5, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        invert_pair(SeriesPair(g1, f2))


def count_compositions(monkeypatch) -> list:
    """A list that grows by one for each `series_ops.compose` call."""
    from lubintate2d import series_ops

    calls = []
    real = series_ops.compose
    monkeypatch.setattr(series_ops, "compose", lambda *a: calls.append(1) or real(*a))
    return calls


def test_inversion_that_runs_out_of_digits_does_not_converge(monkeypatch):
    """(x1, x2 - x2^2/4 + 6 x2^3) over Z_2 at D = 3 has the inverse
    (x1, x2 + x2^2/4 - 47/8 x2^3).  At N = 4 the x2^3 coefficient of the
    approximation, of valuation -3, is known only modulo 2^0, so the defect
    6 x2^3 lies below its known digits: g - r leaves g as it is, and the
    defect never vanishes.  The third composition finds that step, and
    inversion stops there.  At N = 8 it converges."""
    def pair(prec):
        return SeriesPair(Series.variable(2, 2, 3, 0, prec),
                          Series.from_coeffs(2, 2, 3, {(0, 1): 1, (0, 2): Padic(2, -2, -1, prec),
                                                       (0, 3): 6}, prec))

    calls = count_compositions(monkeypatch)
    with pytest.raises(PrecisionError, match="^inversion did not converge$"):
        invert_pair(pair(4))
    assert len(calls) == 3
    g = invert_pair(pair(8))
    assert g.first == Series.variable(2, 2, 3, 0, 8)
    assert g.second == Series.from_coeffs(2, 2, 3, {(0, 1): 1, (0, 2): Padic(2, -2, 1, 8),
                                                    (0, 3): Padic(2, -3, -47, 8)}, 8)


def test_a_logarithm_out_of_digits_stops_inverting_once_a_step_repeats(monkeypatch):
    # at N = 3 the logarithm to degree 40 has too few digits for an inverse;
    # the loop used to compose all D + 1 = 41 times before saying so
    from lubintate2d.lubintate import build_logarithm

    log = build_logarithm(2, (2, 3), 40, 3)
    calls = count_compositions(monkeypatch)
    with pytest.raises(PrecisionError, match="^inversion did not converge$"):
        invert_pair(log)
    assert 1 < len(calls) <= 5


def random_integral_unit_pair(rng, p, degree):
    """Identity plus random integral higher-order junk."""
    ident = SeriesPair.identity(p, degree)
    a = {}
    b = {}
    for _ in range(rng.randrange(1, 6)):
        e = (rng.randrange(0, degree), rng.randrange(0, degree))
        if 2 <= sum(e) <= degree:
            (a if rng.random() < 0.5 else b)[e] = Padic(p, 0, rng.randrange(-9, 10))
    return ident + SeriesPair(Series.from_coeffs(p, 2, degree, a),
                              Series.from_coeffs(p, 2, degree, b))


def test_invert_is_an_involution():
    rng = random.Random(909)
    for _ in range(12):
        p = rng.choice((2, 3, 5))
        D = rng.randrange(4, 8)
        f = random_integral_unit_pair(rng, p, D)
        g = invert_pair(f)
        assert invert_pair(g) == f
        assert compose(f, g) == SeriesPair.identity(p, D)


def _x(nvars=2, degree=5, index=0):
    return Series.variable(2, nvars, degree, index)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: Series(2, 0, 3, {}), ValueError, "need at least one variable",
                 id="no-variable"),
    pytest.param(lambda: Series(2, 2, -1, {}), ValueError, "truncation degree must be nonnegative",
                 id="negative-degree"),
    pytest.param(lambda: Series.from_coeffs(4, 1, 3, {(1,): 2, (2,): 6}), ValueError,
                 "4 is not prime", id="coefficients-over-4"),
    pytest.param(lambda: Series.from_coeffs(2, 1, 3, {(1,): Fraction(1, 2)}), TypeError,
                 "coefficient Fraction(1, 2) at (1,): want an int or a Padic",
                 id="fraction-coefficient"),
    pytest.param(lambda: Series(1, 1, 2, {(1,): (0, 1, 3)}), ValueError, "1 is not prime",
                 id="triples-over-1"),
    pytest.param(lambda: Series.zero(6, 2, 3), ValueError, "6 is not prime", id="zero-over-6"),
    # cap <= val: no digit known, and -s would read p**-1, a float, from the power table
    pytest.param(lambda: Series(2, 1, 3, {(1,): (2, 1, 1)}), PrecisionError,
                 "relative precision must be at least 1", id="cap-below-valuation"),
    pytest.param(lambda: Series(2, 1, 3, {(1,): (2, 1, 2)}), PrecisionError,
                 "relative precision must be at least 1", id="cap-at-valuation"),
    pytest.param(lambda: _x() + 1, TypeError, "expected a Series", id="add-a-non-series"),
    pytest.param(lambda: _x() + _x(degree=6), ValueError,
                 "series shape mismatch (prime, variables, degree)", id="add-another-shape"),
    pytest.param(lambda: _x().truncate(6), ValueError, "cannot extend a truncated series",
                 id="truncate-upward"),
    pytest.param(lambda: _x().raise_vars(0), ValueError, "exponent must be positive",
                 id="raise-vars-0"),
    pytest.param(lambda: _x().embed(4, (1, 1)), ValueError,
                 "positions must list a distinct slot per variable", id="embed-repeated"),
    pytest.param(lambda: _x().embed(4, (0, 4)), ValueError, "position out of range",
                 id="embed-out-of-range"),
    pytest.param(lambda: _x().eliminate_zeros((0, 1)), ValueError,
                 "cannot drop every variable", id="eliminate-every-variable"),
    pytest.param(lambda: compose(SeriesPair.identity(2, 5), [_x()]), ValueError,
                 "need 2 inner series, got 1", id="compose-too-few"),
    pytest.param(lambda: compose(SeriesPair.identity(2, 5), [_x(), _x(degree=6, index=1)]),
                 ValueError, "inner series shape mismatch", id="compose-another-shape"),
    pytest.param(lambda: invert_pair(SeriesPair(_x(3), _x(3, index=1))), ValueError,
                 "inversion needs a two-variable pair", id="invert-three-variables"),
    pytest.param(lambda: evaluate_series(_x(3), (Padic(2, 0, 1), Padic(2, 0, 1))), ValueError,
                 "expected a two-variable series", id="evaluate-three-variables"),
    pytest.param(lambda: evaluate_series(_x(), (Padic(3, 0, 1), Padic(3, 0, 1))), ValueError,
                 "prime mismatch: the series is over Z_2", id="evaluate-another-prime"),
    pytest.param(lambda: SeriesPair(_x(), _x(degree=6, index=1)), ValueError,
                 "pair components must share prime, variables, degree", id="pair-of-two-degrees"),
    pytest.param(lambda: SeriesPair(_x(), Series.variable(3, 2, 5, 1)), ValueError,
                 "pair components must share prime, variables, degree", id="pair-of-two-primes"),
    pytest.param(lambda: dump_sections({}, {"a": SeriesPair.identity(2, 9),
                                            "b": SeriesPair.identity(2, 8)}), ValueError,
                 "a container holds pairs of one prime and one degree", id="dump-two-degrees"),
])
def test_input_guards(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_text_lines_format_and_order():
    s = Series.from_coeffs(2, 2, 9, {(1, 0): 1, (0, 4): Padic(2, -1, 1), (8, 0): 0})
    text = dump_sections({"N": 64}, {"s": SeriesPair(s, Series.zero(2, 2, 9))})
    assert text.splitlines() == ['{"D": 9, "N": 64, "p": 2}', "[s.1 v=2 D=9]",
                                 "1 0 : 0 1", "0 4 : -1 1", "[s.2 v=2 D=9]"]


def test_dump_parse_roundtrip():
    f = hand_logarithm_pair()
    g = SeriesPair.identity(2, 9)
    text = dump_sections({"N": 64}, {"log": f, "id": g})
    header, pairs = parse_sections(text)
    assert header == {"p": 2, "D": 9, "N": 64}
    assert list(pairs) == ["log", "id"]
    assert pairs["log"] == f and pairs["id"] == g
    assert dump_sections(header, pairs) == text


@pytest.mark.parametrize("header", [{"N": 64}, {"h1": 2, "h2": 3, "N": 64, "a": 9}])
def test_header_line_is_the_json_line(header):
    # written without `json`, byte for byte as json.dumps would write it
    pair = SeriesPair.identity(2, 9)
    line = dump_sections(header, {"id": pair}).splitlines()[0]
    assert line == json.dumps({**header, "p": 2, "D": 9}, sort_keys=True, separators=(", ", ": "))
    for value in (True, "x"):
        with pytest.raises(TypeError):
            dump_sections({**header, "N": value}, {"id": pair})


def test_parse_reads_values_through_padic():
    # a negative unit, a unit divisible by p, a unit >= p^N and one whose
    # every known digit is zero, as a hand-written file may carry them
    text = ('{"p": 3, "D": 4, "N": 5}\n[s.1 v=2 D=4]\n'
            '1 0 : 2 -7\n0 1 : 0 18\n2 0 : -1 1000\n1 1 : 0 243\n[s.2 v=2 D=4]\n')
    s = parse_sections(text)[1]["s"].first
    for e, val, unit in (((1, 0), 2, -7), ((0, 1), 0, 18), ((2, 0), -1, 1000)):
        want = Padic(3, val, unit, 5)
        assert s.terms[e] == (want.val, want.unit, want.val + want.prec)
        got = s.coefficient(e)
        assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec)
    assert Padic(3, 0, 243, 5).is_zero and (1, 1) not in s.terms


def test_parse_empty_section():
    text = '{"p": 2, "D": 7}\n[empty.1 v=4 D=7]\n[empty.2 v=4 D=7]\n'
    _, pairs = parse_sections(text)
    assert pairs["empty"].is_zero
    assert pairs["empty"].nvars == 4
    assert pairs["empty"].degree == 7


PAIR = "[f.1 v=2 D=4]\n1 0 : 0 1\n[f.2 v=2 D=4]\n0 1 : 0 1\n"


@pytest.mark.parametrize("text, detail", [
    (PAIR, "starts with its JSON header"),
    ('{"D": 4}\n' + PAIR, "header p must be a prime, got None"),
    ('{"p": 4, "D": 4}\n' + PAIR, "header p must be a prime, got 4"),
    # the reader's own check: `padics._check_prime` is cached, so a list would raise TypeError
    ('{"p": [2], "D": 4}\n' + PAIR, r"header p must be a prime, got \[2\]"),
    ('{"p": 2}\n' + PAIR, "header D must be an integer, got None"),
    ('{"p": 2, "D": 4}\n' + PAIR.split("[f.2")[0] * 2, "section f.1 appears twice"),
    ('{"p": 2, "D": 4}\n' + PAIR.replace("f.1", "f"), "section f is not named"),
    ('{"p": 2, "D": 4}\n1 0 : 0 1\n' + PAIR, "term line outside any section"),
    ('{"p": 2, "D": 4, "N": "8"}\n' + PAIR, "header N must be a positive integer, got '8'"),
    ('{"p": 2, "D": 4}\n' + PAIR.replace("v=2 D=4]\n1", "v=2]\n1"),
     r"section line '\[f\.1 v=2\]'"),
    ('{"p": 2, "D": 4}\n' + PAIR.replace("f.1 v=2", "f.1 v=x"),
     r"section line '\[f\.1 v=x D=4\]'"),
    ('{"p": 2, "D": 4}\n' + PAIR.replace("f.1 v=2", "f.1 v2"),
     r"section line '\[f\.1 v2 D=4\]'"),
    ('{"p": 2, "D": 4}\n' + PAIR.replace("1 0 : 0 1", "1 0 0 1"), "term line '1 0 0 1'"),
    ('{"p": 2, "D": 4}\n' + PAIR.replace("1 0 : 0 1", "1 0 : 0 1\n1 0 : 3 5"),
     r"section f\.1 repeats the monomial \(1, 0\)"),
    ('{"p": 2, "D": 4}\n' + PAIR.replace("[f.2", '{"p": 3, "D": 4}\n[f.2'), "one header line"),
    ('{"p": 2, "D": 5}\n' + PAIR, r"section f\.1 has D=4, header D=5"),
    ('{"p": 2, "D": 4}\n' + PAIR.split("[f.2")[0], r"section f\.2 is missing"),
], ids=["no-header", "no-p", "composite-p", "unhashable-p", "no-D", "repeated-section",
        "unsuffixed", "stray-term", "text-N", "section-without-D", "bad-v",
        "field-without-equals", "term-without-colon", "repeated-monomial",
        "second-header", "section-degree", "missing-section"])
def test_parse_refuses_a_container_that_disagrees_with_itself(text, detail):
    with pytest.raises(ValueError, match=detail):
        parse_sections(text)


def test_min_helpers():
    s = Series.from_coeffs(2, 2, 9, {(0, 4): Padic(2, -1, 1), (8, 0): 4})
    assert s.min_total_degree() == 4
    assert s.min_valuation() == -1
    assert min_val_plus_degree(s) == 3  # min(-1 + 4, 2 + 8)
    z = Series.zero(2, 2, 9)
    assert z.min_total_degree() is None
    assert min_val_plus_degree(z) is None


def test_units_mod_p():
    s = Series.from_coeffs(2, 2, 9, {(0, 4): -7, (1, 0): 2, (8, 0): 1})
    assert s.units_mod_p() == {(0, 4): 1, (8, 0): 1}
    bad = Series.from_coeffs(2, 2, 9, {(0, 4): Padic(2, -1, 1)})
    with pytest.raises(ValueError):
        bad.units_mod_p()


# -- the product kernel against the pair loop it replaced ----------------------


def _reference_mul(a, b):
    """Every pair of terms tried and those past the truncation skipped, the
    rest summed with Padic arithmetic in the order they are met; also counts
    the partial sums that cancelled to exact zero."""
    acc = {}
    cancelled = 0
    deg = a.degree
    for e1 in a.terms:
        d1 = sum(e1)
        for e2 in b.terms:
            if d1 + sum(e2) > deg:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            c = a.coefficient(e1) * b.coefficient(e2)
            cur = acc.get(e)
            acc[e] = c if cur is None else cur + c
            cancelled += acc[e].is_zero
    return Series.from_coeffs(a.p, a.nvars, deg, acc), cancelled


def _raw_terms(s):
    return [(e, v, u, m) for e, (v, u, m) in s.terms.items()]


def _cancelling_series(rng, p, nvars, degree):
    """Few variables, low precision, units that cancel: partial sums meet
    their exact-zero case often."""
    top = rng.choice((2, degree))
    vals = (rng.randrange(-2, 3), rng.randrange(-2, 3))
    terms = {}
    for _ in range(rng.randrange(1, 10)):
        e = tuple(rng.randrange(0, top + 1) for _ in range(nvars))
        if sum(e) > degree:
            continue
        unit = rng.choice((1, -1, p - 1, p + 1, -(p - 1), -(p + 1), rng.randrange(1, 10**6)))
        prec = rng.choice((1, 2, 3, 4, 64))
        terms[e] = Padic(p, rng.choice(vals), unit, prec)
    return Series.from_coeffs(p, nvars, degree, terms)


def test_mul_matches_the_pair_loop_term_for_term():
    rng = random.Random(60417)
    cancelling = 0
    for _ in range(1200):
        p = rng.choice((2, 3, 5))
        nvars = rng.randrange(1, 5)
        degree = rng.randrange(1, 9)
        a = _cancelling_series(rng, p, nvars, degree)
        b = _cancelling_series(rng, p, nvars, degree)
        want, cancelled = _reference_mul(a, b)
        assert _raw_terms(a * b) == _raw_terms(want)
        cancelling += cancelled > 0
    assert cancelling >= 50  # products that take the cancel-to-exact-zero path


def test_the_accumulator_and_the_raw_sum_rule_agree():
    """Chains of nonzero triples summed one by one by `padics._raw_add`, and
    as products with the exact one by `_accumulate` then `_settle`, end in
    the same triple or both in exact zero: the sum rule and its inlined copy."""
    rng = random.Random(21)
    zeros = ties = 0  # chains that reach the exact-zero branch, the tie
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        pk = _powers(p)
        total, acc, zero, tie = None, {}, False, False
        for _ in range(rng.randrange(1, 7)):
            unit = rng.choice((1, -1, p - 1, p + 1, -(p - 1), -(p + 1), rng.randrange(1, 10**9)))
            c = Padic(p, rng.randrange(-3, 4), unit, rng.choice((1, 2, 3, 4, 64)))
            if c.is_zero:
                continue
            t = (c.val, c.unit, c.val + c.prec)
            if total is None:
                total = t
            else:
                tie |= bool(total[1]) and total[0] == t[0]
                total = _raw_add(pk, total, t)
                zero |= not total[1]
            _accumulate(pk, acc, {0: t}, _ONE, 0, 1)
        if total is not None:
            assert _settle(pk, acc) == ({0: total} if total[1] else {})
        zeros += zero
        ties += tie
    assert zeros >= 100 and ties >= 100


def test_settle_hands_series_terms_back_unchanged():
    """Series terms are the accumulator's own (val, unit, cap) triples, so
    `_settle` returns the packed terms of any series as they are, in order."""
    rng = random.Random(2711)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        nvars, degree = rng.randrange(1, 4), rng.randrange(1, 9)
        coeffs = {}
        while not coeffs or rng.random() < 0.8:
            e = tuple(rng.randrange(0, degree + 1) for _ in range(nvars))
            if sum(e) <= degree:
                unit = rng.randrange(0, 10**6) * p + rng.randrange(1, p)
                coeffs[e] = Padic(p, rng.randrange(1, 4), unit, rng.randrange(5, 70))
        packed = _pack(Series.from_coeffs(p, nvars, degree, coeffs).terms, degree + 1)
        assert list(_settle(_powers(p), packed).items()) == list(packed.items())


def test_only_padics_and_series_know_the_coefficient():
    """The modules past `series` import none of the triple kernels and read
    `Series.terms` for its keys alone; a coefficient comes out through
    `Series.coefficient`."""
    import ast
    from pathlib import Path

    import lubintate2d

    kernels = {"_raw_add", "_powers", "_mul_triples", "_accumulate", "_settle"}

    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    found = []
    for name in ("lubintate", "copolygon", "torsion", "fixtures", "cli"):
        path = Path(lubintate2d.__file__).with_name(f"{name}.py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [(name, alias.name) for alias in node.names
                          if alias.name.rpartition(".")[2] in kernels]
            elif isinstance(node, ast.Attribute) and node.attr in kernels:
                found.append((name, node.attr))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("values", "items") and is_terms(node.func.value)):
                found.append((name, f"terms.{node.func.attr}()"))
            elif isinstance(node, ast.Subscript) and is_terms(node.value):
                found.append((name, "terms[...]"))
    assert not found


def test_kernels_do_no_padic_arithmetic(monkeypatch):
    from lubintate2d.lubintate import build_group

    group = build_group(3, (1, 2), 12)
    log = group.logarithm
    summed = log.embed(4, (0, 1)) + log.embed(4, (2, 3))
    law = group.group_law
    product, _ = _reference_mul(log.first, log.second)

    def forbidden(*args):
        raise AssertionError("Padic arithmetic in library code")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Padic, name, forbidden)
    assert _raw_terms(log.first * log.second) == _raw_terms(product)
    assert compose(group.exponential, summed) == law
    for name in ("__sub__", "__neg__", "__truediv__", "__pow__"):
        assert not hasattr(Padic, name), name


def test_series_operations_build_no_padic(monkeypatch):
    a, b = hand_logarithm_pair()
    four = a.embed(4, (0, 1)) + b.embed(4, (2, 3))
    two = Padic(2, 0, 2)
    built = []

    def counted(self, *args, __init__=Padic.__init__):
        built.append(args)
        __init__(self, *args)

    monkeypatch.setattr(Padic, "__init__", counted)
    results = [a + b, a - b, -a, a * b, a.scale(two), a.truncate(5), a.raise_vars(2),
               a.embed(4, (0, 1)), a.embed(2, (1, 0)), four.eliminate_zeros((2, 3)),
               a.substitute([a, b])]
    monkeypatch.undo()
    assert built == []
    assert not any(r.is_zero for r in results)


# -- one rule for "two series agree" -----------------------------------------------


def _nearby(rng, a):
    """A series close to a: each term kept, dropped, re-capped, moved at a
    digit that may or may not lie inside its precision, or moved one
    valuation up; and sometimes one term replaced."""
    p = a.p
    terms = {}
    for e, (val, unit, cap) in a.terms.items():
        prec = cap - val
        kind = rng.choices(("keep", "drop", "recap", "digit", "val"), (4, 1, 2, 2, 1))[0]
        if kind == "drop":
            continue
        if kind == "recap":
            prec = rng.choice((1, 2, 3, 4, 64))
        elif kind == "digit":
            unit += p**rng.randrange(0, 6) * rng.randrange(1, p)
        elif kind == "val":
            val += 1
        terms[e] = Padic(p, val, unit, prec)
    if a.terms and rng.random() < 0.2:
        terms[rng.choice(list(a.terms))] = Padic(p, rng.randrange(-2, 3), rng.randrange(1, 50),
                                                 rng.choice((1, 3, 64)))
    return Series.from_coeffs(p, a.nvars, a.degree, terms)


def test_series_equality_is_the_difference_rule():
    """The in-place `==` agrees with `(a - b).is_zero`, with the verifiers'
    `_differences` and with `Padic` equality term by term; a shape mismatch
    is unequal, never an error."""
    from lubintate2d.lubintate import _differences

    rng = random.Random(90210)
    seen = {True: 0, False: 0}
    cover = dict.fromkeys(("one-sided", "moved", "recapped", "cancelled", "shape"), 0)
    for _ in range(2400):
        p = rng.choice((2, 3, 5))
        nvars, degree = rng.randrange(1, 4), rng.randrange(1, 7)
        a1, a2 = (_cancelling_series(rng, p, nvars, degree) for _ in range(2))
        b1, b2 = _nearby(rng, a1), _nearby(rng, a2)
        same = b1 == a1
        assert same == (a1 == b1) == (a1 - b1).is_zero
        assert same == (not _differences(SeriesPair(a1, a1), SeriesPair(b1, a1)))
        assert same == all(a1.coefficient(e) == b1.coefficient(e)
                           for e in a1.terms.keys() | b1.terms.keys())
        assert (SeriesPair(a1, a2) == SeriesPair(b1, b2)) == \
            (not _differences(SeriesPair(a1, a2), SeriesPair(b1, b2)))
        seen[same] += 1
        cover["one-sided"] += a1.terms.keys() != b1.terms.keys()
        cover["recapped"] += any(a1.terms[e][2] != b1.terms[e][2]
                                 for e in a1.terms.keys() & b1.terms.keys())
        cover["cancelled"] += same and a1.terms != b1.terms
        # as many terms, one of them at a key a1 lacks
        free = [e for e in product(range(degree + 1), repeat=nvars)
                if sum(e) <= degree and e not in a1.terms]
        if a1.terms and free:
            terms = dict(a1.terms)
            terms[rng.choice(free)] = terms.pop(rng.choice(list(terms)))
            moved = Series(p, nvars, degree, terms)
            assert not (a1 == moved or moved == a1 or (a1 - moved).is_zero)
            cover["moved"] += 1
        other = rng.choice((Series(p, nvars, degree + 1, dict(a1.terms)),
                            a1.embed(nvars + 1, range(nvars)),
                            Series.zero(7, nvars, degree)))
        assert not (a1 == other or other == a1) and a1 != other
        cover["shape"] += 1
    assert min(seen.values()) >= 300  # both verdicts are exercised
    assert min(cover.values()) >= 100, cover


def test_series_of_different_degree_are_unequal():
    x3 = Series.variable(2, 2, 3, 0)
    x4 = Series.variable(2, 2, 4, 0)
    assert x3 != x4
    assert x3 == x4.truncate(3)
    assert SeriesPair.identity(2, 3) != SeriesPair.identity(2, 4)


def test_series_equality_reaches_no_padic_equality(monkeypatch):
    f = hand_logarithm_pair()
    g = SeriesPair(f.first + Series.variable(2, 2, 9, 1), f.second)

    def forbidden(*args):
        raise AssertionError("Padic comparison in Series.__eq__")

    monkeypatch.setattr(Padic, "__eq__", forbidden)
    assert f.first == hand_logarithm_pair().first
    assert f.first != g.first
    assert f == hand_logarithm_pair() and f != g


def test_equality_builds_no_series(monkeypatch):
    """`==` walks both term dicts in place: comparing the D = 16 law with
    itself and with its swapped embed builds, negates and adds no series."""
    from lubintate2d.lubintate import build_group

    for p, heights in ((2, (2, 3)), (3, (1, 2))):
        law = build_group(p, heights, 16).group_law
        twins = [law.embed(4, (0, 1, 2, 3)), law.embed(4, (2, 3, 0, 1))]
        calls = []
        for name in ("__init__", "_derived", "__neg__", "__add__"):
            monkeypatch.setattr(Series, name, lambda *a, name=name: calls.append(name))
        same = [law.first == law.first, law.second == law.second]
        same += [twin == law for twin in twins]
        differ = law.first == law.second
        monkeypatch.undo()
        assert calls == [] and all(same) and not differ


# -- the composition against full-degree powers ---------------------------------


def _reference_substitute(outer, inner):
    """Every power built at full degree with `_reference_mul`, by squaring
    (times the base for an odd exponent), the factors of a monomial
    multiplied in variable order, and the terms summed with Padic
    arithmetic in grlex outer order; also counts the partial sums that
    cancelled to exact zero."""
    p, deg = outer.p, outer.degree
    w = inner[0].nvars
    cancelled = 0
    caches = [{1: s} for s in inner]

    def power(i, k):
        nonlocal cancelled
        if k not in caches[i]:
            half = power(i, k // 2)
            out, n = _reference_mul(half, half)
            cancelled += n
            if k % 2:
                out, n = _reference_mul(out, inner[i])
                cancelled += n
            caches[i][k] = out
        return caches[i][k]

    one = Series.from_coeffs(p, w, deg, {(0,) * w: 1})
    acc = {}
    for e in sorted(outer.terms, key=grlex):
        prod = None
        for i, k in enumerate(e):
            if k:
                pw = power(i, k)
                if prod is None:
                    prod = pw
                else:
                    prod, n = _reference_mul(prod, pw)
                    cancelled += n
        c = outer.coefficient(e)
        for fe in (prod or one).terms:
            t = prod.coefficient(fe) * c if prod is not None else c
            acc[fe] = t if fe not in acc else acc[fe] + t
            cancelled += acc[fe].is_zero
    return Series.from_coeffs(p, w, deg, acc), cancelled


def _cancelling_inner(rng, p, nvars, degree, low):
    """`_cancelling_series` without terms below degree `low`."""
    s = _cancelling_series(rng, p, nvars, degree)
    return Series(p, nvars, degree, {e: c for e, c in s.terms.items() if sum(e) >= low})


def _substitution_cases(rng, count):
    """Seeded random compositions: 1-3 outer variables with exponents up
    to 9, inner series in 1-4 variables of lowest degree 1 or 2."""
    for _ in range(count):
        p = rng.choice((2, 3, 5))
        degree = rng.randrange(1, 13)
        nouter = rng.randrange(1, 4)
        w = rng.randrange(1, 5)
        outer = {}
        for _ in range(rng.randrange(1, 8)):
            e = tuple(rng.randrange(0, 10) for _ in range(nouter))
            if sum(e) <= degree:
                outer[e] = _low_precision_coefficient(rng, p)
        inner = [_cancelling_inner(rng, p, w, degree, rng.choice((1, 2)))
                 for _ in range(nouter)]
        yield Series.from_coeffs(p, nouter, degree, outer), inner


def _low_precision_coefficient(rng, p):
    return Padic(p, rng.randrange(-2, 3), rng.choice((1, -1, p + 1, rng.randrange(1, 10**6))),
                 rng.choice((1, 2, 3, 4, 64)))


def _companion(rng, outer, kind):
    """A second series of outer's shape whose support overlaps outer's,
    misses it, or holds the constant term beside some of outer's terms."""
    p, n, degree = outer.p, outer.nvars, outer.degree
    others = [e for e in product(range(degree + 1), repeat=n)
              if sum(e) <= degree and e not in outer.terms]
    if kind == "disjoint":
        support = rng.sample(others, min(len(others), rng.randrange(1, 8)))
    else:
        support = rng.sample(sorted(outer.terms), rng.randint(min(1, len(outer.terms)),
                                                             len(outer.terms)))
        support.append((0,) * n if kind == "constant" else rng.choice(others or support))
    return Series.from_coeffs(p, n, degree, {e: _low_precision_coefficient(rng, p)
                                             for e in support})


def test_substitute_matches_full_degree_powers_term_for_term():
    # x1^2 x3 comes first in grlex and needs inner[0]^2 only through
    # degree 6; x1^2 x2 then needs it through degree 7
    first = Series.from_coeffs(2, 2, 8, {(1, 0): 1, (0, 6): 3})
    late = (Series.from_coeffs(2, 3, 8, {(2, 0, 1): 1, (2, 1, 0): 1}),
            [first, Series.variable(2, 2, 8, 0), Series.from_coeffs(2, 2, 8, {(0, 2): 1})])
    cancelling = 0
    for outer, inner in [late, *_substitution_cases(random.Random(70529), 600)]:
        want, cancelled = _reference_substitute(outer, inner)
        assert _raw_terms(outer.substitute(inner)) == _raw_terms(want)
        cancelling += cancelled > 0
    assert cancelling >= 50  # compositions that take the cancel-to-exact-zero path
    # compose walks both components' monomials at once: each component
    # must still be its own substitution, term for term
    rng = random.Random(41771)
    cancelling = {"overlapping": 0, "disjoint": 0, "constant": 0}
    for outer, inner in _substitution_cases(rng, 600):
        kind = rng.choice(sorted(cancelling))
        pair = SeriesPair(outer, _companion(rng, outer, kind))
        if rng.random() < 0.5:
            pair = SeriesPair(pair.second, pair.first)
        cancelled = 0
        for got, comp in zip(compose(pair, inner), pair):
            want, n = _reference_substitute(comp, inner)
            assert _raw_terms(got) == _raw_terms(want)
            cancelled += n
        cancelling[kind] += cancelled > 0
    assert min(cancelling.values()) >= 20, cancelling


def test_compose_builds_one_series_per_component(monkeypatch):
    """One derived series per component, and nothing validated: no
    `Series.__init__` and no `Padic`."""
    from lubintate2d.lubintate import build_group

    group = build_group(3, (1, 2), 12)
    log, exp = group.logarithm, group.exponential
    summed = log.embed(4, (0, 1)) + log.embed(4, (2, 3))
    counts = {Series: 0, Padic: 0, "derived": 0}
    for cls in (Series, Padic):
        def counted(self, *args, __init__=cls.__init__, cls=cls):
            counts[cls] += 1
            __init__(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)

    def derived(cls, *fields, real=Series._derived):
        counts["derived"] += 1
        return real(*fields)

    monkeypatch.setattr(Series, "_derived", classmethod(derived))
    law = compose(exp, summed)
    monkeypatch.undo()
    assert law == group.group_law
    assert counts == {Series: 0, Padic: 0, "derived": 2}


def test_derived_series_are_canonical(monkeypatch):
    """Every series `Series._derived` builds in `group`, `verify
    --unramified-degree` and `mult -a p` holds what `_check` would have
    held; the argument checks of the derived constructors still refuse."""
    built = []

    def derived(cls, *fields, real=Series._derived):
        built.append(real(*fields))
        return built[-1]

    monkeypatch.setattr(Series, "_derived", classmethod(derived))
    for p, (h1, h2) in ((2, (2, 3)), (3, (1, 2))):
        fixture = ["-p", str(p), "--h1", str(h1), "--h2", str(h2), "-D", "12"]
        for argv in (["group", *fixture], ["verify", *fixture, "--unramified-degree", str(h1 + h2)],
                     ["mult", *fixture, "-a", str(p)]):
            before = len(built)
            code, _, stderr = run_lt2d(argv)
            assert (code, stderr) == (0, ""), argv
            assert len(built) > before, argv
    monkeypatch.undo()
    for s in built:
        assert_canonical(s)
    x = _x()
    for refused in (lambda: x.truncate(-1), lambda: x.embed(4, (1, 1)),
                    lambda: x.eliminate_zeros((0, 1))):
        with pytest.raises(ValueError):
            refused()


def test_packed_keys_round_trip():
    degree = 4
    radix = degree + 1
    for nvars in range(1, 7):
        exps = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
        assert all(any(e[i] == degree for e in exps) for i in range(nvars))
        terms = {e: (0, i + 1, 64) for i, e in enumerate(exps)}
        packed = _pack(terms, radix)
        assert list(packed.values()) == list(terms.values())  # one key per tuple, in order
        assert [key // radix**nvars for key in packed] == [sum(e) for e in terms]
        assert list(_unpack(packed, nvars, radix).items()) == list(terms.items())
        key = dict(zip(exps, packed))
        for e1 in exps:
            for e2 in exps:
                if sum(e1) + sum(e2) <= degree:  # the key of a product term
                    assert key[e1] + key[e2] == key[tuple(map(sum, zip(e1, e2)))]


def test_products_whose_lowest_degrees_fit_the_bound_are_never_empty():
    """The partial products of `_substitute_each` cannot vanish.  With a
    bound at least the factors' lowest degrees summed, the product of their
    grlex-greatest lowest-degree terms is the only pair on its monomial: a
    product of units, coprime to p, that no sum can cancel.  So `_mul_triples`
    and `_triple_power` of nonempty dicts are nonempty, however low the
    precision and however much the other sums cancel."""
    rng = random.Random(1729)
    cancelled = 0  # products with a sum that cancelled to an exact zero
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        nvars, degree = rng.randrange(1, 4), rng.randrange(1, 10)
        pk, radix = _powers(p), degree + 1
        top = radix**nvars
        a, b = (_cancelling_series(rng, p, nvars, degree) for _ in range(2))
        if a.is_zero or b.is_zero:
            continue
        pa, pb = _pack(a.terms, radix), _pack(b.terms, radix)
        low = a.min_total_degree() + b.min_total_degree()
        if low <= degree:
            bound = rng.randrange(low, degree + 1)
            assert _mul_triples(pk, pa, pb, bound, top)
            cancelled += None in _accumulate(pk, {}, pa, pb, bound, top).values()
        md, cache = a.min_total_degree(), {}
        if md:
            for k in rng.sample(range(1, degree // md + 1), min(3, degree // md)):
                assert _triple_power(pk, pa, md, k, rng.randrange(k * md, degree + 1), top, cache)
    assert cancelled >= 100
