import random
from fractions import Fraction

import pytest

from lubintate2d.padics import (
    DEFAULT_PRECISION,
    HeightPair,
    Padic,
    PrecisionError,
    _powers,
    _raw_add,
    int_valuation,
    is_prime,
)
from paper_checks import from_fraction, to_fraction


def test_int_valuation():
    assert int_valuation(12, 2) == 2
    assert int_valuation(12, 3) == 1
    assert int_valuation(-8, 2) == 3
    assert int_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        int_valuation(0, 2)


def test_is_prime_small():
    """Trial division agrees below 2 * 10^5; past psi_12 a witness still says composite."""
    primes = [d for d in range(2, 448) if all(d % e for e in range(2, d))]
    for n in range(-3, 200_000):
        assert is_prime(n) == (n > 1 and all(n % d for d in primes if d * d <= n)), n
    assert not is_prime(318665857834031151167461 + 2)  # psi_12 + 2


def test_construction_canonicalizes_unit():
    a = Padic(2, 0, 12, 8)  # 12 = 2^2 * 3
    assert a.val == 2
    assert a.unit == 3
    assert a.prec == 6  # absolute precision preserved


def test_exact_zero_sentinel():
    z = Padic(3, 0, 0)
    assert z.is_zero
    assert z.valuation is None
    # a unit all of whose known digits vanish collapses to zero
    assert Padic(2, 0, 8, 3).is_zero


def test_add_and_sub_basics():
    one = Padic(2, 0, 1)
    two = Padic(2, 0, 2)
    assert one + two == Padic(2, 0, 3)
    assert (one + Padic(2, 0, -1)).is_zero
    assert one * two == Padic(2, 1, 1)
    assert two.valuation == 1


@pytest.mark.xfail(reason="a sum that cancels below its known digits is the exact "
                          "zero, not zero modulo its cap (ROADMAP item 1)")
def test_a_cancelled_sum_keeps_its_cap():
    # 5 + 3 known modulo 2^3 has no digit that tells it from 8; today the
    # sum is Padic(2, 0), and adding 8 to it prints 2^3 * 1 + O(2^67)
    assert Padic(2, 0, 5, 3) + Padic(2, 0, 3, 3) == Padic(2, 3, 1)


def test_mul_valuations_add():
    a = Padic(5, 2, 3)
    b = Padic(5, -1, 7)
    assert (a * b).valuation == 1
    assert (a * b).unit % 5**2 == 21


def test_cancellation_reduces_precision():
    a = Padic(2, 0, 1, 4)
    b = Padic(2, 0, 9, 4)  # agrees with a modulo 2^3
    d = a + Padic(2, 0, -9, 4)  # a - b
    assert d.valuation == 3
    assert d.prec == 1
    assert d.unit == 1


def test_fraction_roundtrip():
    half = from_fraction(2, Fraction(1, 2))
    assert half.valuation == -1
    assert half.unit == 1
    assert to_fraction(half) == Fraction(1, 2)
    c = from_fraction(3, Fraction(-7, 9))
    assert c.valuation == -2
    assert to_fraction(c) == Fraction(-7, 9)


def test_eq_uses_min_shared_precision():
    a = Padic(2, 0, 1, 60)
    b = Padic(2, 0, 1 + 2**50, 50)
    c = Padic(2, 0, 1 + 2**40, 50)
    assert a == b  # units agree modulo 2^50
    assert a != c
    assert a != Padic(2, 0, 0)


def test_values_over_two_primes_are_unequal():
    """Equality answers across primes, as `Series` and `_Record` values do;
    only the arithmetic refuses to mix them."""
    two, three = Padic(2, 0, 1), Padic(3, 0, 1)
    assert two != three and not two == three
    assert two not in [three]
    assert Padic(2, 0, 0) != Padic(3, 0, 0)
    with pytest.raises(ValueError):
        two + three


def test_add_and_the_raw_sum_rule_agree():
    rng = random.Random(8117)
    cancelled = 0
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        a, b = (Padic(p, rng.randrange(-3, 4),
                      rng.choice((0, 1, -1, p - 1, p + 1, rng.randrange(1, 10**9))),
                      rng.choice((1, 2, 3, 5, 64)))
                for _ in range(2))
        s = a + b
        raw = _raw_add(_powers(p), (a.val, a.unit, a.val + a.prec),
                       (b.val, b.unit, b.val + b.prec))
        assert (s.val, s.unit, s.val + s.prec) == raw
        cancelled += s.is_zero and not (a.is_zero or b.is_zero)
    assert cancelled >= 100


def _reference_eq(a: Padic, b: Padic) -> bool:
    """Scalar equality as it was stated before it became the sum rule:
    zero equals only zero; otherwise the valuations match and the units
    agree modulo p^min(prec)."""
    if a.p != b.p:
        return False
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return a.val == b.val and (a.unit - b.unit) % a.p ** min(a.prec, b.prec) == 0


def test_eq_and_the_reference_rule_agree():
    rng = random.Random(3041)
    equal = 0
    for _ in range(3000):
        p = rng.choice((2, 3, 5))
        val = rng.randrange(-3, 4)
        unit = rng.choice((0, 1, -1, p - 1, p + 1, 1 + p ** rng.randrange(1, 65),
                           rng.randrange(1, 10**9)))
        a = Padic(p, val, unit, rng.randrange(1, 65))
        # b: a near copy of a, or an independent draw
        if rng.random() < 0.5:
            k = rng.randrange(1, 65)
            b = Padic(p, val + rng.choice((0, 0, 0, 1, -1)),
                      unit + rng.choice((0, p**k, -p**k)), rng.randrange(1, 65))
        else:
            b = Padic(p, rng.randrange(-3, 4),
                      rng.choice((0, 1, -1, p - 1, p + 1, rng.randrange(1, 10**9))),
                      rng.randrange(1, 65))
        assert (a == b) == _reference_eq(a, b) == (b == a), (a, b)
        equal += a == b
    assert equal >= 100


def test_mul_valuation_additivity_random():
    rng = random.Random(402)
    for p in (2, 3, 5):
        for _ in range(200):
            m = rng.randrange(-(10**6), 10**6)
            n = rng.randrange(-(10**6), 10**6)
            if m == 0 or n == 0:
                continue
            a = Padic(p, 0, m)
            b = Padic(p, 0, n)
            assert (a * b).valuation == a.valuation + b.valuation
            s = a + b
            if not s.is_zero:
                assert s.valuation >= min(a.valuation, b.valuation)
            assert to_fraction(a * b) == m * n or abs(m * n) > p**40


def test_precision_floor():
    assert Padic(2, 0, 1, 1).prec == 1


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: HeightPair(2), TypeError,
                 "HeightPair takes the fields ('h1', 'h2'), in order", id="missing-field"),
    pytest.param(lambda: HeightPair(2, h2=3), TypeError,
                 "HeightPair takes the fields ('h1', 'h2'), in order", id="keyword-field"),
    pytest.param(lambda: HeightPair(2, 3, 5), TypeError,
                 "HeightPair takes the fields ('h1', 'h2'), in order", id="extra-field"),
    pytest.param(lambda: HeightPair(True, 2), ValueError, "heights must be integers",
                 id="bool-first-height"),
    pytest.param(lambda: HeightPair(2, False), ValueError, "heights must be integers",
                 id="bool-second-height"),
    pytest.param(lambda: HeightPair(2.0, 3), ValueError, "heights must be integers",
                 id="float-height"),
    pytest.param(lambda: Padic(4, 0, 2, 5), ValueError, "4 is not prime", id="padic-over-4"),
    pytest.param(lambda: Padic(1, 0, 0), ValueError, "1 is not prime", id="zero-over-1"),
    pytest.param(lambda: (Padic(2, 0, 3), Padic(2.0, 0, 3)), ValueError, "2.0 is not prime",
                 id="float-p-after-int-p"),
    pytest.param(lambda: Padic(True, 0, 1), ValueError, "True is not prime", id="bool-p"),
    pytest.param(lambda: from_fraction(0, Fraction(1, 3)), ValueError, "0 is not prime",
                 id="fraction-over-0"),
    pytest.param(lambda: Padic(2, 0, 1) * Padic(3, 0, 1), ValueError,
                 "prime mismatch: 2 vs 3", id="product-over-two-primes"),
    pytest.param(lambda: Padic(2, 0, 1, 0), PrecisionError,
                 "relative precision must be at least 1", id="precision-0"),
])
def test_input_guards(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def _records():
    from lubintate2d.copolygon import Copolygon, TieSegment
    from lubintate2d.lubintate import LubinTateGroup, Report, Violation, build_group
    from lubintate2d.series import Series, SeriesPair
    from lubintate2d.torsion import RamificationReport, ValuationProfile

    s = Series.from_coeffs(2, 2, 3, {(1, 0): 1})
    group = build_group(2, (1, 2), 3)
    # (class, constructor arguments, repr: the dataclass form)
    return {cls.__name__: (cls, args, text) for cls, args, text in [
        (HeightPair, (2, 3), "HeightPair(h1=2, h2=3)"),
        (Copolygon, (((1, 0, 3), (0, 1, Fraction(1, 2)), (1, 0, 0)),),
         "Copolygon(functionals=((0, 1, Fraction(1, 2)), (1, 0, Fraction(0, 1))))"),
        (Violation, (1, (2, 3), "recursion", ""),
         "Violation(component=1, exponents=(2, 3), check='recursion', detail='')"),
        (Report, ((),), "Report(violations=())"),
        (LubinTateGroup, (HeightPair(1, 2), group.logarithm),
         "LubinTateGroup(heights=HeightPair(h1=1, h2=2), "
         "logarithm=SeriesPair(first=Series(p=2, vars=2, D=3, 2 terms), "
         "second=Series(p=2, vars=2, D=3, 1 terms)))"),
        (SeriesPair, (s, s), "SeriesPair(first=Series(p=2, vars=2, D=3, 1 terms), "
         "second=Series(p=2, vars=2, D=3, 1 terms))"),
        (TieSegment, ((1, 0), (0, 1), (1, -1, 0), (Fraction(0), Fraction(0)), (1, 1),
                      None, None),
         "TieSegment(first=(1, 0), second=(0, 1), line=(1, -1, 0), "
         "base=(Fraction(0, 1), Fraction(0, 1)), direction=(1, 1), t_lo=None, t_hi=None)"),
        (ValuationProfile, (Fraction(5, 31), Fraction(9, 31)),
         "ValuationProfile(v_xi=Fraction(5, 31), v_eta=Fraction(9, 31))"),
        (RamificationReport, (3, 2, 3, 121, Fraction(5, 121), Fraction(14, 121), 1, 1),
         "RamificationReport(p=3, h1=2, h2=3, degree=121, v_xi=Fraction(5, 121), "
         "v_eta=Fraction(14, 121), witness_h1=1, witness_h2=1)"),
    ]}


@pytest.mark.parametrize("name", [
    "HeightPair", "Violation", "Report", "LubinTateGroup", "SeriesPair", "TieSegment",
    "ValuationProfile", "RamificationReport",
    "Copolygon"])
def test_records_are_frozen_values(name):
    cls, args, text = _records()[name]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a.__eq__(args) is NotImplemented and a != args
    try:
        hash(args)
    except TypeError:  # a Series field is unhashable, so the record is too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == text
    # vars() is exactly the fields, in order: the torsion JSON keys come from it
    assert list(vars(a)) == list(cls._fields)
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    # every field, in order, is the one way in
    for call in ((args[:-1], {}), (args[:-1], {cls._fields[-1]: args[-1]}),
                 ((), dict(zip(cls._fields, args))), (args, {field: getattr(b, field)})):
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*call[0], **call[1])
    if name == "HeightPair":
        with pytest.raises(ValueError):
            cls(2, 4)


def test_one_frozen_value_idiom():
    """Every class a `lubintate2d` module defines, but exceptions and the
    power cache `_Powers`, is a frozen value."""
    import importlib
    import pkgutil

    import lubintate2d
    from lubintate2d.padics import _Record
    from lubintate2d.series import Series

    classes = {}
    for info in pkgutil.iter_modules(lubintate2d.__path__):
        module = importlib.import_module(f"lubintate2d.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                    and obj.__name__ != "_Powers"):
                classes[obj.__name__] = obj
    for cls in classes.values():
        assert issubclass(cls, _Record), cls
        if cls is not _Record:  # immutability comes from the base alone
            assert not {"__setattr__", "__delattr__"} & vars(cls).keys(), cls
        if cls not in (_Record, Padic, Series):  # so do equality and hash, but for two
            assert not {"__eq__", "__hash__"} & vars(cls).keys(), cls
    samples = {name: cls(*args) for name, (cls, args, _) in _records().items()}
    samples.update(Padic=Padic(2, 0, 1), Series=Series.zero(2, 2, 3))
    assert set(samples) == set(classes) - {"_Record"}
    for value in samples.values():
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, "extra", None)
