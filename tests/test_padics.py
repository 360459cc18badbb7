import random
from fractions import Fraction

import pytest

from lubintate2d.padics import (
    DEFAULT_PRECISION,
    Padic,
    PrecisionError,
    UnramifiedRing,
    _powers,
    _raw_add,
    int_valuation,
    is_irreducible_mod_p,
    is_prime,
    minimal_irreducible,
    teichmuller,
)


def test_int_valuation():
    assert int_valuation(12, 2) == 2
    assert int_valuation(12, 3) == 1
    assert int_valuation(-8, 2) == 3
    assert int_valuation(7, 5) == 0
    with pytest.raises(ValueError):
        int_valuation(0, 2)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_construction_canonicalizes_unit():
    a = Padic(2, 0, 12, 8)  # 12 = 2^2 * 3
    assert a.val == 2
    assert a.unit == 3
    assert a.prec == 6  # absolute precision preserved


def test_exact_zero_sentinel():
    z = Padic.zero(3)
    assert z.is_zero
    assert z.valuation is None
    assert Padic.from_int(3, 0).is_zero
    # a unit all of whose known digits vanish collapses to zero
    assert Padic(2, 0, 8, 3).is_zero


def test_add_and_sub_basics():
    one = Padic.from_int(2, 1)
    two = Padic.from_int(2, 2)
    assert one + two == Padic.from_int(2, 3)
    assert (one + Padic.from_int(2, -1)).is_zero
    assert one * two == Padic(2, 1, 1)
    assert two.valuation == 1


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
    half = Padic.from_fraction(2, Fraction(1, 2))
    assert half.valuation == -1
    assert half.unit == 1
    assert half.to_fraction() == Fraction(1, 2)
    c = Padic.from_fraction(3, Fraction(-7, 9))
    assert c.valuation == -2
    assert c.to_fraction() == Fraction(-7, 9)


def test_eq_uses_min_shared_precision():
    a = Padic(2, 0, 1, 60)
    b = Padic(2, 0, 1 + 2**50, 50)
    c = Padic(2, 0, 1 + 2**40, 50)
    assert a == b  # units agree modulo 2^50
    assert a != c
    assert a != Padic.zero(2)


def test_division_errors():
    with pytest.raises(ValueError):
        Padic.one(2) * Padic.one(3)


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
        raw = _raw_add(_powers(p), (a.val, a.unit, a.prec), (b.val, b.unit, b.prec))
        assert (s.val, s.unit, s.prec) == raw
        cancelled += s.is_zero and not (a.is_zero or b.is_zero)
    assert cancelled >= 100


def test_mul_valuation_additivity_random():
    rng = random.Random(402)
    for p in (2, 3, 5):
        for _ in range(200):
            m = rng.randrange(-(10**6), 10**6)
            n = rng.randrange(-(10**6), 10**6)
            if m == 0 or n == 0:
                continue
            a = Padic.from_int(p, m)
            b = Padic.from_int(p, n)
            assert (a * b).valuation == a.valuation + b.valuation
            s = a + b
            if not s.is_zero:
                assert s.valuation >= min(a.valuation, b.valuation)
            assert (a * b).to_fraction() == m * n or abs(m * n) > p**40


def test_minimal_irreducible_frozen():
    # frozen first-in-lex-order moduli, verified reducible predecessors below
    assert minimal_irreducible(2, 1) == (0, 1)
    assert minimal_irreducible(3, 2) == (1, 0, 1)
    assert minimal_irreducible(2, 5) == (1, 0, 1, 0, 0, 1)


def brute_force_irreducible(poly, p):
    """Check irreducibility by trial division over F_p; degrees stay tiny."""

    def poly_eval_divide(f, g):
        # does g divide f over F_p? long division remainder test
        f = list(f)
        ginv = pow(g[-1], -1, p)
        while len(f) >= len(g) and any(f):
            while f and f[-1] == 0:
                f.pop()
            if len(f) < len(g):
                break
            c = f[-1] * ginv % p
            shift = len(f) - len(g)
            for j, gj in enumerate(g):
                f[shift + j] = (f[shift + j] - c * gj) % p
        return not any(f)

    h = len(poly) - 1
    for d in range(1, h // 2 + 1):
        for code in range(p**d):
            coeffs = []
            c = code
            for _ in range(d):
                coeffs.append(c % p)
                c //= p
            g = tuple(coeffs) + (1,)
            if poly_eval_divide(poly, g):
                return False
    return True


def test_is_irreducible_matches_brute_force():
    for p, h in ((2, 4), (2, 5), (3, 3), (5, 2)):
        for code in range(p**h):
            coeffs = []
            c = code
            for _ in range(h):
                coeffs.append(c % p)
                c //= p
            poly = tuple(coeffs) + (1,)
            assert is_irreducible_mod_p(poly, p) == brute_force_irreducible(poly, p), poly


def test_unramified_ring_modulus_is_satisfied():
    ring = UnramifiedRing(2, 5, prec=16)
    g = ring.generator()
    assert g**5 == ring.element([-1, 0, -1])  # x^5 = -x^2 - 1


def test_unramified_arithmetic():
    ring = UnramifiedRing(3, 2, prec=8)
    a = ring.element([1, 2])
    b = ring.element([2, 1])
    # (1 + 2x)(2 + x) = 2 + 5x + 2x^2, and x^2 = -1 for modulus x^2 + 1
    assert a * b == ring.element([0, 5])
    assert a * ring.one() == a


def test_teichmuller_5adic_frozen():
    # oracle: iterate x -> x^5 mod 5^4 from 2 until fixed
    x = 2
    while pow(x, 5, 5**4) != x:
        x = pow(x, 5, 5**4)
    assert x == 182  # frozen
    ring = UnramifiedRing(5, 1, prec=4)
    w = teichmuller(ring, 2)
    assert w.coeffs == (182,)
    assert w**4 == ring.one()


def test_teichmuller_binary_degree_five():
    ring = UnramifiedRing(2, 5, prec=16)
    w = teichmuller(ring, ring.generator())
    assert w.reduce_mod_p() == (0, 1, 0, 0, 0)
    assert w**31 == ring.one()
    assert w != ring.one()
    # 31 is prime, so any nontrivial 31st root of unity generates
    assert (w**5) ** 31 == ring.one()


def test_teichmuller_of_one_is_one():
    ring = UnramifiedRing(7, 2, prec=6)
    assert teichmuller(ring, 1) == ring.one()
    with pytest.raises(ValueError):
        teichmuller(ring, 0)


def test_teichmuller_qth_power_stability():
    rng = random.Random(77)
    for p, h in ((3, 2), (2, 3)):
        ring = UnramifiedRing(p, h, prec=12)
        q = p**h
        for _ in range(10):
            coeffs = [rng.randrange(p) for _ in range(h)]
            if all(c == 0 for c in coeffs):
                continue
            w = teichmuller(ring, coeffs)
            assert w**q == w
            assert w.reduce_mod_p() == tuple(coeffs)


def test_precision_floor():
    with pytest.raises(PrecisionError):
        Padic(2, 0, 1, 0)
    assert Padic.one(2, 1).prec == 1


def _records():
    from lubintate2d.copolygon import Copolygon, TieSegment
    from lubintate2d.lubintate import HeightPair, LubinTateGroup, Report, Violation, build_group
    from lubintate2d.padics import UnramifiedElement
    from lubintate2d.series import Series, SeriesPair
    from lubintate2d.torsion import (PTorsionReport, RamificationReport, SymbolicPoint,
                                     ValuationProfile)

    s = Series.from_coeffs(2, 2, 3, {(1, 0): 1})
    group = build_group(2, (1, 2), 3)
    point = SymbolicPoint("zeta", "p^(1/3)")
    ring = UnramifiedRing(2, 2, prec=4)
    # (class, constructor arguments, repr: the dataclass form for the first ten)
    return {cls.__name__: (cls, args, text) for cls, args, text in [
        (HeightPair, (2, 3), "HeightPair(h1=2, h2=3)"),
        (UnramifiedRing, (2, 5, 16), "UnramifiedRing(p=2, degree=5, prec=16)"),
        (UnramifiedElement, (ring, (1, 3)),
         "UnramifiedElement(ring=UnramifiedRing(p=2, degree=2, prec=4), coeffs=(1, 3))"),
        (Copolygon, (((1, 0, 3), (0, 1, Fraction(1, 2)), (1, 0, 0)),),
         "Copolygon(functionals=((0, 1, Fraction(1, 2)), (1, 0, Fraction(0, 1))))"),
        (Violation, (1, (2, 3), "recursion"),
         "Violation(component=1, exponents=(2, 3), check='recursion', detail='')"),
        (Report, (), "Report(violations=())"),
        (LubinTateGroup, (2, HeightPair(1, 2), 3, 64, group.logarithm, group.exponential),
         "LubinTateGroup(p=2, heights=HeightPair(h1=1, h2=2), degree=3, prec=64, "
         "logarithm=SeriesPair(first=Series(p=2, vars=2, D=3, 2 terms), "
         "second=Series(p=2, vars=2, D=3, 1 terms)), "
         "exponential=SeriesPair(first=Series(p=2, vars=2, D=3, 2 terms), "
         "second=Series(p=2, vars=2, D=3, 1 terms)))"),
        (SeriesPair, (s, s), "SeriesPair(first=Series(p=2, vars=2, D=3, 1 terms), "
         "second=Series(p=2, vars=2, D=3, 1 terms))"),
        (TieSegment, ((1, 0), (0, 1), (1, -1, 0), (Fraction(0), Fraction(0)), (1, 1)),
         "TieSegment(first=(1, 0), second=(0, 1), line=(1, -1, 0), "
         "base=(Fraction(0, 1), Fraction(0, 1)), direction=(1, 1), t_lo=None, t_hi=None)"),
        (ValuationProfile, (Fraction(5, 31), Fraction(9, 31)),
         "ValuationProfile(v_xi=Fraction(5, 31), v_eta=Fraction(9, 31))"),
        (SymbolicPoint, ("zeta", "p^(1/3)"), "SymbolicPoint(xi='zeta', eta='p^(1/3)')"),
        (PTorsionReport, (3, 2, 3, Fraction(5, 121), Fraction(14, 121), True, True,
                          6534, 243, "in", point),
         "PTorsionReport(p=3, h1=2, h2=3, v_xi=Fraction(5, 121), v_eta=Fraction(14, 121), "
         "identity_first=True, identity_second=True, family_size=6534, torsion_count=243, "
         "hypothesis_status='in', sample=SymbolicPoint(xi='zeta', eta='p^(1/3)'))"),
        (RamificationReport, (3, 2, 3, 121, Fraction(5, 121), Fraction(14, 121), 1, 1),
         "RamificationReport(p=3, h1=2, h2=3, degree=121, v_xi=Fraction(5, 121), "
         "v_eta=Fraction(14, 121), witness_h1=1, witness_h2=1)"),
    ]}


@pytest.mark.parametrize("name", [
    "HeightPair", "Violation", "Report", "LubinTateGroup", "SeriesPair", "TieSegment",
    "ValuationProfile", "SymbolicPoint", "PTorsionReport", "RamificationReport",
    "Copolygon", "UnramifiedRing", "UnramifiedElement"])
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
    if args:
        with pytest.raises(TypeError):  # a field given twice
            cls(*args, **{field: getattr(b, field)})
    if name == "HeightPair":
        with pytest.raises(ValueError):
            cls(2, 4)
    if name == "UnramifiedRing":
        assert a.pk == 2**16 and list(vars(a)) == ["p", "degree", "prec", "pk"]
        with pytest.raises(ValueError):
            cls(4, 2)


def test_one_frozen_value_idiom():
    """Every class a `lubintate2d` module defines, but exceptions, the power
    cache `_Powers` and the argument parser `_Parser`, is a frozen value."""
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
                    and obj.__name__ not in ("_Powers", "_Parser")):
                classes[obj.__name__] = obj
    own = (_Record, Padic, Series)
    for cls in classes.values():
        assert issubclass(cls, _Record) or cls in own, cls
        if cls not in own:  # equality, hash and immutability come from the base
            assert not {"__setattr__", "__delattr__", "__eq__", "__hash__"} & vars(cls).keys(), cls
    samples = {name: cls(*args) for name, (cls, args, _) in _records().items()}
    samples.update(Padic=Padic.one(2), Series=Series.zero(2, 2, 3))
    assert set(samples) == set(classes) - {"_Record"}
    for value in samples.values():
        field = (getattr(value, "_fields", None) or type(value).__slots__)[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, "extra", None)
