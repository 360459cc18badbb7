"""The unramified ring of `unramified`, the tests' oracle for
`lubintate.gamma_endomorphism`, checked in turn: its moduli, its
arithmetic and its Teichmuller lifts."""

import random

import pytest

from lubintate2d.padics import Padic, PrecisionError
from unramified import (
    UnramifiedRing,
    _poly_mod,
    _poly_mulmod,
    _poly_powmod,
    is_irreducible_mod_p,
    minimal_irreducible,
    monic_polynomials,
    teichmuller,
)


def test_minimal_irreducible_frozen():
    # frozen first-in-lex-order moduli, verified reducible predecessors below
    assert minimal_irreducible(2, 1) == (0, 1)
    assert minimal_irreducible(3, 2) == (1, 0, 1)
    assert minimal_irreducible(2, 5) == (1, 0, 1, 0, 0, 1)


def test_is_irreducible_matches_brute_force():
    # the reducible monic polynomials are exactly the products of two monic
    # factors of positive degree: built by multiplying, not by dividing
    for p, h in ((2, 4), (2, 5), (3, 3), (5, 2), (2, 6), (3, 4), (7, 2)):
        wide = (0,) * (h + 1) + (1,)  # x^(h+1): reduces no product of degree h
        products = {_poly_mulmod(g, k, wide, p) for d in range(1, h // 2 + 1)
                    for g in monic_polynomials(p, d) for k in monic_polynomials(p, h - d)}
        reducible = {f for f in monic_polynomials(p, h) if not is_irreducible_mod_p(f, p)}
        assert reducible == products, (p, h)


def test_unramified_ring_modulus_is_satisfied():
    ring = UnramifiedRing(2, 5, 16)
    g = ring.generator()
    assert g**5 == ring.element([-1, 0, -1])  # x^5 = -x^2 - 1


def test_unramified_arithmetic():
    ring = UnramifiedRing(3, 2, 8)
    a = ring.element([1, 2])
    b = ring.element([2, 1])
    # (1 + 2x)(2 + x) = 2 + 5x + 2x^2, and x^2 = -1 for modulus x^2 + 1
    assert a * b == ring.element([0, 5])
    assert a * ring.one() == a
    for x in (a, b, ring.element([])):  # powers are repeated products, zero included
        product = ring.one()
        for e in range(ring.p**ring.degree + 1):
            assert x**e == product, (x, e)
            product = product * x


def _naive_mod(a, b, m):
    """a modulo b, of degree at least 1, over Z/m as the sum of a_i (x^i mod b),
    each x^i mod b one shift of x^(i-1) mod b: no long division."""
    b = list(b)
    while not b[-1]:
        b.pop()
    n = len(b) - 1
    inv = pow(b[-1], -1, m)
    power = [1] + [0] * (n - 1)  # x^0 mod b
    out = [0] * n
    for c in a:
        out = [(o + c * x) % m for o, x in zip(out, power)]
        top = power[-1]  # x^n = -(b_0 + ... + b_{n-1} x^{n-1}) / b_n
        power = [(x - top * inv * bj) % m for x, bj in zip([0] + power[:-1], b)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _naive_mulmod(a, b, mod, m):
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _naive_mod([c % m for c in prod], mod, m)


def test_poly_helpers_match_a_naive_reference():
    """`_poly_mod`, `_poly_mulmod` and `_poly_powmod` over Z/p^k, on moduli
    that are monic or lead with another unit, and on inputs and moduli
    with trailing zeros."""
    rng = random.Random(5077)
    seen = {"unit": 0, "monic": 0, "trailing": 0}
    for _ in range(600):
        p = rng.choice((2, 3, 5))
        m = p ** rng.choice((1, 2, 3, 5))
        lead = rng.choice((1, rng.choice([u for u in range(2, p * m) if u % p])))
        mod = [rng.randrange(m) for _ in range(rng.randrange(1, 5))] + [lead]
        a, b = ([rng.randrange(m) for _ in range(rng.randrange(1, 10))] for _ in range(2))
        for f in (mod, a, b):
            if rng.random() < 0.3:
                f += [0] * rng.randrange(1, 3)
                seen["trailing"] += 1
        seen["monic" if lead == 1 else "unit"] += 1
        assert _poly_mod(tuple(a), tuple(mod), m) == _naive_mod(a, mod, m)
        assert _poly_mulmod(tuple(a), tuple(b), tuple(mod), m) == _naive_mulmod(a, b, mod, m)
        e = rng.randrange(0, 12)
        want = (1,)
        for _ in range(e):
            want = _naive_mulmod(want, b, mod, m)
        assert _poly_powmod(tuple(b), e, tuple(mod), m) == want
    assert min(seen.values()) >= 150


def test_teichmuller_5adic_frozen():
    # oracle: iterate x -> x^5 mod 5^4 from 2 until fixed
    x = 2
    while pow(x, 5, 5**4) != x:
        x = pow(x, 5, 5**4)
    assert x == 182  # frozen
    ring = UnramifiedRing(5, 1, 4)
    w = teichmuller(ring, 2)
    assert w.coeffs == (182,)
    assert w**4 == ring.one()


def test_teichmuller_binary_degree_five():
    ring = UnramifiedRing(2, 5, 16)
    w = teichmuller(ring, ring.generator())
    assert w.reduce_mod_p() == (0, 1, 0, 0, 0)
    assert w**31 == ring.one()
    assert w != ring.one()
    # 31 is prime, so any nontrivial 31st root of unity generates
    assert (w**5) ** 31 == ring.one()


def test_teichmuller_of_one_is_one():
    ring = UnramifiedRing(7, 2, 6)
    assert teichmuller(ring, 1) == ring.one()
    with pytest.raises(ValueError):
        teichmuller(ring, 0)


def test_teichmuller_qth_power_stability():
    rng = random.Random(77)
    for p, h in ((3, 2), (2, 3)):
        ring = UnramifiedRing(p, h, 12)
        q = p**h
        for _ in range(10):
            coeffs = [rng.randrange(p) for _ in range(h)]
            if all(c == 0 for c in coeffs):
                continue
            w = teichmuller(ring, coeffs)
            assert w**q == w
            assert w.reduce_mod_p() == tuple(coeffs)


def test_scalars_and_rings_share_one_precision_floor():
    with pytest.raises(PrecisionError) as scalar:
        Padic(2, 0, 1, 0)
    with pytest.raises(PrecisionError) as ring:
        UnramifiedRing(2, 5, 0)
    assert str(ring.value) == str(scalar.value) == "relative precision must be at least 1"


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: UnramifiedRing(2, 0, 4), ValueError, "degree must be positive",
                 id="ring-degree-0"),
    pytest.param(lambda: UnramifiedRing(2, 2, 4).element([1, 0, 1]), ValueError,
                 "too many coefficients", id="element-too-long"),
    pytest.param(lambda: UnramifiedRing(2, 1, 4).generator(), ValueError,
                 "generator needs degree >= 2; use element", id="generator-degree-1"),
    pytest.param(lambda: UnramifiedRing(2, 2, 4).one() * UnramifiedRing(2, 2, 5).one(),
                 ValueError, "elements of different rings", id="product-of-two-rings"),
    pytest.param(lambda: UnramifiedRing(2, 2, 4).generator() ** -1, ValueError,
                 "negative powers not supported in the integer ring", id="negative-power"),
    pytest.param(lambda: is_irreducible_mod_p((1, 1, 2), 3), ValueError,
                 "expected a monic polynomial of positive degree", id="not-monic"),
])
def test_input_guards(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message
