"""Exact capped-precision p-adic scalars and unramified extension rings,
with the frozen-value base and the parameter checks every module shares.

The scalar model is relative precision: a nonzero value is p**val * unit
with the unit stored modulo p**prec and coprime to p.  Valuations are exact
integers, negative allowed; exact zero is a separate sentinel.  Addition
recomputes the valuation by carrying, so cancellation surfaces as a loss of
recorded precision instead of a silently wrong digit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import gcd

DEFAULT_PRECISION = 64


class PrecisionError(ArithmeticError):
    """A result has no trustworthy digit left at the working precision."""


class _Record:
    """A frozen value with named fields: equality, hash and repr over them.

    A subclass names its fields in `_fields`, in constructor order, the
    defaults of its last fields in `_defaults`, and may validate or
    normalise a new instance in `_check`.  The fields fill the instance
    `__dict__` in field order, beside anything a `cached_property` stores
    there later.  Assigning or deleting an attribute raises AttributeError.
    """

    _fields = ()
    _defaults = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # else all fields are given in order
            if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            values = dict(zip(fields[len(fields) - len(self._defaults):], self._defaults))
            values.update(zip(fields, args), **kwargs)
            if len(values) < len(fields):
                raise TypeError(f"{type(self).__name__} needs all of the fields {fields}")
            args = [values[name] for name in fields]
        self.__dict__.update(zip(fields, args))
        self._check()

    def _check(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_prime(p: int) -> None:
    """The one prime check behind every entry point that takes p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class HeightPair(_Record):
    _fields = ("h1", "h2")

    def _check(self):
        if not (isinstance(self.h1, int) and isinstance(self.h2, int)):
            raise ValueError("heights must be integers")
        if self.h1 < 1 or self.h2 < 1:
            raise ValueError("heights must be positive")
        if gcd(self.h1, self.h2) != 1:
            raise ValueError(f"heights must be coprime, got ({self.h1}, {self.h2})")

    @property
    def total(self) -> int:
        return self.h1 + self.h2


def _as_heights(heights) -> HeightPair:
    if isinstance(heights, HeightPair):
        return heights
    h1, h2 = heights
    return HeightPair(h1, h2)


def int_valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class _Powers(dict):
    """p**k by k, each power computed on first use."""

    def __init__(self, p: int):
        super().__init__({0: 1, 1: p})

    def __missing__(self, k):
        self[k] = power = self[1] ** k
        return power


@cache
def _powers(p: int) -> _Powers:
    return _Powers(p)


def _raw_add(pk: _Powers, a, b):
    """The sum rule of `Padic`, on (val, unit, prec) triples; pk = _powers(p).

    Triples are canonical: a unit is coprime to p and reduced modulo
    p**prec, and unit 0 is the exact zero.  The sum is known to the smaller
    absolute precision of the two.  A sum that cancels below its known
    digits is an exact zero that keeps the precision of the operand of
    smaller valuation (the first one on a tie) and nothing of its cap, so
    the result of a chain of sums depends on the order in which it is taken.
    """
    if not a[1]:
        return b
    if not b[1]:
        return a
    if b[0] < a[0]:
        a, b = b, a
    val, unit, prec = a
    dv = b[0] - val
    if dv >= prec:
        # b lies wholly below the known digits of a
        return a
    m = prec if prec < b[2] + dv else b[2] + dv
    s = (unit + b[1] * pk[dv]) % pk[m]
    if not s:
        # cancelled below the known digits: exact zero at this precision
        return (0, 0, prec)
    p = pk[1]
    while not s % p:
        s //= p
        val += 1
        m -= 1
    return (val, s, m)


class Padic:
    """A p-adic number at capped relative precision: the boundary type.

    Scalars enter and leave the library as `Padic` values; inside, series
    and evaluations compute on the same (val, unit, prec) triples with
    `_raw_add` as the sum rule.  Nonzero values are canonical: ``unit`` is
    coprime to p and reduced to the range [1, p**prec).  The exact zero has
    ``unit == 0`` and no valuation.  Two values compare equal when their
    valuations match and their units agree modulo p to the smaller of the
    two precisions.  ``+`` and ``*`` take only a `Padic` over the same
    prime; they are the scalar reference the tests check the series
    kernels against, and no library code calls them.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit: int, prec: int = DEFAULT_PRECISION):
        if prec < 1:
            raise PrecisionError("relative precision must be at least 1")
        if unit == 0:
            val = 0
        else:
            shift = int_valuation(unit, p)
            if shift:
                if shift >= prec:
                    # every known digit of the unit is zero
                    unit = 0
                    val = 0
                else:
                    val += shift
                    unit //= p**shift
                    prec -= shift
            if unit:
                unit %= p**prec
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value=None):
        raise AttributeError("Padic values are immutable")

    __delattr__ = __setattr__

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int = DEFAULT_PRECISION) -> "Padic":
        return cls(p, 0, 0, prec)

    @classmethod
    def one(cls, p: int, prec: int = DEFAULT_PRECISION) -> "Padic":
        return cls(p, 0, 1, prec)

    @classmethod
    def from_int(cls, p: int, n: int, prec: int = DEFAULT_PRECISION) -> "Padic":
        return cls(p, 0, n, prec)

    @classmethod
    def from_fraction(cls, p: int, q, prec: int = DEFAULT_PRECISION) -> "Padic":
        q = Fraction(q)
        if q == 0:
            return cls.zero(p, prec)
        num, den = q.numerator, q.denominator
        vn = int_valuation(num, p)
        vd = int_valuation(den, p)
        u = (num // p**vn) * pow(den // p**vd, -1, p**prec)
        return cls(p, vn - vd, u, prec)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def valuation(self):
        """Exact valuation, or None for the exact zero."""
        return None if self.unit == 0 else self.val

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Padic):
            if other.p != self.p:
                raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        val, unit, prec = _raw_add(_powers(self.p), (self.val, self.unit, self.prec),
                                   (other.val, other.unit, other.prec))
        return Padic(self.p, val, unit, prec)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Padic.zero(self.p, min(self.prec, other.prec))
        m = min(self.prec, other.prec)
        return Padic(self.p, self.val + other.val, (self.unit * other.unit) % self.p**m, m)

    __rmul__ = __mul__

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.val != other.val:
            return False
        m = min(self.prec, other.prec)
        return (self.unit - other.unit) % self.p**m == 0

    __hash__ = None

    def balanced_unit(self) -> int:
        """Symmetric representative of the unit, handy for display."""
        if self.unit == 0:
            return 0
        pk = self.p**self.prec
        return self.unit if self.unit <= pk // 2 else self.unit - pk

    def to_fraction(self) -> Fraction:
        """Exact value of the balanced representative."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.balanced_unit()) * Fraction(self.p) ** self.val

    def __repr__(self):
        if self.is_zero:
            return f"Padic({self.p}, 0)"
        return f"Padic({self.p}, {self.p}^{self.val} * {self.balanced_unit()} + O({self.p}^{self.val + self.prec}))"


# -- polynomial helpers over F_p (low-degree-first coefficient tuples) ----


def _poly_trim(f):
    d = len(f)
    while d > 0 and f[d - 1] == 0:
        d -= 1
    return tuple(f[:d])


def _poly_mulmod(a, b, mod, p):
    # mod is monic; p may be any modulus (UnramifiedElement passes p**prec)
    if not a or not b:
        return ()
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    h = len(mod) - 1
    for i in range(len(res) - 1, h - 1, -1):
        c = res[i]
        if c == 0:
            continue
        res[i] = 0
        for j in range(h):
            res[i - h + j] = (res[i - h + j] - c * mod[j]) % p
    return _poly_trim(res)


def _poly_powmod_x(e: int, mod, p):
    """x**e modulo (mod, p); mod monic of degree >= 2."""
    result = (1,)
    base = (0, 1)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_mod(a, b, p):
    """Remainder of a modulo the nonzero polynomial b, over F_p."""
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % p
        a = list(_poly_trim(a))
        if not a:
            break
    return tuple(a)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _minus_x(g, p):
    """g(x) - x over F_p."""
    coeffs = list(g) + [0] * max(0, 2 - len(g))
    coeffs[1] = (coeffs[1] - 1) % p
    return _poly_trim(coeffs)


def is_irreducible_mod_p(poly, p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p (Rabin's test)."""
    f = tuple(c % p for c in poly)
    h = len(f) - 1
    if h < 1 or f[-1] != 1:
        raise ValueError("expected a monic polynomial of positive degree")
    if f[0] == 0 and h > 1:
        return False  # divisible by x
    if h == 1:
        return True
    if _minus_x(_poly_powmod_x(p**h, f, p), p):
        return False  # x^{p^h} != x mod f
    for ell in _prime_factors(h):
        g = _minus_x(_poly_powmod_x(p**(h // ell), f, p), p)
        if len(_poly_gcd(g, f, p)) != 1:
            return False
    return True


def minimal_irreducible(p: int, degree: int):
    """Lexicographically least monic irreducible of given degree over F_p.

    Low coefficients enumerate first: the candidate for code c has
    constant coefficient c % p, then the next base-p digit, and so on.
    """
    for code in range(p**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        candidate = tuple(coeffs) + (1,)
        if is_irreducible_mod_p(candidate, p):
            return candidate
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class UnramifiedRing(_Record):
    """Integers of the degree-h unramified extension of Q_p, modulo p**prec.

    Elements are polynomial residues Z[x]/(modulus, p**prec) for the
    lexicographically least monic modulus irreducible modulo p.
    """

    _fields = ("p", "degree", "prec")
    _defaults = (DEFAULT_PRECISION,)

    def _check(self):
        _check_prime(self.p)
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if self.prec < 1:
            raise ValueError("precision must be positive")

    @cached_property
    def pk(self) -> int:
        return self.p**self.prec

    @cached_property
    def modulus(self) -> tuple:
        return minimal_irreducible(self.p, self.degree)

    def element(self, coeffs) -> "UnramifiedElement":
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.degree - len(coeffs))
        return UnramifiedElement(self, tuple(c % self.pk for c in coeffs))

    def one(self) -> "UnramifiedElement":
        return self.element([1])

    def generator(self) -> "UnramifiedElement":
        """Residue class of x; only meaningful for degree >= 2."""
        if self.degree < 2:
            raise ValueError("generator needs degree >= 2; use element")
        return self.element([0, 1])


class UnramifiedElement(_Record):
    _fields = ("ring", "coeffs")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _same_ring(self, other):
        if not isinstance(other, UnramifiedElement) or other.ring != self.ring:
            raise ValueError("elements of different rings")

    def __mul__(self, other):
        self._same_ring(other)
        ring = self.ring
        res = _poly_mulmod(self.coeffs, other.coeffs, ring.modulus, ring.pk)
        return UnramifiedElement(ring, res + (0,) * (ring.degree - len(res)))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers not supported in the integer ring")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def reduce_mod_p(self) -> tuple:
        return tuple(c % self.ring.p for c in self.coeffs)


def teichmuller(ring: UnramifiedRing, residue) -> UnramifiedElement:
    """Teichmuller lift: the unique (p^h - 1)-th root of unity (or zero)
    congruent to the given residue modulo p.

    Computed by iterating the q-power map, q = p^h, to its fixed point;
    each step adds at least one digit of agreement, so ring.prec steps
    suffice.
    """
    if isinstance(residue, UnramifiedElement):
        coeffs = residue.reduce_mod_p()
    elif isinstance(residue, int):
        coeffs = (residue % ring.p,)
    else:
        coeffs = tuple(int(c) % ring.p for c in residue)
    if all(c == 0 for c in coeffs):
        raise ValueError("residue must be nonzero modulo p")
    x = ring.element(coeffs)
    q = ring.p**ring.degree
    for _ in range(ring.prec):
        nxt = x**q
        if nxt == x:
            break
        x = nxt
    if x**q != x:
        raise PrecisionError("Teichmuller iteration failed to stabilize")
    return x

