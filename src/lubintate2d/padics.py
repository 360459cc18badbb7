"""Exact capped-precision p-adic scalars, with the frozen-value base, the
parameter checks, the cross-Frobenius system, the num/den form of a
rational and the grlex order of exponent tuples that every module shares.

A nonzero value is p**val * unit, the unit coprime to p and known modulo
p**prec; `series` keeps it as (val, unit, cap) with cap = val + prec.
Valuations are exact integers, negative allowed; exact zero is a separate
sentinel.  Addition recomputes the valuation by carrying, so cancellation
surfaces as a loss of recorded precision instead of a silently wrong digit;
two values are equal when their difference keeps none.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd

DEFAULT_PRECISION = 64


class PrecisionError(ArithmeticError):
    """A result has no trustworthy digit left at the working precision."""


class _Record:
    """A frozen value with named fields: equality, hash and repr over them.

    A subclass names its fields in `_fields`, in constructor order, and may
    validate or normalise a new instance in `_check`.  An instance is built
    from every field, passed in that order; any other call is a TypeError.
    The fields fill the instance `__dict__` in field order, beside anything
    a `cached_property` stores there later.  Assigning or deleting an
    attribute raises AttributeError.
    """

    _fields = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}, in order")
        self.__dict__.update(zip(self._fields, args))
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
    """Miller-Rabin on the primes to 37, exact below psi_12 (Sorenson and
    Webster, Math. Comp. 86, 2017).  From psi_12 on these bases cannot tell
    a prime from a strong pseudoprime, so an n that passes them is refused."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in bases:  # a witness: x = a^d is not 1, and no x^(2^r), r < s, is -1
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    if n >= (psi_12 := 318665857834031151167461):  # the least that passes them all
        raise ValueError(f"primality of {n} is undecided: Miller-Rabin is exact only below "
                         f"psi_12 = {psi_12}")
    return True


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 == 2 must not hit 2's entry
def _check_prime(p: int) -> None:
    """The one prime check behind every entry point that takes p, `Padic`
    and `series.Series` included; cached, as they call it on every build.
    A p that is not an int is refused too: a float p makes float units."""
    if type(p) is not int or not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _check_precision(prec: int) -> None:
    """The one floor on a relative precision."""
    if prec < 1:
        raise PrecisionError("relative precision must be at least 1")


def cross_frobenius(p: int, heights) -> tuple:
    """The group's functional equation, stated once: the table p*X + M(Delta)X
    = (p*x1 + x2^(p^h1), p*x2 + x1^(p^h2)), one {exponents: int coefficient}
    dict per component, the linear monomial, then the Frobenius one.  If
    component i's Frobenius monomial is x_j^q, then L_i = x_i + p^-1 L_j(X^q)
    and [p]_F,i = x_j^q mod p (Honda 1970; Hazewinkel 1978, sections 20-21)."""
    _check_prime(p)
    hs = _as_heights(heights)
    return {(1, 0): p, (0, p**hs.h1): 1}, {(0, 1): p, (p**hs.h2, 0): 1}


def _check_reach(p: int, heights, degree: int, name: str = "truncation degree") -> None:
    """The one rule that a truncation can show the height h1 + h2: it keeps
    every monomial of `cross_frobenius`, so D >= max(p^h1, p^h2)."""
    need = max(sum(e) for comp in cross_frobenius(p, heights) for e in comp)
    if degree < need:
        raise ValueError(f"{name} {degree} drops a Frobenius monomial: need at least {need}")


class HeightPair(_Record):
    _fields = ("h1", "h2")

    def _check(self):
        if not (type(self.h1) is int and type(self.h2) is int):
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


def fraction_str(q) -> str:
    """Render an int or Fraction as num/den, denominator always present."""
    return f"{q.numerator}/{q.denominator}"


def grlex(exponents):
    """Graded-lexicographic sort key."""
    return (sum(exponents), exponents)


class _Powers(dict):
    """p**k by k, each power computed on first use.

    Lazily, because a command reads few of them: `lt2d -N 5000 group -p 2
    --h1 2 --h2 3 -D 9` fills 10 entries (k up to 7, and 4997 to 5000),
    while a table filled through k = N holds about N**2 * log2(p) / 2 bits,
    some 1.5 MB there.  The pair loop of `series_ops._accumulate` reads a
    power only where two valuations differ; a plain dict, which it would
    read faster, needs a bound on the largest k a call can ask for, and no
    caller computes one yet.
    """

    def __init__(self, p: int):
        super().__init__({0: 1, 1: p})

    def __missing__(self, k):
        self[k] = power = self[1] ** k
        return power


@cache
def _powers(p: int) -> _Powers:
    return _Powers(p)


def _raw_add(pk: _Powers, a, b):
    """The sum rule of `Padic` on (val, unit, cap) triples; pk = _powers(p).

    Triples are canonical: a unit is coprime to p and reduced modulo
    p**(cap - val), and unit 0 is the exact zero.  The sum is known to the
    smaller cap.  A sum that cancels below its known digits is an exact
    zero that keeps the relative precision of the operand of smaller
    valuation (the first one on a tie) and nothing of its cap, so the
    result of a chain of sums depends on the order in which it is taken.
    `series_ops._accumulate` inlines it for speed; a test binds the two.
    """
    if not a[1]:
        return b
    if not b[1]:
        return a
    if b[0] < a[0]:
        a, b = b, a
    val, unit, cap = a
    if b[0] >= cap:
        # b lies wholly below the known digits of a
        return a
    if b[2] < cap:
        cap = b[2]
    s = (unit + b[1] * pk[b[0] - val]) % pk[cap - val]
    if not s:
        # cancelled below the known digits: exact zero at a's precision
        return (0, 0, a[2] - val)
    p = pk[1]
    while not s % p:
        s //= p
        val += 1
    return (val, s, cap)


class Padic(_Record):
    """A p-adic number at capped relative precision: the boundary type.

    Scalars enter and leave the library as `Padic` values, a rational as
    its valuation and unit: 1/2 over Z_2 is ``Padic(2, -1, 1)``, and an int
    n known modulo p**prec is ``Padic(p, 0, n, prec)``.  Inside, `series`
    computes on (val, unit, val + prec) triples with the sum rule of
    `_raw_add`.  The constructor normalises its arguments, so it replaces
    the one of `_Record`.  Nonzero values are canonical: ``unit``
    is coprime to p and reduced to the range [1, p**prec); a factor p**k of
    the given unit moves into ``val`` and off ``prec``, keeping val + prec.
    The exact zero has ``unit == 0`` and no valuation; a relative precision
    below 1 is a `PrecisionError`.  Two values over one prime compare equal
    when no digit of self + (-other) survives the sum rule, the one rule
    `Series.__eq__` applies too; values over two primes differ.  ``+`` and
    ``*`` take only a `Padic` over the same prime; they are the scalar
    reference the tests check the series kernels against, and no library
    code calls them.
    """

    _fields = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit: int, prec: int = DEFAULT_PRECISION):
        _check_prime(p)
        _check_precision(prec)
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
        self.__dict__.update(p=p, val=val, unit=unit, prec=prec)

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
        val, unit, cap = _raw_add(_powers(self.p), (self.val, self.unit, self.val + self.prec),
                                  (other.val, other.unit, other.val + other.prec))
        return Padic(self.p, val, unit, cap - val)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Padic(self.p, 0, 0, min(self.prec, other.prec))
        m = min(self.prec, other.prec)
        return Padic(self.p, self.val + other.val, (self.unit * other.unit) % self.p**m, m)

    __rmul__ = __mul__

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Padic):
            return NotImplemented
        if other.p != self.p:
            return False
        pk = _powers(self.p)
        return not _raw_add(pk, (self.val, self.unit, self.val + self.prec),
                            (other.val, -other.unit % pk[other.prec], other.val + other.prec))[1]

    __hash__ = None

    def balanced_unit(self) -> int:
        """Symmetric representative of the unit, handy for display."""
        if self.unit == 0:
            return 0
        pk = self.p**self.prec
        return self.unit if self.unit <= pk // 2 else self.unit - pk

    def __repr__(self):
        if self.is_zero:
            return f"Padic({self.p}, 0)"
        return f"Padic({self.p}, {self.p}^{self.val} * {self.balanced_unit()} + O({self.p}^{self.val + self.prec}))"
