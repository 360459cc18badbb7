"""Sparse truncated multivariate power series over p-adic scalars.

Terms live in a dict keyed by exponent tuples; every monomial past the
truncation degree is dropped eagerly and exact-zero coefficients are never
stored.  A `Series` is a frozen `padics._Record`, so series can be shared
freely.

A coefficient is stored as a canonical (val, unit, cap) integer triple,
p**val * unit known modulo p**cap: the unit is coprime to p and reduced
modulo p**(cap - val), the relative precision a `Padic` keeps.  Only this
module, with its second half `series_ops`, and `padics` know that.  Values
enter only through `Series.from_coeffs`, which reads them through `Padic`,
and leave only through `coefficient`, as a `Padic`; other modules read
`terms` for its keys alone.  Every sum applies `padics._raw_add`, the sum
rule of `Padic`, to these triples: sums call it, and products, scalings
and substitutions inline it.  None builds a `Padic`.  Two series agree
(`==`) when no term of their difference survives the sum rule, the rule
by which the verifiers list where two series differ.

This module holds `Series`.  The packed-key kernels from `_pack` to
`_substitute_each`, `SeriesPair`, `compose`, `linear_defects`,
`invert_pair` and the text container live in `series_ops`, which this
module imports last and re-exports name by name, so `series.compose` and
`from .series import compose` still work.  The notes below describe both
halves.  Evaluation at a point is a test-side check
(tests/paper_checks.py).

A product (`_accumulate`) visits only the pairs of terms whose degrees fit
the truncation: each distinct room left by a left term gets one row of the
right factor's fitting terms, in dict order, so the pairs come in the
order of the full double loop over both dicts.  A coefficient being summed
is held as (val, x, cap), p**val * x known modulo p**cap: a pair costs one
multiply-add and one reduction modulo p**(cap - val), and `_settle` finds
each surviving term's valuation once, at the end.  The order of the pairs
is part of the result: a partial sum that cancels to 0 modulo its cap
becomes an exact zero and forgets that cap, as in a chain of `_raw_add`.

Inside products and compositions an exponent tuple is one int, its packed
key: the digits, in radix D+1, of the total degree and then of each
exponent.  A kept term has degree at most D, so no digit carries: a
product term's key is the sum of its factors' keys (`_pack`, `_unpack`).

A composition walks the union of its outer series' monomials once, in
grlex order (`_substitute_each`; `Series.substitute` is the case of one
outer series).  Each monomial's product of inner powers is built once and
added into every outer series that has the monomial, so each output meets
its terms in the order of its own grlex walk.  The powers and products
are triple dicts, each built only through the working truncation that can
still reach the output: D minus the lowest degrees of the factors it is
still to be multiplied by.  A term of degree t in a product comes only
from pairs whose degrees sum to t, so it needs nothing of either factor
past that bound.  Its pairs, and the first-hit order of the terms kept,
are those of the product at full degree D, so every kept coefficient has
the same chain of partial sums.  Terms a factor carries past its bound, as
a power cached at a larger bound does, fit no row and change nothing.
"""

from __future__ import annotations

from collections.abc import Sequence

from .padics import (DEFAULT_PRECISION, Padic, _check_precision, _check_prime, _powers,
                     _raw_add, _Record, grlex)


class Series(_Record):
    _fields = ("p", "nvars", "degree", "terms")

    def _check(self):
        nvars, degree = self.nvars, self.degree
        _check_prime(self.p)
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        clean = {}
        for e, c in self.terms.items():
            e = tuple(e)
            if len(e) != nvars or min(e) < 0:
                raise ValueError(f"bad exponent tuple {e} for {nvars} variables")
            if sum(e) > degree:
                raise ValueError(f"monomial {e} exceeds truncation degree {degree}")
            if type(c) is not tuple:
                raise TypeError("coefficients must be (val, unit, cap) triples; "
                                "use Series.from_coeffs for other values")
            if c[1]:
                if c[2] <= c[0]:
                    _check_precision(c[2] - c[0])  # refuses it: no digit is known
                clean[e] = c
        self.__dict__["terms"] = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p, nvars, degree):
        return cls(p, nvars, degree, {})

    @classmethod
    def variable(cls, p, nvars, degree, index, prec=DEFAULT_PRECISION):
        e = tuple(1 if i == index else 0 for i in range(nvars))
        return cls.from_coeffs(p, nvars, degree, {e: 1}, prec)

    @classmethod
    def from_coeffs(cls, p, nvars, degree, coeffs, prec=DEFAULT_PRECISION):
        """Build from {exponents: int | Fraction | Padic}, an int known
        modulo p^prec and a Fraction at relative precision `prec`
        (`Padic.from_int`, `Padic.from_fraction`); the one way in for such
        values."""
        terms = {}
        for e, c in coeffs.items():
            if isinstance(c, int):
                c = Padic.from_int(p, c, prec)
            elif not isinstance(c, Padic):
                c = Padic.from_fraction(p, c, prec)
            if c.p != p:
                raise ValueError("coefficient prime mismatch")
            terms[e] = (c.val, c.unit, c.val + c.prec)
        return cls(p, nvars, degree, terms)

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms, key=grlex)

    def coefficient(self, e) -> Padic:
        t = self.terms.get(tuple(e))
        return Padic.zero(self.p) if t is None else Padic(self.p, t[0], t[1], t[2] - t[0])

    def min_total_degree(self):
        """Least total degree with a nonzero term, or None for zero."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def min_valuation(self):
        """Least coefficient valuation, or None for zero."""
        if not self.terms:
            return None
        return min(v for v, _, _ in self.terms.values())

    def units_mod_p(self) -> dict:
        """Reduction modulo p: {exponents: unit % p} over valuation-0 terms.

        Requires every coefficient to be integral.
        """
        out = {}
        for e, (v, unit, _) in self.terms.items():
            if v < 0:
                raise ValueError(f"coefficient at {e} has negative valuation {v}")
            if v == 0:
                u = unit % self.p
                if u:
                    out[e] = u
        return out

    # -- ring operations ---------------------------------------------------

    def _same_shape(self, other):
        if not isinstance(other, Series):
            raise TypeError("expected a Series")
        if (other.p, other.nvars, other.degree) != (self.p, self.nvars, self.degree):
            raise ValueError("series shape mismatch (prime, variables, degree)")

    def __add__(self, other):
        self._same_shape(other)
        pk = _powers(self.p)
        acc = dict(self.terms)
        for e, t in other.terms.items():
            cur = acc.get(e)
            acc[e] = t if cur is None else _raw_add(pk, cur, t)
        return Series(self.p, self.nvars, self.degree, acc)

    def __neg__(self):
        pk = _powers(self.p)
        return Series(self.p, self.nvars, self.degree,
                      {e: (v, -u % pk[c - v], c) for e, (v, u, c) in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_shape(other)
        radix = self.degree + 1
        out = _mul_triples(_powers(self.p), _pack(self.terms, radix), _pack(other.terms, radix),
                           self.degree, radix**self.nvars)
        return Series(self.p, self.nvars, self.degree, _unpack(out, self.nvars, radix))

    def scale(self, c) -> "Series":
        """c times the series: the product with c as a constant series, an
        int or Fraction c read by `from_coeffs` at the default precision."""
        return self * Series.from_coeffs(self.p, self.nvars, self.degree, {(0,) * self.nvars: c})

    # -- reshaping ----------------------------------------------------------

    def truncate(self, degree: int) -> "Series":
        if degree > self.degree:
            raise ValueError("cannot extend a truncated series")
        return Series(self.p, self.nvars, degree,
                      {e: c for e, c in self.terms.items() if sum(e) <= degree})

    def raise_vars(self, q: int) -> "Series":
        """Substitute x_i -> x_i**q for every variable."""
        if q < 1:
            raise ValueError("exponent must be positive")
        acc = {}
        for e, c in self.terms.items():
            if sum(e) * q <= self.degree:
                acc[tuple(x * q for x in e)] = c
        return Series(self.p, self.nvars, self.degree, acc)

    def embed(self, nvars: int, positions: Sequence[int]) -> "Series":
        """View in a larger variable set; positions maps old index -> new."""
        positions = tuple(positions)
        if len(positions) != self.nvars or len(set(positions)) != len(positions):
            raise ValueError("positions must list a distinct slot per variable")
        if any(i < 0 or i >= nvars for i in positions):
            raise ValueError("position out of range")
        acc = {}
        for e, c in self.terms.items():
            new = [0] * nvars
            for old, pos in enumerate(positions):
                new[pos] = e[old]
            acc[tuple(new)] = c
        return Series(self.p, nvars, self.degree, acc)

    def eliminate_zeros(self, positions: Sequence[int]) -> "Series":
        """Set the listed variables to 0 and drop them from the tuple."""
        drop = set(positions)
        keep = [i for i in range(self.nvars) if i not in drop]
        if not keep:
            raise ValueError("cannot drop every variable")
        acc = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                continue
            acc[tuple(e[i] for i in keep)] = c
        return Series(self.p, len(keep), self.degree, acc)

    # -- substitution --------------------------------------------------------

    def substitute(self, inner: Sequence["Series"]) -> "Series":
        """Plug inner[i] in for variable i; inner series need zero constant
        term so the truncated composite is exact through the shared degree."""
        return _substitute_each((self,), inner)[0]

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        """Same prime, variables and degree, and no term of the difference
        survives the sum rule: the one rule for "two series agree"."""
        if not isinstance(other, Series):
            return NotImplemented
        if (self.p, self.nvars, self.degree) != (other.p, other.nvars, other.degree):
            return False
        return (self - other).is_zero

    __hash__ = None

    def __repr__(self):
        n = len(self.terms)
        return f"Series(p={self.p}, vars={self.nvars}, D={self.degree}, {n} terms)"


# The second half, re-exported: `Series.__mul__` and `substitute` call its
# kernels, and `series_ops` reads `Series` from here, so it comes last.
from .series_ops import (_mul_triples, _pack, _substitute_each, _unpack,  # noqa: E402,F401
                         SeriesPair, compose, dump_sections, invert_pair,
                         linear_defects, parse_sections)
