"""Sparse truncated multivariate power series over p-adic scalars.

Terms live in a dict keyed by exponent tuples; every monomial past the
truncation degree is dropped eagerly and exact-zero coefficients are never
stored.  Values are treated as immutable once built, so series can be
shared freely.

A coefficient is stored as a canonical (val, unit, prec) integer triple:
the unit is coprime to p and reduced modulo p**prec, as `Padic` keeps it.
Values from outside enter only through `Series.from_coeffs`, which reads
them through `Padic`; `coefficient` hands one back out as a `Padic`.
Sums, products, scalings and substitutions work on the stored triples with
`padics._raw_add`, the sum rule of `Padic`, and build no `Padic`.  Two
series agree (`==`) when no term of their difference survives that rule,
the same rule by which the verifiers list where two series differ.

A product (`_mul_triples`) visits only the pairs of terms whose degrees fit
the truncation: each distinct room left by a left term gets one row of the
right factor's fitting terms, in dict order.  The pairs therefore come in
the order of the full double loop over both dicts, and so does every
coefficient's chain of partial sums.  That order is part of the result: a
partial sum that cancels below its known digits becomes an exact zero and
forgets its precision cap.

A substitution keeps its powers and factor products as triple dicts, each
built only through the working truncation that can still reach the output:
D minus the lowest degrees of the factors it is still to be multiplied by.
A term of degree t in a product comes only from pairs whose degrees sum to
t, so it needs nothing of either factor past that bound.  Its pairs, and
the first-hit order of the terms kept, are those of the product at full
degree D, so every kept coefficient has the same chain of partial sums.
Terms a factor carries past its bound, as a power cached at a larger bound
does, fit no row and change nothing.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction
from operator import add

from .padics import DEFAULT_PRECISION, Padic, _powers, _raw_add, _Record


def grlex(exponents):
    """Graded-lexicographic sort key."""
    return (sum(exponents), exponents)


class Series:
    __slots__ = ("p", "nvars", "degree", "terms")

    def __init__(self, p: int, nvars: int, degree: int, terms=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != nvars or min(e) < 0:
                raise ValueError(f"bad exponent tuple {e} for {nvars} variables")
            if sum(e) > degree:
                raise ValueError(f"monomial {e} exceeds truncation degree {degree}")
            if type(c) is not tuple:
                raise TypeError("coefficients must be (val, unit, prec) triples; "
                                "use Series.from_coeffs for other values")
            if c[1]:
                clean[e] = c
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value=None):
        raise AttributeError("Series values are immutable")

    __delattr__ = __setattr__

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
        """Build from {exponents: int | Fraction | Padic}, ints and fractions
        at relative precision `prec`; the one way in for such values."""
        terms = {}
        for e, c in coeffs.items():
            if isinstance(c, int):
                c = Padic.from_int(p, c, prec)
            elif not isinstance(c, Padic):
                c = Padic.from_fraction(p, Fraction(c), prec)
            if c.p != p:
                raise ValueError("coefficient prime mismatch")
            terms[e] = (c.val, c.unit, c.prec)
        return cls(p, nvars, degree, terms)

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return sorted(self.terms, key=grlex)

    def coefficient(self, e) -> Padic:
        t = self.terms.get(tuple(e))
        return Padic.zero(self.p) if t is None else Padic(self.p, *t)

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

    def min_val_plus_degree(self):
        """min over terms of (coefficient valuation + total degree)."""
        if not self.terms:
            return None
        return min(v + sum(e) for e, (v, _, _) in self.terms.items())

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

    def _check(self, other):
        if not isinstance(other, Series):
            raise TypeError("expected a Series")
        if (other.p, other.nvars, other.degree) != (self.p, self.nvars, self.degree):
            raise ValueError("series shape mismatch (prime, variables, degree)")

    def __add__(self, other):
        self._check(other)
        pk = _powers(self.p)
        acc = dict(self.terms)
        for e, t in other.terms.items():
            cur = acc.get(e)
            acc[e] = t if cur is None else _raw_add(pk, cur, t)
        return Series(self.p, self.nvars, self.degree, acc)

    def __neg__(self):
        pk = _powers(self.p)
        return Series(self.p, self.nvars, self.degree,
                      {e: (v, -u % pk[m], m) for e, (v, u, m) in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return Series(self.p, self.nvars, self.degree,
                      _mul_triples(_powers(self.p), self.terms, other.terms, self.degree))

    def scale(self, c) -> "Series":
        """c times the series: the product with c as a constant series, an
        int or Fraction c taken at the default precision."""
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

    def permute_vars(self, perm: Sequence[int]) -> "Series":
        """Relabel variables: new exponent i comes from old exponent perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation")
        return Series(self.p, self.nvars, self.degree,
                      {tuple(e[perm[i]] for i in range(self.nvars)): c
                       for e, c in self.terms.items()})

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
        inner = list(inner)
        if len(inner) != self.nvars:
            raise ValueError(f"need {self.nvars} inner series, got {len(inner)}")
        w = inner[0].nvars
        zero_exp = (0,) * w
        for g in inner:
            if (g.p, g.degree) != (self.p, self.degree) or g.nvars != w:
                raise ValueError("inner series shape mismatch")
            if zero_exp in g.terms:
                raise ValueError("inner series must have zero constant term")
        p, deg = self.p, self.degree
        pk = _powers(p)
        bases = [g.terms for g in inner]
        # an empty inner series gets lowest degree deg + 1, so every outer
        # monomial that uses it is skipped
        mds = [g.min_total_degree() or deg + 1 for g in inner]
        caches = [dict() for _ in inner]
        acc = {}
        for e in sorted(self.terms, key=grlex):
            v1, u1, m1 = self.terms[e]
            tot = sum(k * md for k, md in zip(e, mds))
            if tot > deg:
                continue  # every term of the product lies past the truncation
            prod = None
            rest = tot  # lowest degree of the factors not yet multiplied in
            for i, k in enumerate(e):
                if k == 0:
                    continue
                own = k * mds[i]
                rest -= own
                pw = _triple_power(pk, bases[i], mds[i], k, deg - (tot - own), caches[i])
                prod = pw if prod is None else _mul_triples(pk, prod, pw, deg - rest)
                if not prod:
                    break
            if prod is None:
                # constant monomial of the outer series passes through
                t = (v1, u1, m1)
                cur = acc.get(zero_exp)
                acc[zero_exp] = t if cur is None else _raw_add(pk, cur, t)
                continue
            for fe, (fv, fu, fm) in prod.items():
                m = m1 if m1 < fm else fm
                t = (v1 + fv, u1 * fu % pk[m], m)
                cur = acc.get(fe)
                acc[fe] = t if cur is None else _raw_add(pk, cur, t)
        return Series(p, w, deg, acc)

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


def _mul_triples(pk, a: dict, b: dict, bound: int) -> dict:
    """The product of two {exponents: (val, unit, prec)} dicts through total
    degree `bound`, with the triples that cancelled to exact zero dropped.

    Each distinct room left by a term of a (`bound - deg e1`) gets one row of
    b's terms that fit, in dict order, so the pairs come in the order of the
    full double loop over both dicts.
    """
    terms = [(e, sum(e), v, u, m) for e, (v, u, m) in b.items()]
    rows = {}
    acc = {}
    for e1, (v1, u1, m1) in a.items():
        room = bound - sum(e1)
        row = rows.get(room)
        if row is None:
            row = rows[room] = [(e2, v2, u2, m2)
                                for e2, d2, v2, u2, m2 in terms if d2 <= room]
        for e2, v2, u2, m2 in row:
            e = tuple(map(add, e1, e2))
            m = m1 if m1 < m2 else m2
            t = (v1 + v2, u1 * u2 % pk[m], m)
            cur = acc.get(e)
            acc[e] = t if cur is None else _raw_add(pk, cur, t)
    return {e: t for e, t in acc.items() if t[1]}


def _triple_power(pk, s: dict, md: int, k: int, bound: int, cache: dict) -> dict:
    """s**k through degree `bound`, for a triple dict s of lowest degree md.

    s**k needs s**(k//2) only through bound - ceil(k/2)*md, and its square,
    for odd k, only through bound - md.  The cache maps k to (bound, s**k);
    a power cached at a larger bound serves a smaller one, as the row rule
    of the product drops its extra terms.
    """
    if k == 1:
        return s
    hit = cache.get(k)
    if hit is not None and hit[0] >= bound:
        return hit[1]
    half = _triple_power(pk, s, md, k // 2, bound - (k - k // 2) * md, cache)
    if k % 2:
        out = _mul_triples(pk, _mul_triples(pk, half, half, bound - md), s, bound)
    else:
        out = _mul_triples(pk, half, half, bound)
    cache[k] = (bound, out)
    return out


class SeriesPair(_Record):
    _fields = ("first", "second")

    def _check(self):
        a, b = self.first, self.second
        if (a.p, a.nvars, a.degree) != (b.p, b.nvars, b.degree):
            raise ValueError("pair components must share prime, variables, degree")

    @property
    def p(self):
        return self.first.p

    @property
    def nvars(self):
        return self.first.nvars

    @property
    def degree(self):
        return self.first.degree

    @classmethod
    def identity(cls, p, degree, prec=DEFAULT_PRECISION):
        return cls(Series.variable(p, 2, degree, 0, prec),
                   Series.variable(p, 2, degree, 1, prec))

    @classmethod
    def zero(cls, p, nvars, degree):
        return cls(Series.zero(p, nvars, degree), Series.zero(p, nvars, degree))

    @property
    def is_zero(self):
        return self.first.is_zero and self.second.is_zero

    def __iter__(self):
        return iter((self.first, self.second))

    def __add__(self, other):
        return SeriesPair(self.first + other.first, self.second + other.second)

    def __sub__(self, other):
        return SeriesPair(self.first - other.first, self.second - other.second)

    def scale(self, c):
        return SeriesPair(self.first.scale(c), self.second.scale(c))

    def truncate(self, degree):
        return SeriesPair(self.first.truncate(degree), self.second.truncate(degree))

    def embed(self, nvars, positions):
        return SeriesPair(self.first.embed(nvars, positions),
                          self.second.embed(nvars, positions))

    def min_valuation(self):
        vals = [v for v in (self.first.min_valuation(), self.second.min_valuation()) if v is not None]
        return min(vals) if vals else None


def compose(outer: SeriesPair, inner: Sequence[Series]) -> SeriesPair:
    """outer(inner): one inner series per variable of outer, so a pair
    serves as the inner side of a two-variable outer pair."""
    ins = list(inner)
    return SeriesPair(outer.first.substitute(ins), outer.second.substitute(ins))


def invert_pair(f: SeriesPair) -> SeriesPair:
    """Compositional inverse of a pair congruent to the identity mod degree 2.

    Degree-by-degree correction: with g exact through degree k, the defect
    r = f(g) - id starts in degree k+1, and g - r is exact through k+1
    because the linear part of f is the identity.  That identity is f's
    own linear part, so it carries the precision of f's linear terms.
    """
    if f.nvars != 2:
        raise ValueError("inversion needs a two-variable pair")
    p, degree = f.p, f.degree
    for comp, var in ((f.first, (1, 0)), (f.second, (0, 1))):
        if (0, 0) in comp.terms:
            raise ValueError("pair must have zero constant term")
        lin = {e: (v, u) for e, (v, u, _) in comp.terms.items() if sum(e) == 1}
        if lin != {var: (0, 1)}:
            raise ValueError("linear part must be the identity")
    ident = SeriesPair(Series(p, 2, degree, {(1, 0): f.first.terms[(1, 0)]}),
                       Series(p, 2, degree, {(0, 1): f.second.terms[(0, 1)]}))
    g = ident
    for _ in range(degree + 1):
        r = compose(f, g) - ident
        if r.is_zero:
            break
        g = g - r
    else:
        raise ArithmeticError("inversion did not converge")
    if not (compose(g, f) - ident).is_zero:
        raise ArithmeticError("inverse failed the two-sided check")
    return g


# -- plain-text serialization -------------------------------------------------
#
# One term per line, "e1 e2 ... ev : valuation unit", graded-lex order.
# A file is a JSON header line followed by [name v=<nvars> D=<degree>]
# sections, one per series.


def series_to_lines(s: Series):
    out = []
    for e in s.support():
        v, u, _ = s.terms[e]
        out.append(f"{' '.join(str(x) for x in e)} : {v} {u}")
    return out


def dump_sections(header, sections) -> str:
    """Serialize {name: Series} under a JSON header dict."""
    lines = [json.dumps(header, sort_keys=True, separators=(", ", ": "))]
    for name, s in sections.items():
        lines.append(f"[{name} v={s.nvars} D={s.degree}]")
        lines.extend(series_to_lines(s))
    return "\n".join(lines) + "\n"


def parse_sections(text: str):
    """Inverse of dump_sections; the header must carry "p" (and may carry "N")."""
    header = None
    sections = {}
    current = None  # (name, nvars, degree, terms)
    p = None
    prec = DEFAULT_PRECISION

    def flush():
        if current is not None:
            name, nv, dg, terms = current
            sections[name] = Series.from_coeffs(p, nv, dg, terms)

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("{"):
            header = json.loads(line)
            p = header.get("p")
            prec = header.get("N", DEFAULT_PRECISION)
            continue
        if line.startswith("["):
            if p is None:
                raise ValueError("series file needs a header line with p before sections")
            flush()
            body = line[1:-1].split()
            name = body[0]
            fields = dict(part.split("=") for part in body[1:])
            current = (name, int(fields["v"]), int(fields["D"]), {})
            continue
        if current is None:
            raise ValueError(f"term line outside any section: {line!r}")
        left, right = line.split(":")
        e = tuple(int(x) for x in left.split())
        val_s, unit_s = right.split()
        current[3][e] = Padic(p, int(val_s), int(unit_s), prec)
    flush()
    return header, sections
