"""Sparse truncated multivariate power series over p-adic scalars.

Terms live in a dict keyed by exponent tuples; every monomial past the
truncation degree is dropped eagerly and exact-zero coefficients are never
stored.  A `Series` is a frozen `padics._Record`, so series can be shared
freely.

A coefficient is stored as a canonical (val, unit, prec) integer triple:
the unit is coprime to p and reduced modulo p**prec, as `Padic` keeps it.
Only this module and `padics` know that.  Values enter only through
`Series.from_coeffs`, which reads them through `Padic`, and leave only
through `coefficient`, as a `Padic`; other modules read `terms` for its
keys alone.  Sums and `evaluate_series` add triples with `padics._raw_add`,
the sum rule of `Padic`; products, scalings and substitutions use that
rule in the absolute form below.  None builds a `Padic` but the value
`evaluate_series` returns.  Two series agree (`==`) when no term of their
difference survives the sum rule, the rule by which the verifiers list
where two series differ.

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

import json
from collections.abc import Sequence
from functools import reduce
from math import inf

from .padics import DEFAULT_PRECISION, Padic, PrecisionError, _powers, _raw_add, _Record, is_prime


def grlex(exponents):
    """Graded-lexicographic sort key."""
    return (sum(exponents), exponents)


class Series(_Record):
    _fields = ("p", "nvars", "degree", "terms")
    _defaults = (None,)

    def _check(self):
        nvars, degree = self.nvars, self.degree
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        clean = {}
        for e, c in (self.terms or {}).items():
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
        """Build from {exponents: int | Fraction | Padic}, ints and fractions
        at relative precision `prec`; the one way in for such values."""
        terms = {}
        for e, c in coeffs.items():
            if isinstance(c, int):
                c = Padic.from_int(p, c, prec)
            elif not isinstance(c, Padic):
                c = Padic.from_fraction(p, c, prec)
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
                      {e: (v, -u % pk[m], m) for e, (v, u, m) in self.terms.items()})

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


def _pack(terms: dict, radix: int) -> dict:
    """Exponent tuples as packed keys: the digits of the total degree and
    then of each exponent in turn, in radix D+1."""
    return {reduce(lambda key, x: key * radix + x, e, sum(e)): t for e, t in terms.items()}


def _unpack(terms: dict, nvars: int, radix: int) -> dict:
    """Inverse of _pack."""
    places = [radix**i for i in reversed(range(nvars))]
    return {tuple(key // place % radix for place in places): t for key, t in terms.items()}


def _accumulate(pk, acc: dict, a: dict, b: dict, bound: int, top: int) -> dict:
    """Add the product of two {packed key: (val, unit, prec)} dicts through
    total degree `bound` into `acc` and return it; `top` is the place value
    of the degree digit.  `acc` maps a key to (val, x, cap), or to None
    for an exact zero (see the module notes)."""
    terms = [(e, e // top, v, u, m) for e, (v, u, m) in b.items()]
    rows = {}
    get = acc.get
    for e1, (v1, u1, m1) in a.items():
        room = bound - e1 // top
        row = rows.get(room)
        if row is None:
            row = rows[room] = [(e2, v2, u2, m2)
                                for e2, d2, v2, u2, m2 in terms if d2 <= room]
        for e2, v2, u2, m2 in row:
            e = e1 + e2
            v = v1 + v2
            x = u1 * u2
            cap = v + (m1 if m1 < m2 else m2)
            cur = get(e)
            if cur is None:
                acc[e] = (v, x, cap)
                continue
            # the sum rule of _raw_add on absolute caps
            cv, cx, cc = cur
            if cc < cap:
                cap = cc
            if v < cv:
                x += cx * pk[cv - v]
            else:
                x = cx + x * pk[v - cv]
                v = cv
            x %= pk[cap - v]
            acc[e] = (v, x, cap) if x else None
    return acc


def _settle(pk, acc: dict) -> dict:
    """The nonzero sums of `acc` as canonical triples, in its key order."""
    p = pk[1]
    out = {}
    for e, t in acc.items():
        if t is not None:
            v, x, cap = t
            x %= pk[cap - v]
            while not x % p:
                x //= p
                v += 1
            out[e] = (v, x, cap - v)
    return out


def _mul_triples(pk, a: dict, b: dict, bound: int, top: int) -> dict:
    """a * b through total degree `bound`, as a packed triple dict."""
    return _settle(pk, _accumulate(pk, {}, a, b, bound, top))


def _triple_power(pk, s: dict, md: int, k: int, bound: int, top: int, cache: dict) -> dict:
    """s**k through degree `bound`, for a packed dict s of lowest degree md.

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
    half = _triple_power(pk, s, md, k // 2, bound - (k - k // 2) * md, top, cache)
    if k % 2:
        out = _mul_triples(pk, _mul_triples(pk, half, half, bound - md, top), s, bound, top)
    else:
        out = _mul_triples(pk, half, half, bound, top)
    cache[k] = (bound, out)
    return out


_ONE = {0: (0, 1, inf)}  # the exact one as a packed dict: no cap


def _substitute_each(outers: Sequence[Series], inner: Sequence[Series]) -> list:
    """[o(inner) for o in outers], for outer series of one shape, in one
    grlex walk over the union of their monomials (see the module notes)."""
    inner = list(inner)
    first = outers[0]
    p, deg = first.p, first.degree
    if len(inner) != first.nvars:
        raise ValueError(f"need {first.nvars} inner series, got {len(inner)}")
    w = inner[0].nvars
    for g in inner:
        if (g.p, g.degree) != (p, deg) or g.nvars != w:
            raise ValueError("inner series shape mismatch")
        if (0,) * w in g.terms:
            raise ValueError("inner series must have zero constant term")
    pk = _powers(p)
    radix = deg + 1
    top = radix**w
    bases = [_pack(g.terms, radix) for g in inner]
    # an empty inner series gets lowest degree deg + 1, so every outer
    # monomial that uses it is skipped
    mds = [g.min_total_degree() or deg + 1 for g in inner]
    caches = [dict() for _ in inner]
    accs = [{} for _ in outers]
    for e in sorted(set().union(*(o.terms for o in outers)), key=grlex):
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
            pw = _triple_power(pk, bases[i], mds[i], k, deg - (tot - own), top, caches[i])
            prod = pw if prod is None else _mul_triples(pk, prod, pw, deg - rest, top)
            if not prod:
                break
        for o, acc in zip(outers, accs):
            c = o.terms.get(e)
            if c is not None:
                # a constant outer monomial is c times an exact one
                _accumulate(pk, acc, _ONE if prod is None else prod, {0: c}, deg, top)
    return [Series(p, w, deg, _unpack(_settle(pk, acc), w, radix)) for acc in accs]


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
    return SeriesPair(*_substitute_each(tuple(outer), inner))


def linear_defects(f: SeriesPair, val: int) -> list:
    """(component, exponents) where the linear part of a two-variable pair
    is not exactly p^val * X: each component's degree-1 terms must be its
    own variable with valuation val and unit 1, to every digit it carries."""
    out = []
    for idx, comp, var in ((1, f.first, (1, 0)), (2, f.second, (0, 1))):
        lin = {e: (v, u) for e, (v, u, _) in comp.terms.items() if sum(e) == 1}
        want = {var: (val, 1)}
        out += [(idx, e) for e in sorted(lin.keys() | want.keys(), key=grlex)
                if lin.get(e) != want.get(e)]
    return out


def invert_pair(f: SeriesPair) -> SeriesPair:
    """Compositional inverse of a pair congruent to the identity mod degree 2.

    Degree-by-degree correction: with g exact through degree k, the defect
    r = f(g) - id starts in degree k+1, and g - r is exact through k+1
    because the linear part of f is the identity.  That identity is f's
    own linear part, so it carries the precision of f's linear terms.  The
    exact inverse always exists, so a failure is a `PrecisionError`.
    """
    if f.nvars != 2:
        raise ValueError("inversion needs a two-variable pair")
    p, degree = f.p, f.degree
    if any((0, 0) in comp.terms for comp in f):
        raise ValueError("pair must have zero constant term")
    if linear_defects(f, 0):
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
        raise PrecisionError("inversion did not converge")
    if not (compose(g, f) - ident).is_zero:
        raise PrecisionError("inverse failed the two-sided check")
    return g


def evaluate_series(s: Series, point) -> Padic:
    """Value of a two-variable series at a pair of p-adic scalars.

    Computed on the stored (val, unit, prec) triples: the term c a^i b^j is
    (v + i va + j vb, u ua^i ub^j mod p^m, m) with m the least of the three
    precisions, the product rule of `_accumulate`.  The terms are
    summed in grlex order by `padics._raw_add`, and one `Padic` is built
    from the sum.  A zero coordinate needs no branch: its unit is 0, so
    pow(0, 0) = 1 and pow(0, k) = 0.
    """
    if s.nvars != 2:
        raise ValueError("expected a two-variable series")
    a, b = point
    if a.p != s.p or b.p != s.p:
        raise ValueError(f"prime mismatch: the series is over Z_{s.p}")
    pk = _powers(s.p)
    total = (0, 0, min(a.prec, b.prec))
    for e in sorted(s.terms, key=grlex):
        v, u, m = s.terms[e]
        m = min(m, a.prec, b.prec)
        unit = u * pow(a.unit, e[0], pk[m]) * pow(b.unit, e[1], pk[m]) % pk[m]
        total = _raw_add(pk, total, (v + e[0] * a.val + e[1] * b.val, unit, m))
    return Padic(s.p, *total)


# -- the text container -----------------------------------------------------
#
# The one place that knows the layout.  A container is one JSON header line
# (sorted keys) followed by named pairs; pair `name` is written as two
# sections, "[name.1 v=<nvars> D=<degree>]" and "[name.2 ...]", each with
# one term per line, "e1 e2 ... ev : valuation unit", in graded-lex order.
# The header's "p" and "D" are the pairs' own; callers add their keys (the
# heights, "N", a multiplier "a").  Coefficients are read back at the
# header's "N" (default DEFAULT_PRECISION).


def dump_sections(header: dict, pairs: dict) -> str:
    """The container of {name: SeriesPair} under `header`, whose "p" and
    "D" are filled in from the pairs."""
    shapes = {(pair.p, pair.degree) for pair in pairs.values()}
    if len(shapes) != 1:
        raise ValueError("a container holds pairs of one prime and one degree")
    (p, degree), = shapes
    header = {**header, "p": p, "D": degree}
    lines = [json.dumps(header, sort_keys=True, separators=(", ", ": "))]
    for name, pair in pairs.items():
        for idx, s in enumerate(pair, 1):
            lines.append(f"[{name}.{idx} v={s.nvars} D={s.degree}]")
            for e in s.support():
                v, u, _ = s.terms[e]
                lines.append(f"{' '.join(map(str, e))} : {v} {u}")
    return "\n".join(lines) + "\n"


def parse_sections(text: str):
    """Inverse of dump_sections: (header, {name: SeriesPair}).

    Refuses a container without exactly one header line, first, carrying
    a prime "p" and "D"; a section whose D is not the header's or that
    repeats a monomial; and a pair with a section missing, repeated or not
    named name.1 or name.2.
    """
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines or not lines[0].startswith("{"):
        raise ValueError("a series container starts with its JSON header line")
    header = json.loads(lines[0])
    p, degree = header.get("p"), header.get("D")
    if type(p) is not int or not is_prime(p):
        raise ValueError(f"header p must be a prime, got {p!r}")
    if type(degree) is not int:
        raise ValueError(f"header D must be an integer, got {degree!r}")
    prec = header.get("N", DEFAULT_PRECISION)
    if type(prec) is not int or prec < 1:
        raise ValueError(f"header N must be a positive integer, got {prec!r}")
    sections = {}
    terms = None
    for line in lines[1:]:
        if line.startswith("{"):
            raise ValueError("a series container has one header line, before every section")
        if line.startswith("["):
            try:
                name, *fields = line[1:-1].split()
                fields = dict(part.split("=") for part in fields)
                nvars, sec_degree = int(fields["v"]), int(fields["D"])
            except (KeyError, ValueError):
                raise ValueError(f"section line {line!r} is not [name v=<int> D=<int>]") from None
            if sec_degree != degree:
                raise ValueError(f"section {name} has D={sec_degree}, header D={degree}")
            if name in sections:
                raise ValueError(f"section {name} appears twice")
            terms = {}
            sections[name] = (nvars, terms)
            continue
        if terms is None:
            raise ValueError(f"term line outside any section: {line!r}")
        try:
            left, right = line.split(":")
            val, unit = map(int, right.split())
            e = tuple(map(int, left.split()))
        except ValueError:
            raise ValueError(f"term line {line!r} is not 'e1 ... ev : valuation unit'") from None
        if e in terms:
            raise ValueError(f"section {name} repeats the monomial {e}")
        terms[e] = Padic(p, val, unit, prec)
    pairs = {}
    for name in sections:
        base, dot, idx = name.rpartition(".")
        if not dot or idx not in ("1", "2"):
            raise ValueError(f"section {name} is not named <pair>.1 or <pair>.2")
        if base in pairs:
            continue
        halves = []
        for half in (f"{base}.1", f"{base}.2"):
            if half not in sections:
                raise ValueError(f"section {half} is missing")
            nvars, coeffs = sections[half]
            halves.append(Series.from_coeffs(p, nvars, degree, coeffs))
        pairs[base] = SeriesPair(*halves)
    return header, pairs
