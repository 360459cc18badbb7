"""Packed-key products, compositions, pairs, inversion and the text
container: the second half of `series`.

This is not a second owner of coefficients: the module notes of `series`
describe the products and compositions here, `series` re-exports every
public name, and `Series.__mul__` and `Series.substitute` call the
kernels below.  The two halves are separate modules only so that no
single compile is large (see the package root).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from math import inf

from .padics import DEFAULT_PRECISION, Padic, PrecisionError, _powers, _Record, grlex, is_prime


def _pack(terms: dict, radix: int) -> dict:
    """Exponent tuples as packed keys: the digits of the total degree and
    then of each exponent in turn, in radix D+1."""
    return {reduce(lambda key, x: key * radix + x, e, sum(e)): t for e, t in terms.items()}


def _unpack(terms: dict, nvars: int, radix: int) -> dict:
    """Inverse of _pack."""
    places = [radix**i for i in reversed(range(nvars))]
    return {tuple(key // place % radix for place in places): t for key, t in terms.items()}


def _accumulate(pk, acc: dict, a: dict, b: dict, bound: int, top: int) -> dict:
    """Add the product of two {packed key: (val, unit, cap)} dicts through
    total degree `bound` into `acc` and return it; `top` is the place value
    of the degree digit.  `acc` maps a key to (val, x, cap), or to None
    for an exact zero (see the module notes).  The sum rule is inlined:
    equal valuations add directly, and only unequal ones read `pk`."""
    terms = [(e, e // top, v, u, c - v) for e, (v, u, c) in b.items()]
    rows = {}
    get = acc.get
    for e1, (v1, u1, c1) in a.items():
        room = bound - e1 // top
        row = rows.get(room)
        if row is None:
            row = rows[room] = [(e2, v2, u2, m2)
                                for e2, d2, v2, u2, m2 in terms if d2 <= room]
        m1 = c1 - v1
        for e2, v2, u2, m2 in row:
            e = e1 + e2
            v = v1 + v2
            x = u1 * u2
            cap = v + (m1 if m1 < m2 else m2)
            cur = get(e)
            if cur is None:
                acc[e] = (v, x, cap)
                continue
            # the sum rule of _raw_add
            cv, cx, cc = cur
            if cc < cap:
                cap = cc
            if v == cv:
                x += cx
            elif v < cv:
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
            out[e] = (v, x, cap)
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
        for o, acc in zip(outers, accs):
            c = o.terms.get(e)
            if c is not None:
                # a constant outer monomial is c times an exact one
                _accumulate(pk, acc, _ONE if prod is None else prod, {0: c}, deg, top)
    return [Series._derived(p, w, deg, _unpack(_settle(pk, acc), w, radix)) for acc in accs]


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
    ident = SeriesPair(Series._derived(p, 2, degree, {(1, 0): f.first.terms[(1, 0)]}),
                       Series._derived(p, 2, degree, {(0, 1): f.second.terms[(0, 1)]}))
    g = ident
    for _ in range(degree + 1):
        r = compose(f, g) - ident
        if r.is_zero:
            break
        nxt = g - r
        if all(a.terms == b.terms for a, b in zip(nxt, g)):
            break  # r lies below g's known digits: every later step repeats this one
        g = nxt
    if not r.is_zero:
        raise PrecisionError("inversion did not converge")
    if not (compose(g, f) - ident).is_zero:
        raise PrecisionError("inverse failed the two-sided check")
    return g


# -- the text container -----------------------------------------------------
#
# The one place that knows the layout.  A container is one JSON header line
# followed by named pairs; pair `name` is written as two sections,
# "[name.1 v=<nvars> D=<degree>]" and "[name.2 ...]", each with one term
# per line, "e1 e2 ... ev : valuation unit", in graded-lex order.  The
# header's "p" and "D" are the pairs' own; callers add their keys (the
# heights, "N", a multiplier "a").  Its values are integers, so
# `dump_sections` writes the line itself, byte for byte as
# json.dumps(header, sort_keys=True, separators=(", ", ": ")) would, and
# only `parse_sections` imports `json`.  Coefficients are read back at the
# header's "N" (default DEFAULT_PRECISION).


def dump_sections(header: dict, pairs: dict) -> str:
    """The container of {name: SeriesPair} under `header`, whose "p" and
    "D" are filled in from the pairs.  The header holds integers only:
    any other value is a `TypeError`."""
    shapes = {(pair.p, pair.degree) for pair in pairs.values()}
    if len(shapes) != 1:
        raise ValueError("a container holds pairs of one prime and one degree")
    (p, degree), = shapes
    header = {**header, "p": p, "D": degree}
    if any(type(v) is not int for v in header.values()):
        raise TypeError(f"a container header holds integers only, got {header}")
    lines = ["{" + ", ".join(f'"{k}": {v}' for k, v in sorted(header.items())) + "}"]
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
    import json

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


# Last, once every name above exists: `series` imports this module at its
# own end, so the two halves load in either order.
from .series import Series  # noqa: E402
