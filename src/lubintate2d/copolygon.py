"""Newton copolygons of two-variable series with p-adic coefficients.

The copolygon of f = sum c_e x^e is the concave piecewise-linear function

    V_f(xi) = min over e in supp(f) of (e1*xi1 + e2*xi2 + v(c_e)),

the min-plus (tropical) polynomial attached to the support.  Everything
here is exact Fraction geometry: vertices are points where at least three
support functionals tie on the lower envelope, tie segments are the
one-dimensional loci where a pair ties and stays minimal, and copolygon
intersections are solved with 2x2 rational linear algebra.  No floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .padics import Padic, _check_prime, _powers, _raw_add, _Record
from .series import Series, grlex


def fraction_str(q) -> str:
    """Render a rational as num/den, denominator always present."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


class TieSegment(_Record):
    """Locus where the support functionals `first` and `second` tie and
    both are minimal.

    The line is (a, b, c) with a*xi1 + b*xi2 = c; points are base +
    t*direction, with base a pair of Fractions, direction an integer vector
    and t in [t_lo, t_hi], a bound of None meaning unbounded on that side.
    """

    _fields = ("first", "second", "line", "base", "direction", "t_lo", "t_hi")
    _defaults = (None, None)

    def point_at(self, t) -> tuple:
        t = Fraction(t)
        return (self.base[0] + t * self.direction[0],
                self.base[1] + t * self.direction[1])

    def parameter_of(self, point):
        """Parameter t of a point assumed to lie on the line."""
        if self.direction[0]:
            return Fraction(point[0] - self.base[0], self.direction[0])
        return Fraction(point[1] - self.base[1], self.direction[1])

    def contains_parameter(self, t) -> bool:
        if self.t_lo is not None and t < self.t_lo:
            return False
        if self.t_hi is not None and t > self.t_hi:
            return False
        return True

    def contains(self, point) -> bool:
        a, b, c = self.line
        if a * point[0] + b * point[1] != c:
            return False
        return self.contains_parameter(self.parameter_of(point))


class Copolygon(_Record):
    """Lower envelope of finitely many affine functionals i*xi1 + j*xi2 + v.

    `functionals` keeps the least v per exponent (i, j), in grlex order.
    """

    _fields = ("functionals",)

    def _check(self):
        best = {}
        for i, j, v in self.functionals:
            i, j, v = int(i), int(j), Fraction(v)
            if i < 0 or j < 0:
                raise ValueError("support exponents must be nonnegative")
            key = (i, j)
            if key not in best or v < best[key]:
                best[key] = v
        if not best:
            raise ValueError("a copolygon needs at least one support point")
        self.__dict__["functionals"] = tuple(
            (i, j, v) for (i, j), v in sorted(best.items(), key=lambda kv: grlex(kv[0])))

    @classmethod
    def from_series(cls, s: Series) -> "Copolygon":
        if s.nvars != 2:
            raise ValueError("copolygons are defined for two-variable series")
        if not s.terms:
            raise ValueError("the zero series has an empty copolygon")
        return cls((e[0], e[1], Fraction(v)) for e, (v, _, _) in s.terms.items())

    # -- pointwise data --------------------------------------------------

    def evaluate(self, xi) -> Fraction:
        x1, x2 = Fraction(xi[0]), Fraction(xi[1])
        return min(i * x1 + j * x2 + v for i, j, v in self.functionals)

    def argmin(self, xi) -> list:
        """Functionals achieving the minimum at xi."""
        x1, x2 = Fraction(xi[0]), Fraction(xi[1])
        vals = [(i * x1 + j * x2 + v, (i, j, v)) for i, j, v in self.functionals]
        m = min(val for val, _ in vals)
        return [f for val, f in vals if val == m]

    # -- exact geometry ---------------------------------------------------

    @cached_property
    def _tie_loci(self) -> tuple:
        """Every pair's locus where it ties and is minimal, a point or more.

        Each pair's tie line is cut down by the constraint that every other
        functional stays >= the common value.  A pair is dropped as soon as
        its locus is empty (a parallel functional lies strictly below the
        line, or the bounds cross) or degenerate (a third functional, its
        exponent on the pair's line, matches the pair along the whole line).
        One O(n^3) pass, cached: vertices and tie segments are read off it.
        """
        fs = self.functionals
        loci = []
        n = len(fs)
        for a in range(n):
            i1, j1, v1 = fs[a]
            for b in range(a + 1, n):
                i2, j2, v2 = fs[b]
                # tie line da*xi1 + db*xi2 = v2 - v1; exponents are distinct
                da, db = i1 - i2, j1 - j2
                rhs = v2 - v1
                if da:
                    base = (Fraction(rhs, da), Fraction(0))
                else:
                    base = (Fraction(0), Fraction(rhs, db))
                direction = (db, -da)
                t_lo = t_hi = None
                for k in range(n):
                    if k in (a, b):
                        continue
                    ik, jk, vk = fs[k]
                    # (f_k - f_a)(base + t*direction) >= 0
                    g0 = (ik - i1) * base[0] + (jk - j1) * base[1] + vk - v1
                    g1 = (ik - i1) * direction[0] + (jk - j1) * direction[1]
                    if g1 == 0:
                        if g0 <= 0:  # empty or degenerate
                            break
                        continue
                    bound = Fraction(-g0, g1)
                    if g1 > 0:
                        if t_lo is None or bound > t_lo:
                            t_lo = bound
                    elif t_hi is None or bound < t_hi:
                        t_hi = bound
                    if t_lo is not None and t_hi is not None and t_lo > t_hi:
                        break
                else:
                    loci.append(TieSegment(fs[a], fs[b], (da, db, rhs),
                                       base, direction, t_lo, t_hi))
        return tuple(loci)

    def vertices(self) -> list:
        """Points where at least three functionals tie on the envelope.

        Returns (xi1, xi2, value) triples sorted by coordinates: the finite
        ends of the tie loci, one-point loci included.  No vertex is lost
        with the degenerate pairs: the exponents of the functionals minimal
        at a vertex are not all on one line, so by the Sylvester-Gallai
        theorem two of them span a line through no third, and that pair's
        locus ends at the vertex.
        """
        found = {}
        for seg in self._tie_loci:
            i, j, v = seg.first
            for t in (seg.t_lo, seg.t_hi):
                if t is not None:
                    x1, x2 = seg.point_at(t)
                    found[(x1, x2)] = i * x1 + j * x2 + v
        return sorted((x1, x2, val) for (x1, x2), val in found.items())

    def tie_segments(self) -> list:
        """Maximal loci where a pair of functionals ties and is minimal.

        The tie loci longer than a point.  Dropping the degenerate pairs
        loses a real edge when three or more functionals with collinear
        exponents tie along it: the cells of the two outer ones meet there,
        but every pair on the line is degenerate, so none is reported.
        """
        return [seg for seg in self._tie_loci
                if seg.t_lo is None or seg.t_lo != seg.t_hi]


def intersect_tie_loci(first: Copolygon, second: Copolygon) -> list:
    """All points where the tie loci of two copolygons cross.

    Segment pairs are intersected with exact 2x2 solves; a crossing counts
    when it lies within both parameter ranges.  Vertices of either
    copolygon that sit on the other's tie locus are included as well.
    Parallel (including collinear) segment pairs contribute nothing.
    """
    points = set()
    seg_a = first.tie_segments()
    seg_b = second.tie_segments()
    for sa in seg_a:
        a1, b1, c1 = sa.line
        for sb in seg_b:
            a2, b2, c2 = sb.line
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x1 = Fraction(c1 * b2 - c2 * b1, det)
            x2 = Fraction(a1 * c2 - a2 * c1, det)
            if sa.contains_parameter(sa.parameter_of((x1, x2))) and \
               sb.contains_parameter(sb.parameter_of((x1, x2))):
                points.add((x1, x2))
    for poly, segments in ((first, seg_b), (second, seg_a)):
        for x1, x2, _ in poly.vertices():
            if any(seg.contains((x1, x2)) for seg in segments):
                points.add((x1, x2))
    return sorted(points)


# -- evaluation bounds ----------------------------------------------------


def evaluate_series(s: Series, point) -> Padic:
    """Value of a two-variable series at a pair of p-adic scalars.

    Computed on the stored (val, unit, prec) triples: the term c a^i b^j is
    (v + i va + j vb, u ua^i ub^j mod p^m, m) with m the least of the three
    precisions, the product rule of `series._mul_triples`.  The terms are
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


def lower_bound_check(s: Series, point) -> bool:
    """Certify v(f(alpha)) >= V_f(v(alpha1), v(alpha2)) at a concrete point.

    Both coordinates must be nonzero so the coordinate valuations are
    finite.  The bound is the least term valuation v + i*v(alpha1) +
    j*v(alpha2).  A sum that cancels to zero is zero modulo the least
    absolute precision of its terms, and each term's absolute precision is
    its valuation plus at least one digit, so it exceeds the bound: a
    cancelled sum passes.
    """
    a, b = point
    if a.is_zero or b.is_zero:
        raise ValueError("coordinates must be nonzero so valuations are finite")
    bound = Copolygon.from_series(s).evaluate((a.valuation, b.valuation))
    total = evaluate_series(s, point)
    return total.is_zero or total.valuation >= bound


# -- support files ---------------------------------------------------------


def support_text(s: Series) -> str:
    """Serialize a series support with coefficient valuations.

    Header line "p D", then one "i j num/den" line per monomial in graded
    lexicographic order.
    """
    if s.nvars != 2:
        raise ValueError("expected a two-variable series")
    lines = [f"{s.p} {s.degree}"]
    for e in s.support():
        lines.append(f"{e[0]} {e[1]} {fraction_str(s.terms[e][0])}")
    return "\n".join(lines) + "\n"


def parse_support_text(text: str):
    """Inverse of support_text: returns (p, degree, Copolygon).

    p must be prime and no monomial may exceed the truncation degree.
    """
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty support file")
    try:
        p, degree = map(int, rows[0].split())
    except ValueError:
        raise ValueError("header must be two integers: p and truncation degree") from None
    _check_prime(p)
    funcs = []
    for ln in rows[1:]:
        try:
            i, j, v = ln.split()
            i, j, v = int(i), int(j), parse_fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed support line: {ln!r}") from None
        if i + j > degree:
            raise ValueError(f"monomial {(i, j)} exceeds truncation degree {degree}")
        funcs.append((i, j, v))
    return p, degree, Copolygon(funcs)


# -- deterministic SVG ------------------------------------------------------


_SIZE = 640  # width and height of the picture, in pixels
_MARGIN = 60
_LO, _HI = Fraction(-1, 2), Fraction(2)  # the window [-1/2, 2] in both coordinates
_BOX = ((_LO, _LO), (_HI, _LO), (_HI, _HI), (_LO, _HI))
_AXES = (((0, _HI), (0, _LO)), ((_LO, 0), (_HI, 0)))  # xi1 = 0, xi2 = 0 in the window
_PALETTE = (
    "#c6dbef", "#fdd0a2", "#c7e9c0", "#fcbba1", "#dadaeb",
    "#d9d9d9", "#9ecae1", "#fdae6b", "#a1d99b", "#fc9272",
)


def _fmt(q: Fraction) -> str:
    """Fixed-point with three decimals, computed in integers."""
    n = round(q * 1000)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 1000}.{n % 1000:03d}"


def _clip_halfplane(polygon, a, b, c):
    """Sutherland-Hodgman step: keep a*x + b*y + c >= 0."""
    if not polygon:
        return []
    out = []
    m = len(polygon)
    for idx in range(m):
        cur = polygon[idx]
        nxt = polygon[(idx + 1) % m]
        cur_in = a * cur[0] + b * cur[1] + c >= 0
        nxt_in = a * nxt[0] + b * nxt[1] + c >= 0
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            denom = a * (nxt[0] - cur[0]) + b * (nxt[1] - cur[1])
            t = Fraction(-(a * cur[0] + b * cur[1] + c), denom)
            out.append((cur[0] + t * (nxt[0] - cur[0]),
                        cur[1] + t * (nxt[1] - cur[1])))
    deduped = []
    for pt in out:
        if not deduped or deduped[-1] != pt:
            deduped.append(pt)
    if deduped and len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def emit_svg(poly: Copolygon) -> str:
    """Draw the minimality cells, tie segments and vertices of a copolygon.

    The output is byte-stable: exact rational geometry, fixed iteration
    order, and integer fixed-point coordinate formatting.
    """
    scale = Fraction(_SIZE - 2 * _MARGIN) / (_HI - _LO)

    def to_px(pt):
        px = _MARGIN + (pt[0] - _LO) * scale
        py = _SIZE - _MARGIN - (pt[1] - _LO) * scale
        return _fmt(px), _fmt(py)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]

    fs = poly.functionals
    for idx, (i1, j1, v1) in enumerate(fs):
        cell = list(_BOX)
        for k, (ik, jk, vk) in enumerate(fs):
            if k == idx:
                continue
            # keep f_idx <= f_k: (ik-i1)x + (jk-j1)y + (vk-v1) >= 0
            cell = _clip_halfplane(cell, ik - i1, jk - j1, vk - v1)
            if len(cell) < 3:
                cell = []
                break
        if len(cell) < 3:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(",".join(to_px(pt)) for pt in cell)
        parts.append(f'<polygon points="{coords}" fill="{color}" '
                     f'stroke="none"><title>{i1} {j1} {fraction_str(v1)}'
                     f'</title></polygon>')

    lines = [(ends, "#888888", 1) for ends in _AXES]
    lines += [(ends, "#000000", 2) for ends in map(_segment_in_box, poly.tie_segments())
              if ends]
    for ends, stroke, width in lines:
        (x1, y1), (x2, y2) = to_px(ends[0]), to_px(ends[1])
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     f'stroke="{stroke}" stroke-width="{width}"/>')

    for x1, x2, value in poly.vertices():
        if _LO <= x1 <= _HI and _LO <= x2 <= _HI:
            cx, cy = to_px((x1, x2))
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="#000000">'
                         f'<title>{fraction_str(x1)} {fraction_str(x2)} '
                         f'{fraction_str(value)}</title></circle>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _segment_in_box(seg: TieSegment):
    """Clip a tie segment to the window; returns two endpoints or None."""
    base, direction = seg.base, seg.direction
    lo, hi = seg.t_lo, seg.t_hi
    # window edge constraints, each affine in t
    for coeff, bound, keep_ge in ((direction[0], _LO - base[0], True),
                                  (direction[0], _HI - base[0], False),
                                  (direction[1], _LO - base[1], True),
                                  (direction[1], _HI - base[1], False)):
        if coeff == 0:
            inside = bound <= 0 if keep_ge else bound >= 0
            if not inside:
                return None
            continue
        t = Fraction(bound, coeff)
        wants_ge = keep_ge == (coeff > 0)
        if wants_ge:
            if lo is None or t > lo:
                lo = t
        else:
            if hi is None or t < hi:
                hi = t
    if lo is None or hi is None or lo > hi:
        return None
    return seg.point_at(lo), seg.point_at(hi)
