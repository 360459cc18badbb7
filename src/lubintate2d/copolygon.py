"""Newton copolygons of two-variable series with p-adic coefficients.

The copolygon of f = sum c_e x^e is the concave piecewise-linear function

    V_f(xi) = min over e in supp(f) of (e1*xi1 + e2*xi2 + v(c_e)),

the min-plus (tropical) polynomial attached to the support.  Everything
here is exact: vertices are points where at least three support
functionals tie on the lower envelope, and tie segments are the
one-dimensional loci where a pair ties and stays minimal.  Both are read
off one tie-locus pass in integer arithmetic over L, the lcm of the
valuations' denominators, and returned as Fractions; the SVG's cells are
clipped in integers over L too.  Copolygon intersections are solved with
2x2 rational linear algebra.  No floats.

A series enters through its coefficients' valuations alone, read with
`Series.coefficient`.  This module does not import `series`: its
`Series` annotations are names alone, so a copolygon read from a support
file never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .padics import _check_prime, _Record, fraction_str, grlex


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

    def point_at(self, t) -> tuple:
        t = Fraction(t)
        return (self.base[0] + t * self.direction[0],
                self.base[1] + t * self.direction[1])

    def contains(self, point) -> bool:
        """Does the point lie on the line, with t in [t_lo, t_hi]?"""
        a, b, c = self.line
        if a * point[0] + b * point[1] != c:
            return False
        axis = 0 if self.direction[0] else 1
        t = Fraction(point[axis] - self.base[axis], self.direction[axis])
        return (self.t_lo is None or t >= self.t_lo) and (self.t_hi is None or t <= self.t_hi)


class Copolygon(_Record):
    """Lower envelope of finitely many affine functionals i*xi1 + j*xi2 + v.

    `functionals` keeps the least v per exponent (i, j), in grlex order.
    """

    _fields = ("functionals",)

    def _check(self):
        best = {}
        for f in self.functionals:
            i, j, v = f if type(f) is tuple and len(f) == 3 else (None,) * 3
            if not (type(i) is type(j) is int and type(v) in (int, Fraction)):
                raise TypeError(f"functional {f!r}: want int i, j and int or Fraction v")
            v = Fraction(v)
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
        return cls((e[0], e[1], Fraction(s.coefficient(e).valuation)) for e in s.terms)

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
    def _scaled(self) -> tuple:
        """(L, the functionals as (i, j, v*L)), L the lcm of the
        valuations' denominators: all integers."""
        scale = lcm(*(v.denominator for _, _, v in self.functionals))
        return scale, tuple((i, j, v.numerator * (scale // v.denominator))
                            for i, j, v in self.functionals)

    @cached_property
    def _tie_loci(self) -> tuple:
        """Every pair's locus where it ties and is minimal, a point or more.

        Each pair's tie line is cut down by the constraint that every other
        functional stays >= the common value.  A pair is dropped as soon as
        its locus is empty (a parallel functional lies strictly below the
        line, or the bounds cross) or degenerate (a third functional, its
        exponent on the pair's line, matches the pair along the whole line).
        One O(n^3) pass, cached: vertices and tie segments are read off it.

        Integer arithmetic over `_scaled`: with piv the pair's da, else db,
        each constraint is G0 + g1*t >= 0 in integers, G0 being g0*|piv|*L,
        and each bound -G0/g1 is an integer pair over |piv|*L.  Kept loci
        become Fractions.
        """
        fs = self.functionals
        scale, ws = self._scaled
        loci = []
        n = len(fs)
        for a in range(n):
            i1, j1, w1 = ws[a]
            for b in range(a + 1, n):
                i2, j2, w2 = ws[b]
                # tie line da*xi1 + db*xi2 = (w2 - w1)/L; exponents are distinct
                da, db = i1 - i2, j1 - j2
                rise, piv = w2 - w1, da or db
                if piv < 0:  # fold sign(piv) into rise and piv, so g0 below is G0
                    rise, piv = -rise, -piv
                lo = hi = None  # t_lo and t_hi times |piv|*L, as (num, den > 0)
                for k in range(n):
                    if k == a or k == b:
                        continue
                    ik, jk, wk = ws[k]
                    # (f_k - f_a)(base + t*direction) >= 0
                    g0 = (ik - i1 if da else jk - j1) * rise + piv * (wk - w1)
                    g1 = (ik - i1) * db - (jk - j1) * da
                    if g1 == 0:
                        if g0 <= 0:  # empty or degenerate
                            break
                        continue
                    if g1 > 0:
                        if lo is None or -g0 * lo[1] > lo[0] * g1:
                            lo = (-g0, g1)
                    elif hi is None or g0 * hi[1] < hi[0] * -g1:
                        hi = (g0, -g1)
                    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
                        break
                else:
                    unit = piv * scale
                    at = Fraction(rise, unit)  # rhs/da, else rhs/db
                    loci.append(TieSegment(
                        fs[a], fs[b], (da, db, Fraction(w2 - w1, scale)),
                        (at, Fraction(0)) if da else (Fraction(0), at), (db, -da),
                        None if lo is None else Fraction(lo[0], lo[1] * unit),
                        None if hi is None else Fraction(hi[0], hi[1] * unit)))
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
            if sa.contains((x1, x2)) and sb.contains((x1, x2)):
                points.add((x1, x2))
    for poly, segments in ((first, seg_b), (second, seg_a)):
        for x1, x2, _ in poly.vertices():
            if any(seg.contains((x1, x2)) for seg in segments):
                points.add((x1, x2))
    return sorted(points)


# -- support files ---------------------------------------------------------


def support_text(s: Series) -> str:
    """The support file of a series: header line "p D", then one
    "i j num/den" line per functional of `Copolygon.from_series(s)`, in
    its graded-lex order, so a series it refuses is refused here too.
    """
    lines = [f"{s.p} {s.degree}"]
    lines += [f"{i} {j} {fraction_str(v)}" for i, j, v in Copolygon.from_series(s).functionals]
    return "\n".join(lines) + "\n"


def parse_support_text(text: str):
    """Inverse of support_text: (s.p, s.degree, Copolygon.from_series(s))
    back from its text.  Blank lines aside, it reads nothing else: every
    line after the header is an "i j num/den" row.  p must be prime, and no
    monomial may exceed the truncation degree or appear on two lines.
    """
    rows = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty support file")
    try:
        p, degree = map(int, rows[0].split())
    except ValueError:
        raise ValueError("header must be two integers: p and truncation degree") from None
    _check_prime(p)
    funcs = {}
    for ln in rows[1:]:
        try:
            i, j, v = ln.split()
            i, j, v = int(i), int(j), parse_fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed support line: {ln!r}") from None
        if i + j > degree:
            raise ValueError(f"monomial {(i, j)} exceeds truncation degree {degree}")
        if (i, j) in funcs:
            raise ValueError(f"support line {ln!r} repeats the monomial {(i, j)}")
        funcs[(i, j)] = v
    return p, degree, Copolygon((i, j, v) for (i, j), v in funcs.items())


# -- deterministic SVG ------------------------------------------------------


_SIZE = 640  # width and height of the picture, in pixels
_MARGIN = 60
_LO, _HI = Fraction(-1, 2), Fraction(2)  # the window [-1/2, 2] in both coordinates
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


def _reduced(x: int, y: int, w: int) -> tuple:
    """The point (x/w, y/w), w != 0, as its one triple with gcd 1 and w > 0."""
    g = gcd(x, y, w) if w > 0 else -gcd(x, y, w)
    return x // g, y // g, w // g


_BOX = tuple(_reduced(x.numerator * y.denominator, y.numerator * x.denominator,
                      x.denominator * y.denominator)  # the window's corners
             for x, y in ((_LO, _LO), (_HI, _LO), (_HI, _HI), (_LO, _HI)))


def _clip_halfplane(cell: tuple, a: int, b: int, c: int) -> tuple:
    """Sutherland-Hodgman step on `_reduced` vertices: keep s >= 0, s being
    a*X + b*Y + c*W at (X, Y, W).  An edge cur -> nxt whose ends differ in
    that test crosses at s_cur*nxt - s_nxt*cur.  Repeats in a row, and a
    last vertex equal to the first, are dropped."""
    sides = [a * x + b * y + c * w for x, y, w in cell]
    out = []
    m = len(cell)
    for idx in range(m):
        cur, s_cur = cell[idx], sides[idx]
        nxt, s_nxt = cell[(idx + 1) % m], sides[(idx + 1) % m]
        if s_cur >= 0:
            out.append(cur)
        if (s_cur >= 0) != (s_nxt >= 0):
            out.append(_reduced(*(s_cur * q - s_nxt * r for q, r in zip(nxt, cur))))
    out = [pt for k, pt in enumerate(out) if k == 0 or pt != out[k - 1]]
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def _cells(poly: Copolygon) -> list:
    """(index, vertices as Fraction pairs) of each functional f whose cell
    keeps three vertices: the window clipped, in order, to f <= g for each
    other g, that is (ig-if)*L*X + (jg-jf)*L*Y + (wg-wf)*W >= 0."""
    scale, ws = poly._scaled
    cells = []
    for idx, (i1, j1, w1) in enumerate(ws):
        cell = _BOX
        for k, (ik, jk, wk) in enumerate(ws):
            if k == idx:
                continue
            cell = _clip_halfplane(cell, (ik - i1) * scale, (jk - j1) * scale, wk - w1)
            if len(cell) < 3:
                break
        else:
            cells.append((idx, [(Fraction(x, w), Fraction(y, w)) for x, y, w in cell]))
    return cells


def emit_svg(poly: Copolygon) -> str:
    """Draw the minimality cells, tie segments and vertices of a copolygon.

    The output is byte-stable: integer cell clipping over L, fixed
    iteration order, and integer fixed-point coordinate formatting.
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

    for idx, cell in _cells(poly):
        i1, j1, v1 = poly.functionals[idx]
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
    """Clip a tie segment to the window per axis; returns two endpoints or
    None.  An axis with d != 0 bounds t by (LO - b)/d and (HI - b)/d; one
    with d = 0 keeps the segment only when LO <= b <= HI.  A tie line's
    direction is nonzero, so some axis sets both ends."""
    lo, hi = seg.t_lo, seg.t_hi
    for b, d in zip(seg.base, seg.direction):
        if not d:
            if not _LO <= b <= _HI:
                return None
            continue
        first, last = sorted((Fraction(_LO - b, d), Fraction(_HI - b, d)))
        lo = first if lo is None else max(lo, first)
        hi = last if hi is None else min(hi, last)
    if lo > hi:
        return None
    return seg.point_at(lo), seg.point_at(hi)
