"""Torsion-point valuations of the cross-Frobenius dynamical systems.

For coprime heights (h1, h2) the system D of `padics.cross_frobenius`
approximates [p]_F, F the associated two-dimensional formal group, to
lowest order.  The valuations of its p^n-torsion points obey the paper's
closed formulae.  This module computes them from the formulae, and from
first principles by one walk up the torsion levels (`_minplus_levels`):
level 1 crosses the tie loci of the two component copolygons, read off
the system with no series, and each further level inverts it once
(`_minplus_step`).  It also derives the ramification degree they force
when p is odd and h = h1 + h2 is odd.

It is not [p]_F itself: the law of its limit logarithm, lim p^{-n}
times the n-th iterate of D, is not integral
(tests/test_torsion.py::test_the_cross_frobenius_limit_law_is_not_integral),
so only the true [p]_F can certify the valuations for F (Hazewinkel,
Formal Groups and Applications, 1978, for the functional-equation lemma).
"""

from __future__ import annotations

# `copolygon` first: compiled before `fractions` and `decimal` are live,
# its transient memory sets a lower peak RSS for `torsion`.
from .copolygon import Copolygon, intersect_tie_loci  # isort: skip
from fractions import Fraction
from itertools import islice
from math import gcd

from .padics import (_as_heights, _check_prime, _Record, cross_frobenius, fraction_str,
                     int_valuation)


class AmbiguousBranchError(ArithmeticError):
    """A min-plus inversion step could not single out the Frobenius branch."""


def component_copolygons(p: int, heights) -> tuple:
    """The copolygons of the two components of `padics.cross_frobenius`,
    one functional (i, j, v_p(c)) per monomial, with no series arithmetic."""
    return tuple(Copolygon([(*e, int_valuation(c, p)) for e, c in comp.items()])
                 for comp in cross_frobenius(p, heights))


def hypothesis_status(p: int, heights) -> str:
    """Whether the closed-form valuations are proved for these parameters.

    Returns "in" when p is odd and both heights are at least 2, otherwise
    "outside": the formulae are still evaluated there, but only the
    min-plus computation backs them up.
    """
    _check_prime(p)
    hs = _as_heights(heights)
    return "in" if p != 2 and hs.h1 >= 2 and hs.h2 >= 2 else "outside"


class ValuationProfile(_Record):
    """Coordinate valuations (v(xi), v(eta)) of a torsion point, as Fractions."""

    _fields = ("v_xi", "v_eta")

    def _check(self):
        self.__dict__.update(v_xi=Fraction(self.v_xi), v_eta=Fraction(self.v_eta))

    def __str__(self):
        return f"({fraction_str(self.v_xi)}, {fraction_str(self.v_eta)})"


def torsion_valuations(p: int, heights, n: int) -> ValuationProfile:
    """The paper's closed-form valuations of a nontrivial p^n-torsion point,
    in h1 and h2 on purpose: the oracle, independent of `cross_frobenius`,
    that acceptance criterion 08 holds the min-plus walk to.  With h = h1 + h2:
      n = 2m+1:  v(xi) = (p^h1 + 1) / (p^(h m) (p^h - 1)),
                 v(eta) = (p^h2 + 1) / (p^(h m) (p^h - 1));
      n = 2m:    v(xi) = (p^h2 + 1) / (p^(h m - h1) (p^h - 1)),
                 v(eta) = (p^h1 + 1) / (p^(h m - h2) (p^h - 1)).
    """
    _check_prime(p)
    hs = _as_heights(heights)
    if n < 1:
        raise ValueError("torsion level n must be at least 1")
    h = hs.total
    base = p**h - 1
    if n % 2:
        m = (n - 1) // 2
        return ValuationProfile(Fraction(p**hs.h1 + 1, p**(h * m) * base),
                                Fraction(p**hs.h2 + 1, p**(h * m) * base))
    m = n // 2
    return ValuationProfile(
        Fraction(p**hs.h2 + 1, p**(h * m - hs.h1) * base),
        Fraction(p**hs.h1 + 1, p**(h * m - hs.h2) * base))


def _minplus_step(comp1, comp2, profile: ValuationProfile) -> ValuationProfile:
    """One inversion of the system: the valuations one torsion level up.

    Each component's Frobenius branch is its valuation-0 functional, and
    the candidate is where the two branches take the old valuations.  The
    step stands only if each is the sole minimizer of its copolygon there.
    Beside another minimizer it ties, and outside the minimizers the linear
    branch undercuts it: both raise AmbiguousBranchError.
    """
    frobs = [next(f for f in poly.functionals if not f[2]) for poly in (comp1, comp2)]
    (i1, j1, _), (i2, j2, _) = frobs
    det = i1 * j2 - j1 * i2
    candidate = ((profile.v_xi * j2 - j1 * profile.v_eta) / det,
                 (i1 * profile.v_eta - profile.v_xi * i2) / det)
    for poly, frob in zip((comp1, comp2), frobs):
        tied = poly.argmin(candidate)
        if frob not in tied:
            raise AmbiguousBranchError(
                f"linear branch undercuts the Frobenius branch at {candidate}")
        if tied != [frob]:
            raise AmbiguousBranchError(
                f"linear and Frobenius branches tie at {candidate}")
    return ValuationProfile(*candidate)


def _minplus_levels(p: int, hs):
    """The min-plus valuations of p^n-torsion for n = 1, 2, ..., without end."""
    comp1, comp2 = component_copolygons(p, hs)
    crossings = [pt for pt in intersect_tie_loci(comp1, comp2) if pt[0] > 0 and pt[1] > 0]
    if len(crossings) != 1:
        raise ArithmeticError(f"expected one positive tie crossing, found {len(crossings)}")
    profile = ValuationProfile(*crossings[0])
    while True:
        yield profile
        profile = _minplus_step(comp1, comp2, profile)


def torsion_valuations_via_minplus(p: int, heights, n: int) -> ValuationProfile:
    """Valuations of p^n-torsion computed from the copolygon geometry: level
    n of `_minplus_levels`, which builds no series.
    """
    _check_prime(p)
    hs = _as_heights(heights)
    if n < 1:
        raise ValueError("torsion level n must be at least 1")
    return next(islice(_minplus_levels(p, hs), n - 1, None))


def profile_report(p: int, heights, n_max: int) -> list:
    """Level-by-level table comparing the two valuation computations."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    hs = _as_heights(heights)
    status = hypothesis_status(p, hs)
    rows = []
    # `range` first: zip stops before it asks the walk for a level past n_max
    for n, minplus in zip(range(1, n_max + 1), _minplus_levels(p, hs)):
        closed = torsion_valuations(p, hs, n)
        rows.append({"n": n, "v_xi": closed.v_xi, "v_eta": closed.v_eta,
                     "agree": closed == minplus, "hypothesis_status": status})
    return rows


# -- ramification -----------------------------------------------------------


def gcd_lemma(p: int, s: int, t: int) -> int:
    """The halved gcd gcd((p^s - 1)/2, (p^t + 1)/2) under the hypotheses
    that force it to be 1.

    Requires p odd, s and t coprime, both at least 2, s odd.
    """
    if s < 2 or t < 2:
        raise ValueError("s and t must be at least 2")
    if s % 2 == 0:
        raise ValueError("s must be odd")
    if gcd(s, t) != 1:
        raise ValueError("s and t must be coprime")
    _check_prime(p)
    if p == 2:
        raise ValueError("the halved gcd needs an odd prime")
    return gcd((p**s - 1) // 2, (p**t + 1) // 2)


class RamificationReport(_Record):
    """Degree of the totally ramified extension cut out by p-torsion.

    Both coordinate valuations have reduced denominator (p^h - 1)/2, and
    the witness gcds certify the coprimality that makes the denominators
    collapse to that single value.
    """

    _fields = ("p", "h1", "h2", "degree", "v_xi", "v_eta", "witness_h1", "witness_h2")


def ramification_report(p: int, heights) -> RamificationReport:
    """The paper's closed-form ramification degree (p^h - 1)/2 for odd p,
    odd h and heights >= 2."""
    _check_prime(p)
    hs = _as_heights(heights)
    if p == 2:
        raise ValueError("the ramification formula needs an odd prime")
    if hs.h1 < 2 or hs.h2 < 2:
        raise ValueError("both heights must be at least 2")
    h = hs.total
    if h % 2 == 0:
        raise ValueError("h = h1 + h2 must be odd")
    degree = (p**h - 1) // 2
    level1 = torsion_valuations(p, hs, 1)
    w1 = gcd_lemma(p, h, hs.h1)
    w2 = gcd_lemma(p, h, hs.h2)
    if w1 != 1 or w2 != 1:
        raise ArithmeticError("halved gcd witnesses failed to be 1")
    if level1.v_xi.denominator != degree or level1.v_eta.denominator != degree:
        raise ArithmeticError("reduced denominators disagree with the degree")
    return RamificationReport(p, hs.h1, hs.h2, degree, level1.v_xi, level1.v_eta, w1, w2)


def ramification_csv(report: RamificationReport) -> str:
    """One report as a CSV header and row: the keys of its JSON form,
    `vars(report)`, and their values, a rational as num/den."""
    row = vars(report)
    values = (fraction_str(v) if isinstance(v, Fraction) else str(v) for v in row.values())
    return f"{','.join(row)}\n{','.join(values)}\n"
