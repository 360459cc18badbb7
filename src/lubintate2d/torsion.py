"""Torsion-point valuations of the cross-Frobenius dynamical systems.

For coprime heights (h1, h2) the system

    D(x1, x2) = (p*x1 + x2^(p^h1), p*x2 + x1^(p^h2))

is the lowest-order approximation of the multiplication-by-p endomorphism
of the associated two-dimensional formal group.  The valuations of its
p^n-torsion points obey closed formulae; this module computes them both
from the formulae and from first principles with the min-plus copolygon
machinery, and derives the ramification degree they force when p is odd
and h = h1 + h2 is odd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .copolygon import Copolygon, fraction_str, intersect_tie_loci
from .padics import _as_heights, _check_prime, _Record
from .series import Series, SeriesPair


class AmbiguousBranchError(ArithmeticError):
    """A min-plus inversion step could not single out the Frobenius branch."""


def dynamical_system(p: int, heights, degree: int) -> SeriesPair:
    """The pair (p*x1 + x2^(p^h1), p*x2 + x1^(p^h2)) as truncated series.

    The truncation degree must reach both Frobenius monomials, otherwise
    the system degenerates to its linear part.
    """
    _check_prime(p)
    hs = _as_heights(heights)
    q1, q2 = p**hs.h1, p**hs.h2
    if degree < max(q1, q2):
        raise ValueError(
            f"truncation degree {degree} drops a Frobenius monomial: "
            f"need at least {max(q1, q2)}")
    first = Series.from_coeffs(p, 2, degree, {(1, 0): p, (0, q1): 1})
    second = Series.from_coeffs(p, 2, degree, {(0, 1): p, (q2, 0): 1})
    return SeriesPair(first, second)


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
    """Closed-form valuations of a nontrivial p^n-torsion point.

    With h = h1 + h2:
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


def torsion_valuations_via_minplus(p: int, heights, n: int,
                                   start: ValuationProfile = None) -> ValuationProfile:
    """Valuations of p^n-torsion computed from the copolygon geometry.

    Level 1 is the unique positive crossing of the tie loci of the two
    component copolygons.  Each further level inverts the system once:
    the new valuations are forced by the Frobenius branches, and the step
    is accepted only if each Frobenius branch is the strict minimizer of
    its component copolygon at the new point; a tie or an undercut by the
    linear branch raises AmbiguousBranchError.

    A start profile substitutes for the level-1 computation, which lets a
    caller replay the inversion from arbitrary valuations.
    """
    _check_prime(p)
    hs = _as_heights(heights)
    if n < 1:
        raise ValueError("torsion level n must be at least 1")
    q1, q2 = p**hs.h1, p**hs.h2
    comp1, comp2 = map(Copolygon.from_series, dynamical_system(p, hs, max(q1, q2)))
    if start is None:
        crossings = [pt for pt in intersect_tie_loci(comp1, comp2)
                     if pt[0] > 0 and pt[1] > 0]
        if len(crossings) != 1:
            raise ArithmeticError(
                f"expected one positive tie crossing, found {len(crossings)}")
        profile = ValuationProfile(*crossings[0])
    else:
        profile = start
    for _ in range(n - 1):
        v_xi = profile.v_eta / q2
        v_eta = profile.v_xi / q1
        candidate = (v_xi, v_eta)
        for poly, frob, target in ((comp1, (0, q1, Fraction(0)), profile.v_xi),
                                   (comp2, (q2, 0, Fraction(0)), profile.v_eta)):
            tied = poly.argmin(candidate)
            if poly.evaluate(candidate) != target:
                raise AmbiguousBranchError(
                    f"linear branch undercuts the Frobenius branch at {candidate}")
            if tied != [frob]:
                raise AmbiguousBranchError(
                    f"linear and Frobenius branches tie at {candidate}")
        profile = ValuationProfile(v_xi, v_eta)
    return profile


def profile_report(p: int, heights, n_max: int) -> list:
    """Level-by-level table comparing the two valuation computations."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    hs = _as_heights(heights)
    status = hypothesis_status(p, hs)
    rows = []
    for n in range(1, n_max + 1):
        closed = torsion_valuations(p, hs, n)
        minplus = torsion_valuations_via_minplus(p, hs, n)
        rows.append({
            "n": n,
            "v_xi": closed.v_xi,
            "v_eta": closed.v_eta,
            "minplus_v_xi": minplus.v_xi,
            "minplus_v_eta": minplus.v_eta,
            "agree": closed == minplus,
            "hypothesis_status": status,
        })
    return rows


# -- the p-torsion layer ----------------------------------------------------


def count_p_torsion(p: int, heights) -> int:
    """Number of p-torsion points including the origin: p^(h1+h2)."""
    _check_prime(p)
    hs = _as_heights(heights)
    return p**hs.total


class SymbolicPoint(_Record):
    """Human-readable coordinates of a generic nontrivial p-torsion point."""

    _fields = ("xi", "eta")

    def __str__(self):
        return f"({self.xi}, {self.eta})"


class PTorsionReport(_Record):
    """Everything the level-1 valuations pin down about the p-torsion.

    identity_first is whether 1 + v_xi == p^h1 * v_eta, identity_second
    whether p^h2 * v_xi == 1 + v_eta, and sample a `SymbolicPoint`.
    family_size counts the parametrized expressions (zeta over the
    (p^h - 1)-th roots of 1, zeta' over the p^h2-th roots of -1); the
    first equation of the system pins the root choice in the first
    coordinate, so the honest count of nontrivial points is p^h - 1 and
    family_size exceeds it by the factor p^h2.
    """

    _fields = ("p", "h1", "h2", "v_xi", "v_eta", "identity_first", "identity_second",
               "family_size", "torsion_count", "hypothesis_status", "sample")


def p_torsion_report(p: int, heights) -> PTorsionReport:
    _check_prime(p)
    hs = _as_heights(heights)
    level1 = torsion_valuations(p, hs, 1)
    a, b = level1.v_xi, level1.v_eta
    q1, q2 = p**hs.h1, p**hs.h2
    h = hs.total
    sample = SymbolicPoint(
        xi=f"zeta' * zeta^{q1} * p^({fraction_str(a)})",
        eta=f"zeta * p^({fraction_str(b)})",
    )
    return PTorsionReport(
        p=p,
        h1=hs.h1,
        h2=hs.h2,
        v_xi=a,
        v_eta=b,
        identity_first=(1 + a == q1 * b),
        identity_second=(q2 * a == 1 + b),
        family_size=(p**h - 1) * q2,
        torsion_count=p**h,
        hypothesis_status=hypothesis_status(p, hs),
        sample=sample,
    )


# -- ramification -----------------------------------------------------------


def gcd_lemma_raw(p: int, s: int, t: int) -> int:
    """gcd((p^s - 1)/2, (p^t + 1)/2) with no hypothesis checking."""
    _check_prime(p)
    if p == 2:
        raise ValueError("the halved gcd needs an odd prime")
    return gcd((p**s - 1) // 2, (p**t + 1) // 2)


def gcd_lemma(p: int, s: int, t: int) -> int:
    """The halved gcd under the hypotheses that force it to be 1.

    Requires p odd, s and t coprime, both at least 2, s odd.
    """
    if s < 2 or t < 2:
        raise ValueError("s and t must be at least 2")
    if s % 2 == 0:
        raise ValueError("s must be odd")
    if gcd(s, t) != 1:
        raise ValueError("s and t must be coprime")
    return gcd_lemma_raw(p, s, t)


class RamificationReport(_Record):
    """Degree of the totally ramified extension cut out by p-torsion.

    Both coordinate valuations have reduced denominator (p^h - 1)/2, and
    the witness gcds certify the coprimality that makes the denominators
    collapse to that single value.
    """

    _fields = ("p", "h1", "h2", "degree", "v_xi", "v_eta", "witness_h1", "witness_h2")


def ramification_report(p: int, heights) -> RamificationReport:
    """Ramification degree (p^h - 1)/2 for odd p, odd h, heights >= 2."""
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
    return RamificationReport(p=p, h1=hs.h1, h2=hs.h2, degree=degree,
                              v_xi=level1.v_xi, v_eta=level1.v_eta,
                              witness_h1=w1, witness_h2=w2)


def ramification_csv(params) -> str:
    """CSV table of ramification degrees for (p, (h1, h2)) parameter pairs."""
    lines = ["p,h1,h2,degree,v_xi,v_eta,witness_h1,witness_h2"]
    for p, heights in params:
        r = ramification_report(p, heights)
        lines.append(f"{r.p},{r.h1},{r.h2},{r.degree},"
                     f"{fraction_str(r.v_xi)},{fraction_str(r.v_eta)},"
                     f"{r.witness_h1},{r.witness_h2}")
    return "\n".join(lines) + "\n"
