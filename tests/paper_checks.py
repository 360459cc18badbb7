"""Paper checks that only the tests call: no `lt2d` command runs them.

Each takes the library's own values and states one claim of the paper:

- `is_endomorphism`, criterion 05: f(F(X, Y)) = F(f(X), f(Y)), so the
  uncrossed Frobenius pair is rejected with a concrete monomial;
- `count_p_torsion`, criterion 07: |F[p]| = p^(h1+h2), the closed form;
- `cauchy_gap` with its helper `min_val_plus_degree`, criterion 11: the
  renormalized iterates p^{-k} [p^k]_F converge;
- `lower_bound_check` with `evaluate_series`, criterion 13:
  v(f(alpha)) >= V_f(v(alpha)) at a concrete point.

`to_fraction` reads a coefficient as the exact rational the tests compare
it with.

They read one private helper of the library, `lubintate._differences`,
so they keep its difference rule.  The library never imports this
module.  The certified torsion valuations of the true [p]_F and the
p-torsion points as exact elements (ROADMAP items 6 and 7) would bring
`evaluate_series` back into the library, generalized to a pair
evaluated at points of an extension ring.
"""

from fractions import Fraction

from lubintate2d.copolygon import Copolygon
from lubintate2d.lubintate import Report, Violation, _differences, multiplication
from lubintate2d.padics import Padic, _as_heights, _check_prime, grlex
from lubintate2d.series import compose


# -- criterion 05 -----------------------------------------------------------


def is_endomorphism(f, group) -> Report:
    """Does f(F(X, Y)) equal F(f(X), f(Y)) through the group's degree?

    One violation per differing monomial, sorted by (graded-lex order,
    component), so the first names the earliest.
    """
    if f.nvars != 2 or f.degree != group.degree or f.p != group.p:
        raise ValueError("endomorphism candidate must match the group's shape")
    law = group.group_law
    diffs = _differences(compose(f, law),
                         compose(law, [*f.embed(4, (0, 1)), *f.embed(4, (2, 3))]))
    return Report(tuple(Violation(idx, e, "endomorphism", "f(F(X,Y)) != F(f(X), f(Y))")
                        for idx, e in sorted(diffs, key=lambda d: (grlex(d[1]), d[0]))))


# -- criterion 07 -----------------------------------------------------------


def count_p_torsion(p: int, heights) -> int:
    """Number of p-torsion points including the origin: p^(h1+h2), the
    paper's closed form."""
    _check_prime(p)
    hs = _as_heights(heights)
    return p**hs.total


# -- criterion 11 -----------------------------------------------------------


def min_val_plus_degree(s):
    """min over terms of (coefficient valuation + total degree)."""
    if not s.terms:
        return None
    return min(v + sum(e) for e, (v, _, _) in s.terms.items())


def cauchy_gap(group, m: int, n: int):
    """Valuation gap between renormalized iterates L_k = p^{-k} [p^k]_F.

    Term valuation is coefficient valuation plus total degree.  Returns the
    minimum over the surviving monomials of L_m - L_n, or None when the
    difference vanishes identically at this truncation (the infinite
    marker).  The gap is at least n + 1 whenever m > n.
    """
    if not (m >= n >= 1):
        raise ValueError("need m >= n >= 1")
    has_nonlinear = any(sum(e) > 1
                        for comp in (group.logarithm.first, group.logarithm.second)
                        for e in comp.terms)
    if not has_nonlinear:
        raise ValueError("truncation degree too small: the logarithm has no nonlinear term")
    if m == n:
        return None
    lm = multiplication(group.p**m, group).scale(Padic(group.p, -m, 1, group.prec))
    ln = multiplication(group.p**n, group).scale(Padic(group.p, -n, 1, group.prec))
    diff = lm - ln
    vals = [v for v in (min_val_plus_degree(diff.first), min_val_plus_degree(diff.second))
            if v is not None]
    return min(vals) if vals else None


# -- criterion 13 -----------------------------------------------------------


def evaluate_series(s, point) -> Padic:
    """Value of a two-variable series at a pair of p-adic scalars.

    The powers, the products and the grlex sum are all taken with `Padic`
    arithmetic.
    """
    if s.nvars != 2:
        raise ValueError("expected a two-variable series")
    if any(x.p != s.p for x in point):
        raise ValueError(f"prime mismatch: the series is over Z_{s.p}")
    powers = []
    for x in point:
        row = [Padic(s.p, 0, 1, x.prec)]
        for _ in range(s.degree):
            row.append(row[-1] * x)
        powers.append(row)
    total = Padic.zero(s.p, min(x.prec for x in point))
    for e in sorted(s.terms, key=grlex):
        total = total + s.coefficient(e) * powers[0][e[0]] * powers[1][e[1]]
    return total


def lower_bound_check(s, point) -> bool:
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


# -- exact values -----------------------------------------------------------


def to_fraction(x: Padic) -> Fraction:
    """Exact value of the balanced representative of x."""
    if x.is_zero:
        return Fraction(0)
    return Fraction(x.balanced_unit()) * Fraction(x.p) ** x.val
