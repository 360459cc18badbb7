"""Paper checks that only the tests call: no `lt2d` command runs them.

Each takes the library's own values and states one claim of the paper:

- `closed_form_logarithm`, criterion 01: the logarithm pair in closed
  form, which the fixed point `build_logarithm` finds must equal term for
  term;
- `is_endomorphism`, criterion 05: f(F(X, Y)) = F(f(X), f(Y)), so the
  uncrossed Frobenius pair is rejected with a concrete monomial;
- `count_p_torsion` with its helper `colength_mod_p`, criterion 07:
  |F[p]| read off the reduction of [p]_F modulo p, which the closed form
  p^(h1+h2) is compared with;
- `cauchy_gap` with its helper `min_val_plus_degree`, criterion 11: the
  renormalized iterates p^{-k} [p^k]_F converge;
- `lower_bound_check` with `evaluate_series`, criterion 13:
  v(f(alpha)) >= V_f(v(alpha)) at a concrete point.

`to_fraction` reads a coefficient as the exact rational the tests compare
it with, `from_fraction` builds a `Padic` from a rational, and
`system_pair` builds the cross-Frobenius system as series.
`forbidden_imports` is the one syntax-tree walk behind the library's
import rules, and `run_lt2d` the one in-process `lt2d` runner of the
golden suites.  `assert_canonical` states what a series the library
derives must be, since `Series._derived` builds it without `_check`.

They read one private helper of the library, `lubintate._differences`,
so they keep its difference rule.  The library never imports this
module.  The certified torsion valuations of the true [p]_F and the
p-torsion points as exact elements (ROADMAP items 6 and 7) would bring
`evaluate_series` back into the library, generalized to a pair
evaluated at points of an extension ring.
"""

import ast
import contextlib
import io
from fractions import Fraction
from pathlib import Path

import lubintate2d
from lubintate2d import cli
from lubintate2d.copolygon import Copolygon
from lubintate2d.lubintate import Report, Violation, _differences, build_group, multiplication
from lubintate2d.padics import (DEFAULT_PRECISION, Padic, _as_heights, _check_prime,
                                cross_frobenius, grlex, int_valuation)
from lubintate2d.series import Series, SeriesPair, compose


# -- criterion 01 -----------------------------------------------------------


def closed_form_logarithm(p: int, heights, degree: int,
                          prec: int = DEFAULT_PRECISION) -> SeriesPair:
    """The closed form of the logarithm pair: with h = h1 + h2 and q = p^h,

        L1 = x1 + sum_{k>=1} p^{-2k} x1^{q^k} + sum_{k>=0} p^{-(2k+1)} x2^{p^{h1} q^k}
        L2 = x2 + sum_{k>=1} p^{-2k} x2^{q^k} + sum_{k>=0} p^{-(2k+1)} x1^{p^{h2} q^k}
    """
    h1, h2 = heights
    h = h1 + h2
    coeffs1 = {(1, 0): 1}
    coeffs2 = {(0, 1): 1}
    k = 1
    while p ** (k * h) <= degree:
        coeffs1[(p ** (k * h), 0)] = coeffs2[(0, p ** (k * h))] = Padic(p, -2 * k, 1, prec)
        k += 1
    k = 0
    while p ** (h1 + k * h) <= degree:
        coeffs1[(0, p ** (h1 + k * h))] = Padic(p, -(2 * k + 1), 1, prec)
        k += 1
    k = 0
    while p ** (h2 + k * h) <= degree:
        coeffs2[(p ** (h2 + k * h), 0)] = Padic(p, -(2 * k + 1), 1, prec)
        k += 1
    return SeriesPair(Series.from_coeffs(p, 2, degree, coeffs1, prec),
                      Series.from_coeffs(p, 2, degree, coeffs2, prec))


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


def colength_mod_p(pair) -> int:
    """|F[p]|, the colength over F_p of a [p]_F pair reduced modulo p.

    Each component must reduce to a single monomial, a power of one
    variable, and the two components to powers of different variables,
    x2^a and x1^b; anything else is a `ValueError`.  Through
    D = max(p^h1, p^h2) these are the lowest-degree terms of the reduced
    pair, and they share no tangent line, so the colength is exactly a*b
    whatever the pair holds past D (Fulton, *Algebraic Curves*, 1969,
    ch. 3 section 3).
    """
    found = []
    for component in pair:
        reduction = component.units_mod_p()
        if len(reduction) != 1:
            raise ValueError(f"reduction mod p is not one monomial: {sorted(reduction)}")
        (exponents,) = reduction
        variables = [i for i, k in enumerate(exponents) if k]
        if len(variables) != 1:
            raise ValueError(f"reduction mod p is not a power of one variable: {exponents}")
        found.append((variables[0], exponents[variables[0]]))
    (first, a), (second, b) = found
    if first == second:
        raise ValueError("both components reduce to powers of the same variable")
    return a * b


def count_p_torsion(p: int, heights) -> int:
    """Number of p-torsion points including the origin, counted on the
    [p]_F of the group of that prime and heights."""
    hs = _as_heights(heights)
    return colength_mod_p(build_group(p, hs, max(p**hs.h1, p**hs.h2)).p_multiplication)


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
    total = Padic(s.p, 0, 0, min(x.prec for x in point))
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


def from_fraction(p: int, q, prec: int = DEFAULT_PRECISION) -> Padic:
    """q at relative precision prec."""
    _check_prime(p)  # before int_valuation, which never ends for p = 1
    q = Fraction(q)
    if q == 0:
        return Padic(p, 0, 0, prec)
    num, den = q.numerator, q.denominator
    vn = int_valuation(num, p)
    vd = int_valuation(den, p)
    u = (num // p**vn) * pow(den // p**vd, -1, p**prec)
    return Padic(p, vn - vd, u, prec)


def system_pair(p: int, heights, degree: int = 9) -> SeriesPair:
    """`padics.cross_frobenius` as truncated series."""
    return SeriesPair(*(Series.from_coeffs(p, 2, degree, c) for c in cross_frobenius(p, heights)))


# -- import rules -----------------------------------------------------------


def forbidden_imports(names, modules=None) -> list:
    """The import statements of the library's modules `modules` (every
    module of the package if None) that name one of `names`, as
    `module:line: [names]`.  Every part of a dotted module name counts, and
    so does every name an import binds, relative imports and imports inside
    functions included."""
    bad = []
    for path in sorted(Path(lubintate2d.__file__).parent.rglob("*.py")):
        if modules is not None and path.stem not in modules:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                named = {part for alias in node.names for part in alias.name.split(".")}
                named.update((getattr(node, "module", None) or "").split("."))
                if named & names:
                    bad.append(f"{path.stem}:{node.lineno}: {sorted(named & names)}")
    return bad


# -- derived series ---------------------------------------------------------


def assert_canonical(s) -> None:
    """What `Series._check` holds of given values, held by a derived series:
    each exponent tuple has `nvars` nonnegative entries of total degree at
    most D, and each (v, u, c) has 0 < u < p^(c - v) with u coprime to p."""
    for e, (v, u, c) in s.terms.items():
        assert type(e) is tuple and len(e) == s.nvars and min(e) >= 0, (s, e)
        assert sum(e) <= s.degree, (s, e)
        assert 0 < u < s.p ** (c - v) and u % s.p, (s, e, (v, u, c))


# -- running lt2d -----------------------------------------------------------


def run_lt2d(argv) -> tuple:
    """(exit code, stdout, stderr) of `lt2d argv`, run in-process through
    `cli.main` in the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()
