"""Two-dimensional Lubin-Tate formal groups over Z_p.

A coprime pair of heights (h1, h2) determines a logarithm pair L whose
coefficients live in Q_p: with h = h1 + h2 and q = p^h,

    L1 = x1 + sum_{k>=1} p^{-2k} x1^{q^k} + sum_{k>=0} p^{-(2k+1)} x2^{p^{h1} q^k}
    L2 = x2 + sum_{k>=1} p^{-2k} x2^{q^k} + sum_{k>=0} p^{-(2k+1)} x1^{p^{h2} q^k}

L solves the twisted functional equations

    L1 = x1 + p^{-1} L2(x1^{p^{h1}}, x2^{p^{h1}})
    L2 = x2 + p^{-1} L1(x1^{p^{h2}}, x2^{p^{h2}})

and F = L^{-1}(L(X) + L(Y)) is then a formal group law with integral
coefficients whose multiplication-by-p reduces mod p to the cross
Frobenius pair (x2^{p^{h1}}, x1^{p^{h2}}), giving height h1 + h2.

Everything here is exact at the chosen truncation degree.  Every verifier
returns a `Report`: its violations in the checker's order, each naming the
check and, where there is one, the offending monomial; `ok` means none.
"""

from __future__ import annotations

from functools import cached_property

from .padics import (DEFAULT_PRECISION, HeightPair, Padic, PrecisionError, UnramifiedElement,
                     _as_heights, _check_prime, _Record)
from .series import (Series, SeriesPair, compose, dump_sections, grlex, invert_pair,
                     parse_sections)


def _check_params(p: int, degree: int, prec: int):
    _check_prime(p)
    if degree < 1:
        raise ValueError("truncation degree must be at least 1")
    if prec < 1:
        raise PrecisionError("relative precision must be at least 1")


def build_logarithm(p: int, heights, degree: int, prec: int = DEFAULT_PRECISION) -> SeriesPair:
    """Closed-form logarithm pair, truncated at total degree `degree`."""
    heights = _as_heights(heights)
    _check_params(p, degree, prec)
    h = heights.total
    terms1 = {(1, 0): (0, 1, prec)}
    terms2 = {(0, 1): (0, 1, prec)}
    k = 1
    while p ** (k * h) <= degree:
        terms1[(p ** (k * h), 0)] = terms2[(0, p ** (k * h))] = (-2 * k, 1, prec)
        k += 1
    k = 0
    while p ** (heights.h1 + k * h) <= degree:
        terms1[(0, p ** (heights.h1 + k * h))] = (-(2 * k + 1), 1, prec)
        k += 1
    k = 0
    while p ** (heights.h2 + k * h) <= degree:
        terms2[(p ** (heights.h2 + k * h), 0)] = (-(2 * k + 1), 1, prec)
        k += 1
    return SeriesPair(Series(p, 2, degree, terms1), Series(p, 2, degree, terms2))


class Violation(_Record):
    """One failed check in component 1 or 2, at a monomial's exponents or
    at None."""

    _fields = ("component", "exponents", "check", "detail")
    _defaults = ("",)

    def __str__(self):
        where = f" at {self.exponents}" if self.exponents is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"[{self.check}] component {self.component}{where}{tail}"


class Report(_Record):
    """A checker's verdict: its violations, in the order it found them."""

    _fields = ("violations",)
    _defaults = ((),)

    @property
    def ok(self) -> bool:
        return not self.violations


def _differences(a: SeriesPair, b: SeriesPair) -> list:
    """(component, exponents) where two pairs differ, each component in
    graded-lex order."""
    return [(idx, e) for idx, comp in enumerate(a - b, 1) for e in comp.support()]


def recursion_defects(log: SeriesPair, p: int, heights) -> Report:
    """A `recursion` violation per monomial where the twisted functional
    equations fail.

    Checked coefficientwise through the truncation degree, at the widest
    precision among the logarithm's coefficients, so that p^{-1} and the
    identity cap no digit the logarithm carries.  Raising the variables to
    the p^{h_i} power maps degree d to degree d * p^{h_i}, so the truncated
    right-hand side is complete through the shared degree.
    """
    heights = _as_heights(heights)
    prec = max((m for comp in log for _, _, m in comp.terms.values()), default=DEFAULT_PRECISION)
    twisted = SeriesPair(log.second.raise_vars(p**heights.h1), log.first.raise_vars(p**heights.h2))
    rhs = SeriesPair.identity(p, log.degree, prec) + twisted.scale(Padic(p, -1, 1, prec))
    return Report(tuple(Violation(idx, e, "recursion", "twisted functional equation fails")
                        for idx, e in _differences(log, rhs)))


class GroupConstructionError(ArithmeticError):
    """The constructed law failed a structural invariant."""


class LubinTateGroup(_Record):
    """The logarithm and its inverse, two-variable pairs.  The group law,
    its shape findings, [p]_F and its congruence report are derived on first
    read and cached; a law passed in (four variables: x1, x2, y1, y2) is not
    a field, is taken as given and is shape-checked on the first read of
    `law_shape`."""

    _fields = ("p", "heights", "degree", "prec", "logarithm", "exponential")

    def __init__(self, p, heights, degree, prec, logarithm, exponential, law=None):
        super().__init__(p, heights, degree, prec, logarithm, exponential)
        if law is not None:
            self.__dict__["group_law"] = law

    @cached_property
    def group_law(self) -> SeriesPair:
        """F = L^{-1}(L(X) + L(Y)), shape-checked once."""
        log = self.logarithm
        law = compose(self.exponential, log.embed(4, (0, 1)) + log.embed(4, (2, 3)))
        bad = self.__dict__["law_shape"] = _law_shape(law, self.prec)
        if bad:
            v = bad[0]
            raise GroupConstructionError(f"group law has a denominator ({v.detail})"
                                         if v.check == "integral" else v.detail)
        return law

    @cached_property
    def law_shape(self) -> list:
        """`_law_shape` findings on the group law, found once per group: a
        built law records them while it is built, a law passed in is
        checked on this first read."""
        law = self.group_law
        shape = self.__dict__.get("law_shape")
        return _law_shape(law, self.prec) if shape is None else shape

    @cached_property
    def p_multiplication(self) -> SeriesPair:
        return multiplication(self.p, self)  # [p]_F

    @cached_property
    def p_congruences(self) -> Report:
        """`congruence_report` on [p]_F, found once per group:
        `verify_p_congruences`, `height_of` and `group_axioms_report` read it."""
        return congruence_report(self.p_multiplication, self.p, self.heights)


def build_group(p: int, heights, degree: int, prec: int = DEFAULT_PRECISION) -> LubinTateGroup:
    """Construct the logarithm and the exponential (a checked two-sided
    inverse); the group law waits for its first read."""
    heights = _as_heights(heights)
    log = build_logarithm(p, heights, degree, prec)
    return LubinTateGroup(p, heights, degree, prec, log, invert_pair(log))


def multiplication(a, group: LubinTateGroup) -> SeriesPair:
    """[a]_F = L^{-1}(a L(X)) for an integral p-adic multiplier a."""
    if isinstance(a, Padic):
        if a.p != group.p:
            raise ValueError("prime mismatch")
        c = a
    else:
        c = Padic.from_int(group.p, a, group.prec)
    if c.is_zero:
        return SeriesPair.zero(group.p, 2, group.degree)
    if c.valuation < 0:
        raise ValueError(f"multiplier must be integral, valuation {c.valuation} < 0")
    return compose(group.exponential, group.logarithm.scale(c))


def _law_shape(law: SeriesPair, prec: int) -> list:
    """Shape violations of a four-variable law, in the order: a
    denominator, F(X, 0) != X, F(0, Y) != Y."""
    out = []
    mv = law.min_valuation()
    if mv is not None and mv < 0:
        out.append(Violation(0, None, "integral", f"min valuation {mv}"))
    ident = SeriesPair.identity(law.p, law.degree, prec)
    for zeros, name in (((2, 3), "F(X, 0) != X"), ((0, 1), "F(0, Y) != Y")):
        if SeriesPair(law.first.eliminate_zeros(zeros), law.second.eliminate_zeros(zeros)) != ident:
            out.append(Violation(0, None, "identity", name))
    return out


def _linear_defects(f: SeriesPair) -> list:
    """(component, exponents) where the linear part of f is not exactly
    p*X: each component's degree-1 terms must be its variable with
    valuation 1 and unit 1, to every digit the term carries."""
    out = []
    for idx, comp, var in ((1, f.first, (1, 0)), (2, f.second, (0, 1))):
        lin = {e: (v, u) for e, (v, u, _) in comp.terms.items() if sum(e) == 1}
        want = {var: (1, 1)}
        out += [(idx, e) for e in sorted(lin.keys() | want.keys(), key=grlex)
                if lin.get(e) != want.get(e)]
    return out


def congruence_report(f: SeriesPair, p: int, heights) -> Report:
    """Check a pair against the multiplication-by-p congruences.

    Term by term through the pair's truncation degree:
      - integral coefficients, zero constant term;
      - linear part exactly (p x1, p x2);
      - reduction mod p equal to the cross Frobenius pair
        (x2^{p^{h1}}, x1^{p^{h2}}), monomials beyond the truncation excused.
    """
    heights = _as_heights(heights)
    if f.nvars != 2:
        raise ValueError("expected a two-variable pair")
    out = []
    lin_bad = _linear_defects(f)
    frob_exp = ((0, p**heights.h1), (p**heights.h2, 0))
    for idx, comp in ((1, f.first), (2, f.second)):
        if (0, 0) in comp.terms:
            out.append(Violation(idx, (0, 0), "constant", "nonzero constant term"))
        bad_val = [e for e, (v, _, _) in comp.terms.items() if v < 0]
        for e in sorted(bad_val, key=grlex):
            out.append(Violation(idx, e, "integral", "negative valuation"))
        out.extend(Violation(idx, e, "linear", "linear part is not p*X")
                   for i, e in lin_bad if i == idx)
        if bad_val:
            continue  # reduction mod p undefined
        units = comp.units_mod_p()
        expected = {}
        e = frob_exp[idx - 1]
        if sum(e) <= f.degree:
            expected[e] = 1
        for e in sorted(units.keys() | expected.keys(), key=grlex):
            got = units.get(e, 0)
            want_u = expected.get(e, 0)
            if sum(e) <= 1:
                continue  # the linear check owns degree <= 1
            if got != want_u:
                out.append(Violation(idx, e, "frobenius",
                                     f"mod-p coefficient {got}, expected {want_u}"))
    return Report(tuple(out))


def verify_p_congruences(group: LubinTateGroup) -> Report:
    """Congruence checks on [p]_F plus exact linearity L([p]_F X) = p L(X)."""
    m = group.p_multiplication
    out = list(group.p_congruences.violations)
    p_log = group.logarithm.scale(Padic(group.p, 1, 1, group.prec))
    out.extend(Violation(idx, e, "linearity", "L([p] X) != p L(X)")
               for idx, e in _differences(compose(group.logarithm, m), p_log))
    return Report(tuple(out))


def is_endomorphism(f: SeriesPair, group: LubinTateGroup) -> Report:
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


def gamma_endomorphism(gamma: UnramifiedElement, group: LubinTateGroup) -> Report:
    """Verify L(gamma x1, gamma^{p^{h2}} x2) = diag(gamma, gamma^{p^{h2}}) L(X),
    the diagonal endomorphism of a Teichmuller unit gamma of the
    degree-(h1+h2) unramified extension.

    The check is coefficientwise over the logarithm's support: the monomial
    x1^i x2^j picks up gamma^(i + j p^{h2}), which must equal gamma on the
    first component and gamma^{p^{h2}} on the second.  All root-of-unity
    arithmetic happens in the unramified ring at its own precision.
    """
    ring = gamma.ring
    heights = group.heights
    if ring.p != group.p:
        raise ValueError("prime mismatch between gamma and the group")
    if ring.degree != heights.total:
        raise ValueError(f"gamma must live in the degree-{heights.total} unramified ring")
    if gamma.is_zero:
        raise ValueError("gamma must be a unit")
    order = ring.p**ring.degree - 1
    if gamma**order != ring.one():
        raise ValueError("gamma must be a (p^h - 1)-th root of unity (Teichmuller unit)")
    q2 = group.p**heights.h2
    twist = gamma**q2
    out = []
    for idx, comp, target in ((1, group.logarithm.first, gamma),
                              (2, group.logarithm.second, twist)):
        for e in comp.support():
            i, j = e
            if gamma**(i + j * q2) != target:
                out.append(Violation(idx, e, "gamma",
                                     f"gamma^{i + j * q2} differs from the diagonal entry"))
    return Report(tuple(out))


def height_of(group: LubinTateGroup):
    """Height read off from [p]_F mod p.

    Returns h1 + h2 when the reduction is exactly the cross Frobenius pair
    (x2^{p^{h1}}, x1^{p^{h2}}); any other shape gets the diagnostic string
    "not monomial-Frobenius" rather than a guess.
    """
    if group.p ** max(group.heights.h1, group.heights.h2) > group.degree:
        return "not monomial-Frobenius"
    if any(v.check in ("integral", "frobenius") for v in group.p_congruences.violations):
        return "not monomial-Frobenius"
    return group.heights.total


def cauchy_gap(group: LubinTateGroup, m: int, n: int):
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
    vals = [v for v in (diff.first.min_val_plus_degree(), diff.second.min_val_plus_degree())
            if v is not None]
    return min(vals) if vals else None


def group_axioms_report(group: LubinTateGroup, assoc_degree: int = 8) -> Report:
    """Exact group-axiom suite; associativity runs in six variables at
    min(assoc_degree, group degree) to keep the blowup bounded."""
    if assoc_degree < 1:
        raise ValueError(f"assoc_degree must be at least 1, got {assoc_degree}")
    p, degree = group.p, group.degree
    law = group.group_law
    out = []

    swapped = SeriesPair(law.first.permute_vars((2, 3, 0, 1)),
                         law.second.permute_vars((2, 3, 0, 1)))
    if swapped != law:
        out.append(Violation(0, None, "commutative", "F(X,Y) != F(Y,X)"))

    shape = group.law_shape
    out += [v for v in shape if v.check == "identity"]

    da = min(assoc_degree, degree)
    fa = law.truncate(da)
    f_xy = fa.embed(6, (0, 1, 2, 3))
    f_yz = fa.embed(6, (2, 3, 4, 5))
    z1 = Series.variable(p, 6, da, 4, group.prec)
    z2 = Series.variable(p, 6, da, 5, group.prec)
    x1 = Series.variable(p, 6, da, 0, group.prec)
    x2 = Series.variable(p, 6, da, 1, group.prec)
    if compose(fa, [*f_xy, z1, z2]) != compose(fa, [x1, x2, *f_yz]):
        out.append(Violation(0, None, "associative", f"fails at degree {da}"))

    rhs_add = group.logarithm.embed(4, (0, 1)) + group.logarithm.embed(4, (2, 3))
    if compose(group.logarithm, law) != rhs_add:
        out.append(Violation(0, None, "additive", "L(F(X,Y)) != L(X) + L(Y)"))

    out += [v for v in shape if v.check == "integral"]

    if any(v.check == "linear" for v in group.p_congruences.violations):
        out.append(Violation(0, None, "p-differential", "[p]_F linear part is not p*X"))

    return Report(tuple(out))


def group_to_text(group: LubinTateGroup) -> str:
    """Series text serialization with a JSON parameter header."""
    header = {"p": group.p, "h1": group.heights.h1, "h2": group.heights.h2,
              "D": group.degree, "N": group.prec}
    sections = {
        "logarithm.1": group.logarithm.first,
        "logarithm.2": group.logarithm.second,
        "exponential.1": group.exponential.first,
        "exponential.2": group.exponential.second,
        "group_law.1": group.group_law.first,
        "group_law.2": group.group_law.second,
    }
    return dump_sections(header, sections)


def group_from_text(text: str) -> LubinTateGroup:
    header, sections = parse_sections(text)
    heights = HeightPair(header["h1"], header["h2"])
    log = SeriesPair(sections["logarithm.1"], sections["logarithm.2"])
    exp = SeriesPair(sections["exponential.1"], sections["exponential.2"])
    law = SeriesPair(sections["group_law.1"], sections["group_law.2"])
    return LubinTateGroup(header["p"], heights, header["D"],
                          header.get("N", DEFAULT_PRECISION), log, exp, law)
