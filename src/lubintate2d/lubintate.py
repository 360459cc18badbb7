"""Two-dimensional Lubin-Tate formal groups over Z_p.

A coprime pair of heights (h1, h2) determines a logarithm pair L with
coefficients in Q_p, the fixed point of the functional equation that
`padics.cross_frobenius` states; `build_logarithm` iterates it from X.
F = L^{-1}(L(X) + L(Y)) is then a formal group law with integral
coefficients whose multiplication-by-p reduces mod p to that table's
Frobenius monomials, giving height h1 + h2.  So a group is its
logarithm: `LubinTateGroup` holds the heights and L, and derives L^{-1},
F and [p]_F from them.

Everything here is exact at the chosen truncation degree.  Every verifier
returns a `Report`: its violations in the checker's order, each naming the
check and, where there is one, the offending monomial; `ok` means none.
"""

from __future__ import annotations

from functools import cached_property

from .padics import (DEFAULT_PRECISION, HeightPair, Padic, PrecisionError, _as_heights,
                     _check_prime, _check_reach, _Record, cross_frobenius, int_valuation)
from .series import SeriesPair, compose, dump_sections, grlex, invert_pair, linear_defects


def _recursion_rhs(log: SeriesPair, heights: HeightPair, prec: int) -> SeriesPair:
    """X + p^{-1} M(Delta)L at relative precision `prec`: the right-hand side
    of the functional equation, each component's Frobenius monomial read
    off `cross_frobenius`."""
    p = log.p
    twisted = SeriesPair(*(log.first.raise_vars(i) if i else log.second.raise_vars(j)
                           for _, (i, j) in cross_frobenius(p, heights)))
    return SeriesPair.identity(p, log.degree, prec) + twisted.scale(Padic(p, -1, 1, prec))


def build_logarithm(p: int, heights, degree: int, prec: int = DEFAULT_PRECISION) -> SeriesPair:
    """The logarithm pair truncated at total degree `degree`: the fixed point
    of the twisted functional equations, iterated from X one level a step."""
    heights = _as_heights(heights)
    _check_prime(p)
    if degree < 1:
        raise ValueError("truncation degree must be at least 1")
    log = SeriesPair.identity(p, degree, prec)  # `Padic` refuses prec < 1
    while (nxt := _recursion_rhs(log, heights, prec)) != log:
        log = nxt
    return log


class Violation(_Record):
    """One failed check in component 1 or 2, at a monomial's exponents or
    at None."""

    _fields = ("component", "exponents", "check", "detail")

    def __str__(self):
        where = f" at {self.exponents}" if self.exponents is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"[{self.check}] component {self.component}{where}{tail}"


class Report(_Record):
    """A checker's verdict: its violations, in the order it found them."""

    _fields = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations


def _differences(a: SeriesPair, b: SeriesPair) -> list:
    """(component, exponents) where two pairs differ, each component in
    graded-lex order."""
    return [(idx, e) for idx, comp in enumerate(a - b, 1) for e in comp.support()]


def _widest_precision(log: SeriesPair) -> int:
    """The widest precision among the logarithm's coefficients."""
    return max((comp.coefficient(e).prec for comp in log for e in comp.terms),
               default=DEFAULT_PRECISION)


def recursion_defects(log: SeriesPair, heights) -> Report:
    """A `recursion` violation per monomial where the twisted functional
    equations fail.

    Checked coefficientwise through the truncation degree, at the widest
    precision among the logarithm's coefficients, so that p^{-1} and the
    identity cap no digit the logarithm carries.  Raising the variables to
    a Frobenius exponent q maps degree d to degree d * q, so the truncated
    right-hand side is complete through the shared degree.
    """
    rhs = _recursion_rhs(log, _as_heights(heights), _widest_precision(log))
    return Report(tuple(Violation(idx, e, "recursion", "twisted functional equation fails")
                        for idx, e in _differences(log, rhs)))


class LubinTateGroup(_Record):
    """A group fixed by its logarithm pair: the prime `p`, truncation degree
    `degree` and precision `prec` are the logarithm's, and the heights,
    given as a pair, are kept as a `HeightPair`.  The exponential L^{-1},
    L(X) + L(Y), the group law, [p]_F and its congruence report are derived
    on first read and cached."""

    _fields = ("heights", "logarithm")

    def _check(self):
        self.__dict__["heights"] = _as_heights(self.heights)

    @property
    def p(self) -> int:
        return self.logarithm.p

    @property
    def degree(self) -> int:
        return self.logarithm.degree

    @cached_property
    def prec(self) -> int:
        return _widest_precision(self.logarithm)

    @cached_property
    def exponential(self) -> SeriesPair:
        """L^{-1}, a checked two-sided inverse (`series.invert_pair`)."""
        return invert_pair(self.logarithm)

    @cached_property
    def log_sum(self) -> SeriesPair:
        """L(X) + L(Y) in four variables: the law's argument, and what
        `group_axioms_report`'s additivity check compares L(F) against."""
        log = self.logarithm
        return log.embed(4, (0, 1)) + log.embed(4, (2, 3))

    @cached_property
    def group_law(self) -> SeriesPair:
        """F = L^{-1}(L(X) + L(Y)); `group_axioms_report` checks its axioms."""
        return compose(self.exponential, self.log_sum)

    @cached_property
    def p_multiplication(self) -> SeriesPair:
        """[p]_F; at N = 1 `_multiplier` refuses p itself."""
        return multiplication(self.p, self)

    @cached_property
    def p_congruences(self) -> Report:
        """`congruence_report` on [p]_F, found once per group:
        `verify_p_congruences`, `height_of` and `group_axioms_report` read it."""
        return congruence_report(self.p_multiplication, self.heights)


def build_group(p: int, heights, degree: int, prec: int = DEFAULT_PRECISION) -> LubinTateGroup:
    """The group of `build_logarithm`'s logarithm; its exponential and law
    wait for their first read."""
    return LubinTateGroup(heights, build_logarithm(p, heights, degree, prec))


def _multiplier(group: LubinTateGroup, a: int) -> Padic:
    """The scalar a of [a]_F at the group's precision; a nonzero a that is 0
    modulo p^prec is a `PrecisionError` naming the N that holds it."""
    p, prec = group.p, group.prec
    c = Padic.from_int(p, a, prec)
    if a and c.is_zero:
        raise PrecisionError(f"[{a}]_F needs N at least {int_valuation(a, p) + 1}: "
                             f"{a} is 0 modulo {p}^{prec}")
    return c


def multiplication(a: int, group: LubinTateGroup) -> SeriesPair:
    """[a]_F = L^{-1}(a L(X)) for an int a, scaled by `_multiplier`."""
    if not a:
        return SeriesPair.zero(group.p, 2, group.degree)
    scaled = group.logarithm.scale(_multiplier(group, a))  # refused before inverting
    return compose(group.exponential, scaled)


def congruence_report(f: SeriesPair, heights) -> Report:
    """Check a pair against the multiplication-by-p congruences.

    Term by term through the pair's truncation degree:
      - integral coefficients, zero constant term;
      - linear part exactly (p x1, p x2), `series.linear_defects(f, 1)`;
      - reduction mod p equal to M(Delta)X of `cross_frobenius`,
        monomials beyond the truncation excused.
    """
    p = f.p
    if f.nvars != 2:
        raise ValueError("expected a two-variable pair")
    out = []
    lin_bad = linear_defects(f, 1)
    for idx, comp, system in zip((1, 2), f, cross_frobenius(p, heights)):
        if (0, 0) in comp.terms:
            out.append(Violation(idx, (0, 0), "constant", "nonzero constant term"))
        bad_val = [e for e in comp.terms if comp.coefficient(e).valuation < 0]
        for e in sorted(bad_val, key=grlex):
            out.append(Violation(idx, e, "integral", "negative valuation"))
        out.extend(Violation(idx, e, "linear", "linear part is not p*X")
                   for i, e in lin_bad if i == idx)
        if bad_val:
            continue  # reduction mod p undefined
        units = comp.units_mod_p()
        expected = {e: c % p for e, c in system.items() if c % p and sum(e) <= f.degree}
        for e in sorted(units.keys() | expected.keys(), key=grlex):
            got = units.get(e, 0)
            want_u = expected.get(e, 0)
            if sum(e) <= 1:
                continue  # the linear check owns degree <= 1
            if got != want_u:
                out.append(Violation(idx, e, "frobenius",
                                     f"mod-p coefficient {got}, expected {want_u}"))
    return Report(tuple(out))


def linearity_defects(group: LubinTateGroup, m: SeriesPair, a: int) -> list:
    """(component, exponents) where L(m(X)) and a L(X) differ, a scaled as
    `multiplication` scales it: the one check of L([a]_F X) = a L(X), read by
    `verify_p_congruences` for [p]_F and `lt2d mult` for the [a]_F it prints."""
    return _differences(compose(group.logarithm, m),
                        group.logarithm.scale(_multiplier(group, a)))


def verify_p_congruences(group: LubinTateGroup) -> Report:
    """Congruence checks on [p]_F plus exact linearity L([p]_F X) = p L(X)."""
    out = list(group.p_congruences.violations)
    out.extend(Violation(idx, e, "linearity", "L([p] X) != p L(X)")
               for idx, e in linearity_defects(group, group.p_multiplication, group.p))
    return Report(tuple(out))


def gamma_endomorphism(log: SeriesPair, heights) -> Report:
    """A `gamma` violation per monomial of the logarithm pair on which some
    T_gamma = diag(gamma, gamma^q2) fails to commute with L, for gamma in
    mu_n, n = p^h - 1, h = h1 + h2: the roots of unity of O_K = W(F_{p^h}),
    which act on F as [gamma]_F = T_gamma (Lubin & Tate 1965; Hazewinkel
    1978, sections 20-21).  x1^q2 is component 2's Frobenius monomial in
    `cross_frobenius`.

    T_gamma multiplies x1^i x2^j by gamma^w, w = i + j q2, and mu_n is
    cyclic of order n, so L(T_gamma X) = T_gamma L(X) holds for every gamma
    in mu_n exactly when each monomial of L1 has w = 1 (mod n) and each of
    L2 has w = q2 (mod n).  Checked over each component's support in turn,
    through the truncation degree, in integers alone.

    The weights hold in every degree, so the check through the truncation
    is a cross-check of the built series: X has them, and `_recursion_rhs`
    keeps them.  As q1 q2 = p^h = 1 (mod n), a monomial of L2 of weight q2
    becomes one of L2(X^q1), in L1, of weight q1 q2 = 1, and one of L1 of
    weight 1 becomes one of L1(X^q2), in L2, of weight q2; so every iterate
    of `build_logarithm`, and its fixed point, has them.
    """
    hs = _as_heights(heights)
    n = log.p**hs.total - 1
    _, (q2, _) = cross_frobenius(log.p, hs)[1]
    out = []
    for idx, comp, target in ((1, log.first, 1), (2, log.second, q2)):
        for e in comp.support():
            i, j = e
            weight = i + j * q2
            if (weight - target) % n:
                out.append(Violation(idx, e, "gamma",
                                     f"weight {weight} is not {target} modulo {n}"))
    return Report(tuple(out))


def height_of(group: LubinTateGroup):
    """Height read off from [p]_F mod p.

    Returns h1 + h2 when `congruence_report` finds the reduction integral
    and equal to M(Delta)X of `cross_frobenius`; any other shape gets the
    diagnostic string "not monomial-Frobenius" rather than a guess.  A
    truncation too short to keep both Frobenius monomials raises
    (`padics._check_reach`).
    """
    _check_reach(group.p, group.heights, group.degree)
    if any(v.check in ("integral", "frobenius") for v in group.p_congruences.violations):
        return "not monomial-Frobenius"
    return group.heights.total


_ASSOC_DEGREE = 8


def group_axioms_report(group: LubinTateGroup) -> Report:
    """Exact group-axiom suite.  Associativity runs in six variables, on
    the law and the identity pair of the identity check, through
    min(8, D) only, to keep the blowup bounded.  The cap loses nothing:
    additivity L(F(X, Y)) = L(X) + L(Y), checked through D, and an
    invertible L give associativity through D in exact arithmetic, since
    a law is fixed by its logarithm.  The six-variable check is a
    cross-check of the law and of the composition kernel."""
    congruences = group.p_congruences  # before the law: an N too small for p is refused uninverted
    law = group.group_law
    out = []

    if law.embed(4, (2, 3, 0, 1)) != law:
        out.append(Violation(0, None, "commutative", "F(X,Y) != F(Y,X)"))

    ident = SeriesPair.identity(law.p, law.degree, group.prec)
    for zeros, name in (((2, 3), "F(X, 0) != X"), ((0, 1), "F(0, Y) != Y")):
        if SeriesPair(law.first.eliminate_zeros(zeros), law.second.eliminate_zeros(zeros)) != ident:
            out.append(Violation(0, None, "identity", name))

    da = min(_ASSOC_DEGREE, group.degree)
    fa, xs = law.truncate(da), ident.truncate(da)
    if (compose(fa, [*fa.embed(6, (0, 1, 2, 3)), *xs.embed(6, (4, 5))])
            != compose(fa, [*xs.embed(6, (0, 1)), *fa.embed(6, (2, 3, 4, 5))])):
        out.append(Violation(0, None, "associative", f"fails at degree {da}"))

    if compose(group.logarithm, law) != group.log_sum:
        out.append(Violation(0, None, "additive", "L(F(X,Y)) != L(X) + L(Y)"))

    mv = law.min_valuation()
    if mv is not None and mv < 0:
        out.append(Violation(0, None, "integral", f"min valuation {mv}"))

    if any(v.check == "linear" for v in congruences.violations):
        out.append(Violation(0, None, "p-differential", "[p]_F linear part is not p*X"))

    return Report(tuple(out))


_GROUP_PAIRS = ("logarithm", "exponential", "group_law")


def pairs_to_text(heights, logarithm: SeriesPair, pairs: dict, **extra) -> str:
    """The one container writer: {name: SeriesPair} under the heights, the
    N read off the logarithm they were built from, and `extra`."""
    hs = _as_heights(heights)
    header = {"h1": hs.h1, "h2": hs.h2, "N": _widest_precision(logarithm), **extra}
    return dump_sections(header, pairs)


def group_to_text(group: LubinTateGroup) -> str:
    """The group's three pairs in one container."""
    return pairs_to_text(group.heights, group.logarithm,
                         {name: getattr(group, name) for name in _GROUP_PAIRS})

