"""The unramified ring W(F_{p^h}) modulo p^prec, with Teichmuller lifts: the
tests' independent oracle for `lubintate.gamma_endomorphism`.

The library checks the action of the roots of unity mu_n, n = p^h - 1, on
the logarithm as integer weights modulo n.  Here the same action is
computed in the ring itself: `ring_gamma_defects` raises one root of unity
gamma to each monomial's weight.  At a primitive gamma (`primitive_unit`)
the two must agree; at a gamma of smaller order the ring sees only the
weights modulo that order.
"""

from functools import cached_property

from lubintate2d.padics import (PrecisionError, _check_precision, _check_prime, _Record,
                                cross_frobenius)


# -- polynomial helpers over Z/m (low-degree-first coefficient tuples) ----


def _poly_trim(f):
    d = len(f)
    while d > 0 and f[d - 1] == 0:
        d -= 1
    return tuple(f[:d])


def _poly_mulmod(a, b, mod, m):
    # mod is monic, so m may be any modulus (UnramifiedElement passes p**prec)
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % m
    return _poly_mod(res, mod, m)


def _poly_powmod(base, e: int, mod, m):
    """base**e modulo (mod, m) for e >= 0, by square-and-multiply over `_poly_mulmod`."""
    result = (1,)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, m)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, mod, m)
    return result


def _poly_mod(a, b, m):
    """Remainder of a modulo the nonzero polynomial b, over Z/m.

    b's leading coefficient must be a unit modulo m; m need not be prime.
    """
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    inv = pow(b[-1], -1, m)
    while len(a) >= len(b):
        c = a[-1] * inv % m
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - c * bj) % m
        while a and not a[-1]:
            a.pop()
    return tuple(a)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def is_irreducible_mod_p(poly, p: int) -> bool:
    """Irreducibility of a monic polynomial f of degree h over F_p by Ben-Or's
    test (FOCS 1981): gcd(x^{p^d} - x, f) = 1 for every d <= h/2."""
    f = tuple(c % p for c in poly)
    h = len(f) - 1
    if h < 1 or f[-1] != 1:
        raise ValueError("expected a monic polynomial of positive degree")
    g = (0, 1)
    for _ in range(h // 2):
        g = _poly_powmod(g, p, f, p)  # x^{p^d} mod f
        g_minus_x = list(g) + [0, 0]
        g_minus_x[1] = (g_minus_x[1] - 1) % p
        if len(_poly_gcd(g_minus_x, f, p)) != 1:
            return False
    return True


def minimal_irreducible(p: int, degree: int):
    """Lexicographically least monic irreducible of given degree over F_p.

    Low coefficients enumerate first: the candidate for code c has
    constant coefficient c % p, then the next base-p digit, and so on.
    """
    for code in range(p**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        candidate = tuple(coeffs) + (1,)
        if is_irreducible_mod_p(candidate, p):
            return candidate
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class UnramifiedRing(_Record):
    """Integers of the degree-h unramified extension of Q_p, modulo p**prec.

    Elements are polynomial residues Z[x]/(modulus, p**prec) for the
    lexicographically least monic modulus irreducible modulo p.
    """

    _fields = ("p", "degree", "prec")

    def _check(self):
        _check_prime(self.p)
        if self.degree < 1:
            raise ValueError("degree must be positive")
        _check_precision(self.prec)

    @cached_property
    def pk(self) -> int:
        return self.p**self.prec

    @cached_property
    def modulus(self) -> tuple:
        return minimal_irreducible(self.p, self.degree)

    def element(self, coeffs) -> "UnramifiedElement":
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.degree - len(coeffs))
        return UnramifiedElement(self, tuple(c % self.pk for c in coeffs))

    def one(self) -> "UnramifiedElement":
        return self.element([1])

    def generator(self) -> "UnramifiedElement":
        """Residue class of x; only meaningful for degree >= 2."""
        if self.degree < 2:
            raise ValueError("generator needs degree >= 2; use element")
        return self.element([0, 1])


class UnramifiedElement(_Record):
    _fields = ("ring", "coeffs")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _same_ring(self, other):
        if not isinstance(other, UnramifiedElement) or other.ring != self.ring:
            raise ValueError("elements of different rings")

    def __mul__(self, other):
        self._same_ring(other)
        ring = self.ring
        return ring.element(_poly_mulmod(self.coeffs, other.coeffs, ring.modulus, ring.pk))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers not supported in the integer ring")
        ring = self.ring
        return ring.element(_poly_powmod(self.coeffs, e, ring.modulus, ring.pk))

    def reduce_mod_p(self) -> tuple:
        return tuple(c % self.ring.p for c in self.coeffs)


def teichmuller(ring: UnramifiedRing, residue) -> UnramifiedElement:
    """Teichmuller lift: the unique (p^h - 1)-th root of unity (or zero)
    congruent to the given residue modulo p.

    Computed by iterating the q-power map, q = p^h, to its fixed point;
    each step adds at least one digit of agreement, so ring.prec steps
    suffice.
    """
    if isinstance(residue, UnramifiedElement):
        coeffs = residue.reduce_mod_p()
    elif isinstance(residue, int):
        coeffs = (residue % ring.p,)
    else:
        coeffs = tuple(int(c) % ring.p for c in residue)
    if all(c == 0 for c in coeffs):
        raise ValueError("residue must be nonzero modulo p")
    x = ring.element(coeffs)
    q = ring.p**ring.degree
    for _ in range(ring.prec):
        nxt = x**q
        if nxt == x:
            return x
        x = nxt
    raise PrecisionError("Teichmuller iteration failed to stabilize")


def unit_order(x: UnramifiedElement) -> int:
    """The multiplicative order of a (p^h - 1)-th root of unity: p^h - 1
    divided down by each of its prime factors r while x^(order / r) = 1."""
    ring = x.ring
    order = rest = ring.p**ring.degree - 1
    r = 2
    while rest > 1:
        if r * r > rest:
            r = rest  # the last prime factor
        if rest % r == 0:
            while rest % r == 0:
                rest //= r
            while order % r == 0 and x**(order // r) == ring.one():
                order //= r
        r += 1
    return order


def primitive_unit(ring: UnramifiedRing) -> UnramifiedElement:
    """The Teichmuller lift of order p^h - 1 of the least residue, in
    `minimal_irreducible`'s enumeration order, that generates F_{p^h}^*."""
    n = ring.p**ring.degree - 1
    for code in range(1, ring.p**ring.degree):
        coeffs = [code // ring.p**k % ring.p for k in range(ring.degree)]
        gamma = teichmuller(ring, coeffs)
        if unit_order(gamma) == n:
            return gamma
    raise RuntimeError("F_{p^h}^* is cyclic")  # unreachable


def ring_gamma_defects(gamma: UnramifiedElement, log, heights) -> list:
    """(component, exponents) of each monomial of the logarithm pair `log`
    on which T_gamma = diag(gamma, gamma^q2) fails to commute with L: the
    monomial x1^i x2^j picks up gamma^(i + j q2), which must equal gamma on
    the first component and gamma^q2 on the second, each component's
    support in turn.  x1^q2 is component 2's Frobenius monomial."""
    _, (q2, _) = cross_frobenius(log.p, heights)[1]
    return [(idx, e) for idx, comp, target in ((1, log.first, gamma), (2, log.second, gamma**q2))
            for e in comp.support() if gamma**(e[0] + e[1] * q2) != target]
