"""The yardstick the benchmark times next to every lt2d command.

Usage: python3 bench/reference.py

A fixed amount of stdlib-only work of the kind lt2d does (interpreter
start-up, truncated products of two-variable series whose coefficients
are small objects around big integers, fractions), independent of the
library, so no change to lt2d can change its cost.  The benchmark runs it
as a child after every command, on the same CPU, and reports command
times as multiples of it: the host's speed, which on a shared machine
drifts by tens of per cent within minutes, then cancels out.
"""

import sys
from fractions import Fraction

MODULUS = 3 ** 64


class Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % MODULUS

    def __mul__(self, other):
        return Residue(self.v * other.v)

    def __add__(self, other):
        return Residue(self.v + other.v)


def product(a, b, degree):
    """a * b with the terms of total degree above `degree` dropped."""
    out = {}
    for (i, j), ca in a.items():
        for (k, m), cb in b.items():
            if i + j + k + m <= degree:
                e = (i + k, j + m)
                out[e] = out[e] + ca * cb if e in out else ca * cb
    return out


def main() -> int:
    base = {(i, j): Residue(7 ** (i + 2 * j) + 1)
            for i in range(12) for j in range(12) if i + j <= 12}
    power = base
    for _ in range(3):
        power = product(power, base, 16)
    harmonic = Fraction(0)
    for i in range(1, 1000):
        harmonic += Fraction(1, i)
    return 0 if len(power) == 153 and harmonic > 7 else 1


if __name__ == "__main__":
    sys.exit(main())
