"""Named example inputs shared by the command line and the tests.

Three kinds of fixture live here: the running two-variable copolygon
example 2*x1*x2 + x1^4 + x2^5 over Z_2, the cross-Frobenius systems of
`padics.cross_frobenius`, both held as their copolygons, and a stored
degree-32 sample of a multiplication-by-2 endomorphism for heights
(4, 5), held in this module as a container string.  The stored sample
is kept with its known defect: its mod-2 reduction (x1^32, x2^16) has
each component a power of its own variable, where the table of
`padics.cross_frobenius` reads the other one, which makes it a useful
negative control for the congruence checks.
"""

from __future__ import annotations

# Modules, not names, as in `cli`: a fixture runs only the modules it
# reads, so `ex1` and the dyn systems never compile `series`.
from . import copolygon, padics, series, torsion


# The stored sample as a `series.dump_sections` container: its header,
# then the two components of "mult".
_MULT45 = """\
{"D": 32, "N": 64, "h1": 4, "h2": 5, "p": 2}
[mult.1 v=2 D=32]
1 0 : 1 1
4 0 : 2 1
4 2 : 4 1
2 16 : 1 1
32 0 : 0 1
[mult.2 v=2 D=32]
0 1 : 1 1
0 4 : 3 1
2 4 : 3 1
8 2 : 1 1
0 16 : 0 1
"""


def stored_mult45():
    """The stored height-(4, 5) multiplication-by-2 sample over Z_2.

    Returns (header, pair) where the header carries p, h1, h2, D and N.
    """
    header, pairs = series.parse_sections(_MULT45)
    return header, pairs["mult"]


def frobenius_profile(pair: series.SeriesPair, heights) -> dict:
    """What a multiplication-by-p candidate actually looks like mod p.

    Reads the single mod-p monomial of each component (None when the
    reduction is not a single monic monomial) and reports the sorted total
    degrees of those monomials and whether the orientation is crossed: each
    is a power of the variable of its component's Frobenius monomial in
    `padics.cross_frobenius`.
    """
    monomials = []
    for comp in pair:
        units = comp.units_mod_p()
        if len(units) == 1:
            e, u = next(iter(units.items()))
            monomials.append(e if u == 1 and sum(e) > 1 else None)
        else:
            monomials.append(None)
    cross = all(e is not None and [*map(bool, e)] == [*map(bool, frob)]
                for e, (_, frob) in zip(monomials, padics.cross_frobenius(pair.p, heights)))
    return {"cross": cross, "exponents": sorted(sum(e) for e in monomials if e is not None)}


FIXTURE_NAMES = ("ex1", "dyn23", "dyn312", "mult45")


def load_fixture(name: str) -> tuple:
    """Fixture registry for the command line: (p, degree, copolygons),
    one copolygon per component.

    ex1    -> the functionals of 2*x1*x2 + x1^4 + x2^5 over Z_2, degree 9
    dyn23  -> `torsion.component_copolygons(2, (2, 3))`, degree 9
    dyn312 -> `torsion.component_copolygons(3, (1, 2))`, degree 9
    mult45 -> the stored height-(4, 5) sample, at its header's D = 32

    Degree 9 keeps every monomial of ex1 and the Frobenius monomials of
    both dyn systems (`padics._check_reach`).
    """
    if name == "mult45":
        pair = stored_mult45()[1]
        return pair.p, pair.degree, tuple(map(copolygon.Copolygon.from_series, pair))
    if name == "ex1":
        return 2, 9, (copolygon.Copolygon([(1, 1, 1), (4, 0, 0), (0, 5, 0)]),)
    if name == "dyn23":
        return 2, 9, torsion.component_copolygons(2, (2, 3))
    if name == "dyn312":
        return 3, 9, torsion.component_copolygons(3, (1, 2))
    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
