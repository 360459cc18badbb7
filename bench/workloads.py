"""Command grids of the lt2d benchmark.

A workload is a list of cells.  A cell holds commands of about the same
cost that exercise the same code, and one cycle of a workload runs one
command drawn from every cell, in shuffled order.  Every cycle therefore
does the same mix of work whatever the seed: the seed picks among
equal-cost commands and fixes the order, so runs with different seeds
stay comparable.

Precision stays at the default N = 64, which every CLI user gets.  The
truncation degrees stop at D = 28 for `mult`: at D = 32 a single `mult`
command takes 1.5-3 s and at D = 40 about 12 s on a 2-CPU machine, and a
run needs many commands for steady medians.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

# The two fixtures of the acceptance battery: (p, h1, h2).
FIXTURES = ((2, 2, 3), (3, 1, 2))

HEIGHTS = [(a, b) for a in range(1, 7) for b in range(1, 7) if gcd(a, b) == 1]
PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Command:
    """One lt2d invocation and the files it writes into its directory."""

    argv: tuple
    outputs: tuple = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Support:
    """A support file written in set-up from a component of [p]_F."""

    p: int
    h1: int
    h2: int
    degree: int
    component: int

    @property
    def name(self) -> str:
        return (f"pF-p{self.p}-h{self.h1}-{self.h2}"
                f"-D{self.degree}-c{self.component}.support")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    # Seconds one cycle took at the seed commit on a 2-CPU machine, with a
    # reference run after each command; a run of S seconds does
    # S / cycle_s cycles, rounded, whatever its speed.
    cycle_s: float
    smoke: tuple  # two commands of the grid, for the benchmark's own tests
    supports: tuple = ()

    def grid(self) -> list:
        """Every command a run of this workload can draw, once each."""
        return list({cmd.key: cmd for cell in self.cells for cmd in cell}.values())

    def cycles(self, seed: int, smoke: bool = False):
        """Endless stream of cycles drawn with the given seed."""
        rng = random.Random(seed)
        while True:
            if smoke:
                yield list(self.smoke)
                continue
            cycle = [rng.choice(cell) for cell in self.cells]
            rng.shuffle(cycle)
            yield cycle

    def needed_supports(self, smoke: bool = False) -> list:
        cmds = self.smoke if smoke else self.grid()
        names = {arg for cmd in cmds for arg in cmd.argv}
        return [s for s in self.supports if s.name in names]


def _params(p, h1, h2):
    return ("-p", str(p), "--h1", str(h1), "--h2", str(h2))


def _cmd(*argv, outputs=()):
    return Command(tuple(str(a) for a in argv), tuple(outputs))


# -- mult: the group law that `mult` never reads, plus `invert_pair` --------


def _mult(p, h1, h2, degree, a):
    return _cmd("mult", *_params(p, h1, h2), "-D", degree, "-a", a)


def _log(p, h1, h2, degree):
    return _cmd("log", *_params(p, h1, h2), "-D", degree)


def _mult_cells():
    cells = []
    for p, h1, h2 in FIXTURES:
        for degree in (20, 24, 28):
            # a in {2, 3, p, p^2}: build_group dominates, so these cost the same
            cells.append(tuple(_mult(p, h1, h2, degree, a)
                               for a in sorted({2, 3, p, p * p})))
    # One cell for both logarithms, which cost the same: with seven cells of
    # distinct cost, the median command of a run of whole cycles is the
    # middle cell's, not the gap between two cells.
    cells.append(tuple(_log(p, h1, h2, 96) for p, h1, h2 in FIXTURES))
    return tuple(cells)


MULT = Workload(
    "mult", _mult_cells(), cycle_s=5.0,
    smoke=(_mult(2, 2, 3, 24, 2), _log(2, 2, 3, 96)))


# -- group: 4- and 6-variable substitution, series containers ---------------


def _group(p, h1, h2, degree, out=False):
    if out:
        return _cmd("group", *_params(p, h1, h2), "-D", degree,
                    "--out", "group.txt", outputs=("group.txt",))
    return _cmd("group", *_params(p, h1, h2), "-D", degree)


def _verify(p, h1, h2, degree, unramified=False):
    extra = ("--unramified-degree", h1 + h2) if unramified else ()
    return _cmd("verify", *_params(p, h1, h2), "-D", degree, *extra)


def _group_cells():
    cells = []
    for p, h1, h2 in FIXTURES:
        for degree in (16, 20, 24):
            # the container goes to stdout or to a file: same work either way
            cells.append((_group(p, h1, h2, degree),
                          _group(p, h1, h2, degree, out=True)))
            cells.append((_verify(p, h1, h2, degree),))
            cells.append((_verify(p, h1, h2, degree, unramified=True),))
    return tuple(cells)


GROUP = Workload(
    "group", _group_cells(), cycle_s=12.5,
    smoke=(_group(2, 2, 3, 16), _verify(2, 2, 3, 16)))


# -- copolygon: vertices, tie segments and SVG of the true [p]_F ------------

# (p, h1, h2, D) of the [p]_F components written in set-up.  The
# (3, (1, 2)) fixture stops at D = 32: at D = 48 one of its reports takes
# 5-10 s and its picture about 25 s.  (2, (2, 3)) stops at D = 40: at
# D = 48 a report is a single 3-4 s command, and a run needs two cycles,
# so that every command has a twin, for steady medians.
COPOLYGON_SOURCES = ((2, 2, 3, 32), (2, 2, 3, 40), (3, 1, 2, 32))


def _copolygon(support, svg=False):
    if svg:
        return _cmd("copolygon", "--support", support.name, "--svg", "out.svg",
                    outputs=("out.svg",))
    return _cmd("copolygon", "--support", support.name, "--json")


def _copolygon_workload():
    # One command per cell, because the two components of [p]_F differ in
    # cost; the seed shuffles the lines of the support files and the order
    # instead.  Pictures are drawn at D = 32 only: at D = 40 a picture is
    # a single 3-4 s command, which would leave too few commands in a run
    # for steady medians.
    supports, cells = [], []
    for p, h1, h2, degree in COPOLYGON_SOURCES:
        for c in (1, 2):
            s = Support(p, h1, h2, degree, c)
            supports.append(s)
            cells.append((_copolygon(s),))
            if degree == 32:
                cells.append((_copolygon(s, svg=True),))
    first = supports[0]
    return Workload("copolygon", tuple(cells), cycle_s=9.5,
                    smoke=(_copolygon(first), _copolygon(first, svg=True)),
                    supports=tuple(supports))


COPOLYGON = _copolygon_workload()


# -- small: start-up, import and file reads dominate ------------------------


def _small_cells():
    torsion_n, minplus, sweep, ramification = [], [], [], []
    for p in PRIMES:
        for h1, h2 in HEIGHTS:
            base = ("torsion",) + _params(p, h1, h2)
            for n in range(1, 7):
                torsion_n.append(_cmd(*base, "-n", n))
                minplus.append(_cmd(*base, "-n", n, "--method", "minplus"))
            sweep.append(_cmd(*base, "--sweep", 6))
            # the ramification formula needs an odd prime, heights >= 2
            # and an odd total height
            if p > 2 and min(h1, h2) >= 2 and (h1 + h2) % 2:
                ramification.append(_cmd(*base, "--ramification", "--csv"))
    fixtures = tuple(_cmd("copolygon", "--fixture", name, *flag)
                     for name in ("ex1", "dyn23", "dyn312")
                     for flag in ((), ("--json",)))
    logs = tuple(_log(p, h1, h2, degree)
                 for p, h1, h2 in FIXTURES for degree in (8, 12, 16))
    return (tuple(torsion_n), tuple(minplus), tuple(sweep), tuple(ramification),
            fixtures, (_cmd("verify", "--fixture", "mult45"),), logs)


SMALL = Workload(
    "small", _small_cells(), cycle_s=1.9,
    smoke=(_cmd("torsion", *_params(2, 2, 3), "-n", 1),
           _cmd("verify", "--fixture", "mult45")))


WORKLOADS = {w.name: w for w in (MULT, GROUP, COPOLYGON, SMALL)}
