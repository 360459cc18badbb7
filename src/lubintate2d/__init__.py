"""Two-dimensional Lubin-Tate formal groups over Z_p.

Exact construction of the closed-form logarithm, the group law and its
endomorphisms, Newton copolygons of two-variable p-adic series, and the
valuations of torsion points with their ramification consequences.
Import each name from its submodule: `padics`, `series`, `lubintate`,
`copolygon`, `torsion`, `fixtures`, or the command line in `cli`.
"""

import importlib.util
import sys

# Load order.  Without a bytecode cache a command's peak RSS is its live
# heap plus the transient memory of the module being compiled, so a big
# module compiled late, once `cli` and its parser are live, raises it.
# `padics` and `series`, which every command reads and which are the
# largest to compile, are imported here, first.  The other four are put in
# sys.modules and on the package by `importlib.util.LazyLoader`, which
# compiles and runs a module on its first attribute access, so a command
# pays only for those it reads (`torsion` imports `copolygon` before
# `fractions` for the same reason).  Against importing all six here
# (CPython 3.11, x86-64 Linux, ru_maxrss medians of 9-15 runs): `mult`
# peaks 0.35 MiB lower, `torsion --sweep` 0.09 MiB and `copolygon
# --fixture` 0.04 MiB higher.  All six lazy would add 0.35 MiB to `mult`
# and 1.0 MiB to `torsion`.
from . import padics, series  # noqa: F401


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


lubintate = _lazy("lubintate")
copolygon = _lazy("copolygon")
torsion = _lazy("torsion")
fixtures = _lazy("fixtures")

__version__ = "0.1.0"
