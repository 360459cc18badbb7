"""Two-dimensional Lubin-Tate formal groups over Z_p.

Exact construction of the closed-form logarithm, the group law and its
endomorphisms, Newton copolygons of two-variable p-adic series, and the
valuations of torsion points with their ramification consequences.
Import each name from its submodule: `padics`, `series` (which
re-exports its second half, `series_ops`), `lubintate`, `copolygon`,
`torsion`, `fixtures`, or the command line in `cli`.
"""

import importlib.util
import sys

# Load order.  Without a bytecode cache a command's peak RSS is its live
# heap plus the transient memory of the module being compiled, so a big
# module compiled late, once `cli` and its parser are live, raises it.
# `padics`, which every command reads, is imported here, first.  The other
# six are put in sys.modules and on the package by
# `importlib.util.LazyLoader`, which compiles and runs a module on its
# first attribute access, so a command pays only for those it reads:
# `torsion`, `copolygon --support` and every fixture but `mult45` never
# compile `series`.  `series` is two modules for the same reason: `Series`
# in `series` (12.0 KB), and the kernels, pairs and container in
# `series_ops` (14.6 KB), which `series` imports and re-exports.  Loaded
# lazily as one 25.5 KB module it raised the peaks of `mult -D 24`,
# `log -D 96` and `group -D 16` from 15.34-15.37 to 15.96-15.98 MiB
# (medians of 11 interleaved runs on one pinned CPU, with
# PYTHONDONTWRITEBYTECODE=1).  Split, they peak up to 0.19 MiB below importing
# it here, `copolygon --fixture` within 0.07 MiB of that, and the
# commands that never load it 0.16-0.32 MiB below (CPython 3.11, x86-64
# Linux, ru_maxrss medians of 9-25 runs).
# `torsion` imports `copolygon` before `fractions`, so that the larger
# module compiles first.
from . import padics  # noqa: F401


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


series = _lazy("series")
series_ops = _lazy("series_ops")
lubintate = _lazy("lubintate")
copolygon = _lazy("copolygon")
torsion = _lazy("torsion")
fixtures = _lazy("fixtures")

__version__ = "0.1.0"
