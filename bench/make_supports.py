"""Write support files of the components of [p]_F for the copolygon workload.

Usage: python3 make_supports.py DIR P:H1:H2:D [P:H1:H2:D ...]

For each parameter set, [p]_F = L^{-1}(p L(X)) is built from the closed
logarithm with `build_logarithm`, `invert_pair` and `compose`, and the
support of each component is written to DIR under the name that
`workloads.Support.name` gives it.  Run with the library on PYTHONPATH.
"""

import sys
from pathlib import Path

from lubintate2d.copolygon import support_text
from lubintate2d.lubintate import build_logarithm
from lubintate2d.series import compose, invert_pair

from workloads import Support


def main(argv):
    out_dir = Path(argv[0])
    for spec in argv[1:]:
        p, h1, h2, degree = (int(x) for x in spec.split(":"))
        log = build_logarithm(p, (h1, h2), degree)
        p_series = compose(invert_pair(log), log.scale(p))
        for component, series in ((1, p_series.first), (2, p_series.second)):
            name = Support(p, h1, h2, degree, component).name
            (out_dir / name).write_text(support_text(series))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
