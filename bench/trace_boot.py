"""Run one lt2d command with spans around the library's public functions.

Usage: python3 trace_boot.py SPANS_FILE LT2D_ARG...

The bootstrap imports the CLI, wraps the functions listed below from
outside the library, calls `cli.main(argv)` and, when it returns, writes
one JSON object to SPANS_FILE:

    {"spans": [[name, start, end, parent], ...], "counts": {name: n}}

Times come from `time.perf_counter`; `parent` indexes the enclosing span
or is null.  Scalar p-adic operations and copolygon evaluations are
counted but get no span, because a span costs more than the operation.
Run with the library on PYTHONPATH.
"""

import time

_clock = time.perf_counter
_T_START = _clock()

import bisect  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from math import comb  # noqa: E402

import lubintate2d.cli as cli  # noqa: E402

_T_IMPORT = _clock()

spans = []
counts = Counter()
_stack = []


def _mul_stats(args, result):
    a, b = args
    degrees = sorted(sum(e) for e in b.terms)
    counts["series.mul_pairs_tried"] += len(a.terms) * len(degrees)
    counts["series.mul_pairs_kept"] += sum(
        bisect.bisect_right(degrees, a.degree - sum(e)) for e in a.terms)
    counts["series.mul_out_terms"] += len(result.terms)


def _vertex_stats(args, result):
    n = len(args[0].functionals)
    counts["copolygon.functionals"] += n
    counts["copolygon.triples"] += comb(n, 3)
    counts["copolygon.vertices_found"] += len(result)


def _segment_stats(args, result):
    counts["copolygon.pairs"] += comb(len(args[0].functionals), 2)
    counts["copolygon.segments_found"] += len(result)


# (span name, module, attribute, statistics hook)
SPANNED = (
    ("lubintate.build_group", "lubintate", "build_group", None),
    ("lubintate.multiplication", "lubintate", "multiplication", None),
    ("lubintate.group_axioms_report", "lubintate", "group_axioms_report", None),
    ("lubintate.verify_p_congruences", "lubintate", "verify_p_congruences", None),
    ("lubintate.height_of", "lubintate", "height_of", None),
    ("lubintate.group_to_text", "lubintate", "group_to_text", None),
    ("series.invert_pair", "series", "invert_pair", None),
    ("series.compose", "series", "compose", None),
    ("series.substitute", "series", "Series.substitute", None),
    ("series.mul", "series", "Series.__mul__", _mul_stats),
    ("series.dump_sections", "series", "dump_sections", None),
    ("series.parse_sections", "series", "parse_sections", None),
    ("copolygon.vertices", "copolygon", "Copolygon.vertices", _vertex_stats),
    ("copolygon.tie_segments", "copolygon", "Copolygon.tie_segments", _segment_stats),
    ("copolygon.emit_svg", "copolygon", "emit_svg", None),
    ("copolygon.parse_support", "copolygon", "parse_support_text", None),
    ("copolygon.intersect_tie_loci", "copolygon", "intersect_tie_loci", None),
    ("torsion.minplus", "torsion", "torsion_valuations_via_minplus", None),
    ("torsion.closed", "torsion", "torsion_valuations", None),
    ("torsion.ramification_report", "torsion", "ramification_report", None),
    ("fixtures.load_fixture", "fixtures", "load_fixture", None),
    ("fixtures.stored_mult45", "fixtures", "stored_mult45", None),
)

# (counter name, module, attribute)
COUNTED = (
    ("padics.new", "padics", "Padic.__init__"),
    ("padics.mul_calls", "padics", "Padic.__mul__"),
    ("padics.mul_calls", "padics", "Padic.__rmul__"),
    ("padics.add_calls", "padics", "Padic.__add__"),
    ("padics.add_calls", "padics", "Padic.__radd__"),
    ("copolygon.evaluate_calls", "copolygon", "Copolygon.evaluate"),
)


def _spanned(name, fn, stats):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append([name, _clock(), None, _stack[-1] if _stack else None])
        _stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[index][2] = _clock()
            _stack.pop()
        if stats is not None:
            stats(args, result)
        return result
    return wrapper


def _counted(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _replace(module_name, attribute, make):
    """Swap in make(original) everywhere the library refers to it."""
    module = sys.modules[f"lubintate2d.{module_name}"]
    owner_name, _, attr = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    holders = [(mod, key) for name, mod in list(sys.modules.items())
               if name == "lubintate2d" or name.startswith("lubintate2d.")
               for key, value in vars(mod).items() if value is original]
    for mod, key in holders:
        setattr(mod, key, wrapped)


def install():
    for name, module, attribute, stats in SPANNED:
        _replace(module, attribute,
                 lambda fn, name=name, stats=stats: _spanned(name, fn, stats))
    for name, module, attribute in COUNTED:
        _replace(module, attribute, lambda fn, name=name: _counted(name, fn))


def main(argv):
    spans_file, args = argv[0], argv[1:]
    spans.append(["cli.import", _T_START, _T_IMPORT, None])
    install()
    run = _spanned("cli.main", cli.main, None)
    try:
        return run(args)
    finally:
        with open(spans_file, "w") as f:
            json.dump({"spans": spans, "counts": counts}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
