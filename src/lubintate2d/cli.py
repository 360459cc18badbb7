"""Command line driver.

Subcommands
    log        build a logarithm pair and verify its functional equation
    group      build a formal group (logarithm, exponential, group law)
    mult       build a multiplication endomorphism [a], checked integral and
               against L([a]X) = a L(X) before it is printed
    copolygon  vertices, tie loci and pictures of Newton copolygons
    torsion    torsion-point valuations (--method minplus, or both: the
               closed form checked against it), sweeps and ramification data
    verify     run the verification battery on parameters or a fixture

Exit codes: 0 success, 1 a verification or self-check failed (any other
`ArithmeticError`: a `VerificationError`, `torsion.AmbiguousBranchError`),
2 bad usage or inputs, 3 the p-adic precision ran out (a `PrecisionError`:
"precision").  Every failure, argparse's own included, prints a single JSON
line {"error": ..., "detail": ...} on stderr, written by `main`.  Counts
(-N, -D, -n, --sweep, --unramified-degree) must be integers at least 1; a
flag the chosen mode never reads is bad usage, -N too outside log, group,
mult and verify on parameters, --unramified-degree must equal h1 + h2,
and verify's -D must keep both Frobenius monomials.  A copolygon fixture
is its copolygons, one per component, at its own degree
(`fixtures.load_fixture`).  N is -N, else 64; it
reaches only the builders, and a report reads its digits off what was
built.  Every report leaves through `_write_text`, to --out if given, else
to stdout; JSON through `_emit_json`, which prints a rational as num/den.
Outputs are deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

import argparse
import gc
import sys

# Modules, not names: all but padics load on first use (see the package
# root), so each subcommand runs only the modules it reads.  `json` too is
# imported where a report is written as JSON, not here.
from . import copolygon, fixtures, lubintate, padics, torsion


class UsageError(Exception):
    pass


class VerificationError(ArithmeticError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2, so
    that `main` reports every bad input the same way."""

    def error(self, message):
        raise UsageError(message)


def _fail(code: str, detail) -> None:
    import json

    sys.stderr.write(json.dumps({"error": code, "detail": detail},
                                sort_keys=True) + "\n")


def _add_count(sub, *flags, **kwargs):
    """Declare an integer flag that must be at least 1; errors name the flag."""

    def count(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"{flags[0]} must be an integer, got {raw!r}")
        if value < 1:
            raise UsageError(f"{flags[0]} must be at least 1")
        return value

    sub.add_argument(*flags, type=count, **kwargs)


def _refuse(args, mode: str, **flags) -> None:
    """Reject the flags among `flags` (dest=flag) that were given, since
    `mode` never reads them."""
    unread = [flag for dest, flag in flags.items() if getattr(args, dest) is not None]
    if unread:
        raise UsageError(f"{mode} does not read {', '.join(unread)}")


def _write_text(args, text: str) -> None:
    """The only writer of a report: to --out if given, else to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    """Write `payload` as sorted JSON; a Fraction prints as "num/den"."""
    import json

    _write_text(args, json.dumps(payload, sort_keys=True, default=padics.fraction_str) + "\n")


def _add_params(sub, required=True, degree=True):
    sub.add_argument("-p", type=int, required=required, help="prime")
    sub.add_argument("--h1", type=int, required=required, help="first height")
    sub.add_argument("--h2", type=int, required=required, help="second height")
    if degree:
        _add_count(sub, "-D", "--degree", required=required,
                   help="total-degree truncation")


def cmd_log(args) -> int:
    log = lubintate.build_logarithm(args.p, (args.h1, args.h2), args.degree, args.precision)
    report = lubintate.recursion_defects(log, (args.h1, args.h2))
    if not report.ok:
        where = [(v.component, v.exponents) for v in report.violations[:3]]
        raise VerificationError(f"logarithm functional equation fails at {where}")
    _write_text(args, lubintate.pairs_to_text((args.h1, args.h2), log, {"logarithm": log}))
    return 0


def cmd_group(args) -> int:
    group = lubintate.build_group(args.p, (args.h1, args.h2), args.degree, args.precision)
    report = lubintate.group_axioms_report(group)
    if not report.ok:
        raise VerificationError([str(v) for v in report.violations])
    _write_text(args, lubintate.group_to_text(group))
    return 0


def cmd_mult(args) -> int:
    group = lubintate.build_group(args.p, (args.h1, args.h2), args.degree, args.precision)
    m = lubintate.multiplication(args.a, group)
    mv = m.min_valuation()
    if mv is not None and mv < 0:
        raise VerificationError(f"[{args.a}] has a negative-valuation coefficient")
    if bad := lubintate.linearity_defects(group, m, args.a):
        raise padics.PrecisionError(f"L([{args.a}] X) != {args.a} L(X) at {bad[:3]}: "
                                    f"N = {group.prec} is too few digits for [{args.a}]")
    _write_text(args, lubintate.pairs_to_text(group.heights, group.logarithm, {"mult": m},
                                              a=args.a))
    return 0


def _copolygon_from_args(args) -> tuple:
    if args.support is not None:
        _refuse(args, "--support", component="--component")
        with open(args.support) as f:
            return copolygon.parse_support_text(f.read())
    p, degree, polys = fixtures.load_fixture(args.fixture)
    index = (args.component or 1) - 1
    if index >= len(polys):
        raise UsageError(f"fixture {args.fixture} has a single component")
    return p, degree, polys[index]


def cmd_copolygon(args) -> int:
    _refuse(args, "copolygon", typed_precision="-N")
    p, degree, poly = _copolygon_from_args(args)
    if args.svg:
        with open(args.svg, "wb") as f:
            f.write(copolygon.emit_svg(poly).encode("utf-8"))
    vertices, segments = poly.vertices(), poly.tie_segments()
    if args.json:
        _emit_json(args, {
            "p": p, "degree": degree, "functionals": poly.functionals,
            "vertices": vertices,
            "tie_segments": [{"pair": [s.first[:2], s.second[:2]], "line": s.line,
                              "t_lo": s.t_lo, "t_hi": s.t_hi} for s in segments],
        })
        return 0
    lines = [f"copolygon over Z_{p}, degree {degree}"]
    for i, j, v in poly.functionals:
        lines.append(f"functional: {i} {j} {padics.fraction_str(v)}")
    for x1, x2, val in vertices:
        lines.append(f"vertex: {padics.fraction_str(x1)} {padics.fraction_str(x2)} "
                     f"value {padics.fraction_str(val)}")
    lines.append(f"tie segments: {len(segments)}")
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def cmd_torsion(args) -> int:
    _refuse(args, "torsion", typed_precision="-N")
    p, heights = args.p, (args.h1, args.h2)
    if args.csv and not args.ramification:
        raise UsageError("--csv applies to --ramification output")
    if args.ramification:
        _refuse(args, "--ramification", n="-n", method="--method", sweep="--sweep")
        report = torsion.ramification_report(p, heights)
        if args.csv:
            _write_text(args, torsion.ramification_csv(report))
        else:
            _emit_json(args, vars(report))
        return 0
    if args.sweep is not None:
        _refuse(args, "--sweep", n="-n", method="--method")
        rows = torsion.profile_report(p, heights, args.sweep)
        if not all(row["agree"] for row in rows):
            raise VerificationError("closed form and min-plus disagree")
        _emit_json(args, rows)
        return 0
    n, method = args.n or 1, args.method or "both"
    profile = torsion.torsion_valuations_via_minplus(p, heights, n)
    if method == "both" and (closed := torsion.torsion_valuations(p, heights, n)) != profile:
        raise VerificationError(f"methods disagree at n={n}: {closed} vs {profile}")
    _emit_json(args, {"p": p, "h1": args.h1, "h2": args.h2, "n": n, **vars(profile),
                      "method": method,
                      "hypothesis_status": torsion.hypothesis_status(p, heights)})
    return 0


def cmd_verify(args) -> int:
    params = {"p": "-p", "h1": "--h1", "h2": "--h2", "degree": "-D"}
    if args.fixture:
        _refuse(args, "--fixture", **params, typed_precision="-N",
                unramified_degree="--unramified-degree")
        header, pair = fixtures.stored_mult45()
        heights = (header["h1"], header["h2"])
        profile = fixtures.frobenius_profile(pair, heights)
        report = lubintate.congruence_report(pair, heights)
        _emit_json(args, {
            "fixture": args.fixture,
            "linear_ok": all(v.check != "linear" for v in report.violations),
            "cross": profile["cross"],
            "exponents": profile["exponents"],
            "congruences_ok": report.ok,
            "violations": [str(v) for v in report.violations],
        })
        return 0 if report.ok else 1
    missing = [flag for dest, flag in params.items() if getattr(args, dest) is None]
    if missing:
        raise UsageError(f"verify needs --fixture or {', '.join(missing)}")
    h = args.h1 + args.h2
    if args.unramified_degree not in (None, h):
        raise UsageError(f"--unramified-degree must equal h1 + h2 = {h}, "
                         f"got {args.unramified_degree}")
    padics._check_reach(args.p, (args.h1, args.h2), args.degree, "-D")
    checks = {}
    group = lubintate.build_group(args.p, (args.h1, args.h2), args.degree, args.precision)
    checks["logarithm_recursion"] = lubintate.recursion_defects(group.logarithm, group.heights).ok
    checks["group_axioms"] = lubintate.group_axioms_report(group).ok
    checks["p_congruences"] = lubintate.verify_p_congruences(group).ok
    height = lubintate.height_of(group)
    checks["height"] = height
    checks["height_ok"] = height == h
    if args.unramified_degree is not None:
        checks["gamma_endomorphism"] = lubintate.gamma_endomorphism(group.logarithm,
                                                                    group.heights).ok
    ok = all(v is True for k, v in checks.items() if k != "height")
    checks["ok"] = ok
    _emit_json(args, checks)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lt2d",
        description="two-dimensional Lubin-Tate formal groups, Newton "
                    "copolygons and torsion-point valuations")
    _add_count(parser, "-N", "--precision", dest="typed_precision",
               help="p-adic working precision (default 64)")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("log", help="build and verify a logarithm pair")
    _add_params(s)
    s.add_argument("--out", help="write the report to a file")
    s.set_defaults(func=cmd_log)

    s = sub.add_parser("group", help="build a formal group and check axioms")
    _add_params(s)
    s.add_argument("--out", help="write the report to a file")
    s.set_defaults(func=cmd_group)

    s = sub.add_parser("mult", help="build a multiplication endomorphism")
    _add_params(s)
    s.add_argument("-a", type=int, required=True, help="the multiplier")
    s.add_argument("--out", help="write the report to a file")
    s.set_defaults(func=cmd_mult)

    s = sub.add_parser("copolygon", help="copolygon geometry of a series")
    source = s.add_mutually_exclusive_group(required=True)
    # fixtures.FIXTURE_NAMES, spelled out so that no other command loads `fixtures`
    source.add_argument("--fixture", choices=("ex1", "dyn23", "dyn312", "mult45"),
                        help="named example input")
    source.add_argument("--support", help="path to a support file (p D header, "
                                          "then i j num/den lines)")
    s.add_argument("--component", type=int, choices=(1, 2),
                   help="component when the fixture is a pair (default 1)")
    s.add_argument("--json", action="store_true", help="machine-readable output")
    s.add_argument("--svg", help="write a picture to this file")
    s.add_argument("--out", help="write the report to a file")
    s.set_defaults(func=cmd_copolygon)

    s = sub.add_parser("torsion", help="torsion valuations and ramification")
    _add_params(s, degree=False)
    _add_count(s, "-n", help="torsion level (default 1)")
    s.add_argument("--method", choices=("minplus", "both"),
                   help="valuation method: minplus, or both (the default), which "
                        "checks the closed form against it")
    _add_count(s, "--sweep", help="report levels 1..N with both methods")
    s.add_argument("--ramification", action="store_true",
                   help="report the ramification degree instead")
    s.add_argument("--csv", action="store_true",
                   help="CSV output for --ramification")
    s.set_defaults(func=cmd_torsion)

    s = sub.add_parser("verify", help="run the verification battery")
    s.add_argument("--fixture", choices=("mult45",),
                   help="verify the stored fixture instead")
    _add_params(s, required=False)
    _add_count(s, "--unramified-degree",
               help="also check that T_gamma = diag(gamma, gamma^q2) commutes with "
                    "the logarithm for every (p^h - 1)-th root of unity gamma, h = h1 + h2")
    s.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  With no argv, `main`
    runs the process's own command, from sys.argv, and assumes the
    process ends after it: once the answer is written it freezes the
    collector, so the interpreter's shutdown collections have nothing
    left to walk.  atexit handlers and stream flushing still run."""
    if hasattr(sys, "set_int_max_str_digits"):
        # a unit known modulo p^N prints more than the default 4300 digits
        # from about N = 14300 at p = 2: a valid -N, not a bad input
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        args.precision = args.typed_precision or padics.DEFAULT_PRECISION
        return args.func(args)
    except padics.PrecisionError as exc:
        _fail("precision", str(exc))
        return 3
    except ArithmeticError as exc:  # a self-check of the paper's claims failed
        # args[0] keeps `group`'s list of violations a JSON list
        _fail("verification", exc.args[0] if exc.args else str(exc))
        return 1
    except (UsageError, ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not a bad path, e.g. a closed stdout
        _fail("usage", str(exc))
        return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
