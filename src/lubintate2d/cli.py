"""Command line driver.

Subcommands
    log        build a logarithm pair, verified by its builder, which stops
               only at a fixed point of its functional equation
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
line {"error": ..., "detail": ...} on stderr, written by `main`.  The flags
are stated once, in `_COMMANDS`: `_read_argv` reads a well-formed argv off
it, a repeated flag's last value winning as in argparse, and argparse,
imported by `build_parser` alone, reads any other and --help.  Counts (-N,
-D, -n, --sweep, --unramified-degree) must be integers at least 1; a flag
the chosen mode never reads is bad usage, -N too outside log, group, mult
and verify on parameters, --unramified-degree must equal h1 + h2, and
verify's -D must keep both Frobenius monomials.  A copolygon fixture is its
copolygons, one per component, at its own degree (`fixtures.load_fixture`).
N is -N, else 64; it reaches only the builders, and a report reads its
digits off what was built.  Every report leaves through `_write_text`, to
--out if given, else to stdout; JSON through `_emit_json`, which prints a
rational as num/den.  Outputs are deterministic byte-for-byte for fixed
inputs.
"""

from __future__ import annotations

import gc
import sys
import types  # loaded already, by importlib.util at the package root

# Modules, not names: all but padics load on first use (see the package
# root), so each subcommand runs only the modules it reads.  `json` too is
# imported where a report is written as JSON, not here.
from . import copolygon, fixtures, lubintate, padics, torsion


class UsageError(Exception):
    pass


class VerificationError(ArithmeticError):
    pass


def _fail(code: str, detail) -> None:
    import json

    sys.stderr.write(json.dumps({"error": code, "detail": detail},
                                sort_keys=True) + "\n")


def _converter(kind, flag: str):
    """A flag's one reader of its value, for argparse and `_read_argv` alike: int,
    str, the type of the choices, or a count, an integer at least 1."""
    if kind != "count":
        return type(kind[0]) if isinstance(kind, tuple) else kind

    def count(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"{flag} must be an integer, got {raw!r}")
        if value < 1:
            raise UsageError(f"{flag} must be at least 1")
        return value

    return count


def _refuse(args, mode: str, **flags) -> None:
    """Reject the flags among `flags` (dest=flag) that were given, since
    `mode` never reads them."""
    unread = [flag for dest, flag in flags.items() if getattr(args, dest) is not None]
    if unread:
        raise UsageError(f"{mode} does not read {', '.join(unread)}")


def _write_text(args, text: str) -> None:
    """The only writer of a report: to --out if given, else to stdout."""
    if getattr(args, "out", None) is not None:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    """Write `payload` as sorted JSON; a Fraction prints as "num/den"."""
    import json

    _write_text(args, json.dumps(payload, sort_keys=True, default=padics.fraction_str) + "\n")


def cmd_log(args) -> int:
    log = lubintate.build_logarithm(args.p, (args.h1, args.h2), args.degree, args.precision)
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
    if args.svg is not None:
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


# The command line, stated once: `build_parser` derives argparse's parser
# from this table and `_read_argv` reads a well-formed argv with it.  A flag
# is (spellings, dest, kind, help), kind being int, str, "count", "switch"
# (store_true) or a tuple of choices.  A command is (handler, help, flags in
# --help's order, the dests it requires, dests of which exactly one is given).
_PRECISION = ("-N --precision", "typed_precision", "count",
              "p-adic working precision (default 64)")
_PARAMS = (("-p", "p", int, "prime"), ("--h1", "h1", int, "first height"),
           ("--h2", "h2", int, "second height"),
           ("-D --degree", "degree", "count", "total-degree truncation"))
_OUT = ("--out", "out", str, "write the report to a file")
_NEEDED = ("p", "h1", "h2", "degree")  # the dests of _PARAMS
_COMMANDS = {
    "log": (cmd_log, "build and verify a logarithm pair", (*_PARAMS, _OUT), _NEEDED, ()),
    "group": (cmd_group, "build a formal group and check axioms", (*_PARAMS, _OUT), _NEEDED, ()),
    "mult": (cmd_mult, "build a multiplication endomorphism",
             (*_PARAMS, ("-a", "a", int, "the multiplier"), _OUT), (*_NEEDED, "a"), ()),
    "copolygon": (cmd_copolygon, "copolygon geometry of a series", (
        # fixtures.FIXTURE_NAMES, spelled out so that no other command loads `fixtures`
        ("--fixture", "fixture", ("ex1", "dyn23", "dyn312", "mult45"), "named example input"),
        ("--support", "support", str,
         "path to a support file (p D header, then i j num/den lines)"),
        ("--component", "component", (1, 2), "component when the fixture is a pair (default 1)"),
        ("--json", "json", "switch", "machine-readable output"),
        ("--svg", "svg", str, "write a picture to this file"), _OUT), (), ("fixture", "support")),
    "torsion": (cmd_torsion, "torsion valuations and ramification", (
        *_PARAMS[:3], ("-n", "n", "count", "torsion level (default 1)"),
        ("--method", "method", ("minplus", "both"), "valuation method: minplus, or both (the "
         "default), which checks the closed form against it"),
        ("--sweep", "sweep", "count", "report levels 1..N with both methods"),
        ("--ramification", "ramification", "switch", "report the ramification degree instead"),
        ("--csv", "csv", "switch", "CSV output for --ramification")), _NEEDED[:3], ()),
    "verify": (cmd_verify, "run the verification battery", (
        ("--fixture", "fixture", ("mult45",), "verify the stored fixture instead"), *_PARAMS,
        ("--unramified-degree", "unramified_degree", "count",
         "also check that T_gamma = diag(gamma, gamma^q2) commutes with the logarithm for "
         "every (p^h - 1)-th root of unity gamma, h = h1 + h2")), (), ()),
}


def build_parser():
    """argparse's parser for `_COMMANDS`: it prints --help and reads every
    argv that `_read_argv` leaves to it, so it writes every usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Raises UsageError where argparse would exit 2, for `main` to report."""

        def error(self, message):
            raise UsageError(message)

    def add(target, spellings, dest, kind, text, required=False):
        spellings = spellings.split()
        how = ({"action": "store_true"} if kind == "switch" else
               {"type": _converter(kind, spellings[0]), "required": required,
                "choices": kind if isinstance(kind, tuple) else None})
        target.add_argument(*spellings, dest=dest, help=text, **how)

    parser = _Parser(prog="lt2d", description="two-dimensional Lubin-Tate formal groups, "
                                              "Newton copolygons and torsion-point valuations")
    add(parser, *_PRECISION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags, required, one_of) in _COMMANDS.items():
        s = sub.add_parser(name, help=text)
        source = s.add_mutually_exclusive_group(required=True) if one_of else s
        for flag in flags:
            add(source if flag[1] in one_of else s, *flag, required=flag[1] in required)
        s.set_defaults(func=func)
    return parser


def _read_argv(argv):
    """argparse's namespace for `argv` (None: sys.argv's), read off `_COMMANDS`,
    or None to leave `argv` to argparse: -N only before the command, each
    flag by its full spelling, a repeated one's last value winning as in
    argparse, each value the next word, not "-...", taken by the converter
    and the choices, and the required flags given."""
    args, seen, command = {"typed_precision": None}, set(), None
    flags = dict.fromkeys(_PRECISION[0].split(), _PRECISION)
    words = iter(sys.argv[1:] if argv is None else argv)
    try:
        for word in words:
            if command is None and word in _COMMANDS:
                command, (func, _, rows, required, one_of) = word, _COMMANDS[word]
                flags = {spelling: row for row in rows for spelling in row[0].split()}
                args.update((row[1], False if row[2] == "switch" else None) for row in rows)
                continue
            spellings, dest, kind, _ = flags[word]
            seen.add(dest)
            if kind == "switch":
                args[dest] = True
                continue
            value = next(words)
            args[dest] = _converter(kind, spellings.split()[0])(value)
            if value.startswith("-") or isinstance(kind, tuple) and args[dest] not in kind:
                return None
    except Exception:  # an unknown word, a missing value, one its converter refuses:
        return None  # argparse reads the argv again and reports what is wrong
    if command is None or not seen.issuperset(required) or (
            one_of and len(seen.intersection(one_of)) != 1):
        return None
    return types.SimpleNamespace(**args, command=command, func=func)


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
        args = _read_argv(argv) or build_parser().parse_args(argv)
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
