"""Command-line front end.

Subcommands::

    analyze    one-scale summary of an expression (text or JSON)
    sweep      variance across a geometric scale grid (CSV)
    measure    slice / product measures from interval strings
    verify     run the randomized property suites
    transform  coordinate-change check: direct vs predicted matrices

Exit codes: 0 success, 1 usage error, 2 parse error, 3 precondition failure
(pole on torus, inadmissible input, invalid coordinate change, grid limits),
4 verification failure.

Output is deterministic byte-for-byte for fixed inputs, seed and
configuration; numbers are printed with 17 significant digits so that golden
files stay stable.  The environment variable LENS_MAX_GRID overrides the
per-dimension grid cap.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import verify as verify_mod
from .analysis import Degenerate, geometric_grid, variance_sweep
from .errors import LensError, ParseError
from .expr import parse
from .laurent import trace_norm_sq
from .morphs import DEFAULT_MORPH_LAMBDA, morph_validate, verify_transform
from .quadrature import DEFAULT_MAX_N, DEFAULT_TOL, check_dimension, spectral_summary
from .slices import Slice, parse_interval, product_measure, slice_measure


# ---------------------------------------------------------------- formatting


def fmt_float(x: float) -> str:
    if x == 0:
        x = 0.0  # normalize -0.0
    return f"{x:.17g}"


def fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0:
        return fmt_float(re)
    if re == 0:
        return fmt_float(im) + "i"
    sign = "+" if im > 0 else "-"
    return f"{fmt_float(re)}{sign}{fmt_float(abs(im))}i"


def fmt_vector(v) -> str:
    return "[" + ", ".join(fmt_complex(z) for z in v) + "]"


def fmt_matrix(m) -> str:
    return "[" + ", ".join(fmt_vector(row) for row in m) + "]"


def canonical_json(obj) -> str:
    """Minimal JSON writer with 17-significant-digit floats and stable key
    order (dict insertion order)."""
    if isinstance(obj, dict):
        inner = ", ".join(f'"{key}": {canonical_json(val)}' for key, val in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    """argparse type for grid caps and dimensions: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _max_grid(args) -> int:
    """Per-dimension grid cap: --max-grid, else LENS_MAX_GRID, else the default."""
    if args.max_grid is not None:
        return args.max_grid
    env = os.environ.get("LENS_MAX_GRID")
    if env is None:
        return DEFAULT_MAX_N
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"LENS_MAX_GRID: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polylens", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="tolerance of the doubling loop (default 1e-10); an "
                            "exact grid reports its rounding bound instead")
        p.add_argument("--max-grid", type=_positive_int, default=None,
                       help="per-dimension grid cap (default 4096; env LENS_MAX_GRID)")

    p = sub.add_parser("analyze", help="one-scale summary of an expression")
    p.add_argument("--expr", required=True, help="expression in w1..wn")
    p.add_argument("--n", type=_positive_int, required=True, help="number of variables")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="scale")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="variance across a geometric scale grid")
    p.add_argument("--expr", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda-min", dest="lam_min", type=float, required=True)
    p.add_argument("--lambda-max", dest="lam_max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("measure", help="slice or product measure")
    p.add_argument("--interval", action="append", required=True,
                   help="'lo:hi' in radians; 'pi' arithmetic allowed (repeatable)")
    p.add_argument("--dims", type=_positive_int, default=None,
                   help="number of coordinates for a product measure")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--suite", required=True,
                   choices=sorted(verify_mod.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="coordinate-change transformation check")
    p.add_argument("--expr", required=True, help="expression in u1..un")
    p.add_argument("--morph", required=True,
                   help="comma-separated coordinate-change components in w1..wn")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_MORPH_LAMBDA)
    common(p)
    p.set_defaults(func=cmd_transform)

    return parser


# ----------------------------------------------------------------- commands


def cmd_analyze(args) -> int:
    check_dimension(args.n)  # parse builds n entries per node
    expr = parse(args.expr, args.n)
    max_n = _max_grid(args)
    summary = spectral_summary(expr, args.lam, tol=args.tol, max_n=max_n)
    if args.json:
        print(canonical_json(summary.to_json_dict()))
        return 0
    bound = trace_norm_sq(summary.eta) ** 0.5 / args.lam
    print(f"lambda      = {fmt_float(args.lam)}")
    print(f"core        = {fmt_vector(summary.core)}")
    print(f"eta         = {fmt_matrix(summary.eta)}")
    print(f"jacobian    = {fmt_matrix(summary.jacobian)}")
    print(f"variance    = {fmt_float(summary.variance)}")
    print(f"tail_energy = {fmt_float(summary.tail_energy)}")
    print(f"lower_bound = {fmt_float(bound)}")
    print(f"est_error   = {fmt_float(summary.est_error)}")
    print(f"grid_n      = {summary.grid_n}")
    return 0


def _star_text(value) -> str:
    return str(value) if isinstance(value, Degenerate) else fmt_float(value)


def cmd_sweep(args) -> int:
    check_dimension(args.n)
    expr = parse(args.expr, args.n)
    max_n = _max_grid(args)
    grid = geometric_grid(args.lam_min, args.lam_max, args.steps)
    sweep = variance_sweep(expr, grid, tol=args.tol, max_n=max_n)
    lines = ["lambda,variance,variance_model,bound_gap,est_error"]
    for i, lam in enumerate(sweep.lambdas):
        lines.append(
            ",".join(
                fmt_float(x)
                for x in (
                    lam,
                    sweep.variance[i],
                    sweep.variance_model[i],
                    sweep.bound_gap[i],
                    sweep.est_error[i],
                )
            )
        )
    lines.append(f"# lambda_star_closed = {_star_text(sweep.lambda_star_closed)}")
    lines.append(f"# lambda_star_empirical = {_star_text(sweep.lambda_star_empirical)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_measure(args) -> int:
    intervals = [parse_interval(text) for text in args.interval]
    if args.dims is not None:
        if args.dims != len(intervals):
            raise ParseError(
                0, f"{args.dims} intervals for --dims {args.dims}",
                f"{len(intervals)} intervals",
            )
        factors = [Slice(1.0, iv) for iv in intervals]
        print(fmt_float(product_measure(factors)))
    else:
        if len(intervals) != 1:
            raise ParseError(0, "a single interval (or --dims)", f"{len(intervals)} intervals")
        print(fmt_float(slice_measure(Slice(1.0, intervals[0]))))
    return 0


def cmd_verify(args) -> int:
    names = sorted(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    any_failed = False
    for name in names:
        results = verify_mod.run_suite(name, args.seed)
        passed = sum(1 for r in results if r.passed)
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            line = f"[{tag}] {name}: {r.name} (cases={r.cases})"
            if not r.passed:
                line += f" -- {r.detail}"
            print(line)
        print(f"suite {name}: {passed}/{len(results)} checks passed")
        any_failed = any_failed or passed != len(results)
    return 4 if any_failed else 0


def cmd_transform(args) -> int:
    check_dimension(args.n)
    psi = parse(args.expr, args.n, var_letter="u")
    change = parse(args.morph, args.n)
    max_n = _max_grid(args)
    morph = morph_validate(change, args.lam)
    report = verify_transform(psi, morph, tol=args.tol, max_n=max_n)
    print(f"lambda             = {fmt_float(args.lam)}")
    print(f"morph_jacobian     = {fmt_matrix(morph.jac)}")
    print(f"eta_direct         = {fmt_matrix(report.eta_direct)}")
    print(f"eta_predicted      = {fmt_matrix(report.eta_predicted)}")
    print(f"eta_residual       = {fmt_float(report.eta_residual)}")
    print(f"jacobian_direct    = {fmt_matrix(report.jac_direct)}")
    print(f"jacobian_predicted = {fmt_matrix(report.jac_predicted)}")
    print(f"jacobian_residual  = {fmt_float(report.jac_residual)}")
    return 0


# --------------------------------------------------------------- entry point


# Options whose values may start with '-' (intervals, negated expressions,
# scales such as -inf that argparse does not take for negative numbers).
_DASH_VALUE_OPTIONS = (
    "--interval", "--expr", "--morph", "--lambda", "--lambda-min", "--lambda-max",
)


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string the parser or one of its subcommands registers."""
    found = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def _join_dash_values(argv: list[str], options: set[str]) -> list[str]:
    """Fold `--interval -pi:pi` into `--interval=-pi:pi` (likewise for every
    option in _DASH_VALUE_OPTIONS) so values starting with '-' are not
    mistaken for flags; a value that is itself a registered option is left
    for argparse to report."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _DASH_VALUE_OPTIONS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and argv[i + 1] not in options):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """build_parser() and its option strings, built by the first main call."""
    parser = build_parser()
    return parser, _option_strings(parser)


def main(argv=None) -> int:
    parser, options = _parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dash_values(list(argv), options))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"polylens: parse error: {exc}", file=sys.stderr)
        return 2
    except LensError as exc:  # every other library error is a precondition failure
        print(f"polylens: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # invalid parameter values, unwritable --out
        print(f"polylens: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
