"""Command-line front end.

Subcommands: guess (fit equations to a sequence file), extend (grow a
sequence from an equation), check (test an equation against a sequence),
oracle (print a built-in reference sequence).

Exit codes: 0 success, 1 FAIL / failed check, 2 usage or input-format
error (a file that is not UTF-8 included), 3 degenerate or insufficient
input.

The argument parser is built on the first `main` call and reused for the
rest of the process: `parse_args` leaves it unchanged, and every call gets
a fresh namespace.
"""

import argparse
import functools
import json
import sys

from quadguess.equations import (equation_from_json, equation_to_json,
                                 render_latex, render_text)
from quadguess.errors import (DegenerateInputError, EquationFormatError,
                              InconsistentInitialTermsError,
                              InsufficientTermsError,
                              LeadingCoefficientZeroError, NonlinearStepError,
                              PrefixFormatError)
from quadguess.exact import format_rational
from quadguess.guessing import GuessConfig, guess
from quadguess.prefix import dump_prefix, load_prefix, read_text
from quadguess.sequences import ORACLES, check, extend, oracle_sequence

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quadguess",
        description="Guess quadratic differential and recurrence equations "
                    "from exact rational sequence prefixes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_guess = sub.add_parser("guess", help="fit equations to a sequence file")
    p_guess.add_argument("--input", required=True, help="sequence file "
                         "(one rational per line, or a JSON array)")
    p_guess.add_argument("--format", choices=("text", "latex", "json"),
                         default="text")
    p_guess.add_argument("--max-poly-deg", type=int, default=2, metavar="M",
                         help="max degree of the polynomial coefficients")
    p_guess.add_argument("--d-start", type=int, default=3)
    p_guess.add_argument("--d-max", type=int, default=None)
    p_guess.add_argument("--min-verify", type=int, default=2,
                         help="held-out rows required beyond the system rows")

    p_extend = sub.add_parser("extend", help="grow a sequence from an equation")
    p_extend.add_argument("--equation", required=True,
                          help="equation JSON file")
    p_extend.add_argument("--input", required=True, help="initial terms file")
    p_extend.add_argument("--count", required=True, type=int)
    p_extend.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="test an equation on a sequence")
    p_check.add_argument("--equation", required=True)
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--format", choices=("text", "json"), default="text")

    p_oracle = sub.add_parser("oracle", help="print a reference sequence")
    p_oracle.add_argument("--name", required=True, choices=sorted(ORACLES))
    p_oracle.add_argument("--count", required=True, type=int)
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load_equation(path):
    try:
        return equation_from_json(read_text(path, EquationFormatError))
    except OSError as exc:
        raise EquationFormatError(f"{path}: {exc}") from exc


def _print_rationals(values, fmt):
    """Print a prefix's rationals as one JSON array, or one per line."""
    if fmt == "json":
        print(json.dumps([format_rational(v) for v in values]))
    else:
        print(dump_prefix(values), end="")


def _cmd_guess(args):
    prefix = load_prefix(args.input)
    try:
        cfg = GuessConfig(m=args.max_poly_deg, d_start=args.d_start,
                          d_max=args.d_max, min_verify_rows=args.min_verify)
    except ValueError as exc:
        print(f"error: bad guess option: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = guess(prefix, cfg)
    if args.format == "json":
        print(result.to_json())
        return EXIT_OK if result.succeeded else EXIT_FAIL
    if not result.succeeded:
        print("FAIL: no quadratic equation within the search bounds",
              file=sys.stderr)
        return EXIT_FAIL
    print(f"success: d={result.d} m={result.m} "
          f"construction_rows={result.construction_rows} "
          f"verification_rows={result.verification_rows}")
    rend = render_latex if args.format == "latex" else render_text
    for pos, eq in enumerate(result.basis):
        print(f"equation {pos}:")
        print(f"  ode:        {rend(eq, 'ode')}")
        print(f"  recurrence: {rend(eq, 'recurrence')}")
        print(f"  json:       {equation_to_json(eq)}")
    return EXIT_OK


def _cmd_extend(args):
    eq = _load_equation(args.equation)
    initial = load_prefix(args.input)
    try:
        extended = extend(eq, initial, args.count)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_rationals(extended, args.format)
    return EXIT_OK


def _cmd_check(args):
    eq = _load_equation(args.equation)
    prefix = load_prefix(args.input)
    report = check(eq, prefix)
    if args.format == "json":
        obj = {"passed": report.passed, "rows_checked": report.rows_checked}
        if not report.passed:
            obj["first_failure"] = report.first_failure
            obj["residual"] = format_rational(report.residual)
        if report.vacuous:
            obj["vacuous"] = True
        print(json.dumps(obj))
    elif not report.passed:
        print(f"fail: row {report.first_failure} has residual "
              f"{format_rational(report.residual)}", file=sys.stderr)
    elif not report.vacuous:
        print(f"pass: {report.rows_checked} rows vanish")
    if report.vacuous:
        print(f"vacuous: no row is determined: the equation needs at least "
              f"{eq.max_shift + 1} terms, got {len(prefix)}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_oracle(args):
    try:
        prefix = oracle_sequence(args.name, args.count)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_rationals(prefix, args.format)
    return EXIT_OK


_COMMANDS = {"guess": _cmd_guess, "extend": _cmd_extend,
             "check": _cmd_check, "oracle": _cmd_oracle}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PrefixFormatError, EquationFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateInputError, InsufficientTermsError,
            InconsistentInitialTermsError, LeadingCoefficientZeroError,
            NonlinearStepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
