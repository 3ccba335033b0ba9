"""Output checks for every benchmark operation, run outside the timed region.

Each function returns None when the output is correct, else a one-line
reason.  A wrong output is counted as a failed operation; it is never
dropped from the attempted count.

The functions take the imported `quadguess` package as `qg` instead of
binding its names at import time, because the benchmark imports the
package afresh for every set-up it times.
"""

# Known equations of the seven oracles, as (s, p, q, coefficient) terms of
# coefficient * z^s * f^(p) * f^(q).  Same constants as the acceptance tests.
TARGET_TERMS = {
    "zeta-rescaled": ((1, 2, -1, 2), (0, 1, -1, 5), (1, 1, 0, -4),
                      (0, 0, 0, -2)),
    "zigzag-egf": ((0, 2, -1, 1), (0, 1, 0, -1)),
    "bernoulli-egf": ((1, 1, -1, 1), (1, 0, -1, 1), (0, 0, 0, 1),
                      (0, 0, -1, -1)),
    "euler-egf": ((0, 2, 0, 1), (0, 1, 1, -2), (0, 0, 0, 1)),
    "bell-egf": ((0, 2, 0, 1), (0, 1, 0, -1), (0, 1, 1, -1)),
    "lambertw": ((1, 1, -1, 1), (1, 1, 0, 1), (0, 0, -1, -1)),
    "exp": ((0, 1, -1, 1), (0, 0, -1, -1)),
}


def target_equation(qg, name):
    return qg.QuadEquation([(s, qg.monomial_of_orders(p, q), c)
                            for s, p, q, c in TARGET_TERMS[name]])


def verify_guess(qg, prefix, result, target=None):
    """A guess is correct when every emitted equation passes `check` on
    the guessed prefix and, for an oracle, the known equation is among
    them.  A failed search must emit nothing."""
    if target is not None:
        if not result.succeeded:
            return f"status {result.status}, expected success"
        if target not in result.basis:
            return "known equation missing from the basis"
    if not result.succeeded and result.basis:
        return "failed search emitted equations"
    for pos, eq in enumerate(result.basis):
        report = qg.sequences.check(eq, prefix)
        if not report.passed:
            return f"equation {pos} fails check at row {report.first_failure}"
    return None


def verify_cli(qg, prefix, exit_code, stdout, target):
    """`quadguess guess --format json` must exit 0 and print a result that
    parses as a GuessResult and passes verify_guess."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        result = qg.GuessResult.from_json(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc}"
    return verify_guess(qg, prefix, result, target)


def verify_extension(extended, reference, eq, report):
    """An extension must equal the independent reference term for term, and
    `check` on it must pass over every determined row."""
    if tuple(extended.values) != tuple(reference):
        first = next((i for i, (a, b) in enumerate(zip(extended, reference))
                      if a != b), min(len(extended), len(reference)))
        return f"extension differs from the reference at term {first}"
    expected_rows = len(reference) - eq.max_shift
    if not report.passed:
        return f"check fails at row {report.first_failure}"
    if report.rows_checked != expected_rows:
        return (f"check covered {report.rows_checked} rows, "
                f"expected {expected_rows}")
    return None
