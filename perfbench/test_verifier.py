"""Tests of the benchmark's output verifier.

Run from the repository root: python3 -m pytest perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import quadguess as qg  # noqa: E402
import verifier  # noqa: E402
from run import Measurement  # noqa: E402
from workloads import Op  # noqa: E402

ZETA = verifier.target_equation(qg, "zeta-rescaled")


def _perturbed_zeta():
    values = list(qg.oracle_sequence("zeta-rescaled", 24))
    values[-1] += Fraction(1, 7)
    return tuple(values)


def test_target_constants_render():
    assert qg.render_text(ZETA, "ode") == \
        "2*z*y'' - 4*z*y*y' + 5*y' - 2*y^2 = 0"


def test_exact_oracle_guess_verifies():
    prefix = qg.oracle_sequence("zeta-rescaled", 24)
    result = qg.guess(prefix)
    assert verifier.verify_guess(qg, prefix, result, ZETA) is None


def test_perturbed_last_term_guess_is_counted_failed():
    """Known soundness defect of guess: assemble_system stops at
    usable = last_index - r(d) + 1, so an equation whose max_shift is
    below r(d) never constrains the last terms.  With the last of 24
    zeta-rescaled terms changed by +1/7, guess still reports the zeta
    equation, which fails check on that same input at row 22.  The
    verifier must count the operation as failed."""
    values = _perturbed_zeta()
    result = qg.guess(qg.SequencePrefix(values))
    assert result.succeeded and ZETA in result.basis   # the defect, pinned
    report = qg.check(ZETA, qg.SequencePrefix(values))
    assert not report.passed and report.first_failure == 22

    reason = verifier.verify_guess(qg, qg.SequencePrefix(values), result,
                                   ZETA)
    assert reason is not None and reason.endswith("at row 22")

    op = Op(label="guess perturbed zeta",
            prepare=lambda: qg.SequencePrefix(values),
            run=lambda prefix: qg.guessing.guess(prefix),
            verify=lambda prefix, out: verifier.verify_guess(
                qg, prefix, out, ZETA),
            verdict_key=lambda out: out)
    meas = Measurement([op])
    meas.run_passes(budget=float("inf"), max_passes=2)
    assert meas.attempted == 2
    assert len(meas.failures) == 2          # cached verdicts still count


def test_failed_search_with_equations_is_flagged():
    prefix = qg.oracle_sequence("exp", 15)
    result = qg.GuessResult(status="fail", m=2, basis=(ZETA,))
    assert verifier.verify_guess(qg, prefix, result) is not None


def test_missing_target_is_flagged():
    prefix = qg.oracle_sequence("exp", 15)
    result = qg.guess(prefix)
    assert verifier.verify_guess(qg, prefix, result, ZETA) == \
        "known equation missing from the basis"


def test_cli_exit_code_and_output_are_checked():
    prefix = qg.oracle_sequence("zeta-rescaled", 24)
    good = qg.guess(prefix).to_json()
    assert verifier.verify_cli(qg, prefix, 0, good, ZETA) is None
    assert verifier.verify_cli(qg, prefix, 1, good, ZETA) == "exit code 1"
    assert verifier.verify_cli(qg, prefix, 0, "not json",
                               ZETA).startswith("unparseable")


def test_extension_must_match_reference_term_for_term():
    reference = qg.oracle_sequence("zeta-rescaled", 12).values
    extended = qg.extend(ZETA, qg.SequencePrefix(reference[:1]), 11)
    report = qg.check(ZETA, extended)
    assert verifier.verify_extension(extended, reference, ZETA,
                                      report) is None
    wrong = reference[:5] + (reference[5] + 1,) + reference[6:]
    assert verifier.verify_extension(extended, wrong, ZETA, report) == \
        "extension differs from the reference at term 5"


def test_raising_operation_is_counted_failed():
    op = Op(label="guess all-zero",
            prepare=lambda: qg.SequencePrefix([0] * 10),
            run=lambda prefix: qg.guessing.guess(prefix),
            verify=lambda prefix, out: None)
    meas = Measurement([op])
    meas.run_passes(budget=0.0)
    assert meas.attempted == 1
    assert meas.failures[0][1].startswith("DegenerateInputError")
