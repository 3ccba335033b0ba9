"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero tolerance).  Each test prints a PASS line on success; run with
`pytest -s tests/test_acceptance.py` to see them."""

import random
from fractions import Fraction
from functools import partial
from math import factorial

import pytest

from quadguess.cli import main
from quadguess.equations import (Derivatives, QuadEquation,
                                 monomial_of_orders, render_text)
from quadguess.errors import DegenerateInputError, InsufficientTermsError
from quadguess.guessing import GuessConfig, ansatz, guess, normalize, slot
from quadguess.prefix import SequencePrefix, dump_prefix
from quadguess.sequences import check, extend, oracle_sequence
from util_exact import (bernoulli_numbers, equation_vector, in_span,
                        term_coeff_bruteforce)


def _eq(*terms):
    return QuadEquation([(s, monomial_of_orders(p, q), c)
                         for s, p, q, c in terms])


ZETA_EQ = _eq((1, 2, -1, 2), (0, 1, -1, 5), (1, 1, 0, -4), (0, 0, 0, -2))
ZIGZAG_EQ = _eq((0, 2, -1, 1), (0, 1, 0, -1))
BERNOULLI_EQ = _eq((1, 1, -1, 1), (1, 0, -1, 1), (0, 0, 0, 1), (0, 0, -1, -1))
EULER_EQ = _eq((0, 2, 0, 1), (0, 1, 1, -2), (0, 0, 0, 1))
BELL_EQ = _eq((0, 2, 0, 1), (0, 1, 0, -1), (0, 1, 1, -1))
LAMBERTW_EQ = _eq((1, 1, -1, 1), (1, 1, 0, 1), (0, 0, -1, -1))
EXP_EQ = _eq((0, 1, -1, 1), (0, 0, -1, -1))
FUBINI_EQ = _eq((0, 1, -1, 1), (0, 0, 0, -2), (0, 0, -1, 1))
GENOCCHI_EQ = _eq((1, 1, -1, 2), (0, 0, 0, -1), (1, 0, -1, 2),
                  (0, 0, -1, -2))
SPRINGER_EQ = _eq((0, 2, 0, 1), (0, 1, 1, -2), (0, 0, 0, -1))
LOG_RECIPROCAL_EQ = _eq((1, 1, -1, 1), (0, 1, -1, 1), (0, 0, 0, -1))


def _basis_spans(result, target):
    vectors = [equation_vector(eq, result.d, result.m) for eq in result.basis]
    return in_span(vectors, equation_vector(target, result.d, result.m))


def test_criterion_1_zeta_reproduction():
    """24 rational zeta-evaluation terms give back the known second-order
    quadratic equation and its recurrence."""
    prefix = oracle_sequence("zeta-rescaled", 24)
    result = guess(prefix)
    assert result.succeeded and result.d <= 5
    assert _basis_spans(result, ZETA_EQ)
    # exact normalized form and both renderings
    vec = equation_vector(ZETA_EQ, result.d, result.m)
    assert normalize(vec, ansatz(result.d, result.m)) == ZETA_EQ
    assert ZETA_EQ in result.basis
    assert render_text(ZETA_EQ, "ode") == \
        "2*z*y'' - 4*z*y*y' + 5*y' - 2*y^2 = 0"
    assert render_text(ZETA_EQ, "recurrence") == (
        "2*n*(n+1)*a(n+1) - 4*Sum((k+1)*a(k+1)*a(n-k-1), k=0..n-1)"
        " + 5*(n+1)*a(n+1) - 2*Sum(a(k)*a(n-k), k=0..n) = 0")

    # the rendered recurrence matches the independent hand-coded rows
    # (2n+5)(n+1) a(n+1) - 2 sum_k (2(k+1) a(k+1) a(n-1-k) + a(k) a(n-k))
    def reference_row(a, n):
        def at(i):
            return a[i] if i >= 0 else Fraction(0)
        total = Fraction((2 * n + 5) * (n + 1)) * at(n + 1)
        for k in range(n + 1):
            total -= 2 * (2 * (k + 1) * at(k + 1) * at(n - 1 - k)
                          + at(k) * at(n - k))
        return total

    a = list(prefix)
    report = check(ZETA_EQ, prefix)
    assert report.passed and report.rows_checked == 23
    for n in range(0, 23):
        assert reference_row(a, n) == 0
    print("PASS criterion 1: zeta reproduction")


def test_criterion_2_up_down_numbers():
    """20 terms of the up/down EGF give back y'' - y*y' = 0.

    The d = 5 system needs all 20 terms for its construction rows, so this
    runs in strict mode (no held-out rows demanded)."""
    prefix = oracle_sequence("zigzag-egf", 20)
    result = guess(prefix, GuessConfig(min_verify_rows=0))
    assert result.succeeded
    assert _basis_spans(result, ZIGZAG_EQ)
    assert ZIGZAG_EQ in result.basis
    assert render_text(ZIGZAG_EQ, "recurrence") == \
        "(n+1)*(n+2)*a(n+2) - Sum((k+1)*a(k+1)*a(n-k), k=0..n) = 0"
    # independent validation on a longer oracle stretch
    assert check(ZIGZAG_EQ, oracle_sequence("zigzag-egf", 40)).passed
    print("PASS criterion 2: up/down numbers")


@pytest.mark.parametrize("name,target", [
    ("bernoulli-egf", BERNOULLI_EQ),
    ("euler-egf", EULER_EQ),
    ("bell-egf", BELL_EQ),
], ids=["bernoulli", "euler", "bell"])
def test_criterion_3_default_degree_bound_suffices(name, target):
    """Default config succeeds on 26-term classical-number EGFs."""
    result = guess(oracle_sequence(name, 26))
    assert result.succeeded
    assert _basis_spans(result, target)
    assert target in result.basis
    assert check(target, oracle_sequence(name, 40)).passed
    print(f"PASS criterion 3: default m=2 suffices for {name}")


def test_criterion_4_zeta_50():
    """Extending the guessed recurrence from 1/6 alone reaches the exact
    Bernoulli-number value of the 25th term."""
    ext = extend(ZETA_EQ, SequencePrefix([Fraction(1, 6)]), 24)
    oracle = oracle_sequence("zeta-rescaled", 25)
    assert ext[24] == oracle[24]  # equals 2^49 * B_50 / 50!
    assert ext == oracle
    print("PASS criterion 4: zeta(50) narrative")


def test_criterion_5_lambert_w():
    prefix = oracle_sequence("lambertw", 20)
    result = guess(prefix)
    assert result.succeeded
    assert _basis_spans(result, LAMBERTW_EQ)
    assert LAMBERTW_EQ in result.basis
    ext = extend(LAMBERTW_EQ, SequencePrefix([0, 1]), 39)
    for n in range(1, 41):
        assert ext[n] == Fraction((-n) ** (n - 1), factorial(n))
    print("PASS criterion 5: Lambert W")


def test_criterion_6_holonomic_subset():
    result = guess(oracle_sequence("exp", 15))
    assert result.succeeded
    assert _basis_spans(result, EXP_EQ)
    assert EXP_EQ in result.basis
    print("PASS criterion 6: holonomic subset (y' - y = 0)")


def test_criterion_7_compiler_oracle_equivalence():
    """200 randomized term rows (numerators over den**2) vs brute-force
    truncated series."""
    rng = random.Random(555)
    cases = 0
    while cases < 200:
        prefix = SequencePrefix([Fraction(rng.randint(-6, 6),
                                          rng.randint(1, 4))
                                 for _ in range(15)])
        s = rng.randint(0, 3)
        p = rng.randint(-1, 4)
        q = rng.randint(-1, p) if p >= 0 else -1
        if (p, q) == (-1, -1):
            continue
        derivs = Derivatives(*prefix.scaled())
        den = derivs.den
        term = QuadEquation([(s, monomial_of_orders(p, q), 1)])
        for n in range(13):
            if n - s + max(p, 0) > len(prefix) - 1:
                break
            assert term.row_numerator(derivs, n) == \
                term_coeff_bruteforce(list(prefix), s, p, q, n) * den**2
        cases += 1
    print("PASS criterion 7: compiler oracle equivalence (200 cases)")


def test_criterion_8_monomial_enumeration_consistency():
    pairs = sorted((p, q) for p in range(32) for q in range(-1, p + 1))
    assert [(slot(k).p, slot(k).q) for k in range(500)] == pairs[:500]
    expected = [(0, -1), (0, 0), (1, -1), (1, 0), (1, 1),
                (2, -1), (2, 0), (2, 1), (2, 2)]
    assert [(slot(k).p, slot(k).q) for k in range(9)] == expected
    print("PASS criterion 8: enumeration self-consistency")


def test_criterion_9_negative_control(tmp_path):
    """24 terms of n^n/n! are too few for any ansatz to find an equation:
    status fail, exit 1, and any equation ever emitted must survive check.

    This is not a provably negative control: n^n/n! satisfies
    3*z*y*y'' - z*y'' - 9*z*(y')^2 + y*y' - y' = 0, which guess finds from
    30 terms and which checks on 80.  The lacunary test below is one."""
    values = [Fraction(n ** n if n else 1, factorial(n)) for n in range(24)]
    prefix = SequencePrefix(values)
    result = guess(prefix)
    assert result.status == "fail"
    for eq in result.basis:
        assert check(eq, prefix).passed  # vacuous on fail, sound otherwise

    path = tmp_path / "hard.txt"
    path.write_text(dump_prefix(prefix))
    assert main(["guess", "--input", str(path)]) == 1

    # soundness property on positive controls: everything emitted checks
    for name, count in (("zeta-rescaled", 24), ("lambertw", 20),
                        ("exp", 15), ("bernoulli-egf", 26)):
        pos = oracle_sequence(name, count)
        res = guess(pos)
        for eq in res.basis:
            assert check(eq, pos).passed
    print("PASS criterion 9: negative control and soundness")


def _lacunary(count):
    """The first count terms of sum z^(2^n)."""
    return SequencePrefix([int(k > 0 and k & (k - 1) == 0)
                           for k in range(count)])


@pytest.mark.parametrize("count", [40, 60])
def test_lacunary_negative_control(count):
    """Sum z^(2^n) is a Mahler function and not rational, so it satisfies
    no algebraic differential equation (Adamczewski, Dreyfus and Hardouin,
    J. AMS 2021): whatever guess emits from `count` terms must fail check
    on 4 * count terms.  At 60 terms guess emits two d = 16 equations that
    fit the prefix."""
    result = guess(_lacunary(count))
    longer = _lacunary(4 * count)
    for eq in result.basis:
        assert check(eq, _lacunary(count)).passed
        assert not check(eq, longer).passed
    print(f"PASS negative control: lacunary series, {count} terms, "
          f"{len(result.basis)} equations refuted on {4 * count}")


def _qualifying(make, count):
    """guess's result on make(count) terms if it succeeds and every
    equation it emits passes check on make(4 * count) terms, else None."""
    try:
        result = guess(make(count))
    except (DegenerateInputError, InsufficientTermsError):
        return None
    longer = make(4 * count)
    if result.succeeded and all(check(eq, longer).passed
                                for eq in result.basis):
        return result
    return None


# Sequences whose generating functions are not D-finite, so that holonomic
# guessing cannot find them, each from a classical formula.  The first
# three have infinitely many poles; 1 / (1 - log(1 + z)) is not D-finite
# by Harris & Sibuya (Adv. Math. 1985), as f'/f is not algebraic for
# f = 1 - log(1 + z).


def _fubini(count):
    """Fubini numbers over n!, the sum over k of k! S(n, k), S(n, k) the
    Stirling numbers of the second kind (EGF 1 / (2 - e^z))."""
    values, stirling = [], [1]        # S(n, k) for k = 0 .. n
    for n in range(count):
        values.append(Fraction(sum(factorial(k) * x
                                   for k, x in enumerate(stirling)),
                               factorial(n)))
        stirling = [0] + [k * stirling[k] + stirling[k - 1]
                          for k in range(1, n + 1)] + [1]
    return SequencePrefix(values)


def _genocchi(count):
    """Genocchi numbers over n!, 2 (1 - 2^n) B_n (EGF 2z / (e^z + 1))."""
    return SequencePrefix([2 * (1 - 2 ** n) * b / factorial(n)
                           for n, b in enumerate(bernoulli_numbers(count))])


def _reciprocal(series):
    """The Taylor coefficients of 1 / g, series those of g, g(0) != 0."""
    out = []
    for n in range(len(series)):
        out.append((int(n == 0) - sum(series[k] * out[n - k]
                                      for k in range(1, n + 1))) / series[0])
    return SequencePrefix(out)


def _springer(count):
    """Springer numbers over n!: 1 / (cos z - sin z)."""
    return _reciprocal([Fraction((-1) ** ((n + 1) // 2), factorial(n))
                        for n in range(count)])


def _log_reciprocal(count):
    """1 / (1 - log(1 + z)), where -log(1 + z) has coefficients
    (-1)^n / n."""
    return _reciprocal([Fraction(1)] + [Fraction((-1) ** n, n)
                                        for n in range(1, count)])


_NOT_D_FINITE = {"fubini": _fubini, "genocchi": _genocchi,
                 "springer": _springer, "log-reciprocal": _log_reciprocal}


# Terms needed under the default config: per oracle, the fewest terms N
# that qualify (`_qualifying`), and there d, the basis size and the known
# equation, which is in the basis.  A change may lower an N; raising one
# is a regression to explain.
TERMS_NEEDED = {
    "bell-egf": (25, 6, 3, BELL_EQ),
    "bernoulli-egf": (15, 3, 2, BERNOULLI_EQ),
    "euler-egf": (25, 6, 3, EULER_EQ),
    "exp": (15, 3, 6, EXP_EQ),
    "lambertw": (15, 3, 2, LAMBERTW_EQ),
    "zeta-rescaled": (22, 5, 2, ZETA_EQ),
    "zigzag-egf": (22, 5, 3, ZIGZAG_EQ),
    "fubini": (15, 3, 3, FUBINI_EQ),
    "genocchi": (15, 3, 2, GENOCCHI_EQ),
    "springer": (25, 6, 3, SPRINGER_EQ),
    "log-reciprocal": (15, 3, 2, LOG_RECIPROCAL_EQ),
}


@pytest.mark.parametrize("name", sorted(TERMS_NEEDED))
def test_terms_needed_table(name):
    """No prefix of the sequence shorter than its table N qualifies, N
    does, and there guess has the table's d and basis size, and the known
    equation is in the basis."""
    count, d, size, known = TERMS_NEEDED[name]
    make = _NOT_D_FINITE.get(name) or partial(oracle_sequence, name)
    results = [_qualifying(make, n) for n in range(1, count + 1)]
    assert results[:-1] == [None] * (count - 1)
    result = results[-1]
    assert result is not None
    assert (result.d, len(result.basis)) == (d, size)
    assert known in result.basis
    print(f"PASS terms needed: {name}, {count} terms, d = {d}")


@pytest.mark.parametrize("count,d", [(20, None), (30, None), (40, None),
                                     (60, 16)])
def test_lacunary_never_qualifies(count, d):
    """The lacunary series, which satisfies no such equation, never
    qualifies: guess fails at 20, 30 and 40 terms, and the d = 16
    equations it emits at 60 fail check on 240."""
    result = guess(_lacunary(count))
    assert (result.succeeded, result.d) == (d is not None, d)
    assert _qualifying(_lacunary, count) is None
