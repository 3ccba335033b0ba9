import random
from fractions import Fraction
from math import factorial

import pytest

from quadguess.equations import QuadEquation
from quadguess.errors import (InconsistentInitialTermsError,
                              InsufficientTermsError,
                              LeadingCoefficientZeroError)
from quadguess.guessing import GuessConfig, guess
from quadguess.monomials import monomial_of_orders
from quadguess.prefix import SequencePrefix
from quadguess.sequences import check, extend, oracle_sequence


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

ROUND_TRIPS = [
    (ZETA_EQ, "zeta-rescaled", 1),
    (ZIGZAG_EQ, "zigzag-egf", 2),
    (BERNOULLI_EQ, "bernoulli-egf", 2),
    (EULER_EQ, "euler-egf", 3),
    (BELL_EQ, "bell-egf", 2),
    (LAMBERTW_EQ, "lambertw", 2),
    (EXP_EQ, "exp", 1),
]


def test_oracle_zeta_rescaled_values():
    vals = oracle_sequence("zeta-rescaled", 5)
    assert list(vals) == [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945),
                          Fraction(1, 9450), Fraction(1, 93555)]


def test_oracle_zigzag_values():
    vals = oracle_sequence("zigzag-egf", 6)
    ints = [v * factorial(n) for n, v in enumerate(vals)]
    assert ints == [1, 1, 1, 2, 5, 16]


def test_oracle_lambertw_values():
    vals = oracle_sequence("lambertw", 6)
    assert list(vals) == [0, 1, -1, Fraction(3, 2), Fraction(-8, 3),
                          Fraction(125, 24)]


def test_oracle_bernoulli_values():
    vals = oracle_sequence("bernoulli-egf", 5)
    assert list(vals) == [1, Fraction(-1, 2), Fraction(1, 12), 0,
                          Fraction(-1, 720)]


def test_oracle_euler_values():
    vals = oracle_sequence("euler-egf", 7)
    ints = [v * factorial(n) for n, v in enumerate(vals)]
    assert ints == [1, 0, -1, 0, 5, 0, -61]


def test_oracle_bell_values():
    vals = oracle_sequence("bell-egf", 6)
    ints = [v * factorial(n) for n, v in enumerate(vals)]
    assert ints == [1, 1, 2, 5, 15, 52]


def test_oracle_unknown_name():
    with pytest.raises(ValueError):
        oracle_sequence("fibonacci", 5)
    with pytest.raises(ValueError):
        oracle_sequence("exp", 0)


def test_check_zeta_first_terms():
    assert check(ZETA_EQ, oracle_sequence("zeta-rescaled", 5)).passed


def test_check_zigzag_prefix():
    prefix = SequencePrefix([1, 1, Fraction(1, 2), Fraction(1, 3),
                             Fraction(5, 24)])
    assert check(ZIGZAG_EQ, prefix).passed


def test_check_reports_first_failure():
    eq = _eq((0, 0, -1, 1))  # y = 0
    report = check(eq, SequencePrefix([0, 0, 3, 4]))
    assert not report.passed
    assert report.first_failure == 2
    assert report.residual == 3


def test_extend_zigzag_from_two_terms():
    ext = extend(ZIGZAG_EQ, SequencePrefix([1, 1]), 3)
    assert list(ext)[2:] == [Fraction(1, 2), Fraction(1, 3), Fraction(5, 24)]


def test_extend_zeta_from_single_term():
    ext = extend(ZETA_EQ, SequencePrefix([Fraction(1, 6)]), 1)
    assert ext[1] == Fraction(1, 90)


def test_extend_bernoulli_step():
    ext = extend(BERNOULLI_EQ, SequencePrefix([1, Fraction(-1, 2)]), 1)
    assert ext[2] == Fraction(1, 12)


def test_extend_inconsistent_initial_terms():
    with pytest.raises(InconsistentInitialTermsError):
        extend(_eq((0, 0, -1, 1)), SequencePrefix([1, 2]), 1)


def test_extend_leading_coefficient_zero():
    # z y' - y: row n gives (n-1) a_n = 0, degenerate at n = 1
    eq = _eq((1, 1, -1, 1), (0, 0, -1, -1))
    with pytest.raises(LeadingCoefficientZeroError):
        extend(eq, SequencePrefix([0]), 2)


def test_extend_rejects_negative_count():
    with pytest.raises(ValueError):
        extend(ZIGZAG_EQ, SequencePrefix([1, 1]), -5)
    assert list(extend(ZIGZAG_EQ, SequencePrefix([1, 1]), 0)) == [1, 1]


def test_extend_too_short_initial():
    with pytest.raises(InsufficientTermsError):
        extend(_eq((0, 2, -1, 1), (0, 1, 0, -1)), SequencePrefix([1]), 1)


@pytest.mark.parametrize("eq,name,seed", ROUND_TRIPS,
                         ids=[name for _, name, _ in ROUND_TRIPS])
def test_extend_round_trips_oracles(eq, name, seed):
    """Extending from a short oracle prefix reproduces the oracle exactly."""
    oracle = oracle_sequence(name, seed + 20)
    initial = SequencePrefix(list(oracle)[:seed])
    ext = extend(eq, initial, len(oracle) - seed)
    assert ext == oracle
    assert check(eq, ext).passed  # self-consistency


def test_guess_extend_closure():
    """Guessing on terms generated by a quadratic equation yields only
    equations that hold on a longer extension."""
    rng = random.Random(2024)
    cases = 0
    attempts = 0
    while cases < 8 and attempts < 400:
        attempts += 1
        terms = []
        for _ in range(rng.randint(2, 4)):
            s = rng.randint(0, 2)
            p = rng.randint(0, 2)
            q = rng.randint(-1, p)
            c = rng.choice([-2, -1, 1, 2, 3])
            terms.append((s, p, q, c))
        try:
            eq = _eq(*terms)
            seed_len = max(eq.max_shift, 1) + rng.randint(0, 1)
            seed = SequencePrefix([Fraction(rng.randint(1, 3))
                                   for _ in range(max(seed_len, 1))])
            longer = extend(eq, seed, 40 - len(seed))
        except Exception:
            continue
        short = SequencePrefix(list(longer)[:30])
        if short.is_zero():
            continue
        try:
            result = guess(short, GuessConfig())
        except Exception:
            continue
        if result.succeeded:
            for found in result.basis:
                assert check(found, longer).passed
        cases += 1
    assert cases >= 5
