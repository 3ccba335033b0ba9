import random
from fractions import Fraction
from math import ceil

import pytest

from quadguess import exact, guessing
from quadguess.equations import QuadEquation, render_text
from quadguess.errors import DegenerateInputError, InsufficientTermsError
from quadguess.exact import P, nullspace
from quadguess.guessing import (GuessConfig, GuessResult, assemble_system,
                                column_order, guess, normalize)
from quadguess.monomials import monomial_of_index, monomial_of_orders
from quadguess.prefix import SequencePrefix
from quadguess.sequences import ORACLES, check, oracle_sequence
from util_exact import equation_vector, in_span, term_coeff_bruteforce


def test_column_count():
    assert len(column_order(5, 2)) == 18


def test_assemble_second_derivative_column():
    # column (k=5, i=0) hosts f''; its row-n entry is (n+1)(n+2) a_{n+2},
    # times den**2 for the prefix scaled to nums / den
    prefix = oracle_sequence("zigzag-egf", 20)
    matrix, usable = assemble_system(prefix, d=5, m=2)
    assert usable == 18
    col = column_order(5, 2).index((5, 0))
    _, den = prefix.scaled()
    for n in range(usable):
        assert matrix[n][col] == (n + 1) * (n + 2) * prefix[n + 2] * den**2


def test_assemble_usable_rows_respects_prefix():
    prefix = oracle_sequence("exp", 10)
    _, usable = assemble_system(prefix, d=5, m=2)
    assert usable == 10 - 2  # rows read two indices ahead at d = 5


def _reference_matrix(prefix, d, m, usable):
    """Brute-force series coefficients times den**2, entry by entry."""
    a = list(prefix)
    _, den = prefix.scaled()
    matrix = []
    for n in range(usable):
        row = []
        for k, i in column_order(d, m):
            mono = monomial_of_index(k + 2)
            row.append(term_coeff_bruteforce(a, i, mono.p, mono.q, n)
                       * den**2)
        matrix.append(row)
    return matrix


def test_assemble_shared_rows_match_per_entry_reference():
    """One row dict reused across d gives exactly the matrices of per-entry
    evaluation: d growing then a smaller d again, and a smaller d whose
    rows must extend the lists a larger d left (usable 38 -> 39)."""
    prefix = oracle_sequence("zeta-rescaled", 40)
    for order in ((3, 4, 5, 6, 7, 4), (7, 4)):
        rows = {}
        for d in order:
            matrix, usable = assemble_system(prefix, d, 2, rows)
            assert matrix == _reference_matrix(prefix, d, 2, usable)
            assert all(type(x) is int for row in matrix for x in row)


def test_guess_exp_contains_first_order_equation():
    result = guess(oracle_sequence("exp", 15))
    assert result.succeeded and result.d == 3
    target = QuadEquation([(0, monomial_of_orders(1, -1), 1),
                           (0, monomial_of_orders(0, -1), -1)])
    assert target in result.basis
    vectors = [equation_vector(eq, result.d, result.m)
               for eq in result.basis]
    assert in_span(vectors, equation_vector(target, result.d, result.m))


def test_guess_degenerate_input():
    with pytest.raises(DegenerateInputError):
        guess(SequencePrefix([0, 0, 0, 0]))


def test_guess_insufficient_terms():
    with pytest.raises(InsufficientTermsError):
        guess(SequencePrefix([1, 1, 1]))


def test_guess_fail_status():
    rng = random.Random(3)
    prefix = SequencePrefix([Fraction(rng.randint(1, 10**6),
                                      rng.randint(1, 10**6))
                             for _ in range(24)])
    result = guess(prefix)
    assert result.status == "fail"
    assert result.basis == ()


def test_guess_minimality_of_d():
    """Below the accepted d, the stacked system has a trivial nullspace."""
    prefix = oracle_sequence("zeta-rescaled", 24)
    result = guess(prefix)
    assert result.succeeded
    for d in range(3, result.d):
        matrix, _ = assemble_system(prefix, d, result.m)
        assert nullspace(matrix, width=(result.m + 1) * (d + 1)) == []


def _guess_full_exact(prefix, cfg=GuessConfig()):
    """guess's search with the full exact system at every d: the reference
    path assemble_system, then nullspace, then normalize."""
    m = cfg.m
    d_cap = cfg.d_max if cfg.d_max is not None else ceil(len(prefix) / (m + 1))
    rows = {}
    for d in range(cfg.d_start, d_cap + 1):
        construction = (m + 1) * (d + 1)
        matrix, usable = assemble_system(prefix, d, m, rows)
        if usable < construction + cfg.min_verify_rows:
            break
        basis = nullspace(matrix, width=construction)
        if basis:
            return GuessResult(status="success", d=d, m=m,
                               basis=tuple(normalize(v, d, m) for v in basis),
                               construction_rows=construction,
                               verification_rows=usable - construction)
    return GuessResult(status="fail", m=m)


def _prime_denominator_prefix(rng, count):
    """The fail-random shape: 20-bit numerators over distinct 15-bit prime
    denominators, so every ansatz size is full rank."""
    primes = [q for q in range(2**14 + 1, 2**15, 2)
              if all(q % f for f in range(3, int(q**0.5) + 1, 2))]
    return [Fraction(rng.choice((-1, 1)) * rng.randrange(2**19, 2**20), q)
            for q in rng.sample(primes, count)]


def test_guess_matches_full_exact_path(monkeypatch):
    """guess ranks each d in one column echelon mod P per search and reads
    exact rows only where it must; its result equals the full exact
    system's, byte for byte, also where reduction mod P loses every row
    (oracle * P), where den = 0 mod P (oracle / P), and where rank drops
    only mod P (an oracle with P added to its middle or last term) so that
    the basis lifted from the pivot rows fails verification and all rows
    decide mod further primes."""
    ranks, kernels = [], []  # echelon (rank, width, height) per d; fallback?
    rank_filter, kernel_mod = guessing.modular_nullspace, exact._kernel_mod

    def logged_rank(echelon, residue_row, exact_row, vanishes):
        ranks.append((echelon.rank, echelon.width, echelon.height))
        return rank_filter(echelon, residue_row, exact_row, vanishes)

    def logged_kernel(rows, width, p):
        kernels.append(p != P)   # mod P: the pivot rows; below P: fallback
        return kernel_mod(rows, width, p)

    monkeypatch.setattr(guessing, "modular_nullspace", logged_rank)
    monkeypatch.setattr(exact, "_kernel_mod", logged_kernel)

    def compare(values):
        prefix = SequencePrefix(values)
        ranks.clear()
        kernels.clear()
        result = guess(prefix).to_json()
        paths = list(ranks), list(kernels)
        assert result == _guess_full_exact(prefix).to_json(), values
        return paths

    def plus_p(values, t):
        return values[:t] + (values[t] + P,) + values[t + 1:]

    rng = random.Random(83)
    for _ in range(12):
        compare([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(14, 30))])
    last_term_fallbacks = 0
    for name in sorted(ORACLES):
        values = oracle_sequence(name, rng.randint(26, 32)).values
        _, fallback = compare(values)
        assert fallback == [False], name   # checked on the pivot rows
        ranks_times_p, _ = compare([v * P for v in values])
        assert {rank for rank, _, _ in ranks_times_p} == {0}
        over_p = [v / P for v in values]
        assert SequencePrefix(over_p).scaled()[1] % P == 0
        compare(over_p)
        _, fallback = compare(plus_p(values, len(values) // 2))
        assert True in fallback, name
        # only the last row reads the last term, and an equation whose
        # max_shift is below r(d) does not read it there
        _, fallback = compare(plus_p(values, len(values) - 1))
        last_term_fallbacks += True in fallback
    assert last_term_fallbacks
    for _ in range(3):
        per_d, fallback = compare(_prime_denominator_prefix(rng, 40))
        assert fallback == []
        assert all(rank == width for rank, width, _ in per_d)
        assert len({height for _, _, height in per_d}) == 3  # cut twice


def test_guess_soundness_all_rows():
    """Every returned equation annihilates every formable row."""
    for name, count in (("zeta-rescaled", 24), ("bernoulli-egf", 26),
                        ("exp", 15)):
        prefix = oracle_sequence(name, count)
        result = guess(prefix)
        assert result.succeeded
        for eq in result.basis:
            report = check(eq, prefix)
            assert report.passed


def test_guess_deterministic():
    prefix = oracle_sequence("bell-egf", 26)
    assert guess(prefix).to_json() == guess(prefix).to_json()


def test_guess_result_json_roundtrip():
    result = guess(oracle_sequence("exp", 15))
    again = GuessResult.from_json(result.to_json())
    assert again == result


def test_scaling_invariance_of_solutions():
    """Geometric rescaling of the prefix maps solutions through the
    per-term coefficient reweighting, and back."""
    lam = Fraction(2, 3)
    prefix = oracle_sequence("zeta-rescaled", 24)
    scaled = SequencePrefix([v * lam ** n for n, v in enumerate(prefix)])
    result = guess(prefix)
    for eq in result.basis:
        assert check(eq.rescaled(lam), scaled).passed
        assert check(eq.rescaled(lam).rescaled(1 / lam), prefix).passed
    # the CLI-style inverse: dividing out lam^n recovers the original
    assert scaled.rescaled(lam) == SequencePrefix(list(prefix))


def test_zeta_graded_check_at_n0():
    # first row of the rescaled zeta recurrence: 5 * (1/90) = 2 * (1/6)^2
    a = oracle_sequence("zeta-rescaled", 2)
    assert 5 * a[1] - 2 * a[0] ** 2 == 0


def test_normalize_single_entry():
    eq = normalize([Fraction(3, 7)] + [Fraction(0)] * 11, d=3, m=2)
    assert render_text(eq, "ode") == "y = 0"
    assert eq.terms[0][2] == 1


def test_normalize_sign_rule():
    # two unknowns of the same monomial, different z powers: the higher
    # z-power coefficient ends up positive
    vec = [Fraction(0)] * 12
    vec[0] = Fraction(1)   # (k=0, i=0): f
    vec[1] = Fraction(-1)  # (k=0, i=1): z*f
    eq = normalize(vec, d=3, m=2)
    assert render_text(eq, "ode") == "z*y - y = 0"


def test_normalize_clears_content_and_denominators():
    vec = [Fraction(0)] * 12
    vec[0] = Fraction(-4, 6)
    vec[3] = Fraction(4, 3)   # (k=1, i=0): f^2
    eq = normalize(vec, d=3, m=2)
    coeffs = [c for _, _, c in eq.terms]
    assert coeffs == [-1, 2]


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize([Fraction(0)] * 12, d=3, m=2)


def test_config_validation():
    with pytest.raises(ValueError):
        GuessConfig(m=-1)
    with pytest.raises(ValueError):
        GuessConfig(d_start=0)


@pytest.mark.parametrize("d_start,d_max", [(3, 2), (3, 1), (3, -4), (5, 4)])
def test_config_rejects_d_max_below_d_start(d_start, d_max):
    with pytest.raises(ValueError, match="d_max"):
        GuessConfig(d_start=d_start, d_max=d_max)


def test_config_accepts_d_max_at_d_start():
    assert GuessConfig(d_start=3, d_max=3).d_max == 3
    assert GuessConfig(d_max=None).d_max is None
