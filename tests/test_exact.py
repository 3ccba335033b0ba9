import random
from fractions import Fraction

import pytest

from quadguess.exact import (Polynomial, falling_weight, format_rational,
                             normalize_vector, nullspace, parse_rational,
                             poly_eval, rat_arith)
from util_exact import naive_rank


def test_rat_arith_examples():
    assert rat_arith(Fraction(1, 6), Fraction(1, 6), "*") == Fraction(1, 36)
    assert rat_arith(Fraction(5), Fraction(1, 90), "*") == Fraction(1, 18)
    with pytest.raises(ZeroDivisionError):
        rat_arith(Fraction(1, 2), Fraction(0), "/")


def test_rat_arith_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                   for _ in range(3))
        assert rat_arith(rat_arith(a, b, "+"), c, "+") == \
            rat_arith(a, rat_arith(b, c, "+"), "+")
        assert rat_arith(a, rat_arith(b, c, "+"), "*") == \
            rat_arith(rat_arith(a, b, "*"), rat_arith(a, c, "*"), "+")


def test_rational_serialization():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(4)) == "4"
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("12") == Fraction(12)
    with pytest.raises(ValueError):
        parse_rational("nope")


def test_poly_eval():
    assert poly_eval(Polynomial([0, 0, 1]), 3) == 9
    assert poly_eval(Polynomial([]), Fraction(7, 2)) == 0
    assert poly_eval(Polynomial([5, 2], var="n"), 0) == 5


def test_polynomial_normal_form():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0]).degree == -1
    assert not Polynomial([0, 0])


def test_falling_weight():
    for k in range(6):
        assert falling_weight(k, 1) == k + 1
    for n in range(6):
        assert falling_weight(n, 2) == (n + 1) * (n + 2)
    assert falling_weight(5, 0) == 1
    with pytest.raises(ValueError):
        falling_weight(-1, 2)


def test_nullspace_examples():
    assert nullspace([[1, 0], [0, 1]]) == []
    assert nullspace([[1, 1], [2, 2]]) == [[1, -1]]
    assert nullspace([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == [[1, -2, 1]]


def test_nullspace_normalization():
    basis = nullspace([[Fraction(1, 3), Fraction(1, 2)]])
    assert basis == [[3, -2]] or basis == [[-3, 2]]
    (vec,) = basis
    assert vec[0] > 0


def test_normalize_vector():
    assert normalize_vector([Fraction(-2, 3), Fraction(4, 3)]) == [1, -2]


def test_nullspace_randomized_vs_gaussian_oracle():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(mat, width=cols)
        # every basis vector annihilates the matrix exactly
        for vec in basis:
            for row in mat:
                assert sum(r * v for r, v in zip(row, vec)) == 0
        # rank-nullity against a naive independent elimination
        assert len(basis) + naive_rank(mat) == cols
        # basis vectors are linearly independent
        assert naive_rank(basis) == len(basis) if basis else True


def test_nullspace_deterministic():
    rng = random.Random(5)
    mat = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
    assert nullspace(mat, width=5) == nullspace(mat, width=5)
