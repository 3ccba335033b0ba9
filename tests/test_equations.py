import json
import random
from fractions import Fraction

import pytest

from quadguess.equations import (Derivatives, QuadEquation,
                                 equation_from_json, equation_to_json,
                                 render_latex, render_text, render_tree,
                                 term_numerator)
from quadguess.errors import EquationFormatError
from quadguess.monomials import (QuadMonomial, monomial_of_index,
                                 monomial_of_orders)
from quadguess.prefix import SequencePrefix
from util_exact import term_coeff_bruteforce


def _random_prefix(rng, length):
    return SequencePrefix([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(length)])


ZETA_EQ = QuadEquation([
    (1, monomial_of_orders(2, -1), 2),
    (0, monomial_of_orders(1, -1), 5),
    (1, monomial_of_orders(1, 0), -4),
    (0, monomial_of_orders(0, 0), -2),
])

ZIGZAG_EQ = QuadEquation([
    (0, monomial_of_orders(2, -1), 1),
    (0, monomial_of_orders(1, 0), -1),
])


def _term_row(prefix, s, mono, n):
    """Row n of the single term z^s * f^(p) * f^(q) on the prefix, times
    den**2, through the evaluator; and den**2."""
    derivs = Derivatives(*prefix.scaled())
    return term_numerator(derivs, n - s, mono.p, mono.q), derivs.den ** 2


def test_compile_term_quadratic_example():
    # z^0 * f' * f at row n is sum_k (k+1) a_{k+1} a_{n-k}
    prefix = _random_prefix(random.Random(1), 10)
    mono = monomial_of_orders(1, 0)
    for n in range(9):
        expected = sum((Fraction(k + 1) * prefix[k + 1] * prefix[n - k]
                        for k in range(n + 1)), Fraction(0))
        value, scale = _term_row(prefix, 0, mono, n)
        assert value == expected * scale


def test_compile_term_shifted_square():
    # z^1 * f * f at row n is sum_{k=0}^{n-1} a_k a_{n-1-k}
    prefix = _random_prefix(random.Random(2), 10)
    mono = monomial_of_orders(0, 0)
    assert _term_row(prefix, 1, mono, 0)[0] == 0
    for n in range(1, 10):
        expected = sum((prefix[k] * prefix[n - 1 - k] for k in range(n)),
                       Fraction(0))
        value, scale = _term_row(prefix, 1, mono, n)
        assert value == expected * scale


def test_compile_term_linear_second_derivative():
    prefix = _random_prefix(random.Random(3), 10)
    mono = monomial_of_orders(2, -1)
    for n in range(8):
        value, scale = _term_row(prefix, 0, mono, n)
        assert value == (n + 1) * (n + 2) * prefix[n + 2] * scale


def test_compile_term_below_shift_is_zero():
    prefix = _random_prefix(random.Random(4), 6)
    assert _term_row(prefix, 2, monomial_of_orders(0, -1), 1)[0] == 0


def test_compile_term_constant_monomial():
    prefix = _random_prefix(random.Random(5), 6)
    mono = QuadMonomial(index=1, p=-1, q=-1)
    value, scale = _term_row(prefix, 2, mono, 2)
    assert value == 1 * scale
    assert _term_row(prefix, 2, mono, 3)[0] == 0


def test_max_index():
    eq = QuadEquation([(1, monomial_of_orders(2, 0), 1)])
    assert 7 + eq.max_shift == 7 - 1 + 2


def test_compiler_vs_series_oracle():
    """Master property: row numerators equal den**2 times brute-force
    truncated power-series differentiation and multiplication, 200
    randomized cases."""
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        prefix = _random_prefix(rng, 15)
        s = rng.randint(0, 3)
        p = rng.randint(-1, 4)
        q = rng.randint(-1, p) if p >= 0 else -1
        if (p, q) == (-1, -1):
            continue
        mono = monomial_of_orders(p, q)
        for n in range(0, 13):
            if n - s + mono.max_order > prefix.last_index:
                break
            value, scale = _term_row(prefix, s, mono, n)
            assert value == term_coeff_bruteforce(
                list(prefix), s, mono.p, mono.q, n) * scale
        checked += 1


def test_cauchy_symmetry():
    """Product rows are symmetric in the two derivative orders."""
    rng = random.Random(17)
    derivs = Derivatives([rng.randint(-9, 9) for _ in range(20)], 1)
    for p in range(0, 4):
        for q in range(0, 4):
            for m in range(0, 14):
                if m + max(p, q) >= len(derivs.nums):
                    continue
                assert term_numerator(derivs, m, p, q) == \
                    term_numerator(derivs, m, q, p)


def test_row_locality():
    """A row never reads beyond index n + max_shift."""
    rng = random.Random(31)
    for _ in range(40):
        s = rng.randint(0, 2)
        p = rng.randint(0, 3)
        q = rng.randint(-1, p)
        mono = monomial_of_orders(p, q)
        n = rng.randint(s, 8)
        top = n + QuadEquation([(s, mono, 1)]).max_shift
        assert top == n - s + mono.max_order
        base = _random_prefix(rng, top + 3)
        altered = SequencePrefix(list(base)[:top + 1] +
                                 [v + 1 for v in list(base)[top + 1:]])
        assert Fraction(*_term_row(base, s, mono, n)) == \
            Fraction(*_term_row(altered, s, mono, n))


def test_equation_merges_and_sorts_terms():
    eq = QuadEquation([
        (0, monomial_of_orders(1, 0), 3),
        (0, monomial_of_orders(2, -1), 1),
        (0, monomial_of_orders(1, 0), -3),
    ])
    assert len(eq.terms) == 1
    assert eq.terms[0][1].index == 7


def test_equation_rejects_empty():
    with pytest.raises(ValueError):
        QuadEquation([(0, monomial_of_orders(0, -1), 0)])


def test_equation_json_roundtrip():
    text = equation_to_json(ZETA_EQ)
    assert equation_from_json(text) == ZETA_EQ
    obj = json.loads(text)
    assert obj == {"terms": [
        {"s": 0, "p": 0, "q": 0, "c": "-2"},
        {"s": 0, "p": 1, "q": -1, "c": "5"},
        {"s": 1, "p": 1, "q": 0, "c": "-4"},
        {"s": 1, "p": 2, "q": -1, "c": "2"},
    ]}


def test_equation_json_validation():
    with pytest.raises(EquationFormatError):
        equation_from_json('{"terms": []}')
    with pytest.raises(EquationFormatError):
        equation_from_json('{"terms": [{"s": 0, "p": -1, "q": -1, "c": "1"}]}')
    with pytest.raises(EquationFormatError):
        equation_from_json('{"terms": [{"s": -1, "p": 0, "q": -1, "c": "1"}]}')
    with pytest.raises(EquationFormatError):
        equation_from_json('not json')


@pytest.mark.parametrize("key,value", [
    ("s", 1.9), ("s", True), ("s", "1"), ("s", 1.0),
    ("p", 1.5), ("p", True), ("q", 0.0), ("q", False), ("q", None),
])
def test_equation_json_orders_must_be_integers(key, value):
    """s, p and q are never coerced: 1.9 is not truncated, true is not 1."""
    term = {"s": 1, "p": 1, "q": 0, "c": "1"}
    term[key] = value
    with pytest.raises(EquationFormatError, match=repr(key)):
        equation_from_json(json.dumps({"terms": [term]}))


def test_render_ode_text_goldens():
    assert render_text(ZIGZAG_EQ, "ode") == "y'' - y*y' = 0"
    assert render_text(ZETA_EQ, "ode") == \
        "2*z*y'' - 4*z*y*y' + 5*y' - 2*y^2 = 0"
    only_f = QuadEquation([(0, monomial_of_orders(0, -1), 1)])
    assert render_text(only_f, "ode") == "y = 0"


def test_render_recurrence_text_goldens():
    assert render_text(ZIGZAG_EQ, "recurrence") == \
        "(n+1)*(n+2)*a(n+2) - Sum((k+1)*a(k+1)*a(n-k), k=0..n) = 0"
    assert render_text(ZETA_EQ, "recurrence") == (
        "2*n*(n+1)*a(n+1) - 4*Sum((k+1)*a(k+1)*a(n-k-1), k=0..n-1)"
        " + 5*(n+1)*a(n+1) - 2*Sum(a(k)*a(n-k), k=0..n) = 0")


def test_render_latex_goldens():
    assert render_latex(ZIGZAG_EQ, "ode") == "y'' - y\\,y' = 0"
    assert render_latex(ZIGZAG_EQ, "recurrence") == (
        "(n+1)\\,(n+2)\\,a(n+2) - "
        "\\sum_{k=0}^{n} (k+1)\\,a(k+1)\\,a(n-k) = 0")


def test_render_tree_is_canonical_json():
    tree = render_tree(ZIGZAG_EQ, "recurrence")
    assert tree == json.loads(json.dumps(tree))
    assert tree["kind"] == "recurrence"
    assert [t["kind"] for t in tree["terms"]] == ["linear", "convolution"]


def test_rescaled_equation_roundtrip():
    """eq annihilates a_n iff eq.rescaled(lam) annihilates lam^n a_n."""
    lam = Fraction(3, 2)
    rng = random.Random(43)
    prefix = _random_prefix(rng, 12)
    scaled = SequencePrefix([v * lam ** n for n, v in enumerate(prefix)])
    eq = ZETA_EQ
    eq_scaled = eq.rescaled(lam)
    for n in range(0, 10):
        assert eq_scaled.row_value(scaled, n) == \
            lam ** n * eq.row_value(prefix, n)
    assert eq_scaled.rescaled(1 / lam) == eq
