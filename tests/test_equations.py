import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial, inf

import pytest
from hypothesis import HealthCheck, assume, example, given, note, settings
from hypothesis import strategies as st

from quadguess import equations
from quadguess.equations import (Derivatives, QuadEquation, QuadMonomial,
                                 equation_from_json, equation_to_json,
                                 monomial_of_orders, render_latex,
                                 render_text)
from quadguess.errors import EquationFormatError
from quadguess.exact import falling_weight
from quadguess.guessing import ansatz, guess, normalize
from quadguess.prefix import SequencePrefix
from quadguess.sequences import ORACLES, check, oracle_sequence
from util_exact import (monomial_row, rescaled_equation, row_bruteforce,
                        series_derivative, series_product_coeff,
                        square_plan, term_coeff_bruteforce)


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
    den**2, through the evaluator (the one-term equation's row); and
    den**2."""
    derivs = Derivatives(*prefix.scaled())
    return (QuadEquation([(s, mono, 1)]).row_numerator(derivs, n),
            derivs.den ** 2)


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
    mono = QuadMonomial(-1, -1)
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
            if n - s + max(p, 0) > len(prefix) - 1:
                break
            value, scale = _term_row(prefix, s, mono, n)
            assert value == term_coeff_bruteforce(
                list(prefix), s, mono.p, mono.q, n) * scale
        checked += 1


def test_cauchy_symmetry():
    """Product rows are symmetric in the two derivative orders, and the
    one-term equation's row, read through squares, is that product."""
    rng = random.Random(17)
    derivs = Derivatives([rng.randint(-9, 9) for _ in range(20)], 1)
    for p in range(0, 4):
        for q in range(0, 4):
            term = QuadEquation([(0, monomial_of_orders(p, q), 1)])
            for m in range(0, 14):
                if m + max(p, q) >= len(derivs.nums):
                    continue
                assert monomial_row(derivs, m, p, q) == \
                    monomial_row(derivs, m, q, p) == \
                    term.row_numerator(derivs, m)


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
        assert top == n - s + p
        base = _random_prefix(rng, top + 3)
        altered = SequencePrefix(list(base)[:top + 1] +
                                 [v + 1 for v in list(base)[top + 1:]])
        assert Fraction(*_term_row(base, s, mono, n)) == \
            Fraction(*_term_row(altered, s, mono, n))


# terms whose denominators force a rescale at random steps
_STEP_TERMS = st.builds(Fraction, st.integers(-50, 50),
                        st.sampled_from([1, 1, 2, 3, 7, 2 ** 30]))
_STEPS = st.one_of(
    st.tuples(st.just("put"), st.lists(_STEP_TERMS, min_size=1, max_size=9)),
    st.tuples(st.just("set_last"), _STEP_TERMS),
    st.tuples(st.just("scale"), st.sampled_from([1, 2, 3, 2 ** 30])),
    st.tuples(st.just("drop_square"), st.integers(0, 6)))


@settings(max_examples=300, deadline=None)
@given(nums=st.lists(st.integers(-50, 50), max_size=6),
       den=st.sampled_from([1, 2, 6, 7]),
       steps=st.lists(_STEPS, max_size=10), data=st.data())
# extend's path: a placeholder 0 put in, then set to the solved term
@example(nums=[], den=1,
         steps=[("put", [0]), ("set_last", 3), ("scale", 2 ** 30),
                ("put", [0]), ("set_last", -5), ("scale", 1)],
         data=None)
@example(nums=[1], den=2,
         steps=[("put", [Fraction(1, 3), Fraction(-2, 7)]), ("put", [0]),
                ("set_last", Fraction(5, 2 ** 30)), ("scale", 3)],
         data=None)
def test_derivatives_store_stays_in_step(nums, den, steps, data):
    """Sequences and square coefficients read before and between random
    put / set_last / scale / drop_square steps follow the documented
    rules, and nums / den are the terms put in: derivs[p] is
    falling_weight(j, p) * nums[j + p], derivs[-1] is den, 0, 0, ..., as
    long as nums, and derivs[0] equals nums but is a copy, as the store
    keeps no sequence.  Every kept square coefficient S_j[u] is the
    schoolbook sum(F[i] * F[u - i]) of F = derivs[j]: after each step
    some totals are filled for groups of orders, and S_0 and S_1 at the
    last index, the ones that read the last term through the pair (j, t),
    so set_last fixes up a kept one, as extend's placeholder path does."""
    derivs = Derivatives(nums, den)
    terms = [Fraction(x, den) for x in nums]
    fills = [(3, [0, 1]), (2, [1]), (4, [0, 2])]
    for step in [None] + steps:
        if step is not None:
            name, arg = step
            if name == "put":
                derivs.put(arg)
                terms += arg
            elif derivs.nums:
                getattr(derivs, name)(arg)
                if name == "set_last":
                    terms[-1] = arg
        if data is not None:
            fills += data.draw(st.lists(st.tuples(
                st.integers(0, 10),
                st.sets(st.integers(0, 3), min_size=1).map(sorted)),
                max_size=3))
        t = len(derivs.nums) - 1
        for total, orders in fills + [(t, [0]), (t + 1, [1])]:
            ready = [j for j in orders if 2 * j <= total]
            if ready and all(total - j <= t for j in ready):
                derivs._square(total, orders)
        note(f"nums={derivs.nums} den={derivs.den}")
        assert [Fraction(x, derivs.den) for x in derivs.nums] == terms
        size = len(derivs.nums)
        assert derivs[-1] == ([derivs.den] + [0] * (size - 1))[:size]
        assert derivs[0] == derivs.nums and derivs[0] is not derivs.nums
        for p in range(4):
            assert derivs[p] == [falling_weight(j, p) * derivs.nums[j + p]
                                 for j in range(size - p)]
        assert Derivatives.__slots__ == ("nums", "den", "_squares", "_chunks")
        for j, window in derivs._squares.items():
            f = derivs[j]
            for u, value in window.items():
                assert value == sum(f[i] * f[u - i] for i in range(u + 1)), \
                    (j, u)


# product terms (s, p, q, c) of derivative orders up to 4 and z-powers up
# to 3, so that an equation may read up to five square orders
_PRODUCT_TERMS = st.tuples(st.integers(0, 3), st.integers(0, 4)).flatmap(
    lambda sp: st.tuples(st.just(sp[0]), st.just(sp[1]),
                         st.integers(0, sp[1]),
                         st.sampled_from([-3, -1, 1, 2])))
_WALK_STEPS = st.one_of(
    st.tuples(st.just("put"), st.lists(_STEP_TERMS, min_size=1, max_size=4)),
    st.tuples(st.just("extend"), _STEP_TERMS),
    st.tuples(st.just("set_last"), _STEP_TERMS),
    st.tuples(st.just("scale"), st.sampled_from([2, 3, 2 ** 30])),
    st.tuples(st.just("drop_square"), st.integers(0, 12)))


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(_PRODUCT_TERMS, min_size=1, max_size=3),
       linear=st.booleans(),
       values=st.lists(_STEP_TERMS, max_size=8),
       steps=st.lists(_WALK_STEPS, max_size=12))
# y * y'''' + y': S_0, S_1 and S_2 of one total per row; S_0 reads the
# placeholder
@example(terms=[(0, 4, 0, 1)], linear=True,
         values=[1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)],
         steps=[("extend", Fraction(-1, 48)), ("extend", Fraction(5, 7)),
                ("scale", 3), ("extend", 2)])
# y' * y''' + 2 z y y': S_1 reads the placeholder, at T = t + 1
@example(terms=[(0, 3, 1, 1), (1, 1, 0, 2)], linear=False,
         values=[1, Fraction(1, 3), Fraction(-2, 5)],
         steps=[("extend", Fraction(1, 2 ** 30)), ("extend", 3),
                ("drop_square", 1), ("extend", Fraction(-4, 7))])
# (y'')^2 + y'': S_2 reads the placeholder, at T = t + 2
@example(terms=[(0, 2, 2, 1)], linear=True,
         values=[2, Fraction(1, 3), Fraction(1, 7)],
         steps=[("extend", Fraction(2, 3)), ("set_last", 5),
                ("extend", Fraction(1, 7))])
def test_square_coefficients_match_schoolbook(terms, linear, values, steps):
    """A store read by the rows of an equation of up to three square
    orders, in order as soon as their terms are in, between random put /
    extend / set_last / scale / drop_square steps: every square
    coefficient it keeps, times den**-2, is the schoolbook coefficient of
    (f^(j))**2 on the exact terms (`util_exact`), and it keeps windows of
    the squared orders only.  An extend step puts a placeholder 0 in,
    reads the rows it completes and sets the term, as extend does: the
    coefficients that read the placeholder, of order j through the pair
    (j, t) at total t + j, are fixed up."""
    if linear:
        terms = terms + [(0, 1, -1, 1)]
    try:
        eq = QuadEquation([(s, QuadMonomial(p, q), c)
                           for s, p, q, c in terms])
    except ValueError:  # every coefficient cancelled
        assume(False)
    orders = {j for _, _, j, _ in eq.squares}
    assume(0 < len(orders) <= 3)
    derivs = Derivatives([], 1)
    exact, row = [], 0

    def put(new):
        nonlocal row
        derivs.put(new)
        exact.extend(Fraction(x) for x in new)
        while row + eq.max_shift < len(exact):
            eq.row_numerator(derivs, row)
            row += 1

    def assert_schoolbook():
        assert [Fraction(x, derivs.den) for x in derivs.nums] == exact
        assert set(derivs._squares) <= orders
        for j, window in derivs._squares.items():
            f = series_derivative(exact, j)
            for u, value in window.items():
                assert value == series_product_coeff(f, f, u) \
                    * derivs.den ** 2, (j, u)

    if values:
        put(values)
    for name, arg in steps:
        if name == "put":
            put(arg)
        elif name == "extend":
            put([0])
            assert_schoolbook()
            derivs.set_last(arg)
            exact[-1] = Fraction(arg)
        elif exact:
            getattr(derivs, name)(arg)
            if name == "set_last":
                exact[-1] = Fraction(arg)
        assert_schoolbook()


def test_chunk_interpolation_inverts_the_vandermonde():
    """The chunk products' integer matrix M and denominator D = 14!
    satisfy M V = D I for the Vandermonde matrix V of the 15 points 0,
    +-1 .. +-7, at which `evaluate` has the rows (x**r for r < 8); the
    folded rows are M's on P(0) and P(x) + P(-x) for even r, on P(x) -
    P(-x) for odd r, as M's column of -x is (-1)**r times that of x."""
    evaluate, matrix, folded, scale = equations._toom()
    points = [row[1] for row in evaluate]
    assert sorted(points) == list(range(-7, 8)) and scale == factorial(14)
    assert evaluate == [[x ** r for r in range(8)] for x in points]
    vandermonde = [[x ** c for c in range(15)] for x in points]
    assert [[sum(m * row[c] for m, row in zip(weights, vandermonde))
             for c in range(15)] for weights in matrix] == \
        [[scale * (r == c) for c in range(15)] for r in range(15)]
    for r, weights in enumerate(matrix):
        for x in range(1, 8):
            plus, minus = points.index(x), points.index(-x)
            assert weights[minus] == (-1) ** r * weights[plus]
        assert folded[r] == (weights[1:8] if r % 2 else weights[:8])
        assert r % 2 == 0 or weights[points.index(0)] == 0


# entries of 0 to 3 000 bits, either sign, and zeros
_CHUNK_ENTRIES = st.lists(
    st.one_of(st.just(0), st.integers(0, 3000).flatmap(
        lambda bits: st.integers(-(2 ** bits), 2 ** bits))),
    min_size=8, max_size=8)


@settings(max_examples=150, deadline=None)
@given(first=_CHUNK_ENTRIES, second=_CHUNK_ENTRIES)
@example(first=[0] * 8, second=[2 ** 3000 - 1] * 8)
@example(first=[-(2 ** 3000)] + [0] * 7, second=[0] * 7 + [2 ** 2999])
def test_chunk_products_interpolate_exactly(first, second):
    """Two 8-term chunks evaluated at the 15 points, multiplied point by
    point and interpolated by M, are D times their schoolbook product
    (15 coefficients), exactly divisible by D; and a store whose chunks 1
    and 2 are these, switched at block 2, makes the chunk pairs' sums
    of 2 and 3, chunk 1 squared and twice chunk 1 times chunk 2, the
    same way through the folded rows."""
    evaluate, matrix, _, scale = equations._toom()

    def values(chunk):
        return [sum(w * a for w, a in zip(row, chunk)) for row in evaluate]

    points = [a * b for a, b in zip(values(first), values(second))]
    for r, weights in enumerate(matrix):
        coeff = sum(w * p for w, p in zip(weights, points))
        assert coeff % scale == 0
        assert coeff // scale == series_product_coeff(first, second, r)
    derivs = Derivatives([7] * 8 + first + second + [5] * 8, 3)
    chunks = equations._Chunks(0)
    chunks.switch(2)
    assert chunks.products(derivs, 2) == \
        [series_product_coeff(first, first, r) for r in range(15)]
    assert chunks.products(derivs, 3) == \
        [2 * series_product_coeff(first, second, r) for r in range(15)]


def _long_term(rng, i, zeros):
    """Term i of a long walk: 0 on the odd indices (an even sequence) or
    in runs of 9, else a rational whose denominator forces rescales."""
    if zeros == "odd" and i % 2 or zeros == "runs" and i // 9 % 3 == 1:
        return Fraction(0)
    return Fraction(rng.randint(-10 ** rng.randint(1, 80), 10 ** 80),
                    rng.choice([1, 1, 3, 7, 2 ** 30, factorial(i % 25)]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32), size=st.integers(40, 120),
       zeros=st.sampled_from(["none", "odd", "runs"]),
       group=st.sampled_from([[0], [1], [2], [0, 1]]),
       cost=st.sampled_from([None, 0, -10 ** 60]))
# dense, every block from 2 on through chunks, S_0 and S_1 apart
@example(seed=1, size=120, zeros="none", group=[0], cost=-10 ** 60)
@example(seed=2, size=100, zeros="none", group=[1], cost=-10 ** 60)
# an even sequence and zero runs through chunks
@example(seed=3, size=90, zeros="odd", group=[0], cost=-10 ** 60)
@example(seed=4, size=90, zeros="runs", group=[2], cost=-10 ** 60)
def test_derivatives_store_matches_schoolbook_over_long_walks(
        seed, size, zeros, group, cost):
    """A store driven like a walk over 40 to 120 terms, and beyond it:
    block puts of 1 to 9 terms with rescales, placeholder extends fixed by
    set_last, drop_square behind the fills, and the square coefficients
    of one group of orders filled as their terms come in, in order or
    shuffled, plus repeated fills of totals filled before.  Every kept
    coefficient S_j[u], times den**-2, is the schoolbook coefficient of
    (f^(j))**2 on the exact terms (`util_exact`).  `_BLOCK_COST` is the
    module's, 0 or so low that a one-order group takes every block from
    2 on through chunks, from the first it fills, which may be a later
    one when the fills are shuffled."""
    rng = random.Random(seed)
    derivs, exact, filled = Derivatives([], 1), [], []

    def fill(totals):
        for total in totals:
            if total >= 2 * group[0]:
                derivs._square(total, group)
                filled.append(total)

    def assert_schoolbook(pick):
        assert [Fraction(x, derivs.den) for x in derivs.nums] == exact
        for j, window in derivs._squares.items():
            f = series_derivative(exact, j)
            kept = sorted(window)
            for u in pick(kept) if len(kept) > 6 else kept:
                assert window[u] == series_product_coeff(f, f, u) * \
                    derivs.den ** 2, (j, u)

    with pytest.MonkeyPatch.context() as mp:
        if cost is not None:
            mp.setattr(equations, "_BLOCK_COST", cost)
        while len(exact) < size:
            ready = len(exact) + group[0]      # totals below ready are in
            if rng.random() < 0.7:
                block = [_long_term(rng, len(exact) + k, zeros)
                         for k in range(rng.randint(1, 9))]
                derivs.put(block)
                exact += block
                totals = list(range(ready, len(exact) + group[0]))
                if rng.random() < 0.3:
                    rng.shuffle(totals)
                fill(totals)
            else:
                derivs.put([0])
                exact.append(Fraction(0))
                fill([ready])
                term = _long_term(rng, len(exact) - 1, zeros)
                derivs.set_last(term)
                exact[-1] = term
            if filled and rng.random() < 0.3:
                fill(rng.sample(filled, min(3, len(filled))))
            if rng.random() < 0.3:
                derivs.drop_square(rng.randrange(len(exact)))
            assert_schoolbook(lambda kept: kept[-3:] + rng.sample(kept, 3))
        assert_schoolbook(lambda kept: kept)
        if len(group) == 1 and cost is not None and cost < 0:
            assert derivs._chunks[group[0]].start < inf
        else:
            assert len(group) == 1 or not derivs._chunks


# (s, p, q, c): 3 * y * y' at z^0 and, gap rows away, either 3 * (y')^2
# alone or y' * y'' beside 2 * z * (y')^2
_WINDOW_TERMS = {
    "one-order": lambda gap: [(0, 1, 0, 3), (gap, 1, 1, 3)],
    "two-orders": lambda gap: [(0, 1, 0, 3), (gap, 2, 1, 1),
                               (gap + 1, 1, 1, 2)],
}


@pytest.mark.parametrize(
    "gap,terms", [(gap, terms) for terms in _WINDOW_TERMS
                  for gap in (1, 5, 14)],
    ids=[f"{terms}-{gap}" for terms in _WINDOW_TERMS for gap in (1, 5, 14)])
def test_square_windows_do_not_recompute_in_row_order(monkeypatch, gap,
                                                       terms):
    """Rows read in order compute each square coefficient they read once,
    however far apart (up to 15 rows) the z-powers of the terms that read
    it, and after row n the windows keep no index below n less the plan's
    largest z-power.  3 * y * y' is (3/2) * (S_0)', and (y')^2 and
    y' * y'' read S_1 at a = 0 and 1, all planned doubled.  Orders whose
    rows first read a total index at the same row, h = a + 2j - s the
    same at its largest, compute it from one set of products: each pair
    nums[i] * nums[k] is made once then (3yy' + 3z(y')^2), and at most once
    per such group otherwise."""
    eq = QuadEquation([(s, monomial_of_orders(p, q), c)
                       for s, p, q, c in _WINDOW_TERMS[terms](gap)])
    planned = ({"one-order": [(gap, 0, 1, 6)],
                "two-orders": [(gap, 1, 1, 1), (gap + 1, 0, 1, 4)]}[terms])
    assert eq.squares == tuple([(0, 1, 0, 3)] + planned)
    reach = max(s for s, _, _, _ in eq.squares)
    lead = {j: max(a + 2 * j - s for s, a, k, _ in eq.squares if k == j)
            for j in (0, 1)}
    derivs = Derivatives(*oracle_sequence("zeta-rescaled", 140).scaled())
    fills = []
    compute = Derivatives._square

    def spy(derivs, total, orders):
        fills.append((total, [j for j in orders if 2 * j <= total]))
        return compute(derivs, total, orders)

    monkeypatch.setattr(Derivatives, "_square", spy)
    for n in range(len(derivs.nums) - eq.max_shift):
        eq.row_numerator(derivs, n)
        assert all(u >= n - reach for window in derivs._squares.values()
                   for u in window), n
    computed = [(j, total - 2 * j) for total, orders in fills
                for j in orders]
    assert len(computed) == len(set(computed))
    assert {j for j, _ in computed} == {0, 1}
    pairs = Counter((i, total - i) for total, orders in fills
                    for i in range(orders[0], total // 2 + 1))
    assert max(pairs.values()) <= len(set(lead.values()))
    if (gap, terms) == (1, "one-order"):
        assert lead == {0: 1, 1: 1} and max(pairs.values()) == 1


# (s, p, q, c) with orders up to 5, so that one product reads up to three
# squares and products share them; p = q gives squares, q = -1 linear
# terms and p = q = -1 the constant 1
_TERMS = st.tuples(st.integers(0, 3), st.integers(-1, 3)).flatmap(
    lambda sq: st.tuples(
        st.just(sq[0]), st.integers(sq[1], 5), st.just(sq[1]),
        st.builds(Fraction, st.sampled_from([-5, -2, -1, 1, 3]),
                  st.integers(1, 3))))
_VALUES = st.lists(st.builds(Fraction, st.integers(-9, 9),
                             st.integers(1, 6)), min_size=1, max_size=24)


@settings(max_examples=400, deadline=None)
@given(terms=st.lists(_TERMS, min_size=1, max_size=6), values=_VALUES)
# shared q = 0 with a square, and a linear group
@example(terms=[(1, 1, 0, -4), (0, 0, 0, -2), (1, 2, -1, 2), (0, 1, -1, 5)],
         values=[Fraction(1, 6), Fraction(1, 90), 3, -1, Fraction(2, 5)])
# every group starts above z^0: q = 1 at z^2, linear + constant at z^1
@example(terms=[(2, 3, 1, 1), (3, 1, 1, -2), (1, 2, -1, 3), (2, -1, -1, -1)],
         values=[1, 2, Fraction(-1, 3), 5, 7, Fraction(1, 4), -2])
# negative max_shift: only the constant and linear terms, s > p
@example(terms=[(3, -1, -1, 1), (2, 0, -1, -1), (3, 1, -1, 2)],
         values=[Fraction(2, 3), 1, -4])
# negative max_shift with products: z^3 * f * f' and z^2 * f^2
@example(terms=[(3, 1, 0, 1), (2, 0, 0, -1)], values=[1, Fraction(1, 2)])
# y * y'' + y': S_0 at a = 2 and S_1, on its own solution
@example(terms=[(0, 2, 0, 1), (0, 1, -1, 1)],
         values=[1, Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8),
                 Fraction(-7, 96), Fraction(47, 960)])
# z^2 * y * y^(4): three squares, S_0 at a = 4, S_1 at a = 2 and S_2
@example(terms=[(2, 4, 0, 1)],
         values=[2, -1, Fraction(1, 3), 4, Fraction(-5, 2), 1, 7,
                 Fraction(3, 4), -6, Fraction(1, 5)])
def test_row_numerator_matches_bruteforce(terms, values):
    """Rows read through squares equal coeff_den * den**2 times the rows
    of direct series arithmetic, for every row the prefix determines, all
    read in order from one Derivatives."""
    try:
        eq = QuadEquation([(s, QuadMonomial(p, q), c)
                           for s, p, q, c in terms])
    except ValueError:  # every coefficient cancelled
        assume(False)
    prefix = SequencePrefix(values)
    derivs = Derivatives(*prefix.scaled())
    scale = eq.coeff_den * derivs.den ** 2
    for n in range(len(prefix) - eq.max_shift):
        assert eq.row_numerator(derivs, n) == \
            row_bruteforce(eq, values, n) * scale


def test_square_plans_read_the_fewest_squares():
    """Each product is planned once, doubled, as derivatives of squares
    S_j = (f^(j))**2, merged by (s, a, j).  Zeta-rescaled, -2y^2 - 4z*y*y',
    is -2 S_0 - 2z (S_0)'; lambertw reads z*y*y' = z (S_0)' / 2; bell-egf,
    y*y'' - y*y' - (y')^2, reads S_0 and S_1; y*y'' + y' reads S_0 at
    a = 2 and S_1; z^2 * y * y^(4) reads three squares; and in
    y*y'' + (y')^2 = (S_0)'' / 2, S_1 cancels."""
    def plan(*terms):
        return QuadEquation([(s, monomial_of_orders(p, q), c)
                             for s, p, q, c in terms]).squares

    assert plan((1, 2, -1, 2), (0, 1, -1, 5), (1, 1, 0, -4),
                (0, 0, 0, -2)) == ((0, 0, 0, -4), (1, 1, 0, -4))
    assert plan((1, 1, 0, 1), (1, 1, -1, 1), (0, 0, -1, -1)) == \
        ((1, 1, 0, 1),)
    assert plan((0, 2, 0, 1), (0, 1, 0, -1), (0, 1, 1, -1)) == \
        ((0, 0, 1, -4), (0, 1, 0, -1), (0, 2, 0, 1))
    assert plan((0, 2, 0, 1), (0, 1, -1, 1)) == \
        ((0, 0, 1, -2), (0, 2, 0, 1))
    assert plan((2, 4, 0, 1)) == \
        ((2, 0, 2, 2), (2, 2, 1, -4), (2, 4, 0, 1))
    assert plan((0, 2, 0, 1), (0, 1, 1, 1)) == ((0, 2, 0, 1),)
    assert plan((0, 1, -1, 3), (2, -1, -1, 1)) == ()
    assert ZETA_EQ.linear == ((0, 1, 5), (1, 2, 2))


def test_square_plans_match_the_product_rule():
    """The closed form (the Lucas triangle) plans each product f^(p) *
    f^(q), 0 <= q <= p < 90, as the product rule's recursion does."""
    memo = {}
    for p in range(90):
        for q in range(p + 1):
            eq = QuadEquation([(0, QuadMonomial(p, q), 1)])
            assert {(a, j): w for _, a, j, w in eq.squares} == \
                square_plan(p, q, memo), (p, q)


@pytest.mark.parametrize("c", [1, -3])
def test_square_plans_hold_on_exp(c):
    """On f = e^z every (S_j)^(a) is 2^a e^(2z) and 2 f^(p) * f^(q) is
    2 e^(2z), so the plan of c * f^(q+r) * f^(q), doubled, has the sum of
    w * 2^a equal to 2c: each weight is exact, up to r = 5000."""
    for r in [*range(60), 90, 1500, 5000]:
        for q in (0, 7):
            squares = QuadEquation([(0, QuadMonomial(q + r, q), c)]).squares
            assert sum(w << a for _, a, _, w in squares) == 2 * c, (r, q)
            assert [(a, j) for _, a, j, _ in squares] == \
                sorted((r - 2 * k, q + k) for k in range(r // 2 + 1))


def test_equation_merges_and_sorts_terms():
    eq = QuadEquation([
        (0, monomial_of_orders(1, 0), 3),
        (0, monomial_of_orders(2, -1), 1),
        (0, monomial_of_orders(1, 0), -3),
    ])
    assert len(eq.terms) == 1
    assert eq.terms[0][1] == QuadMonomial(2, -1)


def test_equation_rejects_empty():
    with pytest.raises(ValueError):
        QuadEquation([(0, monomial_of_orders(0, -1), 0)])


def test_equation_rejects_negative_z_power():
    with pytest.raises(ValueError, match="^z-power must be >= 0$"):
        QuadEquation([(-1, monomial_of_orders(0, -1), 1)])


@pytest.mark.parametrize("s,coeff,message", [
    (0, 0.1, "term 1: coefficient must be an int or a Fraction, not float"),
    (0, True, "term 1: coefficient must be an int or a Fraction, not bool"),
    (0, "1/3", "term 1: coefficient must be an int or a Fraction, not str"),
    (1.0, 1, "term 1: z-power must be an int, not float"),
    (True, 1, "term 1: z-power must be an int, not bool"),
])
def test_equation_rejects_coerced_terms(s, coeff, message):
    """A float, bool or string coefficient and a float or bool z-power
    raise TypeError naming the term; nothing is coerced."""
    with pytest.raises(TypeError, match=f"^{message}$"):
        QuadEquation([(0, monomial_of_orders(1, -1), 1),
                      (s, monomial_of_orders(0, -1), coeff)])


def test_equation_takes_ints_and_fractions_and_reloads():
    """int and Fraction coefficients are kept exactly, and the JSON of a
    library-built equation reads back to the same equation."""
    eq = QuadEquation([(2, monomial_of_orders(1, 0), 3),
                       (0, monomial_of_orders(2, -1), Fraction(-1, 3)),
                       (1, monomial_of_orders(0, -1), Fraction(4))])
    assert [(s, c) for s, _, c in eq.terms] == [
        (1, 4), (2, 3), (0, Fraction(-1, 3))]
    assert all(type(c) is Fraction for _, _, c in eq.terms)
    assert eq.coeff_den == 3
    assert [c for _, _, c in eq.int_terms] == [12, 9, -1]
    assert equation_from_json(equation_to_json(eq)) == eq
    assert equation_from_json(equation_to_json(rescaled_equation(eq, 7))) == \
        rescaled_equation(eq, 7)


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
    for p, q in ((0, 1), (-1, 0), (2, -2), (-2, -2)):
        with pytest.raises(EquationFormatError, match="^term 0: orders"):
            equation_from_json(json.dumps(
                {"terms": [{"s": 0, "p": p, "q": q, "c": "1"}]}))
    with pytest.raises(EquationFormatError):
        equation_from_json('{"terms": [{"s": -1, "p": 0, "q": -1, "c": "1"}]}')
    with pytest.raises(EquationFormatError):
        equation_from_json('not json')
    with pytest.raises(EquationFormatError,
                       match='^expected an object with a "terms" list$'):
        equation_from_json("[]")
    # p = q = -1 is the constant term
    constant = equation_from_json(
        '{"terms": [{"s": 2, "p": -1, "q": -1, "c": "1"}]}')
    assert constant.terms == ((2, QuadMonomial(-1, -1), 1),)


@settings(max_examples=500, deadline=None)
@given(p=st.one_of(st.integers(), st.booleans(), st.floats(), st.none()),
       q=st.one_of(st.integers(), st.booleans(), st.floats(), st.none()))
@example(p=-1, q=-1)
@example(p=True, q=False)
@example(p=1.0, q=0)
@example(p=0, q=1)
def test_monomial_raises_iff_orders_are_not_ordered_ints(p, q):
    """QuadMonomial(p, q) is built iff p and q are ints, not bools, with
    p >= q >= -1; otherwise it raises ValueError."""
    if type(p) is int and type(q) is int and p >= q >= -1:
        mono = QuadMonomial(p, q)
        assert (mono.p, mono.q) == (p, q)
    else:
        with pytest.raises(ValueError, match="^orders must be ints"):
            QuadMonomial(p, q)


def test_equation_rejects_a_monomial_of_another_type():
    with pytest.raises(TypeError, match="^term 1: monomial must be a "
                                        "QuadMonomial, not tuple$"):
        QuadEquation([(0, QuadMonomial(1, -1), 1), (0, (0, -1), 1)])


def _reloads(eq):
    """Whether eq's JSON reads back to eq."""
    return equation_from_json(equation_to_json(eq)) == eq


# up to 5 000-digit numerators and denominators, past the int/str limit
_COEFFS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                    st.integers(1, 10 ** 6))
# (s, p, q, c) with p >= q >= -1, the constant (-1, -1) included
_ANY_TERMS = st.tuples(st.integers(0, 4), st.integers(-1, 5)).flatmap(
    lambda sp: st.tuples(st.just(sp[0]), st.just(sp[1]),
                         st.integers(-1, max(sp[1], -1)), _COEFFS))
_FACTORS = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(bool),
                     st.integers(1, 10 ** 30))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(terms=st.lists(_ANY_TERMS, min_size=1, max_size=6),
       digits=st.sampled_from([0, 20, 3000, 4400, 5000]), lam=_FACTORS)
@example(terms=[(0, -1, -1, Fraction(1)), (0, 0, -1, Fraction(-1))],
         digits=0, lam=Fraction(2))
@example(terms=[(1, -1, -1, Fraction(-1, 3)), (0, 2, 1, Fraction(7, 9))],
         digits=5000, lam=Fraction(-2, 3))
def test_library_equations_reload(default_digit_limit, terms, digits, lam):
    """Every equation the library builds reads back from its own JSON as
    an equal equation: from random terms (the constant 1 included, and
    every other coefficient's numerator or denominator times
    10**digits + 1, up to 5 001 digits), rescaled, and normalized from its
    vector."""
    big = 10 ** digits + 1
    try:
        eq = QuadEquation([(s, QuadMonomial(p, q), c / big if pos % 2
                            else c * big)
                           for pos, (s, p, q, c) in enumerate(terms)])
    except ValueError:  # every coefficient cancelled
        assume(False)
    assert _reloads(eq)
    assert _reloads(rescaled_equation(eq, lam))
    if all(mono.p >= 0 for _, mono, _ in eq.terms):
        # the vector of eq in the (k, i) columns of guess's system
        slots = [(mono.p + 1) * (mono.p + 2) // 2 + mono.q
                 for _, mono, _ in eq.terms]
        d, m = max(slots), max(s for s, _, _ in eq.terms)
        vec = [0] * ((d + 1) * (m + 1))
        for k, (s, _, c) in zip(slots, eq.terms):
            vec[k * (m + 1) + s] = c
        normalized = normalize(vec, ansatz(d, m))
        assert _reloads(normalized)
        ratio = normalized.terms[0][2] / eq.terms[0][2]
        assert normalized == QuadEquation([(s, mono, c * ratio)
                                           for s, mono, c in eq.terms])


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), count=st.integers(26, 40),
       lam=st.sampled_from([1, Fraction(2, 5), Fraction(-3, 7)]))
def test_guessed_equations_reload(name, count, lam):
    """Every equation guess emits, on oracle prefixes rescaled by lam^n,
    reads back from its own JSON as an equal equation."""
    values = oracle_sequence(name, count).values
    result = guess(SequencePrefix([v * lam ** n
                                   for n, v in enumerate(values)]))
    for eq in result.basis:
        assert _reloads(eq)


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
    assert repr(ZIGZAG_EQ) == """QuadEquation("y'' - y*y' = 0")"""
    with pytest.raises(ValueError, match="^unknown render mode 'bogus'$"):
        render_text(ZIGZAG_EQ, "bogus")


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


def _equation(*terms):
    """Equation from (s, p, q, coeff) tuples; p = q = -1 is the constant
    1."""
    return QuadEquation([(s, QuadMonomial(p, q), Fraction(c))
                         for s, p, q, c in terms])


RENDER_GOLDENS = [
    # linear terms: s < p, s = p, s > p
    (((0, 2, -1, "1"),),
     "y'' = 0",
     "(n+1)*(n+2)*a(n+2) = 0",
     r"y'' = 0",
     r"(n+1)\,(n+2)\,a(n+2) = 0"),
    (((1, 1, -1, "-1"),),
     "-z*y' = 0",
     "-n*a(n) = 0",
     r"-z\,y' = 0",
     r"-n\,a(n) = 0"),
    (((3, 1, -1, "3"),),
     "3*z^3*y' = 0",
     "3*(n-2)*a(n-2) = 0",
     r"3\,z^{3}\,y' = 0",
     r"3\,(n-2)\,a(n-2) = 0"),
    (((2, 0, -1, "-3/4"),),
     "-3/4*z^2*y = 0",
     "-3/4*a(n-2) = 0",
     r"-\tfrac{3}{4}\,z^{2}\,y = 0",
     r"-\tfrac{3}{4}\,a(n-2) = 0"),
    (((0, 2, -1, "1"), (1, 1, -1, "1"), (3, 0, -1, "1")),
     "y'' + z*y' + z^3*y = 0",
     "(n+1)*(n+2)*a(n+2) + n*a(n) + a(n-3) = 0",
     r"y'' + z\,y' + z^{3}\,y = 0",
     r"(n+1)\,(n+2)\,a(n+2) + n\,a(n) + a(n-3) = 0"),
    # products: p = q, p > q, 1 <= s <= q
    (((0, 0, 0, "1"), (1, 1, 1, "-1")),
     "-z*(y')^2 + y^2 = 0",
     ("-Sum((k+1)*(n-k)*a(k+1)*a(n-k), k=0..n-1) + Sum(a(k)*a(n-k), "
      "k=0..n) = 0"),
     r"-z\,(y')^{2} + y^{2} = 0",
     (r"-\sum_{k=0}^{n-1} (k+1)\,(n-k)\,a(k+1)\,a(n-k) + \sum_{k=0}^{n} "
      r"a(k)\,a(n-k) = 0")),
    (((0, 2, 0, "3"), (2, 3, 1, "-3/4")),
     "-3/4*z^2*y'*y''' + 3*y*y'' = 0",
     ("-3/4*Sum((k+1)*(k+2)*(k+3)*(n-k-1)*a(k+3)*a(n-k-1), k=0..n-2) + "
      "3*Sum((k+1)*(k+2)*a(k+2)*a(n-k), k=0..n) = 0"),
     r"-\tfrac{3}{4}\,z^{2}\,y'\,y''' + 3\,y\,y'' = 0",
     (r"-\tfrac{3}{4}\,\sum_{k=0}^{n-2} "
      r"(k+1)\,(k+2)\,(k+3)\,(n-k-1)\,a(k+3)\,a(n-k-1) + 3\,\sum_{k=0}^{n} "
      r"(k+1)\,(k+2)\,a(k+2)\,a(n-k) = 0")),
    (((1, 1, 0, "1"), (1, 2, 1, "1")),
     "z*y'*y'' + z*y*y' = 0",
     ("Sum((k+1)*(k+2)*(n-k)*a(k+2)*a(n-k), k=0..n-1) + "
      "Sum((k+1)*a(k+1)*a(n-k-1), k=0..n-1) = 0"),
     r"z\,y'\,y'' + z\,y\,y' = 0",
     (r"\sum_{k=0}^{n-1} (k+1)\,(k+2)\,(n-k)\,a(k+2)\,a(n-k) + "
      r"\sum_{k=0}^{n-1} (k+1)\,a(k+1)\,a(n-k-1) = 0")),
    (((2, 2, 2, "-1"), (3, 4, 3, "5/2")),
     "5/2*z^3*y'''*y^(4) - z^2*(y'')^2 = 0",
     ("5/2*Sum((k+1)*(k+2)*(k+3)*(k+4)*(n-k-2)*(n-k-1)*(n-k)*a(k+4)*"
      "a(n-k), k=0..n-3) - Sum((k+1)*(k+2)*(n-k-1)*(n-k)*a(k+2)*a(n-k), "
      "k=0..n-2) = 0"),
     r"\tfrac{5}{2}\,z^{3}\,y'''\,y^{(4)} - z^{2}\,(y'')^{2} = 0",
     (r"\tfrac{5}{2}\,\sum_{k=0}^{n-3} "
      r"(k+1)\,(k+2)\,(k+3)\,(k+4)\,(n-k-2)\,(n-k-1)\,(n-k)\,a(k+4)\,a(n-k) "
      r"- \sum_{k=0}^{n-2} (k+1)\,(k+2)\,(n-k-1)\,(n-k)\,a(k+2)\,a(n-k) = 0")),
    # orders 3-5
    (((0, 3, -1, "1"), (0, 4, -1, "1"), (0, 5, -1, "-1")),
     "-y^(5) + y^(4) + y''' = 0",
     ("-(n+1)*(n+2)*(n+3)*(n+4)*(n+5)*a(n+5) + "
      "(n+1)*(n+2)*(n+3)*(n+4)*a(n+4) + (n+1)*(n+2)*(n+3)*a(n+3) = 0"),
     r"-y^{(5)} + y^{(4)} + y''' = 0",
     (r"-(n+1)\,(n+2)\,(n+3)\,(n+4)\,(n+5)\,a(n+5) + "
      r"(n+1)\,(n+2)\,(n+3)\,(n+4)\,a(n+4) + (n+1)\,(n+2)\,(n+3)\,a(n+3) = "
      r"0")),
    (((0, 5, 4, "1"), (1, 4, 4, "2")),
     "y^(4)*y^(5) + 2*z*(y^(4))^2 = 0",
     ("Sum((k+1)*(k+2)*(k+3)*(k+4)*(k+5)*(n-k+1)*(n-k+2)*(n-k+3)*(n-k+4)*"
      "a(k+5)*a(n-k+4), k=0..n) + "
      "2*Sum((k+1)*(k+2)*(k+3)*(k+4)*(n-k)*(n-k+1)*(n-k+2)*(n-k+3)*a(k+4)*"
      "a(n-k+3), k=0..n-1) = 0"),
     r"y^{(4)}\,y^{(5)} + 2\,z\,(y^{(4)})^{2} = 0",
     (r"\sum_{k=0}^{n} "
      r"(k+1)\,(k+2)\,(k+3)\,(k+4)\,(k+5)\,(n-k+1)\,(n-k+2)\,(n-k+3)\,"
      r"(n-k+4)\,a(k+5)\,a(n-k+4) + 2\,\sum_{k=0}^{n-1} "
      r"(k+1)\,(k+2)\,(k+3)\,(k+4)\,(n-k)\,(n-k+1)\,(n-k+2)\,(n-k+3)\,"
      r"a(k+4)\,a(n-k+3) = 0")),
    # z-powers 0, 1 and >= 2
    (((0, 1, 0, "1"), (1, 1, 0, "-1"), (4, 1, 0, "3")),
     "3*z^4*y*y' - z*y*y' + y*y' = 0",
     ("3*Sum((k+1)*a(k+1)*a(n-k-4), k=0..n-4) - Sum((k+1)*a(k+1)*a(n-k-1), "
      "k=0..n-1) + Sum((k+1)*a(k+1)*a(n-k), k=0..n) = 0"),
     r"3\,z^{4}\,y\,y' - z\,y\,y' + y\,y' = 0",
     (r"3\,\sum_{k=0}^{n-4} (k+1)\,a(k+1)\,a(n-k-4) - \sum_{k=0}^{n-1} "
      r"(k+1)\,a(k+1)\,a(n-k-1) + \sum_{k=0}^{n} (k+1)\,a(k+1)\,a(n-k) = 0")),
    # coefficients 1, -1, 3 and -3/4, negative first term
    (((0, 0, 0, "-3/4"), (0, 1, -1, "3"), (1, 1, 0, "-1"), (0, 2, -1, "1")),
     "y'' - z*y*y' + 3*y' - 3/4*y^2 = 0",
     ("(n+1)*(n+2)*a(n+2) - Sum((k+1)*a(k+1)*a(n-k-1), k=0..n-1) + "
      "3*(n+1)*a(n+1) - 3/4*Sum(a(k)*a(n-k), k=0..n) = 0"),
     r"y'' - z\,y\,y' + 3\,y' - \tfrac{3}{4}\,y^{2} = 0",
     (r"(n+1)\,(n+2)\,a(n+2) - \sum_{k=0}^{n-1} (k+1)\,a(k+1)\,a(n-k-1) + "
      r"3\,(n+1)\,a(n+1) - \tfrac{3}{4}\,\sum_{k=0}^{n} a(k)\,a(n-k) = 0")),
    # the constant monomial
    (((0, -1, -1, "1"), (0, 0, -1, "-1")),
     "-y + 1 = 0",
     "-a(n) + [n=0] = 0",
     r"-y + 1 = 0",
     r"-a(n) + [n=0] = 0"),
    (((2, -1, -1, "-3/4"), (1, 2, 2, "1")),
     "z*(y'')^2 - 3/4*z^2 = 0",
     ("Sum((k+1)*(k+2)*(n-k)*(n-k+1)*a(k+2)*a(n-k+1), k=0..n-1) - "
      "3/4*[n=2] = 0"),
     r"z\,(y'')^{2} - \tfrac{3}{4}\,z^{2} = 0",
     (r"\sum_{k=0}^{n-1} (k+1)\,(k+2)\,(n-k)\,(n-k+1)\,a(k+2)\,a(n-k+1) - "
      r"\tfrac{3}{4}\,[n=2] = 0")),
]


@pytest.mark.parametrize("terms,ode,rec,ode_tex,rec_tex", RENDER_GOLDENS,
                         ids=[row[1] for row in RENDER_GOLDENS])
def test_render_goldens(terms, ode, rec, ode_tex, rec_tex):
    """Text and LaTeX, ODE and recurrence, for each term shape."""
    eq = _equation(*terms)
    assert render_text(eq, "ode") == ode
    assert render_text(eq, "recurrence") == rec
    assert render_latex(eq, "ode") == ode_tex
    assert render_latex(eq, "recurrence") == rec_tex


def _eval_recurrence(text, a, n):
    """Row n of a rendered recurrence, read back as Python: Sum(B, k=0..U)
    is sum(B for k in range(U + 1)), p/q is Fraction(p, q), [n=s] is
    n == s, and a(t) = 0 for t < 0."""
    lhs, rhs = text.split(" = ")
    assert rhs == "0"
    expr = re.sub(r"Sum\(([^,]*), k=0\.\.([^)]*)\)",
                  r"sum(\1 for k in range(\2 + 1))", lhs)
    expr = re.sub(r"(\d+)/(\d+)", r"Fraction(\1, \2)", expr)
    expr = re.sub(r"\[n=(\d+)\]", r"(n == \1)", expr)
    return eval(expr, {"Fraction": Fraction, "n": n,
                       "a": lambda t: a[t] if t >= 0 else 0})


def test_rendered_recurrence_evaluates_to_rows():
    """The recurrence text, read back as Python, gives every row that
    series arithmetic gives, on 300 random equations and prefixes."""
    rng = random.Random(8)
    checked = 0
    while checked < 300:
        terms = []
        for _ in range(rng.randint(1, 4)):
            p = rng.randint(-1, 4)
            q = rng.randint(-1, p) if p >= 0 else -1
            c = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
            terms.append((rng.randint(0, 3), p, q, c))
        try:
            eq = _equation(*terms)
        except ValueError:
            continue
        a = list(_random_prefix(rng, max(eq.max_shift, 0) + 6))
        text = render_text(eq, "recurrence")
        for n in range(len(a) - eq.max_shift):
            assert _eval_recurrence(text, a, n) == row_bruteforce(eq, a, n), \
                (text, n)
        checked += 1


RESCALE_INPUTS = [
    ZETA_EQ,
    _equation((0, -1, -1, "1"), (0, 0, -1, "-1")),              # -y + 1
    _equation((0, 1, -1, "1"), (2, -1, -1, "-3")),              # y' - 3z^2
    _equation((2, -1, -1, "-3/4"), (1, 2, 2, "1"), (0, 1, 0, "2")),
]


def test_rescaled_equation_roundtrip():
    """eq annihilates a_n iff rescaled_equation(eq, lam) annihilates
    lam^n a_n: row n picks up lam^n, on equations with constant terms too.
    So -y + 1 (f = 1) is its own rescaling, and y' - 3z^2 (f = z^3)
    rescaled passes check on lam^n a_n."""
    lam = Fraction(3, 2)
    rng = random.Random(43)
    prefix = _random_prefix(rng, 12)
    scaled = [v * lam ** n for n, v in enumerate(prefix)]
    for eq in RESCALE_INPUTS:
        eq_scaled = rescaled_equation(eq, lam)
        for n in range(len(prefix) - eq.max_shift):
            assert row_bruteforce(eq_scaled, scaled, n) == \
                lam ** n * row_bruteforce(eq, list(prefix), n), (eq, n)
        assert rescaled_equation(eq_scaled, 1 / lam) == eq
    one, cube = RESCALE_INPUTS[1:3]
    assert rescaled_equation(one, 2) == one
    cubes = [0, 0, 0, 1, 0, 0, 0, 0]
    assert check(cube, SequencePrefix(cubes)).passed
    assert check(rescaled_equation(cube, lam), SequencePrefix(
        [v * lam ** n for n, v in enumerate(cubes)])).passed


def test_equation_json_past_the_digit_limit(default_digit_limit):
    """A 5 001-digit coefficient reads from a JSON integer or string and
    writes back, at the default int/str digit limit."""
    digits = "1" + "0" * 4999 + "1"
    big = 10 ** 5000 + 1
    for c, coeff in ((digits, big), (f'"-{digits}/3"', Fraction(-big, 3))):
        eq = equation_from_json(
            '{"terms": [{"s": 0, "p": 0, "q": -1, "c": %s}]}' % c)
        assert eq.terms[0][2] == coeff
        assert equation_from_json(equation_to_json(eq)) == eq
