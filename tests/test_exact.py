import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadguess import exact
from quadguess.exact import (_MERSENNE, P, ColumnEchelon, _rational,
                             falling_weight, format_rational,
                             modular_nullspace, pack, parse_rational)
from util_exact import (bareiss_nullspace, echelon_nullspace, echelons,
                        naive_rank, normalize_vector, rank_mod_p)


def test_rational_serialization():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(4)) == "4"
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("12") == Fraction(12)
    with pytest.raises(ValueError):
        parse_rational("nope")


def test_parse_rational_forms():
    """ASCII digits with optional signs and surrounding whitespace; nothing
    int() would coerce besides: underscores, non-ASCII digits, inner
    spaces, other bases."""
    assert parse_rational(" +3/-4\n") == Fraction(-3, 4)
    assert parse_rational("\t-12 ") == Fraction(-12)
    assert parse_rational("0006/0004") == Fraction(3, 2)
    for text in ("1_000", "1/2_0", "\u0663/4", "3/\u0664", "\uff11",
                 "3 / 4", "- 3", "+-3", "1/2/3", "0x10", "1e3", "1.5", "",
                 "/4", "3/"):
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_rationals_past_the_digit_limit(default_digit_limit):
    """5 001-digit numerators and denominators parse and print at the
    default int/str digit limit."""
    big = 7 * (10 ** 5001 - 1) // 9 * 10 + 3     # 77...773
    for x in (Fraction(big), Fraction(-big), Fraction(big, 2 ** 16700 + 1),
              Fraction(-1, big)):
        text = format_rational(x)
        assert len(text) > 5001
        assert parse_rational(text) == x
    assert parse_rational("-" + "0" * 5000 + "12/" + "0" * 5000 + "8") == \
        Fraction(-3, 2)


def test_falling_weight():
    for k in range(6):
        assert falling_weight(k, 1) == k + 1
    for n in range(6):
        assert falling_weight(n, 2) == (n + 1) * (n + 2)
    assert falling_weight(5, 0) == 1
    with pytest.raises(ValueError):
        falling_weight(-1, 2)


def test_nullspace_examples():
    assert echelon_nullspace([[1, 0], [0, 1]]) == []
    assert echelon_nullspace([[1, 1], [2, 2]]) == [[1, -1]]
    assert echelon_nullspace([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == [
        [1, -2, 1]]
    assert all(type(x) is int
               for vec in echelon_nullspace([[1, 2, 3], [2, 4, 7]])
               for x in vec)


def test_nullspace_normalization():
    basis = echelon_nullspace([[Fraction(1, 3), Fraction(1, 2)]])
    assert basis == [[3, -2]] or basis == [[-3, 2]]
    (vec,) = basis
    assert vec[0] > 0


def test_normalize_vector():
    assert normalize_vector([Fraction(-2, 3), Fraction(4, 3)]) == [1, -2]


def _sentinel_verify(rows, calls, kept):
    """A verify that logs each vector in calls and, if it annihilates the
    rows, keeps a fresh object in kept and returns it."""
    def verify(vec):
        calls.append(list(vec))
        if any(sum(x * v for x, v in zip(row, vec)) for row in rows):
            return None
        kept.append(object())
        return kept[-1]
    return verify


def test_nullspace_returns_what_verify_keeps():
    """modular_nullspace returns the very objects its verify returns, in
    order of free column, with one call per lifted vector of the deciding
    rung: at P, and past P after a vector lifted at P does not vanish.
    Each lift is integers over its common denominator, positive at its
    free column."""
    for rows, calls_made in (
            ([[1, 2, 3, 4], [2, 4, 7, 9]], [[-2, 1, 0, 0], [-1, 0, -1, 1]]),
            ([[3, 0, -7]], [[0, 1, 0], [7, 0, 3]]),
            ([[P, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]])):
        calls, kept = [], []
        basis = modular_nullspace(echelons(rows, len(rows[0])),
                                  _sentinel_verify(rows, calls, kept))
        assert calls == calls_made
        assert len(basis) == len(kept) == len(rows[0]) - naive_rank(rows)
        assert all(b is k for b, k in zip(basis, kept))


def test_nullspace_lifts_are_primitive():
    """Every vector modular_nullspace hands to verify has content 1 and a
    positive last nonzero entry, its free column, so the one
    normalization after it changes at most the sign."""
    rng = random.Random(29)
    seen = 0
    for _ in range(200):
        height, width = rng.randint(1, 5), rng.randint(2, 6)
        rows = [[rng.choice((0, 1, -2, 3, P, 2**70 + 1)) * rng.randint(-3, 3)
                 for _ in range(width)] for _ in range(height)]
        calls, kept = [], []
        modular_nullspace(echelons(rows, width),
                          _sentinel_verify(rows, calls, kept))
        for vec in calls:
            assert all(type(x) is int for x in vec)
            assert gcd(*vec) == 1 and [x for x in vec if x][-1] > 0, vec
        seen += len(calls)
    assert seen > 100


def test_nullspace_randomized_vs_gaussian_oracle():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(cols)] for _ in range(rows)]
        basis = echelon_nullspace(mat, width=cols)
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
    assert echelon_nullspace(mat, width=5) == echelon_nullspace(mat, width=5)


def test_nullspace_full_rank_mod_p_is_trivial():
    # full rank mod P: answered without a kernel
    assert echelon_nullspace([[1, 2], [3, 4], [5, 6]]) == []
    assert echelon_nullspace([[Fraction(1, 7), 3, 0], [0, P + 1, 1],
                              [2, 0, P]]) == []


def _spy_kernels(monkeypatch, log):
    """Call log(p, pivots) on every kernel `exact` takes mod a prime p, each
    read off a ColumnEchelon mod p: at every rung past P, and at P unless
    the echelon there has full rank, which answers [] with no kernel."""
    kernel = ColumnEchelon.kernel

    def logged(echelon):
        pivots, basis = kernel(echelon)
        if basis or echelon.p != P:
            log(echelon.p, pivots)
        return pivots, basis

    monkeypatch.setattr(ColumnEchelon, "kernel", logged)


def _logged_kernels(monkeypatch):
    """Record the prime of every kernel `exact` takes mod a prime."""
    primes = []
    _spy_kernels(monkeypatch, lambda p, pivots: primes.append(p))
    return primes


def test_nullspace_rank_lost_mod_p(monkeypatch):
    """Rank over Q is full, but the rows are dependent mod P: the lift from
    P fails its check, and the next Mersenne prime, 2**89 - 1, sees the
    rank over Q."""
    kernels = _logged_kernels(monkeypatch)
    for mat, expected in (([[P, 0], [0, 1]], []),
                          ([[1, 1, 0], [0, P, 1], [0, 0, P]], []),
                          ([[1, 1], [1, 1 + P]], []),
                          ([[P, 0, 0], [0, 1, 0]], [[0, 0, 1]])):
        kernels.clear()
        assert echelon_nullspace(mat) == expected
        assert kernels == [P, 2**89 - 1], mat


def test_nullspace_fallback_when_chosen_rows_lose_rank():
    # row 2 is 0 mod P, so the kernel mod P, [1, -1, 0], is that of rows 0
    # and 1: it is lifted, fails on row 2, and all rows decide past P
    mat = [[1, 1, 0], [0, 0, 1], [P, 0, 0]]
    assert echelon_nullspace(mat) == []
    mat = [[1, 1, 0, 0], [0, 0, 1, 0], [P, 0, 0, 0], [0, 0, 0, 0]]
    assert echelon_nullspace(mat) == [[0, 0, 0, 1]]
    # a rational row whose cleared form is 0 mod P
    mat = [[1, 1, 0, 0], [Fraction(P, 3), 0, 0, 0]]
    assert echelon_nullspace(mat) == [[0, 0, 1, 0], [0, 0, 0, 1]]


def test_nullspace_verified_sub_kernel():
    # a tall matrix whose extra rows are combinations of the first two
    mat = [[1, 2, 3, 4], [0, 1, 1, 2], [1, 3, 4, 6], [2, 5, 7, 10],
           [Fraction(1, 2), 1, Fraction(3, 2), 2]]
    assert echelon_nullspace(mat) == [[1, 1, -1, 0], [0, 2, 0, -1]]


def test_nullspace_equals_bareiss_on_all_rows_randomized():
    rng = random.Random(61)
    for trial in range(300):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 6)
        mat = []
        for _ in range(rows):
            if mat and rng.random() < 0.3:
                # a combination of earlier rows: a nontrivial kernel is common
                a, b = rng.choice(mat), rng.choice(mat)
                c, e = rng.randint(-3, 3), rng.randint(-3, 3)
                mat.append([c * x + e * y for x, y in zip(a, b)])
                continue
            mat.append([rng.choice((0, 1, -2, P, -P, 2 * P, P + 1, 3 * P - 5))
                        * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(cols)])
        expected = bareiss_nullspace(mat, cols)
        assert echelon_nullspace(mat, width=cols) == expected, (trial, mat)


def _assert_kernel_mod(echelon, rows, width, p):
    """The echelon's kernel is that of the integer rows mod the prime p:
    its pivots are the columns that raise the rank mod p, and each free
    column's vector has 1 there, 0 at the other free columns, entries in
    [0, p), and annihilates every row mod p.  These properties fix the
    kernel."""
    pivots, basis = echelon.kernel()
    assert pivots == [c for c in range(width)
                      if rank_mod_p([row[:c + 1] for row in rows], p)
                      > rank_mod_p([row[:c] for row in rows], p)]
    free = [c for c in range(width) if c not in pivots]
    assert len(basis) == len(free)
    for col, vec in zip(free, basis):
        assert len(vec) == width
        assert [vec[c] for c in free] == [int(c == col) for c in free]
        assert all(0 <= x < p for x in vec)
        assert all(sum(x * v for x, v in zip(row, vec)) % p == 0
                   for row in rows)


@st.composite
def _echelon_scripts(draw):
    """(p, height, steps): a Mersenne modulus p of the first five and a
    matrix of 1 to 40 rows built in 1 to 9 steps, each (cut, column,
    largest): a cut to at most the current height about a third of the
    time (None otherwise), then the column added, with entries 0, +-1,
    +-2, +-p, 2p and p +- 1 or, about a third of the time, a combination
    of two earlier columns (rank deficiency is common).  `largest` packs
    each entry's largest representative below 2**bits, not the entry mod
    p**2."""
    p = 2**draw(st.sampled_from(_MERSENNE[:5])) - 1
    entries = (0, 1, -1, 2, -2, p, -p, 2 * p, p + 1, p - 1)
    height = start = draw(st.integers(1, 40))
    columns, steps = [], []
    for _ in range(draw(st.integers(1, 9))):
        cut = None
        if columns and draw(st.integers(0, 9)) < 3:
            cut = height = draw(st.integers(0, height))
            columns = [col[:height] for col in columns]
        if columns and draw(st.integers(0, 9)) < 3:
            a, b = (draw(st.sampled_from(columns)) for _ in "ab")
            c, e = (draw(st.integers(-3, 3)) for _ in "ce")
            column = [c * x + e * y for x, y in zip(a, b)]
        else:
            column = draw(st.lists(st.sampled_from(entries),
                                   min_size=height, max_size=height))
        columns.append(column)
        steps.append((cut, column, draw(st.booleans())))
    return p, start, steps


@given(_echelon_scripts())
@example((P, 3, [(None, [0, 1, 0], False), (None, [1, 2, 0], True),
                 (1, [P - 1], False)]))         # the cut lands on pivot 1
@example((P, 2, [(None, [P, 1], True), (None, [-P, -1], False),
                 (1, [2 * P], True), (0, [], False)]))
# the cut drops basis column 0, which reduced dependent column 1
@example((P, 3, [(None, [0, 1, 0], False), (None, [0, 2, 0], True),
                 (None, [1, 0, 1], False), (1, [2], True)]))
# past P: a dependent column after two basis columns replays both
@example((2**89 - 1, 2, [(None, [1, 1], True), (None, [0, 1], False),
                         (None, [2, 3], True)]))
@settings(max_examples=300, deadline=None)
def test_column_echelon_matches_rank_from_scratch(script):
    """Columns added one at a time to a ColumnEchelon mod p, with row cuts
    between some additions, packed from representatives as large as a
    slot holds, with full slots past the current height: after every step
    the echelon's rank and full-rank verdict are those of the current
    matrix, ranked mod p from scratch, and its kernel is that of the
    current rows mod p (`_assert_kernel_mod`), also after a cut drops a
    basis column that reduced later columns."""
    p, height, steps = script
    echelon = ColumnEchelon(height, p)
    top = (1 << echelon.bits) - 1
    columns = []

    def check():
        rows = [list(row) for row in zip(*columns)]
        rank = rank_mod_p(rows, p)
        assert echelon.rank == rank, columns
        assert (echelon.rank == echelon.width) == (rank == len(columns))
        _assert_kernel_mod(echelon, rows, len(columns), p)

    for cut, column, largest in steps:
        if cut is not None:
            echelon.cut(cut)
            columns = [col[:cut] for col in columns]
            check()
        slots = [top - (top - x) % p if largest else x % (p * p)
                 for x in column]
        past = [top] * (height + 1 - len(column))   # ignored: cut or beyond
        echelon.add(pack(slots + past, echelon.bits))
        columns.append(column)
        check()


def test_nullspace_invariant_under_positive_row_scaling(monkeypatch):
    """Multiplying each row by a positive factor (multiples of P and a large
    square common to all rows among them) leaves the basis unchanged.  The
    scaled systems take all three paths: full rank mod P (no kernel mod a
    prime), a verified lift of the echelon's kernel mod P (one), and the
    fallback to further primes (two or more)."""
    kernels = _logged_kernels(monkeypatch)
    rng = random.Random(71)
    square = (3**200 * 10**150 + 1) ** 2
    paths = Counter()
    for trial in range(300):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 6)
        mat = []
        for _ in range(rows):
            if mat and rng.random() < 0.3:
                a, b = rng.choice(mat), rng.choice(mat)
                c, e = rng.randint(-3, 3), rng.randint(-3, 3)
                mat.append([c * x + e * y for x, y in zip(a, b)])
            else:
                mat.append([rng.randint(-4, 4) for _ in range(cols)])
        expected = echelon_nullspace(mat, width=cols)
        common = square if rng.random() < 0.5 else 1
        factors = [common * rng.choice((1, 2, 6, P, 3 * P, P * P,
                                        rng.randint(1, 10**40)))
                   for _ in mat]
        scaled = [[f * x for x in row] for f, row in zip(factors, mat)]
        kernels.clear()
        basis = echelon_nullspace(scaled, width=cols)
        assert basis == expected, (trial, factors)
        paths[min(len(kernels), 2)] += 1
    assert paths[0] and paths[1] and paths[2], paths


# Rational reconstruction modulo P recovers n/d with |n|, d <= _BOUND.
_BOUND = isqrt(P // 2)


@given(st.integers(-_BOUND, _BOUND), st.integers(1, _BOUND))
@example(_BOUND, _BOUND)
@example(-_BOUND, _BOUND)
@example(0, 1)
@settings(max_examples=300, deadline=None)
def test_rational_reconstruction_round_trip(n, d):
    g = gcd(n, d)
    n, d = n // g, d // g
    assert _rational(n * pow(d, -1, P) % P, P, _BOUND) == (n, d)


@given(st.sampled_from(("n", "-n", "d")), st.integers(1, _BOUND + 1))
@example("n", 1)
@example("-n", 1)
@example("d", 1)
@example("d", _BOUND)
@settings(max_examples=300, deadline=None)
def test_rational_reconstruction_past_bound(past, other):
    """Just past the bound, n/d itself is never returned; anything that is
    returned is in bounds, in lowest terms and congruent to n/d."""
    n, d = {"n": (_BOUND + 1, other), "-n": (-_BOUND - 1, other),
            "d": (other, _BOUND + 1)}[past]
    assume(gcd(n, d) == 1)
    x = n * pow(d, -1, P) % P
    frac = _rational(x, P, _BOUND)
    assert frac != (n, d)
    if frac is not None:
        num, den = frac
        assert abs(num) <= _BOUND and 0 < den <= _BOUND
        assert gcd(num, den) == 1 and (num - den * x) % P == 0


def test_nullspace_lift_needs_crt(monkeypatch):
    """Entries above 2**30 cannot be lifted from P alone: the kernels run
    over ascending Mersenne moduli from P, and the lift that checks is
    modulo the CRT product of at least two of them.  Entries of about
    2**300 need the ladder up to 2**521 - 1; entries that are multiples of
    (2**61 - 1) * (2**89 - 1) lose rank at the first two moduli."""
    kernels, lifts = [], []  # (modulus, rank) per kernel; lift moduli
    lift = exact._lift

    def logged_lift(vec, m):
        lifts.append(m)
        return lift(vec, m)

    _spy_kernels(monkeypatch,
                 lambda p, pivots: kernels.append((p, len(pivots))))
    monkeypatch.setattr(exact, "_lift", logged_lift)
    both = P * (2**89 - 1)
    runs = []
    for mat in ([[2**40 + 1, 3**26]],
                [[P, 1, 0]],
                [[3**40, 0, -(2**45 + 7)], [0, 5**20, 11**17]],
                [[Fraction(2**35, 3**23), 1, 7**13]],
                [[3**190, -(5**129), 7**107]],
                [[both * 3**40, 0, -both * (2**45 + 7)],
                 [0, both * 5**20, both * 11**17]]):
        kernels.clear()
        lifts.clear()
        width = len(mat[0])
        assert echelon_nullspace(mat) == bareiss_nullspace(mat, width), mat
        moduli = [p for p, _ in kernels]
        assert moduli == [2**e - 1 for e in _MERSENNE[:len(moduli)]], mat
        assert any(lifts[-1] == prod(moduli[i:])
                   for i in range(len(moduli) - 1)), mat
        runs.append((list(kernels), lifts[-1]))
    # P's kernel counts: the first input lifts modulo P * (2**89 - 1)
    assert runs[0] == ([(P, 1), (2**89 - 1, 1)], P * (2**89 - 1))
    # entries near 2**300 reach 2**521 - 1
    assert runs[-2][0][-1] == (2**521 - 1, 1)
    # rank 0 mod P and mod 2**89 - 1, then the rank over Q
    assert [rank for _, rank in runs[-1][0][:3]] == [0, 0, 2]


def test_nullspace_skips_a_rung_with_a_worse_profile(monkeypatch):
    """A modulus whose pivots are worse than the best so far is skipped:
    [3 (2**89 - 1), 2**95 + 1] has its pivot in column 0 mod P but in
    column 1 mod 2**89 - 1, so that rung neither joins the CRT product
    nor lifts, and the kernel lifts modulo P (2**107 - 1) (2**127 - 1)."""
    rows = [[3 * (2**89 - 1), 2**95 + 1]]
    kernels, lifts = [], []
    lift = exact._lift

    def logged_lift(vec, m):
        lifts.append(m)
        return lift(vec, m)

    _spy_kernels(monkeypatch, lambda p, pivots: kernels.append((p, pivots)))
    monkeypatch.setattr(exact, "_lift", logged_lift)

    def verify(vec):
        return vec if sum(x * v for x, v in zip(rows[0], vec)) == 0 else None

    assert modular_nullspace(echelons(rows, 2), verify) == \
        [[-(2**95 + 1) // 3, 2**89 - 1]]
    assert kernels == [(P, [0]), (2**89 - 1, [1]),
                       (2**107 - 1, [0]), (2**127 - 1, [0])]
    assert lifts == [P, P * (2**107 - 1), P * (2**107 - 1) * (2**127 - 1)]


@st.composite
def _kernel_cases(draw):
    """(rows, width, p): a Mersenne modulus p of the first five, and rows
    of any representatives (0, 1, p - 1, p, p + 1, 2p, or up to
    height * p**2, the bound of a slot row), a third of them
    combinations of earlier rows."""
    p = 2**draw(st.sampled_from(_MERSENNE[:5])) - 1
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from((0, 1, p - 1, p, p + 1, 2 * p)),
                      st.integers(0, height * p * p))
    rows = []
    for _ in range(height):
        if rows and draw(st.integers(0, 2)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(entry), draw(entry)
            rows.append([f * x + g * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=width,
                                      max_size=width)))
    return rows, width, p


@given(_kernel_cases())
@settings(max_examples=200, deadline=None)
def test_kernel_mod_matches_rank_mod_p(case):
    """A ColumnEchelon mod a Mersenne prime p, filled column by column with
    rows of any representatives packed mod p, has the kernel of the rows
    mod p (`_assert_kernel_mod`)."""
    rows, width, p = case
    echelon = ColumnEchelon(len(rows), p)
    for c in range(width):
        echelon.add(pack([row[c] % p for row in rows], echelon.bits))
    _assert_kernel_mod(echelon, rows, width, p)


def _lucas_lehmer(e):
    """Whether 2**e - 1 is prime, for an odd prime e (Lucas-Lehmer)."""
    m, s = 2**e - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_mersenne_table():
    """The moduli of the fallback are Mersenne primes from P on, in
    ascending order; their exponents are prime, and Lucas-Lehmer confirms
    every listed 2**e - 1 with e <= 4423."""
    assert _MERSENNE[0] == 61 and 2**61 - 1 == P
    assert list(_MERSENNE) == sorted(set(_MERSENNE))
    assert all(all(e % f for f in range(2, isqrt(e) + 1)) for e in _MERSENNE)
    small = [e for e in _MERSENNE if e <= 4423]
    assert len(small) == 12
    assert all(_lucas_lehmer(e) for e in small)
    # negative controls: prime exponents whose 2**e - 1 is composite
    assert not any(_lucas_lehmer(e) for e in (11, 23, 29, 67, 101))
