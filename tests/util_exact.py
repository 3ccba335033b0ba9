"""Independent reference implementations used only by the tests.

Deliberately naive: truncated power-series arithmetic by direct
differentiation/convolution, the schoolbook row of one monomial, the
recursive plan of a product as derivatives of squares, plain Gaussian
elimination over Fraction,
fraction-free Bareiss elimination over the integers, and a dense linear
solver.  These stay separate from the code paths they check.
`rescaled_prefix` and `rescaled_equation` rescale prefixes and
equations, for the tests of guess's rescaling symmetry and for inputs
whose kernel lifts only past P.
`echelon_nullspace` is not a reference but a driver: it feeds a matrix to
`exact.modular_nullspace` through the views `guess` gives it, a column
echelon mod each Mersenne prime asked for and an exact check, which keeps
each vector that passes as `normalize_vector` scales it.
"""

from fractions import Fraction
from math import comb, gcd, lcm

from quadguess.equations import QuadEquation
from quadguess.errors import (InconsistentInitialTermsError,
                              InsufficientTermsError,
                              LeadingCoefficientZeroError, NonlinearStepError)
from quadguess.exact import ColumnEchelon, modular_nullspace, pack
from quadguess.prefix import SequencePrefix


def bernoulli_numbers(count):
    """B_0 .. B_{count-1} (B_1 = -1/2) via sum_k C(n+1, k) B_k = 0."""
    bern = []
    for n in range(count):
        if n == 0:
            bern.append(Fraction(1))
            continue
        acc = sum((comb(n + 1, k) * bern[k] for k in range(n)), Fraction(0))
        bern.append(-acc / (n + 1))
    return bern


def series_derivative(coeffs, times=1):
    out = [Fraction(c) for c in coeffs]
    for _ in range(times):
        out = [out[i] * i for i in range(1, len(out))]
    return out


def series_product_coeff(u, v, n):
    """z^n coefficient of u*v; entries beyond either list are unknown, so
    callers must guarantee coverage of every index that matters."""
    total = Fraction(0)
    for i in range(n + 1):
        if i < len(u) and n - i < len(v):
            total += Fraction(u[i]) * Fraction(v[n - i])
    return total


def term_coeff_bruteforce(a, s, p, q, n):
    """z^n coefficient of z^s * f^(p) * f^(q) where f has coefficients a.

    Only valid when the prefix determines the coefficient, i.e.
    n - s + max(p, q, 0) < len(a).
    """
    if n < s:
        return Fraction(0)
    m = n - s
    u = [Fraction(1)] if p == -1 else series_derivative(a, p)
    v = [Fraction(1)] if q == -1 else series_derivative(a, q)
    if p >= 0:
        assert len(u) > m, "prefix too short for this coefficient"
    if q >= 0:
        assert len(v) > m, "prefix too short for this coefficient"
    return series_product_coeff(u, v, m)


def monomial_row(derivs, m, p, q):
    """The z^m coefficient of f^(p) * f^(q) times den**2 on the sequence
    derivs.nums / derivs.den, an int: the schoolbook convolution of
    derivs[p] and derivs[q] (f^(-1) = 1 is den, 0, 0, ...), and 0 for
    m < 0.  Requires entry m of both to exist."""
    if m < 0:
        return 0
    g, f = derivs[p], derivs[q]
    return sum(g[i] * f[m - i] for i in range(m + 1))


def square_plan(p, q, memo):
    """2 * f^(p) * f^(q) for p >= q >= 0 as {(a, j): w}, the ints w times
    the a-th derivative of S_j = (f^(j))**2, by the product rule alone:
    2 S_q for p = q, S_q' for p = q + 1, and (f^(p-1) * f^(q))' -
    f^(p-1) * f^(q+1) above.  Each level branches twice, so the plans made
    so far are kept in the dict memo, keyed by (p, q)."""
    if (p, q) not in memo:
        if p - q < 2:
            plan = {(0, q): 2} if p == q else {(1, q): 1}
        else:
            plan = {(a + 1, j): w
                    for (a, j), w in square_plan(p - 1, q, memo).items()}
            for key, w in square_plan(p - 1, q + 1, memo).items():
                plan[key] = plan.get(key, 0) - w
        memo[p, q] = {key: w for key, w in plan.items() if w}
    return memo[p, q]


def row_bruteforce(eq, a, n):
    """Recurrence row n of eq on the terms a, by direct series arithmetic."""
    return sum((coeff * term_coeff_bruteforce(a, s, mono.p, mono.q, n)
                for s, mono, coeff in eq.terms), Fraction(0))


def check_bruteforce(eq, a):
    """Reference for sequences.check as (passed, rows_checked,
    first_failure, residual): rows 0 .. len(a) - 1 - max_shift by direct
    series arithmetic, stopping at the first that does not vanish."""
    last = len(a) - 1 - eq.max_shift
    for n in range(last + 1):
        residual = row_bruteforce(eq, a, n)
        if residual != 0:
            return False, n + 1, n, residual
    return True, max(0, last + 1), None, None


def extend_bruteforce(eq, initial, count):
    """Reference for sequences.extend, raising the same errors.

    Each step row is evaluated with the new term set to 0, 1 and 2; finite
    differences give its constant part, slope and squared coefficient."""
    a = [Fraction(v) for v in initial]
    shift = eq.max_shift
    if len(a) < shift:
        raise InsufficientTermsError("too few initial terms")
    for n in range(len(a) - shift):
        residual = row_bruteforce(eq, a, n)
        if residual != 0:
            raise InconsistentInitialTermsError(n, residual)
    for _ in range(count):
        n = len(a) - shift
        r0, r1, r2 = (row_bruteforce(eq, a + [Fraction(x)], n)
                      for x in (0, 1, 2))
        square = (r2 - 2 * r1 + r0) / 2
        if square != 0:
            raise NonlinearStepError(n)
        slope = r1 - r0
        if slope == 0:
            raise LeadingCoefficientZeroError(n)
        a.append(-r0 / slope)
    return a


def gauss_eliminate(matrix):
    """Row echelon over Fraction; returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    r = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def naive_rank(matrix):
    if not matrix:
        return 0
    return len(gauss_eliminate(matrix)[1])


def rank_mod_p(matrix, p):
    """Rank of an integer matrix modulo the prime p, by Gauss-Jordan
    elimination of its rows from scratch."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_nullspace(matrix, width):
    """Reduced-row-echelon nullspace basis (unnormalized Fractions)."""
    if not matrix:
        matrix = [[Fraction(0)] * width]
    rows, pivots = gauss_eliminate(matrix)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def normalize_vector(vec):
    """Scale a vector of ints and Fractions to ints with content 1 and a
    positive first nonzero entry."""
    den = lcm(*(Fraction(v).denominator for v in vec))
    ints = [int(Fraction(v) * den) for v in vec]
    content = gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        content = -content
    return [v // content for v in ints] if content else ints


def echelons(rows, width):
    """echelon_at for `exact.modular_nullspace`: the integer rows, packed
    into a fresh ColumnEchelon mod each prime asked for."""
    def echelon_at(p):
        echelon = ColumnEchelon(len(rows), p)
        for c in range(width):
            echelon.add(pack([row[c] % p for row in rows], echelon.bits))
        return echelon
    return echelon_at


def echelon_nullspace(matrix, width=None):
    """`exact.modular_nullspace` of a matrix of ints and Fractions: rows
    with their denominators cleared row by row, a column echelon of them
    mod each Mersenne prime it asks for, and an exact check of every row
    that keeps a vector as `normalize_vector` scales it, the form
    `bareiss_nullspace` gives."""
    rows = []
    for row in matrix:
        den = lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(Fraction(x) * den) for x in row])
    if width is None:
        width = len(rows[0])
    assert all(len(row) == width for row in rows), "matrix is not rectangular"

    def verify(vec):
        if all(sum(x * v for x, v in zip(row, vec)) == 0 for row in rows):
            return normalize_vector(vec)
        return None

    return modular_nullspace(echelons(rows, width), verify)


def bareiss_nullspace(matrix, width):
    """Nullspace basis of a matrix of ints and Fractions, as
    `exact.modular_nullspace` returns it, by fraction-free Bareiss
    elimination of every nonzero row (denominators cleared and content
    divided out row by row, which keeps the minors small) with
    leftmost-pivot, first-nonzero-row pivoting, then Fraction
    back-substitution for each free column; each vector scaled to ints with
    content 1 and a positive first nonzero entry."""
    rows = []
    for row in matrix:
        den = lcm(*(Fraction(x).denominator for x in row))
        if any(row):
            ints = [int(Fraction(x) * den) for x in row]
            content = gcd(*ints)
            rows.append([x // content for x in ints])
    pivot_cols = []
    prev = 1
    for col in range(width):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(pv * x - f * y) // prev
                       for x, y in zip(rows[i], rows[r])]
        prev = pv
        pivot_cols.append(col)
    basis = []
    for free in [c for c in range(width) if c not in pivot_cols]:
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for level in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[level]
            row = rows[level]
            s = sum((row[c] * vec[c] for c in range(pc + 1, width)),
                    Fraction(0))
            vec[pc] = -s / row[pc]
        den = lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        content = gcd(*ints)
        sign = -1 if next(v for v in ints if v) < 0 else 1
        basis.append([sign * v // content for v in ints])
    return basis


def in_span(vectors, target):
    """Exact membership of target in span(vectors)."""
    if all(t == 0 for t in target):
        return True
    if not vectors:
        return False
    width = len(target)
    augmented = [[Fraction(v[c]) for v in vectors] + [Fraction(target[c])]
                 for c in range(width)]
    rows, pivots = gauss_eliminate(augmented)
    return len(vectors) not in pivots  # last column must not be a pivot


def equation_vector(eq, d, m):
    """Coefficient vector of an equation in (k, i) column order."""
    vec = [Fraction(0)] * ((m + 1) * (d + 1))
    for s, mono, coeff in eq.terms:
        k = (mono.p + 1) * (mono.p + 2) // 2 + mono.q   # slot(k) is mono
        assert 0 <= k <= d and 0 <= s <= m
        vec[k * (m + 1) + s] = coeff
    return vec


def rescaled_prefix(values, lam):
    """The prefix a_n / lam^n of the terms a_n, for a nonzero rational
    lam: the coefficients of f(z / lam)."""
    return SequencePrefix([Fraction(v) / Fraction(lam) ** n
                           for n, v in enumerate(values)])


def rescaled_equation(eq, lam):
    """The equation b_n = a_n * lam^n satisfies whenever eq holds for a_n,
    for a nonzero rational lam: each coefficient picks up
    lam^(s - max(p, 0) - max(q, 0)), as f^(-1) = 1 does not scale."""
    return QuadEquation([
        (s, mono, c * Fraction(lam) ** (s - max(mono.p, 0) - max(mono.q, 0)))
        for s, mono, c in eq.terms])
