"""Exact rational scalars, small dense polynomials and homogeneous
nullspaces.

All arithmetic is over Q via fractions.Fraction (always reduced, positive
denominator).  The nullspace routine uses fraction-free Bareiss elimination
on integer-cleared rows, with deterministic pivoting, so results are
reproducible byte for byte.
"""

from fractions import Fraction
from math import gcd, lcm, prod


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction.  Raises ValueError on junk."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(x):
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_arith(a, b, op):
    """Field operation on exact rationals; op is one of '+', '-', '*', '/'."""
    a, b = Fraction(a), Fraction(b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ZeroDivisionError("rational division by zero")
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def falling_weight(j, p):
    """(j+p)!/j! as an exact integer: the z^j coefficient weight of the
    p-th derivative (a_{j+p} enters with this factor)."""
    if j < 0 or p < 0:
        raise ValueError("falling_weight needs j >= 0 and p >= 0")
    return prod(range(j + 1, j + p + 1))


class Polynomial:
    """Dense univariate polynomial over Q, lowest degree first.

    The variable tag ('z' or 'n') is bookkeeping only; arithmetic never
    mixes tags implicitly.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs, var="z"):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.var = var
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.var == other.var and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)}, var={self.var!r})"

    def eval(self, x):
        """Exact Horner evaluation."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def poly_eval(p, x):
    return p.eval(x)


def _integer_rows(matrix):
    """Clear denominators row by row; returns integer rows."""
    out = []
    for row in matrix:
        row = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def normalize_vector(vec):
    """Scale a rational vector to integers with content 1 and a positive
    first nonzero entry."""
    vec = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * den) for x in vec]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    if content > 1:
        ints = [v // content for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return [Fraction(v) for v in ints]


def nullspace(matrix, width=None):
    """Basis of the exact nullspace {v : M v = 0}.

    Fraction-free Bareiss elimination with leftmost-pivot, first-nonzero-row
    pivoting.  Each basis vector has integer entries, content 1, and a
    positive first nonzero entry; vectors are ordered by free column.
    Returns [] iff the nullspace is trivial.
    """
    rows = _integer_rows(matrix)
    if width is None:
        if not rows:
            raise ValueError("width required for an empty matrix")
        width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix is not rectangular")

    rows = [row for row in rows if any(row)]
    pivot_cols = []
    prev = 1
    r = 0
    for col in range(width):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            for j in range(width):
                rows[i][j] = (pv * rows[i][j] - f * rows[r][j]) // prev
        prev = pv
        pivot_cols.append(col)
        r += 1
        if r == len(rows):
            break

    free_cols = [c for c in range(width) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for level in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[level]
            row = rows[level]
            s = sum((Fraction(row[c]) * vec[c]
                     for c in range(pc + 1, width)), Fraction(0))
            vec[pc] = -s / row[pc]
        basis.append(normalize_vector(vec))
    return basis
