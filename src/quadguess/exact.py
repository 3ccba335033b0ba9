"""Exact rational scalars and homogeneous nullspaces.

All arithmetic is over Q via fractions.Fraction (always reduced, positive
denominator) and int.  `falling_weight` is the one derivative weight.

`modular_nullspace` holds the whole elimination policy.  It first ranks
the matrix modulo the prime P = 2**61 - 1 with a `ColumnEchelon`, built
from residues a caller may evaluate without the exact rows (reduction mod
P is a ring homomorphism): full rank mod P proves a trivial nullspace over
Q.  The echelon grows by columns and shrinks by rows without
re-eliminating, so `guess` keeps one per search and adds only the new
columns of each ansatz size.  Otherwise fraction-free Bareiss elimination
with deterministic pivoting runs on the exact rows at the echelon's
pivots, every proposed basis vector is verified exactly against every
row, and Bareiss runs on all rows when that fails, so results are exact
and reproducible byte for byte.  Bareiss gets each row divided by its
content, which keeps its entries small and changes neither the pivots nor
the normalized basis.  `nullspace` takes rows of ints and Fractions,
clears denominators row by row, builds the echelon from the columns of
the integer rows and hands both to it.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

# A Mersenne prime: residues fit in one 61-bit word.
P = 2**61 - 1


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


def falling_weight(j, p):
    """(j+p)!/j! as an exact integer: the z^j coefficient weight of the
    p-th derivative (a_{j+p} enters with this factor)."""
    if j < 0 or p < 0:
        raise ValueError("falling_weight needs j >= 0 and p >= 0")
    return prod(range(j + 1, j + p + 1))


def _integer_rows(matrix):
    """Clear denominators row by row; returns integer rows.  Raises
    TypeError on an entry that is not an int or a Fraction (bools, floats
    and strings are never coerced)."""
    out = []
    for row in matrix:
        for x in row:
            if type(x) is not int and not isinstance(x, Fraction):
                raise TypeError(f"matrix entries must be int or Fraction, "
                                f"not {x!r}")
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _primitive(row):
    """A nonzero integer row divided by its content."""
    content = gcd(*row)
    return [x // content for x in row]


def normalize_vector(vec):
    """Scale a rational vector to integers with content 1 and a positive
    first nonzero entry."""
    vec = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * den) for x in vec]
    content = gcd(*ints)
    if content > 1:
        ints = [v // content for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return [Fraction(v) for v in ints]


class ColumnEchelon:
    """A column echelon mod P of an integer matrix that grows by columns
    and shrinks by rows.

    `basis` lists (pivot row, column[pivot:] mod P) for the added columns
    that are independent of the columns before them, each reduced against
    the earlier ones: zero above its pivot, 1 at it, and 0 at every earlier
    pivot.  `rank` is the rank mod P of the current matrix, so the matrix
    has full column rank mod P iff rank == width; its rows at the pivots,
    restricted to those columns, form a submatrix nonsingular mod P.
    """

    def __init__(self, height):
        self.height = height
        self.width = 0
        self.basis = []

    @property
    def rank(self):
        return len(self.basis)

    def pivot_rows(self):
        return sorted(pivot for pivot, _ in self.basis)

    def add(self, column):
        """Append a column of `height` integers (any representatives mod P)."""
        col = [x % P for x in column]
        for pivot, tail in self.basis:
            f = col[pivot]
            if f:
                col[pivot:] = [(x - f * y) % P
                               for x, y in zip(col[pivot:], tail)]
        pivot = next((n for n, x in enumerate(col) if x), None)
        if pivot is not None:
            inv = pow(col[pivot], -1, P)
            self.basis.append((pivot, [x * inv % P for x in col[pivot:]]))
        self.width += 1

    def cut(self, height):
        """Keep the first `height` rows (at most the current height).  A
        basis column whose pivot is cut is zero on the kept rows and is
        dropped; the others stay reduced, so nothing is re-eliminated."""
        self.basis = [(pivot, tail[:height - pivot])
                      for pivot, tail in self.basis if pivot < height]
        self.height = height


def _bareiss(rows, width):
    """Nullspace basis of nonzero integer rows (eliminated in place):
    fraction-free Bareiss elimination with leftmost-pivot, first-nonzero-row
    pivoting, then back-substitution for each free column."""
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


def modular_nullspace(echelon, exact_row, vanishes):
    """Nullspace basis of an integer matrix, read as `nullspace` returns it,
    from three views of it: `echelon`, a ColumnEchelon of a matrix congruent
    to it mod P (e.g. evaluated on inputs reduced mod P); `exact_row(i)`,
    row i itself; and `vanishes(vec)`, whether vec annihilates every row.

    Full column rank mod P means full rank over Q (a minor that is nonzero
    mod P is a nonzero integer), so the answer is [] and no exact row is
    read.  Otherwise Bareiss runs on the exact rows at the echelon's pivots,
    which hold such a minor of the rank mod P; when each vector of their
    kernel vanishes on every row, that kernel is the kernel of the matrix
    and so is the same basis, byte for byte.  When one does not (rank lost
    mod P; when no row survives mod P, every unit vector is proposed),
    Bareiss runs on all nonzero exact rows.
    """
    width = echelon.width
    if echelon.rank == width:
        return []
    basis = _bareiss([_primitive(exact_row(i))
                      for i in echelon.pivot_rows()], width)
    if all(map(vanishes, basis)):
        return basis
    rows = (exact_row(i) for i in range(echelon.height))
    return _bareiss([_primitive(row) for row in rows if any(row)], width)


def nullspace(matrix, width=None):
    """Basis of the exact nullspace {v : M v = 0}.

    Fraction-free Bareiss elimination with leftmost-pivot, first-nonzero-row
    pivoting.  Each basis vector has integer entries, content 1, and a
    positive first nonzero entry; vectors are ordered by free column.
    Returns [] iff the nullspace is trivial.  Entries must be ints or
    Fractions; anything else raises TypeError.  The rows, with their
    denominators cleared, and their column echelon mod P go through
    `modular_nullspace`.
    """
    rows = _integer_rows(matrix)
    if width is None:
        if not rows:
            raise ValueError("width required for an empty matrix")
        width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("matrix is not rectangular")

    def vanishes(vec):
        return all(sum(map(mul, row, (v.numerator for v in vec))) == 0
                   for row in rows)

    echelon = ColumnEchelon(len(rows))
    for c in range(width):
        echelon.add([row[c] for row in rows])
    return modular_nullspace(echelon, rows.__getitem__, vanishes)
