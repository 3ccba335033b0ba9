"""Exact rational scalars and homogeneous nullspaces.

All arithmetic is over Q via fractions.Fraction (always reduced, positive
denominator) and int.  `falling_weight` is the one weight function.

`modular_nullspace` holds the whole elimination policy: every basis it
returns is a kernel mod primes, lifted to integer vectors over Q and
accepted only when the caller's exact check keeps them, in the form that
check returns (`guess` keeps equations).  It reads the matrix only through
residues, which a caller evaluates from its input reduced mod a prime
(reduction is a ring homomorphism), never through exact rows, and one
engine eliminates them: a `ColumnEchelon` mod a Mersenne prime 2**e - 1,
of packed columns, one int each, whose slots a fold at 2**e reduces at
once.  It first ranks the matrix modulo P = 2**61 - 1: full rank mod P
proves a trivial nullspace over Q.  The echelon grows by columns and
shrinks by rows without re-eliminating, so `guess` keeps one per search
and adds only the new columns of each ansatz size.  Otherwise the echelon
replays the multipliers it recorded while eliminating and so gives the
kernel mod P itself, with no second elimination, and rational
reconstruction lifts each of its vectors.  Only when a vector does not
lift or is not kept does the loop climb the Mersenne primes past P
(2**89 - 1, 2**107 - 1, ...), each with an echelon `guess` keeps across
d like P's; the kernels of the best profile, P's too, are combined by CRT
until the lift checks, so results are exact and reproducible byte for byte.
"""

import re
from decimal import Decimal
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm, prod

# A Mersenne prime: residues fit in one 61-bit word.
P = 2**61 - 1


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


def parse_int(digits):
    """int(digits) for an ASCII digit string with an optional sign, of any
    length: past the interpreter's int/str digit limit, the only
    ValueError such a string raises, through Decimal, which is exact but
    slower."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _str(n):
    """str(n) for an int of any length (past the int/str digit limit
    through Decimal, like parse_int)."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def parse_rational(text):
    """Parse "p/q" or "p", ASCII digits with optional signs and surrounding
    whitespace, into a Fraction, of any length.  Raises ValueError on
    anything else (no underscores, no other digits) and ZeroDivisionError
    on q = 0."""
    match = _RATIONAL.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    num, den = match.group(1, 2)
    return Fraction(parse_int(num), parse_int(den) if den else 1)


def format_rational(x):
    """Render a Fraction as "p/q", or "p" when the denominator is 1, of any
    length."""
    x = Fraction(x)
    if x.denominator == 1:
        return _str(x.numerator)
    return f"{_str(x.numerator)}/{_str(x.denominator)}"


def as_rational(x, what, *args):
    """x as a Fraction if it is an int (not a bool) or a Fraction; else a
    TypeError naming `what.format(*args)`: nothing else is coerced."""
    if type(x) is int or isinstance(x, Fraction):
        return x if type(x) is Fraction else Fraction(x)
    raise TypeError(f"{what.format(*args)} must be an int or a Fraction, "
                    f"not {type(x).__name__}")


@cache
def falling_weight(j, p):
    """(j+p)!/j! as an exact integer: the z^j coefficient weight of the
    p-th derivative (a_{j+p} enters with this factor); cached."""
    if j < 0 or p < 0:
        raise ValueError("falling_weight needs j >= 0 and p >= 0")
    return prod(range(j + 1, j + p + 1))


def clear_denominators(values):
    """(nums, den) for ints and Fractions values: den is the lcm of their
    denominators and nums the ints v * den."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def slot_bits(height, p=P):
    """Bits per slot of `height` packed rows mod the Mersenne prime p:
    whole bytes that hold a sum of `height` products of residues mod p
    (136 mod P and 192 mod 2**89 - 1 for 65-2**14 rows)."""
    return -(-(max(height, 1) * p * p).bit_length() // 8) * 8


def pack(values, bits):
    """The int whose `bits`-bit slots, lowest first, hold `values`."""
    size = bits // 8
    return int.from_bytes(b"".join(x.to_bytes(size, "little")
                                   for x in values), "little")


def _fold(c, low, high, e):
    """Every slot lo + 2**e * hi of c to lo + hi, at once (2**e = 1 mod
    2**e - 1; low and high mask each slot's low e bits and the rest)."""
    return (c & low) + (c >> e & high)


def _reduce(c, low, high, ones, e):
    """Every slot of c to its residue mod p = 2**e - 1 in [0, p): two folds
    take a slot of at most 3e - 1 bits (`slot_bits` of fewer than
    2**(e - 9) rows) to [0, 2p)."""
    c = _fold(_fold(c, low, high, e), low, high, e)
    return c - (c + ones >> e & ones) * ((1 << e) - 1)


def _negated(c, f, low, high, e):
    """p - c * f mod p = 2**e - 1 in every slot, in [0, p], for slots of c
    in [0, p) and 0 <= f < p."""
    return low - _fold(_fold(c * f, low, high, e), low, high, e)


class ColumnEchelon:
    """A column echelon mod the Mersenne prime p = 2**e - 1 (P by default)
    of an integer matrix that grows by columns and shrinks by rows.  A
    column is packed: slot n of `bits` bits holds row n (see `pack`), and
    `_fold` reduces every slot at once, at 2**e = 1 mod p.

    `basis` lists (column, pivot row, u) for the added columns that are
    independent of the columns before them: u = p - t in every slot, for
    the column t reduced against the earlier ones (zero above its pivot, 1
    at it, 0 mod p at every earlier pivot, slots in [0, p]), so eliminating
    adds f * u and no slot borrows.  A folded column plus at most `height`
    such products stays below 2**bits in every slot (`slot_bits`), so an
    added column is folded before and after its elimination, not between
    its steps.  `rank` is the rank mod p of the current matrix, so the
    matrix has full column rank mod p iff rank == width.  Every added
    column also records the multipliers f of its elimination, keyed by
    basis column, and its pivot inverse if it joined the basis: `kernel`
    reads the kernel mod p off those records.
    """

    def __init__(self, height, p=P):
        self.p, self.e = p, p.bit_length()
        self.bits = slot_bits(height, p)
        self._ones = pack([1] * height, self.bits)
        self.width = 0
        self.basis = []
        self._steps = []       # per column: ([(basis column, f), ...], inv)
        self.cut(height)

    @property
    def rank(self):
        return len(self.basis)

    def add(self, column):
        """Append a packed column of any representatives mod p (slots at
        or past `height` are ignored)."""
        bits, low, high = self.bits, self._low, self._high
        p, e, slot = self.p, self.e, (1 << bits) - 1
        c = _fold(column, low, high, e)        # drops the cut rows
        steps, inv = [], None
        for col, pivot, u in self.basis:
            f = (c >> bits * pivot & slot) % p
            if f:
                c += f * u
                steps.append((col, f))
        c = _reduce(c, low, high, self._ones, e)
        if c:
            pivot = ((c & -c).bit_length() - 1) // bits
            inv = pow(c >> bits * pivot & slot, -1, p)
            self.basis.append((self.width, pivot,
                               _negated(c, inv, low, high, e)))
        self._steps.append((steps, inv))
        self.width += 1

    def cut(self, height):
        """Keep the first `height` rows (at most the current height).  A
        basis column whose pivot is cut is zero on the kept rows and is
        dropped; the others stay reduced, so nothing is re-eliminated."""
        bits, mask = self.bits, (1 << self.bits * height) - 1
        self.height = height
        self._ones &= mask                     # 1 in every row's slot
        self._low = self._ones * self.p        # p, the low e bits
        self._high = self._ones * ((1 << bits - self.e) - 1)
        self.basis = [(col, pivot, u & mask)
                      for col, pivot, u in self.basis if pivot < height]

    def kernel(self):
        """(pivots, basis) of the current matrix mod p: the pivot columns
        of its reduced row echelon form (leftmost pivots), ascending, and
        for each other column, in order, the kernel vector with 1 there and
        0 at the other free columns, entries in [0, p); (all columns, [])
        at full rank.

        `add`'s records are replayed on packed vectors of `width` slots,
        folded like the columns (fewer than `width` steps per vector):
        column j's vector is v = e_j - sum f * x_i, so the columns that v
        combines sum to column j reduced, and a basis column's x_j is v
        times its pivot inverse, zero past slot j and kept to slots 0 .. j.
        A free column was dependent when added, or a cut dropped its basis
        column (whose t is 0 on the kept rows), so v is in the kernel, 1 at
        j and 0 past it; taking off the earlier free vectors at their
        columns makes it canonical."""
        width, p, e = self.width, self.p, self.e
        if self.rank == width:
            return list(range(width)), []
        bits = slot_bits(width, p)
        ones = pack([1] * width, bits)
        low, high = ones * p, ones * ((1 << bits - e) - 1)
        slot = (1 << bits) - 1
        pivots = sorted(col for col, _, _ in self.basis)
        kept = set(pivots)
        negated, free = {}, []       # p - x_i per basis column; (j, p - v)
        for j, (steps, inv) in enumerate(self._steps):
            v = 1 << bits * j
            for i, f in steps:
                v += f * negated[i]
            v = _reduce(v, low, high, ones, e)
            if inv is not None:
                negated[j] = (_negated(v, inv, low, high, e)
                              & (1 << bits * (j + 1)) - 1)
            if j not in kept:
                for k, w in free:
                    f = (v >> bits * k & slot) % p
                    if f:
                        v += f * w
                free.append((j, low - _reduce(v, low, high, ones, e)))
        size = bits // 8
        basis = []
        for _, w in free:
            data = (low - w).to_bytes(size * width, "little")
            basis.append([int.from_bytes(data[k:k + size], "little")
                          for k in range(0, size * width, size)])
        return pivots, basis


def _rational(x, m, bound):
    """(n, d) with n = d * x mod m, |n| <= bound, 0 < d <= bound and
    gcd(n, d) = 1, or None: rational reconstruction (Wang) by the extended
    Euclidean algorithm.  With 2 * bound**2 < m there is at most one."""
    r0, r1, t0, t1 = m, x % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(vec, m):
    """The rational vector congruent to the residue vector vec mod m whose
    numerators over its common denominator D, and D, are at most
    isqrt(m // 2), as those integer numerators, or None if there is none.
    Entry j is reconstructed times the denominator of the entries before
    it, so D grows one factor at a time and is the lcm of the entries'
    denominators."""
    bound = isqrt(m // 2)
    den = 1
    parts = []
    for x in vec:
        frac = _rational(den * x, m, bound)
        if frac is None:
            return None
        num, step = frac
        den *= step
        if den > bound:
            return None
        parts.append((num, den))
    return [num * (den // at) for num, at in parts]


# The exponents e of the Mersenne primes 2**e - 1 from P's on (OEIS
# A000043), 716 504 546 bits in all: the moduli `modular_nullspace` climbs.
_MERSENNE = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
             9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503,
             132049, 216091, 756839, 859433, 1257787, 1398269, 2976221,
             3021377, 6972593, 13466917, 20996011, 24036583, 25964951,
             30402457, 32582657, 37156667, 42643801, 43112609, 57885161,
             74207281, 77232917, 82589933, 136279841)


def modular_nullspace(echelon_at, verify):
    """Nullspace basis of an integer matrix from two views of it:
    `echelon_at(p)`, a ColumnEchelon mod the Mersenne prime p of a matrix
    congruent to it mod p (any representatives), asked for once per p; and
    `verify(vec)`, given an integer vector, what to keep of it if it
    annihilates every row exactly, else None.

    The basis has one vector per free column of the reduced row echelon
    form (leftmost pivots), with 1 there and 0 at the other free columns,
    in order of free column.  Each is lifted as integers over its common
    denominator: content 1, and positive at its free column, its last
    nonzero entry.  `modular_nullspace` returns what `verify` keeps of
    each, in that order; it is [] iff the nullspace is trivial.

    Each rung of the loop takes `echelon_at(p).kernel()` for the next
    Mersenne prime p = 2**e - 1 (`_MERSENNE`), from P = 2**61 - 1 on.
    Full column rank mod p means full rank over Q (a minor that is nonzero
    mod p is a nonzero integer), so the answer is [] and no kernel is
    replayed.  Otherwise the first rung gives the kernel mod P in its
    canonical basis, off the elimination that ranked the matrix.  Each
    vector is lifted by rational reconstruction over a common denominator
    and handed to `verify`.  When it keeps every one, they are the
    kernel over Q, byte for byte: independent vectors of ker_Q, as many as
    the nullity mod P, which is at least the nullity over Q, so they span
    it; their last nonzero entries are distinct free columns, so they are
    its unique basis of that form.

    When a lift fails or is not kept (rank or pivots lost mod P, or entries
    beyond the bound), the loop climbs the Mersenne primes past P, each
    with an echelon of its own.  The moduli with the best profile so far
    (highest rank, then smallest pivot list), P's included, are combined by
    CRT, and the lift modulo their product is checked as above, so
    whatever is returned is the kernel over Q.  Mod p the rank is at most
    the rank over Q and each pivot is at or right of its place over Q, so
    no modulus beats the profile over Q, and every modulus with that
    profile gives the true basis mod p.  Fix a nonzero maximal minor at the
    pivot columns over Q: a modulus with a worse profile divides it, so the
    bad moduli total at most log2 H bits, H the Hadamard bound of the
    maximal minors.  The basis entries over their common denominator are
    such minors, at most H, so the lift recovers them once the kept moduli
    exceed 2 * H**2.  The table's 716 504 546 bits exceed 3 * log2 H + 2
    whenever H < 2**(2 * 10**8), and for every such matrix the loop
    returns; past the table it raises ArithmeticError.
    """
    best = None
    for e in _MERSENNE:
        p = 2**e - 1
        pivots, basis = echelon_at(p).kernel()
        if not basis:
            return []
        profile = (-len(pivots), pivots)
        if best is None or profile < best:
            best, modulus, images = profile, p, basis
        elif profile == best:
            inv = pow(modulus, -1, p)
            images = [[a + modulus * ((b - a) * inv % p)
                       for a, b in zip(old, new)]
                      for old, new in zip(images, basis)]
            modulus *= p
        else:
            continue
        kept = []
        for vec in images:
            vec = _lift(vec, modulus)
            if vec is None or (keep := verify(vec)) is None:
                break
            kept.append(keep)
        else:
            return kept
    raise ArithmeticError("no kernel lift checks modulo the Mersenne primes "
                          f"up to 2**{_MERSENNE[-1]} - 1")
