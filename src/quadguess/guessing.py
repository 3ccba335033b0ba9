"""Fit quadratic differential equations to a sequence prefix.

The size-d ansatz is a list of columns (monomial, z-power) (`ansatz`):
column (mono, i) is the unknown coefficient of z^i * mono, and its row n
reads terms up to n plus its shift max(p, 0) - i.  For growing d, form
the homogeneous linear system of the columns, one row per recurrence row
the prefix determines (N - p rows for N terms, p that of slot(d), the
largest shift), and return its nullspace basis as normalized
equations.  The first len(columns) rows determine the unknowns and the
rest are held-out verification: one joint nullspace is at least as
strict as filtering basis vectors against leftover rows individually.

The system is read only modulo primes.  Column (mono, i) is column
(mono, 0) shifted down i rows, and size d's columns are a prefix of size
d + 1's, so one search packs each derivative order once, from the
prefix reduced mod P (`_packed_orders`), and each monomial's rows are
one product of two packed orders, made where its columns enter.
`guess` ranks the systems mod P in one `exact.ColumnEchelon` per search:
each d cuts it to its usable rows and adds only its new columns; a size
of full rank there is skipped.  Otherwise `exact.modular_nullspace`
reads the kernel mod P off the same echelon (`ColumnEchelon.kernel`) and
lifts it to Q.  Each lifted vector, normalized over the columns to a
QuadEquation, is verified exactly by `check`'s walk (`sequences._walk`),
the one row loop; the equation and its z-multiples (every z-power one
higher, up to m) are kept by terms and accepted from that pass.  Only if a lift
fails does `modular_nullspace` climb the further Mersenne primes, each
on P's path: one echelon and one memo of packed orders per search,
kept across d, and each monomial's rows made once the same way.
"""

import itertools
import json
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt

from quadguess.equations import (Derivatives, QuadEquation, QuadMonomial,
                                 equation_from_obj, equation_to_obj)
from quadguess.errors import DegenerateInputError, InsufficientTermsError
from quadguess.exact import (ColumnEchelon, clear_denominators,
                             modular_nullspace, pack)
from quadguess.sequences import _walk


@dataclass(frozen=True)
class GuessConfig:
    """Search-space bounds for the ansatz loop.

    m: max z-degree of the polynomial coefficients (2 suffices for the
    classical Bernoulli/Euler/Bell equations).  d runs up from d_start,
    to d_max if one is given (at least d_start), and stops at the first d
    whose (d + 1)(m + 1) construction rows plus min_verify_rows held-out
    rows do not fit in the rows the prefix determines, so d stays below
    N / (m + 1) for N terms.  Every bound is a plain int, not a bool or a
    float; d_max may also be None.
    """

    m: int = 2
    d_start: int = 3
    d_max: int | None = None
    min_verify_rows: int = 2

    def __post_init__(self):
        for name in ("m", "d_start", "d_max", "min_verify_rows"):
            value = getattr(self, name)
            if type(value) is not int and (value, name) != (None, "d_max"):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.m < 0 or self.d_start < 1 or self.min_verify_rows < 0:
            raise ValueError("invalid search bounds")
        if self.d_max is not None and self.d_max < self.d_start:
            raise ValueError(f"d_max = {self.d_max} is below "
                             f"d_start = {self.d_start}")


@cache
def slot(k):
    """The monomial of slot k >= 0, built once: the slots run through the pairs
    p >= q >= -1 but the constant in lexicographic order, f, f^2, f', f'f,
    (f')^2, f'', ..., so slot k is (p, k - (p + 1)(p + 2)/2) for
    p = (isqrt(8k + 9) - 3) // 2, and p never decreases with k.  Slot -1
    is the constant."""
    p = (isqrt(8 * k + 9) - 3) // 2
    return QuadMonomial(p, k - (p + 1) * (p + 2) // 2)


def ansatz(d, m):
    """The size-d ansatz: columns (monomial, z-power) k-major, (slot(k), i)
    for k <= d and i <= m, each of shift max(p, 0) - i.  Size d's columns
    are a prefix of size d + 1's."""
    return [(mono, i) for mono in map(slot, range(d + 1))
            for i in range(m + 1)]


def _packed_orders(nums, den, p, bits):
    """A memo: order -> the coefficients of f^(order) on nums / den, times
    den, mod p, packed once (`exact.pack`) in `bits`-bit slots, those of
    the search's echelon mod p; f^(-1) packs to den.  Slots n < count of
    two orders' product, each below count * p**2 (carries only move up),
    are rows n of their monomial, times den**2, mod p."""
    derivs = Derivatives([x % p for x in nums], den % p)
    return cache(lambda order: pack([x % p for x in derivs[order]], bits))


def _usable_rows(n_terms, d):
    """How many rows of the size-d system n_terms terms determine, at most
    one per term: row n reads terms up to n plus the largest shift, that
    of column (slot(d), 0), as p never decreases with k."""
    return max(0, n_terms - slot(d).p)


def normalize(vector, columns):
    """Turn a nonzero solution vector (ints and Fractions) over columns
    into a QuadEquation, the one normalization of a kernel vector: clear
    denominators, divide by the content, drop zeros, and make the
    coefficient of the highest (monomial, z-power), the QuadEquation's
    last term, positive.  Every nonzero rational multiple of the vector
    gives the same equation."""
    ints, _ = clear_denominators(vector)
    content = gcd(*ints)
    if not content:
        raise ValueError("cannot normalize the zero vector")
    terms = [(col, c) for col, c in zip(columns, ints) if c]
    if max(terms)[1] < 0:
        content = -content
    return QuadEquation([(i, mono, c // content) for (mono, i), c in terms])


class _Verifier:
    """The equations of the system of `columns` whose rows 0 .. count - 1
    vanish on the exact terms `values`: called on a solution vector, it
    returns the vector's equation (`normalize`) if `check`'s walk
    (`sequences._walk`) finds those rows zero, else None.  Passed
    equations are kept by their terms, so a multiple of a passed vector
    makes no pass of its own.  The columns are an `ansatz(d, m)`, so the
    last one's z-power is m.  Once an equation E passes, so does z * E,
    every term's z-power one higher, if E's highest z-power is below m,
    and so on, without a pass of their own: row n of z * E is row n - 1
    of E."""

    def __init__(self, values, columns, count):
        self.values, self.columns, self.count = values, columns, count
        self.passed = set()          # the terms of each passed equation

    def __call__(self, vec):
        eq = normalize(vec, self.columns)
        if eq.terms in self.passed:
            return eq
        if not self.vanishes(eq):
            return None
        terms = eq.terms
        self.passed.add(terms)
        for _ in range(self.columns[-1][1] - max(s for s, _, _ in terms)):
            terms = tuple((s + 1, mono, c) for s, mono, c in terms)
            self.passed.add(terms)
        return eq

    def vanishes(self, eq):
        """Whether eq's rows 0 .. count - 1 are zero: one exact pass (a
        row n < -max_shift reads no term and is zero)."""
        top = max(0, self.count + eq.max_shift)
        return _walk(eq, self.values[:top], 0) is None


@dataclass(frozen=True)
class GuessResult:
    status: str                       # "success" | "fail"
    d: int | None = None
    m: int | None = None
    basis: tuple = ()
    construction_rows: int = 0
    verification_rows: int = 0

    @property
    def succeeded(self):
        return self.status == "success"

    def to_obj(self):
        return {"status": self.status, "d": self.d, "m": self.m,
                "basis": [equation_to_obj(eq) for eq in self.basis],
                "rows": {"construction": self.construction_rows,
                         "verification": self.verification_rows}}

    def to_json(self):
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj):
        return cls(status=obj["status"], d=obj["d"], m=obj["m"],
                   basis=tuple(equation_from_obj(e) for e in obj["basis"]),
                   construction_rows=obj["rows"]["construction"],
                   verification_rows=obj["rows"]["verification"])

    @classmethod
    def from_json(cls, text):
        return cls.from_obj(json.loads(text))


def guess(prefix, cfg=GuessConfig()):
    """Search for quadratic equations annihilating the prefix.

    Returns the result at the smallest d whose system has a nontrivial
    nullspace.  That d is minimal, and every larger d the prefix admits
    would succeed too: the columns of size d are a prefix of those of
    size d + 1 (`ansatz`), so the size-d system's largest shift is no
    larger and it has at least as many rows, and full column rank at
    d + 1 implies full column rank at d.  Larger-d solution spaces only
    add consequences of the smaller equation.  Raises DegenerateInputError
    on an all-zero prefix and InsufficientTermsError when not even the
    first candidate d admits a full system.
    """
    if prefix.is_zero():
        raise DegenerateInputError("degenerate input: all terms zero")
    n_terms = len(prefix)
    m = cfg.m
    nums, den = prefix.scaled()

    @cache
    def modulus(p):
        """The search's echelon mod p and its packed orders, made once."""
        at = ColumnEchelon(usable, p)
        return at, _packed_orders(nums, den, p, at.bits)

    def echelon_at(p):
        """The current system mod p, on the search's echelon mod p.  Each
        d adds whole monomials k-major (at.width is a multiple of m + 1),
        each as one product made where its columns enter."""
        at, packed = modulus(p)
        at.cut(usable)
        mask = (1 << at.bits * usable) - 1
        for mono, _ in columns[at.width::m + 1]:
            rows = packed(mono.p) * packed(mono.q) & mask
            for i in range(m + 1):                # row n - i at n
                at.add(rows << at.bits * i)
        return at

    for d in itertools.count(cfg.d_start):
        if cfg.d_max is not None and d > cfg.d_max:
            break
        usable = _usable_rows(n_terms, d)
        if usable < (d + 1) * (m + 1) + cfg.min_verify_rows:
            break  # larger d only demands more rows; never fabricate terms
        columns = ansatz(d, m)
        basis = modular_nullspace(
            echelon_at, _Verifier(prefix.values, columns, usable))
        if basis:
            return GuessResult(status="success", d=d, m=m, basis=tuple(basis),
                               construction_rows=len(columns),
                               verification_rows=usable - len(columns))
    if d == cfg.d_start:       # the loop ends at a break: nothing tried
        raise InsufficientTermsError(
            f"{n_terms} terms admit no system at d = {cfg.d_start} "
            f"(m = {m}, min_verify_rows = {cfg.min_verify_rows})")
    return GuessResult(status="fail", m=m)
