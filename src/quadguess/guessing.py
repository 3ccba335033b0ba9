"""Fit quadratic differential equations to a sequence prefix.

For growing ansatz size d, form the homogeneous linear system whose
unknowns are the coefficients c_{k,i} of (c_{k,0} + ... + c_{k,m} z^m)
applied to monomial slot k (`slot`), with one row per recurrence row the
prefix determines, and return its nullspace basis as normalized
equations.

The stacked matrix contains every row the prefix can support: the first
(m+1)(d+1) rows determine the unknowns and the remaining rows are held-out
verification.  Computing one joint nullspace is at least as strict as
filtering basis vectors against leftover rows individually.

The system is read only modulo primes.  Column (k, i) is column (k, 0)
shifted down i rows, and the columns for d are a prefix of those for
d + 1, so one search evaluates each monomial's row sequence once, from
the prefix reduced mod P, and every d reads it from there: one int packs
it, the one product of the slot's two packed derivative sequences.
`guess` ranks the systems mod P in one `exact.ColumnEchelon` per search:
each d cuts it to its usable rows and adds only its m + 1 new columns,
and a size that is full rank there is skipped.  Otherwise
`exact.modular_nullspace` reads the kernel mod P off the same echelon
(`ColumnEchelon.kernel`), with no second elimination, and lifts it to Q.
Each lifted vector is verified exactly by `check`'s walk
(`sequences._walk`), the one row loop: normalized to a QuadEquation, its
rows are read on the exact terms, and its z-multiples are accepted from
that one pass; the result keeps that equation.  Only if a lift fails
does `modular_nullspace` climb the further Mersenne primes: mod each, a
fresh `ColumnEchelon` of that prime takes all the usable rows, its
columns added the same way from the prefix reduced mod the prime, packed
once per search like the rows mod P.
"""

import json
from dataclasses import dataclass
from functools import cache
from math import ceil, isqrt

from quadguess.equations import (Derivatives, QuadEquation, QuadMonomial,
                                 equation_from_obj, equation_to_obj)
from quadguess.errors import DegenerateInputError, InsufficientTermsError
from quadguess.exact import (P, ColumnEchelon, modular_nullspace,
                             normalize_vector, pack, slot_bits)
from quadguess.sequences import _walk


@dataclass(frozen=True)
class GuessConfig:
    """Search-space bounds for the ansatz loop.

    m: max z-degree of the polynomial coefficients (2 suffices for the
    classical Bernoulli/Euler/Bell equations).  d runs from d_start to
    d_max (default ceil((N+1)/(m+1)); a given d_max must be at least
    d_start), capped so that every construction row plus min_verify_rows
    held-out rows fit inside the prefix.  Every bound is a plain int, not
    a bool or a float; d_max may also be None.
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


def slot(k):
    """The monomial of slot k >= 0: the slots run through the pairs
    p >= q >= -1 but the constant in lexicographic order, f, f^2, f', f'f,
    (f')^2, f'', ..., so slot k is (p, k - (p + 1)(p + 2)/2) for
    p = (isqrt(8k + 9) - 3) // 2, and p never decreases with k.  Slot -1
    is the constant."""
    p = (isqrt(8 * k + 9) - 3) // 2
    return QuadMonomial(p, k - (p + 1) * (p + 2) // 2)


def column_order(d, m):
    """Unknown ids (k, i) in k-major order; the system's column order."""
    return [(k, i) for k in range(d + 1) for i in range(m + 1)]


class _SlotRows:
    """Recurrence-row residues mod a prime p of the monomial slots on
    nums / den: `slot(k, count)` packs (`exact.pack`) rows 0 .. count - 1
    of slot k, its z^n coefficients times den**2, below count * p**2:
    the low count slots (carries only move up) of one product of its two
    derivative sequences mod p, each packed once; f^(-1) packs to den.
    It is kept for every d of a search, and `bits` is the slot width of
    the search's `ColumnEchelon`s mod p, so `slot(k, count) << bits * i`
    is column (k, i) as they take it."""

    def __init__(self, nums, den, p, bits):
        self.derivs = Derivatives([x % p for x in nums], den % p)
        self.p, self.bits = p, bits
        self.orders = {}
        self.kept = {}

    def _packed(self, order):
        """The coefficients of f^(order) mod p, packed, kept."""
        if order not in self.orders:
            self.orders[order] = pack(
                [x % self.p for x in self.derivs[order]], self.bits)
        return self.orders[order]

    def slot(self, k, count):
        """Rows 0 .. count - 1 (or more) of slot k, packed."""
        have, packed = self.kept.get(k, (0, 0))
        if have < count:
            mono = slot(k)
            packed = (self._packed(mono.p) * self._packed(mono.q)
                      & (1 << self.bits * count) - 1)
            self.kept[k] = count, packed
        return packed


def _usable_rows(prefix, d):
    """How many rows of the size-d system the prefix determines: row n
    reads indices up to n + r(d), r(d) = slot(d).p the largest derivative
    order of slots 0 .. d."""
    return max(0, prefix.last_index - slot(d).p + 1)


def normalize(vector, d, m):
    """Turn a nonzero solution vector (ints and Fractions) into a
    QuadEquation: drop zeros, clear denominators, divide by the content,
    and make the coefficient of the highest (p, q, z-power) term
    positive."""
    ints = normalize_vector(vector)
    if not any(ints):
        raise ValueError("cannot normalize the zero vector")
    terms = []
    for (k, i), coeff in zip(column_order(d, m), ints):
        if coeff != 0:
            terms.append((i, slot(k), coeff))
    if terms[-1][2] < 0:  # column order == (p, q, z-power) order
        terms = [(s, mono, -c) for s, mono, c in terms]
    return QuadEquation(terms)


class _Verifier:
    """Whether solution vectors of the size-d system annihilate its rows
    0 .. count - 1 on the exact terms `values`: normalized to a
    QuadEquation, a vector is read by `check`'s walk (`sequences._walk`).
    Once a vector E passes, so do its z-multiples z^j * E (entry (k, i)
    moved to (k, i + j)) whose z-powers stay within m, without a pass of
    their own: row n of z^j * E is row n - j of E.  `equation` gives a
    passed vector's QuadEquation, kept from its pass or, for a
    z-multiple, normalized on first use."""

    def __init__(self, values, d, m, count):
        self.values = values
        self.d, self.m, self.count = d, m, count
        self.verified = {}           # vector -> its equation, or None

    def __call__(self, vec):
        vec = tuple(vec)
        if vec in self.verified:
            return True
        eq = normalize(vec, self.d, self.m)
        if not self.vanishes(eq):
            return False
        m = self.m
        self.verified[vec] = eq
        while not any(vec[m::m + 1]):     # no z^m entry: shift by z
            vec = tuple(x for b in range(0, len(vec), m + 1)
                        for x in (0,) + vec[b:b + m])
            self.verified.setdefault(vec, None)
        return True

    def equation(self, vec):
        """The QuadEquation of a vector that passed."""
        vec = tuple(vec)
        if self.verified[vec] is None:
            self.verified[vec] = normalize(vec, self.d, self.m)
        return self.verified[vec]

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
    would succeed too: the columns for d are a prefix of those for d + 1
    and the size-d system has at least as many rows, so full column rank
    at d + 1 implies full column rank at d.  Larger-d solution spaces only
    add consequences of the smaller equation.  Raises DegenerateInputError
    on an all-zero prefix and InsufficientTermsError when not even the
    first candidate d admits a full system.
    """
    if prefix.is_zero():
        raise DegenerateInputError("degenerate input: all terms zero")
    n_terms = len(prefix)
    m = cfg.m
    d_cap = cfg.d_max if cfg.d_max is not None else ceil(n_terms / (m + 1))
    attempted = False
    nums, den = prefix.scaled()

    height = _usable_rows(prefix, cfg.d_start)
    echelon = ColumnEchelon(height)

    @cache
    def residues(p):
        return _SlotRows(nums, den, p, slot_bits(height, p))

    def echelon_at(p):
        """The current size-d system's usable rows mod p in a
        ColumnEchelon, the search's own at P and a fresh one past P, given
        the columns it lacks."""
        at = echelon if p == P else ColumnEchelon(height, p)
        at.cut(usable)
        for k in range(at.width // (m + 1), d + 1):
            rows = residues(p).slot(k, usable)
            for i in range(m + 1):
                at.add(rows << at.bits * i)     # row n - i at n
        return at

    for d in range(cfg.d_start, d_cap + 1):
        construction = (m + 1) * (d + 1)
        usable = _usable_rows(prefix, d)
        if usable < construction + cfg.min_verify_rows:
            break  # larger d only demands more rows; never fabricate terms
        attempted = True
        verifier = _Verifier(prefix.values, d, m, usable)
        basis = modular_nullspace(echelon_at, verifier)
        if basis:
            equations = tuple(map(verifier.equation, basis))
            return GuessResult(status="success", d=d, m=m, basis=equations,
                               construction_rows=construction,
                               verification_rows=usable - construction)
    if not attempted:
        raise InsufficientTermsError(
            f"{n_terms} terms admit no system at d = {cfg.d_start} "
            f"(m = {m}, min_verify_rows = {cfg.min_verify_rows})")
    return GuessResult(status="fail", m=m)
