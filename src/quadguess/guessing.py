"""Fit quadratic differential equations to a sequence prefix.

For growing ansatz size d, build the homogeneous linear system whose
unknowns are the coefficients c_{k,i} of (c_{k,0} + ... + c_{k,m} z^m)
applied to monomial slot k+2, evaluate its recurrence rows on the prefix,
and return the nullspace basis as normalized equations.

The stacked matrix contains every row the prefix can support: the first
(m+1)(d+1) rows determine the unknowns and the remaining rows are held-out
verification.  Computing one joint nullspace is at least as strict as
filtering basis vectors against leftover rows individually.

Column (k, i) is column (k, 0) shifted down i rows, and the columns for d
are a prefix of those for d + 1, so one search evaluates each monomial's
row sequence once and every d indexes into it.  `guess` ranks the systems
mod P in one `exact.ColumnEchelon` per search, on row values evaluated
from the prefix reduced mod P: each d cuts it to its usable rows and adds
only its m + 1 new columns, and a size that is full rank there is skipped
without one exact row.  Otherwise `exact.modular_nullspace` takes the
kernel mod P from the residue rows at the echelon's pivots and lifts it to
Q, so exact rows are evaluated only to verify each lifted equation on
every row, and only for the monomials that equation uses; the whole exact
system is read only if a lift fails.  `assemble_system` builds the full
exact system.
"""

import json
from dataclasses import dataclass
from math import ceil

from quadguess.equations import (Derivatives, QuadEquation,
                                 equation_from_obj, equation_to_obj,
                                 term_numerator)
from quadguess.errors import DegenerateInputError, InsufficientTermsError
from quadguess.exact import (P, ColumnEchelon, modular_nullspace,
                             normalize_vector)
from quadguess.monomials import max_derivative_order, monomial_of_index


@dataclass(frozen=True)
class GuessConfig:
    """Search-space bounds for the ansatz loop.

    m: max z-degree of the polynomial coefficients (2 suffices for the
    classical Bernoulli/Euler/Bell equations).  d runs from d_start to
    d_max (default ceil((N+1)/(m+1)); a given d_max must be at least
    d_start), capped so that every construction row plus min_verify_rows
    held-out rows fit inside the prefix.
    """

    m: int = 2
    d_start: int = 3
    d_max: int | None = None
    min_verify_rows: int = 2

    def __post_init__(self):
        if self.m < 0 or self.d_start < 1 or self.min_verify_rows < 0:
            raise ValueError("invalid search bounds")
        if self.d_max is not None and self.d_max < self.d_start:
            raise ValueError(f"d_max = {self.d_max} is below "
                             f"d_start = {self.d_start}")


def column_order(d, m):
    """Unknown ids (k, i) in k-major order; the system's column order."""
    return [(k, i) for k in range(d + 1) for i in range(m + 1)]


class _SlotRows:
    """Recurrence-row values of the monomial slots on one set of derivative
    sequences: rows[k] lists the z^n coefficients of slot k+2, times den**2,
    for n = 0, 1, ...; each list grows only as far as a read needs and is
    kept, so every d of a search reads it from there."""

    def __init__(self, derivs, rows=None):
        self.derivs = derivs
        self.rows = {} if rows is None else rows

    def slot(self, k, count):
        """The first `count` row values of slot k+2."""
        seq = self.rows.setdefault(k, [])
        if len(seq) < count:
            mono = monomial_of_index(k + 2)
            seq.extend(term_numerator(self.derivs, n, mono.p, mono.q)
                       for n in range(len(seq), count))
        return seq

    def row(self, n, d, m):
        """Row n of the size-d system: entry (k, i) is row n - i of slot
        k+2 (0 for n < i), in column_order."""
        return [seq[n - i] if n >= i else 0
                for seq in (self.slot(k, n + 1) for k in range(d + 1))
                for i in range(m + 1)]

    def vanishes(self, vec, d, m, count):
        """Whether the solution vector vec (column_order, integer entries)
        annihilates rows 0 .. count - 1; reads only the slots it uses."""
        support = [(self.slot(k, count), i, v)
                   for (k, i), v in zip(column_order(d, m), vec) if v]
        return all(sum(c * seq[n - i] for seq, i, c in support if n >= i) == 0
                   for n in range(count))


def _usable_rows(prefix, d):
    """How many rows of the size-d system the prefix determines: row n
    reads indices up to n + r(d), r(d) the largest derivative order."""
    return max(0, prefix.last_index - max_derivative_order(d) + 1)


def assemble_system(prefix, d, m, rows=None):
    """(matrix, usable_rows): rows n = 0, 1, ... of the ansatz recurrence
    evaluated on the prefix, emitted while every touched index fits.

    Row n's entry for unknown (k, i) is the z^n coefficient of
    z^i * (monomial slot k+2) on the prefix times den**2, an int, where
    nums / den is the prefix's scaled view; row n reads indices up to
    n + r(d) where r(d) is the largest derivative order in the ansatz.

    `rows` maps slot k to the row values already computed for this prefix;
    pass the same dict to every call on one prefix so that no row is
    evaluated twice.  It must not be shared between prefixes.
    """
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    slots = _SlotRows(Derivatives(*prefix.scaled()), rows)
    usable = _usable_rows(prefix, d)
    return [slots.row(n, d, m) for n in range(usable)], usable


def normalize(vector, d, m):
    """Turn a nonzero solution vector (ints and Fractions) into a
    QuadEquation: drop zeros, clear denominators, divide by the content,
    and make the coefficient of the highest (monomial index, z-power) term
    positive."""
    ints = normalize_vector(vector)
    if not any(ints):
        raise ValueError("cannot normalize the zero vector")
    terms = []
    for (k, i), coeff in zip(column_order(d, m), ints):
        if coeff != 0:
            terms.append((i, monomial_of_index(k + 2), coeff))
    if terms[-1][2] < 0:  # column order == (monomial index, z-power) order
        terms = [(s, mono, -c) for s, mono, c in terms]
    return QuadEquation(terms)


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

    Returns the result at the smallest successful d (larger-d solution
    spaces only add consequences of the smaller equation).  Raises
    DegenerateInputError on an all-zero prefix and InsufficientTermsError
    when not even the first candidate d admits a full system.
    """
    if prefix.is_zero():
        raise DegenerateInputError("degenerate input: all terms zero")
    n_terms = len(prefix)
    m = cfg.m
    d_cap = cfg.d_max if cfg.d_max is not None else ceil(n_terms / (m + 1))
    attempted = False
    nums, den = prefix.scaled()
    exact = _SlotRows(Derivatives(nums, den))
    residue = _SlotRows(Derivatives([x % P for x in nums], den % P))
    echelon = ColumnEchelon(_usable_rows(prefix, cfg.d_start))
    for d in range(cfg.d_start, d_cap + 1):
        construction = (m + 1) * (d + 1)
        usable = _usable_rows(prefix, d)
        if usable < construction + cfg.min_verify_rows:
            break  # larger d only demands more rows; never fabricate terms
        attempted = True
        echelon.cut(usable)
        for k in range(echelon.width // (m + 1), d + 1):
            seq = residue.slot(k, usable)
            for i in range(m + 1):
                echelon.add([0] * i + seq[:usable - i])
        basis = modular_nullspace(
            echelon, lambda n: residue.row(n, d, m),
            lambda n: exact.row(n, d, m),
            lambda vec: exact.vanishes(vec, d, m, usable))
        if basis:
            equations = tuple(normalize(v, d, m) for v in basis)
            return GuessResult(status="success", d=d, m=m, basis=equations,
                               construction_rows=construction,
                               verification_rows=usable - construction)
    if not attempted:
        raise InsufficientTermsError(
            f"{n_terms} terms admit no system at d = {cfg.d_start} "
            f"(m = {m}, min_verify_rows = {cfg.min_verify_rows})")
    return GuessResult(status="fail", m=m)
