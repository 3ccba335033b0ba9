"""Concrete quadratic differential equations and their recurrence rows.

A QuadEquation is a sum of terms coeff * z^s * f^(p) * f^(q).  Recurrence
row n is the z^n Taylor coefficient of the equation on a sequence prefix.
For the prefix scaled to nums / den, `Derivatives` is one store of the
Taylor coefficients, times den, of combinations sum(c * z^e * f^(p)),
every entry computed once by one rule through `exact.falling_weight`,
the one weight function, each sequence under one key: the int p for
f^(p) (f^(-1) = 1 is den, 0, 0, ...), a tuple for any other.  One
evaluator, `term_numerator`, gives the z^m coefficient of a product
G * f^(q) as the dot product of two such sequences, an integer numerator
over den**2.  Past a measured size it pairs the products (Winograd's
inner product): (m + 1) / 2 products of sums, less two running pair sums
that `Derivatives` keeps, so a row costs about half the big
multiplications, and the identity is exact.  A square, G = f^(q), takes
each cross product once and reads no pair sums.

The one row loop (`sequences._walk`) reads whole equations through
`QuadEquation.row_numerator`, which factors the products: the terms that
share their lower order q form one group, and row n is the sum over
groups of the z^(n - s0) coefficient of f^(q) * G_q, where s0 is the
group's smallest z-power and G_q = sum of c * z^(s - s0) * f^(p).  So
each row costs one dot product per distinct lower order, not one per
product term, and each such product about m / 2 big multiplications
once paired.  The store keeps only the sequences those dot products
read: nums, f^(q) for each q >= 1, and G_q for each product group.  A
single-term G_q = c * f^(p) is order p's own sequence, under p, with c
multiplied after the dot product, and a square when p = q.  Linear and
constant terms form the group q = -1, whose row is one coefficient,
den * G_q[n - s0], computed on the fly and kept in no sequence.  So a
walk never builds f^(-1); only `guessing._packed_orders`, which packs
whole sequences mod a prime, reads it.  Every step is a ring operation,
so the same evaluator on nums and den reduced mod P gives the rows mod P.

Wire format: {"terms": [{"s": int, "p": int, "q": int, "c": "p/q"}, ...]}
with p >= q >= -1; p = q = -1 is the constant term.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from quadguess.errors import EquationFormatError
from quadguess.exact import (as_rational, clear_denominators,
                             falling_weight, format_rational, parse_int,
                             parse_rational)


# term_numerator pairs a row's products from m * den.bit_length() >= this
# on.  On random entries of den's size, pairing broke even near
# m * bits = 5 000 at 768 bits and 12 000 at 96 to 192 bits, and from
# 2**14 on it was faster at every size measured (BENCH_paired_products.json).
_PAIRED_MIN = 1 << 14
_WINDOW = 8                   # pair sums kept per key and role (pair_sum)


@dataclass(frozen=True, order=True)
class QuadMonomial:
    """The product f^(p) * f^(q) of two derivatives of the unknown series,
    for ints (not bools) p >= q >= -1, where order -1 is the constant
    factor 1: (0, -1) is f and (-1, -1) the constant 1.  Anything else
    raises ValueError.  Monomials order lexicographically by (p, q)."""

    p: int
    q: int

    def __post_init__(self):
        if not (type(self.p) is type(self.q) is int
                and self.p >= self.q >= -1):
            raise ValueError(f"orders must be ints with p >= q >= -1, "
                             f"not ({self.p!r}, {self.q!r})")


def monomial_of_orders(p, q):
    """The QuadMonomial of derivative orders p and q, in either order."""
    return QuadMonomial(p, q) if p >= q else QuadMonomial(q, p)


def _combination(key):
    """The terms ((e, p, c), ...) of an order or combination key."""
    return ((0, key, 1),) if type(key) is int else key


class Derivatives:
    """Taylor coefficients, times den, of linear combinations of the
    derivatives of the sequence nums / den, in one store, each sequence
    under one key.  `derivs[key]` for a key ((e, p, c), ...) holds those
    of sum(c * z^e * f^(p)), where f^(-1) is the constant 1, and for an
    int p those of f^(p), the one term e = 0, c = 1 (`_combination`):
    entry u (`_entry`) sums, over the terms with u >= e,
    c * falling_weight(u - e, p) * nums[u - e + p] for p >= 0 and c * den
    at u = e for p = -1, for u < len(nums) - max(max(p, 0) - e).  So
    derivs[-1] is den, 0, 0, ..., and derivs[0] is nums.  Each sequence is
    built on first use, kept once it has an entry, and gains one entry per
    term `put` in; only its last reads the last term.  `put`, `set_last`
    and `scale` work on every kept sequence, so a walk keeps only the
    sequences its dot products read (`QuadEquation.row_numerator`) and
    computes one-off entries, such as a linear group's, by `_entry`;
    derivs[-1] is for packing mod p only.

    For `term_numerator`'s paired rows the store also keeps, per key and
    role ("G" or "F", the sequence's factor in the product), a window of
    the _WINDOW pair sums of largest index read (`pair_sum`): `scale`
    multiplies them by factor**2, `set_last` drops the one that reads the
    replaced entry, and a read below the window restarts from index 0.
    So the groups of an equation, which read F = f^(q) under distinct q,
    never restart each other's; two groups with one combination G at
    offsets s0 up to 14 apart share G's; and G = c * f^(p), read under p,
    keeps a window apart from that of f^(p) read as F."""

    __slots__ = ("nums", "den", "_seqs", "_pairs")

    def __init__(self, nums, den):
        self.nums = list(nums)
        self.den = den
        self._seqs = {0: self.nums}     # every kept key -> its sequence
        self._pairs = {}                # (key, role) -> {j: pair sum}

    def __getitem__(self, key):
        seq = self._seqs.get(key)
        if seq is None:
            top = len(self.nums) - max(max(p, 0) - e
                                       for e, p, _ in _combination(key))
            seq = [self._entry(key, u) for u in range(top)]
            if seq:
                self._seqs[key] = seq
        return seq

    def _entry(self, key, u):
        """Entry u of key's sequence."""
        total = 0
        for e, p, c in _combination(key):
            j = u - e
            if p >= 0 and j >= 0:
                total += c * falling_weight(j, p) * self.nums[j + p]
            elif j == 0:                   # f^(-1) = 1
                total += c * self.den
        return total

    def put(self, terms):
        """Append terms (ints or Fractions) to the sequence, after one
        rescale to their common denominator, and one entry per term to
        every kept sequence, each computed once."""
        common = lcm(self.den, *(x.denominator for x in terms))
        if common != self.den:
            self.scale(common // self.den)
        self.nums += [x.numerator * (self.den // x.denominator) for x in terms]
        for key, seq in self._seqs.items():
            if seq is not self.nums:
                seq += [self._entry(key, u)
                        for u in range(len(seq), len(seq) + len(terms))]

    def set_last(self, term):
        """Replace the last term by term: drop the last entry of every kept
        sequence, nums too, the only one that reads it, and the pair sum
        that reads that entry, and put term."""
        for seq in self._seqs.values():
            seq.pop()
        for (key, _), window in self._pairs.items():
            window.pop(len(self._seqs[key]), None)
        self.put((term,))

    def scale(self, factor):
        """Multiply den and every kept sequence, nums too, by factor, and
        every kept pair sum by factor**2."""
        self.den *= factor
        for seq in self._seqs.values():
            seq[:] = [x * factor for x in seq]
        square = factor * factor
        for window in self._pairs.values():
            for j in window:
                window[j] *= square

    def pair_sum(self, key, j, role):
        """The sum of s[i] * s[i - 1] over i = j, j - 2, ... >= 1 for the
        sequence s = self[key] (0 for j < 1; requires len(s) > j): one
        product more than pair_sum(key, j - 2, role) if that is in the
        window of (key, role), else a restart from i = 0.  The window
        keeps the _WINDOW largest j read."""
        window = self._pairs.setdefault((key, role), {})
        total = window.get(j)
        if total is None:
            seq = self[key]
            i = j - 2 if j - 2 in window else -(j & 1)
            total = window.get(i, 0)
            for i in range(i + 2, j + 1, 2):
                total += seq[i] * seq[i - 1]
            window[j] = total
            if len(window) > _WINDOW:
                del window[min(window)]
        return total


def term_numerator(derivs, m, p, q):
    """The z^m coefficient of G * f^(q) times den**2 on the sequence
    derivs.nums / derivs.den, an int, where G is derivs[p] for an order
    or combination key p (see Derivatives), and 0 for m < 0.  For
    f^(-1) = 1 it is entry m of G, computed on the fly (`_entry`) and
    kept in no sequence, times den: no dot product.  Requires entry m of
    derivs[p] and, for q >= 0, of derivs[q] to exist.

    Otherwise it is the dot product sum(G[i] * F[m - i]) of G = derivs[p]
    and F = derivs[q].  When they are one sequence (p == q) it is a
    square: twice the sum of G[i] * G[m - i] over i < (m + 1) // 2, plus
    G[m // 2]**2 for even m, with no pair sums.
    Other products are, past a measured size, in Winograd's paired form
    ("A new algorithm for inner product", IEEE Trans. Comput. C-17, 1968):
    the sum of (G[2k] + F[m-2k-1]) * (G[2k+1] + F[m-2k]) over
    k < (m + 1) // 2, less G's pair sum A = sum(G[2k] * G[2k+1]) over the
    same k and F's pair sum B = sum(F[j] * F[j-1], j = m, m - 2, ... >= 1),
    plus G[m] * F[0] for even m.  Each product expands to the two terms of
    the row it pairs and to one term each of A and B, so the identity is
    exact in the integers; A and B are running sums
    (`Derivatives.pair_sum`, in the roles "G" and "F"), one product per
    row, so a row costs about m / 2 big products, not m + 1.
    The paired sums are as large as their larger halves, so rows keep the
    plain product when m * den.bit_length() is below _PAIRED_MIN (small
    entries, where the additions cost as much as the products saved), when
    F[m - 1] or F[m] is 0 (alternate zeros, which the plain product skips
    for free) and when F[m] has less than half of den's bits (entries that
    shrink along the row, like den / i!)."""
    if m < 0:
        return 0
    if q == -1:                      # G times the constant 1: one entry
        return derivs._entry(p, m) * derivs.den
    g, f = derivs[p], derivs[q]
    if g is f:                       # a square: each cross product once
        total = 2 * sum(map(mul, g[:(m + 1) // 2], f[m:m // 2:-1]))
        return total + g[m // 2] ** 2 if m % 2 == 0 else total
    bits = derivs.den.bit_length()
    if (m * bits < _PAIRED_MIN or not (f[m - 1] and f[m])
            or 2 * f[m].bit_length() < bits):
        return sum(map(mul, g, f[m::-1]))
    total = sum(map(mul, map(add, g[0:m:2], f[m - 1::-2]),
                    map(add, g[1:m + 1:2], f[m::-2])))
    # A's last pair is G[2k] * G[2k + 1] with 2k + 1 = (m - 1) | 1
    total -= (derivs.pair_sum(p, (m - 1) | 1, "G")
              + derivs.pair_sum(q, m, "F"))
    return total + g[m] * f[0] if m % 2 == 0 else total


class QuadEquation:
    """Sum of terms coeff * z^s * f^(p) * f^(q), coefficients exact and
    nonzero, terms sorted by (p, q, z-power).  Terms are given as
    (s, monomial, coeff): s an int, monomial a QuadMonomial and coeff an
    int or a Fraction (not a bool; anything else raises TypeError naming
    its position).
    `coeff_den` is the lcm of the coefficients' denominators, and
    `int_terms` holds the terms with their coefficients times it, as ints.
    `groups` factors int_terms by lower order: one
    (q, s0, ((s - s0, p, c), ...)) per distinct q, ascending, where s0 is
    the smallest z-power among the group's terms.  `max_shift` is the max
    over terms of max(p, 0) - s: row n reads prefix indices up to
    n + max_shift, and introduces term n + max_shift when extending."""

    __slots__ = ("terms", "coeff_den", "int_terms", "groups", "max_shift")

    def __init__(self, terms):
        merged = {}
        for pos, (s, mono, coeff) in enumerate(terms):
            if type(s) is not int:
                raise TypeError(f"term {pos}: z-power must be an int, "
                                f"not {type(s).__name__}")
            if s < 0:
                raise ValueError("z-power must be >= 0")
            if type(mono) is not QuadMonomial:
                raise TypeError(f"term {pos}: monomial must be a "
                                f"QuadMonomial, not {type(mono).__name__}")
            key = (mono, s)
            merged[key] = merged.get(key, 0) + as_rational(
                coeff, "term {}: coefficient", pos)
        cleaned = [(s, mono, c) for (mono, s), c in sorted(merged.items())
                   if c != 0]
        if not cleaned:
            raise ValueError("an equation needs at least one nonzero term")
        self.terms = tuple(cleaned)
        self.max_shift = max(max(mono.p, 0) - s for s, mono, _ in cleaned)
        ints, self.coeff_den = clear_denominators([c for _, _, c in cleaned])
        self.int_terms = tuple((s, mono, c)
                               for (s, mono, _), c in zip(cleaned, ints))
        by_q = {}
        for s, mono, c in self.int_terms:
            by_q.setdefault(mono.q, []).append((s, mono.p, c))
        self.groups = tuple(
            (q, s0, tuple((s - s0, p, c) for s, p, c in group))
            for q, group in sorted(by_q.items())
            for s0 in [min(s for s, _, _ in group)])

    def __eq__(self, other):
        return isinstance(other, QuadEquation) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"QuadEquation({render_text(self, 'ode')!r})"

    def row_numerator(self, derivs, n):
        """Row n times coeff_den * den**2 on the sequence derivs.nums /
        derivs.den, an int (indices up to n + max_shift must fit): per
        group, the z^(n - s0) coefficient of its combination times f^(q),
        one dot product (none for q = -1).  A single-term combination
        c * f^(p) is read as order p's own sequence, under the key p, and
        c multiplies the result."""
        total = 0
        for q, s0, terms in self.groups:
            if len(terms) == 1:         # c * f^(p), s0 its own z-power
                (_, p, c), = terms
                total += c * term_numerator(derivs, n - s0, p, q)
            else:
                total += term_numerator(derivs, n - s0, terms, q)
        return total


def equation_to_obj(eq):
    return {"terms": [{"s": s, "p": mono.p, "q": mono.q,
                       "c": format_rational(coeff)}
                      for s, mono, coeff in eq.terms]}


def equation_to_json(eq):
    return json.dumps(equation_to_obj(eq))


def equation_from_obj(obj):
    if not isinstance(obj, dict) or "terms" not in obj:
        raise EquationFormatError('expected an object with a "terms" list')
    if not isinstance(obj["terms"], list) or not obj["terms"]:
        raise EquationFormatError('"terms" must be a nonempty list')
    terms = []
    for pos, item in enumerate(obj["terms"]):
        try:
            s, p, q, c = item["s"], item["p"], item["q"], item["c"]
            coeff = Fraction(c) if type(c) is int else parse_rational(str(c))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise EquationFormatError(f"term {pos}: {exc}") from exc
        for key, value in (("s", s), ("p", p), ("q", q)):
            if type(value) is not int:  # rejects floats, strings and bools
                raise EquationFormatError(
                    f"term {pos}: {key!r} must be a JSON integer, "
                    f"not {value!r}")
        if s < 0:
            raise EquationFormatError(f"term {pos}: z-power must be >= 0")
        try:
            terms.append((s, QuadMonomial(p, q), coeff))
        except ValueError as exc:
            raise EquationFormatError(f"term {pos}: {exc}") from exc
    try:
        return QuadEquation(terms)
    except ValueError as exc:
        raise EquationFormatError(str(exc)) from exc


def equation_from_json(text):
    try:
        obj = json.loads(text, parse_int=parse_int)   # of any length
    except json.JSONDecodeError as exc:
        raise EquationFormatError(f"invalid JSON: {exc}") from exc
    return equation_from_obj(obj)


# ---------------------------------------------------------------------------
# Rendering, in text or LaTeX, highest (p, q, z-power) term first.
# Term z^s * f^(p) * f^(q) has recurrence row n (a(t) = 0 for t < 0):
#   linear (q = -1)  (n-s+1)...(n-s+p) * a(n-s+p)
#   product          Sum_{k=0..n-s} (k+1)...(k+p) * (n-s-k+1)...(n-s-k+q)
#                                   * a(k+p) * a(n-s-k+q)
#   constant         [n=s]


def _shift(var, offset):
    """'n', 'n+2', 'n-1'."""
    return f"{var}{offset:+d}" if offset else var


def _rising(var, first, last):
    """Weight factors var+first .. var+last, parenthesized unless bare."""
    return [w if w.isalpha() else f"({w})"
            for w in (_shift(var, off) for off in range(first, last + 1))]


def _render(eq, mode, latex):
    """The equation in mode 'ode' or 'recurrence', as LaTeX or text."""
    if mode not in ("ode", "recurrence"):
        raise ValueError(f"unknown render mode {mode!r}")
    sep = r"\," if latex else "*"

    def power(base, exp):
        return f"{base}^{{{exp}}}" if latex else f"{base}^{exp}"

    def deriv(order):
        return "y" + "'" * order if order <= 3 else power("y", f"({order})")

    out = ""
    for s, mono, coeff in reversed(eq.terms):
        p, q = mono.p, mono.q
        mag = abs(coeff)
        factors = []
        if mag != 1:
            factors.append(rf"\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
                           if latex and mag.denominator != 1
                           else format_rational(mag))
        if mode == "ode":
            if s:
                factors.append("z" if s == 1 else power("z", s))
            if p == -1:
                if not factors:
                    factors.append("1")
            elif q == -1:
                factors.append(deriv(p))
            elif p == q:
                factors.append(power("y" if p == 0 else f"({deriv(p)})", 2))
            else:
                factors += [deriv(q), deriv(p)]
        elif p == -1:
            factors.append(f"[n={s}]")
        elif q == -1:
            factors += _rising("n", 1 - s, p - s)
            factors.append(f"a({_shift('n', p - s)})")
        else:
            body = sep.join(_rising("k", 1, p) + _rising("n-k", 1 - s, q - s)
                            + [f"a({_shift('k', p)})",
                               f"a({_shift('n-k', q - s)})"])
            upper = _shift("n", -s)
            factors.append(rf"\sum_{{k=0}}^{{{upper}}} {body}" if latex
                           else f"Sum({body}, k=0..{upper})")
        if out:
            out += " - " if coeff < 0 else " + "
        elif coeff < 0:
            out = "-"
        out += sep.join(factors)
    return out + " = 0"


def render_text(eq, mode):
    """The equation as plain text, mode 'ode' or 'recurrence'."""
    return _render(eq, mode, latex=False)


def render_latex(eq, mode):
    """The equation as LaTeX, mode 'ode' or 'recurrence'."""
    return _render(eq, mode, latex=True)
