"""Check equations against prefixes, extend sequences term by term, and
generate reference sequences from classical integer triangles.

`check`, `extend` and `guess`'s verification are one walk over the terms
(`_walk`), the one exact row loop.  It starts from an empty `Derivatives`
and puts the given terms in `_SETTLE` at a time, one rescale to a common
denominator per block rather than per term (each term of an EGF brings a
new factor), and each rescale of given terms settles the store, so every
entry is over the block's denominator.  Extension runs on the same
schedule: a solved term's new factor multiplies the 8 or fewer entries
put since the last settle, and a factor pending on the older ones, which
the store folds in once per 8 solved terms.  Row n reads terms up to
n + max_shift and is read through `QuadEquation.row_numerator` as soon
as that term is in: its products as derivatives of squares, each square
coefficient computed once, with those of the other orders of its total
index from one set of products of two terms, and kept while later rows
read it.  An order alone in its
group may fill long walks from 8-term chunks of its f^(j) instead, each
chunk evaluated once at 15 points, block by block at each block's own
denominator; the store picks that path from its input, and no chunk
reads the newest term.  The store keeps the numerators, den, the
pending factor, those coefficients and the chunk values, which take the
rescale factors when next read.
Linear terms and `_slope` read single entries (`Derivatives.entry`).  A
row on given terms must vanish; `check` reports the first that does not
(`Fraction` normalizes the residual).  Extension realizes the recurrence
as a recursion: each later row introduces the single unknown
a_{n + max_shift}, which it solves exactly, as x = X / d in lowest terms
over the store's den: the store's new denominator is den * d, and X is
the term's numerator over it."""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from quadguess.errors import (InconsistentInitialTermsError,
                              InsufficientTermsError,
                              LeadingCoefficientZeroError, NonlinearStepError)
from quadguess.equations import _SETTLE, Derivatives
from quadguess.exact import falling_weight
from quadguess.prefix import SequencePrefix


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    rows_checked: int
    first_failure: int | None = None
    residual: Fraction | None = None

    @property
    def vacuous(self):
        """True when the prefix determines no row, so nothing was tested."""
        return self.rows_checked == 0


def check(eq, prefix):
    """Evaluate every fully determined row (n = 0 .. N - max_shift - 1,
    N the prefix's length) of the equation on the prefix; pass iff all
    vanish exactly."""
    failure = _walk(eq, prefix.values, 0)
    if failure is not None:
        n, residual = failure
        return CheckReport(passed=False, rows_checked=n + 1,
                           first_failure=n, residual=residual)
    return CheckReport(passed=True,
                       rows_checked=max(0, len(prefix) - eq.max_shift))


def _slope(eq, derivs, n):
    """Coefficient of nums[t], t = n + max_shift, in eq.row_numerator(derivs,
    n), an int.  Only terms with p - s = max_shift reach index t: at
    convolution index m and, if q = p, at 0 too (NonlinearStepError when
    also m = 0)."""
    slope = 0
    for s, mono, coeff in eq.int_terms:
        m = n - s
        p, q = mono.p, mono.q
        if m < 0 or p - s != eq.max_shift:
            continue
        if q == p and m == 0:
            raise NonlinearStepError(n)
        slope += coeff * ((2 if q == p else 1) * falling_weight(m, p)
                          * derivs.entry(q, 0))
    return slope


def _walk(eq, values, count):
    """The one row loop: read rows 0, 1, ... of eq on the terms values,
    then grow them by count terms (values must be a list when count > 0).
    Row n reads terms up to t = n + max_shift; if term t is not in, the
    given terms up to t + _SETTLE - 1 go in.  The first row on given terms
    that does not vanish is returned as (n, residual).  Each later row is
    linear in term t: read with a placeholder 0 in, its numerator and
    slope give a_t * den = x = X / d, reduced by one gcd, with d > 0.  As
    gcd(X, d) = 1, the lcm of den and a_t's denominator is exactly den *
    d, so the store rescales by d and X replaces the placeholder
    (`Derivatives.set_last`); a_t = x / den, reduced by gcd(X, den),
    joins values.  The one square coefficient per order that read the
    placeholder, S_j[t - j], then gains its part of the pair (j, t),
    2 (j)_j (t)_j a_j a_t, and is not recomputed.  Returns None when every
    given row vanishes."""
    shift = eq.max_shift
    known = len(values)
    derivs = Derivatives([], 1)
    for n in range(known - shift + count):
        t = n + shift
        have = len(derivs.nums)
        if have <= t and have < known:
            derivs.put(values[have:t + _SETTLE])
        if t < known:
            numerator = eq.row_numerator(derivs, n)
            if numerator:
                return n, Fraction(numerator, eq.coeff_den * derivs.den ** 2)
            continue
        derivs.put([0])                # a placeholder for term t
        slope = _slope(eq, derivs, n)
        if slope == 0:
            raise LeadingCoefficientZeroError(n)
        x = Fraction(-eq.row_numerator(derivs, n), slope)
        values.append(x / derivs.den)
        derivs.set_last(x.numerator, x.denominator)
    return None


def extend(eq, initial, count):
    """Append `count` new terms to `initial` using the recurrence of eq.

    Warm-up rows (those fully determined by the initial terms) must vanish;
    afterwards each row is linear in exactly one new term, which is solved
    for exactly.  Raises LeadingCoefficientZeroError when the new term's
    coefficient vanishes, TypeError when `count` is not an int and
    ValueError when it is negative."""
    if type(count) is not int:  # rejects bools and floats
        raise TypeError(f"count must be an int, not {count!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    values = list(initial.values)
    if len(values) < eq.max_shift:
        raise InsufficientTermsError(
            f"extension needs at least {eq.max_shift} initial terms, "
            f"got {len(values)}")
    failure = _walk(eq, values, count)
    if failure is not None:
        raise InconsistentInitialTermsError(*failure)
    return SequencePrefix(values)


# ---------------------------------------------------------------------------
# Reference sequences.  Each is generated by a classical method independent
# of the equation machinery above: defining recurrences and integer
# triangles, never the guessed equations themselves.


def _tangent_numbers(count):
    """Tangent numbers T_1 .. T_count (1, 2, 16, 272, ...), computed in
    place (Brent & Harvey, "Fast computation of Bernoulli, tangent and
    secant numbers", 2011)."""
    t = [0] * (count + 1)
    if count:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _zigzag_numbers(count):
    """Up/down numbers 1, 1, 1, 2, 5, 16, 61, ... via the boustrophedon
    triangle (each row is the reversed running sum of the previous)."""
    out = []
    row = [1]
    for n in range(count):
        out.append(row[-1])
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
    return out


def _bell_numbers(count):
    """Bell numbers via the Bell triangle."""
    out = []
    row = [1]
    for n in range(count):
        out.append(row[0])
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return out


def _egf(ints):
    return [Fraction(v, factorial(n)) for n, v in enumerate(ints)]


def _oracle_bernoulli_egf(count):
    """B_n / n! with B_1 = -1/2, B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))
    and B_n = 0 at the other odd n."""
    vals = [Fraction(1), Fraction(-1, 2)][:count]
    tangent = _tangent_numbers((count - 1) // 2)
    for n in range(2, count):
        m = n // 2
        if n % 2:
            vals.append(Fraction(0))
        else:
            vals.append(Fraction((-1) ** (m - 1) * n * tangent[m - 1],
                                 4**m * (4**m - 1) * factorial(n)))
    return vals


def _oracle_euler_egf(count):
    zig = _zigzag_numbers(count)
    vals = []
    for n in range(count):
        if n % 2:
            vals.append(Fraction(0))
        else:
            vals.append(Fraction((-1) ** (n // 2) * zig[n], factorial(n)))
    return vals


def _oracle_bell_egf(count):
    return _egf(_bell_numbers(count))


def _oracle_zigzag_egf(count):
    return _egf(_zigzag_numbers(count))


def _oracle_zeta_rescaled(count):
    """zeta(2n+2) / pi^(2n+2) = (-1)^n 2^(2n+1) B_{2n+2} / (2n+2)!
    = T_{n+1} / (2 (4^(n+1) - 1) (2n+1)!)."""
    return [Fraction(t, 2 * (4 ** (n + 1) - 1) * factorial(2 * n + 1))
            for n, t in enumerate(_tangent_numbers(count))]


def _oracle_lambertw(count):
    """Taylor coefficients of the principal Lambert W branch at 0:
    0, then (-n)^(n-1)/n!."""
    vals = [Fraction(0)]
    for n in range(1, count):
        vals.append(Fraction((-n) ** (n - 1), factorial(n)))
    return vals


def _oracle_exp(count):
    return [Fraction(1, factorial(n)) for n in range(count)]


ORACLES = {
    "bernoulli-egf": _oracle_bernoulli_egf,
    "euler-egf": _oracle_euler_egf,
    "bell-egf": _oracle_bell_egf,
    "zigzag-egf": _oracle_zigzag_egf,
    "zeta-rescaled": _oracle_zeta_rescaled,
    "lambertw": _oracle_lambertw,
    "exp": _oracle_exp,
}


def oracle_sequence(name, count):
    """First `count` terms of a named reference sequence.  Raises TypeError
    when `count` is not an int and ValueError when it is below 1."""
    if type(count) is not int:  # rejects bools and floats
        raise TypeError(f"count must be an int, not {count!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    try:
        gen = ORACLES[name]
    except KeyError:
        raise ValueError(f"unknown oracle {name!r} "
                         f"(known: {', '.join(sorted(ORACLES))})") from None
    return SequencePrefix(gen(count))
