"""Check equations against prefixes, extend sequences term by term, and
generate reference sequences from classical integer triangles.

Extension realizes the recurrence as a recursion: row n introduces the
single unknown a_{n + max_shift}, solved in integer numerators like check;
rows that introduce nothing new must vanish on the initial terms.  Both
read rows through `QuadEquation.row_numerator`, one convolution per group
of terms that share their lower derivative order, on one `Derivatives`
whose orders and group series `extend` keeps in step as the sequence
grows: each step appends a zero, rescales to a common denominator when
the new term needs one, and then sets the new term."""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from quadguess.errors import (InconsistentInitialTermsError,
                              InsufficientTermsError,
                              LeadingCoefficientZeroError, NonlinearStepError)
from quadguess.equations import Derivatives
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
    """Evaluate every fully determined row (n = 0 .. N - max_shift) of the
    equation on the prefix; pass iff all vanish exactly."""
    last = prefix.last_index - eq.max_shift
    derivs = Derivatives(*prefix.scaled())
    for n in range(0, last + 1):
        numerator = eq.row_numerator(derivs, n)
        if numerator != 0:
            residual = Fraction(numerator, eq.coeff_den * derivs.den ** 2)
            return CheckReport(passed=False, rows_checked=n + 1,
                               first_failure=n, residual=residual)
    return CheckReport(passed=True, rows_checked=max(0, last + 1))


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
        # a linear term's second factor is the constant 1, den when scaled
        other = derivs.den if q == -1 else derivs[q][0]
        slope += coeff * ((2 if q == p else 1) * falling_weight(m, p) * other)
    return slope


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
    shift = eq.max_shift
    if len(values) < shift:
        raise InsufficientTermsError(
            f"extension needs at least {shift} initial terms, got {len(values)}")
    report = check(eq, initial)
    if not report.passed:
        raise InconsistentInitialTermsError(report.first_failure,
                                            report.residual)
    # copies the prefix's cached scaled view, which must not grow
    derivs = Derivatives(*initial.scaled())
    for _ in range(count):
        n = len(derivs.nums) - shift
        derivs.append_zero()
        slope = _slope(eq, derivs, n)
        if slope == 0:
            raise LeadingCoefficientZeroError(n)
        term = Fraction(-eq.row_numerator(derivs, n), slope * derivs.den)
        values.append(term)
        if derivs.den % term.denominator:
            derivs.scale(lcm(derivs.den, term.denominator) // derivs.den)
        derivs.set_last(term.numerator * (derivs.den // term.denominator))
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
    """First `count` terms of a named reference sequence."""
    if count < 1:
        raise ValueError("count must be >= 1")
    try:
        gen = ORACLES[name]
    except KeyError:
        raise ValueError(f"unknown oracle {name!r} "
                         f"(known: {', '.join(sorted(ORACLES))})") from None
    return SequencePrefix(gen(count))
