"""Concrete quadratic differential equations and their recurrence rows.

A QuadEquation is a sum of terms coeff * z^s * f^(p) * f^(q).  Recurrence
row n is the z^n Taylor coefficient of the equation on a sequence prefix.
For the prefix scaled to nums / den, `Derivatives` holds the Taylor
coefficients of each derivative order p, times den, built once per order
through `exact.falling_weight`, the one weight function.  One evaluator,
`term_numerator`, gives the coefficient of each product f^(p) * f^(q) as a
dot product of two such sequences, an integer numerator over den**2;
`guess`, `check` and `extend` all read their rows through it.  Every step
is a ring operation, so the same evaluator on nums and den reduced mod P
gives the rows mod P.

Wire format: {"terms": [{"s": int, "p": int, "q": int, "c": "p/q"}, ...]}
with p >= q >= -1 (not both -1).
"""

import json
from fractions import Fraction
from math import lcm
from operator import mul

from quadguess.errors import EquationFormatError
from quadguess.exact import falling_weight, format_rational, parse_rational
from quadguess.monomials import monomial_of_orders


class Derivatives:
    """Taylor coefficients of f, f', f'', ... for the sequence nums / den,
    times den: order p holds falling_weight(j, p) * nums[j + p] for
    j = 0 .. len(nums) - p - 1.  Each order is built on first use and kept;
    `append_zero`, `scale` and `set_last` keep every built order in step
    with `nums` as a sequence grows."""

    __slots__ = ("nums", "den", "_orders")

    def __init__(self, nums, den):
        self.nums = list(nums)
        self.den = den
        self._orders = {}

    def __getitem__(self, p):
        seq = self._orders.get(p)
        if seq is None:
            seq = self._orders[p] = [falling_weight(j, p) * x
                                     for j, x in enumerate(self.nums[p:])]
        return seq

    def append_zero(self):
        """Append a 0 to nums, and to every built order it reaches."""
        self.nums.append(0)
        for p, seq in self._orders.items():
            if len(self.nums) > p:
                seq.append(0)

    def set_last(self, x):
        """Replace the last nums entry by x, in every built order too."""
        self.nums[-1] = x
        t = len(self.nums) - 1
        for p, seq in self._orders.items():
            if t >= p:
                seq[-1] = falling_weight(t - p, p) * x

    def scale(self, factor):
        """Multiply den, nums and every built order by factor."""
        self.den *= factor
        self.nums = [x * factor for x in self.nums]
        for p, seq in self._orders.items():
            self._orders[p] = [x * factor for x in seq]


def term_numerator(derivs, m, p, q):
    """The z^m coefficient of f^(p) * f^(q) times den**2 on the sequence
    derivs.nums / derivs.den, an int; order -1 stands for the constant 1,
    and the coefficient is 0 for m < 0.  Requires
    len(derivs.nums) > m + max(p, q)."""
    if m < 0:
        return 0
    den = derivs.den
    if p == -1:                      # constant term
        return den * den if m == 0 else 0
    if q == -1:                      # linear: one coefficient of f^(p)
        return derivs[p][m] * den
    return sum(map(mul, derivs[p][:m + 1], derivs[q][m::-1]))


class QuadEquation:
    """Sum of terms coeff * z^s * f^(p) * f^(q), coefficients exact and
    nonzero, terms sorted by (monomial index, z-power).  `coeff_den` is the
    lcm of the coefficients' denominators, and `int_terms` holds the terms
    with their coefficients times it, as ints."""

    __slots__ = ("terms", "coeff_den", "int_terms")

    def __init__(self, terms):
        merged = {}
        monos = {}
        for s, mono, coeff in terms:
            if s < 0:
                raise ValueError("z-power must be >= 0")
            key = (mono.index, s)
            merged[key] = merged.get(key, Fraction(0)) + Fraction(coeff)
            monos[key] = mono
        cleaned = []
        for key in sorted(merged):
            if merged[key] != 0:
                cleaned.append((key[1], monos[key], merged[key]))
        if not cleaned:
            raise ValueError("an equation needs at least one nonzero term")
        self.terms = tuple(cleaned)
        self.coeff_den = lcm(*(c.denominator for _, _, c in cleaned))
        self.int_terms = tuple(
            (s, mono, c.numerator * (self.coeff_den // c.denominator))
            for s, mono, c in cleaned)

    def __eq__(self, other):
        return isinstance(other, QuadEquation) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"QuadEquation({render_text(self, 'ode')!r})"

    @property
    def max_shift(self):
        """max over terms of (max(p, q, 0) - s): row n reads prefix indices
        up to n + max_shift, and row n introduces term n + max_shift when
        extending."""
        return max(t[1].max_order - t[0] for t in self.terms)

    def row_numerator(self, derivs, n):
        """Row n times coeff_den * den**2 on the sequence derivs.nums /
        derivs.den, an int (indices up to n + max_shift must fit)."""
        return sum(coeff * term_numerator(derivs, n - s, mono.p, mono.q)
                   for s, mono, coeff in self.int_terms)

    def row_value(self, prefix, n):
        """Exact value of recurrence row n on a prefix (all indices must
        fit: n + max_shift <= prefix.last_index)."""
        nums, den = prefix.scaled()
        derivs = Derivatives(nums[:n + self.max_shift + 1], den)
        return Fraction(self.row_numerator(derivs, n),
                        self.coeff_den * den * den)

    def rescaled(self, lam):
        """Equation satisfied by b_n = a_n * lam^n whenever self is
        satisfied by a_n: each coefficient picks up lam^(s - p - max(q,0))."""
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("rescale factor must be nonzero")
        out = []
        for s, mono, coeff in self.terms:
            exp = s - mono.p - max(mono.q, 0)
            out.append((s, mono, coeff * lam ** exp))
        return QuadEquation(out)


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
            s, p, q = item["s"], item["p"], item["q"]
            coeff = parse_rational(str(item["c"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise EquationFormatError(f"term {pos}: {exc}") from exc
        for key, value in (("s", s), ("p", p), ("q", q)):
            if type(value) is not int:  # rejects floats, strings and bools
                raise EquationFormatError(
                    f"term {pos}: {key!r} must be a JSON integer, "
                    f"not {value!r}")
        if s < 0:
            raise EquationFormatError(f"term {pos}: z-power must be >= 0")
        if not (p >= q >= -1) or (p, q) == (-1, -1):
            raise EquationFormatError(
                f"term {pos}: orders must satisfy p >= q >= -1, not both -1")
        terms.append((s, monomial_of_orders(p, q), coeff))
    try:
        return QuadEquation(terms)
    except ValueError as exc:
        raise EquationFormatError(str(exc)) from exc


def equation_from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EquationFormatError(f"invalid JSON: {exc}") from exc
    return equation_from_obj(obj)


# ---------------------------------------------------------------------------
# Rendering: canonical expression trees, with text and LaTeX views.
# Terms render highest (monomial index, z-power) first.


def render_tree(eq, mode):
    """Canonical JSON-able expression tree ('ode' or 'recurrence')."""
    if mode == "ode":
        terms = []
        for s, mono, coeff in reversed(eq.terms):
            orders = [] if mono.p == -1 else (
                [mono.p] if mono.q == -1 else sorted((mono.p, mono.q)))
            terms.append({"coeff": format_rational(coeff),
                          "z_power": s, "orders": orders})
        return {"kind": "ode", "terms": terms, "rhs": "0"}
    if mode == "recurrence":
        terms = []
        for s, mono, coeff in reversed(eq.terms):
            p, q = mono.p, mono.q
            entry = {"coeff": format_rational(coeff)}
            if p == -1:
                entry.update(kind="constant", at=s)
            elif q == -1:
                # coeff * (n-s+1)...(n-s+p) * a(n-s+p)
                entry.update(kind="linear",
                             weight_offsets=list(range(1 - s, p - s + 1)),
                             index_offset=p - s)
            else:
                # coeff * Sum_{k=0..n-s} (k+1)..(k+p) * (n-s-k+1)..(n-s-k+q)
                #         * a(k+p) * a(n-s-k+q)
                entry.update(kind="convolution",
                             upper_offset=-s,
                             k_weight_offsets=list(range(1, p + 1)),
                             k_index_offset=p,
                             n_weight_offsets=list(range(1 - s, q - s + 1)),
                             n_index_offset=q - s)
            terms.append(entry)
        return {"kind": "recurrence", "terms": terms, "rhs": "0"}
    raise ValueError(f"unknown render mode {mode!r}")


def _fmt_shift(var, offset, bare=False):
    """'n', 'n+2', 'n-1' (parenthesized unless bare or offset-free)."""
    if offset == 0:
        body = var
    elif offset > 0:
        body = f"{var}+{offset}"
    else:
        body = f"{var}-{-offset}"
    if bare or offset == 0:
        return body
    return f"({body})"


def _deriv_text(order):
    if order <= 3:
        return "y" + "'" * order
    return f"y^({order})"


def _deriv_latex(order):
    if order <= 3:
        return "y" + "'" * order
    return f"y^{{({order})}}"


def _join_signed(pieces):
    """Combine (sign, body) pairs into 'a - b + c'."""
    out = ""
    for i, (negative, body) in enumerate(pieces):
        if i == 0:
            out = ("-" if negative else "") + body
        else:
            out += (" - " if negative else " + ") + body
    return out


def _coeff_factor(coeff_str, latex=False):
    """(negative, multiplier-prefix) for a coefficient string."""
    negative = coeff_str.startswith("-")
    mag = coeff_str[1:] if negative else coeff_str
    if mag == "1":
        return negative, ""
    if latex and "/" in mag:
        num, den = mag.split("/")
        return negative, f"\\tfrac{{{num}}}{{{den}}}"
    return negative, mag + ("" if latex else "*")


def _ode_factors(term, latex=False):
    parts = []
    z = term["z_power"]
    if z == 1:
        parts.append("z")
    elif z > 1:
        parts.append(f"z^{{{z}}}" if latex else f"z^{z}")
    orders = term["orders"]
    deriv = _deriv_latex if latex else _deriv_text
    if not orders:
        parts.append("1")
    elif len(orders) == 1:
        parts.append(deriv(orders[0]))
    elif orders[0] == orders[1]:
        base = deriv(orders[0])
        if orders[0] == 0:
            parts.append("y^{2}" if latex else "y^2")
        else:
            parts.append(f"({base})^{{2}}" if latex else f"({base})^2")
    else:
        parts.append(deriv(orders[0]))
        parts.append(deriv(orders[1]))
    sep = r"\," if latex else "*"
    return sep.join(parts)


def _weight_text(var, offsets, latex=False):
    factors = []
    for off in offsets:
        body = _fmt_shift(var, off, bare=False)
        if body == var:
            factors.append(var)
        else:
            factors.append(body)
    sep = r"\," if latex else "*"
    return sep.join(factors)


def _seq_ref(var, offset, latex=False):
    inner = _fmt_shift(var, offset, bare=True)
    return f"a({inner})"


def _recurrence_term_body(term, latex=False):
    sep = r"\," if latex else "*"
    kind = term["kind"]
    if kind == "constant":
        return f"[n={term['at']}]"
    if kind == "linear":
        parts = []
        w = _weight_text("n", term["weight_offsets"], latex)
        if w:
            parts.append(w)
        parts.append(_seq_ref("n", term["index_offset"], latex))
        return sep.join(parts)
    # convolution
    parts = []
    wk = _weight_text("k", term["k_weight_offsets"], latex)
    if wk:
        parts.append(wk)
    wn = _weight_text("n-k", term["n_weight_offsets"], latex)
    if wn:
        parts.append(wn)
    parts.append(_seq_ref("k", term["k_index_offset"], latex))
    parts.append(_seq_ref("n-k", term["n_index_offset"], latex))
    body = sep.join(parts)
    upper = _fmt_shift("n", term["upper_offset"], bare=True)
    if latex:
        return f"\\sum_{{k=0}}^{{{upper}}} {body}"
    return f"Sum({body}, k=0..{upper})"


def render_text(eq, mode):
    tree = render_tree(eq, mode)
    pieces = []
    for term in tree["terms"]:
        negative, prefix = _coeff_factor(term["coeff"], latex=False)
        if tree["kind"] == "ode":
            body = _ode_factors(term, latex=False)
        else:
            body = _recurrence_term_body(term, latex=False)
        pieces.append((negative, prefix + body))
    return _join_signed(pieces) + " = 0"


def render_latex(eq, mode):
    tree = render_tree(eq, mode)
    pieces = []
    for term in tree["terms"]:
        negative, prefix = _coeff_factor(term["coeff"], latex=True)
        if tree["kind"] == "ode":
            body = _ode_factors(term, latex=True)
        else:
            body = _recurrence_term_body(term, latex=True)
        pieces.append((negative, prefix + (r"\," if prefix else "") + body))
    return _join_signed(pieces) + " = 0"
