"""Concrete quadratic differential equations and their recurrence rows.

A QuadEquation is a sum of terms coeff * z^s * f^(p) * f^(q).  Recurrence
row n is the z^n Taylor coefficient of the equation on a sequence prefix.
Every product of derivatives is a sum of derivatives of squares
S_j = (f^(j))**2, with the Lucas triangle's weights: 2 f^(q) * f^(q) =
2 S_q and, for r = p - q >= 1, 2 f^(p) * f^(q) = the sum over k <= r / 2
of (-1)^k r / (r - k) C(r - k, k) (S_{q+k})^(r-2k).  So `QuadEquation`
plans its products, when a row first reads them, as integral terms
(s, a, j, c): row n is half the sum of c * falling_weight(n - s, a) *
S_j[n - s + a].  For the prefix scaled to nums / den,
`Derivatives` keeps nums, den and the square coefficients rows read,
times den**2.  S_j[T - 2j] is the sum over i + k = T of (i)_j (k)_j
nums[i] nums[k], so the orders of one total index T read the same
products nums[i] * nums[T - i], made once per walk.  An order alone in
its group fills long walks block by block from 8-term chunks of f^(j)
instead (`_Chunks`): each chunk evaluated once at 15 small points, each
block of 8 coefficients 15 dot products of those values and one exact
interpolation, when its input says that pays (`Derivatives`' rule).
Linear and constant terms read one entry of f^(p) per row
(`Derivatives.entry`).  Every entry is a ring operation on nums and den,
so the same store on them reduced mod P gives the orders mod P
(`guessing._packed_orders`).

Wire format: {"terms": [{"s": int, "p": int, "q": int, "c": "p/q"}, ...]}
with p >= q >= -1; p = q = -1 is the constant term.
"""

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, inf, lcm
from operator import add, mul, sub

from quadguess.errors import EquationFormatError
from quadguess.exact import (as_rational, clear_denominators,
                             falling_weight, format_rational, parse_int,
                             parse_rational)


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


class Derivatives:
    """The sequence nums / den and, times den**2, the square coefficients
    rows read.  `entry(j, u)` is entry u of f^(j): falling_weight(u, j) *
    nums[u + j] for j >= 0, and den at u = 0, 0 after, for f^(-1) = 1;
    `derivs[j]` lists f^(j) and keeps nothing.  `_squares[j]` maps u to
    S_j[u], the z^u coefficient of (f^(j))**2, computed by `_square`, kept
    until `drop_square` and rescaled by `scale`.  Only S_j[t - j], t the
    last index of nums, reads the last term, through the pair (j, t):
    `set_last` swaps that pair's part, so extend's placeholder is fixed
    up, never recomputed.

    An order j alone in its group may fill the coefficients of its block
    tau >= 2, u in [8 tau, 8 tau + 8), from 8-term chunks of f^(j)
    (`_chunks[j]`, a `_Chunks`): the pairs (i, u - i) with both indices 8
    or more are chunk pairs beta + gamma = tau or tau - 1, beta, gamma >=
    1, and the pairs with an index below 8 stay direct products, so no
    chunk reads the last term.  The rule is read at most once per block
    until it switches the order, which then stays switched, from what the
    store sees: the block index, the entries' bit lengths and zeros, and
    the number of orders in the group.  A group of two or more orders stays
    direct, as its orders share one list of products: in an emulation,
    bell-egf's S_0 and S_1 over a 202-term walk took 7.4 ms shared
    against 8.7 ms as two chunked squares, and euler-egf's at 150 terms
    1.4 ms against 3.7.  An order alone switches at block tau when its
    chunk pairs cost more than `_BLOCK_COST` more as direct products than
    as 15 products of chunk values per pair, an a-bit by b-bit product
    costing a * b (`_Chunks.decide`): zeros cost nothing, so an even
    sequence, with 16 of each 64 products nonzero, stays direct, and so
    do small entries and small blocks."""

    __slots__ = ("nums", "den", "_squares", "_chunks")

    def __init__(self, nums, den):
        self.nums = list(nums)
        self.den = den
        self._squares = defaultdict(dict)
        self._chunks = {}

    def __getitem__(self, j):
        if j == 0:
            return self.nums[:]
        return [self.entry(j, u) for u in range(len(self.nums) - max(j, 0))]

    def entry(self, j, u):
        """Entry u of f^(j)'s sequence."""
        if j >= 0:
            return falling_weight(u, j) * self.nums[u + j]
        return self.den if u == 0 else 0

    def entries(self, j, start, stop):
        """Entries start .. stop - 1 of f^(j)'s sequence, j >= 0."""
        if j:
            return [self.entry(j, u) for u in range(start, stop)]
        return self.nums[start:stop]

    def put(self, terms):
        """Append terms (ints or Fractions) to the sequence, after one
        rescale to their common denominator."""
        common = lcm(self.den, *(x.denominator for x in terms))
        if common != self.den:
            self.scale(common // self.den)
        self.nums += [x.numerator * (self.den // x.denominator) for x in terms]

    def set_last(self, term):
        """Replace the last term by term, and its part in the kept square
        coefficients that read it."""
        t = len(self.nums) - 1
        reads = [(j, window, t - j) for j, window in self._squares.items()
                 if t - j in window]
        for j, window, u in reads:
            window[u] -= self._cross(j, u)
        self.nums.pop()
        self.put((term,))
        for j, window, u in reads:
            window[u] += self._cross(j, u)

    def scale(self, factor):
        """Multiply den and nums by factor, the kept squares and chunk
        products by factor**2; chunk values take it when next read."""
        self.den *= factor
        self.nums = [x * factor for x in self.nums]
        square = factor * factor
        for window in self._squares.values():
            for u in window:
                window[u] *= square
        for chunks in self._chunks.values():
            if chunks.parts is not None:
                chunks.pending *= factor
                for coeffs in chunks.parts.values():
                    coeffs[:] = map(square.__mul__, coeffs)

    def _square(self, total, orders):
        """Keep S_j[total - 2j] for each order j of `orders` (ascending)
        with 2j <= total: the sum over i + k = total of (i)_j (k)_j nums[i]
        nums[k].  Each product nums[i] * nums[total - i], i <= total / 2,
        is made once: streamed into the sum for one order, else put in one
        list that each order weights (`_pair_weights`).  An order alone,
        in a block from the one its rule switched at, reads its pairs with
        both indices 8 or more from its chunks (`_Chunks.part`)."""
        if len(orders) == 1:
            chunks = self._chunks.get(orders[0])
            if chunks is None:
                chunks = self._chunks[orders[0]] = _Chunks(orders[0])
            if total >= chunks.due and chunks.fill(self, total):
                return
        nums = self.nums
        if 2 * orders[-1] > total:
            orders = [j for j in orders if 2 * j <= total]
        half = (total + 1) // 2          # pairs (i, total - i) for i < half
        low = orders[0]
        products = map(mul, nums[low:half], nums[total - low:total - half:-1])
        if len(orders) > 1:
            products = list(products)
        middle = 0 if total % 2 else nums[half] ** 2
        for j in orders:
            if j:
                weights = _pair_weights(j, total)
                value = 2 * sum(map(mul, products, weights[low:] if low
                                    else weights)) + middle * weights[-1]
            else:
                value = 2 * sum(products) + middle
            self._squares[j][total - 2 * j] = value

    def _cross(self, j, u):
        """The part of S_j[u] that reads nums[u + j], the last term:
        2 * F[0] * F[u] for F = f^(j), or F[0]**2 at u = 0."""
        first = self.entry(j, 0)
        return 2 * first * self.entry(j, u) if u else first * first

    def drop_square(self, u):
        """Drop the kept square coefficient of index u of every order."""
        for window in self._squares.values():
            window.pop(u, None)


_CHUNK = 8             # terms per chunk; a product of two has 15 coefficients
# The fixed cost of a block on the chunk path, in bit-products (an a-bit
# by b-bit product costs about a * b of them below CPython's Karatsuba
# cutoff, about 1 ps each on the x86-64 it was measured on): evaluating a
# chunk, interpolating, the lazy rescale and the bookkeeping took 60-120
# us per block there.  At 10**8, exp's y y' - y^2 stays direct over 150
# terms (from block 4 on chunks, its check took 2.47 ms against 2.04),
# and lambertw's and zeta-rescaled's switch by block 13.
_BLOCK_COST = 10 ** 8


class _Chunks:
    """Order j's chunk pairs: the part of S_j[u] of its pairs (i, u - i)
    with both indices 8 or more, in the blocks from `start` on.  Chunk
    beta of F = f^(j) is the polynomial c_beta(x) = the sum over r < 8 of
    F[8 beta + r] x^r, evaluated once at the 15 points of `_toom`
    (`values[k][beta]`, point k; chunk 0 is not read), and `parts[sigma]`
    are the 15 coefficients of the sum over beta + gamma = sigma, beta,
    gamma >= 1, of c_beta c_gamma: 15 symmetric dot products of chunk
    values and one exact interpolation.  Coefficient r of parts[sigma] is
    part of S_j[8 sigma + r], so block tau reads parts[tau] and the high
    half of parts[tau - 1]; the two newest are kept and older ones made
    again if read.  A rescale multiplies the parts by its factor squared
    and `pending` by its factor, which the values take when next read,
    once per block.  `due` is the first total index `_square` hands on
    (`fill`): the next block's before the switch, `start`'s after.
    Until the switch, `sizes` sums over the chunks the rule has measured,
    with bit lengths less den's, which a rescale does not move: [the last
    chunk measured, each chunk's nonzero entries times its largest bit
    length, the nonzero entries, the largest lengths]."""

    __slots__ = ("order", "start", "due", "sizes", "pending", "values",
                 "parts")

    def __init__(self, order):
        self.order = order
        self.start = inf           # the block the chunk path starts at
        self.due = 2 * order + 2 * _CHUNK
        self.sizes = [0, 0, 0, 0]
        self.pending = 1
        self.values = self.parts = None

    def fill(self, derivs, total):
        """Keep S_j[total - 2j] if its block takes the chunk path, after
        reading the rule if its block is new, and say whether it did."""
        j = self.order
        u = total - 2 * j
        tau = u // _CHUNK
        if self.values is None:
            self.decide(derivs, tau)
            if tau < self.start:
                return False
        near = derivs.entries(j, 0, _CHUNK)
        far = derivs.entries(j, u + 1 - _CHUNK, u + 1)[::-1]
        derivs._squares[j][u] = (2 * sum(map(mul, near, far))
                                 + self.part(derivs, u))
        return True

    def decide(self, derivs, tau):
        """Read the rule for block tau, and switch if it says so: when
        half of the sum over beta + gamma = tau of A_beta A_gamma, the
        direct products' cost, less 15 halves of that of E_beta E_gamma
        and of E_{tau/2}**2 for even tau, the chunk products', is more
        than `_BLOCK_COST`.  A is a chunk's count of nonzero entries times
        its largest bit length L, E = L + 23 the bits of its values at
        |x| <= 7, and each sum is taken at the chunks' means: p mean(A)**2
        and p mean(E)**2 over the p = tau - 1 chunks read.  Otherwise the
        rule is next read at the next block, or at block 2 tau when the
        chunk products cost at least as much as the direct ones even
        before the fixed cost, as for an even sequence."""
        j = self.order
        d = derivs.den.bit_length()
        sizes = self.sizes
        for beta in range(sizes[0] + 1, tau):
            chunk = derivs.entries(j, _CHUNK * beta, _CHUNK * beta + _CHUNK)
            nonzero = _CHUNK - chunk.count(0)
            top = max(map(int.bit_length, chunk)) - d
            sizes[0] = beta
            sizes[1] += nonzero * top
            sizes[2] += nonzero
            sizes[3] += top
        pairs = tau - 1
        direct = sizes[1] + sizes[2] * d        # the sum of the chunks' A
        chunked = sizes[3] + pairs * (d + 23)   # the sum of their E
        gain = direct * direct - 15 * chunked * chunked
        cost = 2 * _BLOCK_COST * pairs
        if gain - 15 * (tau % 2 == 0) * chunked * chunked // pairs > cost:
            self.switch(tau)
            return
        self.due = 2 * j + _CHUNK * (tau + (tau if gain <= 0 else 1))

    def switch(self, tau):
        """Take the chunk path from block tau on."""
        self.start, self.sizes = tau, None
        self.due = 2 * self.order + _CHUNK * tau
        self.values = [[0] for _ in range(2 * _CHUNK - 1)]
        self.parts = {}

    def part(self, derivs, u):
        """The chunk pairs' part of S_j[u], u in a block from `start` on."""
        tau, r = divmod(u, _CHUNK)
        part = self.products(derivs, tau)[r]
        if r < _CHUNK - 1 and tau > 2:
            part += self.products(derivs, tau - 1)[_CHUNK + r]
        return part

    def products(self, derivs, sigma):
        """parts[sigma], made from the chunk values if not kept."""
        coeffs = self.parts.get(sigma)
        if coeffs is not None:
            return coeffs
        evaluate, _, folded, scale = _toom()
        values = self.values
        if self.pending != 1:
            values[:] = [list(map(self.pending.__mul__, row))
                         for row in values]
            self.pending = 1
        for beta in range(len(values[0]), sigma):
            chunk = derivs.entries(self.order, _CHUNK * beta,
                                   _CHUNK * beta + _CHUNK)
            for row, powers in zip(values, evaluate):
                row.append(sum(map(mul, powers, chunk)))
        half = (sigma + 1) // 2          # pairs (beta, sigma - beta)
        points = [2 * sum(map(mul, row[1:half],
                              row[sigma - 1:sigma - half:-1]))
                  for row in values]
        if sigma % 2 == 0:
            points = [p + row[sigma // 2] ** 2
                      for p, row in zip(points, values)]
        plus, minus = points[1:_CHUNK], points[_CHUNK:]
        even = [points[0], *map(add, plus, minus)]
        odd = list(map(sub, plus, minus))
        coeffs = [sum(map(mul, row, odd if r % 2 else even)) // scale
                  for r, row in enumerate(folded)]
        self.parts = {s: c for s, c in self.parts.items() if s >= sigma - 1}
        self.parts[sigma] = coeffs
        return coeffs


@lru_cache(maxsize=1)
def _toom():
    """The chunk products' evaluation and interpolation at the 15 points
    0, 1 .. 7, -1 .. -7, built on first use: `evaluate`, the rows (x**r
    for r < 8) of the points; the integer matrix M with M V = D I for the
    points' Vandermonde matrix V, whose row r gives D times coefficient r
    of a polynomial of degree 14 or less from its values at the points;
    `folded`, M's rows on P(0) and P(x) + P(-x), x = 1 .. 7, for even r
    and on P(x) - P(-x) for odd r, as the basis polynomial of -x is that
    of x at -t; and D = 14!.  Column k of M is D times the coefficients of
    Lagrange's basis polynomial of point k: the product of t - y over the
    other points y, over that of x_k - y."""
    points = [0, *range(1, _CHUNK), *range(-1, -_CHUNK, -1)]
    evaluate = [[x ** r for r in range(_CHUNK)] for x in points]
    scale = factorial(2 * _CHUNK - 2)
    columns = []
    for x in points:
        poly, over = [1], 1
        for y in points:
            if y != x:
                poly = [a - y * b for a, b in zip([0] + poly, poly + [0])]
                over *= x - y
        columns.append([scale // over * c for c in poly])
    matrix = [list(row) for row in zip(*columns)]
    folded = [row[1:_CHUNK] if r % 2 else row[:_CHUNK]
              for r, row in enumerate(matrix)]
    return evaluate, matrix, folded, scale


_FALLING = {}          # order j -> [(i)_j for i = 0, 1, ...], grown on demand


@lru_cache(maxsize=256)
def _pair_weights(j, total):
    """(i)_j (total - i)_j for i < total / 2, then ((total / 2)_j)**2 for
    even total: order j's weights on the products nums[i] * nums[total -
    i], of the falling factorials (i)_j = falling_weight(i - j, j), 0 for
    i < j.  Walks repeat their totals, so the latest are kept."""
    weights = _FALLING.setdefault(j, [])
    weights += [falling_weight(i - j, j) if i >= j else 0
                for i in range(len(weights), total + 1)]
    half = (total + 1) // 2
    return list(map(mul, weights[:half],
                    weights[total:total - half:-1])) + [weights[half] ** 2]


class QuadEquation:
    """Sum of terms coeff * z^s * f^(p) * f^(q), coefficients exact and
    nonzero, terms sorted by (p, q, z-power).  Terms are given as
    (s, monomial, coeff): s an int, monomial a QuadMonomial and coeff an
    int or a Fraction (not a bool; anything else raises TypeError naming
    its position).
    `coeff_den` is the lcm of the coefficients' denominators, and
    `int_terms` holds the terms with their coefficients times it, as ints.
    `linear` holds the int terms (s, p, c) with q = -1, p = -1 the
    constant.  `squares` plans the other int terms, doubled, as sums of
    derivatives of squares, merged by (s, a, j): terms (s, a, j, c) with
    ints c, sorted, each of row n c * falling_weight(n - s, a) *
    S_j[n - s + a], and their sum is twice the products' row.  The plan
    is built when first read, so a call that reads no row plans nothing.
    `max_shift` is the max over terms of max(p, 0) - s: row n reads prefix
    indices up to n + max_shift, and introduces term n + max_shift when
    extending.  Row n first reads total index n + h of order j, h the max
    of a + 2j - s over its terms; orders of one h share products, each
    reading terms up to n + h - j <= n + max_shift."""

    __slots__ = ("terms", "coeff_den", "int_terms", "max_shift", "linear",
                 "_squares", "_reach", "_groups")

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
        self.linear = tuple((s, mono.p, c) for s, mono, c in self.int_terms
                            if mono.q == -1)
        self._squares = None

    @property
    def squares(self):
        """The plan, built on the first read with `_reach`, its largest
        z-power, and `_groups`, each order's orders of one h.  Weight k of
        the Lucas triangle's row r is weight k - 1 times -(a + 2)(a + 1) /
        (k (r - k)), a = r - 2k, an exact division also times c."""
        if self._squares is None:
            plan = defaultdict(int)
            for s, mono, c in self.int_terms:
                p, q = mono.p, mono.q
                if q < 0:
                    continue
                r, w = p - q, c if p > q else 2 * c
                for k, a in enumerate(range(r, -1, -2)):
                    if k:
                        w = -w * (a + 2) * (a + 1) // (k * (r - k))
                    plan[s, a, q + k] += w
            keys = sorted(key for key, w in plan.items() if w)
            lead, groups = {}, {}
            for s, a, j in keys:
                if lead.get(j, -s) <= a + 2 * j - s:
                    lead[j] = a + 2 * j - s
            for j in sorted(lead):
                groups.setdefault(lead[j], []).append(j)
            self._groups = {j: groups[h] for j, h in lead.items()}
            self._reach = max((s for s, _, _ in keys), default=0)
            self._squares = tuple(key + (plan[key],) for key in keys)
        return self._squares

    def __eq__(self, other):
        return isinstance(other, QuadEquation) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"QuadEquation({render_text(self, 'ode')!r})"

    def row_numerator(self, derivs, n):
        """Row n times coeff_den * den**2 on the sequence derivs.nums /
        derivs.den, an int (indices up to n + max_shift must fit): half the
        planned squares' sum plus den times the linear terms' entries.  Row
        n reads no square coefficient of index below n less the largest
        z-power of `squares`, so it drops the one just below, which later
        rows never read."""
        squares, windows, groups = self.squares, derivs._squares, self._groups
        total = 0
        for s, a, j, c in squares:
            if s <= n:
                u = n - s + a
                value = windows[j].get(u)
                if value is None:
                    derivs._square(u + 2 * j, groups[j])
                    value = windows[j][u]
                total += c * falling_weight(n - s, a) * value
        derivs.drop_square(n - self._reach - 1)
        linear = 0
        for s, p, c in self.linear:
            if s <= n:
                linear += c * derivs.entry(p, n - s)
        return (total >> 1) + derivs.den * linear


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
