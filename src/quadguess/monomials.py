"""Canonical enumeration of quadratic differential monomials.

A single index K >= 2 enumerates the products f^(p) * f^(q) of two
derivatives of one unknown series (derivative order -1 encodes the constant
factor 1).  The enumeration walks the lower triangle of pairs (i, j) with
i >= j >= 1 and maps them through (p, q) = (i - 2, j - 2):

    K = 2, 3, 4, ...  ->  f, f^2, f', f'*f, (f')^2, f'', f''*f, ...
"""

from dataclasses import dataclass
from math import isqrt


def nu(k):
    """Pair (i, j), i >= j >= 1, for the k-th triangular-walk position."""
    if k < 1:
        raise ValueError("index must be >= 1")
    ell = (isqrt(8 * k + 1) - 1) // 2
    tri = ell * (ell + 1) // 2
    if tri == k:
        return (ell, ell)
    return (ell + 1, k - tri)


def index_of_pair(i, j):
    """Inverse of nu: K = i(i-1)/2 + j for i >= j >= 1."""
    if j < 1 or i < j:
        raise ValueError("need i >= j >= 1")
    return i * (i - 1) // 2 + j


@dataclass(frozen=True)
class QuadMonomial:
    """One product f^(p) * f^(q) with p >= q >= -1, indexed by K >= 2.

    Order -1 means the factor is the constant 1, so K = 4 (p=1, q=-1)
    is plain f'.  K = 1 (the pure constant) is excluded.
    """

    index: int
    p: int
    q: int

    @property
    def max_order(self):
        return max(self.p, self.q, 0)


def monomial_of_index(k):
    """QuadMonomial for slot k of the enumeration (k >= 2)."""
    if k < 2:
        raise ValueError("monomial index must be >= 2")
    i, j = nu(k)
    return QuadMonomial(index=k, p=i - 2, q=j - 2)


def monomial_of_orders(p, q):
    """QuadMonomial for derivative orders p, q (order swapped if needed)."""
    if p < q:
        p, q = q, p
    if q < -1 or (p, q) == (-1, -1):
        raise ValueError("orders must satisfy p >= q >= -1, not both -1")
    return monomial_of_index(index_of_pair(p + 2, q + 2))


def max_derivative_order(d):
    """Largest derivative order appearing among monomials K = 2 .. d+2.

    This bounds how far beyond the row index a system row reads into the
    sequence; the order is nondecreasing in K, so the last slot decides.
    """
    return monomial_of_index(d + 2).p
