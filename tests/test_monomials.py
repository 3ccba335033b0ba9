import pytest

from quadguess.equations import QuadMonomial, monomial_of_orders
from quadguess.guessing import slot


def test_slot_bijection_first_500():
    """slot(k) for k < 500 is each pair p >= q >= -1 but the constant
    once, in lexicographic order."""
    pairs = sorted((p, q) for p in range(32) for q in range(-1, p + 1))
    assert [(slot(k).p, slot(k).q) for k in range(500)] == pairs[:500]
    assert slot(-1) == QuadMonomial(-1, -1)


def test_monomial_table():
    # slots 0..8: f, f^2, f', f'f, (f')^2, f'', f''f, f''f', (f'')^2
    expected = [(0, -1), (0, 0), (1, -1), (1, 0), (1, 1),
                (2, -1), (2, 0), (2, 1), (2, 2)]
    got = [(slot(k).p, slot(k).q) for k in range(9)]
    assert got == expected


def test_monomial_of_orders_roundtrip():
    for k in range(60):
        mono = slot(k)
        assert monomial_of_orders(mono.p, mono.q) == mono
        assert monomial_of_orders(mono.q, mono.p) == mono  # order-insensitive
    assert monomial_of_orders(-1, -1) == QuadMonomial(-1, -1)
    with pytest.raises(ValueError):
        monomial_of_orders(0, -2)


def test_max_derivative_order():
    """slot(d).p, the rows a size-d system reads ahead, is the largest
    derivative order among slots 0 .. d."""
    assert slot(5).p == 2  # slot 5 is f''
    assert slot(1).p == 0
    assert slot(2).p == 1
    for d in range(1, 30):
        assert slot(d).p == max(slot(k).p for k in range(d + 1))
