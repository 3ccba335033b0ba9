"""Byte-for-byte outputs of `guess`, pinned so that changes to row
assembly or elimination cannot alter a result unnoticed."""

import random
from fractions import Fraction

import pytest

from quadguess.guessing import guess
from quadguess.prefix import SequencePrefix
from quadguess.sequences import ORACLES, oracle_sequence

# GuessResult.to_json() at 26 terms, default GuessConfig.
ORACLE_GOLDEN = {
    "bell-egf": (
        '{"status": "success", "d": 6, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": 1, "c": "-1"}, {"s": 0, "p": 2, "q": 0, '
        '"c": "1"}]}, {"terms": [{"s": 1, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 1, "p": 1, "q": 1, "c": "-1"}, {"s": 1, "p": 2, "q": 0, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 2, "p": 1, "q": 1, "c": "-1"}, {"s": 2, "p": 2, "q": 0, '
        '"c": "1"}]}], "rows": {"construction": 21, "verification": 3}}'),
    "bernoulli-egf": (
        '{"status": "success", "d": 3, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 1, "p": 0, "q": -1, "c": "1"}, {"s": 0, "p": 0, "q": 0, '
        '"c": "1"}, {"s": 1, "p": 1, "q": -1, "c": "1"}]}, '
        '{"terms": [{"s": 1, "p": 0, "q": -1, "c": "-1"}, {"s": 2, '
        '"p": 0, "q": -1, "c": "1"}, {"s": 1, "p": 0, "q": 0, "c": "1"}, '
        '{"s": 2, "p": 1, "q": -1, "c": "1"}]}], '
        '"rows": {"construction": 12, "verification": 13}}'),
    "euler-egf": (
        '{"status": "success", "d": 6, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": 0, "c": "1"}, '
        '{"s": 0, "p": 1, "q": 1, "c": "-2"}, {"s": 0, "p": 2, "q": 0, '
        '"c": "1"}]}, {"terms": [{"s": 1, "p": 0, "q": 0, "c": "1"}, '
        '{"s": 1, "p": 1, "q": 1, "c": "-2"}, {"s": 1, "p": 2, "q": 0, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 0, "q": 0, "c": "1"}, '
        '{"s": 2, "p": 1, "q": 1, "c": "-2"}, {"s": 2, "p": 2, "q": 0, '
        '"c": "1"}]}], "rows": {"construction": 21, "verification": 3}}'),
    "exp": (
        '{"status": "success", "d": 3, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 0, "q": -1, "c": "-1"}, {"s": 1, "p": 1, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 2, "p": 1, "q": -1, "c": "1"}]}, {"terms": [{"s": 0, '
        '"p": 0, "q": 0, "c": "-1"}, {"s": 0, "p": 1, "q": 0, '
        '"c": "1"}]}, {"terms": [{"s": 1, "p": 0, "q": 0, "c": "-1"}, '
        '{"s": 1, "p": 1, "q": 0, "c": "1"}]}, {"terms": [{"s": 2, '
        '"p": 0, "q": 0, "c": "-1"}, {"s": 2, "p": 1, "q": 0, '
        '"c": "1"}]}], "rows": {"construction": 12, "verification": 13}}'),
    "lambertw": (
        '{"status": "success", "d": 3, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 1, "p": 1, "q": -1, "c": "1"}, {"s": 1, "p": 1, "q": 0, '
        '"c": "1"}]}, {"terms": [{"s": 1, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 2, "p": 1, "q": -1, "c": "1"}, {"s": 2, "p": 1, "q": 0, '
        '"c": "1"}]}], "rows": {"construction": 12, "verification": 13}}'),
    "zeta-rescaled": (
        '{"status": "success", "d": 5, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": 0, "c": "-2"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "5"}, {"s": 1, "p": 1, "q": 0, '
        '"c": "-4"}, {"s": 1, "p": 2, "q": -1, "c": "2"}]}, '
        '{"terms": [{"s": 1, "p": 0, "q": 0, "c": "-2"}, {"s": 1, '
        '"p": 1, "q": -1, "c": "5"}, {"s": 2, "p": 1, "q": 0, '
        '"c": "-4"}, {"s": 2, "p": 2, "q": -1, "c": "2"}]}], '
        '"rows": {"construction": 18, "verification": 6}}'),
    "zigzag-egf": (
        '{"status": "success", "d": 5, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 2, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 1, "q": 0, "c": "-1"}, {"s": 1, "p": 2, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 2, "p": 2, "q": -1, "c": "1"}]}], '
        '"rows": {"construction": 18, "verification": 6}}'),
}

# A failing search on 24 random rationals.
RANDOM_GOLDEN = (
    '{"status": "fail", "d": null, "m": 2, "basis": [], '
    '"rows": {"construction": 0, "verification": 0}}')


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_guess_oracle_golden(name):
    assert guess(oracle_sequence(name, 26)).to_json() == ORACLE_GOLDEN[name]


def test_guess_random_fail_golden():
    rng = random.Random(3)
    prefix = SequencePrefix([Fraction(rng.randint(1, 10**6),
                                      rng.randint(1, 10**6))
                             for _ in range(24)])
    assert guess(prefix).to_json() == RANDOM_GOLDEN
