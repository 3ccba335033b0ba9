"""Byte-for-byte outputs of `guess`, pinned so that changes to row
assembly or elimination cannot alter a result unnoticed."""

import hashlib
import random
from fractions import Fraction

import pytest

from quadguess.exact import P
from quadguess.guessing import GuessConfig, guess
from quadguess.prefix import SequencePrefix
from quadguess.sequences import ORACLES, oracle_sequence
from util_exact import rescaled_prefix

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

# GuessResult.to_json() at 30 terms with one bound of GuessConfig changed
# from its default: (oracle, field, value) -> output.  m = 0, 1 and 3
# change the z-degree of every column; exp at m = 3 has 8 basis vectors,
# z-multiples through three shifts; d_start = 1 starts below the default.
CONFIG_GOLDEN = {
    ("exp", "m", 0): (
        '{"status": "success", "d": 3, "m": 0, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "1"}]}, {"terms": [{"s": 0, '
        '"p": 0, "q": 0, "c": "-1"}, {"s": 0, "p": 1, "q": 0, '
        '"c": "1"}]}], "rows": {"construction": 4, "verification": 25}}'),
    ("exp", "m", 1): (
        '{"status": "success", "d": 3, "m": 1, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 0, "q": -1, "c": "-1"}, {"s": 1, "p": 1, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 0, "p": 0, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": 0, "c": "1"}]}, {"terms": [{"s": 1, "p": 0, '
        '"q": 0, "c": "-1"}, {"s": 1, "p": 1, "q": 0, "c": "1"}]}], '
        '"rows": {"construction": 8, "verification": 21}}'),
    ("exp", "m", 3): (
        '{"status": "success", "d": 3, "m": 3, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 0, "q": -1, "c": "-1"}, {"s": 1, "p": 1, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 2, "p": 1, "q": -1, "c": "1"}]}, {"terms": [{"s": 3, '
        '"p": 0, "q": -1, "c": "-1"}, {"s": 3, "p": 1, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 0, "p": 0, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": 0, "c": "1"}]}, {"terms": [{"s": 1, "p": 0, '
        '"q": 0, "c": "-1"}, {"s": 1, "p": 1, "q": 0, "c": "1"}]}, '
        '{"terms": [{"s": 2, "p": 0, "q": 0, "c": "-1"}, {"s": 2, "p": 1, '
        '"q": 0, "c": "1"}]}, {"terms": [{"s": 3, "p": 0, "q": 0, '
        '"c": "-1"}, {"s": 3, "p": 1, "q": 0, "c": "1"}]}], '
        '"rows": {"construction": 16, "verification": 13}}'),
    ("exp", "d_start", 1): (
        '{"status": "success", "d": 2, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 0, "q": -1, "c": "-1"}, {"s": 1, "p": 1, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 0, "q": -1, "c": "-1"}, '
        '{"s": 2, "p": 1, "q": -1, "c": "1"}]}], '
        '"rows": {"construction": 9, "verification": 20}}'),
    ("zeta-rescaled", "m", 0): (
        '{"status": "fail", "d": null, "m": 0, "basis": [], '
        '"rows": {"construction": 0, "verification": 0}}'),
    ("zeta-rescaled", "m", 1): (
        '{"status": "success", "d": 5, "m": 1, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": 0, "c": "-2"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "5"}, {"s": 1, "p": 1, "q": 0, '
        '"c": "-4"}, {"s": 1, "p": 2, "q": -1, "c": "2"}]}], '
        '"rows": {"construction": 12, "verification": 16}}'),
    ("zeta-rescaled", "m", 3): (
        '{"status": "success", "d": 5, "m": 3, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": 0, "c": "-2"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "5"}, {"s": 1, "p": 1, "q": 0, '
        '"c": "-4"}, {"s": 1, "p": 2, "q": -1, "c": "2"}]}, '
        '{"terms": [{"s": 1, "p": 0, "q": 0, "c": "-2"}, {"s": 1, "p": 1, '
        '"q": -1, "c": "5"}, {"s": 2, "p": 1, "q": 0, "c": "-4"}, {"s": 2, '
        '"p": 2, "q": -1, "c": "2"}]}, {"terms": [{"s": 2, "p": 0, "q": 0, '
        '"c": "-2"}, {"s": 2, "p": 1, "q": -1, "c": "5"}, {"s": 3, "p": 1, '
        '"q": 0, "c": "-4"}, {"s": 3, "p": 2, "q": -1, "c": "2"}]}], '
        '"rows": {"construction": 24, "verification": 4}}'),
    ("zeta-rescaled", "d_start", 1): (
        '{"status": "success", "d": 5, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 0, "q": 0, "c": "-2"}, '
        '{"s": 0, "p": 1, "q": -1, "c": "5"}, {"s": 1, "p": 1, "q": 0, '
        '"c": "-4"}, {"s": 1, "p": 2, "q": -1, "c": "2"}]}, '
        '{"terms": [{"s": 1, "p": 0, "q": 0, "c": "-2"}, {"s": 1, "p": 1, '
        '"q": -1, "c": "5"}, {"s": 2, "p": 1, "q": 0, "c": "-4"}, {"s": 2, '
        '"p": 2, "q": -1, "c": "2"}]}], "rows": {"construction": 18, '
        '"verification": 10}}'),
    ("zigzag-egf", "m", 0): (
        '{"status": "success", "d": 5, "m": 0, '
        '"basis": [{"terms": [{"s": 0, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 2, "q": -1, "c": "1"}]}], '
        '"rows": {"construction": 6, "verification": 22}}'),
    ("zigzag-egf", "m", 1): (
        '{"status": "success", "d": 5, "m": 1, '
        '"basis": [{"terms": [{"s": 0, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 2, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 1, "q": 0, "c": "-1"}, {"s": 1, "p": 2, "q": -1, '
        '"c": "1"}]}], "rows": {"construction": 12, "verification": 16}}'),
    ("zigzag-egf", "m", 3): (
        '{"status": "success", "d": 5, "m": 3, '
        '"basis": [{"terms": [{"s": 0, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 2, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 1, "q": 0, "c": "-1"}, {"s": 1, "p": 2, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 2, "p": 2, "q": -1, "c": "1"}]}, {"terms": [{"s": 3, '
        '"p": 1, "q": 0, "c": "-1"}, {"s": 3, "p": 2, "q": -1, '
        '"c": "1"}]}], "rows": {"construction": 24, "verification": 4}}'),
    ("zigzag-egf", "d_start", 1): (
        '{"status": "success", "d": 5, "m": 2, '
        '"basis": [{"terms": [{"s": 0, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 0, "p": 2, "q": -1, "c": "1"}]}, {"terms": [{"s": 1, '
        '"p": 1, "q": 0, "c": "-1"}, {"s": 1, "p": 2, "q": -1, '
        '"c": "1"}]}, {"terms": [{"s": 2, "p": 1, "q": 0, "c": "-1"}, '
        '{"s": 2, "p": 2, "q": -1, "c": "1"}]}], '
        '"rows": {"construction": 18, "verification": 10}}'),
}
# The 26-term zigzag-egf rescaled by 3^40 / (2^50 + 1): its kernel lifts
# only mod 2^89 - 1, the first Mersenne prime past P.
RESCALED_GOLDEN = (
    '{"status": "success", "d": 5, "m": 2, "basis": [{"terms": [{"s": 0, '
    '"p": 1, "q": 0, "c": "-1125899906842625"}, {"s": 0, "p": 2, "q": -1, '
    '"c": "12157665459056928801"}]}, {"terms": [{"s": 1, "p": 1, "q": 0, '
    '"c": "-1125899906842625"}, {"s": 1, "p": 2, "q": -1, '
    '"c": "12157665459056928801"}]}, {"terms": [{"s": 2, "p": 1, "q": 0, '
    '"c": "-1125899906842625"}, {"s": 2, "p": 2, "q": -1, '
    '"c": "12157665459056928801"}]}], "rows": {"construction": 18, '
    '"verification": 6}}')

# The 60-term euler-egf with P = 2^61 - 1 added to term 30: every d from
# the oracle's own on is rank-deficient mod P, and the kernel at d = 17
# lifts only after the climb reaches 2^2203 - 1.  Its to_json() is 14 119
# characters, pinned by its SHA-256 digest; its head and tail also as text.
PERTURBED_EULER_HEAD = '{"status": "success", "d": 17, "m": 2, '
PERTURBED_EULER_TAIL = '"rows": {"construction": 54, "verification": 2}}'
PERTURBED_EULER_SHA256 = (
    "f74dfa8ca21d3484f56d332c0e59556cb804cba13956641a497e859ca272fe7c")

# The 60-term bell-egf with P added to term 30: from the oracle's own size
# on every d is rank-deficient only mod P, and 2^89 - 1 finds full rank.
PERTURBED_BELL_GOLDEN = (
    '{"status": "fail", "d": null, "m": 2, "basis": [], '
    '"rows": {"construction": 0, "verification": 0}}')

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


@pytest.mark.parametrize("key", sorted(CONFIG_GOLDEN))
def test_guess_config_golden(key):
    name, field, value = key
    result = guess(oracle_sequence(name, 30), GuessConfig(**{field: value}))
    assert result.to_json() == CONFIG_GOLDEN[key]


def test_guess_rescaled_past_p_golden():
    lam = Fraction(12157665459056928801, 1125899906842625)
    prefix = rescaled_prefix(oracle_sequence("zigzag-egf", 26), lam)
    assert guess(prefix).to_json() == RESCALED_GOLDEN


def _perturbed(name):
    """The 60-term oracle with P added to term 30."""
    values = list(oracle_sequence(name, 60).values)
    values[30] += P
    return SequencePrefix(values)


def test_guess_perturbed_euler_golden():
    text = guess(_perturbed("euler-egf")).to_json()
    assert text.startswith(PERTURBED_EULER_HEAD), text[:80]
    assert text.endswith(PERTURBED_EULER_TAIL), text[-80:]
    assert hashlib.sha256(text.encode()).hexdigest() == PERTURBED_EULER_SHA256


def test_guess_perturbed_bell_golden():
    assert guess(_perturbed("bell-egf")).to_json() == PERTURBED_BELL_GOLDEN
