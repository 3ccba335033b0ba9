import json
from fractions import Fraction

import pytest

from quadguess.errors import PrefixFormatError
from quadguess.prefix import dump_prefix, parse_prefix_text
from quadguess.sequences import oracle_sequence


def test_terms_past_the_digit_limit_parse(default_digit_limit):
    """A 5 001-digit term parses at the default int/str digit limit, one
    per line and in a JSON array as a string or a JSON integer."""
    big = 10 ** 5000 + 1
    digits = "1" + "0" * 4999 + "1"
    for text in (f"{digits}\n-1/{digits}\n",
                 json.dumps([digits, f"-1/{digits}"]),
                 f"[{digits}, \"-1/{digits}\"]"):
        assert list(parse_prefix_text(text)) == [big, Fraction(-1, big)]


def test_dump_prefix_past_the_digit_limit(default_digit_limit):
    prefix = oracle_sequence("lambertw", 1800)
    text = dump_prefix(prefix)
    assert max(map(len, text.splitlines())) > 4300
    assert parse_prefix_text(text) == prefix


def test_malformed_term_echo_is_capped():
    """A malformed term is echoed in full up to 60 characters, and cut
    with its length beyond that."""
    with pytest.raises(PrefixFormatError,
                       match=r"^line 2: malformed rational 'bogus'$"):
        parse_prefix_text("1/2\nbogus\n")
    line = "x" + "1" * 5000
    with pytest.raises(PrefixFormatError) as exc:
        parse_prefix_text(f"1\n{line}\n")
    assert str(exc.value) == (f"line 2: malformed rational '{line[:59]}"
                              f"... (5003 characters)")
    with pytest.raises(PrefixFormatError) as exc:
        parse_prefix_text(json.dumps(["1", line]))
    assert str(exc.value) == (f"<input>: entry 1: malformed rational "
                              f"'{line[:59]}... (5003 characters)")
