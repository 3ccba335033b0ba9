import json
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from quadguess.errors import PrefixFormatError
from quadguess.prefix import (SequencePrefix, dump_prefix, load_prefix,
                              parse_prefix_text)
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
                       match=r"^<input>: line 2: malformed rational "
                             r"'bogus'$"):
        parse_prefix_text("1/2\nbogus\n")
    line = "x" + "1" * 5000
    with pytest.raises(PrefixFormatError) as exc:
        parse_prefix_text(f"1\n{line}\n")
    assert str(exc.value) == (f"<input>: line 2: malformed rational "
                              f"'{line[:59]}... (5003 characters)")
    with pytest.raises(PrefixFormatError) as exc:
        parse_prefix_text(json.dumps(["1", line]))
    assert str(exc.value) == (f"<input>: entry 1: malformed rational "
                              f"'{line[:59]}... (5003 characters)")


def test_terms_and_rescale_factors_are_exact():
    """SequencePrefix takes only ints and Fractions: a float, a numeric
    string, a Decimal or a bool raises TypeError naming the term's index,
    and is never coerced."""
    for bad in (0.1, "0.1", "1", Decimal("0.1"), True, False, None):
        with pytest.raises(TypeError, match=r"^term 1 must be an int or a "
                                            r"Fraction, not \w+$"):
            SequencePrefix([1, bad, 2])
    prefix = SequencePrefix([1, Fraction(1, 10), -3])
    assert prefix.values == (1, Fraction(1, 10), -3)
    assert all(type(v) is Fraction for v in prefix)


@pytest.mark.parametrize("head", [b"", b"1\n2\n3\n", b"1\n" * 50_000],
                         ids=["at-start", "line-4", "past-100-KB"])
def test_load_prefix_rejects_non_utf8(tmp_path, head):
    """A file that is not UTF-8 raises PrefixFormatError naming the path
    and the byte's offset in the file, not a bare codec error."""
    path = tmp_path / "bad.txt"
    path.write_bytes(head + b"\xff\xfe1\n2\n")
    with pytest.raises(PrefixFormatError) as exc:
        load_prefix(path)
    assert str(exc.value) == (f"{path}: not UTF-8: byte 0xff "
                              f"at offset {len(head)}")
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


def test_load_prefix_drops_a_byte_order_mark(tmp_path):
    """A leading UTF-8 byte-order mark is not part of the first term, in
    line and JSON-array form; a byte that does not decode is still named
    at its offset in the file, the mark counted."""
    path = tmp_path / "bom.txt"
    for text in ("1\n1\n1/2\n", '["1", "1", "1/2"]'):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_prefix(path) == SequencePrefix([1, 1, Fraction(1, 2)])
    path.write_bytes(b"\xef\xbb\xbf1\n\xff\n")
    with pytest.raises(PrefixFormatError) as exc:
        load_prefix(path)
    assert str(exc.value) == f"{path}: not UTF-8: byte 0xff at offset 5"


@pytest.mark.parametrize("text", ["1\n2\ufeff3\n", "1\n\ufeff2\n",
                                  "\ufeff\ufeff1\n"])
def test_inner_byte_order_mark_is_malformed(tmp_path, text):
    """Only one mark, at the start of the file, is dropped: a U+FEFF inside
    a line, at the start of a later line or after the first mark is a
    malformed term, named with its file and line."""
    path = tmp_path / "inner.txt"
    path.write_text(text, encoding="utf-8")
    lineno = 1 + text.rstrip("\n").count("\n")
    with pytest.raises(PrefixFormatError,
                       match=rf"^{re.escape(str(path))}: line {lineno}: "
                             rf"malformed rational "):
        load_prefix(path)


@pytest.mark.parametrize("text", ["[]", "  [ ]\n", "",
                                  "# only a comment\n\n   # another\n"])
def test_input_without_terms_is_an_empty_sequence(text):
    with pytest.raises(PrefixFormatError, match=r"^<input>: empty sequence$"):
        parse_prefix_text(text)


def test_json_prefix_must_be_a_whole_array():
    """Truncated JSON is invalid JSON.  Text is read as JSON only when it
    starts with "[", and such text that parses is an array, so a JSON
    object is read as lines and its first line is malformed."""
    with pytest.raises(PrefixFormatError, match=r"^<input>: invalid JSON: "):
        parse_prefix_text('["1", "2"')
    with pytest.raises(PrefixFormatError,
                       match=r"^<input>: line 1: malformed rational "
                             r"'\{\"a\": 1\}'$"):
        parse_prefix_text('{"a": 1}')


def test_empty_prefix_is_rejected():
    with pytest.raises(ValueError, match="^a prefix needs at least one term$"):
        SequencePrefix([])


def test_repr_shows_at_most_six_terms():
    assert repr(SequencePrefix([Fraction(-1, 2)])) == "SequencePrefix([-1/2])"
    assert repr(SequencePrefix(range(1, 7))) == \
        "SequencePrefix([1, 2, 3, 4, 5, 6])"
    assert repr(SequencePrefix(range(1, 8))) == \
        "SequencePrefix([1, 2, 3, 4, 5, 6, ...])"
