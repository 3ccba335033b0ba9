"""Finite sequence prefixes a_0 .. a_N of exact rationals.

The convention a_t = 0 for t < 0 is applied by consumers, never stored.
`scaled()` gives the terms as integers over one common denominator,
computed on each call; `guess` asks for it once per search.
"""

import json

from quadguess.errors import PrefixFormatError
from quadguess.exact import (as_rational, clear_denominators,
                             format_rational, parse_rational)


class SequencePrefix:
    """Immutable list of exact rational terms, each an int or a Fraction
    (anything else raises TypeError naming its index)."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(as_rational(v, "term {}", i)
                       for i, v in enumerate(values))
        if not values:
            raise ValueError("a prefix needs at least one term")
        self.values = values

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return isinstance(other, SequencePrefix) and self.values == other.values

    def __repr__(self):
        shown = ", ".join(format_rational(v) for v in self.values[:6])
        if len(self.values) > 6:
            shown += ", ..."
        return f"SequencePrefix([{shown}])"

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def scaled(self):
        """(nums, den): integer numerators over one common denominator."""
        return clear_denominators(self.values)


# Longest echo of a malformed entry that an error message shows in full.
_ECHO = 60


def _echo(item):
    """repr of a malformed entry, cut to its first _ECHO characters."""
    shown = repr(item)
    if len(shown) <= _ECHO:
        return shown
    return f"{shown[:_ECHO]}... ({len(shown)} characters)"


def parse_prefix_text(text, source="<input>"):
    """Parse a prefix from text: either a JSON array of rational strings or
    one rational per line (blank lines skipped).  JSON integers are read
    as strings, so terms of any length parse."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            items = json.loads(text, parse_int=str)
        except json.JSONDecodeError as exc:
            raise PrefixFormatError(f"{source}: invalid JSON: {exc}") from exc
        values = []
        for pos, item in enumerate(items):
            try:
                values.append(parse_rational(str(item)))
            except (ValueError, ZeroDivisionError) as exc:
                raise PrefixFormatError(
                    f"{source}: entry {pos}: malformed rational {_echo(item)}"
                ) from exc
        if not values:
            raise PrefixFormatError(f"{source}: empty sequence")
        return SequencePrefix(values)

    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(parse_rational(line))
        except (ValueError, ZeroDivisionError) as exc:
            raise PrefixFormatError(
                f"{source}: line {lineno}: malformed rational {_echo(line)}"
            ) from exc
    if not values:
        raise PrefixFormatError(f"{source}: empty sequence")
    return SequencePrefix(values)


def read_text(path, error):
    """The file's text, decoded as UTF-8 without a leading byte-order mark
    (as "utf-8-sig" reads it); bytes that do not decode raise error (an
    exception class) naming the path and the byte offset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.start is the
        # offset in the file ("utf-8-sig" would count it past the mark)
        raise error(f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} "
                    f"at offset {exc.start}") from exc


def load_prefix(path):
    return parse_prefix_text(read_text(path, PrefixFormatError),
                             source=str(path))


def dump_prefix(prefix):
    """One rational per line, the on-disk text format."""
    return "\n".join(format_rational(v) for v in prefix.values) + "\n"
