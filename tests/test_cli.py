import argparse
import json
import os
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadguess import cli
from quadguess.cli import main
from quadguess.equations import equation_to_json
from quadguess.guessing import GuessResult
from test_guessing import spy_ansatz
from test_sequences import EXP_EQ, SQUARE_EQ, ZIGZAG_EQ


@pytest.fixture
def zigzag_file(tmp_path):
    from quadguess.prefix import dump_prefix
    from quadguess.sequences import oracle_sequence
    path = tmp_path / "zigzag_egf.txt"
    path.write_text(dump_prefix(oracle_sequence("zigzag-egf", 20)))
    return str(path)


@pytest.fixture
def zigzag_eq_file(tmp_path):
    path = tmp_path / "zigzag_eq.json"
    path.write_text(equation_to_json(ZIGZAG_EQ))
    return str(path)


def test_oracle_subcommand(capsys):
    assert main(["oracle", "--name", "zeta-rescaled", "--count", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1/6", "1/90", "1/945", "1/9450", "1/93555"]


def test_oracle_json(capsys):
    assert main(["oracle", "--name", "exp", "--count", "3",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == ["1", "1", "1/2"]


def test_oracle_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--name", "fibonacci", "--count", "5"])
    assert exc.value.code == 2


def test_oracle_count_below_one_is_usage_error(capsys):
    assert main(["oracle", "--name", "exp", "--count", "0"]) == 2
    assert capsys.readouterr().err == "error: count must be >= 1\n"


def test_guess_text_output(zigzag_file, capsys):
    code = main(["guess", "--input", zigzag_file, "--min-verify", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "y'' - y*y' = 0" in out
    assert "(n+1)*(n+2)*a(n+2) - Sum((k+1)*a(k+1)*a(n-k), k=0..n) = 0" in out


def test_guess_json_roundtrip(zigzag_file, capsys):
    code = main(["guess", "--input", zigzag_file, "--min-verify", "0",
                 "--format", "json"])
    assert code == 0
    doc = capsys.readouterr().out
    result = GuessResult.from_json(doc)
    assert result.succeeded
    assert result.to_json() == doc.strip()
    assert ZIGZAG_EQ in result.basis


def test_guess_huge_max_poly_deg_exit_code(zigzag_file, monkeypatch, capsys):
    """--max-poly-deg 10**12 on 20 terms exits 3 with one error line,
    without building the ansatz it names."""
    spy_ansatz(monkeypatch, 20)
    assert main(["guess", "--input", zigzag_file,
                 "--max-poly-deg", "1000000000000"]) == 3
    assert capsys.readouterr().err == (
        "error: 20 terms admit no system at d = 3 "
        "(m = 1000000000000, min_verify_rows = 2)\n")


def test_guess_all_zero_input(tmp_path, capsys):
    path = tmp_path / "zeros.txt"
    path.write_text("0\n0\n0\n0\n")
    code = main(["guess", "--input", str(path)])
    assert code == 3
    assert "degenerate input: all terms zero" in capsys.readouterr().err


def test_guess_fail_exit_code(tmp_path, capsys):
    # n^n / n! has no small quadratic annihilator in the default budget
    from fractions import Fraction
    from math import factorial
    path = tmp_path / "hard.txt"
    terms = [Fraction(n ** n if n else 1, factorial(n)) for n in range(24)]
    path.write_text("\n".join(f"{t.numerator}/{t.denominator}"
                              for t in terms))
    assert main(["guess", "--input", str(path)]) == 1


def test_guess_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1/2\nbogus\n")
    code = main(["guess", "--input", str(path)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_guess_missing_file(capsys):
    assert main(["guess", "--input", "/nonexistent/seq.txt"]) == 2


def test_module_entry_point():
    """`python -m quadguess.cli` runs main and exits with its code."""
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "quadguess.cli", "oracle", "--name", "exp",
         "--count", "3"], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "1\n1\n1/2\n"


@pytest.mark.parametrize("option", [
    ["--max-poly-deg", "-1"], ["--d-start", "0"], ["--min-verify", "-1"],
    ["--d-max", "1"], ["--d-max", "-4"],
], ids=" ".join)
def test_guess_bad_option_is_usage_error(tmp_path, option, capsys):
    """A bad option exits 2 with one error line, not a traceback."""
    from quadguess.prefix import dump_prefix
    from quadguess.sequences import oracle_sequence
    path = tmp_path / "exp.txt"
    path.write_text(dump_prefix(oracle_sequence("exp", 20)))
    assert main(["guess", "--input", str(path), *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_guess_rescale_is_unrecognized(tmp_path, capsys):
    """guess has no --rescale option: argparse rejects it with exit 2."""
    from quadguess.prefix import dump_prefix
    from quadguess.sequences import oracle_sequence
    path = tmp_path / "exp.txt"
    path.write_text(dump_prefix(oracle_sequence("exp", 20)))
    with pytest.raises(SystemExit) as exc:
        main(["guess", "--input", str(path), "--rescale", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --rescale 4" in captured.err


def test_extend_subcommand(tmp_path, zigzag_eq_file, capsys):
    seed = tmp_path / "seed.txt"
    seed.write_text("1\n1\n")
    code = main(["extend", "--equation", zigzag_eq_file,
                 "--input", str(seed), "--count", "3"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1", "1", "1/2", "1/3", "5/24"]


def test_extend_inconsistent_exit_code(tmp_path, zigzag_eq_file, capsys):
    seed = tmp_path / "seed.txt"
    seed.write_text("1\n1\n5\n7\n")
    assert main(["extend", "--equation", zigzag_eq_file,
                 "--input", str(seed), "--count", "1"]) == 3


def test_extend_negative_count_is_usage_error(tmp_path, zigzag_eq_file,
                                              capsys):
    seed = tmp_path / "seed.txt"
    seed.write_text("1\n1\n")
    assert main(["extend", "--equation", zigzag_eq_file,
                 "--input", str(seed), "--count", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count" in captured.err


def test_check_subcommand(tmp_path, zigzag_eq_file, zigzag_file, capsys):
    assert main(["check", "--equation", zigzag_eq_file,
                 "--input", zigzag_file]) == 0
    assert capsys.readouterr().out == "pass: 18 rows vanish\n"


def test_check_failure_exit_code(tmp_path, zigzag_eq_file, capsys):
    bad = tmp_path / "bad_seq.txt"
    bad.write_text("1\n1\n1\n1\n1\n")
    assert main(["check", "--equation", zigzag_eq_file,
                 "--input", str(bad)]) == 1


def test_check_vacuous_exit_code(tmp_path, zigzag_eq_file, capsys):
    short = tmp_path / "short.txt"
    short.write_text("1\n1\n")
    assert main(["check", "--equation", zigzag_eq_file,
                 "--input", str(short)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vacuous: no row is determined")
    assert main(["check", "--equation", zigzag_eq_file,
                 "--input", str(short), "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "passed": True, "rows_checked": 0, "vacuous": True}


def test_check_json_output(tmp_path, zigzag_eq_file, zigzag_file, capsys):
    assert main(["check", "--equation", zigzag_eq_file,
                 "--input", zigzag_file, "--format", "json"]) == 0
    assert capsys.readouterr().out == \
        '{"passed": true, "rows_checked": 18}\n'
    bad = tmp_path / "bad_seq.txt"
    bad.write_text("1\n1\n1\n1\n1\n")
    assert main(["check", "--equation", zigzag_eq_file,
                 "--input", str(bad), "--format", "json"]) == 1
    assert capsys.readouterr().out == ('{"passed": false, "rows_checked": 1, '
                                       '"first_failure": 0, "residual": "1"}\n')


def test_equation_file_validation(tmp_path, zigzag_file, capsys):
    """A malformed equation file, one that is not an object, a missing one
    and one whose terms all cancel (y - y) exit 2 naming the reason, for
    check and extend alike."""
    path = tmp_path / "eq.json"
    path.write_text('{"terms": "no"}')
    array = tmp_path / "array.json"
    array.write_text("[]")
    cancelled = tmp_path / "cancelled.json"
    cancelled.write_text(json.dumps({"terms": [
        {"s": 0, "p": 0, "q": -1, "c": "1"},
        {"s": 0, "p": 0, "q": -1, "c": "-1"}]}))
    missing = tmp_path / "missing.json"
    for source, error in (
            (path, 'error: "terms" must be a nonempty list\n'),
            (array, 'error: expected an object with a "terms" list\n'),
            (missing, f"error: {missing}: [Errno 2] "),
            (cancelled,
             "error: an equation needs at least one nonzero term\n")):
        for command in (["check"], ["extend", "--count", "2"]):
            assert main([*command, "--equation", str(source),
                         "--input", zigzag_file]) == 2
            assert capsys.readouterr().err.startswith(error)


@settings(max_examples=40, deadline=None)
@given(q=st.integers(-3, 12), gap=st.integers(1, 2 ** 70))
@example(q=0, gap=1)
@example(q=-1, gap=1)       # p = -2, q = -1
def test_equation_file_with_p_below_q_is_usage_error(tmp_path_factory, q,
                                                     gap):
    """A term with p < q in an equation file exits 2, for check and
    extend alike."""
    path = tmp_path_factory.mktemp("eq") / "eq.json"
    path.write_text(json.dumps({"terms": [
        {"s": 0, "p": 1, "q": -1, "c": "1"},
        {"s": 1, "p": q - gap, "q": q, "c": "-2/3"}]}))
    seq = path.parent / "seq.txt"
    seq.write_text("1\n1\n1\n")
    for command in (["check"], ["extend", "--count", "2"]):
        assert main([*command, "--equation", str(path),
                     "--input", str(seq)]) == 2


def _timed_main(argv):
    """main's exit code on argv and its time in seconds."""
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def test_far_order_gap_on_two_terms_exits_3_at_once(tmp_path, capsys):
    """f^(10^6) * f + y' on two terms: check reads no row, so it reports
    vacuous, and extend has too few terms; both exit 3 within 1 s, as
    neither plans the product's 500 001 squares."""
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"terms": [
        {"s": 0, "p": 10 ** 6, "q": 0, "c": "1"},
        {"s": 0, "p": 1, "q": -1, "c": "1"}]}))
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n1\n")
    code, seconds = _timed_main(["check", "--equation", str(path), "--input",
                                 str(seq), "--format", "json"])
    assert (code, json.loads(capsys.readouterr().out)) == \
        (3, {"passed": True, "rows_checked": 0, "vacuous": True})
    assert seconds < 1
    code, seconds = _timed_main(["extend", "--equation", str(path),
                                 "--input", str(seq), "--count", "5"])
    assert code == 3 and seconds < 1
    assert capsys.readouterr().err == ("error: extension needs at least "
                                       "1000000 initial terms, got 2\n")


# an equation file term {"s", "p", "q", "c"} with orders and z-power up
# to 3000: q = -1 makes it linear, and p = q = -1 the constant
_FILE_TERMS = st.integers(-1, 3000).flatmap(lambda q: st.fixed_dictionaries({
    "s": st.integers(0, 3000), "p": st.integers(q, 3000), "q": st.just(q),
    "c": st.sampled_from(["1", "-2", "3/5", "-7/4"])}))


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(_FILE_TERMS, min_size=1, max_size=3),
       values=st.lists(st.sampled_from(["0", "1", "-1", "2", "1/3", "-5/2"]),
                       min_size=1, max_size=40),
       count=st.integers(0, 5))
@example(terms=[{"s": 0, "p": 1500, "q": 0, "c": "1"},
                {"s": 0, "p": 1, "q": -1, "c": "1"}], values=["1", "1"],
         count=5)
@example(terms=[{"s": 2990, "p": 3000, "q": 0, "c": "1"},
                {"s": 0, "p": 1, "q": -1, "c": "-2"}], values=["1"] * 40,
         count=5)
def test_generated_equation_files_exit_with_a_code(tmp_path_factory, terms,
                                                   values, count):
    """Check and extend of any equation file with orders and z-powers up
    to 3000, on 1 to 40 terms, exit 0, 1, 2 or 3 with no exception, each
    within 2 s: a product's plan costs O(p - q) ints and is built only
    when a row reads it."""
    path = tmp_path_factory.mktemp("eq") / "eq.json"
    path.write_text(json.dumps({"terms": terms}))
    seq = path.parent / "seq.txt"
    seq.write_text("\n".join(values) + "\n")
    for command in (["check"], ["extend", "--count", str(count)]):
        code, seconds = _timed_main([*command, "--equation", str(path),
                                     "--input", str(seq)])
        assert code in (0, 1, 2, 3) and seconds < 2, (command, seconds)


def test_commented_line_file_guesses_like_the_plain_file(tmp_path, capsys):
    """Comment lines, blank lines and indented terms leave the line format's
    terms, and so every guess output, unchanged."""
    from quadguess.prefix import dump_prefix
    from quadguess.sequences import oracle_sequence
    plain = tmp_path / "plain.txt"
    plain.write_text(dump_prefix(oracle_sequence("zigzag-egf", 26)))
    path = tmp_path / "commented.txt"
    path.write_text("# zigzag-egf, 26 terms\n\n" + "".join(
        f"  {line}\n\n" for line in plain.read_text().splitlines()))
    for fmt in ("text", "json"):
        runs = []
        for source in (plain, path):
            code = main(["guess", "--input", str(source), "--format", fmt])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] == 0


def test_json_prefix_input(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text('["1", "1", "1/2", "1/3", "5/24"]')
    from test_sequences import ZIGZAG_EQ
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(equation_to_json(ZIGZAG_EQ))
    assert main(["check", "--equation", str(eq_path),
                 "--input", str(path)]) == 0


def test_extend_nonlinear_step_exit_code(tmp_path, capsys):
    eq_file = tmp_path / "square.json"
    eq_file.write_text(equation_to_json(SQUARE_EQ))
    seed = tmp_path / "seed.txt"
    seed.write_text("1\n")
    assert main(["extend", "--equation", str(eq_file),
                 "--input", str(seed), "--count", "1"]) == 3
    assert "row 0 is quadratic in the unknown term" in capsys.readouterr().err


def test_oracle_prints_terms_over_the_digit_limit(default_digit_limit,
                                                   capsys):
    """lambertw terms over 4 300 digits print at the default limit, and
    the interpreter-wide int/str digit limit is left as it was."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["oracle", "--name", "lambertw", "--count", "1800"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1800
    assert max(map(len, out)) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_check_round_trips_a_5000_digit_term(tmp_path, default_digit_limit,
                                             capsys):
    """a_n = 10**4999 / n! satisfies y' = y; every term has a 5 000-digit
    numerator.  check reads them and passes, and a last term raised by 1
    fails at row 4 with residual 5 * 1."""
    big = "1" + "0" * 4999
    terms = [f"{big}/{factorial(n)}" for n in range(6)]
    eq_file = tmp_path / "exp.json"
    eq_file.write_text(equation_to_json(EXP_EQ))
    seq = tmp_path / "big.txt"
    seq.write_text("\n".join(terms) + "\n")
    assert main(["check", "--equation", str(eq_file),
                 "--input", str(seq)]) == 0
    assert capsys.readouterr().out == "pass: 5 rows vanish\n"
    terms[-1] = big[:-3] + "120/120"      # 10**4999 / 5! + 1
    seq.write_text("\n".join(terms) + "\n")
    assert main(["check", "--equation", str(eq_file), "--input", str(seq),
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "passed": False, "rows_checked": 5, "first_failure": 4,
        "residual": "5"}


@pytest.mark.parametrize("term", ["1_000", "\u0663/4", "3/\u0664",
                                  "\uff11", "3 / 4", "1/2/3", "0x10"])
def test_coerced_rationals_are_usage_errors(tmp_path, zigzag_eq_file,
                                            term, capsys):
    """int() would read underscores and non-ASCII digits; the parser takes
    only ASCII [+-]digits(/[+-]digits), in prefix files (text and JSON) and
    in equation coefficients alike."""
    text = tmp_path / "seq.txt"
    text.write_text(f"1\n{term}\n1\n", encoding="utf-8")
    array = tmp_path / "seq.json"
    array.write_text(json.dumps(["1", term, "1"]), encoding="utf-8")
    obj = json.loads(equation_to_json(ZIGZAG_EQ))
    obj["terms"][0]["c"] = term
    eq_file = tmp_path / "eq.json"
    eq_file.write_text(json.dumps(obj), encoding="utf-8")
    good = tmp_path / "good.txt"
    good.write_text("1\n1\n1\n")
    for eq, seq in ((zigzag_eq_file, text), (zigzag_eq_file, array),
                    (eq_file, good)):
        assert main(["check", "--equation", str(eq),
                     "--input", str(seq)]) == 2, (eq, seq)
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def non_utf8_file(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"1\n2\n\xff\xfe1\n2\n")
    return str(path)


@pytest.mark.parametrize("command", ["guess --input BAD",
                                     "extend --equation EQ --input BAD "
                                     "--count 2",
                                     "check --equation EQ --input BAD",
                                     "check --equation BAD --input SEQ"])
def test_non_utf8_file_is_usage_error(command, non_utf8_file, zigzag_eq_file,
                                      zigzag_file, capsys):
    """A file that is not UTF-8 is an input-format error: exit 2 and one
    error line naming the file, no traceback."""
    files = {"BAD": non_utf8_file, "EQ": zigzag_eq_file, "SEQ": zigzag_file}
    assert main([files.get(word, word) for word in command.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {non_utf8_file}: not UTF-8: byte 0xff "
                            f"at offset 4\n")


@pytest.mark.parametrize("bom", ["lines", "array", "equation"])
def test_byte_order_mark_is_dropped(bom, tmp_path, zigzag_file,
                                    zigzag_eq_file, capsys):
    """A UTF-8 byte-order mark before a sequence file's lines, before its
    JSON array or before an equation file is not part of the file:
    `check` passes and `guess` succeeds, exit 0."""
    from quadguess.sequences import oracle_sequence
    terms = [str(v) for v in oracle_sequence("zigzag-egf", 26).values]
    text = {"lines": "\n".join(terms) + "\n", "array": json.dumps(terms),
            "equation": Path(zigzag_eq_file).read_text()}[bom]
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    eq, seq = ((path, zigzag_file) if bom == "equation"
               else (zigzag_eq_file, path))
    assert main(["check", "--equation", str(eq), "--input", str(seq)]) == 0
    if bom != "equation":
        assert main(["guess", "--input", str(seq)]) == 0
    assert capsys.readouterr().err == ""


def test_inner_byte_order_mark_is_usage_error(tmp_path, capsys):
    """Negative control: a U+FEFF in the middle of a line is a malformed
    term, exit 2 with the file and line named."""
    path = tmp_path / "inner.txt"
    path.write_text("1\n1\n1\ufeff/2\n1\n", encoding="utf-8")
    assert main(["guess", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: line 3: malformed rational ")


def test_parser_is_built_once(monkeypatch, zigzag_file, capsys):
    """N calls of main build one top-level parser and its four subparsers,
    not 5 * N."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert main(["oracle", "--name", "exp", "--count", "4"]) == 0
        assert main(["guess", "--input", zigzag_file,
                     "--min-verify", "0"]) == 0
    with pytest.raises(SystemExit):
        main(["guess"])
    assert built == ["quadguess"] + [f"quadguess {name}" for name in
                                     ("guess", "extend", "check", "oracle")]


def test_parser_is_not_built_at_import():
    """Importing the CLI builds no parser, so start-up costs no more."""
    code = ("import quadguess.cli as cli; "
            "print(cli._build_parser.cache_info().currsize)")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "0\n"


def _outcomes(argvs, capsys):
    """(exit code, stdout, stderr) of main on each argv, in order."""
    outcomes = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_reused_parser_matches_a_fresh_one(monkeypatch, tmp_path, zigzag_file,
                                           zigzag_eq_file, non_utf8_file,
                                           capsys):
    """One parser reused across a mixed run of calls gives every call the
    exit code, stdout and stderr of a parser built for that call alone:
    options set in one call fall back to their defaults in the next."""
    from quadguess.sequences import oracle_sequence
    scaled = tmp_path / "scaled.txt"
    scaled.write_text("\n".join(
        str(v * 4 ** n) for n, v in enumerate(oracle_sequence("zeta-rescaled",
                                                              24))))
    seed = tmp_path / "seed.txt"
    seed.write_text("1\n1\n")
    eq, zig = zigzag_eq_file, zigzag_file
    argvs = [
        ["oracle", "--name", "exp", "--count", "5", "--format", "json"],
        ["oracle", "--name", "exp", "--count", "5"],
        ["guess", "--input", zig, "--min-verify", "0", "--d-max", "3"],
        ["guess", "--input", zig, "--min-verify", "0"],
        ["guess", "--input", str(scaled), "--format", "latex"],
        ["guess", "--input", str(scaled)],
        ["guess", "--input", zig, "--min-verify", "0", "--format", "json"],
        ["guess"],
        ["frobnicate"],
        ["guess", "--input", zig, "--format", "xml"],
        ["oracle", "--name", "fibonacci", "--count", "5"],
        ["--help"],
        ["guess", "--help"],
        ["extend", "--equation", eq, "--input", str(seed), "--count", "3",
         "--format", "json"],
        ["extend", "--equation", eq, "--input", str(seed), "--count", "3"],
        ["check", "--equation", eq, "--input", zig, "--format", "json"],
        ["check", "--equation", eq, "--input", zig],
        ["check", "--equation", eq, "--input", str(seed)],
        ["guess", "--input", non_utf8_file],
        [],
    ]
    cli._build_parser.cache_clear()
    reused = _outcomes(argvs, capsys)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _outcomes(argvs, capsys)
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 1, 0, 0, 0, 0, *[("SystemExit", 2)] * 4,
                     *[("SystemExit", 0)] * 2, 0, 0, 0, 0, 3, 2,
                     ("SystemExit", 2)]
