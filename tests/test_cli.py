"""linkctl's own reading of its argv (`cli._parse`), tested against the
argparse parser it replaced (`oracles.oracle_parser`), with its help and
its refusals."""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkspace.cli import _is_negative_number, _parse, main
from oracles import NEGATIVE, oracle_parser

COMMANDS = ["classify", "complex", "mesh", "check", "tables", "verify"]
LONG = ["--output", "--epsilon", "--format", "--triangulate", "--help"]
#: every option, whole and cut to each prefix that names it alone
SPELLINGS = sorted({"-o", "-h", *(name[:k] for name in LONG for k in range(3, len(name) + 1))})
#: values and positionals: choices, lengths, paths, empty, spaced, and ones
#: starting with '-', negative numbers among them
VALUES = [
    "json", "text", "obj", "ply", "xml", "1,1,1,1,1", "1/1000", "f.json", "", "x y",
    "-", "--", "-1", "-2.5", "-.5", "-x", "-x y", "-1,1,1,1,1", "h", "o", "=x",
]
UNKNOWN = ["--bogus", "--bogus=1", "-x", "-q", "---", "-1/2", "-1e5"]

_VALUE = st.sampled_from(VALUES)
_SPELLING = st.sampled_from(SPELLINGS)
_PIECE = st.one_of(
    _VALUE.map(lambda value: [value]),  # a positional
    _SPELLING.map(lambda spelling: [spelling]),  # a flag, or an option missing its value
    st.tuples(_SPELLING, _VALUE).map(list),
    st.tuples(_SPELLING, _VALUE).map(lambda pair: ["=".join(pair)]),
    _VALUE.map(lambda value: ["-o" + value]),  # glued
    st.just(["--"]),
    st.sampled_from([["-h"], ["--help"]]),
    st.sampled_from(UNKNOWN).map(lambda option: [option]),
)
_PIECES = st.lists(_PIECE, max_size=6).map(lambda pieces: sum(pieces, []))
_ARGV = st.builds(
    lambda ahead, command, rest: ahead + command + rest,
    st.just([]) | st.lists(_PIECE, min_size=1, max_size=2).map(lambda pieces: sum(pieces, [])),
    st.sampled_from([[c] for c in COMMANDS] + [[], ["bogus"], ["classif"]]),
    _PIECES,
)


def version_dependent(argv: list[str]) -> str | None:
    """The case `argv` falls in, if argparse reads it differently on some
    Python from 3.10 to 3.13.  linkctl reads it as 3.13 does, which
    test_a_version_dependent_case pins."""
    ahead = argv[: next((k for k, token in enumerate(argv) if token in COMMANDS), len(argv))]
    if "--" in ahead:
        # 3.10 to 3.13.0 refuse '--' as the command; later 3.13 skip it
        return "a '--' before the command"
    for token in argv:
        if token == "-o--" or token.startswith("-") and token.endswith("=--"):
            # 3.10 to 3.12 read the value as []
            return "a '--' joined to an option as its value"
        if token.startswith(("--=", "-=")):
            # 3.10 to 3.13.0 refuse --=x before all else and read -=x as
            # unknown; later 3.13 refuse both as ambiguous once reached
            return "a prefix of several options"
        if re.match("-h.", token):
            # 3.10 to 3.13.0 read -h=X as -hX, more short options; later 3.13
            # refuse -h=X
            return "a value joined to -h"
    return None


def _argparse(argv: list[str]) -> dict | int:
    """The old parser's arguments by name, or its exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(oracle_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _linkctl(argv: list[str]) -> dict | int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return _parse(argv)


@settings(max_examples=600, deadline=None)
@given(argv=_ARGV)
def test_linkctl_reads_argv_as_argparse_did(argv):
    # the same command, lengths, file, output, epsilon, format and
    # triangulate, or both refuse (2), or both print help (0)
    if version_dependent(argv):
        return
    assert _linkctl(argv) == _argparse(argv)


#: what argparse's negative-number test meets: ASCII digits, Arabic-Indic
#: digits, which it reads as digits, a superscript, which it does not, '-',
#: '.', a space and line breaks
_NUMBER_TEXT = st.text("0123456789١٢²-. \n", max_size=8)


@settings(max_examples=500)
@given(st.one_of(_NUMBER_TEXT.map("-".__add__), _NUMBER_TEXT))
@example("-١٢")
@example("-12\n")
@example("-12\n\n")
@example("-.5\n")
@example("-5.")
@example("-.")
@example("-\n")
@example("-²")
@example("-1.2.3")
def test_the_negative_number_test_is_argparses_regex(token):
    # `_is_negative_number` reads with string methods; `NEGATIVE` is the
    # regular expression it replaced: a \d is any decimal digit, and $ also
    # matches before a final line break
    assert _is_negative_number(token) == bool(NEGATIVE.match(token))


LENGTHS = {"command": "classify", "output": None, "epsilon": None, "format": "text"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify", "--epsilon=--", "--", "1"], {**LENGTHS, "epsilon": "--", "lengths": "1"}),
        (["classify", "-o--", "1"], {**LENGTHS, "output": "--", "lengths": "1"}),
        (["--", "classify", "1"], {**LENGTHS, "lengths": "1"}),
        (["--", "--", "classify", "1"], 2),
        (["classify", "1", "-h=h"], 2),
        (["classify", "1", "-hh"], 0),
        (["classify", "1", "-hx"], 0),
        (["classify", "1", "-h-x"], 2),
        (["classify", "1", "-ho"], 2),
        (["classify", "1", "-ho", "f"], 0),
        (["classify", "1", "--=x", "-h"], 2),  # --=x abbreviates four options
        (["classify", "1", "-h", "--=x"], 0),
        (["classify", "1", "-=x", "-h"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_a_version_dependent_case(argv, expected):
    # read as Python 3.13's argparse reads it: a '--' joined as a value is
    # kept, a '--' before the command is skipped, a value joined to -h by
    # '=' is refused and a glued one read as more short options, and an
    # ambiguous prefix is refused once reached, after an earlier -h
    assert _linkctl(argv) == expected


def test_a_joined_double_dash_epsilon_is_named_on_every_python(capsys):
    # before Python 3.13 argparse read it as [], and linkctl once said
    # "--epsilon has no value" there
    assert main(["classify", "--epsilon=--", "--", "1,1,1,eps,2"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: cannot parse --epsilon '--': not an integer, fraction or decimal\n",
    )


def _options(command: str) -> list[list[str]]:
    """The spellings of each option of `command` in the old parser."""
    sub = oracle_parser()._subparsers._group_actions[0].choices[command]
    return [action.option_strings for action in sub._actions if action.option_strings]


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_help_names_every_command(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: linkctl [-h] {classify,complex,mesh,check,tables,verify} ...\n")
    assert all(f"\n  {command} " in out for command in COMMANDS)
    assert err == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_a_commands_help_names_every_option(command, capsys):
    assert main([command, "-h"]) == 0
    out, err = capsys.readouterr()
    usage = out.split("\n")[0]
    assert usage.startswith(f"usage: linkctl {command} [-h]")
    # each option by its first spelling, as argparse's usage named it
    assert re.findall(r"\[(-[-\w]+)", usage) == [spellings[0] for spellings in _options(command)]
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["classify", "1,1,1,1,1", "--bogus"],
        ["classify"],
        ["check"],
        ["classify", "1,1,1,1,1", "1,1,1,1,1"],
        ["tables", "extra"],
        ["classify", "1,1,1,1,1", "--format", "xml"],
        ["mesh", "1,1,1,1,1", "--triangulate=1"],
        ["classify", "1,1,1,1,1", "-o"],
    ],
    ids=" ".join,
)
def test_a_refusal_prints_its_usage_and_one_error_line(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error, end = err.split("\n")
    assert usage.startswith("usage: linkctl") and end == ""
    assert re.match(r"linkctl( \w+)?: error: ", error)
    assert "Traceback" not in err
