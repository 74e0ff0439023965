"""linkctl: classify linkage moduli spaces and export their models.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or a file
or stream that cannot be read or written, 3 internal invariant violation.
A stderr that cannot be written does not change the code.  `check` reads at
most `CHECK_BOUND` bytes, decoded as UTF-8, and refuses a longer or an
undecodable input with exit 2.

linkctl reads its argv as argparse did, with string methods where argparse
used regular expressions, and closes its streams with `try` blocks, so a
request loads no `argparse`, `re` or `contextlib`.
"""

from __future__ import annotations

import errno
import io
import os
import sys
from collections.abc import Iterable

from . import export, topology
from .cwcomplex import ArityMismatch, build_complex, check_supported_arity
from .geometry import perform_surgery
from .linkage import (
    DEFAULT_EPSILON,
    Linkage,
    LinkageError,
    make_linkage,
    parse_lengths,
    parse_rational,
)
from .topology import NotAClosedSurface

#: linkctl's grammar: each command's positional and options.  An option,
#: spelt --name, takes any value (None), one of its choices (the first is
#: the default) or none (False).  -o is --output, and every command takes
#: -h/--help.
_LENGTHS = {"output": None, "epsilon": None}
_COMMANDS = {
    "classify": ("lengths", {**_LENGTHS, "format": ("text", "json")}),
    "complex": ("lengths", {**_LENGTHS, "format": ("json",)}),
    "mesh": ("lengths", {**_LENGTHS, "format": ("obj", "ply"), "triangulate": False}),
    "check": ("file", {}),
    "tables": (None, {}),
    "verify": (None, {}),
}
_HELP = {
    "classify": "surface type of the moduli space",
    "complex": "export the cell complex as JSON",
    "mesh": "export the polyhedral model (pentagons only)",
    "check": "load a complex JSON document and report its first fault",
    "tables": "facet admissibility tables for the six standard pentagons",
    "verify": "check the six standard pentagons against their known types",
    "lengths": "comma-separated rational lengths, e.g. 1,1,1,1/100,2 (eps = epsilon)",
    "file": "the document, or - for stdin",
}
#: each option's name by its spellings, for each command and (None) the top level
_SPELLINGS = {
    command: {"-h": "help", "--help": "help", **({"-o": "output"} if "output" in options else {})}
    | {f"--{name}": name for name in options}
    for command, (_, options) in [(None, (None, {})), *_COMMANDS.items()]
}
#: Each pentagon `mesh` and `classify` text met, by its chamber, command,
#: format and `--triangulate`, as the two halves around the one piece that
#: depends on the spec (`_render`).  The surgery keeps a cell by which
#: subsets are short, so all else in the text is fixed by the pentagon's
#: `Linkage.short` table.  Generic pentagons have 76 labelled chambers, so
#: the memo holds at most 456 texts, about 0.58 MB.  Only n = 5 is kept:
#: n = 7 alone has up to 675,360 labelled chambers.  Only a process that
#: serves many pentagon requests through `main` gains, as `perfbench`'s
#: in-process client does.  A one-shot `linkctl` fills one text that no
#: later request reads, and a library caller renders in full on every call.
#: Two threads that fill one key at once store the same halves.
_memo: dict[tuple[tuple[bool, ...], str, str, bool], tuple[str, str]] = {}

#: the most bytes `check` reads, so that an endless input such as /dev/zero
#: is refused, not read until memory runs out.  The writer's largest
#: document for n <= 8, the all-short n=8 table's, is 17,123,994 bytes, and
#: `1,1,1,1,1,1,1,2`'s re-indented with indent=4 is 22,504,489
CHECK_BOUND = 32 * 2**20


def _read(token: str, spellings: dict[str, str]) -> tuple[str | None, str | None] | None:
    """How argparse reads `token`: None for a positional, else the option's
    name and its joined value, or None if none is joined.  The name is None
    for an unknown option, and the value then refuses an ambiguous one."""
    if token[:1] != "-" or token == "-":
        return None
    if token in spellings:
        return spellings[token], None
    head, sep, value = token.partition("=")
    if sep and head in spellings:
        return spellings[head], value
    if token[1] != "-" and token[:2] in spellings:  # -oFILE
        return spellings[token[:2]], token[2:]
    matches = [spelling for spelling in spellings if spelling.startswith(head)]
    if len(matches) == 1:  # an abbreviation
        return spellings[matches[0]], value if sep else None
    if matches:
        return None, f"ambiguous option: {token} could match {', '.join(matches)}"
    return None if _is_negative_number(token) or " " in token else (None, None)


def _is_negative_number(token: str) -> bool:
    r"""Whether argparse reads `token` as a negative number, a positional:
    whether it matches ^-\d+$|^-\d*\.\d+$, where \d is any decimal digit
    (`str.isdecimal`) and $ also matches before a final line break."""
    number = token[1:-1] if token.endswith("\n") else token[1:]
    whole, _, tenths = number.partition(".")
    return token[:1] == "-" and (
        number.isdecimal() or tenths.isdecimal() and (not whole or whole.isdecimal())
    )


def _missing(argv: list[str], k: int, spellings: dict[str, str]) -> bool:
    """Whether argv[k] cannot be the value of the option before it."""
    return k == len(argv) or argv[k] == "--" or _read(argv[k], spellings) is not None


def _usage(command: str | None) -> str:
    """The usage of linkctl (None) or of one of its commands, on one line."""
    positional, options = _COMMANDS.get(command, ("{%s} ..." % ",".join(_COMMANDS), {}))
    words = []
    for name in ("help", *options):
        spec = options.get(name, False)
        metavar = "" if spec is False else " {%s}" % ",".join(spec) if spec else " " + name.upper()
        spelling = next(s for s, n in _SPELLINGS[command].items() if n == name)  # argparse's first
        words.append(f"[{spelling}{metavar}]")
    return " ".join(filter(None, ["usage: linkctl", command, *words, positional]))


def _help(command: str | None) -> int:
    """Write the usage and help of linkctl (None) or of a command to stdout
    by `_emit`: return 0, or 2 if the write fails."""
    positional = _COMMANDS[command][0] if command else None
    rows = ([positional] if positional else []) if command else list(_COMMANDS)
    about = _HELP[command] if command else __doc__.splitlines()[0]
    lines = [_usage(command), "", about, "", *(f"  {row:<8}  {_HELP[row]}" for row in rows)]
    return _emit("\n".join(lines) + "\n", None)


def _refuse(command: str | None, message: str) -> int:
    """Print the usage and one error line to stderr, as argparse did; return 2."""
    prog = " ".join(filter(None, ["linkctl", command]))
    _warn(_usage(command), f"{prog}: error: {message}")
    return 2


def _parse(argv: list[str]) -> dict[str, str | bool | None] | int:
    """Read linkctl's argv in one pass from the left, as argparse (Python
    3.13) read it, and return its arguments by name; or print help or a
    refusal, in argparse's order, and return its exit code, 0 or 2."""
    command, want, options, spellings = None, "command", {}, _SPELLINGS[None]
    args: dict[str, str | bool | None] = {}
    extras: list[str] = []
    only, filled, k = False, -1, 0  # after `--` (`only`), every token is a positional
    while k < len(argv):
        token = argv[k]
        k += 1
        if token == "--" and not only:
            only = True  # dropped before the token that fills `want`, or after it
            if not (want and k < len(argv) or filled == k - 1):
                extras.append(token)
            continue
        read = None if only else _read(token, spellings)
        if read is None and want == "command":  # the top level's one positional
            if token not in _COMMANDS:
                return _refuse(None, f"argument command: invalid choice: {token!r}")
            command, (want, options), spellings = token, _COMMANDS[token], _SPELLINGS[token]
            args = {"command": token, **{name: spec and spec[0] for name, spec in options.items()}}
            only = False  # a `--` before the command is the top level's
        elif read is None and want:
            args[want], want, filled = token, None, k
        elif read is None:
            extras.append(token)
        elif read[0] == "help":
            value = read[1]
            if value is not None:  # -hX is -h -X, and -h=X is refused
                rest = value.lstrip("h") if token[1] != "-" and value == token[2:] else "=" + value
                if rest.startswith(("-", "=")):
                    return _refuse(command, f"argument -h: ignored explicit argument {value!r}")
                if rest == "o" and "-o" in spellings and _missing(argv, k, spellings):
                    return _refuse(command, "argument -o: expected one argument")
            return _help(command)
        elif read[0] is None:  # unknown, or ambiguous with its refusal
            if read[1]:
                return _refuse(command, read[1])
            extras.append(token)
        else:
            name, value = read
            if options[name] is False and value is not None:
                return _refuse(command, f"argument --{name}: ignored explicit argument {value!r}")
            if value is None and options[name] is not False:
                if _missing(argv, k, spellings):
                    return _refuse(command, f"argument --{name}: expected one argument")
                value, k = argv[k], k + 1
            if options[name] and value not in options[name]:
                return _refuse(command, f"argument --{name}: invalid choice: {value!r}")
            args[name] = True if value is None else value
    if want:
        return _refuse(command, f"the following arguments are required: {want}")
    if extras:
        return _refuse(None, f"unrecognized arguments: {' '.join(extras)}")
    return args


def _std(stream: io.TextIOBase | None) -> io.TextIOBase:
    """`sys.stdin`, `sys.stdout` or `sys.stderr`, which Python sets to None
    when its fd was closed at start; reading or writing it then fails as the
    closed fd would."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _emit(text: str | Iterable[str], output: str | None) -> int:
    """Write `text`, or its pieces as they come, to the file `output`, or to
    stdout for None; return 0, or 2 after one error line if the write fails.
    A failed stdout is closed, as the file is, so the interpreter's flush at
    exit does not retry its text."""
    try:
        fh = _std(sys.stdout) if output is None else open(output, "w")
        try:
            fh.writelines([text] if isinstance(text, str) else text)
            fh.flush()
        finally:
            if output is not None:
                fh.close()
    except OSError as exc:
        if output is None and sys.stdout is not None:
            try:
                sys.stdout.close()
            except OSError:  # close flushes, and fails as the flush did
                pass
        where = "stdout" if output is None else repr(output)
        _warn(f"error: cannot write {where}: {exc}")
        return 2
    return 0


def _warn(*lines: str) -> None:
    """Print `lines` to stderr.  A stderr that cannot be written changes no
    exit code: the failure is ignored and stderr closed, as `_emit` closes a
    failed stdout, or the interpreter's flush at exit fails on the same text
    and exits 120."""
    try:
        print(*lines, sep="\n", file=_std(sys.stderr), flush=True)
    except OSError:
        if sys.stderr is not None:
            try:
                sys.stderr.close()
            except OSError:
                pass


def _check_bar_count(command: str, n: int) -> None:
    """Reject a bar count the command cannot handle, naming the command,
    before make_linkage spends 2^n steps on the genericity check."""
    if command == "mesh":
        if n != 5:
            raise ArityMismatch(f"mesh is defined for pentagons (n=5), got n={n}")
    else:
        check_supported_arity(n, command)


def _render(command: str, fmt: str, triangulate: bool, linkage: Linkage) -> str:
    """The text of a `mesh` or `classify` request.  A pentagon's text is
    fixed by its chamber but for one piece, the spec or a JSON report's
    `"lengths"` array: a memo hit joins the halves by the piece, and a miss
    renders through the library and keeps the text cut at the piece's first
    place.  That is the piece's own, as no text holds a ',' or a '[' before
    it."""
    spec = linkage.spec()
    piece = export._lengths_json(spec) if fmt == "json" else spec
    key = (linkage.short, command, fmt, triangulate)
    if (halves := _memo.get(key)) is not None:
        return piece.join(halves)
    if command == "mesh":
        text = export.export_mesh(perform_surgery(linkage), fmt, triangulate)
    else:
        write = export.report_to_json if fmt == "json" else export.render_report
        text = write(topology.classify_linkage(linkage), linkage)
    if linkage.n == 5:
        head, _, tail = text.partition(piece)
        _memo[key] = head, tail
    return text


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    command = args["command"]
    try:
        if command == "tables":
            return _emit(export.render_tables(), None)
        if command == "check":
            path = args["file"]
            try:
                if path == "-":
                    text = _std(sys.stdin).buffer.read(CHECK_BOUND + 1)
                else:
                    with open(path, "rb") as fh:
                        text = fh.read(CHECK_BOUND + 1)
                if len(text) > CHECK_BOUND:
                    raise ValueError(f"longer than {CHECK_BOUND:,} bytes")
                text = text.decode()
            except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
                _warn(f"error: cannot read {path!r}: {exc}")
                return 2
            try:
                export.complex_from_json(text)
            except ValueError as exc:  # the loader's verdict on the document
                _warn(f"error: {exc}")
                return 2
            return 0
        if command == "verify":
            ok, text = export.verify_all()
            return _emit(text, None) or (0 if ok else 1)

        epsilon = args["epsilon"]
        epsilon = DEFAULT_EPSILON if epsilon is None else parse_rational(epsilon, "--epsilon")
        if epsilon.numerator <= 0:  # else make_linkage would blame the first eps length
            raise LinkageError(f"--epsilon is {epsilon}; it must be > 0")
        # count the bars first, so an over-long list is refused unparsed
        _check_bar_count(command, args["lengths"].count(",") + 1)
        linkage = make_linkage(parse_lengths(args["lengths"], epsilon))
        if command == "complex":
            return _emit(export.complex_json_pieces(build_complex(linkage)), args["output"])
        text = _render(command, args["format"], args.get("triangulate", False), linkage)
        return _emit(text, args["output"])
    except (LinkageError, ArityMismatch) as exc:
        _warn(f"error: {exc}")
        return 2
    except (NotAClosedSurface, ValueError) as exc:
        # any other ValueError is the package's fault, not the input's
        _warn(f"internal invariant violated: {exc}")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
