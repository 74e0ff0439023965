"""linkctl: classify linkage moduli spaces and export their models.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or a file
or stream that cannot be read or written, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import nullcontext, suppress
from functools import cache
from typing import Iterable, TextIO

from . import export, topology
from .cwcomplex import ArityMismatch, build_complex, check_supported_arity
from .geometry import perform_surgery
from .linkage import DEFAULT_EPSILON, LinkageError, make_linkage, parse_lengths, parse_rational
from .topology import NotAClosedSurface

LENGTHS_HELP = "comma-separated rational lengths, e.g. 1,1,1,1/100,2 (eps = epsilon)"


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The linkctl argument parser, built on the first call and then reused:
    parse_args leaves it unchanged, and main runs once per request."""
    parser = argparse.ArgumentParser(
        prog="linkctl",
        description="moduli spaces of planar polygonal linkages: "
        "cell complexes, polyhedral models, surface types",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command that takes lengths
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("lengths", help=LENGTHS_HELP)
    common.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    common.add_argument("--epsilon", default=None, help="value for eps tokens (default 1/100)")

    classify = sub.add_parser("classify", parents=[common], help="surface type of the moduli space")
    classify.add_argument("--format", choices=["text", "json"], default="text")

    complex_ = sub.add_parser("complex", parents=[common], help="export the cell complex as JSON")
    complex_.add_argument("--format", choices=["json"], default="json")

    mesh = sub.add_parser(
        "mesh", parents=[common], help="export the polyhedral model (pentagons only)"
    )
    mesh.add_argument("--format", choices=["obj", "ply"], default="obj")
    mesh.add_argument("--triangulate", action="store_true", help="fan-triangulate faces")

    check = sub.add_parser("check", help="load a complex JSON document and report its first fault")
    check.add_argument("file", help="the document, or - for stdin")

    sub.add_parser("tables", help="facet admissibility tables for the six standard pentagons")
    sub.add_parser("verify", help="check the six standard pentagons against their known types")
    return parser


def _std(stream: TextIO | None) -> TextIO:
    """`sys.stdin` or `sys.stdout`, which Python sets to None when its fd
    was closed at start; reading or writing it then fails as the closed fd
    would."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _emit(text: str | Iterable[str], output: str | None) -> int:
    """Write `text`, or its pieces as they come, to the file `output`, or to
    stdout for None; return 0, or 2 after one error line if the write fails.
    A failed stdout is closed, as the file is, so the interpreter's flush at
    exit does not retry its text."""
    try:
        with nullcontext(_std(sys.stdout)) if output is None else open(output, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
            fh.flush()
    except OSError as exc:
        if output is None and sys.stdout is not None:
            with suppress(OSError):  # close flushes, and fails as the flush did
                sys.stdout.close()
        where = "stdout" if output is None else repr(output)
        print(f"error: cannot write {where}: {exc}", file=sys.stderr)
        return 2
    return 0


def _check_bar_count(command: str, n: int) -> None:
    """Reject a bar count the command cannot handle, naming the command,
    before make_linkage spends 2^n steps on the genericity check."""
    if command == "mesh":
        if n != 5:
            raise ArityMismatch(f"mesh is defined for pentagons (n=5), got n={n}")
    else:
        try:
            check_supported_arity(n)
        except ArityMismatch:
            raise ArityMismatch(f"{command} supports 4 <= n <= 8 bars, got n={n}") from None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tables":
            return _emit(export.render_tables(), None)
        if args.command == "check":
            try:
                with nullcontext(_std(sys.stdin)) if args.file == "-" else open(args.file) as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: cannot read {args.file!r}: {exc}", file=sys.stderr)
                return 2
            try:
                export.complex_from_json(text)
            except ValueError as exc:  # the loader's verdict on the document
                print(f"error: {exc}", file=sys.stderr)
                return 2
            return 0
        if args.command == "verify":
            ok, text = export.verify_all()
            return _emit(text, None) or (0 if ok else 1)

        # argparse before Python 3.13 parses `--epsilon=--` as []
        if args.epsilon == []:
            raise LinkageError("--epsilon has no value")
        epsilon = (
            DEFAULT_EPSILON if args.epsilon is None else parse_rational(args.epsilon, "--epsilon")
        )
        if epsilon <= 0:  # else make_linkage would blame the first eps length
            raise LinkageError(f"--epsilon is {epsilon}; it must be > 0")
        # count the bars first, so an over-long list is refused unparsed
        _check_bar_count(args.command, args.lengths.count(",") + 1)
        lengths = parse_lengths(args.lengths, epsilon)
        linkage = make_linkage(lengths)
        if args.command == "classify":
            report = topology.classify_linkage(linkage)
            if args.format == "json":
                return _emit(export.report_to_json(report, linkage), args.output)
            return _emit(export.render_report(report, linkage), args.output)
        if args.command == "complex":
            return _emit(export.complex_json_pieces(build_complex(linkage)), args.output)
        if args.command == "mesh":
            mesh = perform_surgery(linkage)
            return _emit(export.export_mesh(mesh, args.format, args.triangulate), args.output)
        raise AssertionError(f"unhandled command {args.command}")
    except (LinkageError, ArityMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAClosedSurface, ValueError) as exc:
        # any other ValueError is the package's fault, not the input's
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
