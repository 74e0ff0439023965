"""linkctl: classify linkage moduli spaces and export their models.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

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


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        export.write_output(text, output)


def _check_bar_count(command: str, n: int) -> None:
    """Reject a bar count the command cannot handle, before make_linkage
    spends 2^n steps on the genericity check."""
    if command == "mesh":
        if n != 5:
            raise ArityMismatch(f"mesh is defined for pentagons (n=5), got n={n}")
    else:
        check_supported_arity(n)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tables":
            _emit(export.render_tables(), None)
            return 0
        if args.command == "check":
            text = export.read_input(args.file)
            try:
                export.complex_from_json(text)
            except ValueError as exc:  # the loader's verdict on the document
                print(f"error: {exc}", file=sys.stderr)
                return 2
            return 0
        if args.command == "verify":
            ok, text = export.verify_all()
            _emit(text, None)
            return 0 if ok else 1

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
                _emit(export.report_to_json(report, linkage), args.output)
            else:
                _emit(export.render_report(report, linkage), args.output)
            return 0
        if args.command == "complex":
            _emit(export.complex_to_json(build_complex(linkage)), args.output)
            return 0
        if args.command == "mesh":
            mesh = perform_surgery(linkage)
            _emit(export.export_mesh(mesh, args.format, args.triangulate), args.output)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except (LinkageError, ArityMismatch, export.IoFailure) as exc:
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
