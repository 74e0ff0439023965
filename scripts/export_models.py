#!/usr/bin/env python3
"""Export the polyhedral models of the six standard pentagons.

Writes one OBJ (plus a JSON report) per linkage into models/, mirroring the
classification table printed at the end.  Pass --triangulate for viewers
that want triangle meshes, and --out to change the target directory.
"""

import argparse
from pathlib import Path

from linkspace.export import (
    REPRESENTATIVES,
    export_mesh,
    parse_lengths,
    report_to_json,
)
from linkspace.geometry import perform_surgery
from linkspace.linkage import make_linkage
from linkspace.topology import analyze


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="models", help="output directory")
    parser.add_argument("--triangulate", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rep in REPRESENTATIVES:
        linkage = make_linkage(parse_lengths(rep.spec))
        mesh = perform_surgery(linkage)
        report = analyze(mesh)
        stem = rep.spec.replace(",", "_").replace("/", "-")
        (out / f"{stem}.obj").write_text(
            export_mesh(mesh, "obj", triangulate=args.triangulate)
        )
        (out / f"{stem}.json").write_text(report_to_json(report, linkage))
        v, e, f = mesh.counts()
        rows.append((rep.spec, report.classification, f"({v},{e},{f})"))
        print(f"wrote {out / (stem + '.obj')}")

    width = max(len(r[0]) for r in rows)
    print()
    print(f"{'pentagon':<{width}}  {'moduli space':<16} (V,E,F)")
    for spec, name, counts in rows:
        print(f"{spec:<{width}}  {name:<16} {counts}")


if __name__ == "__main__":
    main()
