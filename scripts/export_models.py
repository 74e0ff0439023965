#!/usr/bin/env python3
"""Export the polyhedral models of the six standard pentagons.

Writes one OBJ (plus a JSON report) per linkage into models/ through
`linkctl mesh` and `linkctl classify --format json`, then prints the
classification table read back from the reports.  Pass --triangulate for
viewers that want triangle meshes, and --out to change the target directory.
"""

import argparse
import json
from pathlib import Path

from linkspace.cli import main as linkctl
from linkspace.export import REPRESENTATIVES


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="models", help="output directory")
    parser.add_argument("--triangulate", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rep in REPRESENTATIVES:
        stem = out / rep.spec.replace(",", "_").replace("/", "-")
        mesh = ["mesh", rep.spec, "-o", f"{stem}.obj"]
        if args.triangulate:
            mesh.append("--triangulate")
        for command in (mesh, ["classify", rep.spec, "--format", "json", "-o", f"{stem}.json"]):
            if linkctl(command) != 0:
                raise SystemExit(f"linkctl {' '.join(command)} failed")
        report = json.loads(Path(f"{stem}.json").read_text())
        rows.append((rep.spec, report["classification"], "({},{},{})".format(*report["f_vector"])))
        print(f"wrote {stem}.obj")

    width = max(len(r[0]) for r in rows)
    print()
    print(f"{'pentagon':<{width}}  {'moduli space':<16} (V,E,F)")
    for spec, name, counts in rows:
        print(f"{spec:<{width}}  {name:<16} {counts}")


if __name__ == "__main__":
    main()
