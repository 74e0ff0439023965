"""Serialization and the verification harness.

Everything here is deterministic: two runs on the same input produce
byte-identical OBJ/PLY/JSON output.  The only floats are the mesh's vertex
positions, printed to six decimals; the exact lengths travel in the mesh
header comments and in JSON.  Complex and report documents are laid out
as json.dumps(indent=2) lays them out, but written directly: several times
faster for a complex, and with no garbage cycle left for the collector.
Tests pin both byte for byte against json.dumps writers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

from . import topology
from .cwcomplex import (
    CWComplex,
    build_complex,
    check_supported_arity,
    facet_membership_table,
)
from .geometry import Point3, SurfaceMesh
from .linkage import (
    DEFAULT_EPSILON,
    Linkage,
    LinkageError,
    make_linkage,
    parse_lengths,
    parse_rational,
)


class UnsupportedFormat(ValueError):
    pass


class IoFailure(OSError):
    pass


def write_output(text: str, path: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc


def _fmt_coord(x: float) -> str:
    value = round(x, 6)
    if value == 0:
        value = 0.0  # avoid "-0.000000"
    return f"{value:.6f}"


@lru_cache(maxsize=1)
def _vertex_lines(points: tuple[Point3, ...]) -> tuple[str, ...]:
    """Each point as its "x y z" text.  Every pentagon mesh holds the same
    `permutohedron()` tuple, so a process formats its 24 lines once; a mesh
    with other points evicts them and gets its own."""
    return tuple([" ".join([_fmt_coord(c) for c in point]) for point in points])


def export_mesh(mesh: SurfaceMesh, fmt: str = "obj", triangulate: bool = False) -> str:
    """Render the mesh as OBJ or ASCII PLY text.

    Vertices and faces come in the complex's order: vertices by permutation
    label, faces by label string.  Faces are n-gon records, or fans from
    each cycle's first vertex when `triangulate` is set.  In OBJ each record
    follows a `# face` comment holding the face's label and provenance.
    Classifying the mesh first refuses one that is not a closed surface.
    The vertex lines are formatted once per process for the points they
    share, `geometry.permutohedron()`'s table, and kept by `_vertex_lines`.
    """
    if fmt not in ("obj", "ply"):
        raise UnsupportedFormat(f"unsupported mesh format {fmt!r}")
    report = topology.analyze(mesh)
    spec = mesh.complex.linkage.spec()
    points = _vertex_lines(mesh.points)
    rows = []  # (face index, vertex cycle) per face record
    for k, cycle in enumerate(mesh.cycles):
        if triangulate:
            rows += [(k, (cycle[0], b, c)) for b, c in zip(cycle[1:], cycle[2:])]
        else:
            rows.append((k, cycle))
    if fmt == "obj":
        v_count, e_count, f_count = mesh.complex.f_vector()
        lines = [
            f"# linkage: {spec}",
            f"# classification: {report.classification}",
            f"# vertices: {v_count}  edges: {e_count}  faces: {f_count}",
        ]
        lines += ["v " + point for point in points]
        comments = [
            f"# face {label} {mesh.provenance(k)}"
            for k, label in enumerate(mesh.complex.labels_by_dim[2])
        ]
        for k, cycle in rows:
            lines += [comments[k], "f " + " ".join(str(i + 1) for i in cycle)]
    else:
        lines = [
            "ply",
            "format ascii 1.0",
            f"comment linkage: {spec}",
            f"comment classification: {report.classification}",
            f"element vertex {len(points)}",
            "property float x",
            "property float y",
            "property float z",
            f"element face {len(rows)}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
        lines += points
        lines += [f"{len(cycle)} " + " ".join(map(str, cycle)) for _, cycle in rows]
    return "\n".join(lines) + "\n"


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of items already rendered and indented, closed at
    `indent`; empty, it is `[]`, as json.dumps(indent=2) writes it."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


#: A cell record's text between its label and its faces, and after them,
#: indexed by whether the cell has faces.
_OPEN_FACES = ('",\n      "boundary": []', '",\n      "boundary": [\n        ')
_CLOSE_FACES = ("\n    }", "\n      ]\n    }")


def complex_to_json(complex_: CWComplex) -> str:
    """The complex as a schema-1 JSON document.

    The layout is json.dumps(doc, indent=2)'s, written directly: a header,
    then one record per cell with its dimension, label and the flat indices
    of its faces.  Labels are the complex's own text (`labels_by_dim`), the
    one form in which it stores a cell, so no CyclicPartition is built.  The
    rest is joined at C level: the flat indices of the grade below are
    turned into text once, each boundary row's texts are read by one
    `itemgetter` call and joined, and each record is one `str.join` of its
    five pieces, so no Python code runs per face.  Each grade's records are
    joined into one string as they are written, and the document from those
    strings by one last join: at its peak the writer holds the grades'
    strings and the document, and no list of every record.  Tests pin the
    bytes against a json.dumps writer and bound the peak.
    """
    # Strings go out unescaped: no label or length can hold a character JSON
    # escapes.  Labels are digits, braces and commas; lengths are positive
    # str(Fraction), digits and '/'.
    join_faces = ",\n        ".join
    lengths = [f'    "{l}"' for l in complex_.linkage.lengths]
    pieces = [
        f'{{\n  "schema": 1,\n  "n": {complex_.linkage.n},\n  "lengths": '
        + _json_array(lengths, "  ")
        + ',\n  "cells": ['
    ]
    numbers: list[str] = []  # the grade below's flat indices, as text
    offset = 0
    for d, (labels, rows) in enumerate(zip(complex_.labels_by_dim, complex_.boundary)):
        head = f'    {{\n      "dim": {d},\n      "label": "'
        # a row's truth picks its record's brackets: no faces, []
        has_faces = list(map(bool, rows))
        opens = map(_OPEN_FACES.__getitem__, has_faces)
        closes = map(_CLOSE_FACES.__getitem__, has_faces)
        # a built complex's rows above dim 0 list at least two faces, for
        # which itemgetter gives a tuple
        faces = [
            join_faces(itemgetter(*row)(numbers) if len(row) > 1 else [numbers[i] for i in row])
            for row in rows
        ]
        records = map("".join, zip(repeat(head), labels, opens, faces, closes))
        if labels:  # a grade's records follow the "[" or the grade before
            pieces += (",\n" if len(pieces) > 1 else "\n", ",\n".join(records))
        numbers = list(map(str, range(offset, offset + len(labels))))
        offset += len(labels)
    pieces.append("\n  ]\n}\n" if len(pieces) > 1 else "]\n}\n")
    return "".join(pieces)


def complex_from_json(text: str) -> CWComplex:
    """Load a schema-1 complex document, which must be the complex of its
    own `lengths`: the lengths fix every cell.

    After the JSON type checks (an object whose `schema` is the int 1, `n`
    an int equal to the number of `lengths`, `lengths` a list of strings
    and `cells` a non-empty list of objects with `dim`, `label` and
    `boundary`), the complex of the lengths is built, every grade wired,
    and compared with the records as `complex_to_json` writes them: the
    cell count, then each cell's dim, label and flat face indices, every
    dim and face index an int (in Python, `true == 1.0 == 1`).  Returns the
    built complex; no label is built.  Raises ValueError on any other
    document, one nested too deeply to parse included; a mismatch names
    the first differing cell, with the record expected against the one found.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("document is nested too deeply to parse") from None
    if type(doc) is not dict:
        raise ValueError(f"document is a JSON {type(doc).__name__}, not an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != 1:
        raise ValueError(f"unknown schema {schema!r}")
    for key in ("n", "lengths", "cells"):
        if key not in doc:
            raise ValueError(f"document has no {key!r}")
    if type(doc["lengths"]) is not list or any(type(t) is not str for t in doc["lengths"]):
        raise ValueError("'lengths' is not a list of strings")
    n = doc["n"]
    if type(n) is not int or n != len(doc["lengths"]):
        raise ValueError(f"'n' is {n!r}, but there are {len(doc['lengths'])} lengths")
    records = doc["cells"]
    if type(records) is not list or not records:
        raise ValueError("'cells' is not a non-empty list")
    if {*map(type, records)} != {dict}:
        k = next(k for k, c in enumerate(records) if type(c) is not dict)
        raise ValueError(f"cell {k} is not an object")
    keys = ("dim", "label", "boundary")
    try:
        found = [[c[key] for c in records] for key in keys]
    except KeyError as exc:
        k = next(k for k, c in enumerate(records) if exc.args[0] not in c)
        raise ValueError(f"cell {k} has no {exc.args[0]!r}") from None
    check_supported_arity(n)  # before make_linkage's 2^n pass
    linkage = make_linkage([parse_rational(t) for t in doc["lengths"]])
    complex_ = build_complex(linkage)
    if len(records) != sum(complex_.f_vector()):
        raise ValueError(
            f"document has {len(records)} cells, but the complex of lengths"
            f" {linkage.spec()} has {sum(complex_.f_vector())}"
        )
    start = below = 0  # the flat index of the first cell of this grade, of the one below
    for d, (labels, rows) in enumerate(zip(complex_.labels_by_dim, complex_.boundary)):
        end = start + len(labels)
        want = [
            [d] * len(labels),
            list(labels),
            [[below + j for j in row] for row in rows],
        ]
        got = [column[start:end] for column in found]
        # whole columns compare in C; only a mismatch walks the cells to name it
        if got != want or {*map(type, got[0]), *map(type, chain.from_iterable(got[2]))} != {int}:
            k, record, expected = next(
                (start + k, record, expected)
                for k, (record, expected) in enumerate(zip(zip(*got), zip(*want)))
                if record != expected or {type(record[0]), *map(type, record[2])} != {int}
            )
            expected, record = [json.dumps(dict(zip(keys, r))) for r in (expected, record)]
            raise ValueError(f"cell {k}: expected {expected}, found {record}")
        below, start = start, end
    return complex_


def report_to_json(report: topology.TopologyReport, linkage: Linkage) -> str:
    """The report as a schema-1 JSON document in json.dumps(indent=2)'s
    layout, written directly as `complex_to_json` is: the indenting encoder
    leaves a cycle of closures on every call.  A test pins the bytes."""
    # n >= 6 reports no per-component detail, even for a connected space, but
    # every n reports the component count
    single = report.components[0] if len(report.components) == 1 else None
    value = json.dumps  # a scalar's text; the one-line encoder leaves no cycle
    components = [
        f'    {{\n      "chi": {c.euler_characteristic},\n      "orientable": '
        f'{value(c.orientable)},\n      "genus": {value(c.genus)}\n    }}'
        for c in report.components
    ]
    doc = {
        "schema": "1",
        "lengths": _json_array([f'    "{l}"' for l in linkage.lengths], "  "),
        "f_vector": _json_array([f"    {c}" for c in report.f_vector], "  "),
        "component_count": value(report.component_count),
        "components": _json_array(components, "  "),
        "chi": value(report.euler_characteristic),
        "orientable": value(single.orientable if single else None),
        "genus": value(single.genus if single else None),
        "classification": value(report.classification),
    }
    return "{\n" + ",\n".join(f'  "{k}": {v}' for k, v in doc.items()) + "\n}\n"


def render_report(report: topology.TopologyReport, linkage: Linkage) -> str:
    lines = [
        f"linkage: {linkage.spec()}  (n={linkage.n})",
        "f-vector: " + " ".join(f"{c}" for c in report.f_vector),
        f"euler characteristic: {report.euler_characteristic}",
        f"components: {report.component_count}",
    ]
    for i, c in enumerate(report.components, 1):
        detail = f"  component {i}: chi={c.euler_characteristic}"
        if c.orientable is not None:
            detail += f" orientable={'yes' if c.orientable else 'no'}"
        if c.genus is not None:
            detail += f" genus={c.genus}"
        lines.append(detail)
    lines.append(f"classification: {report.classification}")
    return "\n".join(lines) + "\n"


class Representative(NamedTuple):
    """One of the six standard pentagons with its expected classification."""

    spec: str
    classification: str
    components: int
    chi: int


REPRESENTATIVES: tuple[Representative, ...] = (
    Representative("1,1,1,1,3", "sphere", 1, 2),
    Representative("1,1,1,eps,2", "torus", 1, 0),
    Representative("2,2,1,1,3", "genus-2 surface", 1, -2),
    Representative("1,1,eps,eps,1", "2 tori", 2, 0),
    Representative("2,1,1,1,2", "genus-3 surface", 1, -4),
    Representative("1,1,1,1,1", "genus-4 surface", 1, -6),
)


def render_tables() -> str:
    """Regenerate both facet-admissibility tables for the six standard
    pentagons at eps = DEFAULT_EPSILON, with 'v' marking admissible rows."""
    linkages = [make_linkage(parse_lengths(r.spec)) for r in REPRESENTATIVES]
    step2, step3 = facet_membership_table(linkages)
    columns = [f"({r.spec})" for r in REPRESENTATIVES]
    width = max(
        [len("partition")]
        + [len(r) for r, _ in step2]
        + [len(f"{a} & {b}") for (a, b), _ in step3]
    )

    def row_line(idx: int, label: str, values) -> str:
        cells = "  ".join(("v" if v else "-").center(len(c)) for v, c in zip(values, columns))
        return f"{idx:>2}  {label:<{width}}  {cells}"

    header = f"{'':>2}  {'partition':<{width}}  " + "  ".join(columns)
    lines = [f"step 2: permutohedron facets kept (eps = {DEFAULT_EPSILON})", "", header]
    for i, (label, values) in enumerate(step2, 1):
        lines.append(row_line(i, label, values))
    lines += ["", f"step 3: diagonal faces patched in (eps = {DEFAULT_EPSILON})", "", header]
    for i, ((a, b), values) in enumerate(step3, 1):
        lines.append(row_line(i, f"{a} & {b}", values))
    lines += [
        "",
        "note: step-2 row 8 is the reversal {2,3,4}{1}{5} of row 1; it is",
        "sometimes misprinted as {1,2,3}{1}{5}, which repeats 1 and omits 4.",
    ]
    return "\n".join(lines) + "\n"


def verify_all(
    epsilon: Fraction = DEFAULT_EPSILON,
    expectations: tuple[Representative, ...] = REPRESENTATIVES,
) -> tuple[bool, str]:
    """Classify the six standard pentagons and compare classification,
    component count and Euler characteristic against the expected values.
    Specs containing `eps` are re-checked at epsilon/10 to confirm the
    combinatorics has stabilised.  Returns whether all passed, and the report."""
    lines = []
    ok = True
    for rep in expectations:
        try:
            linkage = make_linkage(parse_lengths(rep.spec, epsilon))
            report = topology.classify_linkage(linkage)
            got = (report.classification, report.component_count, report.euler_characteristic)
            want = (rep.classification, rep.components, rep.chi)
            good = got == want
            detail = f"got {got[0]!r}, {got[1]} component(s), chi={got[2]}"
            if good and "eps" in rep.spec:
                retry = topology.classify_linkage(
                    make_linkage(parse_lengths(rep.spec, epsilon / 10))
                )
                if retry.classification != report.classification:
                    good = False
                    detail += (
                        f"; UNSTABLE: eps/10 gives {retry.classification!r}"
                        f" (epsilon {epsilon} is too large)"
                    )
            if not good and got != want:
                detail += f"; expected {want[0]!r}, {want[1]} component(s), chi={want[2]}"
        except LinkageError as exc:
            good = False
            detail = f"construction failed: {exc}"
        ok = ok and good
        lines.append(f"[{'PASS' if good else 'FAIL'}] ({rep.spec}): {detail}")
    lines.append(f"verification {'passed' if ok else 'FAILED'} for {len(expectations)} linkages")
    return ok, "\n".join(lines) + "\n"
