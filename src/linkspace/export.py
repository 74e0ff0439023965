"""Serialization and the verification harness.

Everything here is deterministic: two runs on the same input produce
byte-identical OBJ/PLY/JSON output.  Coordinates become floats only at
export; the exact rational data (lengths, 4D vertex coordinates) travels in
comments and JSON.  Complex documents are laid out as json.dumps(indent=2)
lays them out, but written directly, which is several times faster; a test
pins them byte for byte against a json.dumps writer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import topology
from .cwcomplex import (
    CWComplex,
    MembershipTable,
    check_supported_arity,
    facet_membership_table,
)
from .geometry import SurfaceMesh
from .linkage import (
    DEFAULT_EPSILON,
    Linkage,
    LinkageError,
    make_linkage,
    parse_rational,
)
from .partitions import CyclicPartition, parse_part, parse_partition, part_text


class UnsupportedFormat(ValueError):
    pass


class IoFailure(OSError):
    pass


def parse_lengths(text: str, epsilon: Fraction = DEFAULT_EPSILON) -> list[Fraction]:
    """Parse a comma-separated length spec; each token is `int`, `int/int`
    or the symbol `eps` (replaced by the given epsilon)."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise LinkageError(f"no lengths in {text!r}")
    return [
        Fraction(epsilon) if t == "eps" else parse_rational(t) for t in tokens
    ]


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


def _face_rows(mesh: SurfaceMesh, triangulate: bool):
    for face in sorted(mesh.faces, key=lambda f: str(f.label)):
        if triangulate:
            anchor = face.cycle[0]
            for b, c in zip(face.cycle[1:], face.cycle[2:]):
                yield face, (anchor, b, c)
        else:
            yield face, face.cycle


def export_mesh(mesh: SurfaceMesh, fmt: str = "obj", triangulate: bool = False) -> str:
    """Render the mesh as OBJ or ASCII PLY text.

    Vertices are sorted by permutation label (the mesh is already built that
    way); faces are n-gon records, or fans from each cycle's first vertex
    when `triangulate` is set.
    """
    if fmt not in ("obj", "ply"):
        raise UnsupportedFormat(f"unsupported mesh format {fmt!r}")
    report = topology.analyze(mesh)
    if fmt == "obj":
        lines = [
            f"# linkage: {mesh.linkage.spec()}",
            f"# classification: {report.classification}",
            f"# vertices: {len(mesh.vertices)}  edges: {len(mesh.edges)}  faces: {len(mesh.faces)}",
        ]
        for v in mesh.vertices:
            lines.append("v " + " ".join(_fmt_coord(c) for c in v.point3))
        for face, cycle in _face_rows(mesh, triangulate):
            lines.append(f"# face {face.label} {face.provenance}")
            lines.append("f " + " ".join(str(i + 1) for i in cycle))
        return "\n".join(lines) + "\n"
    face_rows = list(_face_rows(mesh, triangulate))
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment linkage: {mesh.linkage.spec()}",
        f"comment classification: {report.classification}",
        f"element vertex {len(mesh.vertices)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(face_rows)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for v in mesh.vertices:
        lines.append(" ".join(_fmt_coord(c) for c in v.point3))
    for _, cycle in face_rows:
        lines.append(f"{len(cycle)} " + " ".join(str(i) for i in cycle))
    return "\n".join(lines) + "\n"


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of items already rendered and indented, closed at
    `indent`; empty, it is `[]`, as json.dumps(indent=2) writes it."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def complex_to_json(complex_: CWComplex) -> str:
    """The complex as a schema-1 JSON document.

    The layout is json.dumps(doc, indent=2)'s, written directly: a header,
    then one record per cell with its dimension, label and the flat indices
    of its faces.  Within the call each distinct part's text and each face
    index's text are rendered once.  A test pins the bytes against a
    json.dumps writer.
    """
    # Strings go out unescaped: no label or length can hold a character JSON
    # escapes.  Labels are digits, braces and commas; lengths are positive
    # str(Fraction), digits and '/'.
    layers = complex_.cells_by_dim
    texts = dict.fromkeys(
        p for layer in layers for label in layer for p in label.parts
    )
    for p in texts:
        texts[p] = part_text(p)
    records = []
    refs: list[str] = []  # the layer below, as indented flat indices
    offset = 0
    for d, layer in enumerate(layers):
        head = f'    {{\n      "dim": {d},\n      "label": "'
        rows = complex_.boundary[d] if d else [()] * len(layer)
        for label, row in zip(layer, rows):
            records.append(
                head
                + "".join([texts[p] for p in label.parts])
                + '",\n      "boundary": '
                + _json_array([refs[j] for j in row], "      ")
                + "\n    }"
            )
        refs = [f"        {offset + j}" for j in range(len(layer))]
        offset += len(layer)
    lengths = [f'    "{l}"' for l in complex_.linkage.lengths]
    return (
        f'{{\n  "schema": 1,\n  "n": {complex_.linkage.n},\n  "lengths": '
        + _json_array(lengths, "  ")
        + ',\n  "cells": '
        + _json_array(records, "  ")
        + "\n}\n"
    )


def complex_from_json(text: str) -> CWComplex:
    """Load a schema-1 complex document.

    Raises ValueError on a document that does not describe a complex on its
    own lengths: a value of the wrong JSON type (the document must be an
    object, `lengths` a list of strings, `cells` a non-empty list of
    objects, each `dim` an int, each `label` a string and each `boundary` a
    list), a missing key, a label that is not a partition (NotAPartition),
    is on another number of bars or is not written as the writer writes it
    (n's part last, each part ascending), a dim other than n minus the
    label's part count, labels of one dim that do not strictly increase
    (so a cell listed twice, or two cells swapped), or a face index that is
    out of range, not one dim down or listed twice in one boundary.

    Each distinct part text is parsed once per document; a label is then
    checked on the parts' bitmasks and built without a second check.  Each
    check is linear in the document.
    """
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError(f"document is a JSON {type(doc).__name__}, not an object")
    if doc.get("schema") != 1:
        raise ValueError(f"unknown schema {doc.get('schema')!r}")
    for key in ("lengths", "cells"):
        if key not in doc:
            raise ValueError(f"document has no {key!r}")
    if type(doc["lengths"]) is not list or any(type(t) is not str for t in doc["lengths"]):
        raise ValueError("'lengths' is not a list of strings")
    records = doc["cells"]
    if type(records) is not list or not records:
        raise ValueError("'cells' is not a non-empty list")
    for k, c in enumerate(records):
        if type(c) is not dict:
            raise ValueError(f"cell {k} is not an object")
    lengths = [parse_rational(t) for t in doc["lengths"]]
    n = len(lengths)
    check_supported_arity(n)  # before make_linkage's 2^n pass
    linkage = make_linkage(lengths)
    try:
        rows = [(c["dim"], c["label"], c["boundary"]) for c in records]
    except KeyError as exc:
        k = next(k for k, c in enumerate(records) if exc.args[0] not in c)
        raise ValueError(f"cell {k} has no {exc.args[0]!r}") from None
    for k, (d, label_text, faces) in enumerate(rows):
        if type(d) is not int:
            raise ValueError(f"cell {k}: dim {d!r} is not an integer")
        if type(label_text) is not str:
            raise ValueError(f"cell {k}: label is not a string")
        if label_text[:1] != "{" or label_text[-1:] != "}":
            raise _label_error(k, label_text, n)
        if type(faces) is not list:
            raise ValueError(f"cell {k}: boundary is not a list")
    # '{1,3}{2}{4,5}' -> ['1,3', '2', '4,5']
    bodies = [label_text[1:-1].split("}{") for _, label_text, _ in rows]
    # Each distinct part text is parsed once and kept only if the writer
    # would write it so and it lies in 1..n.  Its weight packs its bitmask
    # (bar i is bit i-1, as in linkage.short_subsets) below bit 2n and its
    # size above, so one sum checks a label: the parts are disjoint and
    # cover 1..n exactly when the weights add up to the full mask plus n.
    # (Overlapping masks carry, which leaves fewer than n bits set; more
    # parts than fit below bit 2n hold more than n elements.)
    part_of: dict[str, frozenset[int]] = {}
    weight_of: dict[str, int] = {}
    ground = frozenset(range(1, n + 1))
    for body in set().union(*bodies):
        braced = "{" + body + "}"
        try:
            part = parse_part(braced)
        except ValueError:
            continue
        if part <= ground and part_text(part) == braced:
            part_of[body] = part
            weight_of[body] = sum([1 << (x - 1) for x in part]) + (len(part) << 2 * n)
    whole, top = (1 << n) - 1 + (n << 2 * n), 1 << (n - 1)
    weight = weight_of.__getitem__
    make_label = CyclicPartition._from_canonical
    cells_by_dim: list[list[CyclicPartition]] = [[] for _ in range(n)]
    dims: list[int] = []
    flat_position: list[int] = []
    previous = [""] * n  # the last label text seen in each dim
    for k, ((d, label_text, _), parts) in enumerate(zip(rows, bodies)):
        # disjoint parts covering 1..n, n's part last: the canonical label
        try:
            canonical = sum(map(weight, parts)) == whole and weight(parts[-1]) & top
        except KeyError:  # a part the writer would not write
            canonical = False
        if not canonical:
            raise _label_error(k, label_text, n)
        dim = n - len(parts)
        if d != dim:
            raise ValueError(f"cell {k}: dim {d!r}, but label {label_text} gives {dim}")
        if label_text <= previous[dim]:
            raise ValueError(
                f"cell {k}: label {label_text} is listed twice in dim {dim}"
                if label_text == previous[dim]
                else f"cell {k}: label {label_text} is out of order in dim {dim}:"
                f" it follows {previous[dim]}"
            )
        previous[dim] = label_text
        dims.append(dim)
        flat_position.append(len(cells_by_dim[dim]))
        cells_by_dim[dim].append(make_label(tuple([part_of[p] for p in parts])))
    del cells_by_dim[max(dims) + 1 :]
    boundary: list[list[tuple[int, ...]]] = [[] for _ in cells_by_dim]
    for k, (d, (_, _, faces)) in enumerate(zip(dims, rows)):
        for j in faces:
            if not (type(j) is int and 0 <= j < len(dims) and dims[j] == d - 1):
                raise ValueError(f"cell {k}: face {j!r} is not a cell of dim {d - 1}")
        if len(set(faces)) != len(faces):
            j = next(j for i, j in enumerate(faces) if j in faces[:i])
            raise ValueError(f"cell {k}: face {j} is listed twice")
        boundary[d].append(tuple([flat_position[j] for j in faces]))
    return CWComplex(linkage, cells_by_dim, boundary)


def _label_error(k: int, text: str, n: int) -> ValueError:
    """Why `text`, the label of cell k, is not a canonical label on n bars.
    Raises NotAPartition itself when the text is not a partition at all."""
    label = parse_partition(text)
    if label.n != n:
        return ValueError(f"cell {k}: label {label} is on {label.n} bars, not {n}")
    return ValueError(f"cell {k}: label {text} is not written canonically as {label}")


def report_to_json(report: topology.TopologyReport, linkage: Linkage) -> str:
    # n >= 6 reports no per-component detail, even for a connected space
    single = report.components[0] if len(report.components) == 1 else None
    doc = {
        "schema": 1,
        "lengths": [str(l) for l in linkage.lengths],
        "f_vector": list(report.f_vector),
        "components": [
            {
                "chi": c.euler_characteristic,
                "orientable": c.orientable,
                "genus": c.genus,
            }
            for c in report.components
        ],
        "chi": report.euler_characteristic,
        "orientable": single.orientable if single else None,
        "genus": single.genus if single else None,
        "classification": report.classification,
    }
    return json.dumps(doc, indent=2) + "\n"


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


@dataclass(frozen=True)
class Representative:
    """One of the six standard pentagons with its expected classification."""

    spec: str
    classification: str
    components: int
    chi: int

    def lengths(self, epsilon: Fraction) -> list[Fraction]:
        return parse_lengths(self.spec, epsilon)


REPRESENTATIVES: tuple[Representative, ...] = (
    Representative("1,1,1,1,3", "sphere", 1, 2),
    Representative("1,1,1,eps,2", "torus", 1, 0),
    Representative("2,2,1,1,3", "genus-2 surface", 1, -2),
    Representative("1,1,eps,eps,1", "2 tori", 2, 0),
    Representative("2,1,1,1,2", "genus-3 surface", 1, -4),
    Representative("1,1,1,1,1", "genus-4 surface", 1, -6),
)


def render_tables(epsilon: Fraction = DEFAULT_EPSILON) -> str:
    """Regenerate both facet-admissibility tables for the six standard
    pentagons, with 'v' marking admissible rows."""
    linkages = [make_linkage(r.lengths(epsilon)) for r in REPRESENTATIVES]
    columns = [f"({r.spec})" for r in REPRESENTATIVES]
    table = facet_membership_table(linkages, columns)
    return _render_membership(table, epsilon)


def _render_membership(table: MembershipTable, epsilon: Fraction) -> str:
    width = max(
        [len("partition")]
        + [len(r) for r, _ in table.step2]
        + [len(f"{a} & {b}") for (a, b), _ in table.step3]
    )
    col_widths = [max(len(c), 1) for c in table.columns]

    def row_line(idx: int, label: str, values) -> str:
        cells = "  ".join(
            ("v" if v else "-").center(w) for v, w in zip(values, col_widths)
        )
        return f"{idx:>2}  {label:<{width}}  {cells}"

    header = f"{'':>2}  {'partition':<{width}}  " + "  ".join(
        c.center(w) for c, w in zip(table.columns, col_widths)
    )
    lines = [f"step 2: permutohedron facets kept (eps = {epsilon})", "", header]
    for i, (label, values) in enumerate(table.step2, 1):
        lines.append(row_line(i, label, values))
    lines += ["", f"step 3: diagonal faces patched in (eps = {epsilon})", "", header]
    for i, ((a, b), values) in enumerate(table.step3, 1):
        lines.append(row_line(i, f"{a} & {b}", values))
    lines += [
        "",
        "note: step-2 row 8 is the reversal {2,3,4}{1}{5} of row 1; it is",
        "sometimes misprinted as {1,2,3}{1}{5}, which repeats 1 and omits 4.",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    lines: tuple[str, ...]

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def verify_all(
    epsilon: Fraction = DEFAULT_EPSILON,
    expectations: tuple[Representative, ...] = REPRESENTATIVES,
) -> VerifyResult:
    """Classify the six standard pentagons and compare classification,
    component count and Euler characteristic against the expected values.
    Specs containing `eps` are re-checked at epsilon/10 to confirm the
    combinatorics has stabilised."""
    lines = []
    ok = True
    for rep in expectations:
        try:
            report = topology.classify_linkage(make_linkage(rep.lengths(epsilon)))
            got = (report.classification, report.component_count, report.euler_characteristic)
            want = (rep.classification, rep.components, rep.chi)
            good = got == want
            detail = f"got {got[0]!r}, {got[1]} component(s), chi={got[2]}"
            if good and "eps" in rep.spec:
                retry = topology.classify_linkage(
                    make_linkage(rep.lengths(epsilon / 10))
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
    return VerifyResult(ok, tuple(lines))
