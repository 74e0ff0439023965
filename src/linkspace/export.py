"""Serialization and the verification harness.

Everything here is deterministic: two runs on the same input produce
byte-identical OBJ/PLY/JSON output.  The only floats are the mesh's vertex
positions, printed to six decimals; the exact lengths travel in the mesh
header comments and in JSON.  Complex and report documents are laid out
as json.dumps(indent=2) lays them out, but written directly: several times
faster for a complex, and with no garbage cycle left for the collector.
Tests pin both byte for byte against json.dumps writers.  The loader reads
the writer's header with string methods, and only its validator imports
`json`, so no command that writes, or checks the writer's own bytes, loads
`json` or `re`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from functools import cache, lru_cache
from itertools import accumulate, compress
from operator import itemgetter

from . import cwcomplex, topology
from .cwcomplex import ArityMismatch, CWComplex, build_complex, check_supported_arity
from .geometry import Point4, SurfaceMesh
from .linkage import (
    DEFAULT_EPSILON,
    Linkage,
    LinkageError,
    _Record,
    _quoted,
    make_linkage,
    parse_lengths,
    parse_rational,
)


class UnsupportedFormat(ValueError):
    pass


def _fmt_coord(x: float) -> str:
    value = round(x, 6)
    if value == 0:
        value = 0.0  # avoid "-0.000000"
    return f"{value:.6f}"


# An orthonormal basis of the hyperplane sum(x) = 0 in R^4.
_AXES = tuple(
    tuple(x / math.sqrt(sum(y * y for y in v)) for x in v)
    for v in ((1, -1, 0, 0), (1, 1, -2, 0), (1, 1, 1, -3))
)


@lru_cache(maxsize=1)
def _vertex_lines(points: tuple[Point4, ...]) -> tuple[str, ...]:
    """Each exact point as its "x y z" text, centred at (5/2, ..., 5/2) and
    read in `_AXES`, an isometry onto R^3: the pipeline's one float step.
    Every pentagon mesh holds the same `permutohedron()` tuple, so a process
    formats its 24 lines once; a mesh with other points gets its own."""
    centred = [[x - 2.5 for x in point] for point in points]
    coords = [[sum(c * u for c, u in zip(p, axis)) for axis in _AXES] for p in centred]
    return tuple([" ".join([_fmt_coord(c) for c in point]) for point in coords])


def export_mesh(mesh: SurfaceMesh, fmt: str = "obj", triangulate: bool = False) -> str:
    """Render the mesh as OBJ or ASCII PLY text.

    Vertices and faces come in the complex's order: vertices by permutation
    label, faces by label string.  Faces are n-gon records, or fans from
    each cycle's first vertex when `triangulate` is set.  In OBJ each record
    follows a `# face` comment holding the face's label and provenance.
    Classifying the mesh first refuses one that is not a closed surface.
    The vertex lines are formatted once per process for the points they
    share, `geometry.permutohedron()`'s table, and kept by `_vertex_lines`.
    A record's vertex numbers are read by one `itemgetter` from the index
    texts (`_index_texts`), as many as the mesh has points.
    """
    if fmt not in ("obj", "ply"):
        raise UnsupportedFormat(f"unsupported mesh format {fmt!r}")
    spec = mesh.complex.linkage.spec()
    report = topology.analyze(mesh)
    points = _vertex_lines(mesh.points)
    numbers = _index_texts(len(points) + 1)  # str(i) for every i <= V, at least
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
        labels = mesh.complex.labels_by_dim[2]
        comments = [f"# face {l} {p}" for l, p in zip(labels, mesh.provenances())]
        one_based = numbers[1 : len(points) + 1]  # str(k + 1) for vertex k
        for k, cycle in rows:
            lines += [comments[k], "f " + " ".join(itemgetter(*cycle)(one_based))]
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
        lines += [f"{len(cycle)} " + " ".join(itemgetter(*cycle)(numbers)) for _, cycle in rows]
    return "\n".join(lines) + "\n"


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of items already rendered and indented, closed at
    `indent`; empty, it is `[]`, as json.dumps(indent=2) writes it."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


#: The header `complex_to_json` writes, in four pieces: up to n's digits,
#: from them to the first length, between two lengths and after the last.
#: The lengths are quoted tokens.  The writer joins its header from them,
#: and the loader reads a header by them.
_HEAD = '{\n  "schema": 1,\n  "n": '
_LENGTHS = ',\n  "lengths": [\n    "'
_BETWEEN = '",\n    "'
_TAIL = '"\n  ],\n  "cells": ['


def _lengths_json(spec: str) -> str:
    """The `"lengths"` array of a report document, laid out as the complex
    header's: each length of `spec` as a JSON string, written as it is."""
    return '[\n    "' + spec.replace(",", _BETWEEN) + '"\n  ]'


#: `str(i)` for the flat indices 0, 1, ... written so far, and the mesh
#: writer's vertex numbers; see `_index_texts`.
_index_text: list[str] = []


def _index_texts(count: int) -> list[str]:
    """`str(i)` for at least every i < count, each formatted once per
    process.  Only a process that writes many documents gains: a one-shot
    write formats each index once either way.  The list grows by rebinding
    a longer copy, never in place, so a list already handed out never
    changes under its reader."""
    global _index_text
    texts = _index_text
    if len(texts) < count:
        texts = _index_text = texts + list(map(str, range(len(texts), count)))
    return texts


#: between two faces of a boundary
_FACES_BETWEEN = ",\n        "


def _faces_texts(rows: Iterable[tuple[int, ...]], numbers: list[str]) -> list[str]:
    """Each row's faces text as the writer writes it: its faces' flat index
    texts, read from `numbers` (the grade below's) by one `itemgetter` call
    and joined.  A row lists at least two faces, so itemgetter gives a
    tuple."""
    return [_FACES_BETWEEN.join(itemgetter(*row)(numbers)) for row in rows]


@cache
def _table_faces(n: int, d: int) -> tuple[str, ...]:
    """`_faces_texts` of the d-cells of `cwcomplex._table(n)`, in the table's
    own flat numbering: formatted once per process, n and d, and only for a
    grade that some document reuses (`_cut_faces`)."""
    labels, boundary, _ = cwcomplex._table(n)
    below = sum(map(len, labels[: d - 1]))
    start = below + len(labels[d - 1])
    return tuple(_faces_texts(boundary[d], _index_texts(start)[below:start]))


def _cut_faces(complex_: CWComplex, d: int) -> Iterator[str] | None:
    """The faces text of the d-cells cut from the table's (`_table_faces`)
    by the grade's kept flags, when that is their text: n <= 7, every grade
    below has the table's size, so the flat numbering is the table's, and
    the d-cells' rows equal the table's cut by the flags.  Else None."""
    n = complex_.linkage.n
    if not 4 <= n <= 7:
        return None
    labels, boundary, columns = cwcomplex._table(n)
    if d >= len(labels) or complex_.f_vector()[:d] != tuple(map(len, labels[:d])):
        return None
    flags = cwcomplex._kept(cwcomplex._short_bytes(complex_.linkage.short), columns[d])
    if complex_.boundary[d] != tuple(compress(boundary[d], flags)):
        return None
    return compress(_table_faces(n, d), flags)


def complex_json_pieces(complex_: CWComplex) -> Iterator[str]:
    """The pieces of `complex_to_json`'s document, in order: the header, and
    for each grade its first record's head and then its records, joined as
    one string from a list of slots, and the close.  `linkctl complex` writes
    them as they come, and the loader compares them with a document in
    place, so neither holds the writer's whole document.  A grade above
    dimension 1 takes its faces text from the table's when `_cut_faces`
    finds it is theirs, and formats its own rows otherwise.  Raises
    ValueError on a grade that `build_complex` does not build (see
    `CWComplex`)."""
    # Strings go out unescaped: no label or length can hold a character JSON
    # escapes.  Labels are digits, braces and commas; lengths are the
    # positive exact texts of `Linkage.spec`, digits and '/'.
    opening = '",\n      "boundary": [\n        '  # after a label with faces
    spec = complex_.linkage.spec()
    yield _HEAD + str(complex_.linkage.n) + _LENGTHS + spec.replace(",", _BETWEEN) + _TAIL
    below = start = 0  # the flat index of the grade below's first cell, and of this grade's
    for d, (labels, rows) in enumerate(zip(complex_.labels_by_dim, complex_.boundary)):
        # the dimension picks the record form: a 0-cell has no faces, a 1-cell
        # two, and any other cell two or more, for which itemgetter gives a tuple
        sizes = {*map(len, rows)}
        if not rows or (sizes != {2 * d} if d < 2 else min(sizes) < 2):
            raise ValueError(f"the {d}-cells are not a grade that build_complex builds")
        head = f'    {{\n      "dim": {d},\n      "label": "'
        close = "\n      ]\n    }" if d else '",\n      "boundary": []\n    }'
        after = close + ",\n" + head  # between two records
        yield (",\n" if d else "\n") + head
        # the grade is one list with a slot per piece of each record, filled
        # column by column by extended-slice assignment and joined once
        numbers = _index_texts(start)[below:start]  # the grade below's, as text
        if d == 0:  # label, after
            pieces = [None, after] * len(rows)
            pieces[0::2] = labels
        elif d == 1:  # label, opening, face, between, face, after
            pieces = [None, opening, None, _FACES_BETWEEN, None, after] * len(rows)
            pieces[0::6] = labels
            pieces[2::6] = map(numbers.__getitem__, map(itemgetter(0), rows))
            pieces[4::6] = map(numbers.__getitem__, map(itemgetter(1), rows))
        else:  # label, opening, faces, after
            pieces = [None, opening, None, after] * len(rows)
            pieces[0::4] = labels
            faces = _cut_faces(complex_, d)
            pieces[2::4] = _faces_texts(rows, numbers) if faces is None else faces
        pieces[-1] = close  # the last record's
        yield "".join(pieces)
        below, start = start, start + len(labels)
    yield "\n  ]\n}\n"


def complex_to_json(complex_: CWComplex) -> str:
    """The complex as a schema-1 JSON document: the join of
    `complex_json_pieces`.

    The layout is json.dumps(doc, indent=2)'s, written directly: a header,
    then one record per cell with its dimension, label and the flat indices
    of its faces.  Labels are the complex's own text (`labels_by_dim`), the
    one form in which it stores a cell, and are written as they are.  The
    rest is joined at C level.  A flat index is turned into text once per
    process (`_index_texts`), so a later document of the same process
    formats no index already written.  Each grade is one list with a slot
    per piece of each record (its label, its faces' text and the fixed text
    around them), filled a column at a time by extended-slice assignment and
    joined once, so no record becomes a string of its own.  An edge's two
    faces are two columns of texts read at C level, so no Python code runs
    per edge; a higher cell's face texts are read by one `itemgetter` call
    and joined into its faces' slot.  For n <= 7 a grade above dimension 1
    whose grades below all have the size of `cwcomplex._table(n)`'s, and
    whose rows are the table's cut by the grade's kept flags, takes its
    faces text from the table's instead, cut by the same flags: that text
    is formatted once per process, n and grade, the first time a document
    reuses it (`_cut_faces`), so no string is joined per record.  Every
    other grade, n = 8 and a hand-built complex write their own rows.
    The record form follows from the dimension, so no Python code runs per
    face; a grade not shaped as `build_complex` builds it raises ValueError.
    At its peak the writer holds the grades' strings, one grade's list of
    slots and the document.  The first write of a process also formats its
    index texts, and the table's faces text of each grade it reuses: in a
    fresh process, 2.34 to 2.40 copies of the document for
    `3,5,7,2,9,4,1`, which drops edges, and 2.62 to 2.70 for
    `11,6,10,3,1,10,4`, which keeps every edge, on Python 3.10-3.13.  Tests
    pin the bytes against a json.dumps writer, and bound the first peak.
    """
    return "".join(complex_json_pieces(complex_))


def _header_tokens(text: str) -> list[str] | None:
    """The length tokens of `text`'s header, if it starts with a header laid
    out as `complex_to_json` lays one out, for any number of lengths; else
    None.  `n` is decimal digits, not compared with the count of lengths,
    and a token holds no '"' or line break.  So n ends at the first ',',
    and the lengths at the first '"' before a line break."""
    if not text.startswith(_HEAD):
        return None
    comma = text.find(",", len(_HEAD))
    if comma < 0 or not text.startswith(_LENGTHS, comma):
        return None
    first = comma + len(_LENGTHS)
    end = text.find('"\n', first)
    if end < 0 or not text.startswith(_TAIL, end) or not text[len(_HEAD) : comma].isdecimal():
        return None
    tokens = text[first:end].split(_BETWEEN)
    held = "".join(tokens)
    return None if '"' in held or "\n" in held else tokens


def _is_joined(pieces: Iterable[str], text: str) -> bool:
    """Whether `text` is the join of `pieces`, each compared in place as it
    comes, so no joined copy is made and the first mismatch ends it."""
    pos = 0
    for piece in pieces:
        if not text.startswith(piece, pos):
            return False
        pos += len(piece)
    return pos == len(text)


def complex_from_json(text: str) -> CWComplex:
    """Load a schema-1 complex document, which must be the complex of its
    own `lengths`: the lengths fix every cell.

    The writer's own bytes are accepted by one compare, with no JSON parse:
    the lengths are read from a header laid out as `complex_to_json` lays it
    out (`_header_tokens`), their complex is built, and it is returned if the
    document is its text exactly.  That text is never joined: each of the
    writer's pieces (`complex_json_pieces`) is compared in place with the
    document as it comes, so the loader holds one grade's text beside the
    document, and the first mismatch stops the writer.  The validator accepts those bytes
    too (a test pins it), so the compare only skips the parse.

    Every other document goes to the validator, the one source of rejections
    and their messages.  After the JSON type checks (an object whose `schema`
    is the int 1, `n` an int equal to the number of `lengths`, `lengths` a
    list of strings and `cells` a non-empty list of objects with `dim`,
    `label` and `boundary`), the complex of the lengths is compared with the
    records as `complex_to_json` writes them: the cell count, then in one
    pass each cell's dim, label and flat face indices, with the writer's
    record built grade by grade as the pass reaches it; every dim and face
    index must be an int (in Python, `true == 1.0 == 1`).  That complex is
    the header's when the parsed `lengths` are its tokens, so each document
    is built once; it is built anew only for no header, header lengths that
    raised ArityMismatch or LinkageError, or other parsed `lengths`
    (json.loads keeps a repeated key's last value).  So compact or
    re-indented JSON, or a length written `2/2`, loads too.  Returns the
    built complex; no label is built.  Raises ValueError on any other
    document, one nested too deeply to parse or one holding an integer
    longer than the interpreter converts (`sys.get_int_max_str_digits()`,
    4,300 digits by default) included, in the same words on every Python:
    text json cannot parse is 'not JSON', a value other than an object is
    named by its JSON type, and a mismatch names the first differing cell,
    with the record expected against the one found.  A value quoted from
    the document is cut to 200 characters.
    """
    complex_ = None
    if (tokens := _header_tokens(text)) is not None:
        try:
            check_supported_arity(len(tokens), "complex construction")  # before the 2^n pass
            complex_ = build_complex(make_linkage([parse_rational(t) for t in tokens]))
        except (ArityMismatch, LinkageError):
            pass  # the validator names the fault
        if complex_ is not None and _is_joined(complex_json_pieces(complex_), text):
            return complex_
    import json  # the validator's alone: the writer's own bytes load without it

    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("document is nested too deeply to parse") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"document is not JSON: {exc}") from None
    except ValueError:  # the one other: an int past the digit limit, worded per Python
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"document holds an integer of more than {limit} digits") from None
    if type(doc) is not dict:  # JSON's own name for the type json.loads gave
        names = {list: "array", str: "string", bool: "boolean", type(None): "null"}
        raise ValueError(f"document is a JSON {names.get(type(doc), 'number')}, not an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != 1:
        raise ValueError(f"unknown schema {_quoted(repr(schema))}")
    for key in ("n", "lengths", "cells"):
        if key not in doc:
            raise ValueError(f"document has no {key!r}")
    if type(doc["lengths"]) is not list or any(type(t) is not str for t in doc["lengths"]):
        raise ValueError("'lengths' is not a list of strings")
    n = doc["n"]
    if type(n) is not int or n != len(doc["lengths"]):
        raise ValueError(f"'n' is {_quoted(repr(n))}, but there are {len(doc['lengths'])} lengths")
    records = doc["cells"]
    if type(records) is not list or not records:
        raise ValueError("'cells' is not a non-empty list")
    if {*map(type, records)} != {dict}:
        k = next(k for k, c in enumerate(records) if type(c) is not dict)
        raise ValueError(f"cell {k} is not an object")
    keys = ("dim", "label", "boundary")
    try:
        found = [list(map(itemgetter(key), records)) for key in keys]
    except KeyError as exc:
        k = next(k for k, c in enumerate(records) if exc.args[0] not in c)
        raise ValueError(f"cell {k} has no {exc.args[0]!r}") from None
    # the columns hold all that is compared, so the parsed objects go before
    # the build, which would otherwise be held beside them
    lengths, count = doc["lengths"], len(records)
    del doc, records
    check_supported_arity(n, "complex construction")  # before make_linkage's 2^n pass
    if complex_ is None or lengths != tokens:
        complex_ = build_complex(make_linkage([parse_rational(t) for t in lengths]))
    if count != sum(complex_.f_vector()):
        raise ValueError(
            f"document has {count} cells, but the complex of lengths"
            f" {complex_.linkage.spec()} has {sum(complex_.f_vector())}"
        )
    grades = complex_.labels_by_dim
    firsts = accumulate([0, 0, *map(len, grades)])  # grade d - 1's first flat index, 0 for d = 0
    written = (
        (d, label, [below + j for j in row])
        for d, (labels, rows, below) in enumerate(zip(grades, complex_.boundary, firsts))
        for label, row in zip(labels, rows)
    )
    for k, (record, expected) in enumerate(zip(zip(*found), written)):
        if record != expected or {type(record[0]), *map(type, record[2])} != {int}:
            expected, record = [json.dumps(dict(zip(keys, r))) for r in (expected, record)]
            raise ValueError(f"cell {k}: expected {expected}, found {_quoted(record)}")
    return complex_


def _literal(value: bool | int | None) -> str:
    """The JSON text of None, a bool or an int, as json.dumps writes it."""
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    return str(value)


def report_to_json(report: topology.TopologyReport, linkage: Linkage) -> str:
    """The report as a schema-1 JSON document in json.dumps(indent=2)'s
    layout, written directly as `complex_to_json` is: the indenting encoder
    leaves a cycle of closures on every call.  Every scalar but the
    classification is an int, a bool or None, and written by `_literal`.
    The classification is quoted as it is: no name holds a character that
    JSON escapes, as a test checks for every name.  A test pins the bytes."""
    # n >= 6 reports no per-component detail, even for a connected space, but
    # every n reports the component count
    single = report.components[0] if len(report.components) == 1 else None
    components = [
        f'    {{\n      "chi": {c.euler_characteristic},\n      "orientable": '
        f'{_literal(c.orientable)},\n      "genus": {_literal(c.genus)}\n    }}'
        for c in report.components
    ]
    doc = {
        "schema": "1",
        "lengths": _lengths_json(linkage.spec()),
        "f_vector": _json_array([f"    {c}" for c in report.f_vector], "  "),
        "component_count": str(report.component_count),
        "components": _json_array(components, "  "),
        "chi": str(report.euler_characteristic),
        "orientable": _literal(single.orientable if single else None),
        "genus": _literal(single.genus if single else None),
        "classification": '"' + report.classification + '"',
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


class Representative(_Record):
    """One of the six standard pentagons with its expected classification."""

    __slots__ = ()

    def __new__(cls, spec: str, classification: str, components: int, chi: int) -> Representative:
        return tuple.__new__(cls, (spec, classification, components, chi))


REPRESENTATIVES: tuple[Representative, ...] = (
    Representative("1,1,1,1,3", "sphere", 1, 2),
    Representative("1,1,1,eps,2", "torus", 1, 0),
    Representative("2,2,1,1,3", "genus-2 surface", 1, -2),
    Representative("1,1,eps,eps,1", "2 tori", 2, 0),
    Representative("2,1,1,1,2", "genus-3 surface", 1, -4),
    Representative("1,1,1,1,1", "genus-4 surface", 1, -6),
)


# Facet rows for the two admissibility tables of the standard pentagon
# surgery, in their conventional order.  Step-2 rows are the 14 facets of the
# 4-permutohedron with {5} appended (rows 1-8 hexagons, 9-14 squares; row 8 is
# the reversal {2,3,4}{1}{5} of row 1 -- it is sometimes misprinted as
# {1,2,3}{1}{5}, which repeats 1 and omits 4).  Step-3 rows are the three-part
# cyclic partitions whose part containing 5 is not a singleton; the two cyclic
# arrangements of the same parts are paired per row since they are admissible
# or not together.
STEP2_ROWS: tuple[str, ...] = (
    "{1}{2,3,4}{5}",
    "{2}{1,3,4}{5}",
    "{3}{1,2,4}{5}",
    "{4}{1,2,3}{5}",
    "{1,2,3}{4}{5}",
    "{1,2,4}{3}{5}",
    "{1,3,4}{2}{5}",
    "{2,3,4}{1}{5}",
    "{1,2}{3,4}{5}",
    "{3,4}{1,2}{5}",
    "{1,3}{2,4}{5}",
    "{2,4}{1,3}{5}",
    "{1,4}{2,3}{5}",
    "{2,3}{1,4}{5}",
)

STEP3_ROWS: tuple[tuple[str, str], ...] = (
    ("{3}{4}{1,2,5}", "{4}{3}{1,2,5}"),
    ("{2}{4}{1,3,5}", "{4}{2}{1,3,5}"),
    ("{2}{3}{1,4,5}", "{3}{2}{1,4,5}"),
    ("{1}{4}{2,3,5}", "{4}{1}{2,3,5}"),
    ("{1}{3}{2,4,5}", "{3}{1}{2,4,5}"),
    ("{1}{2}{3,4,5}", "{2}{1}{3,4,5}"),
    ("{3,4}{2}{1,5}", "{2}{3,4}{1,5}"),
    ("{2,4}{3}{1,5}", "{3}{2,4}{1,5}"),
    ("{2,3}{4}{1,5}", "{4}{2,3}{1,5}"),
    ("{3,4}{1}{2,5}", "{1}{3,4}{2,5}"),
    ("{1,4}{3}{2,5}", "{3}{1,4}{2,5}"),
    ("{1,3}{4}{2,5}", "{4}{1,3}{2,5}"),
    ("{2,4}{1}{3,5}", "{1}{2,4}{3,5}"),
    ("{1,4}{2}{3,5}", "{2}{1,4}{3,5}"),
    ("{1,2}{4}{3,5}", "{4}{1,2}{3,5}"),
    ("{2,3}{1}{4,5}", "{1}{2,3}{4,5}"),
    ("{1,3}{2}{4,5}", "{2}{1,3}{4,5}"),
    ("{1,2}{3}{4,5}", "{3}{1,2}{4,5}"),
)


def render_tables() -> str:
    """Regenerate both facet-admissibility tables for the six standard
    pentagons at eps = DEFAULT_EPSILON, with 'v' marking admissible rows.
    The surgery is the cut of the n = 5 table (`build_complex`), so a row is
    admissible iff its label is a 2-cell of the pentagon's complex.  Both
    labels of a step-3 row have the same parts, so the first one decides."""
    kept = [
        set(build_complex(make_linkage(parse_lengths(r.spec))).labels_by_dim[2])
        for r in REPRESENTATIVES
    ]
    sections = [  # (title, [(row text, the label that decides it)])
        ("step 2: permutohedron facets kept", [(row, row) for row in STEP2_ROWS]),
        ("step 3: diagonal faces patched in", [(f"{a} & {b}", a) for a, b in STEP3_ROWS]),
    ]
    columns = [f"({r.spec})" for r in REPRESENTATIVES]
    width = max([len("partition")] + [len(label) for _, rows in sections for label, _ in rows])
    header = f"{'':>2}  {'partition':<{width}}  " + "  ".join(columns)
    lines = []
    for title, rows in sections:
        lines += [f"{title} (eps = {DEFAULT_EPSILON})", "", header]
        for i, (label, key) in enumerate(rows, 1):
            marks = ("v" if key in faces else "-" for faces in kept)
            cells = "  ".join(mark.center(len(c)) for mark, c in zip(marks, columns))
            lines.append(f"{i:>2}  {label:<{width}}  {cells}")
        lines.append("")
    lines += [
        "note: step-2 row 8 is the reversal {2,3,4}{1}{5} of row 1; it is",
        "sometimes misprinted as {1,2,3}{1}{5}, which repeats 1 and omits 4.",
    ]
    return "\n".join(lines) + "\n"


def verify_all() -> tuple[bool, str]:
    """Classify each standard pentagon once, at eps = DEFAULT_EPSILON, and
    compare classification, component count and Euler characteristic with
    the expected ones; return whether all passed, and the report.  The
    lengths are affine in eps, so the chamber is the same for every eps
    below the first wall, which the tests find exactly (1 and 1/2)."""
    lines = []
    ok = True
    for rep in REPRESENTATIVES:
        try:
            report = topology.classify_linkage(make_linkage(parse_lengths(rep.spec)))
        except LinkageError as exc:
            good, detail = False, f"construction failed: {exc}"
        else:
            got = (report.classification, report.component_count, report.euler_characteristic)
            want = (rep.classification, rep.components, rep.chi)
            good = got == want
            detail = f"got {got[0]!r}, {got[1]} component(s), chi={got[2]}"
            if not good:
                detail += f"; expected {want[0]!r}, {want[1]} component(s), chi={want[2]}"
        ok = ok and good
        lines.append(f"[{'PASS' if good else 'FAIL'}] ({rep.spec}): {detail}")
    lines.append(f"verification {'passed' if ok else 'FAILED'} for {len(REPRESENTATIVES)} linkages")
    return ok, "\n".join(lines) + "\n"
