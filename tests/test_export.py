import contextlib
import errno
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
import typing
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkspace
from linkspace import cli, export, topology
from linkspace.cli import main
from linkspace.cwcomplex import ArityMismatch, build_complex, check_supported_arity
from linkspace.export import (
    REPRESENTATIVES,
    Representative,
    UnsupportedFormat,
    _vertex_lines,
    complex_from_json,
    complex_to_json,
    export_mesh,
    render_tables,
    report_to_json,
    verify_all,
)
from linkspace.geometry import perform_surgery, permutohedron
from linkspace.linkage import (
    DEFAULT_EPSILON,
    LinkageError,
    NonPositiveLength,
    Ratio,
    make_linkage,
    parse_lengths,
    parse_rational,
)
from linkspace.topology import classify_linkage

from oracles import (
    HEADER,
    eps_walls,
    fraction_lengths,
    oracle_header_tokens,
    is_watertight,
    oracle_component_count,
    parse_obj,
    reference_complex_to_json,
    reference_report_to_json,
)
from test_golden import OCTAGON_DIGESTS, pentagon_chambers, printed


def _values(lengths):
    """Parsed lengths, each a `Ratio`, as Fractions."""
    assert {type(l) for l in lengths} == {Ratio}
    return [Fraction(*l) for l in lengths]


def test_parse_lengths_forms():
    assert _values(parse_lengths("1,1,1,1/100,2")) == [1, 1, 1, Fraction(1, 100), 2]
    assert _values(parse_lengths("1,1,eps,eps,1", Ratio(1, 50))) == [
        1,
        1,
        Fraction(1, 50),
        Fraction(1, 50),
        1,
    ]
    with pytest.raises(LinkageError):
        parse_lengths("1,banana,2")
    with pytest.raises(LinkageError):
        parse_lengths("")
    # an empty token is refused, not dropped: '1,,1,1,1,1' is not a pentagon.
    # It is refused before any token is parsed, and of several the first is
    # named
    for text, k in [
        ("1,,1,1,1,1", 2),
        ("1,1,1,1,1,", 6),
        (",1,1,1,1,1", 1),
        ("1, ,1,1,1,1", 2),
        ("x,,1,1,1", 2),
        ("1,," + "9" * 501, 2),
        ("1,,1,,1", 2),
        ("-1,,0,,1/0", 2),
    ]:
        with pytest.raises(LinkageError) as raised:
            parse_lengths(text)
        assert str(raised.value) == f"length {k} is empty"
    # a token is at most 500 characters, and exponent notation is refused
    assert _values(parse_lengths("1," + "9" * 500)) == [1, 10**500 - 1]
    with pytest.raises(LinkageError, match="over 500 characters"):
        parse_lengths("1," + "9" * 501)
    # one ASCII grammar on every Python: Fraction's own takes '1_0' from 3.11
    # on, '1/ 2' from 3.12 on, and any Unicode digit
    assert _values(parse_lengths("3,+3,1/100,0.25,.5,5.")) == [
        3,
        3,
        Fraction(1, 100),
        Fraction(1, 4),
        Fraction(1, 2),
        5,
    ]
    for token in ["1e3", "1_0", "1/ 2", "1 /2", "١", "１", "0x10"]:
        with pytest.raises(LinkageError, match="not an integer, fraction or decimal"):
            parse_lengths(f"1,{token},2")
    with pytest.raises(NonPositiveLength):
        make_linkage(parse_lengths("-1,1,1,1,1"))


def test_obj_export_of_the_sphere(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,3")
    text = export_mesh(mesh, "obj")
    assert text.startswith("# linkage: 1,1,1,1,3\n# classification: sphere\n")
    vertices, faces = parse_obj(text)
    assert len(vertices) == 24
    assert len(faces) == 14
    assert is_watertight(faces)


def test_obj_triangulation_counts(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,1")
    vertices, faces = parse_obj(export_mesh(mesh, "obj", triangulate=True))
    assert len(vertices) == 24
    assert len(faces) == 60  # 30 quads fan into 2 triangles each
    assert all(len(f) == 3 for f in faces)


def test_all_representative_objs_are_watertight(meshes):
    for _, _, mesh in meshes:
        _, faces = parse_obj(export_mesh(mesh, "obj"))
        assert is_watertight(faces)


def test_ply_export_structure(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,3")
    lines = export_mesh(mesh, "ply").splitlines()
    assert lines[0] == "ply"
    assert "element vertex 24" in lines
    assert "element face 14" in lines
    body = lines[lines.index("end_header") + 1 :]
    assert len(body) == 24 + 14
    assert body[24].startswith("6 ")  # first face (a hexagon) lists 6 indices


def test_export_rejects_unknown_formats(meshes):
    mesh = meshes[0][2]
    with pytest.raises(UnsupportedFormat):
        export_mesh(mesh, "stl")


def test_export_is_deterministic(meshes):
    for _, linkage, mesh in meshes:
        again = perform_surgery(linkage)
        assert export_mesh(mesh, "obj") == export_mesh(again, "obj")
        assert export_mesh(mesh, "ply") == export_mesh(again, "ply")


def test_vertex_lines_are_formatted_once_per_process(meshes, monkeypatch):
    calls = []
    fmt = export._fmt_coord
    monkeypatch.setattr(export, "_fmt_coord", lambda x: calls.append(x) or fmt(x))
    _vertex_lines.cache_clear()
    first = export_mesh(meshes[0][2], "obj")
    assert len(calls) == 72  # 24 points of 3 coordinates
    export_mesh(meshes[1][2], "ply")  # another pentagon, the same permutohedron() points
    assert export_mesh(meshes[0][2], "obj") == first
    assert len(calls) == 72


def test_a_mesh_with_other_points_writes_its_own(meshes, projected):
    mesh = meshes[0][2]
    text = export_mesh(mesh, "obj")
    reversed_ = mesh.points[::-1]
    vertices, _ = parse_obj(export_mesh(mesh._replace(points=reversed_), "obj"))
    assert vertices == [pytest.approx(point, abs=1e-6) for point in projected[::-1]]
    assert export_mesh(mesh, "obj") == text


def test_a_chambers_stored_texts_are_the_fresh_render_of_another_spec():
    # each chamber's first pentagon prints the six forms, and linkctl's memo
    # keeps each one cut around its spec or lengths.  A second pentagon of
    # the chamber, with lengths 2 or 1/3 times as long, gets the halves
    # joined by its own, '/' included, and that is what it prints with the
    # memo emptied
    for first in pentagon_chambers():
        for scale in (2, Fraction(1, 3)):
            later = make_linkage([scale * l for l in fraction_lengths(first)])
            assert later.short == first.short and later.spec() != first.spec()
            assert ("/" in later.spec()) == (scale != 2)
            cli._memo.clear()
            printed(first.spec())
            stored = dict(cli._memo)
            assert len(stored) == 6
            warm = printed(later.spec())
            assert cli._memo == stored
            cli._memo.clear()
            assert warm == printed(later.spec()), later.spec()


def test_obj_vertex_lines_are_the_projected_points(meshes, projected):
    for _, _, mesh in meshes:
        vertices, _ = parse_obj(export_mesh(mesh, "obj"))
        assert vertices == [pytest.approx(point, abs=1e-6) for point in projected]


def test_projection_keeps_every_squared_distance(projected):
    # the writer's one float step takes the exact points to R^3 isometrically
    exact = permutohedron()
    pairs = list(combinations(range(24), 2))
    assert len(pairs) == 276
    for k, l in pairs:
        want = sum((a - b) ** 2 for a, b in zip(exact[k], exact[l]))
        assert abs(math.dist(projected[k], projected[l]) ** 2 - want) < 1e-12


def test_projection_maps_barycenter_to_origin(projected):
    for axis in range(3):
        assert abs(sum(p[axis] for p in projected)) < 1e-12


def test_projection_is_an_isometry_on_a_swap(projected):
    # the vertices of the orders 1234 and 2134
    a = projected[permutohedron().index((1, 2, 3, 4))]
    b = projected[permutohedron().index((2, 1, 3, 4))]
    assert abs(math.dist(a, b) - math.sqrt(2)) < 1e-12


def test_projected_vertices_are_equidistant_from_origin(projected):
    assert all(abs(math.dist(p, (0, 0, 0)) - math.sqrt(5)) < 1e-12 for p in projected)


def test_complex_json_round_trip(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        text = complex_to_json(complex_)
        assert complex_from_json(text) == complex_
        doc = json.loads(text)
        assert doc["schema"] == 1
        assert [c["dim"] for c in doc["cells"]] == sorted(
            c["dim"] for c in doc["cells"]
        )


def test_complex_json_writer_holds_about_two_copies_of_the_document():
    # the grades' texts and the document, with no list of every record and
    # no second copy of the cells' text beside them
    complex_ = build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = complex_to_json(complex_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2.5 * len(text), (peak, len(text))


#: prints the writer's `tracemalloc` peak for the document of the lengths in
#: its argv, as a multiple of its length, in a process that has formatted no
#: index text
WRITER_PEAK = """from linkspace import export
import tracemalloc
complex_ = export.build_complex(export.make_linkage(export.parse_lengths(sys.argv[1])))
assert export._index_text == []
tracemalloc.start()
text = export.complex_to_json(complex_)
print(tracemalloc.get_traced_memory()[1] / len(text))
"""


def test_complex_json_writer_holds_about_two_copies_in_a_fresh_process():
    # the first write of a process also formats its index texts, so it
    # peaks above a later one.  This heptagon drops edges, so no grade
    # reuses the table's faces text
    proc = _fresh_python(WRITER_PEAK, "3,5,7,2,9,4,1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert float(proc.stdout) <= 2.5, proc.stdout


def test_the_first_write_of_a_heptagon_that_keeps_every_edge_prints_its_peak():
    # its 2-cells are written from the table's faces text, which the first
    # write of n = 7 formats and keeps: 2.62 to 2.70 copies of the document
    # on Python 3.10-3.13, where writing its own rows took 2.34 to 2.40.
    # Printed, with no bound
    proc = _fresh_python(WRITER_PEAK, "11,6,10,3,1,10,4")
    assert (proc.returncode, proc.stderr) == (0, "")
    print(f"first write of 11,6,10,3,1,10,4: {float(proc.stdout):.2f} copies of the document")


#: the first n=8 vector, whose document is 15,824,766 bytes
OCTAGON = "1,1,1,1,1,1,1,2"


@pytest.fixture(scope="module")
def octagon_document(tmp_path_factory):
    """The path of `linkctl complex 1,1,1,1,1,1,1,2`, written once by a
    fresh process, with that process's exit code and peak RSS in MB."""
    path = tmp_path_factory.mktemp("octagon") / "complex.json"
    name = f"complex {OCTAGON}"
    return path, _measured_python(name, LINKSPACE_MAIN, "complex", OCTAGON, stdout=str(path))


@pytest.mark.slow
def test_the_n8_document_is_written_in_a_fresh_process_under_70_mb(octagon_document):
    # the writer holds the label text, the boundary rows and one grade's
    # text at a time, as it streams the grades: 49 to 56 MB on Python
    # 3.10-3.13, where a writer that joins the whole document took 69 to
    # 72 MB
    path, (code, peak) = octagon_document
    assert (code, hashlib.sha256(path.read_bytes()).hexdigest()) == (0, OCTAGON_DIGESTS[OCTAGON])
    assert peak <= 70


@pytest.mark.slow
def test_the_n8_document_is_checked_in_a_fresh_process_under_100_mb(octagon_document):
    # the loader builds the complex of the document's lengths and compares
    # the writer's pieces with the document in place, parsing no JSON: 61 to
    # 66 MB on Python 3.10-3.13 (on 3.11, 86 MB for the joined text and
    # 109 MB for json.loads)
    path, _ = octagon_document
    code, peak = _measured_python(f"check of complex {OCTAGON}", LINKSPACE_MAIN, "check", str(path))
    assert code == 0 and peak <= 100


@pytest.mark.slow
def test_the_n8_document_with_its_first_length_written_2_2_is_checked(octagon_document, tmp_path):
    # the compare fails, so the validator parses the copy and reuses the
    # complex the header's lengths built.  Its peak, 96 to 101 MB on Python
    # 3.10-3.13 (101 to 106 MB while the validator compared whole columns
    # per grade), is printed with no bound
    path, _ = octagon_document
    text = path.read_text()
    edited = text.replace('\n    "1",\n', '\n    "2/2",\n', 1)
    assert edited != text
    copy = tmp_path / "copy.json"
    copy.write_text(edited)
    name = f"check of complex {OCTAGON}, its first length written 2/2"
    assert _measured_python(name, LINKSPACE_MAIN, "check", str(copy))[0] == 0


@pytest.mark.slow
def test_the_n8_document_re_indented_is_checked_in_a_fresh_process_under_110_mb(
    octagon_document, tmp_path
):
    # the validator parses the 22.5 MB copy, reads its three columns and
    # drops the parsed objects before the build: 93.7 to 100.5 MB on Python
    # 3.10-3.13, where holding them through the build took 108.4 to 113.9
    # MB.  The bound leaves 9.5 MB, about 10%, above the highest reading
    path, _ = octagon_document
    copy = tmp_path / "indent4.json"
    copy.write_text(LAYOUTS["indent=4"](json.loads(path.read_text())))
    name = f"check of complex {OCTAGON}, re-indented with indent=4"
    code, peak = _measured_python(name, LINKSPACE_MAIN, "check", str(copy))
    assert code == 0 and peak <= 110


@pytest.mark.slow
def test_the_n8_document_comes_back_through_the_loader_and_the_writer(octagon_document, tmp_path):
    path, back = octagon_document[0], tmp_path / "back.json"
    load_and_write = (
        "from linkspace.export import complex_from_json as load, complex_to_json as dump; "
        "sys.stdout.write(dump(load(open(sys.argv[1]).read())))"
    )
    name = f"complex {OCTAGON} through the loader and the writer"
    code, _ = _measured_python(name, load_and_write, str(path), stdout=str(back))
    assert (code, hashlib.sha256(back.read_bytes()).hexdigest()) == (0, OCTAGON_DIGESTS[OCTAGON])


#: writes the complex of each length spec in its argv, in turn, to stdout
WRITE_IN_TURN = """from linkspace import export
from linkspace.linkage import parse_lengths
for spec in sys.argv[1:]:
    complex_ = export.build_complex(export.make_linkage(parse_lengths(spec)))
    sys.stdout.write(export.complex_to_json(complex_))
"""


def test_the_writers_bytes_do_not_depend_on_what_the_process_wrote_before():
    # each index text is formatted once per process and read by every later
    # document: here grown for a heptagon first, or for the pentagon first.
    # The heptagon 11,6,10,3,1,10,4 keeps every edge, so its 2-cells are cut
    # from the table's faces text; 3,5,7,2,9,4,1 drops edges and writes its
    # own rows, before or after the table's text is formatted
    specs = ["3,5,7,2,9,4,1", "11,6,10,3,1,10,4", "1,1,1,1,1"]
    want = {
        spec: reference_complex_to_json(build_complex(make_linkage(parse_lengths(spec))))
        for spec in specs
    }
    for order in (specs, specs[::-1]):
        proc = _fresh_python(WRITE_IN_TURN, *order)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "".join(map(want.__getitem__, order))


def _every_edge_kept():
    """The complex of a heptagon that keeps every edge, whose 2-cells are
    written from the table's faces text."""
    complex_ = build_complex(make_linkage([11, 6, 10, 3, 1, 10, 4]))
    assert export._cut_faces(complex_, 2) is not None
    return complex_


def test_a_table_numbered_grade_with_a_changed_row_is_written_from_its_rows():
    # grade 2 keeps the table's numbering, but one row is not the table's
    complex_ = _every_edge_kept()
    rows = list(complex_.boundary[2])
    rows[0] = (*rows[0][:-1], rows[0][-1] + 1)
    assert rows[0][-1] < len(complex_.edges)
    changed = complex_._replace(boundary=(*complex_.boundary[:2], tuple(rows), *complex_.boundary[3:]))
    assert complex_to_json(changed) == reference_complex_to_json(changed)


def test_a_grade_above_a_shortened_grade_is_written_from_its_rows():
    # grade 0 loses its last vertex, which each edge at it trades for the one
    # before; grade 2's rows are still the table's, but its faces' flat
    # indices are one lower than the table's
    complex_ = _every_edge_kept()
    (vertices, *labels), (points, edges, *rows) = complex_.labels_by_dim, complex_.boundary
    last = len(vertices) - 1
    edges = tuple(tuple(min(j, last - 1) for j in edge) for edge in edges)
    shortened = complex_._replace(
        labels_by_dim=(vertices[:last], *labels), boundary=(points[:last], edges, *rows)
    )
    assert shortened.boundary[2] == complex_.boundary[2]
    assert complex_to_json(shortened) == reference_complex_to_json(shortened)


def test_the_index_texts_grow_by_rebinding_a_longer_copy(monkeypatch):
    # a list already handed out never changes, so a reader in one thread
    # never sees the texts another thread appends, nor the same texts twice
    monkeypatch.setattr(export, "_index_text", [])
    texts = export._index_texts(3)
    longer = export._index_texts(10)
    assert texts == ["0", "1", "2"]
    assert longer == list(map(str, range(10)))
    assert export._index_texts(5) is longer


def test_complex_json_loader_holds_under_three_copies_of_the_document():
    # the built complex and one grade's text at a time, compared in place
    # with the document; the writer's whole text beside the document peaked
    # at 2.7 copies, and json.loads' objects and the Python compare at 3.9
    complex_ = build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))  # n=7 table cached
    text = complex_to_json(complex_)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        complex_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 3.0 * len(text), (peak, len(text))


def _traced_peak(function, *args):
    """The `tracemalloc` peak of one call of `function`, after a full
    collection has emptied the interpreter's free lists: so every object
    the call makes is allocated, and counted, whatever ran before it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        function(*args)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("form", ["compact", "indent=4", "length 2/2"])
def test_the_validator_holds_under_one_copy_beside_the_parsed_document(form):
    # beside json.loads' objects, the validator holds the columns read from
    # them and the built complex, with one of the writer's records at a
    # time: 0.78 to 0.83 copies of the writer's document on Python
    # 3.10-3.13, where comparing whole columns per grade took 1.10 to 1.13.
    # In all it peaks at 3.86 to 4.24 copies, as json.loads' objects differ
    # by version.  The writer's bytes with the length 1 written 2/2 have its
    # header, whose complex the validator reuses
    complex_ = build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))  # n=7 table cached
    writer = complex_to_json(complex_)
    if form == "length 2/2":
        text = writer.replace('"1"\n  ],', '"2/2"\n  ],', 1)
    else:
        text = LAYOUTS[form](json.loads(writer))
    assert text != writer and complex_from_json(text) == complex_
    parsed, loaded = _traced_peak(json.loads, text), _traced_peak(complex_from_json, text)
    assert loaded - parsed <= 1.0 * len(writer), (parsed, loaded, len(writer))


_SHORT_PATH_SPECS = [rep.spec for rep in REPRESENTATIVES] + ["1,2,3,4,5,6", "3,5,7,2,9,4,1"]


@pytest.mark.parametrize("spec", _SHORT_PATH_SPECS)
def test_the_writers_bytes_load_with_no_json_parse(spec, monkeypatch):
    complex_ = build_complex(make_linkage(parse_lengths(spec)))
    text = complex_to_json(complex_)

    def loads(*args, **kwargs):
        raise AssertionError("the writer's own document was parsed")

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", loads)
        assert complex_from_json(text) == complex_
    # why the compare is sound: the validator alone accepts the same bytes
    monkeypatch.setattr(export, "_header_tokens", lambda text: None)
    assert complex_from_json(text) == complex_


#: documents equal to a writer's document but not laid out as it is
LAYOUTS = {
    "compact": lambda doc: json.dumps(doc),
    "indent=4": lambda doc: json.dumps(doc, indent=4),
    "length 2/2": lambda doc: json.dumps({**doc, "lengths": ["2/2", *doc["lengths"][1:]]}, indent=2)
    + "\n",
    "keys reordered, one extra": lambda doc: json.dumps(
        {**doc, "cells": [{**dict(reversed(c.items())), "note": ""} for c in doc["cells"]]}
    ),
    "trailing whitespace": lambda doc: json.dumps(doc, indent=2) + "\n \t\n",
}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_a_layout_the_writer_did_not_write_loads_through_the_validator(layout, monkeypatch):
    complex_ = build_complex(make_linkage([1, 2, 3, 4, 5, 6]))
    text = layout(json.loads(complex_to_json(complex_)))
    assert text != complex_to_json(complex_)
    parsed, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    assert complex_from_json(text) == complex_
    assert parsed == [text]


def _move_a_face_between_rows(doc):
    first, second = doc["cells"][113]["boundary"], doc["cells"][112]["boundary"]
    doc["cells"][112]["boundary"] = second + first[:1]
    doc["cells"][113]["boundary"] = first[1:]


def _set_lengths(doc):
    doc["lengths"] = ["1", "1", "1", "1", "3"]


def _delete_the_last_cell(doc):
    del doc["cells"][-1]


def _write_a_501_character_length(doc):
    doc["lengths"][0] = "1" * 501


def _true_dim_then_a_changed_face(doc):
    doc["cells"][30]["dim"] = True  # == 1, the dim of the 1-cell 30
    doc["cells"][112]["boundary"][-1] += 1


def _an_object_for_a_boundary(doc):
    doc["cells"][112]["boundary"] = {"55": 73}


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (
            _move_a_face_between_rows,
            ValueError,
            'cell 112: expected {"dim": 2, "label": "{4}{1,3}{2,5}", "boundary": [55, 73, 76, 82]},'
            ' found {"dim": 2, "label": "{4}{1,3}{2,5}", "boundary": [55, 73, 76, 82, 39]}',
        ),
        (
            _set_lengths,
            ValueError,
            "document has 114 cells, but the complex of lengths 1,1,1,1,3 has 74",
        ),
        (
            _delete_the_last_cell,
            ValueError,
            "document has 113 cells, but the complex of lengths 1,1,1,1,1 has 114",
        ),
        (
            _write_a_501_character_length,
            LinkageError,
            "length '11111111111111111111'... is over 500 characters",
        ),
        (
            _true_dim_then_a_changed_face,
            ValueError,
            'cell 30: expected {"dim": 1, "label": "{1}{2,3}{4}{5}", "boundary": [0, 2]},'
            ' found {"dim": true, "label": "{1}{2,3}{4}{5}", "boundary": [0, 2]}',
        ),
        (
            _an_object_for_a_boundary,
            ValueError,
            'cell 112: expected {"dim": 2, "label": "{4}{1,3}{2,5}", "boundary": [55, 73, 76, 82]},'
            ' found {"dim": 2, "label": "{4}{1,3}{2,5}", "boundary": {"55": 73}}',
        ),
    ],
    ids=[
        "face moved",
        "lengths 1,1,1,1,3",
        "last cell deleted",
        "501-character length",
        "true dim in grade 1 before a changed face in grade 2",
        "boundary an object",
    ],
)
def test_a_one_edit_writers_document_gets_the_validators_message(edit, error, message):
    # laid out as the writer lays it out, so the header matches and the
    # complex of its lengths is built and written before the compare fails;
    # the compact form skips straight to the validator.  Of two faults, the
    # one in the first cell is named, whatever its grade or kind
    doc = _pentagon_document()
    assert json.dumps(doc, indent=2) + "\n" == complex_to_json(
        build_complex(make_linkage([1, 1, 1, 1, 1]))
    )
    edit(doc)
    text = json.dumps(doc, indent=2) + "\n"
    assert HEADER.match(text)
    for document in (text, json.dumps(doc)):
        with pytest.raises(error) as raised:
            complex_from_json(document)
        assert type(raised.value) is error and str(raised.value) == message


def _pentagon_text():
    return complex_to_json(build_complex(make_linkage([1, 1, 1, 1, 1])))


def _pentagon_document():
    return json.loads(_pentagon_text())


def _change_the_last_face(text):
    last = re.search(r"\d+(?=\n      \]\n    \}\n  \]\n\}\n\Z)", text)
    return text[: last.start()] + str(int(last[0]) + 1) + text[last.end() :]


#: the pentagon's document one edit from the writer's, with the validator's
#: message for it
ONE_OFF = {
    "a byte longer": (
        _pentagon_text() + "}",
        "document is not JSON: Extra data: line 914 column 1 (char 12935)",
    ),
    "a byte shorter": (
        _pentagon_text()[:-2] + "\n",
        "document is not JSON: Expecting ',' delimiter: line 914 column 1 (char 12934)",
    ),
    "last face changed": (
        _change_the_last_face(_pentagon_text()),
        'cell 113: expected {"dim": 2, "label": "{4}{2,3}{1,5}", "boundary": [39, 77, 80, 83]},'
        ' found {"dim": 2, "label": "{4}{2,3}{1,5}", "boundary": [39, 77, 80, 84]}',
    ),
}


@pytest.mark.parametrize("text, message", ONE_OFF.values(), ids=ONE_OFF.keys())
def test_the_in_place_compare_hands_a_near_miss_to_the_validator(text, message):
    # each of the writer's pieces is compared in place: the longer text
    # matches every piece but not in length, the shorter one fails at the
    # close and the changed face in the last grade
    assert HEADER.match(text)
    with pytest.raises(ValueError) as raised:
        complex_from_json(text)
    assert str(raised.value) == message


def _load(doc):
    return complex_from_json(json.dumps(doc))


def test_complex_from_json_rejects_a_missing_key():
    doc = _pentagon_document()
    del doc["cells"][30]["boundary"]
    with pytest.raises(ValueError, match="cell 30 has no 'boundary'"):
        _load(doc)
    doc = _pentagon_document()
    del doc["lengths"]
    with pytest.raises(ValueError, match="document has no 'lengths'"):
        _load(doc)


def _mismatch(k, found):
    """The message naming cell k as the first that differs from the built
    complex, found (a regex) in its record."""
    return rf"cell {k}: expected \{{.*\}}, found \{{.*{found}"


def test_complex_from_json_rejects_a_face_outside_the_layer_below():
    doc = _pentagon_document()  # f-vector (24, 60, 30)
    doc["cells"][-1]["boundary"][0] = len(doc["cells"])
    with pytest.raises(ValueError, match=_mismatch(113, r'"boundary": \[114, ')):
        _load(doc)
    doc = _pentagon_document()
    doc["cells"][-1]["boundary"][0] = 0  # a vertex, not an edge
    with pytest.raises(ValueError, match=_mismatch(113, r'"boundary": \[0, ')):
        _load(doc)


def test_complex_from_json_rejects_a_dim_that_disagrees_with_the_label():
    doc = _pentagon_document()
    doc["cells"][0]["dim"] = 1
    with pytest.raises(ValueError, match=r'cell 0: expected \{"dim": 0, .*found \{"dim": 1, '):
        _load(doc)


def test_complex_from_json_rejects_a_label_on_other_bars():
    doc = _pentagon_document()
    doc["cells"][30]["label"] = "{1,2}{3}{4}{5}{6}"
    with pytest.raises(ValueError, match=_mismatch(30, re.escape('"{1,2}{3}{4}{5}{6}"'))):
        _load(doc)


def test_complex_from_json_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ValueError, match="document is a JSON array, not an object"):
        complex_from_json("[]")


#: a document that is not a JSON object, with the loader's message for it
NOT_AN_OBJECT = {
    "null": "document is a JSON null, not an object",
    "[]": "document is a JSON array, not an object",
    '"x"': "document is a JSON string, not an object",
    "1": "document is a JSON number, not an object",
    "1.5": "document is a JSON number, not an object",
    "NaN": "document is a JSON number, not an object",
    "true": "document is a JSON boolean, not an object",
    "": "document is not JSON: Expecting value: line 1 column 1 (char 0)",
    "{": "document is not JSON: Expecting property name enclosed in double quotes:"
    " line 1 column 2 (char 1)",
}


@pytest.mark.parametrize("text, message", NOT_AN_OBJECT.items(), ids=repr)
def test_the_loader_names_what_is_not_an_object_in_json_terms(text, message, monkeypatch, capsys):
    # JSON's names for its types, not Python's (`NoneType`, `list`), and a
    # parse failure says that the document is not JSON, as `check -` prints
    with pytest.raises(ValueError) as raised:
        complex_from_json(text)
    assert type(raised.value) is ValueError and str(raised.value) == message
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    assert main(["check", "-"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_complex_from_json_rejects_a_cell_that_is_not_an_object():
    doc = _pentagon_document()
    doc["cells"] = [5]
    with pytest.raises(ValueError, match="cell 0 is not an object"):
        _load(doc)


def test_complex_from_json_rejects_a_label_that_is_not_a_string():
    doc = _pentagon_document()
    doc["cells"][30]["label"] = 7
    with pytest.raises(ValueError, match=_mismatch(30, '"label": 7, ')):
        _load(doc)


def test_complex_from_json_rejects_a_boundary_that_is_not_a_list():
    doc = _pentagon_document()
    doc["cells"][30]["boundary"] = 5
    with pytest.raises(ValueError, match=_mismatch(30, r'"boundary": 5\}')):
        _load(doc)


def test_complex_from_json_rejects_an_empty_cell_list():
    doc = _pentagon_document()
    doc["cells"] = []
    with pytest.raises(ValueError, match="'cells' is not a non-empty list"):
        _load(doc)


def test_complex_from_json_rejects_lengths_that_are_not_a_list():
    doc = _pentagon_document()
    doc["lengths"] = "11111"
    with pytest.raises(ValueError, match="'lengths' is not a list of strings"):
        _load(doc)


def test_complex_from_json_rejects_a_cell_listed_twice():
    doc = _pentagon_document()
    doc["cells"].append(doc["cells"][23])  # the last 0-cell; no index shifts
    with pytest.raises(
        ValueError,
        match="document has 115 cells, but the complex of lengths 1,1,1,1,1 has 114",
    ):
        _load(doc)
    doc = _pentagon_document()
    doc["cells"][23] = doc["cells"][22]  # in place of the next, so the count holds
    label = re.escape(doc["cells"][22]["label"])
    with pytest.raises(ValueError, match=_mismatch(23, f'"label": "{label}"')):
        _load(doc)


def test_complex_from_json_rejects_cells_out_of_order():
    doc = _pentagon_document()
    cells = doc["cells"]
    cells[0]["label"], cells[1]["label"] = cells[1]["label"], cells[0]["label"]
    label = re.escape(cells[0]["label"])
    with pytest.raises(ValueError, match=_mismatch(0, f'"label": "{label}"')):
        _load(doc)


def test_complex_from_json_rejects_a_label_not_written_canonically():
    for text in ("{5}{1,2}{3}{4}", "{2,1}{3}{4}{5}"):
        doc = _pentagon_document()
        assert doc["cells"][24]["label"] == "{1,2}{3}{4}{5}"
        doc["cells"][24]["label"] = text
        with pytest.raises(
            ValueError,
            match=r'cell 24: expected \{.*"label": "\{1,2\}\{3\}\{4\}\{5\}".*\}, found \{.*'
            + re.escape(f'"label": "{text}"'),
        ):
            _load(doc)


def test_complex_from_json_rejects_label_text_that_does_not_parse():
    # the last: three {1} masks add up to {1,2}, so the masks alone sum to 1..5
    for text in ("oops", "{1}{2}{3}{4}{5", "{1,1}{2}{3}{4}{5}", "{1}{1}{1}{3}{4}{5}"):
        doc = _pentagon_document()
        doc["cells"][30]["label"] = text
        with pytest.raises(ValueError, match=_mismatch(30, re.escape(f'"label": "{text}"'))):
            _load(doc)


def test_complex_from_json_rejects_a_dim_that_is_not_an_int():
    for value in (True, 1.0):  # cell 30 is a 1-cell, and both == 1
        doc = _pentagon_document()
        doc["cells"][30]["dim"] = value
        with pytest.raises(ValueError, match=_mismatch(30, f'"dim": {json.dumps(value)}, ')):
            _load(doc)


def test_complex_from_json_rejects_a_face_index_that_is_not_an_int():
    doc = _pentagon_document()
    assert doc["cells"][32]["boundary"] == [0, 1]
    for value in (True, 1.0):  # both == 1
        doc["cells"][32]["boundary"][1] = value
        with pytest.raises(
            ValueError, match=_mismatch(32, rf'"boundary": \[0, {json.dumps(value)}\]')
        ):
            _load(doc)


def test_complex_from_json_rejects_faces_moved_between_rows():
    # the flat list of face indices is unchanged, only where one row ends
    doc = _pentagon_document()
    first, second = doc["cells"][113]["boundary"], doc["cells"][112]["boundary"]
    doc["cells"][112]["boundary"] = second + first[:1]
    doc["cells"][113]["boundary"] = first[1:]
    with pytest.raises(ValueError, match=_mismatch(112, r'"boundary": \[')):
        _load(doc)


def test_complex_from_json_rejects_a_face_listed_twice():
    doc = _pentagon_document()
    doc["cells"][30]["boundary"] = [0, 0]
    with pytest.raises(ValueError, match=_mismatch(30, r'"boundary": \[0, 0\]')):
        _load(doc)


def test_complex_from_json_rejects_a_part_long_for_the_lengths():
    # every pair is short in 1,1,1,1,1, but {4,5} is long in 1,1,1,1,3; the
    # first cell holding it is {1}{2}{3}{4,5}
    doc = _pentagon_document()
    doc["lengths"] = ["1", "1", "1", "1", "3"]
    assert doc["cells"][33]["label"] == "{1}{2}{3}{4,5}"
    with pytest.raises(
        ValueError,
        match="document has 114 cells, but the complex of lengths 1,1,1,1,3 has 74",
    ):
        _load(doc)


def test_complex_from_json_rejects_a_missing_0_cell():
    doc = _pentagon_document()
    doc["cells"] = doc["cells"][:23]  # 0-cells only, the last one dropped
    with pytest.raises(
        ValueError, match="document has 23 cells, but the complex of lengths 1,1,1,1,1 has 114"
    ):
        _load(doc)


def test_complex_from_json_rejects_a_document_that_is_not_its_lengths_complex():
    # each loaded before, as f (24, 60, 29) and as the 1,1,1,1,1 cells
    doc = _pentagon_document()
    del doc["cells"][-1]
    with pytest.raises(ValueError, match="document has 113 cells"):
        _load(doc)
    doc = _pentagon_document()
    doc["lengths"] = ["1", "1", "1", "1", "3"]
    with pytest.raises(ValueError, match="document has 114 cells"):
        _load(doc)


@pytest.mark.parametrize("value", [True, 1.0, 2, "1", None])
def test_complex_from_json_rejects_a_schema_other_than_the_int_1(value):
    doc = _pentagon_document()
    doc["schema"] = value
    with pytest.raises(ValueError, match=re.escape(f"unknown schema {value!r}")):
        _load(doc)


@pytest.mark.parametrize("value", [99, 4, "x", "5", 5.0, None])
def test_complex_from_json_rejects_an_n_other_than_the_number_of_lengths(value):
    doc = _pentagon_document()
    doc["n"] = value
    with pytest.raises(
        ValueError, match=re.escape(f"'n' is {value!r}, but there are 5 lengths")
    ):
        _load(doc)


def test_complex_from_json_rejects_a_missing_n():
    doc = _pentagon_document()
    del doc["n"]
    with pytest.raises(ValueError, match="document has no 'n'"):
        _load(doc)


@pytest.mark.parametrize("length", ["1e30000000", "1" * 501])
def test_complex_from_json_rejects_a_length_in_exponent_notation_or_too_long(length):
    doc = _pentagon_document()
    doc["lengths"][0] = length
    start = time.perf_counter()
    with pytest.raises(LinkageError, match="cannot parse length|over 500 characters"):
        _load(doc)
    assert time.perf_counter() - start < 1.0


def test_complex_from_json_rejects_deep_nesting_with_a_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        complex_from_json("[" * 100000)


def _with_a_long_dim():
    """The writer's pentagon document with its first cell's dim 5,000 nines:
    the header is the writer's, so the loader builds before it parses."""
    text = complex_to_json(build_complex(make_linkage([1, 1, 1, 1, 1])))
    return text.replace('"dim": 0', '"dim": ' + "9" * 5000, 1)


@pytest.mark.parametrize(
    "text",
    ['{"schema": ' + "9" * 5000 + "}", _with_a_long_dim()],
    ids=["schema", "dim"],
)
def test_an_integer_past_the_digit_limit_is_refused_in_the_loaders_words(text):
    # json.loads raises a ValueError that is no JSONDecodeError, worded by
    # the Python version, for an int of more digits than the interpreter
    # converts; the loader and `linkctl check -` refuse it in one message
    message = f"document holds an integer of more than {sys.get_int_max_str_digits()} digits"
    with pytest.raises(ValueError) as raised:
        complex_from_json(text)
    assert str(raised.value) == message
    proc = _fresh_python(LINKSPACE_MAIN, "check", "-", input=text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_report_json_schema(representatives):
    rep, linkage = representatives[0]
    doc = json.loads(report_to_json(classify_linkage(linkage), linkage))
    assert doc["schema"] == 1
    assert doc["classification"] == "sphere"
    assert doc["chi"] == 2
    assert doc["orientable"] is True
    assert doc["genus"] == 0
    assert doc["component_count"] == 1
    assert doc["components"] == [{"chi": 2, "orientable": True, "genus": 0}]


@pytest.mark.parametrize(
    "spec, count",
    [
        ("2,1,1,1", 1),
        ("2,2,2,1", 2),
        ("1,1,eps,eps,1", 2),
        ("1,1,1,1,1", 1),
        ("1,1,1,4,4,4", 2),
        ("3,5,7,2,9,4,1", 1),
    ],
)
def test_classify_json_gives_the_component_count_at_every_n(spec, count, capsys):
    # the count from the JSON report, against the text report's and a
    # union-find over the built complex's edges
    linkage = make_linkage(parse_lengths(spec))
    complex_ = build_complex(linkage)
    assert oracle_component_count(complex_.f_vector()[0], complex_.edges) == count
    assert main(["classify", spec, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["component_count"] == count
    assert main(["classify", spec]) == 0
    assert f"\ncomponents: {count}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec",
    [
        "2,1,1,1",
        *(rep.spec for rep in REPRESENTATIVES),
        "1,1,1,4,4,4",
        "1,1,1,1,1,2",
        "3,5,7,2,9,4,1",
    ],
)
def test_report_json_is_the_json_dumps_layout(spec):
    # n=4, the six pentagons (one with two components), and n=6 and 7
    linkage = make_linkage(parse_lengths(spec))
    report = classify_linkage(linkage)
    assert report_to_json(report, linkage) == reference_report_to_json(report, linkage)


@pytest.mark.parametrize("spec", ["2,1,1,1", "1,1,eps,eps,1", "3,5,7,2,9,4,1"])
def test_classify_json_leaves_no_cyclic_garbage(spec, capsys):
    # a request after a first one must leave none; the first of a fresh
    # process is test_the_first_request_of_a_process_leaves_no_cyclic_garbage
    assert main(["classify", spec, "--format", "json"]) == 0
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(["classify", spec, "--format", "json"]) == 0
        assert gc.collect() == 0
    finally:
        (gc.enable if enabled else gc.disable)()


def test_render_tables_spot_rows():
    text = render_tables()
    lines = text.splitlines()
    row4 = next(l for l in lines if l.lstrip().startswith("4  {4}{1,2,3}{5}"))
    assert row4.count("v") == 1
    step3 = lines[lines.index("step 3: diagonal faces patched in (eps = 1/100)") :]
    for i in range(1, 6):
        row = next(l for l in step3 if l.lstrip().startswith(f"{i}  "))
        assert "v" not in row.split("}")[-1]
    row16 = next(l for l in step3 if l.lstrip().startswith("16  "))
    assert row16.split("}")[-1].count("v") == 5
    assert "misprinted" in text


def test_verify_all_passes():
    ok, text = verify_all()
    assert ok
    assert sum(1 for l in text.splitlines() if l.startswith("[PASS]")) == 6


def test_verify_all_reports_corrupted_expectations(monkeypatch):
    corrupted = tuple(
        Representative(r.spec, "genus-5 surface", r.components, r.chi)
        if r.spec == "1,1,1,1,1"
        else r
        for r in REPRESENTATIVES
    )
    monkeypatch.setattr(export, "REPRESENTATIVES", corrupted)
    ok, text = verify_all()
    assert not ok
    fail = next(l for l in text.splitlines() if l.startswith("[FAIL]"))
    assert "expected 'genus-5 surface'" in fail


def test_verify_all_flags_oversized_epsilon(monkeypatch):
    # 1,1,eps,eps,1 at eps = 1/2, its first wall, is not generic: {1,3,4}
    # weighs half the total, so construction fails and the line says so
    oversized = tuple(
        r._replace(spec="1,1,1/2,1/2,1") if r.spec == "1,1,eps,eps,1" else r
        for r in REPRESENTATIVES
    )
    monkeypatch.setattr(export, "REPRESENTATIVES", oversized)
    ok, text = verify_all()
    assert not ok
    fail = next(l for l in text.splitlines() if "(1,1,1/2,1/2,1)" in l)
    assert fail.startswith("[FAIL]")
    assert "construction failed" in fail
    assert sum(l.startswith("[PASS]") for l in text.splitlines()) == 5


def test_verify_classifies_each_pentagon_once(monkeypatch, capsys):
    calls = []
    classify = topology.classify_linkage
    monkeypatch.setattr(topology, "classify_linkage", lambda l: calls.append(l) or classify(l))
    assert main(["verify"]) == 0
    assert "verification passed for 6 linkages" in capsys.readouterr().out
    assert [l.spec() for l in calls] == [
        "1,1,1,1,3",
        "1,1,1,1/100,2",
        "2,2,1,1,3",
        "1,1,1/100,1/100,1",
        "2,1,1,1,2",
        "1,1,1,1,1",
    ]


def test_eps_pentagons_keep_their_chamber_below_the_first_wall():
    # The lengths are affine in eps, so every short flag keeps its value
    # between walls: the chamber at DEFAULT_EPSILON is that of every eps in
    # (0, e*), e* the first wall.  The flags are compared at three points
    # below e* and one past it, where the chamber must change
    walls = {r.spec: eps_walls(r.spec) for r in REPRESENTATIVES}
    epsilon = Fraction(*DEFAULT_EPSILON)
    assert {spec: found[:1] for spec, found in walls.items()} == {
        "1,1,1,1,3": [],
        "1,1,1,eps,2": [1],
        "2,2,1,1,3": [],
        "1,1,eps,eps,1": [Fraction(1, 2)],
        "2,1,1,1,2": [],
        "1,1,1,1,1": [],
    }
    for spec in ("1,1,1,eps,2", "1,1,eps,eps,1"):
        wall = walls[spec][0]
        assert epsilon < wall

        def short(eps):
            return make_linkage(parse_lengths(spec, eps)).short

        assert short(DEFAULT_EPSILON) == short(epsilon / 10) == short(wall / 2)
        assert short(wall * Fraction(11, 10)) != short(DEFAULT_EPSILON)


def test_cli_classify_text(capsys):
    assert main(["classify", "1,1,1,1,3"]) == 0
    out = capsys.readouterr().out
    assert "classification: sphere" in out


def test_cli_classify_json(capsys):
    assert main(["classify", "2,1,1,1,2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "genus-3 surface"


def test_cli_epsilon_override(capsys):
    assert main(["classify", "1,1,1,eps,2", "--epsilon", "1/1000"]) == 0
    assert "classification: torus" in capsys.readouterr().out


def test_cli_invalid_input_exit_code(capsys):
    assert main(["classify", "1,2,3,oops"]) == 2
    assert main(["classify", "1,1,1,1,2"]) == 2  # non-generic
    assert main(["mesh", "2,1,1,1", "-o", "unused.obj"]) == 2  # not a pentagon
    assert main(["mesh", "1,1,1,1,3", "-o", ""]) == 2  # empty path
    # an empty length token is refused, not dropped (more in the grid below)
    for spec in [",1,1,1,1,1", "1, ,1,1,1,1"]:
        assert main(["classify", spec]) == 2
    # `--epsilon=--` passes '--' to the length grammar on every Python
    assert main(["classify", "--epsilon=--", "--", "1,1,1,eps,2"]) == 2
    assert "internal invariant" not in capsys.readouterr().err
    # hostile lengths from every command, in one fresh process whose
    # timeout fails a hang: huge exponents and digit runs, an unprintable
    # token and zero denominators.  Signed and leading zeros are here as a
    # number is built from its matched digits (not a leading '-': an option)
    tiny = ",".join(f"1/{10**700 + k}" for k in range(1, 15, 2))  # 703 characters each
    escaped = chr(1) * 500
    specs = [
        ["1e100000,1,1,1,1"], ["1,1,eps,eps,1", "--epsilon", "1e100000"], ["1," + tiny],
        ["1e30000000,1,1,1,1"], ["1,1,1,1e30000000"], ["1,,1,1,1,1"], ["1,1,1,1,1,"],
        [escaped + ",1,1,1,1"], ["1,1,eps,eps,1", "--epsilon", escaped], ["1/0,1,1,1,1"],
        ["1,1,eps,eps,1", "--epsilon", "3/0"], ["1/00,1,1,1,1"], ["+0,1,1,1,1"],
        ["1,1,1,1,-0/7"], ["1,1,1,1,007/0"],
    ]
    grid = [[command, *spec] for spec in specs for command in ("classify", "complex", "mesh")]
    proc = _fresh_python(HOSTILE, input=json.dumps(grid))
    assert (proc.returncode, proc.stderr) == (0, "")
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(grid) == 45
    for argv, (code, err, seconds) in zip(grid, results):
        # exit 2 at once, with one error line under 1 KB
        assert (code, err.count("\n"), err[-1:]) == (2, 1, "\n"), (argv[0], argv[1][:40], err[:200])
        assert len(err.encode()) < 1024 and seconds < 1.0, (argv[0], argv[1][:40])


#: runs linkctl on each argv of the JSON list on stdin, and prints each
#: one's exit code, stderr and time as a JSON list
HOSTILE = """import contextlib, io, json, time
from linkspace.cli import main
for argv in json.load(sys.stdin):
    err, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([code, err.getvalue(), time.perf_counter() - start]))
"""


@pytest.mark.parametrize(
    "option", [["--epsilon", "1e5"], ["--epsilon="], ["--epsilon", "1/0"]], ids=" ".join
)
def test_an_unparsable_epsilon_is_named_in_the_error(capsys, option):
    # it was once blamed on a length: "cannot parse length '1e5'"
    assert main(["classify", "1,1,eps,eps,1", *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse --epsilon ")
    assert "length" not in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "option", [["--epsilon", "0"], ["--epsilon=-1"], ["--epsilon", "0/5"]], ids=" ".join
)
def test_a_nonpositive_epsilon_is_named_in_the_error(capsys, option):
    # it was once blamed on a length: "length 3 is 0; all lengths must be > 0"
    assert main(["classify", "1,1,eps,eps,1", *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --epsilon is ")
    assert captured.err.endswith("; it must be > 0\n")
    assert "length" not in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args, quoted",
    [
        (["1/0,1,1,1,1"], "length '1/0'"),
        (["1,0/0,1,1,1"], "length '0/0'"),
        (["1,1,-1/0,1,1"], "length '-1/0'"),
        (["1,1,eps,eps,1", "--epsilon", "3/0"], "--epsilon '3/0'"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_a_zero_denominator_is_named_in_the_error(capsys, args, quoted):
    # it was once the bare text of Fraction's ZeroDivisionError: "Fraction(1, 0)"
    for command in ("classify", "complex", "mesh"):
        assert main([command, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse {quoted}: its denominator is 0\n"


# pieces of length tokens: digits, the syntax characters, eps, an exponent
# past the 4,300-digit str limit, and digit runs below and above the
# 500-character token limit
_PIECES = ["0", "1", "3", "7", "/", ".", "e", "e4400", "-", "eps", "9" * 250, "1" * 499]
_TOKENS = st.one_of(
    st.fractions(0, 20, max_denominator=1000).map(str),
    st.sampled_from(["1e4400", "3/" + "7" * 700, "9" * 500, "9" * 501]),
    st.lists(st.sampled_from(_PIECES), max_size=4).map("".join),
)


@settings(max_examples=100, deadline=1000)
@given(
    command=st.sampled_from(["classify", "mesh"]),
    lengths=st.lists(st.integers(1, 9).map(str), max_size=9),
    tokens=st.lists(_TOKENS, max_size=7),
    at=st.integers(0, 9),
    epsilon=st.none() | _TOKENS,
)
def test_cli_exits_0_or_2_on_any_lengths_and_epsilon(command, lengths, tokens, at, epsilon):
    # arbitrary tokens among plain ones, so that some reach make_linkage;
    # options first and `--` before the lengths, so that linkctl reads a
    # token starting with '-' as the lengths, not as an option
    argv = [command] + ([] if epsilon is None else [f"--epsilon={epsilon}"])
    spec = ",".join(lengths[:at] + tokens + lengths[at:])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv + ["--", spec]) in (0, 2)
    assert "internal invariant" not in err.getvalue()


def test_cli_internal_value_error_exits_3(monkeypatch, capsys):
    def broken(linkage):
        raise ValueError("not an input error")

    monkeypatch.setattr("linkspace.cli.perform_surgery", broken)
    assert main(["mesh", "1,1,1,1,1"]) == 3
    assert "internal invariant violated" in capsys.readouterr().err


def test_cli_classify_json_of_a_connected_heptagon(capsys):
    # n >= 6 reports no per-component detail; a connected space has one
    # component and must still render
    assert main(["classify", "1,1,1,1,1,1,1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == []
    assert doc["component_count"] == 1
    assert doc["orientable"] is None and doc["genus"] is None
    assert doc["f_vector"][0] == 720


def test_cli_rejects_unsupported_bar_counts_before_building(capsys):
    forty = ",".join(["1"] * 39 + ["2"])
    start = time.perf_counter()
    assert main(["classify", forty]) == 2
    assert main(["complex", forty]) == 2
    assert main(["mesh", forty]) == 2
    assert main(["classify", "1,1,1"]) == 2
    assert main(["mesh", "1,1,1,1,1,1,1"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "got n=40" in err and "Traceback" not in err


@pytest.mark.parametrize("n", [3, 9])
def test_an_unsupported_bar_count_is_refused_in_the_commands_name(n, capsys):
    # classify once blamed "complex construction", a build it makes only at n=5
    lengths = ",".join(["1"] * n)
    for command, message in [
        ("classify", f"classify supports 4 <= n <= 8 bars, got n={n}"),
        ("complex", f"complex supports 4 <= n <= 8 bars, got n={n}"),
        ("mesh", f"mesh is defined for pentagons (n=5), got n={n}"),
    ]:
        assert main([command, lengths]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_counts_bars_before_parsing_lengths(monkeypatch, capsys):
    # 10^5 tokens once cost a parse each (~0.3 s) before the refusal.  The
    # request path parses each token with the grammar, `parse_rational`, which
    # records its calls here: a valid spec shows that it is the one called
    parsed = []

    def parse(token, name="length"):
        parsed.append(token)
        return grammar(token, name)

    grammar = linkspace.linkage.parse_rational
    monkeypatch.setattr("linkspace.linkage.parse_rational", parse)
    assert main(["classify", "1,1,1,1,3"]) == 0
    assert parsed == ["1", "1", "1", "1", "3"]
    parsed.clear()
    capsys.readouterr()
    for command in ("classify", "complex", "mesh"):
        assert main([command, ",".join(["1"] * 10**5)]) == 2
    assert parsed == []
    assert "got n=100000" in capsys.readouterr().err


def test_cli_verify_exit_code(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    assert "{2,3,4}{1}{5}" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linkspace", "classify", "1,1,1,1,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classification: sphere" in proc.stdout


def _fresh_argv(code: str, *args: str) -> list[str]:
    """The argv that runs `code` with `args` in a new isolated interpreter
    (`-I`: no PYTHONPATH, no user site) that finds this linkspace first.
    `-I` also ignores PYTHONDONTWRITEBYTECODE, so `-B` keeps it from
    writing bytecode into the source tree."""
    src = str(Path(linkspace.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); {code}"
    return [sys.executable, "-I", "-B", "-c", code, *args]


def _fresh_python(code: str, *args: str, **run) -> subprocess.CompletedProcess:
    """Run `_fresh_argv(code, *args)`.  `run` goes to subprocess.run, to set
    `stdout` or `input`; stdout and stderr are captured by default."""
    return subprocess.run(
        _fresh_argv(code, *args),
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "timeout": 60, **run},
    )


def _measured_python(name: str, code: str, *args: str, stdout: str = os.devnull):
    """Run `_fresh_argv(code, *args)` with its stdout to the file `stdout`,
    and give its exit code and peak RSS in MB, printed with its CPU time
    under `name`.  os.wait4 measures the one child, where RUSAGE_CHILDREN
    keeps the largest peak of them all; a small fresh process waits for it,
    since a child's peak counts that of the large process it forked from."""
    proc = _fresh_python(WAIT4, stdout, *_fresh_argv(code, *args))
    sys.stderr.write(proc.stderr)
    assert proc.returncode == 0
    code, peak, cpu = proc.stdout.split()
    print(f"{name}: exit {code}, peak RSS {float(peak):.1f} MB, CPU {float(cpu):.2f} s")
    return int(code), float(peak)


#: runs the argv after its first argument, with its stdout to the file
#: named first, and prints its exit code, peak RSS in MB (ru_maxrss is in
#: KiB on Linux) and CPU seconds
WAIT4 = """import os, subprocess
with open(sys.argv[1], "w") as out:
    child = subprocess.Popen(sys.argv[2:], stdin=subprocess.DEVNULL, stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)
"""


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses brings in inspect, ast, dis and tokenize, about two thirds
    # of a cold `import linkspace`; the records are NamedTuples instead.  The
    # label layer, `linkspace.partitions`, is a reference no command uses,
    # and linkctl reads its argv without argparse, which brings in gettext
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "linkspace.partitions"]
    heavy += ["argparse", "gettext", "fractions", "decimal", "numbers"]
    proc = _fresh_python(
        "import linkspace, linkspace.cli; print(*sorted(set(sys.argv[1:]) & sys.modules.keys()))",
        *heavy,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_no_request_loads_fractions(tmp_path):
    # a length is a reduced pair of ints on every request path, so no command
    # loads `fractions`, with the `decimal` and `numbers` it brings in.  The
    # records are plain tuples and the grammars string methods, so none
    # loads `typing`, `re` or `enum`, and none loads `contextlib`.  The
    # writers write JSON directly and the loader takes the writer's own bytes
    # by one compare, so `json` is loaded only for `check` of a document in
    # another layout, the last request, which must load it.  -S leaves out
    # `site`, whose .pth files may import any of them for their own use
    document, reindented = tmp_path / "complex.json", tmp_path / "indent=4.json"
    written = complex_to_json(build_complex(make_linkage([3, 5, 7, 2, 9, 1])))
    reindented.write_text(json.dumps(json.loads(written), indent=4))
    requests = [
        ["classify", "1,1,eps,eps,1"],
        ["classify", "2,2,1,1,3", "--format", "json", "--epsilon", "0.5"],
        ["classify", "1,2,3,4,5,7/2"],
        ["classify", "1,1,1,1,1,2.5", "--format", "json"],
        ["mesh", "1,1,1,eps,2", "--epsilon", "1/50"],
        ["mesh", "2,1,1,1,2", "--format", "ply"],
        ["complex", "3,5,7,2,9,1", "-o", str(document)],
        ["check", str(document)],
        ["verify"],
        ["tables"],
    ]
    heavy = ["fractions", "decimal", "numbers", "typing", "re", "enum", "json", "contextlib"]
    loaded = "*sorted(set(heavy) & sys.modules.keys()), file=sys.stderr"
    run = (
        f"from linkspace.cli import main; heavy = {heavy!r}; "
        f"print([main(argv) for argv in {requests!r}], {loaded}); "
        f"print(main(['check', {str(reindented)!r}]), {loaded})"
    )
    proc = subprocess.run(
        [sys.executable, "-S", *_fresh_argv(run)[1:]],  # -S, then -I -B -c
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    first, last = proc.stderr.splitlines()
    assert first == f"{[0] * len(requests)}"
    code, *modules = last.split()  # json's own decoder brings in `re`
    assert code == "0" and "json" in modules


def test_every_annotation_in_the_package_resolves():
    # each module's own annotations, and those of each function and class
    # it defines, name types that `typing.get_type_hints` can find, with
    # every module loaded; `__main__` runs linkctl when imported
    names = [m.name for m in pkgutil.iter_modules(linkspace.__path__) if m.name != "__main__"]
    modules = [importlib.import_module(f"linkspace.{name}") for name in names]
    assert "geometry" in names and "partitions" in names
    for module in modules:
        typing.get_type_hints(module)
        for obj in vars(module).values():
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if obj.__module__ == module.__name__:
                    typing.get_type_hints(obj)


def test_the_first_request_of_a_process_leaves_no_cyclic_garbage():
    # building argparse's parser once left 46 to 52 objects in each process
    run = (
        "import gc; from linkspace.cli import main; gc.collect(); gc.disable(); "
        "code = main(sys.argv[1:]); print(code, gc.collect(), file=sys.stderr)"
    )
    proc = _fresh_python(run, "classify", "1,1,1,1,1", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "0 0\n")
    assert json.loads(proc.stdout)["classification"] == "genus-4 surface"


def test_linkctl_entry_exits_with_main_code():
    # cli.entry is the function behind the installed `linkctl` script
    run = "from linkspace.cli import entry; entry()"
    proc = _fresh_python(run, "verify")
    assert proc.returncode == 0
    assert proc.stdout.count("[PASS]") == 6
    proc = _fresh_python(run, "classify", "1e100000,1,1,1,1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


#: `python -m linkspace`, run by `_fresh_python`
LINKSPACE_MAIN = "import runpy; runpy.run_module('linkspace', run_name='__main__')"
#: the error a write to a full device raises
NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _raise_no_space(*args):
    raise NO_SPACE


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "1,1,1,1,1"],
        ["verify"],
        ["complex", "3,5,7,2,9,4,1"],
        ["mesh", "--help"],
    ],
    ids=" ".join,
)
def test_cli_exits_2_on_a_stdout_it_cannot_write(argv, method, capsys):
    stdout = type("FullStdout", (io.StringIO,), {method: _raise_no_space})()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: cannot write stdout: {NO_SPACE}\n")


def test_cli_exits_2_on_a_file_it_cannot_write(tmp_path, capsys):
    for path in ("", str(tmp_path / "missing" / "x.obj")):
        assert main(["mesh", "1,1,1,1,1", "-o", path]) == 2
        exc = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        assert capsys.readouterr() == ("", f"error: cannot write {path!r}: {exc}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_exits_2_on_a_full_device(capsys):
    # a file's write fails only once its buffer is flushed
    assert main(["complex", "1,1,1,1,1", "-o", "/dev/full"]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write '/dev/full': {NO_SPACE}\n")
    # block-buffered, as `-I` ignores PYTHONUNBUFFERED, a stdout keeps the
    # text of a failed flush: main closes it, or the flush at exit fails too
    with open("/dev/full", "w") as full:
        proc = _fresh_python(LINKSPACE_MAIN, "verify", stdout=full)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {NO_SPACE}\n")


def _dead_pipe():
    """The write end of a pipe whose reader has gone."""
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "w")


def test_cli_exits_2_on_a_pipe_whose_reader_has_gone():
    # as `linkctl complex … | head` meets once head has read its lines and
    # exited: a failed write like any other, not a quiet end
    with _dead_pipe() as pipe:
        proc = _fresh_python(LINKSPACE_MAIN, "complex", "1,1,1,1,1", stdout=pipe)
    broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {broken}\n")


@pytest.mark.parametrize("argv", [["classify", "1,1"], ["bogus"]], ids=" ".join)
def test_a_refusal_exits_2_on_a_stderr_it_cannot_write(argv):
    # exit 1 is a verification mismatch, so a refusal that cannot be printed,
    # to a closed stderr (`2>&-`) or a pipe whose reader has gone, exits 2
    proc = _fresh_python(LINKSPACE_MAIN, *argv, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "")
    with _dead_pipe() as pipe:
        proc = _fresh_python(LINKSPACE_MAIN, *argv, stderr=pipe)
    assert (proc.returncode, proc.stdout) == (2, "")


def test_cli_exits_2_on_a_pipe_for_stdout_and_stderr_whose_reader_has_gone():
    # as `linkctl complex … 2>&1 | head -1` meets: the error line about the
    # failed stdout cannot be written either
    with _dead_pipe() as pipe:
        proc = _fresh_python(LINKSPACE_MAIN, "complex", "3,5,7,2,9,4,1", stdout=pipe, stderr=pipe)
    assert proc.returncode == 2


#: the error a read or write of a closed fd raises
BAD_FD = OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.mark.parametrize("argv", [["verify"], ["complex", "1,1,1,1,1"]], ids=" ".join)
def test_cli_exits_2_on_a_closed_stdout(argv, capsys):
    # Python sets sys.stdout to None when fd 1 is closed at start, as by
    # `linkctl verify >&-`
    with contextlib.redirect_stdout(None):
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: cannot write stdout: {BAD_FD}\n")
    proc = _fresh_python(LINKSPACE_MAIN, *argv, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot write stdout: {BAD_FD}\n"


def test_cli_check_exits_2_on_a_closed_stdin(monkeypatch, capsys):
    # and sys.stdin to None when fd 0 is, as by `linkctl check - <&-`
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["check", "-"]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read '-': {BAD_FD}\n")
    proc = _fresh_python(LINKSPACE_MAIN, "check", "-", preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot read '-': {BAD_FD}\n"


def test_linkctl_check_reads_the_writers_document_from_stdin():
    text = complex_to_json(build_complex(make_linkage([1, 1, 1, 1, 1])))
    proc = _fresh_python(LINKSPACE_MAIN, "check", "-", input=text)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def _limit_address_space():
    # 256 MiB: the bounded read of /dev/zero runs within 100 MiB on Python
    # 3.11, and a read with no bound fails at once with a MemoryError
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (256 * 2**20,) * 2)


#: a program that writes U+1F600, four bytes in UTF-8, to stdout without end
ENDLESS_EMOJI = "import sys\nwhile True: sys.stdout.buffer.write('\\U0001f600'.encode() * 4096)"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize(
    "path, writer",
    [("/dev/zero", None), ("-", None), ("-", ENDLESS_EMOJI)],
    ids=["/dev/zero", "-", "- of U+1F600"],
)
def test_linkctl_check_refuses_an_endless_input(path, writer):
    # stdin is /dev/zero, or a pipe from `writer`: the bound counts bytes, so
    # 4-byte characters fit under the address-space limit as zeros do
    with contextlib.ExitStack() as stack:
        if writer is None:
            feed = stack.enter_context(open("/dev/zero", "rb"))
        else:
            argv = [sys.executable, "-c", writer]
            child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            stack.enter_context(child)
            stack.callback(child.kill)  # before the Popen's exit waits for it
            feed = child.stdout
        proc = _fresh_python(
            LINKSPACE_MAIN, "check", path, stdin=feed, preexec_fn=_limit_address_space
        )
    error = f"error: cannot read {path!r}: longer than 33,554,432 bytes\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


def test_cli_check_reads_at_most_its_bound(monkeypatch, capsys):
    text = complex_to_json(build_complex(make_linkage([1, 1, 1, 1, 1])))
    for bound, code in [(len(text), 0), (len(text) - 1, 2)]:
        monkeypatch.setattr(cli, "CHECK_BOUND", bound)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        assert main(["check", "-"]) == code
    assert capsys.readouterr() == ("", f"error: cannot read '-': longer than {bound:,} bytes\n")


def _edited(edit):
    """The 1,1,1,1,1 document after `edit`, laid out as the writer lays out
    a document, so the loader tries its compare before the validator."""
    doc = _pentagon_document()
    edit(doc)
    return json.dumps(doc, indent=2) + "\n"


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _set_length(length):
    return lambda doc: doc["lengths"].__setitem__(0, length)


def _set_cell(k, key, value):
    return lambda doc: doc["cells"][k].__setitem__(key, value)


def _set_face(k, i, value):
    return lambda doc: doc["cells"][k]["boundary"].__setitem__(i, value)


def _swap_first_labels(doc):
    cells = doc["cells"]
    cells[0]["label"], cells[1]["label"] = cells[1]["label"], cells[0]["label"]


# every document a rejection test above loads, in the test's order
REJECTED = {
    "cell without boundary": _edited(lambda doc: doc["cells"][30].pop("boundary")),
    "no lengths": _edited(lambda doc: doc.pop("lengths")),
    "face 114": _edited(_set_face(-1, 0, 114)),
    "face a vertex": _edited(_set_face(-1, 0, 0)),
    "dim 1 for a 0-cell": _edited(_set_cell(0, "dim", 1)),
    "label on other bars": _edited(_set_cell(30, "label", "{1,2}{3}{4}{5}{6}")),
    "a list": "[]",
    "cell not an object": _edited(_set("cells", [5])),
    "label not a string": _edited(_set_cell(30, "label", 7)),
    "boundary not a list": _edited(_set_cell(30, "boundary", 5)),
    "no cells": _edited(_set("cells", [])),
    "lengths a string": _edited(_set("lengths", "11111")),
    "cell appended twice": _edited(lambda doc: doc["cells"].append(doc["cells"][23])),
    "cell twice in place": _edited(lambda doc: doc["cells"].__setitem__(23, doc["cells"][22])),
    "cells out of order": _edited(_swap_first_labels),
    **{
        f"label {text}": _edited(_set_cell(24, "label", text))
        for text in ("{5}{1,2}{3}{4}", "{2,1}{3}{4}{5}")
    },
    **{
        f"label {text}": _edited(_set_cell(30, "label", text))
        for text in ("oops", "{1}{2}{3}{4}{5", "{1,1}{2}{3}{4}{5}", "{1}{1}{1}{3}{4}{5}")
    },
    **{f"dim {value}": _edited(_set_cell(30, "dim", value)) for value in (True, 1.0)},
    **{f"face {value}": _edited(_set_face(32, 1, value)) for value in (True, 1.0)},
    "faces moved between rows": _edited(_move_a_face_between_rows),
    "face twice": _edited(_set_cell(30, "boundary", [0, 0])),
    "lengths 1,1,1,1,3": _edited(_set_lengths),
    "0-cells but the last": _edited(lambda doc: doc.__setitem__("cells", doc["cells"][:23])),
    "last cell deleted": _edited(_delete_the_last_cell),
    "true dim before a changed face": _edited(_true_dim_then_a_changed_face),
    "boundary an object": _edited(_an_object_for_a_boundary),
    **{f"schema {value!r}": _edited(_set("schema", value)) for value in (True, 1.0, 2, "1", None)},
    **{f"n {value!r}": _edited(_set("n", value)) for value in (99, 4, "x", "5", 5.0, None)},
    "no n": _edited(lambda doc: doc.pop("n")),
    "9 lengths": _edited(lambda doc: doc.update(n=9, lengths=["1"] * 9)),
    **{f"length {t[:10]}": _edited(_set_length(t)) for t in ("1e30000000", "1" * 501)},
    "nested too deeply": "[" * 100000,
    **{name: text for name, (text, _) in ONE_OFF.items()},
}


@pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
def test_cli_check_exits_2_with_the_loaders_message(text, tmp_path, capsys):
    with pytest.raises(ValueError) as raised:
        complex_from_json(text)
    path = tmp_path / "complex.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")


def _builds(monkeypatch):
    """The linkages `complex_from_json` builds a complex of from now on."""
    built = []
    monkeypatch.setattr(
        export, "build_complex", lambda linkage: built.append(linkage) or build_complex(linkage)
    )
    return built


def _has_a_linkage_header(text):
    """Whether `text` starts with the writer's header, by its regular
    expression, with a supported number of lengths that form a linkage.  The
    lengths are read from the header alone, as the text past it may not be
    JSON."""
    if (tokens := oracle_header_tokens(text)) is None:
        return False
    try:
        check_supported_arity(len(tokens), "complex construction")
        make_linkage([parse_rational(t) for t in tokens])
    except (ArityMismatch, LinkageError):
        return False
    return True


#: what a drawn header's n and lengths hold: digits, Arabic-Indic digits
#: and a superscript, '"', ',', '/', '.', a space and a line break
_HEADER_TEXT = st.text('0123456789١٢²",/. \n', max_size=4)


@st.composite
def header_texts(draw):
    """A text laid out as the writer's header, with a drawn n and 0 to 9
    lengths, often of a pentagon or a hexagon, then a drawn end; with up to
    two characters of the header inserted, deleted or replaced."""
    n = draw(st.one_of(st.sampled_from(["5", "6", "١٢"]), _HEADER_TEXT))
    tokens = draw(
        st.one_of(
            st.sampled_from([["1"] * 5, ["2", "2", "1", "1", "3"], ["1", "2", "3", "4", "5", "6"]]),
            st.lists(st.one_of(st.sampled_from(["1", "2/2", "eps"]), _HEADER_TEXT), max_size=9),
        )
    )
    lengths = ",\n".join(f'    "{t}"' for t in tokens)
    text = '{\n  "schema": 1,\n  "n": ' + n + ',\n  "lengths": [\n' + lengths
    text += draw(st.sampled_from(["\n  ],\n  \"cells\": [", "\n  ],\n  \"cells\": []}"]))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(['"', "\n", " ", ",", "]", "0", "١", ""]))
        text = text[:k] + new + text[k + draw(st.integers(0, 1)) :]
    return text


@settings(max_examples=300, deadline=None)
@given(header_texts())
def test_the_loader_reads_a_header_as_its_regex_did(text):
    # `_header_tokens` reads with string methods; `oracles.HEADER` is the
    # regular expression it replaced.  The loader takes its one-compare
    # path, building the header's complex, for exactly the headers the
    # regex accepts whose lengths form a supported linkage
    assert export._header_tokens(text) == oracle_header_tokens(text)
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(export, "build_complex", lambda l: built.append(l) or build_complex(l))
        with pytest.raises(ValueError):  # no drawn text is a whole document
            complex_from_json(text)
    assert len(built) == _has_a_linkage_header(text)


LOADED = {"writer's bytes": lambda doc: json.dumps(doc, indent=2) + "\n", **LAYOUTS}


@pytest.mark.parametrize("layout", LOADED.values(), ids=LOADED.keys())
def test_a_loaded_document_is_built_once(layout, monkeypatch):
    # a document with the writer's header hands its complex to the validator
    complex_ = build_complex(make_linkage([1, 2, 3, 4, 5, 6]))
    text = layout(json.loads(complex_to_json(complex_)))
    built = _builds(monkeypatch)
    assert complex_from_json(text) == complex_
    assert built == [complex_.linkage]


@pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
def test_a_rejected_document_is_built_at_most_once(text, monkeypatch):
    # once if it has the writer's header with lengths that form a linkage;
    # the validator's type checks reject every other one before a build
    built = _builds(monkeypatch)
    with pytest.raises(ValueError):
        complex_from_json(text)
    assert len(built) == _has_a_linkage_header(text)


def test_a_writers_header_of_9_lengths_is_refused_before_make_linkage(monkeypatch):
    # the header is read for any number of lengths, and the count is checked
    # before make_linkage's 2^n pass; the validator names the fault
    text = REJECTED["9 lengths"]
    assert HEADER.match(text)
    monkeypatch.setattr(export, "make_linkage", lambda lengths: pytest.fail("make_linkage"))
    with pytest.raises(ArityMismatch) as raised:
        complex_from_json(text)
    assert str(raised.value) == "complex construction supports 4 <= n <= 8 bars, got n=9"


#: edits that give the pentagon's document a long value, which the
#: loader's message quotes; each is made only when its test runs
LONG_VALUES = {
    "5,000,000-character label": lambda: _set_cell(0, "label", "x" * 5_000_000),
    "1,000,000-face boundary": lambda: _set_cell(30, "boundary", [0] * 1_000_000),
    "1,000,000-character schema": lambda: _set("schema", "x" * 1_000_000),
    "1,000,000-character n": lambda: _set("n", "x" * 1_000_000),
}


@pytest.mark.parametrize("edit", LONG_VALUES.values(), ids=LONG_VALUES.keys())
def test_cli_check_quotes_a_long_value_in_one_short_line(edit, tmp_path, capsys):
    # a value quoted from the document is cut to 200 characters and '...'
    path = tmp_path / "complex.json"
    path.write_text(_edited(edit()))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 1000, err[:300]
    assert re.fullmatch(r"error: .*\.\.\.(, but there are 5 lengths)?\n", err), err[:300]


#: a length token under the 500-character limit whose repr, escaped, is
#: four times as long
ESCAPED = "\x01" * 500


@pytest.mark.parametrize(
    "argv, document",
    [
        (["classify", ESCAPED + ",1,1,1,1"], None),
        (["classify", "1,1,eps,eps,1", "--epsilon", ESCAPED], None),
        (["check"], _edited(_set_length(ESCAPED))),
    ],
    ids=["classify length", "--epsilon", "check length"],
)
def test_an_escaped_token_is_quoted_in_one_short_line(argv, document, tmp_path, capsys):
    # the length grammar quotes the token's repr cut to 200 characters and '...'
    if document is not None:
        path = tmp_path / "complex.json"
        path.write_text(document)
        argv = argv + [str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 400, err[:300]
    assert re.fullmatch(r"error: cannot parse (length|--epsilon) '(\\x01){49}\\x0\.\.\.: .*\n", err)


def test_a_repeated_lengths_key_is_built_from_its_last_value():
    # json.loads keeps the last "lengths", so the header's complex of
    # 1,1,1,1,3 is not the one the cells are compared with
    pentagon = complex_to_json(build_complex(make_linkage([1, 1, 1, 1, 1])))
    header = complex_to_json(build_complex(make_linkage([1, 1, 1, 1, 3])))
    cells = '"cells": ['
    text = (
        header[: header.index(cells)]
        + pentagon[pentagon.index(cells) : -len("\n}\n")]
        + ',\n  "lengths": ["1", "1", "1", "1", "1"]\n}\n'
    )
    assert HEADER.match(text)[1].count('"3"') == 1
    assert complex_from_json(text) == build_complex(make_linkage([1, 1, 1, 1, 1]))


def test_cli_check_accepts_a_document_from_a_file_or_stdin(tmp_path, monkeypatch, capsys):
    text = complex_to_json(build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1])))
    path = tmp_path / "complex.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    stdin = io.TextIOWrapper(io.BytesIO(json.dumps(json.loads(text)).encode()))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["check", "-"]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_check_exits_2_on_a_file_it_cannot_read(tmp_path, monkeypatch, capsys):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    for name in ("missing.json", "binary.json", "."):
        assert main(["check", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read '{tmp_path / name}': ")
        assert err.count("\n") == 1
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["check", "-"]) == 2
    with pytest.raises(UnicodeDecodeError) as raised:
        b"\xff\xfe".decode("utf-8")
    assert capsys.readouterr() == ("", f"error: cannot read '-': {raised.value}\n")


@pytest.mark.parametrize("spec", [rep.spec for rep in REPRESENTATIVES] + ["3,5,7,2,9,4,1"])
def test_cli_complex_writes_the_writers_document(spec, capsys):
    # the pieces go to stdout as they come, never joined
    assert main(["complex", spec]) == 0
    complex_ = build_complex(make_linkage(parse_lengths(spec)))
    assert capsys.readouterr() == (complex_to_json(complex_), "")


def test_cli_mesh_and_complex_files(tmp_path, capsys):
    obj = tmp_path / "model.obj"
    assert main(["mesh", "1,1,1,1,1", "-o", str(obj)]) == 0
    vertices, faces = parse_obj(obj.read_text())
    assert (len(vertices), len(faces)) == (24, 30)
    ply = tmp_path / "model.ply"
    assert main(["mesh", "1,1,1,1,1", "--format", "ply", "-o", str(ply)]) == 0
    assert ply.read_text().startswith("ply\n")
    cx = tmp_path / "complex.json"
    assert main(["complex", "2,2,1,1,3", "-o", str(cx)]) == 0
    assert complex_from_json(cx.read_text()) == build_complex(
        make_linkage([2, 2, 1, 1, 3])
    )
