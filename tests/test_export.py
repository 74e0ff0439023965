import contextlib
import gc
import io
import json
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkspace
from linkspace import export, topology
from linkspace.cli import main
from linkspace.cwcomplex import build_complex
from linkspace.export import (
    REPRESENTATIVES,
    IoFailure,
    Representative,
    UnsupportedFormat,
    _vertex_lines,
    complex_from_json,
    complex_to_json,
    export_mesh,
    render_tables,
    report_to_json,
    verify_all,
    write_output,
)
from linkspace.linkage import (
    DEFAULT_EPSILON,
    LinkageError,
    NonPositiveLength,
    make_linkage,
    parse_lengths,
    parse_rational,
)
from linkspace.topology import classify_linkage

from oracles import (
    eps_walls,
    is_watertight,
    oracle_component_count,
    parse_obj,
    reference_report_to_json,
)


def test_parse_lengths_forms():
    assert parse_lengths("1,1,1,1/100,2") == [1, 1, 1, Fraction(1, 100), 2]
    assert parse_lengths("1,1,eps,eps,1", Fraction(1, 50)) == [
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
    # an empty token is refused, not dropped: '1,,1,1,1,1' is not a pentagon
    for text, k in [("1,,1,1,1,1", 2), ("1,1,1,1,1,", 6), (",1,1,1,1,1", 1), ("1, ,1,1,1,1", 2)]:
        with pytest.raises(LinkageError, match=f"length {k} is empty"):
            parse_lengths(text)
    # a token is at most 500 characters, and exponent notation is refused
    assert parse_lengths("1," + "9" * 500) == [1, 10**500 - 1]
    with pytest.raises(LinkageError, match="over 500 characters"):
        parse_lengths("1," + "9" * 501)
    # one ASCII grammar on every Python: Fraction's own takes '1_0' from 3.11
    # on, '1/ 2' from 3.12 on, and any Unicode digit
    assert parse_lengths("3,+3,1/100,0.25,.5,5.") == [
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


def test_write_output_failure():
    with pytest.raises(IoFailure):
        write_output("x", "")
    with pytest.raises(IoFailure):
        write_output("x", "/nonexistent-dir/deep/file.obj")


def test_export_is_deterministic(meshes):
    from linkspace.geometry import perform_surgery

    for _, linkage, mesh in meshes:
        again = perform_surgery(linkage)
        assert export_mesh(mesh, "obj") == export_mesh(again, "obj")
        assert export_mesh(mesh, "ply") == export_mesh(again, "ply")


def test_vertex_lines_are_formatted_once_per_process(meshes, monkeypatch):
    from linkspace import export

    calls = []
    fmt = export._fmt_coord
    monkeypatch.setattr(export, "_fmt_coord", lambda x: calls.append(x) or fmt(x))
    _vertex_lines.cache_clear()
    first = export_mesh(meshes[0][2], "obj")
    assert len(calls) == 72  # 24 points of 3 coordinates
    export_mesh(meshes[1][2], "ply")  # another pentagon, the same permutohedron() points
    assert export_mesh(meshes[0][2], "obj") == first
    assert len(calls) == 72


def test_a_mesh_with_other_points_writes_its_own(meshes):
    mesh = meshes[0][2]
    text = export_mesh(mesh, "obj")
    shifted = tuple((x + 1, y - 0.5, z) for x, y, z in mesh.points)
    vertices, _ = parse_obj(export_mesh(mesh._replace(points=shifted), "obj"))
    assert vertices == [pytest.approx(point, abs=1e-6) for point in shifted]
    assert export_mesh(mesh, "obj") == text


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


def test_complex_json_loader_holds_under_three_copies_of_the_document():
    # the built complex and the writer's text, compared with the document;
    # json.loads' objects and the Python compare once peaked at 3.9 copies
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


_SHORT_PATH_SPECS = [rep.spec for rep in REPRESENTATIVES] + ["1,2,3,4,5,6", "3,5,7,2,9,4,1"]


@pytest.mark.parametrize("spec", _SHORT_PATH_SPECS)
def test_the_writers_bytes_load_with_no_json_parse(spec, monkeypatch):
    complex_ = build_complex(make_linkage(parse_lengths(spec)))
    text = complex_to_json(complex_)

    def loads(*args, **kwargs):
        raise AssertionError("the writer's own document was parsed")

    with monkeypatch.context() as patch:
        patch.setattr(export.json, "loads", loads)
        assert complex_from_json(text) == complex_
    # why the compare is sound: the validator alone accepts the same bytes
    monkeypatch.setattr(export, "_HEADER", re.compile("(?!)"))
    assert complex_from_json(text) == complex_


#: documents equal to a writer's document but not laid out as it is
LAYOUTS = {
    "compact": lambda doc: json.dumps(doc),
    "indent=4": lambda doc: json.dumps(doc, indent=4),
    "length 2/2": lambda doc: json.dumps({**doc, "lengths": ["2/2", *doc["lengths"][1:]]}, indent=2)
    + "\n",
}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_a_layout_the_writer_did_not_write_loads_through_the_validator(layout, monkeypatch):
    complex_ = build_complex(make_linkage([1, 2, 3, 4, 5, 6]))
    text = layout(json.loads(complex_to_json(complex_)))
    assert text != complex_to_json(complex_)
    parsed, loads = [], json.loads
    monkeypatch.setattr(export.json, "loads", lambda text: parsed.append(text) or loads(text))
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
    ],
    ids=["face moved", "lengths 1,1,1,1,3", "last cell deleted", "501-character length"],
)
def test_a_one_edit_writers_document_gets_the_validators_message(edit, error, message):
    # laid out as the writer lays it out, so the header matches and the
    # complex of its lengths is built and written before the compare fails;
    # the compact form skips straight to the validator
    doc = _pentagon_document()
    assert json.dumps(doc, indent=2) + "\n" == complex_to_json(
        build_complex(make_linkage([1, 1, 1, 1, 1]))
    )
    edit(doc)
    text = json.dumps(doc, indent=2) + "\n"
    assert export._HEADER.match(text)
    for document in (text, json.dumps(doc)):
        with pytest.raises(error) as raised:
            complex_from_json(document)
        assert type(raised.value) is error and str(raised.value) == message


def _pentagon_document():
    return json.loads(complex_to_json(build_complex(make_linkage([1, 1, 1, 1, 1]))))


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
    with pytest.raises(ValueError, match="document is a JSON list, not an object"):
        complex_from_json("[]")


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
    # the first call builds the cached parser, whose making leaves cycles
    # once per process; a request after it must leave none
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
        assert DEFAULT_EPSILON < wall

        def short(eps):
            return make_linkage(parse_lengths(spec, eps)).short

        assert short(DEFAULT_EPSILON) == short(DEFAULT_EPSILON / 10) == short(wall / 2)
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
    # an empty length token once was dropped: '1,,1,1,1,1' exited 0 as 1,1,1,1,1
    for spec in ["1,,1,1,1,1", "1,1,1,1,1,", ",1,1,1,1,1", "1, ,1,1,1,1"]:
        assert main(["classify", spec]) == 2
    # once exit 3 from a >4300-digit str(Fraction) in an error message, or
    # a hang expanding an exponent: now each is refused at parse time
    tiny = ",".join(f"1/{10**700 + k}" for k in range(1, 15, 2))  # 703 characters each
    for argv in (
        ["classify", "1e100000,1,1,1,1"],
        ["classify", "1,1,eps,eps,1", "--epsilon", "1e100000"],
        ["classify", "1," + tiny],
        ["classify", "1e30000000,1,1,1,1"],
        # argparse before Python 3.13 reads `--epsilon=--` as [], which once
        # raised AttributeError in parse_rational; 3.13 reads it as '--'
        ["classify", "--epsilon=--", "--", "1,1,1,eps,2"],
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
    assert "internal invariant" not in capsys.readouterr().err


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
    # options first and `--` before the lengths, so argparse reads a token
    # starting with '-' as the lengths, not as an option
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


def test_cli_counts_bars_before_parsing_lengths(monkeypatch, capsys):
    # 10^5 tokens once cost a parse_rational each (~0.3 s) before the refusal
    def parse_rational(token):
        raise AssertionError("a length was parsed")

    monkeypatch.setattr("linkspace.linkage.parse_rational", parse_rational)
    for command in ("classify", "complex", "mesh"):
        assert main([command, ",".join(["1"] * 10**5)]) == 2
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


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a new isolated interpreter (`-I`: no
    PYTHONPATH, no user site) that finds this linkspace first.  `-I` also
    ignores PYTHONDONTWRITEBYTECODE, so `-B` keeps it from writing
    bytecode into the source tree."""
    src = str(Path(linkspace.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); {code}"
    return subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses brings in inspect, ast, dis and tokenize, about two thirds
    # of a cold `import linkspace`; the records are NamedTuples instead
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    proc = _fresh_python(
        "import linkspace, linkspace.cli; print(*sorted(set(sys.argv[1:]) & sys.modules.keys()))",
        *heavy,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


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
    **{f"schema {value!r}": _edited(_set("schema", value)) for value in (True, 1.0, 2, "1", None)},
    **{f"n {value!r}": _edited(_set("n", value)) for value in (99, 4, "x", "5", 5.0, None)},
    "no n": _edited(lambda doc: doc.pop("n")),
    **{f"length {t[:10]}": _edited(_set_length(t)) for t in ("1e30000000", "1" * 501)},
    "nested too deeply": "[" * 100000,
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
    """Whether `text` starts with the writer's header, with lengths that
    form a linkage."""
    if not export._HEADER.match(text):
        return False
    try:
        make_linkage([parse_rational(t) for t in json.loads(text)["lengths"]])
    except LinkageError:
        return False
    return True


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
    assert export._HEADER.match(text)[1].count('"3"') == 1
    assert complex_from_json(text) == build_complex(make_linkage([1, 1, 1, 1, 1]))


def test_cli_check_accepts_a_document_from_a_file_or_stdin(tmp_path, monkeypatch, capsys):
    text = complex_to_json(build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1])))
    path = tmp_path / "complex.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(json.loads(text))))
    assert main(["check", "-"]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_check_exits_2_on_a_file_it_cannot_read(tmp_path, capsys):
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    for name in ("missing.json", "binary.json", "."):
        assert main(["check", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read '{tmp_path / name}': ")
        assert err.count("\n") == 1


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
