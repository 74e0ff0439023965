import contextlib
import functools
import gc
import hashlib
import io
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkspace import cwcomplex
from linkspace.cli import main
from linkspace.cwcomplex import (
    STEP2_ROWS,
    STEP3_ROWS,
    ArityMismatch,
    CWComplex,
    build_complex,
    euler_characteristic,
    facet_membership_table,
)
from linkspace.export import complex_from_json, complex_to_json
from linkspace.linkage import Linkage, is_admissible_partition, make_linkage, parse_lengths
from linkspace.partitions import (
    CyclicPartition,
    canonicalize,
    cell_vertices,
    mask_texts,
    one_step_refinements,
)

from oracles import (
    boundary_labels,
    coarsenings,
    complex_dim,
    index_of,
    label_masks,
    oracle_cells,
    oracle_f_vector,
    reference_build_complex,
    reference_complex_to_json,
    rotation_class,
)
from test_golden import GOLDEN

EXPECTED_F_VECTORS = {
    "1,1,1,1,3": (24, 36, 14),
    "1,1,1,eps,2": (24, 42, 18),
    "2,2,1,1,3": (24, 48, 22),
    "1,1,eps,eps,1": (24, 42, 18),
    "2,1,1,1,2": (24, 54, 26),
    "1,1,1,1,1": (24, 60, 30),
}


def test_f_vectors_of_the_six_representatives(representatives):
    for rep, linkage in representatives:
        complex_ = build_complex(linkage)
        assert complex_.f_vector() == EXPECTED_F_VECTORS[rep.spec], rep.spec


def test_cells_match_independent_enumeration(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        expected = oracle_cells(linkage.lengths)
        for d, cells in enumerate(complex_.cells_by_dim):
            got = {rotation_class(c.parts) for c in cells}
            assert got == expected[d]


def test_oracle_equivalence_for_a_hexagon_linkage():
    linkage = make_linkage([1, 1, 1, 1, 1, 2])
    complex_ = build_complex(linkage)
    expected = oracle_cells(linkage.lengths)
    for d, cells in enumerate(complex_.cells_by_dim):
        assert {rotation_class(c.parts) for c in cells} == expected[d]


def test_every_stored_cell_is_admissible(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        for cells in complex_.cells_by_dim:
            for cell in cells:
                assert is_admissible_partition(linkage, cell.parts)


def test_boundary_lists_are_exactly_the_one_step_refinements(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        for d in range(1, len(complex_.cells_by_dim)):
            for cell in complex_.cells_by_dim[d]:
                got = set(boundary_labels(complex_, cell))
                assert got == set(one_step_refinements(cell))


def test_incidence_agrees_with_admissible_coarsenings(representatives):
    # cofaces of a 1-cell are its admissible adjacent merges
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        for cell in complex_.cells_by_dim[1]:
            via_merge = {
                c
                for c in coarsenings(cell)
                if is_admissible_partition(linkage, c.parts)
            }
            via_boundary = {
                face
                for i, face in enumerate(complex_.cells_by_dim[2])
                if index_of(complex_, cell)[1] in complex_.boundary[2][i]
            }
            assert via_merge == via_boundary


def test_every_edge_lies_in_exactly_two_faces(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        counts = [0] * len(complex_.cells_by_dim[1])
        for row in complex_.boundary[2]:
            for j in row:
                counts[j] += 1
        assert all(c == 2 for c in counts)


def test_vertex_degrees_are_at_least_three(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        degree = [0] * len(complex_.cells_by_dim[0])
        for row in complex_.boundary[1]:
            for j in row:
                degree[j] += 1
        assert min(degree) >= 3


def test_euler_characteristic_examples():
    assert euler_characteristic(build_complex(make_linkage([1, 1, 1, 1, 3]))) == 2
    assert euler_characteristic(build_complex(make_linkage([1, 1, 1, 1, 1]))) == -6
    from fractions import Fraction

    eps = Fraction(1, 100)
    assert (
        euler_characteristic(build_complex(make_linkage([1, 1, eps, eps, 1]))) == 0
    )


def test_euler_characteristic_is_even_for_pentagons(representatives):
    for _, linkage in representatives:
        assert euler_characteristic(build_complex(linkage)) % 2 == 0


def test_f_vector_invariant_under_length_preserving_relabeling():
    linkage = make_linkage([2, 2, 1, 1, 3])
    complex_ = build_complex(linkage)
    for swap in ({1: 2, 2: 1}, {3: 4, 4: 3}):
        relabel = lambda x: swap.get(x, x)
        for cells in complex_.cells_by_dim:
            labels = set(cells)
            mapped = {
                canonicalize([{relabel(x) for x in p} for p in c.parts])
                for c in cells
            }
            assert mapped == labels


def test_cell_ordering_is_deterministic(representatives):
    for _, linkage in representatives:
        a, b = build_complex(linkage), build_complex(linkage)
        assert a == b
        for cells in a.cells_by_dim:
            labels = [str(c) for c in cells]
            assert labels == sorted(labels)


def test_labels_are_the_text_of_the_cells(representatives):
    # the one label writer, from masks, against the checking constructor's labels
    linkages = [linkage for _, linkage in representatives] + [make_linkage([1, 2, 3, 4, 5, 6])]
    for linkage in linkages:
        complex_ = build_complex(linkage)
        for d, cells in enumerate(complex_.cells_by_dim):
            assert complex_.labels(d) == [str(c) for c in cells]


def test_supported_arity_range():
    with pytest.raises(ValueError):
        build_complex(make_linkage([1, 1, 1]))
    with pytest.raises(ValueError):
        build_complex(make_linkage([1] * 8 + [2]))
    assert build_complex(make_linkage([1] * 7 + [2])).f_vector()[0] == 5040


def test_dimension_bounds(representatives):
    # top cells have 3 parts, so dimensions run 0..n-3; vertices are the
    # (n-1)! full cyclic orders
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        assert complex_dim(complex_) == linkage.n - 3
        assert len(complex_.cells_by_dim[0]) == 24
        assert all(
            cell.num_parts == linkage.n - d
            for d, cells in enumerate(complex_.cells_by_dim)
            for cell in cells
        )


def test_membership_table_spot_values(representatives):
    linkages = [l for _, l in representatives]
    table2, table3 = facet_membership_table(linkages)
    step2 = {row: values for row, values in table2}
    step3 = {pair[0]: values for pair, values in table3}
    # columns are in representative order: 11113, 111e2, 22113, 11ee1, 21112, 11111
    assert step2["{1}{2,3,4}{5}"][5] is False
    assert step2["{4}{1,2,3}{5}"] == (True, False, False, False, False, False)
    assert step3["{1}{2}{3,4,5}"] == (False, False, False, True, False, False)
    assert step3["{2,4}{1}{3,5}"][2] is True
    assert step3["{2,3}{1}{4,5}"] == (False, True, True, True, True, True)


def _masks(row):
    """A row text's part masks, read independently of the package."""
    return [sum(1 << int(x) - 1 for x in part.split(",")) for part in row[1:-1].split("}{")]


def test_step2_rows_are_the_14_ordered_2_splits_of_1_to_4_with_5_appended():
    assert len(STEP2_ROWS) == len(set(STEP2_ROWS)) == 14
    for row in STEP2_ROWS:
        a, b, five = _masks(row)
        assert a and b and a & b == 0 and a | b == 0b1111 and five == 0b10000, row


def test_step3_pairs_hold_the_same_parts_in_the_other_cyclic_order():
    for a, b in STEP3_ROWS:
        x, y, z = _masks(a)
        assert _masks(b) == [y, x, z], (a, b)
        assert x | y | z == 0b11111 and x & y == x & z == y & z == 0, a
        assert z & 0b10000 and z != 0b10000, a  # 5's part is not {5} alone


def test_table_rows_round_trip_through_their_masks():
    texts = mask_texts(5)
    rows = list(STEP2_ROWS) + [row for pair in STEP3_ROWS for row in pair]
    for row in rows:
        assert "".join(texts[m] for m in _masks(row)) == row


def test_membership_table_requires_pentagons():
    with pytest.raises(ArityMismatch):
        facet_membership_table([make_linkage([2, 1, 1, 1])])


def test_cell_vertices_of_cells_are_complex_vertices(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        vertex_labels = set(complex_.cells_by_dim[0])
        for cells in complex_.cells_by_dim[1:]:
            for cell in cells:
                assert set(cell_vertices(cell)) <= vertex_labels


def _assert_matches_reference(linkage):
    complex_ = build_complex(linkage)
    reference = reference_build_complex(linkage)
    assert complex_.masks_by_dim == reference.masks_by_dim
    assert complex_.cells_by_dim == reference.cells_by_dim
    assert complex_.boundary == reference.boundary
    # the builder's labels skip the constructor's check; the checking route
    # must give the same labels
    for cells in complex_.cells_by_dim:
        for cell in cells:
            assert cell == canonicalize(cell.parts)
    text = complex_to_json(complex_)
    assert text == complex_to_json(reference)
    assert text == reference_complex_to_json(complex_)
    loaded = complex_from_json(text)
    assert loaded == complex_
    assert complex_to_json(loaded) == text


def test_pentagons_match_the_reference_builder(representatives):
    for _, linkage in representatives:
        _assert_matches_reference(linkage)


@pytest.mark.parametrize(
    "lengths", [[1, 1, 1, 1, 1, 2], [1, 2, 3, 4, 5, 6], [3, 5, 7, 2, 9, 4, 1]]
)
def test_hexagons_and_heptagon_match_the_reference_builder(lengths):
    _assert_matches_reference(make_linkage(lengths))


@pytest.mark.parametrize("lengths", [[2, 1, 1, 1], [2, 2, 2, 1]])
def test_quadrilaterals_match_the_reference_builder(lengths):
    _assert_matches_reference(make_linkage(lengths))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=4, max_size=6))
def test_generic_integer_linkages_match_the_reference_builder(lengths):
    # an odd total cannot be split in half, so every such vector is generic
    assume(sum(lengths) % 2 == 1 and 2 * max(lengths) < sum(lengths))
    _assert_matches_reference(make_linkage(lengths))


@settings(max_examples=5, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=7, max_size=7))
def test_generic_integer_heptagons_keep_the_wiring_invariants(lengths):
    # no reference build, which takes about a second per heptagon: these
    # invariants hold however build_complex wires the grades
    assume(sum(lengths) % 2 == 1 and 2 * max(lengths) < sum(lengths))
    complex_ = build_complex(make_linkage(lengths))
    bars = [[i + 1 for i in range(7) if m >> i & 1] for m in range(1 << 7)]
    short = [2 * sum(lengths[i - 1] for i in b) < sum(lengths) for b in bars]
    text = ["{" + ",".join(map(str, b)) + "}" for b in bars]

    layers, boundary = complex_.masks_by_dim, complex_.boundary
    for layer in layers:
        labels = ["".join([text[m] for m in parts]) for parts in layer]
        assert all(a < b for a, b in zip(labels, labels[1:]))
    for layer, rows in zip(layers[1:], boundary[1:]):
        for parts, row in zip(layer, rows, strict=True):
            assert all(a < b for a, b in zip(row, row[1:]))
            # every split of a short part is admissible
            assert len(row) == sum(2 ** len(bars[m]) - 2 for m in parts)
    # a cell's cofaces are its short merges of two cyclically adjacent
    # parts; a top cell has none, as a two-part cell would break genericity
    for layer, rows in zip(layers, boundary[1:] + ((),)):
        cofaces = Counter(f for row in rows for f in row)
        for i, parts in enumerate(layer):
            merges = sum(short[a | b] for a, b in zip(parts, parts[1:] + parts[:1]))
            assert cofaces[i] == merges


@pytest.fixture
def no_labels(monkeypatch):
    """Reaching the label layer fails: building a CyclicPartition, parsing or
    canonicalizing a label, and the Fraction admissibility predicates, under
    every name a linkspace module holds them by."""

    def refuse(*args):
        raise AssertionError("the label layer was reached")

    monkeypatch.setattr(CyclicPartition, "__init__", refuse)
    monkeypatch.setattr(Linkage, "part_sum", refuse)
    names = ("parse_partition", "canonicalize", "is_admissible_part", "is_admissible_partition")
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "linkspace"]
    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_no_labels_refuses_the_label_layer(no_labels):
    with pytest.raises(AssertionError):
        CyclicPartition((frozenset({1}), frozenset({2}), frozenset({3})))
    with pytest.raises(AssertionError):
        build_complex(make_linkage([1, 1, 1, 1, 1])).cells_by_dim
    with pytest.raises(AssertionError):
        make_linkage([1, 1, 1]).part_sum([1])


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_every_golden_command_builds_no_label(no_labels, argv, digest):
    # `tables` reads its row texts as masks and the short-subset table;
    # `verify`, the meshes and the documents read masks alone
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_heptagon_classify_and_complex_build_no_label(no_labels, capsys):
    # counts, incidence, export and load read the cells' masks alone
    spec = "3,5,7,2,9,4,1"
    assert main(["classify", spec, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["f_vector"] == [720, 2400, 2880, 1440, 242]
    assert main(["complex", spec]) == 0
    text = capsys.readouterr().out
    assert complex_to_json(complex_from_json(text)) == text


@pytest.mark.parametrize("spec", list(EXPECTED_F_VECTORS))
def test_pentagon_classify_and_mesh_build_no_label(no_labels, capsys, spec):
    # the surgery, its classification and the mesh writers read masks and
    # indices alone
    assert main(["classify", spec, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["f_vector"] == list(EXPECTED_F_VECTORS[spec])
    faces = EXPECTED_F_VECTORS[spec][2]
    assert main(["mesh", spec]) == 0
    assert capsys.readouterr().out.count("\n# face ") == faces
    assert main(["mesh", spec, "--format", "ply"]) == 0
    assert f"\nelement face {faces}\n" in capsys.readouterr().out
    assert main(["mesh", spec, "--triangulate"]) == 0
    assert capsys.readouterr().out.count("\n# face ") > faces


@pytest.fixture
def wirings(monkeypatch):
    """The grades wired since the test began, one entry per `_wire` call."""
    calls = []
    wire = cwcomplex._wire

    def counted(n, short, faces, cofaces):
        calls.append(len(cofaces))
        return wire(n, short, faces, cofaces)

    monkeypatch.setattr(cwcomplex, "_wire", counted)
    return calls


@pytest.mark.parametrize("spec", ["1,1,1,4,4,4", "3,5,7,2,9,4,1", "5,9,3,12,7,1,4,2"])
def test_classify_above_five_bars_builds_and_wires_nothing(monkeypatch, capsys, spec):
    # the counts come from the short-subset table alone
    def refuse(*args):
        raise AssertionError("a complex was built or wired")

    for name in ("build_complex", "_wire"):
        monkeypatch.setattr(cwcomplex, name, refuse)
    monkeypatch.setattr("linkspace.topology.build_complex", refuse)
    assert main(["classify", spec, "--format", "json"]) == 0
    f_vector = json.loads(capsys.readouterr().out)["f_vector"]
    assert f_vector == list(oracle_f_vector(spec.split(",")))


def test_a_miscount_exits_3_without_a_traceback(monkeypatch, capsys):
    count_cells = cwcomplex.count_cells

    def off_by_one(linkage):
        f = count_cells(linkage)
        return f[:-1] + (f[-1] + 1,)

    monkeypatch.setattr("linkspace.topology.count_cells", off_by_one)
    assert main(["classify", "3,5,7,2,9,4,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violated: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_heptagon_complex_wires_each_grade_once(wirings, capsys):
    assert main(["complex", "3,5,7,2,9,4,1"]) == 0
    assert len(wirings) == 4  # n - 3 grades above the vertices
    wirings.clear()
    complex_ = build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))
    assert len(wirings) == 1  # every command reads the 1-skeleton, so it is wired at build
    edges = complex_.edges
    assert len(wirings) == 1
    assert complex_.boundary[1] is edges
    assert len(wirings) == 4


def test_pentagon_mesh_wires_both_grades(wirings, capsys):
    assert main(["mesh", "1,1,1,1,1"]) == 0
    assert len(wirings) == 2


def test_loading_a_document_wires_each_grade_once(wirings):
    text = complex_to_json(build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1])))
    wirings.clear()
    loaded = complex_from_json(text)
    assert len(wirings) == 4  # every grade above the vertices, to compare it
    assert loaded.edges is loaded.boundary[1]
    assert complex_to_json(loaded) == text
    assert len(wirings) == 4


@pytest.fixture
def collector():
    """Give the cyclic collector back its setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_building_wiring_and_writing_leave_no_cyclic_garbage(representatives, collector):
    # why the walk and the wiring may pause the collector: they build no
    # reference cycle, so a collection during them would free nothing
    linkages = [linkage for _, linkage in representatives]
    linkages.append(make_linkage([3, 5, 7, 2, 9, 4, 1]))
    gc.collect()
    gc.disable()
    for linkage in linkages:
        complex_to_json(build_complex(linkage))  # the writer wires every grade
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_building_and_wiring_pause_the_collector_and_keep_its_setting(
    enabled, monkeypatch, collector
):
    states = []  # the collector's setting at each `_wire` call
    wire = cwcomplex._wire

    def recorded(*args):
        states.append(gc.isenabled())
        return wire(*args)

    monkeypatch.setattr(cwcomplex, "_wire", recorded)
    (gc.enable if enabled else gc.disable)()
    complex_ = build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))
    assert gc.isenabled() is enabled
    complex_.boundary
    assert gc.isenabled() is enabled
    assert states == [False] * 4  # edges at build, then the three grades above


def test_the_collector_comes_back_on_when_wiring_raises(monkeypatch, collector):
    gc.enable()
    complex_ = build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))

    def broken(*args):
        raise RuntimeError("wiring failed")

    monkeypatch.setattr(cwcomplex, "_wire", broken)
    with pytest.raises(RuntimeError, match="wiring failed"):
        build_complex(make_linkage([1, 1, 1, 1, 1]))
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="wiring failed"):
        complex_.boundary
    assert gc.isenabled()


@pytest.mark.parametrize("first", ["edges", "boundary"])
@pytest.mark.parametrize("lengths", [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6]])
def test_a_complex_is_the_same_whichever_rows_are_read_first(first, lengths):
    linkage = make_linkage(lengths)
    complex_ = build_complex(linkage)
    getattr(complex_, first)
    assert complex_.edges is complex_.boundary[1]
    assert complex_ == reference_build_complex(linkage)
    assert complex_ == complex_from_json(complex_to_json(complex_))


@functools.cache
def _document(spec):
    return complex_to_json(build_complex(make_linkage(parse_lengths(spec))))


def _edit(doc, draw):
    """Apply one random edit to a loaded complex document, in place."""
    cells = doc["cells"]
    k = draw(st.integers(0, len(cells) - 1))
    kind = draw(
        st.sampled_from(["delete", "duplicate", "swap", "dim", "label", "face", "length", "type"])
    )
    if kind == "delete":
        del cells[k]
    elif kind == "duplicate":
        cells.insert(k, dict(cells[k]))
    elif kind == "swap":
        j = draw(st.integers(0, len(cells) - 1))
        cells[k], cells[j] = cells[j], cells[k]
    elif kind == "dim":
        cells[k]["dim"] = draw(st.integers(-1, doc["n"]))
    elif kind == "label":
        j = draw(st.integers(0, len(cells) - 1))
        cells[k]["label"] = draw(
            st.sampled_from([cells[j]["label"], cells[k]["label"][::-1], cells[k]["label"][1:]])
        )
    elif kind == "length":
        i = draw(st.integers(0, doc["n"] - 1))
        doc["lengths"][i] = str(draw(st.integers(1, 12)))
    else:
        k = draw(st.sampled_from([k for k, c in enumerate(cells) if c["boundary"]]))
        faces = cells[k]["boundary"]
        i = draw(st.integers(0, len(faces) - 1))
        if kind == "face":
            faces[i] = draw(st.integers(-1, len(cells)))
        else:
            faces[i] = draw(st.sampled_from([True, float(faces[i])]))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([*EXPECTED_F_VECTORS, "1,1,1,1,1,2", "1,2,3,4,5,6"]),
    st.data(),
)
def test_an_edited_document_loads_only_as_the_complex_of_its_lengths(spec, data):
    doc = json.loads(_document(spec))
    _edit(doc, data.draw)
    try:
        loaded = complex_from_json(json.dumps(doc))
    except ValueError:
        return
    assert loaded == build_complex(make_linkage([Fraction(t) for t in doc["lengths"]]))


def test_json_writes_an_empty_face_list_above_dim_0():
    linkage = make_linkage([1, 1, 1, 1, 1])
    vertices = build_complex(linkage).masks_by_dim[0]
    edge = label_masks(canonicalize([{1, 2}, {3}, {4}, {5}]))
    complex_ = CWComplex(linkage, [vertices, [edge]], [[()] * len(vertices), [()]])
    text = complex_to_json(complex_)
    assert text == reference_complex_to_json(complex_)
    assert text.endswith(
        '      "label": "{1,2}{3}{4}{5}",\n      "boundary": []\n    }\n  ]\n}\n'
    )
