import contextlib
import functools
import gc
import hashlib
import io
import json
import sys
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkspace import cwcomplex, topology
from linkspace.cli import main
from linkspace.cwcomplex import CWComplex, build_complex
from linkspace.export import (
    REPRESENTATIVES,
    STEP2_ROWS,
    STEP3_ROWS,
    complex_from_json,
    complex_json_pieces,
    complex_to_json,
)
from linkspace.geometry import boundary_cycle
from linkspace.linkage import (
    is_admissible_partition,
    make_linkage,
    mask_texts,
    parse_lengths,
)
from linkspace.partitions import (
    CyclicPartition,
    canonicalize,
    cell_vertices,
    one_step_refinements,
    parse_partition,
)

from oracles import (
    boundary_labels,
    cells_by_dim,
    coarsenings,
    complex_dim,
    euler_characteristic,
    fraction_lengths,
    index_of,
    label_masks,
    membership,
    oracle_cells,
    oracle_f_vector,
    reference_build_complex,
    reference_complex_to_json,
    rotation_class,
)
from test_golden import GOLDEN, pentagon_chambers

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
        expected = oracle_cells(fraction_lengths(linkage))
        for d, cells in enumerate(cells_by_dim(complex_)):
            got = {rotation_class(c.parts) for c in cells}
            assert got == expected[d]


def test_oracle_equivalence_for_a_hexagon_linkage():
    linkage = make_linkage([1, 1, 1, 1, 1, 2])
    complex_ = build_complex(linkage)
    expected = oracle_cells(fraction_lengths(linkage))
    for d, cells in enumerate(cells_by_dim(complex_)):
        assert {rotation_class(c.parts) for c in cells} == expected[d]


def test_every_stored_cell_is_admissible(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        for cells in cells_by_dim(complex_):
            for cell in cells:
                assert is_admissible_partition(linkage, cell.parts)


def test_boundary_lists_are_exactly_the_one_step_refinements(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        for d in range(1, len(complex_.labels_by_dim)):
            for cell in cells_by_dim(complex_)[d]:
                got = set(boundary_labels(complex_, cell))
                assert got == set(one_step_refinements(cell))


def test_incidence_agrees_with_admissible_coarsenings(representatives):
    # cofaces of a 1-cell are its admissible adjacent merges
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        for cell in cells_by_dim(complex_)[1]:
            via_merge = {
                c
                for c in coarsenings(cell)
                if is_admissible_partition(linkage, c.parts)
            }
            via_boundary = {
                face
                for i, face in enumerate(cells_by_dim(complex_)[2])
                if index_of(complex_, cell)[1] in complex_.boundary[2][i]
            }
            assert via_merge == via_boundary


def test_every_edge_lies_in_exactly_two_faces(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        counts = [0] * len(complex_.labels_by_dim[1])
        for row in complex_.boundary[2]:
            for j in row:
                counts[j] += 1
        assert all(c == 2 for c in counts)


def test_vertex_degrees_are_at_least_three(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        degree = [0] * len(complex_.labels_by_dim[0])
        for row in complex_.boundary[1]:
            for j in row:
                degree[j] += 1
        assert min(degree) >= 3


def _chi(lengths):
    return euler_characteristic(build_complex(make_linkage(lengths)).f_vector())


def test_euler_characteristic_examples():
    assert _chi([1, 1, 1, 1, 3]) == 2
    assert _chi([1, 1, 1, 1, 1]) == -6
    assert _chi([1, 1, Fraction(1, 100), Fraction(1, 100), 1]) == 0


def test_euler_characteristic_is_even_for_pentagons(representatives):
    for _, linkage in representatives:
        assert euler_characteristic(build_complex(linkage).f_vector()) % 2 == 0


def test_f_vector_invariant_under_length_preserving_relabeling():
    linkage = make_linkage([2, 2, 1, 1, 3])
    complex_ = build_complex(linkage)
    for swap in ({1: 2, 2: 1}, {3: 4, 4: 3}):
        relabel = lambda x: swap.get(x, x)
        for cells in cells_by_dim(complex_):
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
        for cells in cells_by_dim(a):
            labels = [str(c) for c in cells]
            assert labels == sorted(labels)


def test_a_complex_repr_gives_its_n_and_f_vector():
    # a NamedTuple's own repr would print every label; the record's
    # immutability is checked with the other records' in test_linkage
    assert repr(build_complex(make_linkage([1, 1, 1, 1, 1]))) == "CWComplex(n=5, f=(24, 60, 30))"
    assert repr(build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))) == (
        "CWComplex(n=7, f=(720, 2400, 2880, 1440, 242))"
    )


@pytest.mark.parametrize("spec", ["1,1,1,1,1", "1,2,3,4,5,6"])
def test_a_loaded_complex_equals_the_built_one_and_hashes_alike(spec):
    built = build_complex(make_linkage(parse_lengths(spec)))
    loaded = complex_from_json(complex_to_json(built))
    assert loaded == built and loaded is not built
    assert hash(loaded) == hash(built)


def test_labels_are_the_text_of_the_cells(representatives):
    # the label column, written by the walk and cut by the part columns,
    # against the text of its labels as the checking constructor parses them:
    # every label is in canonical form
    linkages = [linkage for _, linkage in representatives] + [make_linkage([1, 2, 3, 4, 5, 6])]
    for linkage in linkages:
        complex_ = build_complex(linkage)
        for d, cells in enumerate(cells_by_dim(complex_)):
            assert complex_.labels_by_dim[d] == tuple(str(c) for c in cells)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_table_label_is_the_text_of_its_masks(n):
    # the cut reads the part columns and keeps the text: each label, parsed,
    # must give its cell's masks in the columns
    labels, _, columns = cwcomplex._table(n)
    for words, parts in zip(labels, columns, strict=True):
        assert [label_masks(parse_partition(w)) for w in words] == list(zip(*parts))


@pytest.mark.parametrize("lengths", [[1, 1, 1, 1, 1, 1, 1, 6], [5, 9, 3, 12, 7, 1, 4, 2]])
def test_every_walked_octagon_label_is_the_text_of_its_masks(lengths):
    # n = 8 has no table: its labels come from the walk alone.  Each parses
    # into n - d short parts in grade d that partition the bars, n's part
    # last.  Parts are read through this test's own table of part texts,
    # ascending with no repeat, so a label that parses is the text of its
    # masks; a CyclicPartition per label would take seconds here
    linkage = make_linkage(lengths)
    complex_ = build_complex(linkage)
    mask_of = {",".join(str(i + 1) for i in range(8) if m >> i & 1): m for m in range(1, 256)}
    for d, labels in enumerate(complex_.labels_by_dim):
        for label in labels:
            assert label[0] + label[-1] == "{}", label
            masks = [mask_of[part] for part in label[1:-1].split("}{")]
            assert len(masks) == 8 - d and all(map(linkage.short.__getitem__, masks)), label
            # union and sum agree: disjoint parts, covering the 8 bars
            assert functools.reduce(int.__or__, masks) == sum(masks) == 0xFF, label
            assert masks[-1] & 0x80, label


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
        assert len(cells_by_dim(complex_)[0]) == 24
        assert all(
            cell.num_parts == linkage.n - d
            for d, cells in enumerate(cells_by_dim(complex_))
            for cell in cells
        )


def test_membership_table_spot_values(representatives):
    linkages = [l for _, l in representatives]
    step2 = dict(zip(STEP2_ROWS, membership(linkages, STEP2_ROWS)))
    firsts = [a for a, _ in STEP3_ROWS]
    step3 = dict(zip(firsts, membership(linkages, firsts)))
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


def test_a_row_is_in_the_cut_iff_every_part_is_short():
    # `tables` reads a row's membership in each pentagon's cut; the row's
    # part masks against the short-subset table are a second route, and
    # both labels of a step-3 row are kept or dropped together
    rows = [*STEP2_ROWS, *(row for pair in STEP3_ROWS for row in pair)]
    linkages = list(pentagon_chambers())
    assert len(linkages) == 76
    got = dict(zip(rows, membership(linkages, rows)))
    for row in rows:
        assert got[row] == tuple(all(l.short[m] for m in _masks(row)) for l in linkages), row
    for a, b in STEP3_ROWS:
        assert got[a] == got[b], a


def test_cell_vertices_of_cells_are_complex_vertices(representatives):
    for _, linkage in representatives:
        complex_ = build_complex(linkage)
        vertex_labels = set(cells_by_dim(complex_)[0])
        for cells in cells_by_dim(complex_)[1:]:
            for cell in cells:
                assert set(cell_vertices(cell)) <= vertex_labels


def test_pentagon_table_is_the_permutohedron_and_its_diagonals():
    labels, boundary, columns = cwcomplex._table(5)
    assert [len(words) for words in labels] == [len(rows) for rows in boundary] == [24, 60, 50]
    assert [len(column) for parts in columns for column in parts] == [24] * 5 + [60] * 4 + [50] * 3
    texts = mask_texts(5)
    faces = ["".join(texts[m] for m in cell) for cell in zip(*columns[2])]
    assert sorted(faces) == sorted([*STEP2_ROWS, *(row for pair in STEP3_ROWS for row in pair)])
    assert list(labels[2]) == faces
    # a 1-cell whose part holding 5 is {5} alone is a permutohedron edge
    five = 1 << 4
    assert sum(m == five for m in columns[1][-1]) == 36
    assert sum(m != five for m in columns[1][-1]) == 24
    assert sum(word.endswith("}{5}") for word in labels[1]) == 36


def test_wiring_refuses_a_short_merge_that_is_no_cell():
    # the n = 5 table's 1-cells against its 2-cells, with and without the
    # first 2-cell: each of that cell's faces merges to a cell that is gone
    _, boundary, columns = cwcomplex._table(5)
    is_short = cwcomplex._short_bytes((True,) * 31 + (False,))
    assert cwcomplex._wire(is_short, columns[1], columns[2]) == boundary[2]
    dropped = tuple(column[1:] for column in columns[2])
    with pytest.raises(KeyError):
        cwcomplex._wire(is_short, columns[1], dropped)


def _walked(linkage):
    """The complex walked over the linkage's own short-subset table, recorded
    as `build_complex` records it, in tuples."""
    labels, boundary, _ = cwcomplex._walk(linkage.n, linkage.short)
    return CWComplex(linkage, labels, boundary)


def test_a_pentagon_complex_is_the_walk_on_its_own_short_table(representatives):
    # the table's restriction against the walk over each chamber's own table
    linkages = [linkage for _, linkage in representatives] + list(pentagon_chambers())
    for linkage in linkages:
        assert build_complex(linkage) == _walked(linkage), linkage.spec()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 7).flatmap(
        lambda n: st.lists(st.integers(min_value=1, max_value=12), min_size=n, max_size=n)
    )
)
def test_the_cut_is_the_walk_and_has_the_counted_cells_and_betti_sum(lengths):
    # every complex for n <= 7 is cut from its table: against the walk over
    # the linkage's own short table, the f-vector against count_cells' DP,
    # and the Euler characteristic against the Farber-Schuetz Betti numbers
    assume(sum(lengths) % 2 == 1 and 2 * max(lengths) < sum(lengths))
    linkage = make_linkage(lengths)
    complex_ = build_complex(linkage)
    assert complex_ == _walked(linkage)
    f = complex_.f_vector()
    assert f == cwcomplex.count_cells(linkage)
    betti = topology.betti_numbers(linkage)
    assert sum((-1) ** d * c for d, c in enumerate(f)) == sum(
        (-1) ** k * b for k, b in enumerate(betti)
    )


def _stirling2(n, m):
    """The number of partitions of n elements into m nonempty sets."""
    if n == m:
        return 1
    if m == 0 or m > n:
        return 0
    return m * _stirling2(n - 1, m) + _stirling2(n - 1, m - 1)


@pytest.mark.parametrize(
    "n, f",
    [
        (4, (6, 12)),
        (5, (24, 60, 50)),
        (6, (120, 360, 390, 180)),
        (7, (720, 2520, 3360, 2100, 602)),
    ],
)
def test_a_table_holds_every_cyclic_partition_into_at_least_3_parts(n, f):
    # m parts: S(n, m) set partitions, each in (m - 1)! cyclic orders
    labels, boundary, columns = cwcomplex._table(n)
    assert tuple(len(words) for words in labels) == f
    assert f == tuple(_stirling2(n, m) * factorial(m - 1) for m in range(n, 2, -1))
    assert [len(rows) for rows in boundary] == list(f)
    # grade d has n - d parts, so n - d columns, one byte per cell each
    for d, (words, parts) in enumerate(zip(labels, columns, strict=True)):
        assert [len(column) for column in parts] == [len(words)] * (n - d)
        assert {type(column) for column in parts} == {bytes}


def test_an_octagon_is_walked_and_leaves_the_tables_alone():
    cwcomplex._table(7)
    before = cwcomplex._table.cache_info()
    linkage = make_linkage([1, 1, 1, 1, 1, 1, 1, 6])
    complex_ = build_complex(linkage)
    assert cwcomplex._table.cache_info() == before
    assert complex_.f_vector() == cwcomplex.count_cells(linkage)


def _assert_matches_reference(linkage):
    complex_ = build_complex(linkage)
    reference, enumerated = reference_build_complex(linkage)
    assert complex_.labels_by_dim == reference.labels_by_dim
    assert cells_by_dim(complex_) == tuple(map(tuple, enumerated))
    assert complex_.boundary == reference.boundary
    # the builder's labels skip the constructor's check; the checking route
    # must give the same labels
    for cells in cells_by_dim(complex_):
        for cell in cells:
            assert cell == canonicalize(cell.parts)
    text = complex_to_json(complex_)
    assert "".join(complex_json_pieces(complex_)) == text  # what `linkctl complex` streams
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
    inner = [",".join(map(str, b)) for b in bars]
    text = ["{" + t + "}" for t in inner]

    # each label's part masks, read through this test's own part texts
    mask_of = {t: m for m, t in enumerate(inner)}
    layers = [
        [[mask_of[part] for part in label[1:-1].split("}{")] for label in labels]
        for labels in complex_.labels_by_dim
    ]
    boundary = complex_.boundary
    for layer, words in zip(layers, complex_.labels_by_dim, strict=True):
        labels = ["".join([text[m] for m in parts]) for parts in layer]
        assert labels == list(words)
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
    canonicalizing a label, and the part admissibility predicates, under
    every name a linkspace module holds them by."""

    def refuse(*args):
        raise AssertionError("the label layer was reached")

    monkeypatch.setattr(CyclicPartition, "__init__", refuse)
    names = ("parse_partition", "canonicalize", "is_admissible_part", "is_admissible_partition")
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "linkspace"]
    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


#: A 2-cell of the equilateral pentagon, built before `no_labels` refuses labels.
_FACE = canonicalize([{1}, {2, 3}, {4, 5}])


def test_no_labels_refuses_the_label_layer(no_labels):
    with pytest.raises(AssertionError):
        CyclicPartition((frozenset({1}), frozenset({2}), frozenset({3})))
    # the tests' parsed view, on text no other test parses, so not cached
    with pytest.raises(AssertionError):
        cells_by_dim(CWComplex(None, (("{1}{2}{3}",),), ((),)))
    # a face's cycle, built as labels from its formula
    with pytest.raises(AssertionError):
        boundary_cycle(_FACE, build_complex(make_linkage([1, 1, 1, 1, 1])))


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_every_golden_command_builds_no_label(no_labels, argv, digest):
    # `tables` looks its row texts up in six cuts of the n = 5 table;
    # `verify`, the meshes and the documents read masks and the walk's label text
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_heptagon_classify_and_complex_build_no_label(no_labels, capsys):
    # counts, incidence, export and load read the cells' masks and label text
    spec = "3,5,7,2,9,4,1"
    assert main(["classify", spec, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["f_vector"] == [720, 2400, 2880, 1440, 242]
    assert main(["complex", spec]) == 0
    text = capsys.readouterr().out
    assert complex_to_json(complex_from_json(text)) == text


@pytest.mark.parametrize("spec", list(EXPECTED_F_VECTORS))
def test_pentagon_classify_and_mesh_build_no_label(no_labels, capsys, spec):
    # the surgery, its classification and the mesh writers read masks, the
    # walk's label text and indices
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

    def counted(is_short, faces, cofaces):
        calls.append(len(cofaces[0]))  # a part column has one entry per coface
        return wire(is_short, faces, cofaces)

    monkeypatch.setattr(cwcomplex, "_wire", counted)
    return calls


@pytest.mark.parametrize(
    "spec", ["2,1,1,1", "2,2,2,1", "1,1,1,4,4,4", "3,5,7,2,9,4,1", "5,9,3,12,7,1,4,2"]
)
def test_classify_of_a_non_pentagon_builds_and_wires_nothing(monkeypatch, capsys, spec):
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

    def four_circles(linkage):  # chi is still 0, but 4 does not divide 6 vertices
        return (4, 4)

    for name, miscount, spec in [
        ("count_cells", off_by_one, "3,5,7,2,9,4,1"),
        ("count_cells", off_by_one, "2,2,2,1"),
        ("betti_numbers", four_circles, "2,2,2,1"),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(topology, name, miscount)
            assert main(["classify", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal invariant violated: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_heptagon_complex_wires_each_grade_once(wirings, capsys):
    # the first n = 7 build wires the table's n - 3 grades above the
    # vertices; every later one is cut from the table and wires nothing
    cwcomplex._table.cache_clear()
    complex_ = build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))
    assert wirings == [2520, 3360, 2100, 602]
    assert complex_.edges is complex_.boundary[1]
    complex_to_json(complex_)
    build_complex(make_linkage([1, 1, 1, 1, 1, 1, 5]))
    assert main(["complex", "3,5,7,2,9,4,1"]) == 0
    assert wirings == [2520, 3360, 2100, 602]  # reads, the writer and later builds wire nothing


def test_pentagon_mesh_wires_both_grades(wirings, capsys):
    # the first pentagon wires the table's two grades above the vertices;
    # every later pentagon is cut from the table and wires nothing
    cwcomplex._table.cache_clear()
    assert main(["mesh", "1,1,1,1,1"]) == 0
    assert wirings == [60, 50]
    for argv in (["mesh", "2,2,1,1,3"], ["classify", "1,1,1,eps,2"], ["complex", "2,1,1,1,2"]):
        assert main(argv) == 0
    assert wirings == [60, 50]


def test_loading_a_document_wires_each_grade_once(wirings):
    # the loader builds the complex of its lengths to compare it; once the
    # table exists, that build is a cut and wires nothing
    text = complex_to_json(build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1])))
    wirings.clear()
    loaded = complex_from_json(text)
    assert wirings == []
    assert loaded.edges is loaded.boundary[1]
    assert loaded == build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))
    assert complex_to_json(loaded) == text
    assert wirings == []


@pytest.fixture
def collector():
    """Give the cyclic collector back its setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize(
    "specs",
    [
        [*(rep.spec for rep in REPRESENTATIVES), "3,5,7,2,9,4,1"],
        pytest.param(["1,1,1,1,1,1,1,2"], marks=pytest.mark.slow),  # about 1 s
        pytest.param(["5,9,3,12,7,1,4,2"], marks=pytest.mark.slow),
    ],
    ids=["pentagons, heptagon", "1,1,1,1,1,1,1,2", "5,9,3,12,7,1,4,2"],
)
def test_building_wiring_and_writing_leave_no_cyclic_garbage(specs, collector):
    # why the walk and the wiring may pause the collector: they build no
    # reference cycle, so a collection during them would free nothing
    linkages = [make_linkage(parse_lengths(spec)) for spec in specs]
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
    # an n = 7 build reaches `_wire` through the table's build
    cwcomplex._table.cache_clear()
    (gc.enable if enabled else gc.disable)()
    build_complex(make_linkage([3, 5, 7, 2, 9, 4, 1]))
    assert gc.isenabled() is enabled
    assert states == [False] * 4  # every grade above the vertices, in one pause


def test_the_collector_comes_back_on_when_wiring_raises(monkeypatch, collector):
    def broken(*args):
        raise RuntimeError("wiring failed")

    monkeypatch.setattr(cwcomplex, "_wire", broken)
    # n <= 7 reaches `_wire` only through the table's build, and a build
    # that raised leaves no table behind for the next call
    cwcomplex._table.cache_clear()
    for lengths in ([1, 1, 1, 1, 1], [3, 5, 7, 2, 9, 4, 1]):
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(RuntimeError, match="wiring failed"):
                build_complex(make_linkage(lengths))
            assert gc.isenabled() is enabled
            assert cwcomplex._table.cache_info().currsize == 0


@pytest.mark.parametrize("first", ["edges", "boundary"])
@pytest.mark.parametrize("lengths", [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5, 6]])
def test_a_complex_is_the_same_whichever_rows_are_read_first(first, lengths):
    linkage = make_linkage(lengths)
    complex_ = build_complex(linkage)
    getattr(complex_, first)
    assert complex_.edges is complex_.boundary[1]
    assert complex_ == reference_build_complex(linkage)[0]
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


def _empty_top_grade(labels, boundary):
    labels[2] = boundary[2] = ()


def _a_face_on_a_vertex(labels, boundary):
    boundary[0] = ((11,), *boundary[0][1:])


def _one_face_on_an_edge(labels, boundary):
    boundary[1] = ((11,), *boundary[1][1:])


def _three_faces_on_an_edge(labels, boundary):
    boundary[1] = ((0, 1, 11), *boundary[1][1:])


@pytest.mark.parametrize(
    "edit, d",
    [
        (_empty_top_grade, 2),
        (_a_face_on_a_vertex, 0),
        (_one_face_on_an_edge, 1),
        (_three_faces_on_an_edge, 1),
    ],
    ids=[
        "a grade with no cells",
        "a 0-cell with a face",
        "a 1-cell with one face",
        "a 1-cell with three faces",
    ],
)
def test_json_refuses_a_grade_that_build_complex_does_not_build(edit, d):
    # the record form follows from the dimension: unguarded, a one-face row
    # (11,) above dim 1 would be written as the join of the text "11",
    # 1,\n 1, and an edge's record is read from its first two faces alone
    linkage = make_linkage([1, 1, 1, 1, 1])
    built = build_complex(linkage)
    labels, boundary = list(built.labels_by_dim), list(built.boundary)
    edit(labels, boundary)
    message = f"^the {d}-cells are not a grade that build_complex builds$"
    with pytest.raises(ValueError, match=message):
        complex_to_json(CWComplex(linkage, tuple(labels), tuple(boundary)))


def test_a_grade_of_one_edge_is_written_as_json_dumps_writes_it():
    # itemgetter of one index gives that item, not a tuple of one: the edge
    # grade's face columns must not be read that way.  The edge's vertices,
    # 10 and 20, have two-digit texts, so such a read cannot pass unseen.
    built = build_complex(make_linkage([1, 1, 1, 1, 1]))
    one_edge = CWComplex(
        built.linkage,
        (built.labels_by_dim[0], built.labels_by_dim[1][20:21]),
        (built.boundary[0], built.boundary[1][20:21]),
    )
    assert one_edge.edges == ((10, 20),)
    assert complex_to_json(one_edge) == reference_complex_to_json(one_edge)
