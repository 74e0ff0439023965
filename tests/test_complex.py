import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkspace.cwcomplex import (
    ArityMismatch,
    CWComplex,
    build_complex,
    euler_characteristic,
    facet_membership_table,
)
from linkspace.export import complex_from_json, complex_to_json
from linkspace.linkage import is_admissible_partition, make_linkage
from linkspace.partitions import canonicalize, cell_vertices, one_step_refinements

from oracles import (
    boundary_labels,
    coarsenings,
    oracle_cells,
    reference_build_complex,
    reference_complex_to_json,
    rotation_class,
)

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
                if complex_.index_of(cell)[1] in complex_.boundary[2][i]
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
        assert complex_.dim == linkage.n - 3
        assert len(complex_.cells_by_dim[0]) == 24
        assert all(
            cell.num_parts == linkage.n - d
            for d, cells in enumerate(complex_.cells_by_dim)
            for cell in cells
        )


def test_membership_table_spot_values(representatives):
    linkages = [l for _, l in representatives]
    table = facet_membership_table(linkages)
    step2 = {row: values for row, values in table.step2}
    step3 = {pair[0]: values for pair, values in table.step3}
    # columns are in representative order: 11113, 111e2, 22113, 11ee1, 21112, 11111
    assert step2["{1}{2,3,4}{5}"][5] is False
    assert step2["{4}{1,2,3}{5}"] == (True, False, False, False, False, False)
    assert step3["{1}{2}{3,4,5}"] == (False, False, False, True, False, False)
    assert step3["{2,4}{1}{3,5}"][2] is True
    assert step3["{2,3}{1}{4,5}"] == (False, True, True, True, True, True)


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


def test_json_writes_an_empty_face_list_above_dim_0():
    linkage = make_linkage([1, 1, 1, 1, 1])
    vertices = build_complex(linkage).cells_by_dim[0]
    edge = canonicalize([{1, 2}, {3}, {4}, {5}])
    complex_ = CWComplex(linkage, [vertices, [edge]], [[()] * len(vertices), [()]])
    text = complex_to_json(complex_)
    assert text == reference_complex_to_json(complex_)
    assert text.endswith(
        '      "label": "{1,2}{3}{4}{5}",\n      "boundary": []\n    }\n  ]\n}\n'
    )
