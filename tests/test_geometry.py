import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkspace.cwcomplex import ArityMismatch, CWComplex, build_complex
from linkspace.geometry import (
    NotAClosedSurface,
    NotACycle,
    OffHyperplane,
    UnsupportedDimension,
    boundary_cycle,
    perform_surgery,
    permutohedron,
    project_to_3d,
)
from linkspace.linkage import make_linkage
from linkspace.partitions import canonicalize, cell_vertices

from oracles import boundary_labels, common_refinement, ordered_refines


def _dist3(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def test_permutohedron_face_counts():
    poly = permutohedron(4)
    assert [len(fs) for fs in poly.faces_by_dim] == [24, 36, 14, 1]
    segment = permutohedron(2)
    assert [len(fs) for fs in segment.faces_by_dim] == [2, 1]
    hexagon = permutohedron(3)
    assert [len(fs) for fs in hexagon.faces_by_dim] == [6, 6, 1]


def test_permutohedron_5_counts_and_boundary_euler():
    poly = permutohedron(5)
    counts = [len(fs) for fs in poly.faces_by_dim]
    assert counts == [120, 240, 150, 30, 1]
    # boundary of a 4-polytope is a 3-sphere
    assert 120 - 240 + 150 - 30 == 0


def test_permutohedron_dimension_range():
    with pytest.raises(UnsupportedDimension):
        permutohedron(1)
    with pytest.raises(UnsupportedDimension):
        permutohedron(8)


def test_permutohedron_boundary_is_ordered_refinement():
    poly = permutohedron(4)
    for d in range(1, 4):
        below = poly.faces_by_dim[d - 1]
        for face, row in zip(poly.faces_by_dim[d], poly.boundary[d]):
            assert row == tuple(
                j for j, f in enumerate(below) if ordered_refines(f, face)
            )


def test_placing_vertices_builds_no_face_lattice():
    poly = permutohedron(4)
    point = poly.vertex_point((3, 1, 2, 4))
    assert point == (2, 3, 1, 4) and all(type(x) is int for x in point)
    assert "faces_by_dim" not in vars(poly) and "boundary" not in vars(poly)


def test_facet_shapes_of_pi4():
    poly = permutohedron(4)
    shapes = []
    for facet in poly.facets:
        verts = [v for v in poly.vertices if ordered_refines(v, facet)]
        shapes.append(len(verts))
    assert sorted(shapes) == [4] * 6 + [6] * 8
    assert 24 - 36 + 14 == 2  # boundary complex of a 3-polytope


def test_vertex_coordinates():
    poly = permutohedron(4)
    assert poly.vertex_point((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert poly.vertex_point((2, 1, 3, 4)) == (2, 1, 3, 4)
    assert poly.vertex_point((3, 1, 2, 4)) == (2, 3, 1, 4)
    for v in poly.vertices:
        perm = tuple(next(iter(p)) for p in v)
        assert sum(poly.vertex_point(perm)) == 10


def test_edges_have_exact_squared_length_two():
    poly = permutohedron(4)
    for edge in poly.edges:
        u, w = [v for v in poly.vertices if ordered_refines(v, edge)]
        pu = poly.vertex_point(tuple(next(iter(p)) for p in u))
        pw = poly.vertex_point(tuple(next(iter(p)) for p in w))
        assert sum((a - b) ** 2 for a, b in zip(pu, pw)) == 2


def test_ordered_refinement_and_meet():
    p = (frozenset({1}), frozenset({2, 3, 4}))
    q = (frozenset({1, 2}), frozenset({3, 4}))
    fine = (frozenset({1}), frozenset({2}), frozenset({3, 4}))
    assert ordered_refines(fine, p)
    assert ordered_refines(fine, q)
    assert common_refinement(p, q) == fine
    assert common_refinement(p, p) == p
    squares = (frozenset({1, 2}), frozenset({3, 4}))
    crossed = (frozenset({1, 3}), frozenset({2, 4}))
    assert common_refinement(squares, crossed) is None


def test_projection_maps_barycenter_to_origin():
    point = project_to_3d((Fraction(5, 2),) * 4)
    assert max(abs(c) for c in point) < 1e-12


def test_projection_is_an_isometry_on_a_swap():
    a = project_to_3d((1, 2, 3, 4))
    b = project_to_3d((2, 1, 3, 4))
    assert abs(_dist3(a, b) - math.sqrt(2)) < 1e-12


def test_projected_vertices_are_equidistant_from_origin():
    poly = permutohedron(4)
    for v in poly.vertices:
        point = project_to_3d(poly.vertex_point(tuple(next(iter(p)) for p in v)))
        assert abs(_dist3(point, (0, 0, 0)) - math.sqrt(5)) < 1e-12


def test_projection_rejects_off_hyperplane_points():
    with pytest.raises(OffHyperplane):
        project_to_3d((1, 1, 1, 1))
    with pytest.raises(OffHyperplane):
        project_to_3d((1, 2, 3))


def test_boundary_cycle_of_a_square():
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    cell = canonicalize([{1, 2}, {3, 4}, {5}])
    cycle = boundary_cycle(cell, complex_)
    assert [v.element_sequence() for v in cycle] == [
        (1, 2, 3, 4, 5),
        (1, 2, 4, 3, 5),
        (2, 1, 4, 3, 5),
        (2, 1, 3, 4, 5),
    ]


def test_boundary_cycle_of_a_hexagon():
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    cell = canonicalize([{1}, {2, 3, 4}, {5}])
    cycle = boundary_cycle(cell, complex_)
    assert len(cycle) == 6
    assert set(cycle) == set(cell_vertices(cell))
    # consecutive orderings differ by one adjacent transposition
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        su, sw = u.element_sequence(), w.element_sequence()
        assert sorted(su) == sorted(sw)
        diffs = [i for i, (a, b) in enumerate(zip(su, sw)) if a != b]
        assert len(diffs) == 2 and diffs[1] == diffs[0] + 1


def test_boundary_cycle_of_a_diagonal_hexagon():
    eps = Fraction(1, 100)
    linkage = make_linkage([1, 1, eps, eps, 1])
    complex_ = build_complex(linkage)
    cycle = boundary_cycle(canonicalize([{1}, {2}, {3, 4, 5}]), complex_)
    assert len(cycle) == 6


def test_boundary_cycle_input_validation():
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    with pytest.raises(ValueError):
        boundary_cycle(canonicalize([{1}, {2}, {3}, {4, 5}]), complex_)


def test_boundary_cycle_detects_a_corrupted_complex():
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    cell = canonicalize([{1}, {2, 3, 4}, {5}])
    i = complex_.index_of(cell)[1]
    boundary = [list(rows) for rows in complex_.boundary]
    boundary[2][i] = boundary[2][i][1:]  # drop one of the hexagon's six edges
    corrupted = CWComplex(linkage, complex_.cells_by_dim, boundary)
    with pytest.raises(NotACycle):
        boundary_cycle(cell, corrupted)


def test_boundary_cycle_rejects_a_label_that_is_not_a_cell():
    # {3,4,5} is long in the equilateral pentagon
    complex_ = build_complex(make_linkage([1, 1, 1, 1, 1]))
    with pytest.raises(NotACycle):
        boundary_cycle(canonicalize([{1}, {2}, {3, 4, 5}]), complex_)


def test_surgery_requires_pentagons():
    with pytest.raises(ArityMismatch):
        perform_surgery(make_linkage([2, 1, 1, 1]))


def test_sphere_mesh_is_the_whole_permutohedron_boundary(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,3")
    assert mesh.counts() == (24, 36, 14)
    assert all(f.provenance == "permutohedron" for f in mesh.faces)
    poly = permutohedron(4)
    facet_labels = {
        str(canonicalize(facet + (frozenset({5}),))) for facet in poly.facets
    }
    assert {str(f.label) for f in mesh.faces} == facet_labels
    edge_labels = {
        str(canonicalize(edge + (frozenset({5}),))) for edge in poly.edges
    }
    assert {str(e.label) for e in mesh.edges} == edge_labels


def test_equilateral_mesh_counts(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,1")
    assert mesh.counts() == (24, 60, 30)
    by_provenance = {"permutohedron": 0, "diagonal": 0}
    for f in mesh.faces:
        by_provenance[f.provenance] += 1
    assert by_provenance == {"permutohedron": 6, "diagonal": 24}
    assert all(len(f.cycle) == 4 for f in mesh.faces)


def test_two_tori_mesh_pruning_and_diagonals(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,eps,eps,1")
    assert mesh.counts() == (24, 42, 18)
    diagonal = [f for f in mesh.faces if f.provenance == "diagonal"]
    assert len(diagonal) == 10
    hexagons = sorted(str(f.label) for f in diagonal if len(f.cycle) == 6)
    assert hexagons == ["{1}{2}{3,4,5}", "{2}{1}{3,4,5}"]
    # exactly the six permutohedron edges whose label has part {1,2} vanish
    poly = permutohedron(4)
    mesh_edge_labels = {str(e.label) for e in mesh.edges}
    missing = [
        edge
        for edge in poly.edges
        if str(canonicalize(edge + (frozenset({5}),))) not in mesh_edge_labels
    ]
    assert len(missing) == 6
    assert all(frozenset({1, 2}) in edge for edge in missing)


def test_mesh_counts_and_provenance_split(meshes):
    # step-2 faces keep a singleton {5} part; step-3 faces do not
    for _, _, mesh in meshes:
        for f in mesh.faces:
            five_part = f.label.part_containing(5)
            if f.provenance == "permutohedron":
                assert five_part == frozenset({5})
            else:
                assert len(five_part) >= 2


def test_mesh_agrees_with_the_complex(meshes):
    for _, linkage, mesh in meshes:
        complex_ = build_complex(linkage)
        assert {f.label for f in mesh.faces} == set(complex_.cells_by_dim[2])
        assert {e.label for e in mesh.edges} == set(complex_.cells_by_dim[1])
        assert {v.label for v in mesh.vertices} == set(complex_.cells_by_dim[0])
        edge_by_pair = {frozenset(e.endpoints): e.label for e in mesh.edges}
        for f in mesh.faces:
            incident = {
                edge_by_pair[frozenset((a, b))]
                for a, b in zip(f.cycle, f.cycle[1:] + f.cycle[:1])
            }
            assert incident == set(boundary_labels(complex_, f.label))
        # the mesh is built from the boundary lists; the labels' own
        # refinements are a second, independent route
        for e in mesh.edges:
            ends = {mesh.vertices[k].label for k in e.endpoints}
            assert ends == set(cell_vertices(e.label))
        for f in mesh.faces:
            corners = {mesh.vertices[k].label for k in f.cycle}
            assert corners == set(cell_vertices(f.label))


def _assert_mesh_is_the_complex_in_order(mesh, complex_):
    # mesh vertex, edge and face k is cell k of grade 0, 1 and 2
    assert [v.label for v in mesh.vertices] == list(complex_.cells_by_dim[0])
    assert [e.label for e in mesh.edges] == list(complex_.cells_by_dim[1])
    assert [f.label for f in mesh.faces] == list(complex_.cells_by_dim[2])
    assert [e.endpoints for e in mesh.edges] == list(complex_.boundary[1])


def test_mesh_indices_are_the_complex_indices(meshes):
    for _, linkage, mesh in meshes:
        _assert_mesh_is_the_complex_in_order(mesh, build_complex(linkage))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=5, max_size=5))
def test_generic_pentagon_mesh_indices_are_the_complex_indices(lengths):
    # an odd total cannot be split in half, so every such vector is generic
    assume(sum(lengths) % 2 == 1 and 2 * max(lengths) < sum(lengths))
    linkage = make_linkage(lengths)
    _assert_mesh_is_the_complex_in_order(perform_surgery(linkage), build_complex(linkage))


def test_surgery_rejects_a_1_cell_on_no_2_cell(monkeypatch):
    # {4,5} is long in 1,1,1,1,3, so this 1-cell of the equilateral pentagon
    # is not in the sphere's complex; added with its two 0-cells, it bounds
    # no 2-cell
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    loose = canonicalize([{1}, {2}, {3}, {4, 5}])
    cells = [list(cs) for cs in complex_.cells_by_dim]
    boundary = [list(rows) for rows in complex_.boundary]
    cells[1].append(loose)
    boundary[1].append(
        tuple(sorted(complex_.index_of(v)[1] for v in cell_vertices(loose)))
    )
    corrupted = CWComplex(linkage, cells, boundary)
    monkeypatch.setattr("linkspace.geometry.build_complex", lambda _: corrupted)
    with pytest.raises(NotAClosedSurface, match=r"\{1\}\{2\}\{3\}\{4,5\}"):
        perform_surgery(linkage)


def test_face_cycle_lengths_match_labels(meshes):
    from math import factorial, prod

    for _, _, mesh in meshes:
        for f in mesh.faces:
            assert len(f.cycle) == prod(factorial(len(p)) for p in f.label.parts)


def test_permutohedron_faces_are_planar(meshes):
    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    for _, _, mesh in meshes:
        for face in mesh.faces:
            if face.provenance != "permutohedron":
                continue
            pts = [mesh.vertices[i].point3 for i in face.cycle]
            base = pts[0]
            normal = cross(
                tuple(a - b for a, b in zip(pts[1], base)),
                tuple(a - b for a, b in zip(pts[2], base)),
            )
            scale = math.sqrt(sum(c * c for c in normal))
            for p in pts[3:]:
                offset = sum(
                    n * (a - b) for n, a, b in zip(normal, p, base)
                )
                assert abs(offset) <= 1e-9 * scale


def test_permutohedron_edges_have_length_sqrt2(meshes):
    for _, _, mesh in meshes:
        for e in mesh.edges:
            if e.label.part_containing(5) != frozenset({5}):
                continue
            u, w = (mesh.vertices[i].point3 for i in e.endpoints)
            assert abs(_dist3(u, w) - math.sqrt(2)) < 1e-9


def test_vertex_positions_are_the_projected_permutohedron_points(meshes):
    poly = permutohedron(4)
    for _, _, mesh in meshes:
        assert [v.permutation for v in mesh.vertices] == sorted(
            v.permutation for v in mesh.vertices
        )
        for v in mesh.vertices:
            assert v.point4 == poly.vertex_point(v.permutation)
            assert v.point3 == project_to_3d(v.point4)


def test_surgery_is_deterministic():
    linkage = make_linkage([2, 2, 1, 1, 3])
    assert perform_surgery(linkage) == perform_surgery(linkage)


def test_face_counts_split_matches_membership_tables(representatives, meshes):
    # step-2 kept facets equal the 'v' count per column of the step-2 rows;
    # step-3 faces equal twice the 'v' row count of the step-3 rows
    from linkspace.cwcomplex import facet_membership_table

    linkages = [l for _, l in representatives]
    table = facet_membership_table(linkages)
    for col, (_, _, mesh) in enumerate(meshes):
        kept = sum(1 for _, values in table.step2 if values[col])
        patched = 2 * sum(1 for _, values in table.step3 if values[col])
        got_kept = sum(1 for f in mesh.faces if f.provenance == "permutohedron")
        got_patched = sum(1 for f in mesh.faces if f.provenance == "diagonal")
        assert (got_kept, got_patched) == (kept, patched)
