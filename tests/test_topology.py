import random
from fractions import Fraction
from itertools import permutations

import pytest

from linkspace.linkage import make_linkage
from linkspace.topology import (
    NotAClosedSurface,
    analyze,
    classify_linkage,
    classify_surface,
)

from oracles import oracle_f_vector

EXPECTED = {
    "1,1,1,1,3": ("sphere", 1, 2, 0),
    "1,1,1,eps,2": ("torus", 1, 0, 1),
    "2,2,1,1,3": ("genus-2 surface", 1, -2, 2),
    "1,1,eps,eps,1": ("2 tori", 2, 0, 1),
    "2,1,1,1,2": ("genus-3 surface", 1, -4, 3),
    "1,1,1,1,1": ("genus-4 surface", 1, -6, 4),
}


def test_the_six_representatives(meshes):
    for rep, _, mesh in meshes:
        report = analyze(mesh)
        name, components, chi, genus = EXPECTED[rep.spec]
        assert report.classification == name
        assert report.component_count == components
        assert report.euler_characteristic == chi
        for c in report.components:
            assert c.orientable is True
            assert c.genus == genus
            assert c.euler_characteristic == 2 - 2 * genus


def test_two_tori_components_are_isomorphic(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,eps,eps,1")
    report = analyze(mesh)
    assert report.component_count == 2
    a, b = report.components
    assert (a.vertex_count, a.edge_count, a.face_count) == (12, 21, 9)
    assert (b.vertex_count, b.edge_count, b.face_count) == (12, 21, 9)


def test_classify_linkage_matches_analyze(meshes):
    for rep, linkage, mesh in meshes:
        assert classify_linkage(linkage) == analyze(mesh)


def _grid_faces(rows, cols, twist):
    """Quad grid on a torus (twist=False) or Klein bottle (twist=True):
    wrap i mod rows always; crossing the top edge maps i to -i when twisted."""

    def vid(i, j):
        if j == cols:
            i, j = (-i) % rows if twist else i % rows, 0
        return (i % rows) * cols + j

    faces = []
    for i in range(rows):
        for j in range(cols):
            faces.append(
                (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
            )
    edges = set()
    for cycle in faces:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            edges.add((min(a, b), max(a, b)))
    return rows * cols, sorted(edges), faces


def test_torus_grid_classifies_as_torus():
    v, e, f = _grid_faces(3, 3, twist=False)
    report = classify_surface(v, e, f)
    assert report.classification == "torus"
    assert report.euler_characteristic == 0
    assert report.components[0].orientable is True


def test_klein_grid_is_reported_non_orientable():
    v, e, f = _grid_faces(3, 3, twist=True)
    report = classify_surface(v, e, f)
    assert report.classification == "non-orientable (chi=0)"
    assert report.components[0].orientable is False
    assert report.components[0].genus is None


def test_edge_endpoint_order_does_not_change_the_report():
    # a face's direction along an edge is taken against the edge as stored
    for twist in (False, True):
        v, e, f = _grid_faces(3, 3, twist=twist)
        flipped = [(b, a) for a, b in e]
        assert classify_surface(v, flipped, f) == classify_surface(v, e, f)


def test_open_surface_raises_not_closed():
    v, e, f = _grid_faces(3, 3, twist=False)
    with pytest.raises(NotAClosedSurface):
        classify_surface(v, e, f[:-1])


def test_unknown_segment_raises_not_closed():
    v, e, f = _grid_faces(3, 3, twist=False)
    with pytest.raises(NotAClosedSurface):
        classify_surface(v, e[:-1], f)


def test_result_is_independent_of_face_order_and_directions(meshes):
    rng = random.Random(7)
    for rep, _, mesh in meshes:
        edges = list(mesh.complex.edges)
        faces = [list(cycle) for cycle in mesh.cycles]
        baseline = classify_surface(len(mesh.points), edges, faces)
        for _ in range(3):
            shuffled = [
                cycle[::-1] if rng.random() < 0.5 else list(cycle)
                for cycle in faces
            ]
            rng.shuffle(shuffled)
            report = classify_surface(len(mesh.points), edges, shuffled)
            assert report.classification == baseline.classification
            assert report.euler_characteristic == baseline.euler_characteristic


def test_quadrilateral_single_circle():
    report = classify_linkage(make_linkage([2, 1, 1, 1]))
    assert report.classification == "circle"
    assert report.component_count == 1
    assert report.f_vector == (6, 6)
    assert report.components[0].vertex_count == 6
    assert report.components[0].edge_count == 6


def test_quadrilateral_two_circles():
    # three long bars and one short one: the elbow cannot flip over
    report = classify_linkage(make_linkage([2, 2, 2, 1]))
    assert report.classification == "2 circles"
    assert report.component_count == 2
    assert all(c.vertex_count == c.edge_count == 3 for c in report.components)


def test_quadrilateral_complex_with_a_vertex_off_two_edges_raises(monkeypatch):
    # {1,2} is long in 2,1,1,1; the 1-cell {1,2}{3}{4} added between its two
    # 0-cells gives both of them degree 3
    from linkspace.cwcomplex import CWComplex, build_complex
    from linkspace.partitions import canonicalize, cell_vertices
    from oracles import index_of, label_masks

    linkage = make_linkage([2, 1, 1, 1])
    complex_ = build_complex(linkage)
    chord = canonicalize([{1, 2}, {3}, {4}])
    cells = [list(cs) for cs in complex_.masks_by_dim]
    boundary = [list(rows) for rows in complex_.boundary]
    cells[1].append(label_masks(chord))
    boundary[1].append(
        tuple(sorted(index_of(complex_, v)[1] for v in cell_vertices(chord)))
    )
    corrupted = CWComplex(linkage, cells, boundary)
    monkeypatch.setattr("linkspace.topology.build_complex", lambda _: corrupted)
    with pytest.raises(NotAClosedSurface, match="not a union of circles"):
        classify_linkage(linkage)


def test_hexagonal_linkage_reports_f_vector_only():
    report = classify_linkage(make_linkage([1, 1, 1, 1, 1, 2]))
    assert report.classification == "unclassified (dim >= 3)"
    assert report.f_vector == (120, 360, 330, 90)
    assert report.euler_characteristic == 0
    assert report.component_count == 1


@pytest.mark.parametrize(
    "lengths, f_vector",
    [
        ([1, 1, 1, 1, 1, 1, 1, 2], (5040, 20160, 31920, 24360, 8610, 1050)),
        ([5, 9, 3, 12, 7, 1, 4, 2], (5040, 20160, 30840, 22200, 7314, 834)),
    ],
)
def test_octagon_f_vector_matches_the_count_of_short_set_partitions(lengths, f_vector):
    # classify reads only the counts and the 1-skeleton, so n=8 is cheap here
    report = classify_linkage(make_linkage(lengths))
    assert report.f_vector == oracle_f_vector(lengths) == f_vector
    assert report.euler_characteristic == 0
    assert report.component_count == 1


def test_genus_is_invariant_under_reordering_the_bars():
    for lengths in sorted(set(permutations((2, 2, 1, 1, 3)))):
        report = classify_linkage(make_linkage(list(lengths)))
        assert report.classification == "genus-2 surface", lengths


def test_mesh_chi_matches_complex_chi(meshes):
    from linkspace.cwcomplex import build_complex, euler_characteristic

    for _, linkage, mesh in meshes:
        assert analyze(mesh).euler_characteristic == euler_characteristic(
            build_complex(linkage)
        )


def test_verify_guard_epsilon_too_large():
    # at eps=1/2 the two-tori representative degenerates
    from linkspace.linkage import NonGeneric

    eps = Fraction(1, 2)
    with pytest.raises(NonGeneric):
        make_linkage([1, 1, eps, eps, 1])
