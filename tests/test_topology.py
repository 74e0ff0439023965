import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkspace.cli import main
from linkspace.cwcomplex import ArityMismatch, CWComplex, build_complex, count_cells
from linkspace.geometry import SurfaceMesh, perform_surgery
from linkspace.linkage import make_linkage
from linkspace.topology import (
    ComponentReport,
    NotAClosedSurface,
    analyze,
    betti_numbers,
    classify_linkage,
)

from oracles import (
    classify_surface,
    euler_characteristic,
    oracle_betti_numbers,
    oracle_component_count,
    oracle_components,
    oracle_f_vector,
)
from test_golden import pentagon_chambers

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


def test_analyze_agrees_with_the_mesh_route(representatives):
    # the complex's face rows and signs against the mesh's vertex cycles,
    # over the six representatives and every labelled chamber; the chambers
    # hold every generic pentagon, so every one of them is orientable
    for linkage in [l for _, l in representatives] + list(pentagon_chambers()):
        mesh = perform_surgery(linkage)
        report = analyze(mesh)
        assert report == classify_surface(len(mesh.points), mesh.complex.edges, mesh.cycles)
        assert all(c.orientable for c in report.components), linkage.spec()


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


def _mesh(v, e, f):
    """The surface of `v` vertices, edges `e` and face cycles `f` (as
    `_grid_faces` gives them) as a SurfaceMesh on a hand-built complex, with
    no linkage, which `analyze` does not read: its 2-cell rows list each
    face's edges ascending, with the face's cycle and its sign along each
    edge, +1 where the cycle walks the edge as stored."""
    edge_id = {ends: i for i, ends in enumerate(e)}
    face_rows, signs = [], []
    for cycle in f:
        walked = {
            edge_id[(min(a, b), max(a, b))]: 1 if a < b else -1
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        }
        face_rows.append(tuple(sorted(walked)))
        signs.append(tuple(walked[i] for i in sorted(walked)))
    labels = [[str(k) for k in range(count)] for count in (v, len(e), len(f))]
    complex_ = CWComplex(None, labels, [((),) * v, e, face_rows])
    return SurfaceMesh(complex_, ((0.0, 0.0, 0.0),) * v, tuple(f), tuple(signs))


def test_torus_grid_classifies_as_torus():
    mesh = _mesh(*_grid_faces(3, 3, twist=False))
    report = analyze(mesh)
    assert report.classification == "torus"
    assert report.euler_characteristic == 0
    assert report.components[0].orientable is True
    assert report == classify_surface(*_grid_faces(3, 3, twist=False))


def test_klein_grid_is_reported_non_orientable():
    mesh = _mesh(*_grid_faces(3, 3, twist=True))
    report = analyze(mesh)
    assert report.classification == "non-orientable (chi=0)"
    assert report.components[0].orientable is False
    assert report.components[0].genus is None
    assert report == classify_surface(*_grid_faces(3, 3, twist=True))


def _shifted(faces, k):
    """Each of `faces` (or edges) with its vertex numbers raised by k."""
    return [tuple(v + k for v in cycle) for cycle in faces]


def test_components_are_listed_by_least_vertex():
    # a torus and a Klein bottle side by side: the Klein bottle's faces come
    # first, but its vertices are numbered after the torus's, so the torus
    # is the first component, as the mesh route lists them
    tv, te, tf = _grid_faces(3, 3, twist=False)
    kv, ke, kf = _grid_faces(3, 4, twist=True)
    v, e, f = tv + kv, te + _shifted(ke, tv), _shifted(kf, tv) + tf
    report = analyze(_mesh(v, e, f))
    assert report == classify_surface(v, e, f)
    assert report.components[0] == ComponentReport(9, 18, 9, 0, True, 1)
    assert report.components[1] == ComponentReport(12, 24, 12, 0, False, None)
    assert report.classification == "non-orientable (chi=0) + torus"


def test_a_vertex_on_no_face_is_refused(monkeypatch, capsys):
    # a second copy of 0-cell 0 of the sphere's complex, on no edge: counted
    # as its own component it would make "2 spheres" with chi = 3
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    labels, boundary = [list(ls) for ls in complex_.labels_by_dim], list(complex_.boundary)
    labels[0].append(labels[0][0])
    boundary[0] += ((),)
    corrupted = CWComplex(linkage, labels, boundary)
    monkeypatch.setattr("linkspace.geometry.build_complex", lambda _: corrupted)
    with pytest.raises(NotAClosedSurface, match="vertex 24 lies on no face"):
        analyze(perform_surgery(linkage))
    assert main(["classify", "1,1,1,1,3"]) == 3
    assert "vertex 24 lies on no face" in capsys.readouterr().err


def test_two_surfaces_glued_at_a_vertex_are_refused():
    # two copies of the sphere's mesh: side by side they are two spheres;
    # sharing one vertex they are no closed surface, and counted as one
    # component through it they would make a "genus--1 surface"
    mesh = perform_surgery(make_linkage([1, 1, 1, 1, 3]))
    v, e, f = len(mesh.points), list(mesh.complex.edges), list(mesh.cycles)
    apart = _mesh(2 * v, e + _shifted(e, v), f + _shifted(f, v))
    assert analyze(apart).classification == "2 spheres"
    glued = _mesh(2 * v - 1, e + _shifted(e, v - 1), f + _shifted(f, v - 1))
    with pytest.raises(NotAClosedSurface, match=f"vertex {v - 1} lies on the faces of two"):
        analyze(glued)


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


def _generic_integer_quadrilaterals(top: int):
    """Every vector of four integer lengths in 1..top with each bar shorter
    than the other three together and no subset at half the total."""
    for lengths in product(range(1, top + 1), repeat=4):
        total = sum(lengths)
        halves = {2 * sum(part) for k in range(5) for part in combinations(lengths, k)}
        if 2 * max(lengths) < total and total not in halves:
            yield list(lengths)


def test_every_generic_integer_quadrilateral_is_the_circles_of_its_complex():
    # classify reads a quadrilateral's circles from the short-subset table;
    # the built complex must be those circles: every vertex on two edges,
    # as many components, and the reported vertices and edges in each
    seen = 0
    for lengths in _generic_integer_quadrilaterals(10):
        linkage = make_linkage(lengths)
        complex_ = build_complex(linkage)
        vertices, edges = len(complex_.labels_by_dim[0]), complex_.edges
        assert Counter(v for ends in edges for v in ends) == dict.fromkeys(range(vertices), 2)
        root = oracle_components(vertices, edges)
        per_v, per_e = Counter(root), Counter(root[a] for a, _ in edges)
        circles = sorted((per_v[r], per_e[r]) for r in per_v)
        report = classify_linkage(linkage)
        assert report.component_count == len(circles), lengths
        assert sorted((c.vertex_count, c.edge_count) for c in report.components) == circles
        assert report.f_vector == complex_.f_vector()
        seen += 1
    assert seen == 6960


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
    # classify counts the cells from the short-subset table and builds no
    # complex, so n=8 is cheap here
    report = classify_linkage(make_linkage(lengths))
    assert report.f_vector == oracle_f_vector(lengths) == f_vector
    assert report.euler_characteristic == 0
    assert report.component_count == 1


def _assert_counts_match_the_complex(lengths):
    linkage = make_linkage(lengths)
    complex_ = build_complex(linkage)
    report = classify_linkage(linkage)
    assert count_cells(linkage) == report.f_vector == complex_.f_vector()
    assert report.f_vector == oracle_f_vector(lengths)
    assert betti_numbers(linkage) == oracle_betti_numbers(lengths)
    components = oracle_component_count(len(complex_.labels_by_dim[0]), complex_.edges)
    assert report.component_count == components
    return report


@settings(max_examples=25, deadline=None)
@given(
    st.integers(6, 7).flatmap(
        lambda n: st.lists(st.integers(min_value=1, max_value=12), min_size=n, max_size=n)
    )
)
def test_generic_integer_linkages_count_like_their_complex(lengths):
    # an odd total cannot be split in half, so every such vector is generic
    assume(sum(lengths) % 2 == 1 and 2 * max(lengths) < sum(lengths))
    _assert_counts_match_the_complex(lengths)


@pytest.mark.parametrize(
    "lengths, f_vector",
    [
        ([1, 1, 1, 4, 4, 4], (120, 288, 222, 54)),
        ([1, 1, 1, 1, 5, 5, 5], (720, 2160, 2328, 1050, 162)),
    ],
)
def test_disconnected_spaces_count_like_their_complex(lengths, f_vector):
    report = _assert_counts_match_the_complex(lengths)
    assert report.f_vector == f_vector
    assert report.component_count == 2


@pytest.mark.parametrize("lengths", [[1, 1, 1], [1] * 9])
def test_classify_refuses_a_bar_count_outside_4_to_8(lengths):
    with pytest.raises(ArityMismatch):
        classify_linkage(make_linkage(lengths))


def test_genus_is_invariant_under_reordering_the_bars():
    for lengths in sorted(set(permutations((2, 2, 1, 1, 3)))):
        report = classify_linkage(make_linkage(list(lengths)))
        assert report.classification == "genus-2 surface", lengths


def test_mesh_chi_matches_complex_chi(meshes):
    for _, linkage, mesh in meshes:
        chi = euler_characteristic(build_complex(linkage).f_vector())
        assert analyze(mesh).euler_characteristic == chi


def test_verify_guard_epsilon_too_large():
    # at eps=1/2 the two-tori representative degenerates
    from linkspace.linkage import NonGeneric

    eps = Fraction(1, 2)
    with pytest.raises(NonGeneric):
        make_linkage([1, 1, eps, eps, 1])
