import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkspace import cli, export, geometry, topology
from linkspace.cli import main
from linkspace.cwcomplex import ArityMismatch, CWComplex, build_complex, count_cells
from linkspace.export import export_mesh
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
    fraction_lengths,
    oracle_betti_numbers,
    oracle_component_count,
    oracle_components,
    oracle_f_vector,
)
from test_golden import (
    OCTAGON_DIGESTS,
    PENTAGON_REQUESTS,
    _stdout,
    generic_integer_pentagons,
    pentagon_chambers,
)

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


@pytest.mark.parametrize(
    "top, count",
    [(None, 6 + 76), pytest.param(7, 10172, marks=pytest.mark.slow)],  # 10,172 in about 4 s
    ids=["representatives and chambers", "generic integer lengths 1-7"],
)
def test_analyze_agrees_with_the_mesh_route(top, count, representatives):
    # the complex's face rows and the mesh's cycles against the cycles
    # alone, each face's edges looked up by vertex pair, over the six
    # representatives and every labelled chamber, or every generic pentagon
    # with integer lengths 1 to `top`; the chambers hold every generic
    # pentagon, so every one of them is orientable
    linkages = [l for _, l in representatives] + list(pentagon_chambers())
    linkages = list(generic_integer_pentagons(top)) if top else linkages
    assert len(linkages) == count
    for linkage in linkages:
        mesh = perform_surgery(linkage)
        report = analyze(mesh)
        assert report == classify_surface(len(mesh.points), mesh.complex.edges, mesh.cycles)
        assert all(c.orientable for c in report.components), linkage.spec()
    # both inputs meet every chamber
    assert len({linkage.short for linkage in linkages}) == 76


@pytest.mark.parametrize("later", ["4,4,2,2,6", "2/3,2/3,1/3,1/3,1"])
def test_a_later_spec_of_a_chamber_reaches_no_layer(later, monkeypatch):
    # a chamber's first request of each form cuts its complex once, and
    # linkctl's memo keeps the text; a later spec of the chamber, here with
    # lengths 2 or 1/3 times as long, gets the text joined by its own spec
    # or lengths: no surgery, classification or cut, and no face's
    # provenance or vertex numbers formatted
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))

    counted(cli, "perform_surgery")
    counted(topology, "perform_surgery")
    counted(topology, "classify_linkage")
    counted(geometry, "build_complex")
    counted(SurfaceMesh, "provenances")
    counted(export, "_index_texts")
    for spec, first in (("2,2,1,1,3", True), (later, False)):
        for command, *options in PENTAGON_REQUESTS:
            calls.clear()
            out = _stdout([command, spec, *options])
            if first:
                assert calls.count("build_complex") == 1, (command, options)
            else:
                assert calls == [], (spec, command, options)
            if command == "classify" and options:
                assert json.loads(out)["lengths"] == spec.split(",")
            elif command == "classify":
                assert out.startswith(f"linkage: {spec}  (n=5)\n")
                assert "classification: genus-2 surface\n" in out
            elif "ply" in options:
                assert f"\ncomment linkage: {spec}\ncomment classification: genus-2" in out
            else:
                assert out.startswith(f"# linkage: {spec}\n# classification: genus-2 surface\n")
    assert len(cli._memo) == 6


def test_a_chambers_report_holds_for_any_face_orientations(monkeypatch):
    # a face's orientation is its cycle: each chamber's mesh, rebuilt on a
    # fresh complex with any subset of its face cycles reversed, is
    # traversed and gets the chamber's report
    traversed, rng, report_of = [], random.Random(5), topology._surface_report
    monkeypatch.setattr(
        topology, "_surface_report", lambda *a: traversed.append(a) or report_of(*a)
    )
    for linkage in pentagon_chambers():
        report, (_, points, cycles) = classify_linkage(linkage), perform_surgery(linkage)
        faces = range(len(cycles))
        for subset in [(), faces, rng.sample(faces, 3), rng.sample(faces, 5)]:
            flipped = tuple(c[::-1] if k in subset else c for k, c in enumerate(cycles))
            traversed.clear()
            assert analyze(SurfaceMesh(build_complex(linkage), points, flipped)) == report
            assert len(traversed) == 1, linkage.spec()


@pytest.mark.parametrize(
    "broken",
    [lambda c: c[:-1], lambda c: (c[1], c[0], *c[2:]), lambda c: c + c],
    ids=["skips an edge", "walks a segment that is no edge", "walks its edges twice"],
)
def test_a_cycle_that_does_not_walk_its_faces_edges_is_refused(broken):
    mesh = perform_surgery(make_linkage([1, 1, 1, 1, 3]))
    for f in (0, len(mesh.cycles) - 1):
        cycles = list(mesh.cycles)
        cycles[f] = broken(cycles[f])
        with pytest.raises(NotAClosedSurface, match=f"face {f}'s cycle does not walk exactly"):
            analyze(mesh._replace(cycles=tuple(cycles)))


def test_a_mesh_with_a_cycle_more_or_less_than_its_faces_is_refused():
    # one cycle more would be classified without it, and written as a face
    # the complex does not have
    mesh = perform_surgery(make_linkage([1, 1, 1, 1, 3]))
    faces = len(mesh.cycles)
    for cycles in (mesh.cycles + mesh.cycles[:1], mesh.cycles[:-1]):
        with pytest.raises(NotAClosedSurface, match=f"{len(cycles)} face cycles for {faces} faces"):
            analyze(mesh._replace(cycles=cycles))
        with pytest.raises(NotAClosedSurface):
            export_mesh(mesh._replace(cycles=cycles), "obj")


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
    face's edges ascending, and the face's orientation is its cycle."""
    edge_id = {ends: i for i, ends in enumerate(e)}
    face_rows = [
        tuple(sorted(edge_id[(min(a, b), max(a, b))] for a, b in zip(cycle, cycle[1:] + cycle[:1])))
        for cycle in f
    ]
    labels = [[str(k) for k in range(count)] for count in (v, len(e), len(f))]
    complex_ = CWComplex(None, labels, [((),) * v, e, face_rows])
    return SurfaceMesh(complex_, ((0, 0, 0, 0),) * v, tuple(f))


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
    # a 3x3 grid and a 3x4 Klein bottle side by side: the Klein bottle's
    # faces come first, but its vertices are numbered after the grid's, so
    # the grid is the first component, as the mesh route lists them.  The
    # grid is a torus, or a second Klein bottle
    klein = ComponentReport(12, 24, 12, 0, False, None)
    for twist, first, classification in [
        (False, ComponentReport(9, 18, 9, 0, True, 1), "non-orientable (chi=0) + torus"),
        (True, ComponentReport(9, 18, 9, 0, False, None), "2 non-orientable (chi=0) components"),
    ]:
        tv, te, tf = _grid_faces(3, 3, twist=twist)
        kv, ke, kf = _grid_faces(3, 4, twist=True)
        v, e, f = tv + kv, te + _shifted(ke, tv), _shifted(kf, tv) + tf
        report = analyze(_mesh(v, e, f))
        assert report == classify_surface(v, e, f)
        assert list(report.components) == [first, klein]
        assert report.classification == classification


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


def test_every_classification_name_is_its_own_json_text():
    # report_to_json quotes the classification without escaping it, so no
    # name may hold a character json.dumps escapes
    names = {classify_linkage(linkage).classification for linkage in pentagon_chambers()}
    quadrilaterals = [make_linkage([2, 1, 1, 1]), make_linkage([2, 2, 2, 1])]
    names |= {classify_linkage(linkage).classification for linkage in quadrilaterals}
    names.add(classify_linkage(make_linkage([1, 1, 1, 1, 1, 2])).classification)
    odd = [topology._component_name(chi, False) for chi in range(-8, 3)]
    names |= {topology._combine(odd[:1] * k) for k in (1, 2, 3)}
    names |= {topology._combine([name, "sphere", "torus"]) for name in odd}
    assert {"circle", "2 circles", "unclassified (dim >= 3)", "2 tori"} <= names
    assert "2 non-orientable (chi=-8) components" in names
    assert all(json.dumps(name) == '"' + name + '"' for name in names)


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


def _assert_counts_match_the_complex(complex_):
    linkage = complex_.linkage
    report = classify_linkage(linkage)
    assert count_cells(linkage) == report.f_vector == complex_.f_vector()
    assert report.f_vector == oracle_f_vector(fraction_lengths(linkage))
    assert betti_numbers(linkage) == oracle_betti_numbers(fraction_lengths(linkage))
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
    _assert_counts_match_the_complex(build_complex(make_linkage(lengths)))


@pytest.mark.parametrize(
    "lengths, f_vector",
    [
        ([1, 1, 1, 4, 4, 4], (120, 288, 222, 54)),
        ([1, 1, 1, 1, 5, 5, 5], (720, 2160, 2328, 1050, 162)),
    ],
)
def test_disconnected_spaces_count_like_their_complex(lengths, f_vector):
    report = _assert_counts_match_the_complex(build_complex(make_linkage(lengths)))
    assert report.f_vector == f_vector
    assert report.component_count == 2


@pytest.mark.slow
@pytest.mark.parametrize("spec", OCTAGON_DIGESTS)
def test_octagons_count_like_their_complex(spec, complex_of, capsys):
    # classify counts the cells and components from the short-subset table
    # and builds no complex; here the complex is built, about 0.5 s each,
    # and linkctl's JSON report must give its counts
    report = _assert_counts_match_the_complex(complex_of(spec))
    assert main(["classify", spec, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["f_vector"] == list(report.f_vector)
    assert doc["component_count"] == report.component_count


@pytest.mark.parametrize("lengths", [[1, 1, 1], [1] * 9])
def test_classify_refuses_a_bar_count_outside_4_to_8(lengths):
    # in its own name: it builds a complex only at n = 5
    message = f"classify supports 4 <= n <= 8 bars, got n={len(lengths)}"
    with pytest.raises(ArityMismatch, match=message):
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
