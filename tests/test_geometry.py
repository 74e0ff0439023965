import json
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkspace.cwcomplex import ArityMismatch, CWComplex, _table, build_complex
from linkspace.export import export_mesh
from linkspace.cli import main
from linkspace import cli, geometry
from linkspace.geometry import boundary_cycle, perform_surgery, permutohedron
from linkspace.linkage import make_linkage
from linkspace.partitions import canonicalize, cell_vertices, parse_partition
from linkspace.topology import NotAClosedSurface, analyze

from oracles import (
    NotACycle,
    PermutohedronLattice,
    boundary_labels,
    cells_by_dim,
    common_refinement,
    element_sequence,
    fraction_lengths,
    index_of,
    membership,
    mesh_faces,
    ordered_refines,
    part_containing,
    vertex_to_permutation,
    walk_cycle,
)
from test_golden import pentagon_chambers, printed


def test_permutohedron_face_counts():
    poly = PermutohedronLattice(4)
    assert [len(fs) for fs in poly.faces_by_dim] == [24, 36, 14, 1]
    segment = PermutohedronLattice(2)
    assert [len(fs) for fs in segment.faces_by_dim] == [2, 1]
    hexagon = PermutohedronLattice(3)
    assert [len(fs) for fs in hexagon.faces_by_dim] == [6, 6, 1]


def test_permutohedron_5_counts_and_boundary_euler():
    poly = PermutohedronLattice(5)
    counts = [len(fs) for fs in poly.faces_by_dim]
    assert counts == [120, 240, 150, 30, 1]
    # boundary of a 4-polytope is a 3-sphere
    assert 120 - 240 + 150 - 30 == 0


def test_permutohedron_boundary_is_ordered_refinement():
    poly = PermutohedronLattice(4)
    for d in range(1, 4):
        below = poly.faces_by_dim[d - 1]
        for face, row in zip(poly.faces_by_dim[d], poly.boundary[d]):
            assert row == tuple(
                j for j, f in enumerate(below) if ordered_refines(f, face)
            )


def test_facet_shapes_of_pi4():
    poly = PermutohedronLattice(4)
    shapes = []
    for facet in poly.facets:
        verts = [v for v in poly.vertices if ordered_refines(v, facet)]
        shapes.append(len(verts))
    assert sorted(shapes) == [4] * 6 + [6] * 8
    assert 24 - 36 + 14 == 2  # boundary complex of a 3-polytope


#: The linear orders of {1,2,3,4} in lexicographic order: the order of
#: permutohedron()'s points and of a pentagon complex's 0-cells.
ORDERS = list(permutations(range(1, 5)))


def _exact_vertex(order):
    """Vertex a1a2...am of the integer permutohedron: coordinate j at position a_j."""
    vertex = [0] * len(order)
    for j, a in enumerate(order, 1):
        vertex[a - 1] = j
    return tuple(vertex)


def _squared(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def test_vertex_coordinates(meshes):
    points = permutohedron()
    # one table per process, shared by every mesh, of exact integer points
    # in the hyperplane sum(x) = 10: the k-th point is the vertex of the
    # k-th order
    assert permutohedron() is points
    assert all(mesh.points is points for _, _, mesh in meshes)
    assert _exact_vertex((3, 1, 2, 4)) == (2, 3, 1, 4)
    assert points == tuple(map(_exact_vertex, ORDERS))
    assert len(set(points)) == 24
    assert all(type(x) is int for point in points for x in point)
    assert all(len(point) == 4 and sum(point) == 10 for point in points)


def test_edges_have_exact_squared_length_two():
    points, lattice = permutohedron(), PermutohedronLattice(4)
    for edge in lattice.edges:
        u, w = [v for v in lattice.vertices if ordered_refines(v, edge)]
        ou, ow = (tuple(next(iter(p)) for p in v) for v in (u, w))
        assert _squared(points[ORDERS.index(ou)], points[ORDERS.index(ow)]) == 2


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


def test_boundary_cycle_of_a_square():
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    cell = canonicalize([{1, 2}, {3, 4}, {5}])
    cycle = boundary_cycle(cell, complex_)
    assert [element_sequence(v) for v in cycle] == [
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
        su, sw = element_sequence(u), element_sequence(w)
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
    i = index_of(complex_, cell)[1]
    boundary = [list(rows) for rows in complex_.boundary]
    boundary[2][i] = boundary[2][i][1:]  # drop one of the hexagon's six edges
    corrupted = CWComplex(linkage, complex_.labels_by_dim, boundary)
    with pytest.raises(NotACycle):
        walk_cycle(corrupted.labels_by_dim, corrupted.boundary, i)


@pytest.mark.parametrize("corruption", ["two 1-cells on one pair", "a 1-cell on one 0-cell"])
def test_boundary_cycle_refuses_a_vertex_whose_two_neighbors_are_one(corruption):
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    cell = canonicalize([{1}, {2, 3, 4}, {5}])
    i = index_of(complex_, cell)[1]
    boundary = [list(rows) for rows in complex_.boundary]
    e, f = boundary[2][i][:2]
    if corruption == "two 1-cells on one pair":
        boundary[1][f] = boundary[1][e]
        boundary[2][i] = (e, f)  # the face is a 2-gon
    else:
        u = boundary[1][e][0]
        boundary[1][e] = (u, u)
        boundary[2][i] = (e,)  # the face is a loop
    corrupted = CWComplex(linkage, complex_.labels_by_dim, boundary)
    with pytest.raises(NotACycle, match="not simple"):
        walk_cycle(corrupted.labels_by_dim, corrupted.boundary, i)


def test_boundary_cycle_rejects_a_label_that_is_not_a_cell():
    # {3,4,5} is long in the equilateral pentagon
    complex_ = build_complex(make_linkage([1, 1, 1, 1, 1]))
    with pytest.raises(ValueError, match="not a 2-cell of the complex"):
        boundary_cycle(canonicalize([{1}, {2}, {3, 4, 5}]), complex_)


@pytest.mark.parametrize(
    "spec, faces",
    [
        ("1,1,1,1,1,2", 330),
        ("3,5,7,2,9,4,1", 2880),
        pytest.param("1,1,1,1,1,1,1,2", 31920, marks=pytest.mark.slow),
        pytest.param("5,9,3,12,7,1,4,2", 30840, marks=pytest.mark.slow),
    ],
)
def test_boundary_cycle_is_the_walk_on_every_2_cell(spec, faces, complex_of):
    # the formula from a 2-cell's parts against the walk of its boundary
    # graph, on a built complex rather than a table (an n=8 complex is cut
    # from no table); about 3 s for each n=8 vector
    complex_ = complex_of(spec)
    labels, boundary = complex_.labels_by_dim, complex_.boundary
    index = {parse_partition(text): k for k, text in enumerate(labels[0])}
    assert len(labels[2]) == faces
    for i, text in enumerate(labels[2]):
        cycle = [index[v] for v in boundary_cycle(parse_partition(text), complex_)]
        assert cycle == walk_cycle(labels, boundary, i), text


def test_surgery_requires_pentagons():
    with pytest.raises(ArityMismatch):
        perform_surgery(make_linkage([2, 1, 1, 1]))


def test_sphere_mesh_is_the_whole_permutohedron_boundary(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,3")
    assert mesh.complex.f_vector() == (24, 36, 14)
    assert all(provenance == "permutohedron" for _, _, provenance in mesh_faces(mesh))
    poly = PermutohedronLattice(4)
    facet_labels = {
        str(canonicalize(facet + (frozenset({5}),))) for facet in poly.facets
    }
    assert {str(label) for label in cells_by_dim(mesh.complex)[2]} == facet_labels
    edge_labels = {
        str(canonicalize(edge + (frozenset({5}),))) for edge in poly.edges
    }
    assert {str(label) for label in cells_by_dim(mesh.complex)[1]} == edge_labels


def test_equilateral_mesh_counts(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,1")
    assert mesh.complex.f_vector() == (24, 60, 30)
    by_provenance = {"permutohedron": 0, "diagonal": 0}
    for _, _, provenance in mesh_faces(mesh):
        by_provenance[provenance] += 1
    assert by_provenance == {"permutohedron": 6, "diagonal": 24}
    assert all(len(cycle) == 4 for cycle in mesh.cycles)


def test_two_tori_mesh_pruning_and_diagonals(meshes):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,eps,eps,1")
    assert mesh.complex.f_vector() == (24, 42, 18)
    diagonal = [(l, c) for l, c, provenance in mesh_faces(mesh) if provenance == "diagonal"]
    assert len(diagonal) == 10
    hexagons = sorted(str(label) for label, cycle in diagonal if len(cycle) == 6)
    assert hexagons == ["{1}{2}{3,4,5}", "{2}{1}{3,4,5}"]
    # exactly the six permutohedron edges whose label has part {1,2} vanish
    poly = PermutohedronLattice(4)
    mesh_edge_labels = {str(label) for label in cells_by_dim(mesh.complex)[1]}
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
        for label, _, provenance in mesh_faces(mesh):
            five_part = part_containing(label, 5)
            if provenance == "permutohedron":
                assert five_part == frozenset({5})
            else:
                assert len(five_part) >= 2


def test_mesh_agrees_with_the_complex(meshes):
    for _, linkage, mesh in meshes:
        complex_ = build_complex(linkage)
        assert mesh.complex == complex_
        for d in range(3):
            assert set(cells_by_dim(mesh.complex)[d]) == set(cells_by_dim(complex_)[d])
        vertex_labels, edge_labels = cells_by_dim(complex_)[0], cells_by_dim(complex_)[1]
        edge_by_pair = {frozenset(ends): l for l, ends in zip(edge_labels, mesh.complex.edges)}
        for label, cycle, _ in mesh_faces(mesh):
            incident = {
                edge_by_pair[frozenset((a, b))]
                for a, b in zip(cycle, cycle[1:] + cycle[:1])
            }
            assert incident == set(boundary_labels(complex_, label))
        # the mesh is built from the boundary lists; the labels' own
        # refinements are a second, independent route
        for label, ends in zip(edge_labels, mesh.complex.edges):
            assert {vertex_labels[k] for k in ends} == set(cell_vertices(label))
        for label, cycle, _ in mesh_faces(mesh):
            assert {vertex_labels[k] for k in cycle} == set(cell_vertices(label))


def _assert_mesh_is_the_complex_in_order(mesh, complex_):
    # mesh vertex, edge and face k is cell k of grade 0, 1 and 2
    assert mesh.complex == complex_
    assert (len(mesh.points), len(mesh.complex.edges), len(mesh.cycles)) == complex_.f_vector()
    assert list(mesh.complex.edges) == list(complex_.boundary[1])
    vertices = cells_by_dim(complex_)[0]
    # vertex k stands at the exact vertex of its label's order
    for label, point in zip(vertices, mesh.points, strict=True):
        assert point == _exact_vertex(vertex_to_permutation(label))
    for label, cycle in zip(cells_by_dim(complex_)[2], mesh.cycles, strict=True):
        assert {vertices[k] for k in cycle} == set(cell_vertices(label))


def test_mesh_indices_are_the_complex_indices(meshes):
    for _, linkage, mesh in meshes:
        _assert_mesh_is_the_complex_in_order(mesh, build_complex(linkage))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=5, max_size=5))
def test_generic_pentagon_mesh_indices_are_the_complex_indices(lengths):
    # an odd total cannot be split in half, so every such vector is generic
    assume(sum(lengths) % 2 == 1 and 2 * max(lengths) < sum(lengths))
    linkage = make_linkage(lengths)
    mesh, complex_ = perform_surgery(linkage), build_complex(linkage)
    _assert_mesh_is_the_complex_in_order(mesh, complex_)
    # the OBJ writes face k as a comment with 2-cell k's label and
    # provenance, then cycle k; the labels strictly increase as strings
    lines = export_mesh(mesh, "obj").splitlines()
    comments = [l.removeprefix("# face ") for l in lines if l.startswith("# face ")]
    records = [tuple(int(x) - 1 for x in l.split()[1:]) for l in lines if l.startswith("f ")]
    assert comments == [
        f"{label} "
        + ("permutohedron" if part_containing(label, 5) == frozenset({5}) else "diagonal")
        for label in cells_by_dim(complex_)[2]
    ]
    labels = [c.split()[0] for c in comments]
    assert all(a < b for a, b in zip(labels, labels[1:]))
    assert records == list(mesh.cycles)


def test_surgery_rejects_a_1_cell_on_no_2_cell(monkeypatch, capsys):
    # {4,5} is long in 1,1,1,1,3, so this 1-cell of the equilateral pentagon
    # is not in the sphere's complex; added with its two 0-cells, it bounds
    # no 2-cell.  The classifier, which every command runs on the mesh,
    # refuses it
    linkage = make_linkage([1, 1, 1, 1, 3])
    complex_ = build_complex(linkage)
    loose = canonicalize([{1}, {2}, {3}, {4, 5}])
    labels = [list(ls) for ls in complex_.labels_by_dim]
    boundary = [list(rows) for rows in complex_.boundary]
    labels[1].append(str(loose))
    boundary[1].append(
        tuple(sorted(index_of(complex_, v)[1] for v in cell_vertices(loose)))
    )
    corrupted = CWComplex(linkage, labels, boundary)
    monkeypatch.setattr("linkspace.geometry.build_complex", lambda _: corrupted)
    with pytest.raises(NotAClosedSurface, match="lies in 0 faces"):
        analyze(perform_surgery(linkage))
    assert main(["mesh", "1,1,1,1,3"]) == 3
    assert main(["classify", "1,1,1,1,3"]) == 3
    assert "lies in 0 faces" in capsys.readouterr().err
    # a refused surface is not kept in linkctl's memo: the real build follows
    monkeypatch.undo()
    assert main(["classify", "1,1,1,1,3"]) == 0
    assert "classification: sphere" in capsys.readouterr().out


def test_face_cycle_lengths_match_labels(meshes):
    from math import factorial, prod

    for _, _, mesh in meshes:
        for label, cycle, _ in mesh_faces(mesh):
            assert len(cycle) == prod(factorial(len(p)) for p in label.parts)


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def test_permutohedron_faces_are_planar(meshes):
    # every face of the six models, kept facet or diagonal, is exactly
    # planar on the mesh's integer points: the differences from its first
    # vertex have rank 2, so every 3x3 minor is 0 and some 2x2 is not
    for _, _, mesh in meshes:
        for label, cycle, _ in mesh_faces(mesh):
            base, *rest = [mesh.points[i] for i in cycle]
            rows = [[a - b for a, b in zip(p, base)] for p in rest]
            minors3 = {
                _det3(*[[r[c] for c in columns] for r in triple])
                for triple in combinations(rows, 3)
                for columns in combinations(range(4), 3)
            }
            minors2 = {
                u[i] * w[j] - u[j] * w[i]
                for u, w in combinations(rows, 2)
                for i, j in combinations(range(4), 2)
            }
            assert minors3 == {0} and minors2 != {0}, label


def test_permutohedron_edges_have_length_sqrt2(meshes):
    for _, _, mesh in meshes:
        for label, ends in zip(cells_by_dim(mesh.complex)[1], mesh.complex.edges):
            if part_containing(label, 5) != frozenset({5}):
                continue
            u, w = (mesh.points[i] for i in ends)
            assert _squared(u, w) == 2, label


def test_vertex_positions_are_the_projected_permutohedron_points(meshes):
    for _, _, mesh in meshes:
        perms = [vertex_to_permutation(v) for v in cells_by_dim(mesh.complex)[0]]
        assert perms == ORDERS
        assert mesh.points is permutohedron()
    assert permutohedron() == tuple(map(_exact_vertex, ORDERS))


def test_surgery_is_deterministic():
    linkage = make_linkage([2, 2, 1, 1, 3])
    assert perform_surgery(linkage) == perform_surgery(linkage)


def test_cycles_are_walks_of_the_built_complex(representatives):
    # each face's cycle is read by label from the formula on the n = 5
    # table's faces; a walk on the pentagon's own complex must give the same
    for linkage in [l for _, l in representatives] + list(pentagon_chambers()):
        mesh, complex_ = perform_surgery(linkage), build_complex(linkage)
        labels, boundary = complex_.labels_by_dim, complex_.boundary
        assert len(mesh.cycles) == len(boundary[2])
        for i, cycle in enumerate(mesh.cycles):
            assert list(cycle) == walk_cycle(labels, boundary, i), labels[2][i]


def test_pentagon_ops_after_the_first_walk_no_face(monkeypatch):
    # the table's face cycles are worked out once per process; pentagons of
    # other chambers, each cut afresh, read their cycles from that map
    assert main(["classify", "1,1,1,1,3"]) == 0
    calls = []
    formula = geometry._face_cycle
    monkeypatch.setattr(geometry, "_face_cycle", lambda parts: calls.append(parts) or formula(parts))
    for spec in ("1,1,1,eps,2", "2,2,1,1,3", "1,1,eps,eps,1", "2,1,1,1,2", "1,1,1,1,1"):
        assert main(["classify", spec]) == 0
        assert main(["mesh", spec]) == 0
    assert calls == []
    assert len(cli._memo) == 11  # eleven cold requests, each through the surgery
    # the count is live: with the cache cleared, one surgery works out each
    # of the table's 50 faces once, from its part columns
    geometry._face_walks.cache_clear()
    perform_surgery(make_linkage([1, 1, 1, 1, 1]))
    assert calls == list(zip(*_table(5)[2][2]))


def test_a_later_pentagon_of_a_chamber_keeps_its_own_linkage():
    # each chamber's pentagon and the one of twice its lengths have the same
    # short subsets and other specs.  Whichever comes second is served from
    # linkctl's memo, and prints what it prints with the memo emptied, its
    # own spec in every header; the surgery hands each its own linkage
    for first in pentagon_chambers():
        double = make_linkage([2 * l for l in fraction_lengths(first)])
        assert double.short == first.short and double.spec() != first.spec()
        alone = {}
        for linkage in (first, double):
            cli._memo.clear()
            spec = linkage.spec()
            alone[linkage] = obj, ply, triangulated, ply_triangulated, doc, text = printed(spec)
            assert obj.startswith(f"# linkage: {spec}\n")
            assert triangulated.startswith(f"# linkage: {spec}\n")
            assert f"\ncomment linkage: {spec}\n" in ply
            assert f"\ncomment linkage: {spec}\n" in ply_triangulated
            assert json.loads(doc)["lengths"] == spec.split(",")
            assert text.startswith(f"linkage: {spec}  (n=5)\n")
        for met, later in ((first, double), (double, first)):
            assert perform_surgery(later).complex.linkage is later
            cli._memo.clear()
            printed(met.spec())
            assert printed(later.spec()) == alone[later], later.spec()


def test_face_cycles_are_the_walks_of_the_tables():
    # the formula, from each 2-cell's part columns, against the walk of its
    # boundary graph, on all 50, 390 and 3,360 2-cells of the n = 5, 6 and
    # 7 tables; each step of the cycle is one of the face's edges
    for n in (5, 6, 7):
        labels, boundary, columns = _table(n)
        # the 0-cells {a1}...{a(n-1)}{n} in label order: the lexicographic
        # order of the permutations a1...a(n-1)
        index = {(*order, n): k for k, order in enumerate(permutations(range(1, n)))}
        assert ["".join(f"{{{b}}}" for b in v) for v in index] == list(labels[0])
        for i, (row, parts) in enumerate(zip(boundary[2], zip(*columns[2]))):
            cycle = [index[v] for v in geometry._face_cycle(parts)]
            assert cycle == walk_cycle(labels, boundary, i), labels[2][i]
            steps = sorted(tuple(sorted(pair)) for pair in zip(cycle, cycle[1:] + cycle[:1]))
            assert steps == sorted(boundary[1][e] for e in row), labels[2][i]


def _affine_rank(points):
    """The dimension of the affine span of integer points, exactly: the rank
    over Q of their differences from the first, by fraction-free elimination."""
    base, *rest = points
    rows = [[a - b for a, b in zip(p, base)] for p in rest]
    rank = 0
    for c in range(len(base)):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows = [[pivot[c] * a - r[c] * b for a, b in zip(r, pivot)] for r in rows if r is not pivot]
        rank += 1
    return rank


def test_every_table_cell_is_a_product_of_permutohedra():
    # place 0-cell {a1}...{a(n-1)}{n} at the integer point with coordinate j
    # at position a_j, as permutohedron() does at n = 5; then
    # each cell of the n = 5 and 6 tables, with parts p1...pm, has
    # prod |pi|! vertices in its closure, spanning exactly its dimension
    for n in (5, 6):
        labels, boundary, columns = _table(n)
        points = [_exact_vertex(order) for order in permutations(range(1, n))]
        closure = [[{k} for k in range(len(points))]]
        for rows in boundary[1:]:
            closure.append([set().union(*(closure[-1][j] for j in row)) for row in rows])
        assert [len(cells) for cells in closure] == [len(words) for words in labels]
        for d, (cells, grade) in enumerate(zip(closure, columns)):
            for vertices, parts in zip(cells, zip(*grade), strict=True):
                assert len(vertices) == math.prod(math.factorial(bin(m).count("1")) for m in parts)
                assert _affine_rank([points[k] for k in sorted(vertices)]) == d


def test_face_counts_split_matches_membership_tables(representatives, meshes):
    # step-2 kept facets equal the 'v' count per column of the step-2 rows;
    # step-3 faces equal twice the 'v' row count of the step-3 rows
    from linkspace.export import STEP2_ROWS, STEP3_ROWS

    linkages = [l for _, l in representatives]
    step2 = membership(linkages, STEP2_ROWS)
    step3 = membership(linkages, [a for a, _ in STEP3_ROWS])
    for col, (_, _, mesh) in enumerate(meshes):
        kept = sum(1 for values in step2 if values[col])
        patched = 2 * sum(1 for values in step3 if values[col])
        provenances = [provenance for _, _, provenance in mesh_faces(mesh)]
        got_kept = provenances.count("permutohedron")
        got_patched = provenances.count("diagonal")
        assert (got_kept, got_patched) == (kept, patched)
