"""Acceptance criteria, one test per criterion.

Each test prints a single 'criterion N: PASS/FAIL' line (visible with
pytest -s; the FAIL line plus the assertion detail appears on failure).
All comparisons are exact; the only tolerance is the stated
floating-point check in criterion 7.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

from linkspace.cli import main
from linkspace.cwcomplex import build_complex
from linkspace.export import REPRESENTATIVES, STEP2_ROWS, STEP3_ROWS, verify_all
from linkspace.linkage import (
    LinkageError,
    is_admissible_partition,
    make_linkage,
)
from linkspace.partitions import canonicalize, enumerate_cyclic_partitions
from linkspace.topology import analyze

from oracles import (
    PermutohedronLattice,
    cells_by_dim,
    coarsenings,
    fraction_lengths,
    is_watertight,
    membership,
    mesh_faces,
    oracle_cells,
    ordered_refines,
    parse_obj,
    rotation_class,
)


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")


def test_criterion_1_verify_reproduces_the_six_types(capsys):
    expected = {
        "1,1,1,1,3": ("sphere", 1),
        "1,1,1,eps,2": ("torus", 1),
        "2,2,1,1,3": ("genus-2 surface", 1),
        "1,1,eps,eps,1": ("2 tori", 2),
        "2,1,1,1,2": ("genus-3 surface", 1),
        "1,1,1,1,1": ("genus-4 surface", 1),
    }
    exit_code = main(["verify"])
    out = capsys.readouterr().out
    verified, _ = verify_all()
    ok = (
        exit_code == 0
        and verified
        and out.count("[PASS]") == 6
        and all(
            (rep.classification, rep.components) == expected[rep.spec]
            for rep in REPRESENTATIVES
        )
    )
    with capsys.disabled():
        _report(1, ok, "linkctl verify matches the six known moduli-space types")
    assert ok, out


TABLE2_PATTERN = [
    "v v v v v -",
    "v v v v - -",
    "v v - - - -",
    "v - - - - -",
    "v - - - - -",
    "v v - - - -",
    "v v v v - -",
    "v v v v v -",
    "v v v - v v",
    "v v v - v v",
    "v v v v v v",
    "v v v v v v",
    "v v v v v v",
    "v v v v v v",
]

TABLE3_PATTERN = [
    "- - - - - -",
    "- - - - - -",
    "- - - - - -",
    "- - - - - -",
    "- - - - - -",
    "- - - v - -",
    "- - - - - v",
    "- - - - - v",
    "- - - - - v",
    "- - - - v v",
    "- - - - v v",
    "- - - - v v",
    "- - v v v v",
    "- - v v v v",
    "- - v - v v",
    "- v v v v v",
    "- v v v v v",
    "- v v - v v",
]


def _pattern(rows):
    return [tuple(tok == "v" for tok in row.split()) for row in rows]


def test_criterion_2_step2_admissibility_matrix(representatives, capsys):
    got = membership([l for _, l in representatives], STEP2_ROWS)
    ok = got == _pattern(TABLE2_PATTERN)
    with capsys.disabled():
        _report(2, ok, "14x6 step-2 matrix matches cell-for-cell (row 8 corrected)")
    assert ok, got


def test_criterion_3_step3_admissibility_matrix(representatives, capsys):
    got = membership([l for _, l in representatives], [a for a, _ in STEP3_ROWS])
    ok = got == _pattern(TABLE3_PATTERN)
    with capsys.disabled():
        _report(3, ok, "18x6 step-3 matrix matches cell-for-cell")
    assert ok, got


EXPECTED_F_VECTORS = [
    (24, 36, 14),
    (24, 42, 18),
    (24, 48, 22),
    (24, 42, 18),
    (24, 54, 26),
    (24, 60, 30),
]


def test_criterion_4_f_vectors_against_independent_oracle(representatives, capsys):
    checks = []
    for (rep, linkage), expected in zip(representatives, EXPECTED_F_VECTORS):
        complex_ = build_complex(linkage)
        checks.append(complex_.f_vector() == expected)
        oracle = oracle_cells(fraction_lengths(linkage))
        for d, cells in enumerate(cells_by_dim(complex_)):
            got = {rotation_class(c.parts) for c in cells}
            checks.append(got == oracle[d])
    ok = all(checks)
    with capsys.disabled():
        _report(4, ok, "brute-force enumeration reproduces all six f-vectors")
    assert ok


def test_criterion_5_euler_genus_consistency(meshes, capsys):
    checks = []
    for _, _, mesh in meshes:
        report = analyze(mesh)
        v, e, f = report.f_vector
        checks.append(
            v - e + f
            == sum(2 - 2 * c.genus for c in report.components)
        )
        checks.append(all(c.orientable for c in report.components))
    ok = all(checks)
    with capsys.disabled():
        _report(5, ok, "V-E+F equals sum of 2-2g over components for all six")
    assert ok


def test_criterion_6_every_edge_has_two_cofaces(representatives, capsys):
    def link_condition(linkage):
        for cell in enumerate_cyclic_partitions(5, 4):
            if not is_admissible_partition(linkage, cell.parts):
                continue
            admissible_merges = sum(
                1
                for c in coarsenings(cell)
                if is_admissible_partition(linkage, c.parts)
            )
            if admissible_merges != 2:
                return False
        return True

    checks = [link_condition(l) for _, l in representatives]
    rng = random.Random(20260811)
    produced = 0
    while produced < 100:
        lengths = [
            Fraction(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(5)
        ]
        try:
            linkage = make_linkage(lengths)
        except LinkageError:
            continue
        produced += 1
        checks.append(link_condition(linkage))
    ok = all(checks) and produced == 100
    with capsys.disabled():
        _report(6, ok, "every admissible 4-part label has exactly 2 admissible merges")
    assert ok


def test_criterion_7_permutohedron_sanity(capsys, projected):
    lattice = PermutohedronLattice(4)
    counts_ok = [len(fs) for fs in lattice.faces_by_dim[:3]] == [24, 36, 14]
    shapes = sorted(
        sum(1 for v in lattice.vertices if ordered_refines(v, facet))
        for facet in lattice.facets
    )
    shapes_ok = shapes == [4] * 6 + [6] * 8
    euler_ok = 24 - 36 + 14 == 2
    # projected[k] is the written vertex of the k-th linear order in
    # lexicographic order
    index = {order: k for k, order in enumerate(permutations(range(1, 5)))}
    lengths_ok = True
    for edge in lattice.edges:
        u, w = [
            projected[index[tuple(next(iter(p)) for p in v)]]
            for v in lattice.vertices
            if ordered_refines(v, edge)
        ]
        lengths_ok = lengths_ok and abs(math.dist(u, w) - math.sqrt(2)) < 1e-12
    ok = counts_ok and shapes_ok and euler_ok and lengths_ok
    with capsys.disabled():
        _report(7, ok, "Pi_4: 24/36/14 faces, 8 hexagons + 6 squares, edges sqrt(2)")
    assert ok


def test_criterion_8_sphere_is_identity_surgery(meshes, capsys):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,1,1,3")
    lattice = PermutohedronLattice(4)
    facet_labels = {
        str(canonicalize(f + (frozenset({5}),))) for f in lattice.facets
    }
    faces = mesh_faces(mesh)
    ok = (
        mesh.complex.f_vector() == (24, 36, 14)
        and all(provenance == "permutohedron" for _, _, provenance in faces)
        and {str(label) for label, _, _ in faces} == facet_labels
    )
    with capsys.disabled():
        _report(8, ok, "(1,1,1,1,3) mesh is the full permutohedron boundary")
    assert ok


def test_criterion_9_two_tori_pruning(meshes, capsys):
    mesh = next(m for rep, _, m in meshes if rep.spec == "1,1,eps,eps,1")
    report = analyze(mesh)
    hexagons = sorted(
        str(label)
        for label, cycle, provenance in mesh_faces(mesh)
        if provenance == "diagonal" and len(cycle) == 6
    )
    lattice = PermutohedronLattice(4)
    mesh_edge_labels = {str(label) for label in cells_by_dim(mesh.complex)[1]}
    missing = [
        edge
        for edge in lattice.edges
        if str(canonicalize(edge + (frozenset({5}),))) not in mesh_edge_labels
    ]
    a, b = report.components
    ok = (
        hexagons == ["{1}{2}{3,4,5}", "{2}{1}{3,4,5}"]
        and report.component_count == 2
        and (a.vertex_count, a.edge_count, a.face_count)
        == (b.vertex_count, b.edge_count, b.face_count)
        and len(missing) == 6
        and all(frozenset({1, 2}) in edge for edge in missing)
    )
    with capsys.disabled():
        _report(9, ok, "2 hexagonal diagonals, 2 isomorphic components, 6 pruned edges")
    assert ok


def test_criterion_10_determinism_and_watertightness(tmp_path, capsys):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    code_a = main(["mesh", "1,1,1,1,1", "-o", str(a)])
    code_b = main(["mesh", "1,1,1,1,1", "-o", str(b)])
    bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
    _, faces = parse_obj(bytes_a.decode())
    ok = code_a == code_b == 0 and bytes_a == bytes_b and is_watertight(faces)
    with capsys.disabled():
        _report(10, ok, "repeated exports are byte-identical and watertight")
    assert ok
