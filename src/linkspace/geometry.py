"""Permutohedron face lattice and the pentagon surgery.

The m-permutohedron is the convex hull of the permutations of (1,..,m); its
faces of dimension d are the ordered partitions of {1..m} into m-d parts,
with containment given by consecutive-block refinement.  For a pentagon
linkage the cell complex is realized as a polyhedral surface in three steps:
place the vertices on the 4-permutohedron (cut each cyclic order at 5), keep
the permutohedron facets whose label with {5} appended is admissible, and
patch a "diagonal" face for every admissible 2-cell whose part containing 5
is not a singleton.  Edges that end up bounding no face, and vertices meeting
no edge, are pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .cwcomplex import ArityMismatch, CWComplex, build_complex
from .linkage import Linkage
from .partitions import (
    CyclicOrder,
    CyclicPartition,
    _set_partitions,
    cell_vertices,
    one_step_refinements,
    part_text,
    vertex_to_permutation,
)

OrderedPartition = tuple[frozenset[int], ...]


class UnsupportedDimension(ValueError):
    pass


class OffHyperplane(ValueError):
    pass


class NotAClosedSurface(RuntimeError):
    """Some edge of the assembled mesh is not shared by exactly two faces."""


class NotACycle(RuntimeError):
    """The boundary graph of a would-be 2-cell is not a single simple cycle."""


def _ordered_partitions(elements: tuple[int, ...], p: int):
    """Ordered partitions of `elements` into exactly p nonempty blocks."""
    for blocks in _set_partitions(elements, p):
        yield from permutations(blocks)


def ordered_refines(fine: OrderedPartition, coarse: OrderedPartition) -> bool:
    """Linear refinement: fine's parts, grouped consecutively in order,
    spell out coarse.  The grouping is forced, so a single greedy scan
    decides it."""
    idx = 0
    for target in coarse:
        acc: set[int] = set()
        while acc != target:
            if idx == len(fine) or not fine[idx] <= target:
                return False
            acc |= fine[idx]
            idx += 1
    return idx == len(fine)


def common_refinement(p: OrderedPartition, q: OrderedPartition) -> OrderedPartition | None:
    """The coarsest ordered partition refining both, or None if the two
    faces are disjoint.  Candidate blocks are the nonempty pairwise
    intersections ordered by (index in p, index in q); the candidate refines
    p by construction and is checked against q."""
    blocks = tuple(
        pi & qj for pi in p for qj in q if pi & qj
    )
    if sum(len(b) for b in blocks) != sum(len(b) for b in p):
        return None  # cannot happen for partitions of the same set
    return blocks if ordered_refines(blocks, q) else None


class Permutohedron:
    """Face lattice of the m-permutohedron, graded by dimension.

    faces_by_dim[d] lists ordered-partition labels into m-d parts, sorted by
    label string; boundary[d][i] gives indices of codimension-1 faces.  The
    top entry (dimension m-1) is the polytope itself.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 7:
            raise UnsupportedDimension(f"supported for 2 <= m <= 7, got m={m}")
        self.m = m
        elements = tuple(range(1, m + 1))
        self.faces_by_dim: list[list[OrderedPartition]] = []
        for d in range(m):  # dimension d <-> m-d parts
            faces = [tuple(f) for f in _ordered_partitions(elements, m - d)]
            faces.sort(key=lambda f: "".join(map(part_text, f)))
            self.faces_by_dim.append(faces)
        self._index = {
            f: (d, i)
            for d, faces in enumerate(self.faces_by_dim)
            for i, f in enumerate(faces)
        }
        self.boundary: list[list[tuple[int, ...]]] = [
            [() for _ in self.faces_by_dim[0]]
        ]
        for d in range(1, m):
            below = {f: i for i, f in enumerate(self.faces_by_dim[d - 1])}
            rows = []
            for face in self.faces_by_dim[d]:
                subs = []
                for i, part in enumerate(face):
                    if len(part) < 2:
                        continue
                    elems = sorted(part)
                    for mask in range(1, 2 ** len(elems) - 1):
                        x = frozenset(e for k, e in enumerate(elems) if mask >> k & 1)
                        subs.append(below[face[:i] + (x, part - x) + face[i + 1 :]])
                rows.append(tuple(sorted(subs)))
            self.boundary.append(rows)

    @property
    def vertices(self) -> list[OrderedPartition]:
        return self.faces_by_dim[0]

    @property
    def edges(self) -> list[OrderedPartition]:
        return self.faces_by_dim[1]

    @property
    def facets(self) -> list[OrderedPartition]:
        return self.faces_by_dim[self.m - 2]

    def vertex_point(self, perm: Sequence[int]) -> tuple[Fraction, ...]:
        """Coordinates of the vertex labeled by a linear order: the element
        in position j gets coordinate value j."""
        point = [Fraction(0)] * self.m
        for j, a in enumerate(perm, 1):
            point[a - 1] = Fraction(j)
        return tuple(point)


def permutohedron(m: int) -> Permutohedron:
    return Permutohedron(m)


def _gram_schmidt(vectors: Sequence[Sequence[float]]) -> list[list[float]]:
    basis: list[list[float]] = []
    for v in vectors:
        w = [float(x) for x in v]
        for u in basis:
            c = sum(wi * ui for wi, ui in zip(w, u))
            w = [wi - c * ui for wi, ui in zip(w, u)]
        norm = math.sqrt(sum(wi * wi for wi in w))
        basis.append([wi / norm for wi in w])
    return basis


# Fixed orthonormal basis of the hyperplane sum(x)=const in R^4, from
# Gram-Schmidt on (1,-1,0,0), (0,1,-1,0), (0,0,1,-1) in that order.
_PROJECTION_BASIS = _gram_schmidt([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)])
_BARYCENTER = (Fraction(5, 2),) * 4


def project_to_3d(point: Sequence[Fraction]) -> tuple[float, float, float]:
    """Isometric affine map from the vertex hyperplane sum(x)=10 of the
    4-permutohedron into R^3; the single lossy (float) step of the pipeline."""
    if len(point) != 4:
        raise OffHyperplane(f"expected a 4-coordinate point, got {len(point)}")
    if sum(Fraction(x) for x in point) != 10:
        raise OffHyperplane(f"point {point} is off the hyperplane sum(x)=10")
    centered = [float(Fraction(x) - b) for x, b in zip(point, _BARYCENTER)]
    return tuple(
        sum(c * u for c, u in zip(centered, axis)) for axis in _PROJECTION_BASIS
    )


@dataclass(frozen=True)
class MeshVertex:
    label: CyclicOrder
    permutation: tuple[int, ...]
    point4: tuple[Fraction, ...]
    point3: tuple[float, float, float]


@dataclass(frozen=True)
class MeshFace:
    label: CyclicPartition
    cycle: tuple[int, ...]  # vertex indices in boundary order
    provenance: str  # "permutohedron" | "diagonal"


@dataclass(frozen=True)
class MeshEdge:
    label: CyclicPartition
    endpoints: tuple[int, int]


@dataclass(frozen=True)
class SurfaceMesh:
    linkage: Linkage
    vertices: tuple[MeshVertex, ...]
    faces: tuple[MeshFace, ...]
    edges: tuple[MeshEdge, ...]

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.edges), len(self.faces)


def boundary_cycle(
    cell: CyclicPartition, complex_: CWComplex
) -> list[CyclicOrder]:
    """Polygon order of a 2-cell's vertices.

    Nodes are the cell's vertex refinements; arcs are the 1-cells refining
    the cell, each joining its own two vertex refinements.  For a genuine
    2-cell this graph is a single simple cycle; the traversal starts at the
    smallest vertex (by element sequence) and heads toward its smaller
    neighbor.
    """
    if cell.num_parts != 3:
        raise ValueError(f"{cell} is not a 2-cell label (needs 3 parts)")
    nodes = cell_vertices(cell)
    adjacency: dict[CyclicOrder, list[CyclicOrder]] = {v: [] for v in nodes}
    for arc in one_step_refinements(cell):
        if not complex_.has_cell(arc):
            raise NotACycle(f"refinement {arc} of {cell} missing from the complex")
        u, w = cell_vertices(arc)
        adjacency[u].append(w)
        adjacency[w].append(u)
    if any(len(nbrs) != 2 for nbrs in adjacency.values()):
        raise NotACycle(f"boundary graph of {cell} is not 2-regular")
    key = CyclicOrder.element_sequence
    start = min(nodes, key=key)
    cycle = [start, min(adjacency[start], key=key)]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(v for v in adjacency[cur] if v != prev)
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(nodes):
        raise NotACycle(f"boundary graph of {cell} is disconnected")
    return cycle


def perform_surgery(linkage: Linkage) -> SurfaceMesh:
    """Realize the cell complex of a pentagon as an embedded polyhedral
    surface; raises NotAClosedSurface if any edge fails to be shared by
    exactly two faces (which the theory rules out for generic pentagons)."""
    if linkage.n != 5:
        raise ArityMismatch(f"surgery is defined for pentagons, got n={linkage.n}")
    complex_ = build_complex(linkage)
    poly = permutohedron(4)

    vertex_cells = [cell.label for cell in complex_.cells_by_dim[0]]
    entries = []
    for label in vertex_cells:
        perm = vertex_to_permutation(label)
        point4 = poly.vertex_point(perm)
        entries.append((perm, label, point4, project_to_3d(point4)))
    entries.sort(key=lambda e: e[0])
    vertices = tuple(
        MeshVertex(label=label, permutation=perm, point4=p4, point3=p3)
        for perm, label, p4, p3 in entries
    )
    vertex_index = {v.label: i for i, v in enumerate(vertices)}

    edges = []
    for cell in complex_.cells_by_dim[1]:
        u, w = (vertex_index[v] for v in cell_vertices(cell.label))
        edges.append(MeshEdge(cell.label, (min(u, w), max(u, w))))
    edge_index = {frozenset(e.endpoints): i for i, e in enumerate(edges)}

    faces = []
    for cell in complex_.cells_by_dim[2]:
        cycle = tuple(vertex_index[v] for v in boundary_cycle(cell.label, complex_))
        five_part = cell.label.parts[-1]  # canonical rotation: 5's part is last
        provenance = "permutohedron" if len(five_part) == 1 else "diagonal"
        faces.append(MeshFace(cell.label, cycle, provenance))

    # Closed-surface accounting and pruning.  Every face-boundary segment must
    # be a 1-cell; edges bounding no face are dropped, any other count than
    # two is an error; vertices left without edges are dropped.
    edge_face_count = [0] * len(edges)
    for face in faces:
        for a, b in zip(face.cycle, face.cycle[1:] + face.cycle[:1]):
            i = edge_index.get(frozenset((a, b)))
            if i is None:
                raise NotAClosedSurface(
                    f"face {face.label} uses segment {a}-{b} that is not a 1-cell"
                )
            edge_face_count[i] += 1
    bad = [
        edges[i].label
        for i, c in enumerate(edge_face_count)
        if c not in (0, 2)
    ]
    if bad:
        raise NotAClosedSurface(
            f"edges not shared by exactly two faces: {', '.join(map(str, bad))}"
        )
    kept_edges = [e for i, e in enumerate(edges) if edge_face_count[i] == 2]
    used = sorted({i for e in kept_edges for i in e.endpoints})
    if len(used) != len(vertices):
        renumber = {old: new for new, old in enumerate(used)}
        vertices = tuple(vertices[i] for i in used)
        kept_edges = [
            MeshEdge(e.label, (renumber[e.endpoints[0]], renumber[e.endpoints[1]]))
            for e in kept_edges
        ]
        faces = [
            MeshFace(f.label, tuple(renumber[i] for i in f.cycle), f.provenance)
            for f in faces
        ]
    return SurfaceMesh(linkage, vertices, tuple(faces), tuple(kept_edges))
