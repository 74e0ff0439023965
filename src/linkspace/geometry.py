"""Permutohedron face lattice and the pentagon surgery.

The m-permutohedron is the convex hull of the permutations of (1,..,m); its
faces of dimension d are the ordered partitions of {1..m} into m-d parts,
with containment given by consecutive-block refinement.  For a pentagon
linkage the cell complex is realized as a polyhedral surface in three steps:
place the vertices on the 4-permutohedron (cut each cyclic order at 5), keep
the permutohedron facets whose label with {5} appended is admissible, and
patch a "diagonal" face for every admissible 2-cell whose part containing 5
is not a singleton.

The mesh's vertices, edges and faces are the complex's 0-, 1- and 2-cells in
the complex's order: mesh vertex, edge and face k is cell k of its grade.
Their incidence is read from the complex's boundary lists: a face's polygon
is the walk along its 1-cells (`boundary[2]`), each joining the two 0-cells
in its `boundary[1]` row.  No incidence is re-derived from labels.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Sequence

from .cwcomplex import ArityMismatch, CWComplex, build_complex
from .linkage import Linkage, Rational
from .partitions import (
    CyclicOrder,
    CyclicPartition,
    _ordered_splits,
    _set_partitions,
    part_text,
)

OrderedPartition = tuple[frozenset[int], ...]


class UnsupportedDimension(ValueError):
    pass


class OffHyperplane(ValueError):
    pass


class NotAClosedSurface(RuntimeError):
    """An edge not shared by exactly two faces, or a curve's vertex not on
    exactly two edges."""


class NotACycle(RuntimeError):
    """The boundary graph of a would-be 2-cell is not a single simple cycle."""


def _ordered_partitions(elements: tuple[int, ...], p: int):
    """Ordered partitions of `elements` into exactly p nonempty blocks."""
    for blocks in _set_partitions(elements, p):
        yield from permutations(blocks)


class Permutohedron:
    """Face lattice of the m-permutohedron, graded by dimension.

    faces_by_dim[d] lists ordered-partition labels into m-d parts, sorted by
    label string; boundary[d][i] gives indices of codimension-1 faces.  The
    top entry (dimension m-1) is the polytope itself.  Both are built on
    first read, so placing vertices never builds the lattice.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 7:
            raise UnsupportedDimension(f"supported for 2 <= m <= 7, got m={m}")
        self.m = m

    @cached_property
    def faces_by_dim(self) -> list[list[OrderedPartition]]:
        elements = tuple(range(1, self.m + 1))
        faces_by_dim = []
        for d in range(self.m):  # dimension d <-> m-d parts
            faces = [tuple(f) for f in _ordered_partitions(elements, self.m - d)]
            faces.sort(key=lambda f: "".join(map(part_text, f)))
            faces_by_dim.append(faces)
        return faces_by_dim

    @cached_property
    def boundary(self) -> list[list[tuple[int, ...]]]:
        boundary: list[list[tuple[int, ...]]] = [[() for _ in self.vertices]]
        for d in range(1, self.m):
            below = {f: i for i, f in enumerate(self.faces_by_dim[d - 1])}
            rows = []
            for face in self.faces_by_dim[d]:
                subs = [
                    below[face[:i] + split + face[i + 1 :]]
                    for i, part in enumerate(face)
                    for split in _ordered_splits(part)
                ]
                rows.append(tuple(sorted(subs)))
            boundary.append(rows)
        return boundary

    @property
    def vertices(self) -> list[OrderedPartition]:
        return self.faces_by_dim[0]

    @property
    def edges(self) -> list[OrderedPartition]:
        return self.faces_by_dim[1]

    @property
    def facets(self) -> list[OrderedPartition]:
        return self.faces_by_dim[self.m - 2]

    def vertex_point(self, perm: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of the vertex labeled by a linear order: the element
        in position j gets coordinate value j."""
        point = [0] * self.m
        for j, a in enumerate(perm, 1):
            point[a - 1] = j
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


def project_to_3d(point: Sequence[int | Rational]) -> tuple[float, float, float]:
    """Isometric affine map from the vertex hyperplane sum(x)=10 of the
    4-permutohedron into R^3; the single lossy (float) step of the pipeline.
    Centering at the barycenter 5/2 is exact for the integer vertex points."""
    if len(point) != 4:
        raise OffHyperplane(f"expected a 4-coordinate point, got {len(point)}")
    if sum(point) != 10:
        raise OffHyperplane(f"point {point} is off the hyperplane sum(x)=10")
    centered = [x - 2.5 for x in point]
    return tuple(
        sum(c * u for c, u in zip(centered, axis)) for axis in _PROJECTION_BASIS
    )


@dataclass(frozen=True)
class MeshVertex:
    label: CyclicOrder
    permutation: tuple[int, ...]
    point4: tuple[int, ...]
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


def _cycle(complex_: CWComplex, i: int) -> list[int]:
    """Indices of 2-cell i's 0-cells in polygon order.

    Nodes are the 0-cells of the face's 1-cells (`boundary[2][i]`); each
    1-cell joins the two 0-cells of its `boundary[1]` row.  For a genuine
    2-cell this graph is a single simple cycle; the walk starts at the
    smallest index and heads toward its smaller neighbor.
    """
    ends = complex_.boundary[1]
    adjacency: dict[int, list[int]] = {}
    for e in complex_.boundary[2][i]:
        u, w = ends[e]
        adjacency.setdefault(u, []).append(w)
        adjacency.setdefault(w, []).append(u)
    if not adjacency or any(len(nbrs) != 2 for nbrs in adjacency.values()):
        raise NotACycle(f"boundary graph of {complex_.cells_by_dim[2][i]} is not 2-regular")
    start = min(adjacency)
    cycle = [start, min(adjacency[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(v for v in adjacency[cur] if v != prev)
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(adjacency):
        raise NotACycle(f"boundary graph of {complex_.cells_by_dim[2][i]} is disconnected")
    return cycle


def boundary_cycle(
    cell: CyclicPartition, complex_: CWComplex
) -> list[CyclicOrder]:
    """Polygon order of a 2-cell's vertices, as labels.

    The walk follows the complex's incidence: the cell's 1-cells from
    `boundary[2]`, each joining the two 0-cells of its `boundary[1]` row.
    0-cells are sorted by label string, which orders them by element
    sequence, so the cycle starts at the smallest vertex and heads toward
    its smaller neighbor.  Raises NotACycle if the label is not a cell of
    the complex or its boundary graph is not a single simple cycle.
    """
    if cell.num_parts != cell.n - 2:
        raise ValueError(f"{cell} is not a 2-cell label (needs n-2 parts)")
    if not complex_.has_cell(cell):
        raise NotACycle(f"{cell} is not a cell of the complex")
    vertices = complex_.cells_by_dim[0]
    return [vertices[k] for k in _cycle(complex_, complex_.index_of(cell)[1])]


def perform_surgery(linkage: Linkage) -> SurfaceMesh:
    """Realize the cell complex of a pentagon as an embedded polyhedral
    surface: mesh vertex, edge and face k is cell k of grade 0, 1 and 2.
    Raises NotAClosedSurface if some 1-cell does not lie on exactly two
    2-cells (which the theory rules out for generic pentagons)."""
    if linkage.n != 5:
        raise ArityMismatch(f"surgery is defined for pentagons, got n={linkage.n}")
    complex_ = build_complex(linkage)
    poly = permutohedron(4)

    # 0-cells are sorted by label string {a}{b}{c}{d}{5}, which for n=5 is
    # the order of the permutations abcd.  A 0-cell's parts are single bars,
    # and the mask of bar a is 1 << (a - 1).
    labels, masks = complex_.cells_by_dim, complex_.masks_by_dim
    vertices = []
    for label, parts in zip(labels[0], masks[0]):
        perm = tuple([m.bit_length() for m in parts[:-1]])
        point4 = poly.vertex_point(perm)
        vertices.append(MeshVertex(label, perm, point4, project_to_3d(point4)))

    edges = [MeshEdge(label, ends) for label, ends in zip(labels[1], complex_.boundary[1])]

    # canonical rotation: 5's part is last, and it is {5} alone on the
    # permutohedron's facets
    faces = []
    for i, (label, parts) in enumerate(zip(labels[2], masks[2])):
        provenance = "permutohedron" if parts[-1] == 1 << 4 else "diagonal"
        faces.append(MeshFace(label, tuple(_cycle(complex_, i)), provenance))

    faces_on = Counter(e for row in complex_.boundary[2] for e in row)
    bad = [e.label for i, e in enumerate(edges) if faces_on[i] != 2]
    if bad:
        raise NotAClosedSurface(
            f"edges not shared by exactly two faces: {', '.join(map(str, bad))}"
        )
    return SurfaceMesh(linkage, tuple(vertices), tuple(faces), tuple(edges))
