"""The pentagon surgery: a pentagon's cell complex as a polyhedral surface.

The m-permutohedron is the convex hull of the permutations of (1,..,m).  A
pentagon's complex is realized in three steps: place the vertices on the
4-permutohedron (cut each cyclic order at 5), keep the permutohedron facets
whose label with {5} appended is admissible, and patch in a "diagonal" face
for every admissible 2-cell whose part containing 5 is not a singleton.
Only vertex placement lives here; the face lattice, a second route for the
tests, is in the tests' oracles.  The mesh is read off the complex's
incidence lists and part masks; an error names a cell by its masks' text.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations
from typing import Sequence

from .cwcomplex import ArityMismatch, CWComplex, build_complex
from .linkage import Linkage
from .partitions import CyclicPartition, mask_texts

Point3 = tuple[float, float, float]


class UnsupportedDimension(ValueError):
    pass


class OffHyperplane(ValueError):
    pass


class NotAClosedSurface(RuntimeError):
    """An edge not shared by exactly two faces, or a curve's vertex not on
    exactly two edges."""


class NotACycle(RuntimeError):
    """The boundary graph of a would-be 2-cell is not a single simple cycle."""


class Permutohedron:
    """Vertex placement on the m-permutohedron.

    One object per m and process (see `permutohedron`), so `points` is
    computed once.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 7:
            raise UnsupportedDimension(f"supported for 2 <= m <= 7, got m={m}")
        self.m = m

    def vertex_point(self, perm: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of the vertex labeled by a linear order: the element
        in position j gets coordinate value j."""
        point = [0] * self.m
        for j, a in enumerate(perm, 1):
            point[a - 1] = j
        return tuple(point)

    @cached_property
    def points(self) -> tuple[Point3, ...]:
        """Every vertex projected to R^3 (m = 4 only), in the lexicographic
        order of the linear orders."""
        orders = permutations(range(1, self.m + 1))
        return tuple([project_to_3d(self.vertex_point(p)) for p in orders])


@cache
def permutohedron(m: int) -> Permutohedron:
    """The m-permutohedron, one object per m and process."""
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


def project_to_3d(point: Sequence[int | Fraction]) -> Point3:
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
class SurfaceMesh:
    """A pentagon's cell complex realized as a closed polyhedral surface.

    Mesh vertex, edge and face k is cell k of grade 0, 1 and 2 of `complex`.
    `points[k]` is vertex k's position in R^3 and `cycles[k]` lists face k's
    vertex indices in polygon order.  The edges (the endpoint pairs
    `complex.edges`, the complex's boundary[1]) and each face's provenance
    are read off the complex.
    """

    complex: CWComplex
    points: tuple[Point3, ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self.complex.edges

    def provenance(self, k: int) -> str:
        """'permutohedron' for a kept facet, whose part holding 5 (the last
        mask) is {5} alone; 'diagonal' for a patched-in face."""
        return "permutohedron" if self.complex.masks_by_dim[2][k][-1] == 1 << 4 else "diagonal"

    def counts(self) -> tuple[int, int, int]:
        return len(self.points), len(self.edges), len(self.cycles)


def _text(complex_: CWComplex, d: int, i: int) -> str:
    """Cell i of grade d as label text, from its part masks."""
    texts = mask_texts(complex_.linkage.n)
    return "".join([texts[p] for p in complex_.masks_by_dim[d][i]])


def _cycle(complex_: CWComplex, i: int) -> list[int]:
    """Indices of 2-cell i's 0-cells in polygon order.

    Nodes are the 0-cells of the face's 1-cells (`boundary[2][i]`); each
    1-cell joins the two 0-cells of its `edges` row.  For a genuine
    2-cell this graph is a single simple cycle; the walk starts at the
    smallest index and heads toward its smaller neighbor.
    """
    ends = complex_.edges
    adjacency: dict[int, list[int]] = {}
    for e in complex_.boundary[2][i]:
        u, w = ends[e]
        adjacency.setdefault(u, []).append(w)
        adjacency.setdefault(w, []).append(u)
    if not adjacency or any(len(nbrs) != 2 for nbrs in adjacency.values()):
        raise NotACycle(f"boundary graph of {_text(complex_, 2, i)} is not 2-regular")
    start = min(adjacency)
    cycle = [start, min(adjacency[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(v for v in adjacency[cur] if v != prev)
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(adjacency):
        raise NotACycle(f"boundary graph of {_text(complex_, 2, i)} is disconnected")
    return cycle


def boundary_cycle(cell: CyclicPartition, complex_: CWComplex) -> list[CyclicPartition]:
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
    cells = complex_.cells_by_dim
    if len(cells) < 3 or cell not in cells[2]:
        raise NotACycle(f"{cell} is not a cell of the complex")
    return [cells[0][k] for k in _cycle(complex_, cells[2].index(cell))]


def perform_surgery(linkage: Linkage) -> SurfaceMesh:
    """Realize the cell complex of a pentagon as an embedded polyhedral
    surface: mesh vertex, edge and face k is cell k of grade 0, 1 and 2.
    Raises NotAClosedSurface if some 1-cell does not lie on exactly two
    2-cells (which the theory rules out for generic pentagons)."""
    if linkage.n != 5:
        raise ArityMismatch(f"surgery is defined for pentagons, got n={linkage.n}")
    complex_ = build_complex(linkage)
    # 0-cells are sorted by label string {a}{b}{c}{d}{5}, which for n=5 is
    # the lexicographic order of the permutations abcd, as the points are
    points = permutohedron(4).points
    cycles = tuple([tuple(_cycle(complex_, i)) for i in range(len(complex_.boundary[2]))])
    faces_on = Counter(e for row in complex_.boundary[2] for e in row)
    bad = [i for i in range(len(complex_.boundary[1])) if faces_on[i] != 2]
    if bad:
        raise NotAClosedSurface(
            "edges not shared by exactly two faces: "
            + ", ".join(_text(complex_, 1, i) for i in bad)
        )
    return SurfaceMesh(complex_, points, cycles)
