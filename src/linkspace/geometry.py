"""The pentagon surgery: a pentagon's cell complex as a polyhedral surface.

The 4-permutohedron is the convex hull of the 24 permutations of (1,2,3,4).
A pentagon's complex is realized in three steps: place the vertices on the
4-permutohedron (cut each cyclic order at 5), keep the permutohedron facets
whose label with {5} appended is admissible, and patch in a "diagonal" face
for every admissible 2-cell whose part containing 5 is not a singleton.
Only vertex placement lives here, as one cached table of the 24 vertices
projected to R^3 (`permutohedron`); the face lattice, a second route for
the tests, is in the tests' oracles.  The mesh is read off the complex's
incidence lists and part masks, and an error names a cell by its label.
That the result is a closed surface is left to `topology.classify_surface`,
which every command runs on a pentagon's mesh.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations
from typing import NamedTuple

from .cwcomplex import ArityMismatch, CWComplex, build_complex
from .linkage import Linkage
from .partitions import CyclicPartition

Point3 = tuple[float, float, float]


class NotACycle(RuntimeError):
    """The boundary graph of a would-be 2-cell is not a single simple cycle."""


# An orthonormal basis of the hyperplane sum(x) = 0 in R^4.
_AXES = tuple(
    tuple(x / math.sqrt(sum(y * y for y in v)) for x in v)
    for v in ((1, -1, 0, 0), (1, 1, -2, 0), (1, 1, 1, -3))
)


@cache
def permutohedron() -> tuple[Point3, ...]:
    """The 24 vertices of the 4-permutohedron in R^3, in the lexicographic
    order of the linear orders a1a2a3a4, computed once per process.

    Vertex a1a2a3a4 has coordinate j at position a_j; it is centred at the
    barycenter (5/2, ..., 5/2) and read in `_AXES`, an isometry onto R^3 and
    the single lossy (float) step of the pipeline.
    """
    points = []
    for order in permutations(range(4)):
        centred = [0.0] * 4
        for j, a in enumerate(order, 1):
            centred[a] = j - 2.5
        points.append(tuple([sum(c * u for c, u in zip(centred, axis)) for axis in _AXES]))
    return tuple(points)


class SurfaceMesh(NamedTuple):
    """A pentagon's cell complex realized as a closed polyhedral surface.

    Mesh vertex, edge and face k is cell k of grade 0, 1 and 2 of `complex`.
    `points[k]` is vertex k's position in R^3 and `cycles[k]` lists face k's
    vertex indices in polygon order.  The edges (`complex.edges`), the
    counts (`complex.f_vector()`) and each face's provenance are read off
    the complex.
    """

    complex: CWComplex
    points: tuple[Point3, ...]
    cycles: tuple[tuple[int, ...], ...]

    def provenance(self, k: int) -> str:
        """'permutohedron' for a kept facet, whose part holding 5 (the last
        mask) is {5} alone; 'diagonal' for a patched-in face."""
        return "permutohedron" if self.complex.masks_by_dim[2][k][-1] == 1 << 4 else "diagonal"


def _cycle(complex_: CWComplex, i: int) -> list[int]:
    """Indices of 2-cell i's 0-cells in polygon order.

    Nodes are the 0-cells of the face's 1-cells (`boundary[2][i]`); each
    1-cell joins the two 0-cells of its `edges` row.  For a genuine
    2-cell this graph is a single simple cycle; the walk starts at the
    smallest index and heads toward its smaller neighbor.  Each step
    unpacks the current vertex's two neighbors and takes the one it did
    not come from.  Raises NotACycle if a vertex does not have exactly two
    neighbors, if its two neighbors are one vertex (two 1-cells on one pair
    of 0-cells, or a 1-cell with one 0-cell twice), or if the walk closes
    before it has met every vertex.
    """
    ends = complex_.edges
    adjacency: dict[int, list[int]] = {}
    for e in complex_.boundary[2][i]:
        u, w = ends[e]
        adjacency.setdefault(u, []).append(w)
        adjacency.setdefault(w, []).append(u)
    if {*map(len, adjacency.values())} != {2}:  # also refuses an empty boundary
        raise NotACycle(f"boundary graph of {complex_.labels(2)[i]} is not 2-regular")
    cur = start = min(adjacency)
    prev = max(adjacency[start])  # as if arriving from it, so heading to the smaller
    cycle = []
    while True:
        cycle.append(cur)
        a, b = adjacency[cur]
        if a == b:
            raise NotACycle(
                f"boundary graph of {complex_.labels(2)[i]} is not simple:"
                f" both neighbors of {complex_.labels(0)[cur]} are {complex_.labels(0)[a]}"
            )
        prev, cur = cur, b if a == prev else a
        if cur == start:
            break
    if len(cycle) != len(adjacency):
        raise NotACycle(f"boundary graph of {complex_.labels(2)[i]} is disconnected")
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
    Raises NotACycle if a 2-cell's boundary is not one simple cycle; an edge
    not on two faces is left to `topology.classify_surface`."""
    if linkage.n != 5:
        raise ArityMismatch(f"surgery is defined for pentagons, got n={linkage.n}")
    complex_ = build_complex(linkage)
    # 0-cells are sorted by label string {a}{b}{c}{d}{5}, which for n=5 is
    # the lexicographic order of the permutations abcd, as the points are
    points = permutohedron()
    cycles = tuple([tuple(_cycle(complex_, i)) for i in range(len(complex_.boundary[2]))])
    return SurfaceMesh(complex_, points, cycles)
