"""The pentagon surgery: a pentagon's cell complex as a polyhedral surface.

The 4-permutohedron is the convex hull of the 24 permutations of (1,2,3,4).
A pentagon's complex is realized in three steps: place the vertices on the
4-permutohedron (cut each cyclic order at 5), keep the permutohedron facets
whose label with {5} appended is admissible, and patch in a "diagonal" face
for every admissible 2-cell whose part containing 5 is not a singleton.
`build_complex` does the last two: it cuts the complex from one table of the
permutohedron's faces and all the diagonals.  Here live the vertex placement,
one cached table of the 24 vertices in R^3 (`permutohedron`), and the face
cycles and edge signs, walked once per process on the table's 50 faces and
read by label (`_face_walks`).  An error names a cell by its label.  That
the result is a closed surface is checked by `topology.analyze`, which every
command runs on a pentagon's mesh.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations
from typing import NamedTuple, Sequence

from .cwcomplex import ArityMismatch, CWComplex, _table, build_complex
from .linkage import Linkage
from .partitions import CyclicPartition, parse_partition

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
    vertex indices in polygon order.  `signs[k]` holds one sign per edge of
    face k's row `complex.boundary[2][k]`, in that row's order: +1 if the
    cycle walks the edge from the first to the second 0-cell of its
    `complex.edges` row, else -1.  The edges (`complex.edges`), the counts
    (`complex.f_vector()`) and each face's provenance are read off the
    complex.
    """

    complex: CWComplex
    points: tuple[Point3, ...]
    cycles: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, ...], ...]

    def provenance(self, k: int) -> str:
        """'permutohedron' for a kept facet, whose part holding 5 (the last
        part) is {5} alone; 'diagonal' for a patched-in face."""
        return "permutohedron" if self.complex.labels_by_dim[2][k].endswith("{5}") else "diagonal"


def _cycle(labels_by_dim: Sequence[Sequence[str]], boundary: Sequence, i: int) -> list[int]:
    """Indices of 2-cell i's 0-cells in polygon order, in the complex with
    these labels and boundary rows.

    Nodes are the 0-cells of the face's 1-cells (`boundary[2][i]`), each
    joining the two 0-cells of its `boundary[1]` row.  The walk starts at
    the smallest index and heads toward its smaller neighbor; each step
    takes the current vertex's neighbor it did not come from.  Raises
    NotACycle if a vertex does not have exactly two neighbors, if its two
    neighbors are one vertex (two 1-cells on one pair of 0-cells, or a
    1-cell with one 0-cell twice), or if the walk closes before it has met
    every vertex.
    """
    ends = boundary[1]
    adjacency: dict[int, list[int]] = {}
    for e in boundary[2][i]:
        u, w = ends[e]
        adjacency.setdefault(u, []).append(w)
        adjacency.setdefault(w, []).append(u)
    face, vertices = labels_by_dim[2][i], labels_by_dim[0]
    if {*map(len, adjacency.values())} != {2}:  # also refuses an empty boundary
        raise NotACycle(f"boundary graph of {face} is not 2-regular")
    cur = start = min(adjacency)
    prev = max(adjacency[start])  # as if arriving from it, so heading to the smaller
    cycle = []
    while True:
        cycle.append(cur)
        a, b = adjacency[cur]
        if a == b:
            raise NotACycle(
                f"boundary graph of {face} is not simple:"
                f" both neighbors of {vertices[cur]} are {vertices[a]}"
            )
        prev, cur = cur, b if a == prev else a
        if cur == start:
            break
    if len(cycle) != len(adjacency):
        raise NotACycle(f"boundary graph of {face} is disconnected")
    return cycle


@cache
def _face_walks() -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each 2-cell of the n = 5 table (`cwcomplex._table(5)`) by label: its
    vertex cycle, walked by `_cycle`, and one sign per edge of its boundary
    row, +1 where the cycle walks the edge from its first 0-cell to its
    second.  Both hold in every pentagon's complex: the cut keeps all 24
    0-cells and a kept face's edges, and renumbers the edges monotonically,
    so the face's row lists them in the table's order."""
    labels, boundary, _ = _table(5)
    ends, walks = boundary[1], {}
    for i, (label, row) in enumerate(zip(labels[2], boundary[2])):
        cycle = _cycle(labels, boundary, i)
        after = dict(zip(cycle, cycle[1:] + cycle[:1]))  # each vertex's successor
        signs = tuple([1 if after[u] == w else -1 for u, w in map(ends.__getitem__, row)])
        walks[label] = (tuple(cycle), signs)
    return walks


def boundary_cycle(cell: CyclicPartition, complex_: CWComplex) -> list[CyclicPartition]:
    """Polygon order of a 2-cell's vertices, as labels.

    The walk follows the complex's incidence: the cell's 1-cells from
    `boundary[2]`, each joining the two 0-cells of its `boundary[1]` row.
    0-cells are sorted by label string, which orders them by element
    sequence, so the cycle starts at the smallest vertex and heads toward
    its smaller neighbor.  The cell is found by its text, and only the
    cycle's vertex labels are parsed.  Raises NotACycle if the label is not
    a cell of the complex or its boundary graph is not a single simple cycle.
    """
    if cell.num_parts != cell.n - 2:
        raise ValueError(f"{cell} is not a 2-cell label (needs n-2 parts)")
    labels, text = complex_.labels_by_dim, str(cell)
    if len(labels) < 3 or text not in labels[2]:
        raise NotACycle(f"{cell} is not a cell of the complex")
    i = labels[2].index(text)
    return [parse_partition(labels[0][k]) for k in _cycle(labels, complex_.boundary, i)]


def perform_surgery(linkage: Linkage) -> SurfaceMesh:
    """Realize the cell complex of a pentagon as a closed polyhedral
    surface: mesh vertex, edge and face k is cell k of grade 0, 1 and 2.
    Each kept face's cycle and edge signs are read by label from
    `_face_walks`, the n = 5 table's faces walked once per process.
    Its faces may cross in R^3: an exact check of segment-triangle
    crossings, by integer orientation determinants on the permutohedron's
    integer vertices, finds 1, 6 and 16 crossing face pairs in the genus-2,
    -3 and -4 models, so the surface is not claimed to be embedded.
    Raises NotACycle if a face of the table is not bounded by one simple
    cycle; an edge not on two faces is left to `topology.analyze`."""
    if linkage.n != 5:
        raise ArityMismatch(f"surgery is defined for pentagons, got n={linkage.n}")
    complex_ = build_complex(linkage)
    # 0-cells are sorted by label string {a}{b}{c}{d}{5}, which for n=5 is
    # the lexicographic order of the permutations abcd, as the points are
    points = permutohedron()
    cycles, signs = zip(*map(_face_walks().__getitem__, complex_.labels_by_dim[2]))
    return SurfaceMesh(complex_, points, cycles, signs)
