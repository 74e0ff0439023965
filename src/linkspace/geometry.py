"""The pentagon surgery: a pentagon's cell complex as a polyhedral surface.

The 4-permutohedron is the convex hull of the 24 permutations of (1,2,3,4).
A pentagon's complex is realized in three steps: place the vertices on the
4-permutohedron (cut each cyclic order at 5), keep the permutohedron facets
whose label with {5} appended is admissible, and patch in a "diagonal" face
for every admissible 2-cell whose part containing 5 is not a singleton.
`build_complex` does the last two: it cuts the complex from one table of the
permutohedron's faces and all the diagonals.  Here live the vertex placement,
one cached table of the 24 vertices in R^3 (`permutohedron`), and the face
cycles and edge signs.  A 2-cell is the product of its parts' permutohedra,
so its cycle is a formula in its parts (`_face_cycle`), worked out once per
process for the table's 50 faces and read by label (`_face_walks`).  That
the result is a closed surface is checked by `topology.analyze`, which every
command runs on a pentagon's mesh.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache
from itertools import permutations
from typing import NamedTuple, Sequence

from .cwcomplex import ArityMismatch, CWComplex, _table, build_complex
from .linkage import Linkage
from .partitions import CyclicPartition

Point3 = tuple[float, float, float]


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


def _face_cycle(parts: Sequence[int]) -> list[tuple[int, ...]]:
    """The vertices of the 2-cell with these part masks (bar i is bit i-1,
    n's part last) in polygon order, each as its bars in cyclic order, bar n
    last.  A 2-cell is the product of its parts' permutohedra: a hexagon
    (one 3-part) or a square (two 2-parts).  Its cycle alternates the two
    swaps of neighbouring bars within a part, from each part's ascending
    order, starting at the least vertex toward the lesser neighbour."""
    n = parts[-1].bit_length()
    held = [(m, b) for m in parts for b in range(1, n + 1) if m >> (b - 1) & 1]
    s, t = [i for i in range(n - 1) if held[i][0] == held[i + 1][0]]
    bars, cycle = [b for _, b in held], []
    for i in (s, t) * (3 if t == s + 1 else 2):  # a 3-part's swaps have order 3
        k = bars.index(n) + 1
        cycle.append(tuple(bars[k:] + bars[:k]))
        bars[i], bars[i + 1] = bars[i + 1], bars[i]
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    return cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1]


@cache
def _face_walks() -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each 2-cell of the n = 5 table (`cwcomplex._table(5)`) by label: its
    vertex cycle, from its part columns by `_face_cycle`, and one sign per
    edge of its boundary row, +1 where the cycle walks the edge from its
    first 0-cell to its second.  Both hold in every pentagon's complex: the
    cut keeps all 24 0-cells and a kept face's edges, and renumbers the
    edges monotonically, so the face's row lists them in the table's order."""
    labels, boundary, columns = _table(5)
    # 0-cells are sorted by label string {a}{b}{c}{d}{5}, which for n=5 is
    # the lexicographic order of the permutations abcd, as the points are
    index = {(*order, 5): k for k, order in enumerate(permutations(range(1, 5)))}
    ends, walks = boundary[1], {}
    for label, row, parts in zip(labels[2], boundary[2], zip(*columns[2])):
        cycle = [index[v] for v in _face_cycle(parts)]
        after = dict(zip(cycle, cycle[1:] + cycle[:1]))  # each vertex's successor
        signs = tuple([1 if after[u] == w else -1 for u, w in map(ends.__getitem__, row)])
        walks[label] = (tuple(cycle), signs)
    return walks


def boundary_cycle(cell: CyclicPartition, complex_: CWComplex) -> list[CyclicPartition]:
    """Polygon order of a 2-cell's vertices, as labels, by `_face_cycle`.
    Raises ValueError unless the label is a 2-cell of the complex, found by
    bisection in its sorted label text."""
    labels, text = complex_.labels_by_dim, str(cell)
    faces = labels[2] if len(labels) > 2 else ()
    k = bisect_left(faces, text)
    if faces[k : k + 1] != (text,):
        raise ValueError(f"{cell} is not a 2-cell of the complex")
    masks = [sum(1 << (b - 1) for b in part) for part in cell.parts]
    return [CyclicPartition(tuple(frozenset({b}) for b in v)) for v in _face_cycle(masks)]


def perform_surgery(linkage: Linkage) -> SurfaceMesh:
    """Realize the cell complex of a pentagon as a closed polyhedral
    surface: mesh vertex, edge and face k is cell k of grade 0, 1 and 2.
    Each kept face's cycle and edge signs are read by label from
    `_face_walks`, worked out once per process for the n = 5 table's faces.
    Its faces may cross in R^3, so the surface is not claimed to be
    embedded: a prototype check of segment-triangle crossings by integer
    orientation determinants found 1, 6 and 16 crossing face pairs in the
    genus-2, -3 and -4 models (ROADMAP item 10); the repo does not check them.
    An edge not on two faces is left to `topology.analyze`."""
    if linkage.n != 5:
        raise ArityMismatch(f"surgery is defined for pentagons, got n={linkage.n}")
    complex_ = build_complex(linkage)
    cycles, signs = zip(*map(_face_walks().__getitem__, complex_.labels_by_dim[2]))
    return SurfaceMesh(complex_, permutohedron(), cycles, signs)
