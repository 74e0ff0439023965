"""The pentagon surgery: a pentagon's cell complex as a polyhedral surface.

The 4-permutohedron is the convex hull of the 24 permutations of (1,2,3,4).
A pentagon's complex is realized in three steps: place the vertices on the
4-permutohedron (cut each cyclic order at 5), keep the permutohedron facets
whose label with {5} appended is admissible, and patch in a "diagonal" face
for every admissible 2-cell whose part containing 5 is not a singleton.
`build_complex` does the last two: it cuts the complex from one table of the
permutohedron's faces and all the diagonals.  Here live the vertex placement,
one cached table of the 24 exact integer vertices in R^4 (`permutohedron`),
and the face cycles.  The points stay exact: the mesh writer
(`export._vertex_lines`) takes the one lossy step to R^3.  A 2-cell is the
product of its parts' permutohedra, so its cycle is a formula in its parts
(`_face_cycle`), worked out once per process for the table's 50 faces and
read by label (`_face_walks`).  A face's cycle, the one the mesh writer
writes, is also its orientation: `topology.analyze` reads each face's
direction along its edges off it, and checks that the result is a closed
surface.

`boundary_cycle`, a reference route for the tests that takes a
`CyclicPartition`, imports the label layer (`partitions`) in its body, so
no command loads it.  Its annotations reach `partitions` through the
package: loading this module does not import it, and
`typing.get_type_hints` resolves them once it is loaded.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from functools import cache
from itertools import permutations

import linkspace  # the package, loaded before this module: for the annotations

from .cwcomplex import ArityMismatch, CWComplex, _table, build_complex
from .linkage import Linkage, _Record

Point4 = tuple[int, int, int, int]


@cache
def permutohedron() -> tuple[Point4, ...]:
    """The 24 vertices of the 4-permutohedron, exact points of R^4, in the
    lexicographic order of the linear orders a1a2a3a4, computed once per
    process.  Vertex a1a2a3a4 has coordinate j at position a_j, so every
    point lies in the hyperplane sum(x) = 10."""
    orders = permutations(range(4))
    return tuple([tuple([order.index(a) + 1 for a in range(4)]) for order in orders])


class SurfaceMesh(_Record):
    """A pentagon's cell complex realized as a closed polyhedral surface.

    Mesh vertex, edge and face k is cell k of grade 0, 1 and 2 of `complex`.
    `points[k]` is vertex k's exact point in R^4 and `cycles[k]` lists face
    k's vertex indices in polygon order, which is also face k's orientation.
    The cycle walks exactly the edges of face k's row
    `complex.boundary[2][k]`.  The edges (`complex.edges`), the counts
    (`complex.f_vector()`) and each face's provenance are read off the
    complex.
    """

    __slots__ = ()

    def __new__(
        cls, complex: CWComplex, points: tuple[Point4, ...], cycles: tuple[tuple[int, ...], ...]
    ) -> SurfaceMesh:
        return tuple.__new__(cls, (complex, points, cycles))

    def provenances(self) -> list[str]:
        """Face k's provenance at k: 'permutohedron' for a kept facet, whose
        part holding 5 (the last part) is {5} alone; else 'diagonal'."""
        labels = self.complex.labels_by_dim[2]
        return ["permutohedron" if l.endswith("{5}") else "diagonal" for l in labels]


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
def _face_walks() -> dict[str, tuple[int, ...]]:
    """Each 2-cell of the n = 5 table (`cwcomplex._table(5)`) by label: its
    vertex cycle, from its part columns by `_face_cycle`.  It holds in every
    pentagon's complex, as the cut keeps all 24 0-cells and their order."""
    labels, _, columns = _table(5)
    # 0-cells are sorted by label string {a}{b}{c}{d}{5}, which for n=5 is
    # the lexicographic order of the permutations abcd, as the points are
    index = {(*order, 5): k for k, order in enumerate(permutations(range(1, 5)))}
    faces = zip(labels[2], zip(*columns[2]))
    return {label: tuple([index[v] for v in _face_cycle(parts)]) for label, parts in faces}


def boundary_cycle(
    cell: linkspace.partitions.CyclicPartition, complex_: CWComplex
) -> list[linkspace.partitions.CyclicPartition]:
    """Polygon order of a 2-cell's vertices, as labels, by `_face_cycle`.
    Raises ValueError unless the label is a 2-cell of the complex, found by
    bisection in its sorted label text."""
    from .partitions import CyclicPartition  # here, so that no command loads the label layer

    labels, text = complex_.labels_by_dim, str(cell)
    faces = labels[2] if len(labels) > 2 else ()
    k = bisect_left(faces, text)
    if faces[k : k + 1] != (text,):
        raise ValueError(f"{cell} is not a 2-cell of the complex")
    masks = [sum(1 << (b - 1) for b in part) for part in cell.parts]
    return [CyclicPartition(tuple(frozenset({b}) for b in v)) for v in _face_cycle(masks)]


def perform_surgery(linkage: Linkage) -> SurfaceMesh:
    """Realize the cell complex of a pentagon as a closed polyhedral
    surface: mesh vertex, edge and face k is cell k of grade 0, 1 and 2, and
    vertex k stands at the exact point `permutohedron()[k]`.  The complex is
    cut from the n = 5 table (`build_complex`), and each kept face's cycle is
    read by label from `_face_walks`; an edge not on two faces is left to
    `topology.analyze`.  Its faces may cross in the points' 3-space
    sum(x) = 10, so the surface is not claimed to be embedded: a prototype
    check of segment-triangle crossings by integer orientation determinants
    found 1, 6 and 16 crossing face pairs in the genus-2, -3 and -4 models
    (ROADMAP item 10); the repo does not check them."""
    if linkage.n != 5:
        raise ArityMismatch(f"surgery is defined for pentagons, got n={linkage.n}")
    complex_ = build_complex(linkage)
    cycles = tuple(map(_face_walks().__getitem__, complex_.labels_by_dim[2]))
    return SurfaceMesh(complex_, permutohedron(), cycles)
