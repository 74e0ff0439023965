"""Surface classification of a pentagon's complex; invariants for n != 5.

A pentagon's surface is classified from its complex (`analyze`): each
edge's faces come from the 2-cells' boundary rows, and NotAClosedSurface
refuses an edge not on exactly two of them.  This is the one closedness
check, and every command runs it on a pentagon's mesh.  One traversal of
the faces across shared edges finds each component, with its vertices,
and spreads face orientations from the mesh's edge signs so that the two
faces on an edge walk it in opposite directions; a forced contradiction
means the component is non-orientable.  Genus follows from the Euler
characteristic for orientable components.

For every other n the short-subset table alone gives the f-vector
(`cwcomplex.count_cells`) and the Betti numbers (`betti_numbers`), and no
complex is built; both give the Euler characteristic, and they must agree.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import NamedTuple

from .cwcomplex import build_complex  # not called here; perfbench's tracer test reads it
from .cwcomplex import check_supported_arity, count_cells
from .geometry import SurfaceMesh, perform_surgery
from .linkage import Linkage


class NotAClosedSurface(RuntimeError):
    """A mesh edge not on exactly two faces, or a vertex on no face or on the
    faces of two components: the theory rules out both for generic linkages."""


class ComponentReport(NamedTuple):
    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    orientable: bool | None
    genus: int | None


class TopologyReport(NamedTuple):
    component_count: int
    components: tuple[ComponentReport, ...]
    f_vector: tuple[int, ...]
    euler_characteristic: int
    classification: str


def _component_name(chi: int, orientable: bool) -> str:
    if not orientable:
        return f"non-orientable (chi={chi})"
    genus = (2 - chi) // 2
    if genus == 0:
        return "sphere"
    if genus == 1:
        return "torus"
    return f"genus-{genus} surface"


def _plural(name: str) -> str:
    if name == "torus":
        return "tori"
    if name.startswith("non-orientable"):
        return f"{name} components"
    return name + "s"


def _combine(names: list[str]) -> str:
    if len(names) == 1:
        return names[0]
    if len(set(names)) == 1:
        return f"{len(names)} {_plural(names[0])}"
    return " + ".join(sorted(names))


def _surface_report(f_vector: tuple[int, ...], components: list[ComponentReport]) -> TopologyReport:
    """The report of a closed surface with these components, named by χ and
    orientability."""
    names = [_component_name(c.euler_characteristic, c.orientable) for c in components]
    total_chi = sum(c.euler_characteristic for c in components)
    return TopologyReport(len(components), tuple(components), f_vector, total_chi, _combine(names))


def analyze(mesh: SurfaceMesh) -> TopologyReport:
    """Classify a pentagon's surface from its complex.

    Each edge's faces are read off the rows `boundary[2]` with the mesh's
    signs; an edge not on exactly two faces raises NotAClosedSurface.  One
    traversal per component crosses shared edges from face to face and
    gives each face an orientation o (+1 keeps a face's cycle, -1 reverses
    it) with o_f * s = -o_g * t on every edge, s and t its signs in faces f
    and g; a forced contradiction makes the component non-orientable.  Its
    faces give F, E and V; a vertex on no face or on two components' faces
    raises NotAClosedSurface.  Components are listed by least vertex."""
    complex_, signs = mesh.complex, mesh.signs
    edges, rows = complex_.edges, complex_.boundary[2]
    faces_of_edge: list[list[tuple[int, int]]] = [[] for _ in edges]  # (face, sign)
    for f, row, row_signs in zip(range(len(rows)), rows, signs):
        for e, s in zip(row, row_signs):
            faces_of_edge[e].append((f, s))
    for e, incidences in zip(edges, faces_of_edge):
        if len(incidences) != 2:
            raise NotAClosedSurface(f"edge {e} lies in {len(incidences)} faces, expected 2")

    f_vector = complex_.f_vector()
    owner = [-1] * f_vector[0]  # each vertex's component
    orientation = [0] * len(rows)
    components = []  # in traversal order
    for f0 in range(len(rows)):
        if orientation[f0]:
            continue
        orientation[f0], faces, orientable = 1, [f0], True
        for f in faces:  # the list grows as the traversal reaches new faces
            for e, s in zip(rows[f], signs[f]):
                (g, t), (h, u) = faces_of_edge[e]
                if g == f:
                    g, t = h, u
                required = -orientation[f] * s * t
                if not orientation[g]:
                    orientation[g] = required
                    faces.append(g)
                elif orientation[g] != required:
                    orientable = False
        vertices = {v for f in faces for e in rows[f] for v in edges[e]}
        for v in vertices:
            if owner[v] >= 0:
                raise NotAClosedSurface(f"vertex {v} lies on the faces of two components")
            owner[v] = len(components)
        edge_count = sum(len(rows[f]) for f in faces) // 2
        chi = len(vertices) - edge_count + len(faces)
        genus = (2 - chi) // 2 if orientable else None
        components.append(
            ComponentReport(len(vertices), edge_count, len(faces), chi, orientable, genus)
        )
    if -1 in owner:
        raise NotAClosedSurface(f"vertex {owner.index(-1)} lies on no face")
    return _surface_report(f_vector, [components[c] for c in dict.fromkeys(owner)])


def betti_numbers(linkage: Linkage) -> tuple[int, ...]:
    """b_0 .. b_{n-3} of the polygon space, by the Farber-Schuetz formula
    (M. Farber and D. Schuetz, Homology of planar polygon spaces, Geom.
    Dedicata 125, 2007): b_k = a_k + a_{n-3-k}, where a_k counts the short
    subsets of k + 1 bars that hold a longest bar."""
    n, short = linkage.n, linkage.short
    bit = 1 << linkage.lengths.index(max(linkage.lengths))
    size = Counter(m.bit_count() for m in range(1 << n) if m & bit and short[m])
    return tuple(size[k + 1] + size[n - 2 - k] for k in range(n - 2))  # a_k is size[k + 1]


def classify_linkage(linkage: Linkage) -> TopologyReport:
    """End-to-end pipeline: classify the linkage's moduli space.

    Pentagons get the full surface classification of their mesh.  Every
    other n builds no complex: it reports the f-vector (`count_cells`), the
    component count b_0 (`betti_numbers`) and the Euler characteristic,
    which both give.  A mismatch, a vertex count other than (n-1)!, or a
    b_0 that does not divide it raises ValueError.  A quadrilateral's space
    is b_0 circles of f_0 / b_0 vertices and as many edges each: they are
    equal, as reflection swaps the two circles of a disconnected one.
    """
    n = linkage.n
    if n == 5:
        return analyze(perform_surgery(linkage))
    check_supported_arity(n)
    f_vector, betti = count_cells(linkage), betti_numbers(linkage)
    chi, chi_b = (sum((-1) ** k * c for k, c in enumerate(v)) for v in (f_vector, betti))
    count = betti[0]
    if f_vector[0] != factorial(n - 1) or chi != chi_b or count < 1 or f_vector[0] % count:
        raise ValueError(f"f-vector {f_vector} does not fit Betti numbers {betti}")
    if n > 4:
        return TopologyReport(count, (), f_vector, chi, "unclassified (dim >= 3)")
    size = f_vector[0] // count
    circles = (ComponentReport(size, size, 0, 0, None, None),) * count
    name = "circle" if count == 1 else f"{count} circles"
    return TopologyReport(count, circles, f_vector, chi, name)
