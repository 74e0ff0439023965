"""Surface classification of the assembled mesh; invariants for n != 5.

Closedness is checked here alone: NotAClosedSurface refuses a mesh edge not
on exactly two faces (`classify_surface`, which every command runs on a
pentagon's mesh).

Components come from union-find on the mesh's vertex graph, which is the
complex's 1-skeleton, read off the 1-cells' boundary lists (`edges`).
Orientability is decided by orientation propagation: walk the
face-adjacency graph, choosing a direction for each face cycle so that
every shared edge is traversed in opposite directions by its two faces; a
forced contradiction means the component is non-orientable.  Genus follows
from the Euler characteristic for orientable components.

For every other n the short-subset table alone gives the f-vector
(`cwcomplex.count_cells`) and the Betti numbers (`betti_numbers`), and no
complex is built; both give the Euler characteristic, and they must agree.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, NamedTuple, Sequence

from .cwcomplex import build_complex  # not called here; perfbench's tracer test reads it
from .cwcomplex import check_supported_arity, count_cells
from .geometry import SurfaceMesh, perform_surgery
from .linkage import Linkage


class NotAClosedSurface(RuntimeError):
    """A mesh edge not shared by exactly two faces, which the theory rules
    out for generic linkages."""


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


def _components(num_vertices: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Component number of each vertex of the graph, by union-find over
    `edges`; components are numbered 0, 1, ... by their smallest vertex."""
    parent = list(range(num_vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    number: dict[int, int] = {}
    return [number.setdefault(find(v), len(number)) for v in range(num_vertices)]


def _tally(component: list[int], count: int, vertices: Iterable[int]) -> list[int]:
    """How many of `vertices` (repeats counted) lie in each of `count` components."""
    out = [0] * count
    for v in vertices:
        out[component[v]] += 1
    return out


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


def classify_surface(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    faces: Sequence[Sequence[int]],
) -> TopologyReport:
    """Classify a closed polygonal 2-complex given by vertex count, edge
    endpoint pairs and face vertex cycles.  Raises NotAClosedSurface unless
    every edge lies in exactly two faces."""
    # faces_of_edge[i] and edges_of_face[f] pair each incidence with the
    # face's direction along the edge: +1 if it walks the edge as stored
    edge_id = {(min(e), max(e)): i for i, e in enumerate(edges)}
    faces_of_edge: list[list[tuple[int, int]]] = [[] for _ in edges]
    edges_of_face: list[list[tuple[int, int]]] = []
    for f, cycle in enumerate(faces):
        incidences = []
        for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
            i = edge_id.get((a, b) if a < b else (b, a))
            if i is None:
                raise NotAClosedSurface(f"face {f} uses segment {a}-{b} that is not an edge")
            direction = 1 if edges[i][0] == a else -1
            faces_of_edge[i].append((f, direction))
            incidences.append((i, direction))
        edges_of_face.append(incidences)
    for i, e in enumerate(edges):
        if len(faces_of_edge[i]) != 2:
            raise NotAClosedSurface(
                f"edge {e} lies in {len(faces_of_edge[i])} faces, expected 2"
            )

    component = _components(num_vertices, edges)

    # Orientation propagation over the face-adjacency graph, per component.
    # sign[f] = +1 keeps the stored cycle direction, -1 reverses it; two
    # faces sharing an edge must traverse it in opposite directions.
    count = max(component, default=-1) + 1
    orientable_of = [True] * count
    sign: dict[int, int] = {}
    for f0 in range(len(faces)):
        if f0 in sign:
            continue
        sign[f0] = 1
        stack = [f0]
        while stack:
            f = stack.pop()
            for i, direction in edges_of_face[f]:
                for g, other in faces_of_edge[i]:
                    if g == f:
                        continue
                    required = -sign[f] * direction * other
                    if g not in sign:
                        sign[g] = required
                        stack.append(g)
                    elif sign[g] != required:
                        orientable_of[component[faces[f0][0]]] = False

    per_v = _tally(component, count, range(num_vertices))
    per_e = _tally(component, count, (a for a, _ in edges))
    per_f = _tally(component, count, (cycle[0] for cycle in faces))

    components = []
    for c in range(count):
        v, e, f = per_v[c], per_e[c], per_f[c]
        chi = v - e + f
        orientable = orientable_of[c]
        genus = (2 - chi) // 2 if orientable else None
        components.append(
            ComponentReport(v, e, f, chi, orientable, genus)
        )
    names = [_component_name(c.euler_characteristic, c.orientable) for c in components]
    total_chi = sum(c.euler_characteristic for c in components)
    return TopologyReport(
        component_count=len(components),
        components=tuple(components),
        f_vector=(num_vertices, len(edges), len(faces)),
        euler_characteristic=total_chi,
        classification=_combine(names),
    )


def analyze(mesh: SurfaceMesh) -> TopologyReport:
    return classify_surface(len(mesh.points), mesh.complex.edges, mesh.cycles)


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
