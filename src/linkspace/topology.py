"""Surface classification of the assembled mesh.

Components come from union-find on the vertex graph; for a complex that
graph is its 1-skeleton, read off the 1-cells' boundary lists.
Orientability is decided by orientation propagation: walk the
face-adjacency graph, choosing a direction for each face cycle so that
every shared edge is traversed in opposite directions by its two faces; a
forced contradiction means the component is non-orientable.  Genus follows from the Euler characteristic
for orientable components.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cwcomplex import build_complex, euler_characteristic
from .geometry import SurfaceMesh, perform_surgery
from .linkage import Linkage


class NotClosed(RuntimeError):
    """An edge of the analyzed complex is not shared by exactly two faces."""


@dataclass(frozen=True)
class ComponentReport:
    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    orientable: bool | None
    genus: int | None


@dataclass(frozen=True)
class TopologyReport:
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
    endpoint pairs and face vertex cycles.  Raises NotClosed unless every
    edge lies in exactly two faces."""
    edge_id = {frozenset(e): i for i, e in enumerate(edges)}
    faces_of_edge: dict[int, list[int]] = defaultdict(list)
    for f, cycle in enumerate(faces):
        for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
            i = edge_id.get(frozenset((a, b)))
            if i is None:
                raise NotClosed(f"face {f} uses segment {a}-{b} that is not an edge")
            faces_of_edge[i].append(f)
    for i, e in enumerate(edges):
        if len(faces_of_edge[i]) != 2:
            raise NotClosed(
                f"edge {e} lies in {len(faces_of_edge[i])} faces, expected 2"
            )

    component = _components(num_vertices, edges)

    # Orientation propagation over the face-adjacency graph, per component.
    # sign[f] = +1 keeps the stored cycle direction, -1 reverses it; two
    # faces sharing an edge must traverse it in opposite directions.
    def traversal(face: int, a: int, b: int) -> int:
        cycle = faces[face]
        k = len(cycle)
        for idx in range(k):
            if cycle[idx] == a and cycle[(idx + 1) % k] == b:
                return 1
            if cycle[idx] == b and cycle[(idx + 1) % k] == a:
                return -1
        raise AssertionError(f"edge {a}-{b} not on face {face}")

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
            cycle = faces[f]
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                i = edge_id[frozenset((a, b))]
                for g in faces_of_edge[i]:
                    if g == f:
                        continue
                    required = -sign[f] * traversal(f, a, b) * traversal(g, a, b)
                    if g not in sign:
                        sign[g] = required
                        stack.append(g)
                    elif sign[g] != required:
                        orientable_of[component[faces[f0][0]]] = False

    per_v, per_e, per_f = [0] * count, [0] * count, [0] * count
    for c in component:
        per_v[c] += 1
    for a, _ in edges:
        per_e[component[a]] += 1
    for cycle in faces:
        per_f[component[cycle[0]]] += 1

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
    return classify_surface(
        len(mesh.vertices),
        [e.endpoints for e in mesh.edges],
        [f.cycle for f in mesh.faces],
    )


def _classify_curves(linkage: Linkage) -> TopologyReport:
    """n=4: the complex is a disjoint union of circles (each vertex has
    exactly two admissible adjacent merges)."""
    complex_ = build_complex(linkage)
    vertex_count = len(complex_.cells_by_dim[0])
    edges = complex_.boundary[1]
    degree = [0] * vertex_count
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    if any(d != 2 for d in degree):
        raise NotClosed("quadrilateral complex is not a union of circles")
    component = _components(vertex_count, edges)
    count = max(component) + 1
    per_v, per_e = [0] * count, [0] * count
    for c in component:
        per_v[c] += 1
    for a, _ in edges:
        per_e[component[a]] += 1
    components = tuple(
        ComponentReport(per_v[c], per_e[c], 0, 0, None, None) for c in range(count)
    )
    k = len(components)
    return TopologyReport(
        component_count=k,
        components=components,
        f_vector=complex_.f_vector(),
        euler_characteristic=0,
        classification="circle" if k == 1 else f"{k} circles",
    )


def classify_linkage(linkage: Linkage) -> TopologyReport:
    """End-to-end pipeline: build, realize, classify.

    Pentagons get the full surface classification; quadrilaterals report
    their circle decomposition; n >= 6 reports the f-vector and Euler
    characteristic only (the complex has dimension >= 3).
    """
    if linkage.n == 5:
        return analyze(perform_surgery(linkage))
    if linkage.n == 4:
        return _classify_curves(linkage)
    complex_ = build_complex(linkage)
    component = _components(len(complex_.cells_by_dim[0]), complex_.boundary[1])
    return TopologyReport(
        component_count=max(component) + 1,
        components=(),
        f_vector=complex_.f_vector(),
        euler_characteristic=euler_characteristic(complex_),
        classification="unclassified (dim >= 3)",
    )
