"""Independent brute-force oracles, deliberately built on different
machinery than the package: set partitions come from restricted growth
strings, cyclic identity is "the frozenset of all rotations" instead of a
canonical rotation, and admissibility is re-derived inline from sums.

The exceptions are the package's earlier implementations, kept as the
references for the faster ones: `reference_build_complex`, the
enumerate-then-filter builder behind the bitmask one,
`reference_complex_to_json` and `reference_report_to_json`, the
`json.dumps` writers behind the direct ones, `classify_surface`, the
mesh-level surface classifier behind `topology.analyze`, whose components
come from union-find over the 1-skeleton (`oracle_components`) where
`analyze` traverses the faces, `walk_cycle`, the
walk of a face's boundary graph behind the face-cycle formula
(`geometry._face_cycle`), with its refusals (`NotACycle`),
`is_admissible_part`, the rational-sum predicate behind the short-subset
table, with the `Fraction` view of a linkage it sums (`fraction_lengths`,
`part_sum`), `oracle_linkage_error`, make_linkage's three refusals formatted
from `Fraction`s, behind its integer weights, and `oracle_parser`, the
argparse parser behind linkctl's own reading of its argv, and `RATIONAL`,
`NEGATIVE` and `HEADER`, the regular expressions behind the string-method
readers of the length grammar (`oracle_ratio`), argparse's negative-number
test and the loader's header (`oracle_header_tokens`).  Below them are
helpers the package itself has no use for, kept here as second routes for
the tests: a complex's cells parsed from its
label text (`cells_by_dim`), the walls of a spec whose eps varies
(`eps_walls`), the facet tables' membership read from the cut, cyclic
coarsenings, reading a cyclic order as a sequence or a
permutation and back, a label's part holding a bar, the permutohedron's
face lattice with linear refinement and meets of ordered partitions (its
face order), and a complex's top dimension and its or a mesh's faces as
labels.
"""

import argparse
import json
import re
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from math import factorial
from typing import Iterable, Sequence

from linkspace.cwcomplex import CWComplex, build_complex, check_supported_arity
from linkspace.linkage import (
    Linkage,
    MAX_TOKEN,
    LinkageError,
    NonGeneric,
    NonPositiveLength,
    ViolatesPolygonInequality,
    is_admissible_partition,
)
from linkspace.partitions import (
    CyclicPartition,
    InvalidArity,
    NotAPartition,
    canonicalize,
    enumerate_cyclic_partitions,
    one_step_refinements,
    parse_partition,
)
from linkspace.topology import (
    ComponentReport,
    NotAClosedSurface,
    TopologyReport,
    _surface_report,
)

Parts = tuple[frozenset[int], ...]


def oracle_set_partitions(n: int):
    """All set partitions of {1..n}, via restricted growth strings."""
    for tail in product(range(n), repeat=n - 1):
        codes = (0,) + tail
        top = 0
        ok = True
        for c in codes:
            if c > top + 1:
                ok = False
                break
            top = max(top, c)
        if not ok:
            continue
        blocks = [frozenset(i + 1 for i, c in enumerate(codes) if c == b)
                  for b in range(max(codes) + 1)]
        yield blocks


def rotation_class(parts: Parts) -> frozenset[Parts]:
    """Identity of a cyclic arrangement: the set of all its rotations."""
    m = len(parts)
    return frozenset(parts[k:] + parts[:k] for k in range(m))


def oracle_admissible(lengths, parts) -> bool:
    total = sum((Fraction(l) for l in lengths), Fraction(0))
    return all(
        2 * sum((Fraction(lengths[i - 1]) for i in p), Fraction(0)) <= total
        for p in parts
    )


def oracle_cells(lengths) -> dict[int, set[frozenset[Parts]]]:
    """All admissible cyclic partitions keyed by cell dimension n - m."""
    n = len(lengths)
    cells: dict[int, set[frozenset[Parts]]] = {}
    for blocks in oracle_set_partitions(n):
        m = len(blocks)
        if m < 3 or not oracle_admissible(lengths, blocks):
            continue
        dim = n - m
        bucket = cells.setdefault(dim, set())
        for arrangement in permutations(blocks):
            bucket.add(rotation_class(tuple(arrangement)))
    return cells


def oracle_f_vector(lengths) -> tuple[int, ...]:
    """Cells per dimension n - m, counted without listing one: each set
    partition of {1..n} into m short blocks has (m-1)! cyclic arrangements,
    all admissible.  Partitions are found by choosing, again and again, the
    block that holds the smallest bar not yet placed."""
    lengths = [Fraction(l) for l in lengths]
    n, total = len(lengths), sum(lengths)
    blocks = Counter()  # number of blocks -> partitions into short blocks

    def place(rest: tuple[int, ...], m: int) -> None:
        if not rest:
            blocks[m] += 1
            return
        first, others = rest[0], rest[1:]
        for k in range(len(others) + 1):
            for mates in combinations(others, k):
                if 2 * (lengths[first] + sum(lengths[i] for i in mates)) < total:
                    place(tuple(i for i in others if i not in mates), m + 1)

    place(tuple(range(n)), 0)
    return tuple(blocks[m] * factorial(m - 1) for m in range(n, 2, -1))


def oracle_betti_numbers(lengths) -> tuple[int, ...]:
    """b_0 .. b_{n-3} by the Farber-Schuetz formula, b_k = a_k + a_{n-3-k},
    where a_k counts the short subsets of k + 1 bars holding a longest bar;
    here the subsets are listed by size and their sums taken as Fractions."""
    lengths = [Fraction(l) for l in lengths]
    n, total = len(lengths), sum(lengths)
    longest = lengths.index(max(lengths))
    others = [i for i in range(n) if i != longest]
    a = [
        sum(
            2 * (lengths[longest] + sum(lengths[i] for i in mates)) < total
            for mates in combinations(others, k)
        )
        for k in range(n - 2)
    ]
    return tuple(a[k] + a[n - 3 - k] for k in range(n - 2))


def oracle_components(num_vertices: int, edges) -> list[int]:
    """The root of each vertex's component in a graph, by union-find over
    its edges."""
    parent = list(range(num_vertices))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        parent[root(a)] = root(b)
    return [root(v) for v in range(num_vertices)]


def oracle_component_count(num_vertices: int, edges) -> int:
    """Connected components of a graph, by union-find over its edges."""
    return len(set(oracle_components(num_vertices, edges)))


def euler_characteristic(f_vector) -> int:
    """The alternating sum of a complex's cells per dimension."""
    return sum((-1) ** d * c for d, c in enumerate(f_vector))


def classify_surface(num_vertices: int, edges, faces) -> TopologyReport:
    """Classify a closed polygonal 2-complex given by vertex count, edge
    endpoint pairs and face vertex cycles: the mesh-level second route
    behind `topology.analyze`, which reads the complex's face rows and
    signs instead.  Each face's edges are found by looking up its cycle's
    vertex pairs, and its direction along each by comparing with the edge
    as stored.  Raises NotAClosedSurface unless every edge lies in exactly
    two faces."""
    # faces_of_edge[i] and edges_of_face[f] pair each incidence with the
    # face's direction along the edge: +1 if it walks the edge as stored
    edge_id = {(min(e), max(e)): i for i, e in enumerate(edges)}
    faces_of_edge = [[] for _ in edges]
    edges_of_face = []
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

    # components numbered 0, 1, ... by their smallest vertex
    number = {}
    component = [
        number.setdefault(r, len(number)) for r in oracle_components(num_vertices, edges)
    ]

    # Orientation propagation over the face-adjacency graph, per component.
    # sign[f] = +1 keeps the stored cycle direction, -1 reverses it; two
    # faces sharing an edge must traverse it in opposite directions.
    count = len(number)
    orientable_of = [True] * count
    sign = {}
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

    per_v = Counter(component)
    per_e = Counter(component[a] for a, _ in edges)
    per_f = Counter(component[cycle[0]] for cycle in faces)
    components = []
    for c in range(count):
        chi = per_v[c] - per_e[c] + per_f[c]
        orientable = orientable_of[c]
        genus = (2 - chi) // 2 if orientable else None
        components.append(
            ComponentReport(per_v[c], per_e[c], per_f[c], chi, orientable, genus)
        )
    return _surface_report((num_vertices, len(edges), len(faces)), components)


class EmptySubset(LinkageError):
    pass


def fraction_lengths(linkage: Linkage) -> tuple[Fraction, ...]:
    """The linkage's lengths as `Fraction`s: bar i is weights[i-1] / denominator."""
    return tuple(Fraction(w, linkage.denominator) for w in linkage.weights)


def part_sum(linkage: Linkage, indices: Iterable[int]) -> Fraction:
    """The total length of the bars in `indices`, as a Fraction."""
    return Fraction(sum(linkage.weights[i - 1] for i in indices), linkage.denominator)


def is_admissible_part(linkage: Linkage, part: Iterable[int]) -> bool:
    """True iff the bars indexed by `part` are collectively no longer than
    the remaining bars, by their rational sums: the reference for the
    short-subset table `Linkage.short`.

    Genericity rules out equality, so <= and < agree here.
    """
    s = frozenset(part)
    if not s:
        raise EmptySubset("admissibility is undefined for the empty subset")
    ground = frozenset(range(1, linkage.n + 1))
    if not s <= ground:
        raise LinkageError(f"indices {sorted(s)} out of range 1..{linkage.n}")
    return part_sum(linkage, s) <= part_sum(linkage, ground - s)


def oracle_linkage_error(lengths: Sequence[Fraction]) -> tuple[type, str] | None:
    """The refusal make_linkage gives three or more `lengths`, as its type
    and message, worked out and formatted from the Fractions themselves;
    None for a valid linkage.  The first non-positive length is refused,
    else the smallest, then lexicographically first, subset weighing half
    the total, else a bar at least as long as the rest."""
    for i, l in enumerate(lengths, 1):
        if l <= 0:
            return NonPositiveLength, f"length {i} is {l}; all lengths must be > 0"
    total = sum(lengths)
    for size in range(1, len(lengths)):
        for subset in combinations(range(1, len(lengths) + 1), size):
            if 2 * sum(lengths[i - 1] for i in subset) == total:
                return NonGeneric, (
                    f"subset {{{','.join(map(str, subset))}}} sums to half the total length"
                    f" ({total / 2}); the linkage admits a collinear configuration"
                )
    longest = max(lengths)
    if 2 * longest >= total:
        message = f"longest bar {longest} is >= sum of the rest {total - longest}"
        return ViolatesPolygonInequality, message
    return None


#: A length token: an optional sign, then D, D/D, D.D, D. or .D, where D is
#: ASCII digits.  Group 1 holds a signed D, and group 2 the D after '/'; a
#: decimal matches neither.
RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?|[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)")

#: argparse's test for a negative number, which it reads as a positional:
#: \d is any Unicode decimal digit, and $ also matches before a final '\n'
NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")

#: The header `complex_to_json` writes, up to its cells, for any number of
#: lengths; group 1 holds the length lines.
HEADER = re.compile(
    r'\{\n  "schema": 1,\n  "n": \d+,\n  "lengths": \[\n'
    r'((?:    "[^"\n]*",\n)*    "[^"\n]*")\n  \],\n  "cells": \['
)


def oracle_ratio(token: str, name: str = "length") -> tuple[int, int] | str:
    """The length grammar by `RATIONAL`: the stripped token's value as the
    numerator and denominator of its Fraction, or the message of its
    refusal, which calls it `name` and quotes its repr cut to 200
    characters and '...'."""
    token = token.strip()
    if len(token) > MAX_TOKEN:
        return f"{name} {token[:20]!r}... is over {MAX_TOKEN} characters"
    match = RATIONAL.fullmatch(token)
    if match and (match[2] is None or int(match[2])):
        value = Fraction(token)
        return value.numerator, value.denominator
    quoted = repr(token) if len(repr(token)) <= 200 else repr(token)[:200] + "..."
    fault = "its denominator is 0" if match else "not an integer, fraction or decimal"
    return f"cannot parse {name} {quoted}: {fault}"


def oracle_header_tokens(text: str) -> list[str] | None:
    """The length tokens of the writer's header at the start of `text`, by
    `HEADER`, or None if it has none."""
    header = HEADER.match(text)
    return re.findall(r'"([^"]*)"', header[1]) if header else None


def eps_walls(spec: str) -> list[Fraction]:
    """Every eps > 0, in increasing order, at which some subset of the bars
    of `spec` (its `eps` tokens standing for eps) weighs exactly half the
    total.  Each length is c + d*eps, so each subset's weight minus its
    complement's is affine in eps and changes sign only at its root: the
    short table, and so the chamber, is constant between two walls, and
    on (0, e*) below the first.  A spec with no eps token has no walls."""
    terms = [(Fraction(0), 1) if t == "eps" else (Fraction(t), 0) for t in spec.split(",")]
    walls = set()
    for signs in product((1, -1), repeat=len(terms)):  # +1 in the subset, -1 outside
        c = sum(sign * c_i for sign, (c_i, _) in zip(signs, terms))
        d = sum(sign * d_i for sign, (_, d_i) in zip(signs, terms))
        if not c and not d:
            raise ValueError(f"a subset of {spec} weighs half the total at every eps")
        if d and -c / d > 0:
            walls.add(-c / d)
    return sorted(walls)


def cells_by_dim(complex_: CWComplex) -> tuple[tuple[CyclicPartition, ...], ...]:
    """A complex's cells as CyclicPartition labels, parsed from its label
    text.  The tests read the same complexes' cells many times, so the parse
    is cached by the text."""
    return _parse_grades(tuple(map(tuple, complex_.labels_by_dim)))


@lru_cache(maxsize=32)
def _parse_grades(labels_by_dim: tuple[tuple[str, ...], ...]):
    return tuple(tuple(map(parse_partition, labels)) for labels in labels_by_dim)


def membership(linkages: Iterable[Linkage], rows: Iterable[str]) -> list[tuple[bool, ...]]:
    """Per row label, whether each linkage's complex has it as a 2-cell: the
    facet tables' values as `linkctl tables` reads them from the cut."""
    faces = [set(build_complex(l).labels_by_dim[2]) for l in linkages]
    return [tuple(row in kept for kept in faces) for row in rows]


def reference_build_complex(linkage) -> tuple[CWComplex, list[list[CyclicPartition]]]:
    """Build the complex by enumerating all S(n,m)*(m-1)! cyclic partitions
    per grade, filtering them with rational sums and wiring incidence through
    labelled one-step refinements.  The cells are stored as label text, as
    the package stores them, written by the enumerated labels' own `str`, so
    comparing labels with the package's checks its label column.  Returns
    the complex and, beside it, the enumerated labels by dimension, so that
    comparing them with the package's parsed text checks that text against
    labels the package did not write."""
    n = linkage.n
    check_supported_arity(n, "complex construction")
    enumerated = []
    for m in range(n, 2, -1):  # m parts -> dimension n - m
        labels = [
            c
            for c in enumerate_cyclic_partitions(n, m)
            if is_admissible_partition(linkage, c.parts)
        ]
        labels.sort(key=str)
        enumerated.append(labels)
    assert len(enumerated[0]) == factorial(n - 1)
    boundary = [[() for _ in enumerated[0]]]
    for d in range(1, len(enumerated)):
        below = {label: i for i, label in enumerate(enumerated[d - 1])}
        boundary.append(
            [
                tuple(sorted(below[f] for f in one_step_refinements(label)))
                for label in enumerated[d]
            ]
        )
    texts = tuple(tuple(str(label) for label in labels) for labels in enumerated)
    return CWComplex(linkage, texts, tuple(map(tuple, boundary))), enumerated


def label_masks(label: CyclicPartition) -> tuple[int, ...]:
    """A label as a complex stores it: one bitmask per part, bar i at bit
    i-1, in the label's canonical order."""
    return tuple(sum(1 << (x - 1) for x in part) for part in label.parts)


def reference_complex_to_json(complex_: CWComplex) -> str:
    cells = []
    offset = [0]
    for d in range(len(complex_.labels_by_dim) - 1):
        offset.append(offset[-1] + len(complex_.labels_by_dim[d]))
    for d, layer in enumerate(cells_by_dim(complex_)):
        for i, label in enumerate(layer):
            cells.append(
                {
                    "dim": d,
                    "label": str(label),
                    "boundary": [offset[d - 1] + j for j in complex_.boundary[d][i]]
                    if d > 0
                    else [],
                }
            )
    doc = {
        "schema": 1,
        "n": complex_.linkage.n,
        "lengths": [str(l) for l in fraction_lengths(complex_.linkage)],
        "cells": cells,
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_report_to_json(report, linkage) -> str:
    single = report.components[0] if len(report.components) == 1 else None
    doc = {
        "schema": 1,
        "lengths": [str(l) for l in fraction_lengths(linkage)],
        "f_vector": list(report.f_vector),
        "component_count": report.component_count,
        "components": [
            {
                "chi": c.euler_characteristic,
                "orientable": c.orientable,
                "genus": c.genus,
            }
            for c in report.components
        ],
        "chi": report.euler_characteristic,
        "orientable": single.orientable if single else None,
        "genus": single.genus if single else None,
        "classification": report.classification,
    }
    return json.dumps(doc, indent=2) + "\n"


class GroundSetMismatch(ValueError):
    """oracle_refines was asked to compare partitions of different sets."""


class TooCoarse(ValueError):
    """Raised when merging parts of a partition that has fewer than 3."""


def oracle_refines(fine: Parts, coarse: Parts) -> bool:
    """Cyclic refinement by exhaustion over rotations and block cuts."""
    if sum(map(len, fine)) != sum(map(len, coarse)):
        raise GroundSetMismatch(f"ground sets differ: {fine} vs {coarse}")
    m, k = len(fine), len(coarse)
    if m < k:
        return False
    for r in range(m):
        rot = fine[r:] + fine[:r]
        for cuts in _compositions(m, k):
            blocks = []
            idx = 0
            for size in cuts:
                blocks.append(frozenset().union(*rot[idx : idx + size]))
                idx += size
            if rotation_class(tuple(blocks)) == rotation_class(coarse):
                if tuple(blocks) in [coarse[j:] + coarse[:j] for j in range(k)]:
                    return True
    return False


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def rotations(c: CyclicPartition) -> list[Parts]:
    m = len(c.parts)
    return [c.parts[k:] + c.parts[:k] for k in range(m)]


def coarsenings(c: CyclicPartition) -> list[CyclicPartition]:
    """All cyclic partitions obtained by merging two cyclically adjacent
    parts of c; exactly num_parts of them when num_parts >= 3."""
    m = c.num_parts
    if m < 3:
        raise TooCoarse(f"cannot merge parts of {c}: only {m} parts")
    out = []
    seen = set()
    for rot in rotations(c):
        merged = (rot[0] | rot[1],) + rot[2:]
        cp = canonicalize(merged)
        if cp not in seen:
            seen.add(cp)
            out.append(cp)
    return out


def is_cyclic_order(label: CyclicPartition) -> bool:
    """True iff every part is a singleton (a full cyclic ordering)."""
    return all(len(p) == 1 for p in label.parts)


def element_sequence(label: CyclicPartition) -> tuple[int, ...]:
    """The elements read around the canonical rotation (singletons only)."""
    if not is_cyclic_order(label):
        raise InvalidArity(f"{label} has non-singleton parts")
    return tuple(next(iter(p)) for p in label.parts)


def part_containing(label: CyclicPartition, x: int) -> frozenset[int]:
    for p in label.parts:
        if x in p:
            return p
    raise KeyError(x)


def vertex_to_permutation(v: CyclicPartition) -> tuple[int, ...]:
    """Cut a full cyclic order at n and drop n, giving a linear order of
    {1..n-1}; a bijection between cyclic orders of {1..n} and S_{n-1}."""
    return element_sequence(v)[:-1]


def permutation_to_vertex(perm) -> CyclicPartition:
    """Inverse of vertex_to_permutation: append n = len(perm)+1 and close up."""
    m = len(perm)
    if sorted(perm) != list(range(1, m + 1)):
        raise NotAPartition(f"{perm!r} is not a permutation of 1..{m}")
    return CyclicPartition(
        tuple(frozenset((x,)) for x in perm) + (frozenset((m + 1,)),)
    )


class PermutohedronLattice:
    """Face lattice of the m-permutohedron, graded by dimension.

    A face of dimension d is an ordered partition of {1..m} into m-d parts;
    faces_by_dim[d] lists them sorted by label string, and boundary[d][i]
    holds the ascending indices of face i's codimension-1 faces, the ordered
    partitions that split one of its parts into two consecutive ones.  The
    top entry (dimension m-1) is the polytope itself.
    """

    def __init__(self, m: int):
        self.m = m
        by_count: dict[int, list[Parts]] = {}
        for blocks in oracle_set_partitions(m):
            by_count.setdefault(len(blocks), []).extend(permutations(blocks))
        self.faces_by_dim = [sorted(by_count[m - d], key=_ordered_text) for d in range(m)]
        self.vertices, self.edges = self.faces_by_dim[0], self.faces_by_dim[1]
        self.facets = self.faces_by_dim[m - 2]
        self.boundary = [[() for _ in self.vertices]]
        for below, faces in zip(self.faces_by_dim, self.faces_by_dim[1:]):
            index = {f: i for i, f in enumerate(below)}
            self.boundary.append([tuple(sorted(index[s] for s in _splits(f))) for f in faces])


def _ordered_text(parts: Parts) -> str:
    return "".join("{" + ",".join(map(str, sorted(p))) + "}" for p in parts)


def _splits(face: Parts):
    """The ordered partitions that split one part of `face` into two
    consecutive nonempty ones."""
    for i, part in enumerate(face):
        elems = sorted(part)
        for bits in range(1, 2 ** len(elems) - 1):
            x = frozenset(e for j, e in enumerate(elems) if bits >> j & 1)
            yield face[:i] + (x, part - x) + face[i + 1 :]


def ordered_refines(fine: Parts, coarse: Parts) -> bool:
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


def common_refinement(p: Parts, q: Parts) -> Parts | None:
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


def complex_dim(complex_: CWComplex) -> int:
    """The top dimension of a complex."""
    return len(complex_.labels_by_dim) - 1


def index_of(complex_: CWComplex, label: CyclicPartition) -> tuple[int, int]:
    """(dim, index) of a labelled cell of the complex."""
    d = label.n - label.num_parts
    return d, cells_by_dim(complex_)[d].index(label)


def boundary_labels(complex_: CWComplex, label: CyclicPartition) -> list[CyclicPartition]:
    """The labels of a cell's faces, read from the complex's boundary list."""
    d, i = index_of(complex_, label)
    return [cells_by_dim(complex_)[d - 1][j] for j in complex_.boundary[d][i]]


class NotACycle(RuntimeError):
    """The boundary graph of a would-be 2-cell is not a single simple cycle."""


def walk_cycle(labels_by_dim: Sequence[Sequence[str]], boundary: Sequence, i: int) -> list[int]:
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


def mesh_faces(mesh):
    """A mesh's faces as (label, vertex cycle, provenance) triples, face k
    labelled by the complex's 2-cell k."""
    labels = cells_by_dim(mesh.complex)[2]
    return list(zip(labels, mesh.cycles, mesh.provenances()))


def parse_obj(text: str):
    """Minimal OBJ reader: vertex coordinate triples and 0-based face loops."""
    vertices, faces = [], []
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "v":
            vertices.append(tuple(float(x) for x in fields[1:4]))
        elif fields[0] == "f":
            faces.append(tuple(int(x) - 1 for x in fields[1:]))
    return vertices, faces


def is_watertight(faces) -> bool:
    """Every undirected boundary segment is used by exactly two faces."""
    count = Counter()
    for cycle in faces:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            count[frozenset((a, b))] += 1
    return bool(count) and all(c == 2 for c in count.values())


LENGTHS_HELP = "comma-separated rational lengths, e.g. 1,1,1,1/100,2 (eps = epsilon)"


@cache
def oracle_parser() -> argparse.ArgumentParser:
    """The linkctl argument parser, built on the first call and then reused:
    parse_args leaves it unchanged, and main runs once per request."""
    parser = argparse.ArgumentParser(
        prog="linkctl",
        description="moduli spaces of planar polygonal linkages: "
        "cell complexes, polyhedral models, surface types",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command that takes lengths
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("lengths", help=LENGTHS_HELP)
    common.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    common.add_argument("--epsilon", default=None, help="value for eps tokens (default 1/100)")

    classify = sub.add_parser("classify", parents=[common], help="surface type of the moduli space")
    classify.add_argument("--format", choices=["text", "json"], default="text")

    complex_ = sub.add_parser("complex", parents=[common], help="export the cell complex as JSON")
    complex_.add_argument("--format", choices=["json"], default="json")

    mesh = sub.add_parser(
        "mesh", parents=[common], help="export the polyhedral model (pentagons only)"
    )
    mesh.add_argument("--format", choices=["obj", "ply"], default="obj")
    mesh.add_argument("--triangulate", action="store_true", help="fan-triangulate faces")

    check = sub.add_parser("check", help="load a complex JSON document and report its first fault")
    check.add_argument("file", help="the document, or - for stdin")

    sub.add_parser("tables", help="facet admissibility tables for the six standard pentagons")
    sub.add_parser("verify", help="check the six standard pentagons against their known types")
    return parser
