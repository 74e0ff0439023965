"""Independent brute-force oracles, deliberately built on different
machinery than the package: set partitions come from restricted growth
strings, cyclic identity is "the frozenset of all rotations" instead of a
canonical rotation, and admissibility is re-derived inline from sums.

The exceptions are the package's earlier implementations, kept as the
references for the faster ones: `reference_build_complex`, the
enumerate-then-filter builder behind the bitmask one, and
`reference_complex_to_json`, the `json.dumps` writer behind the direct one.
Below them are helpers the package itself has no use for, kept here as
second routes for the tests: cyclic coarsenings, the permutation -> vertex
inverse, linear refinement and meets of ordered partitions (the
permutohedron's face order), and a complex's faces as labels.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from linkspace.cwcomplex import CWComplex, check_supported_arity
from linkspace.linkage import is_admissible_partition
from linkspace.partitions import (
    CyclicPartition,
    NotAPartition,
    canonicalize,
    enumerate_cyclic_partitions,
    one_step_refinements,
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


def reference_build_complex(linkage) -> CWComplex:
    """Build the complex by enumerating all S(n,m)*(m-1)! cyclic partitions
    per grade, filtering them with rational sums and wiring incidence through
    labelled one-step refinements."""
    n = linkage.n
    check_supported_arity(n)
    cells_by_dim = []
    for m in range(n, 2, -1):  # m parts -> dimension n - m
        labels = [
            c
            for c in enumerate_cyclic_partitions(n, m)
            if is_admissible_partition(linkage, c.parts)
        ]
        labels.sort(key=str)
        cells_by_dim.append(labels)
    assert len(cells_by_dim[0]) == factorial(n - 1)
    boundary = [[() for _ in cells_by_dim[0]]]
    for d in range(1, len(cells_by_dim)):
        below = {label: i for i, label in enumerate(cells_by_dim[d - 1])}
        boundary.append(
            [
                tuple(sorted(below[f] for f in one_step_refinements(label)))
                for label in cells_by_dim[d]
            ]
        )
    return CWComplex(linkage, cells_by_dim, boundary)


def reference_complex_to_json(complex_: CWComplex) -> str:
    cells = []
    offset = [0]
    for d in range(len(complex_.cells_by_dim) - 1):
        offset.append(offset[-1] + len(complex_.cells_by_dim[d]))
    for d, layer in enumerate(complex_.cells_by_dim):
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
        "lengths": [str(l) for l in complex_.linkage.lengths],
        "cells": cells,
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


def permutation_to_vertex(perm) -> CyclicPartition:
    """Inverse of vertex_to_permutation: append n = len(perm)+1 and close up."""
    m = len(perm)
    if sorted(perm) != list(range(1, m + 1)):
        raise NotAPartition(f"{perm!r} is not a permutation of 1..{m}")
    return CyclicPartition(
        tuple(frozenset((x,)) for x in perm) + (frozenset((m + 1,)),)
    )


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


def boundary_labels(complex_: CWComplex, label: CyclicPartition) -> list[CyclicPartition]:
    """The labels of a cell's faces, read from the complex's boundary list."""
    d, i = complex_.index_of(label)
    return [complex_.cells_by_dim[d - 1][j] for j in complex_.boundary[d][i]]


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
