"""The combinatorial cell complex of a generic linkage.

Cells of dimension k are the admissible cyclic partitions of {1..n} into
n-k parts; the boundary of a cell consists of its one-step refinements
(all of which are admissible, since refining only shrinks part sums).
Two-part labels never occur: a 2-part partition would need both parts
admissible, forcing the equal split that genericity excludes, so dimensions
run from 0 (full cyclic orders) to n-3 (three-part labels).

A part is admissible exactly when it is a short subset of the bars (its
length is below half the total), so the whole complex is fixed by one table
of the 2^n subsets (`linkage.short_subsets`).  A cell is stored as the tuple
of its parts' int bitmasks (bar i is bit i-1), n's part last: the canonical
rotation.  `build_complex` generates only the set partitions whose blocks
are all short, and wires incidence by merging adjacent mask parts, so no
inadmissible candidate is ever built and no rational sum is taken.  The
`CyclicPartition` labels are a view, built from the masks on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial

from .linkage import Linkage, is_admissible_partition, mask_elements, short_subsets
from .partitions import CyclicPartition, mask_texts, parse_partition

#: A cell as the bitmasks of its parts, in canonical rotation.
Masks = tuple[int, ...]


class ArityMismatch(ValueError):
    """Operation defined only for a specific number of bars."""


def check_supported_arity(n: int) -> None:
    """Raise ArityMismatch unless build_complex supports n bars (4..8)."""
    if not 4 <= n <= 8:
        raise ArityMismatch(f"complex construction supports 4 <= n <= 8, got n={n}")


class CWComplex:
    """Graded admissible cells with refinement incidence.

    masks_by_dim[d] lists the d-cells as tuples of part bitmasks (bar i is
    bit i-1, n's part last), sorted by label string; boundary[d][i] holds
    the ascending indices (into masks_by_dim[d-1]) of cell i's
    codimension-1 faces.  Immutable after construction.  Counts, equality
    and export read the masks alone.  cells_by_dim, the same cells as
    CyclicPartition labels, is built on first read, so a complex that is
    only counted, written out or walked by index builds no label.
    """

    def __init__(
        self,
        linkage: Linkage,
        masks_by_dim: list[list[Masks]],
        boundary: list[list[tuple[int, ...]]],
    ):
        self.linkage = linkage
        self.masks_by_dim = tuple(tuple(cs) for cs in masks_by_dim)
        self.boundary = tuple(tuple(bs) for bs in boundary)

    @cached_property
    def cells_by_dim(self) -> tuple[tuple[CyclicPartition, ...], ...]:
        # one frozenset per mask on n bars, shared by every label holding it
        part_set = [frozenset(mask_elements(m)) for m in range(1 << self.linkage.n)]
        make_label = CyclicPartition._from_canonical
        return tuple(
            tuple(make_label(tuple([part_set[p] for p in parts])) for parts in layer)
            for layer in self.masks_by_dim
        )

    @property
    def dim(self) -> int:
        return len(self.masks_by_dim) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(cs) for cs in self.masks_by_dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CWComplex):
            return NotImplemented
        return (
            self.linkage.lengths == other.linkage.lengths
            and self.masks_by_dim == other.masks_by_dim
            and self.boundary == other.boundary
        )

    def __repr__(self) -> str:
        return f"CWComplex(n={self.linkage.n}, f={self.f_vector()})"


def build_complex(linkage: Linkage) -> CWComplex:
    """Enumerate all admissible cyclic partitions of {1..n} grade by grade
    and wire up refinement incidence.  Supported for 4 <= n <= 8.

    Parts are int bitmasks checked against the linkage's short-subset table.
    Set partitions come from restricted growth: bar i joins an open block
    only if the block stays short, or opens a block of its own (a single bar
    is always short, by the polygon inequality).  Shortness passes to
    subsets, so this yields exactly the partitions into short blocks and
    builds no other.  Each one gives its cells by pinning the block holding
    n last and permuting the rest, which is the canonical rotation.  Each
    grade is sorted by the ranks of its parts' texts, which is the order of
    the label strings, since no part text is a prefix of another.

    Incidence is wired upward: a face's cofaces are its merges of two
    cyclically adjacent parts into a short one.  Faces are visited in index
    order, so every boundary row comes out ascending.  The result holds
    masks only; no label is built.
    """
    n = linkage.n
    check_supported_arity(n)
    short = short_subsets(linkage)
    top = 1 << (n - 1)

    by_parts: list[list[Masks]] = [[] for _ in range(n + 1)]
    blocks: list[int] = []

    def grow(i: int) -> None:
        if i == n:
            pinned = next(b for b in blocks if b & top)
            rest = [b for b in blocks if b != pinned]
            by_parts[len(blocks)].extend(a + (pinned,) for a in permutations(rest))
            return
        bit = 1 << i
        for j, b in enumerate(blocks):
            if short[b | bit]:
                blocks[j] = b | bit
                grow(i + 1)
                blocks[j] = b
        blocks.append(bit)
        grow(i + 1)
        blocks.pop()

    grow(0)
    text = mask_texts(n)
    order = sorted([m for m in range(1, 1 << n) if short[m]], key=text.__getitem__)
    rank = {m: r for r, m in enumerate(order)}.__getitem__
    layers = by_parts[n:2:-1]  # m parts -> dimension n - m
    for layer in layers:
        layer.sort(key=lambda parts: tuple(map(rank, parts)))
    # Every full cyclic order is admissible (singleton parts are admissible by
    # the polygon inequality).
    assert len(layers[0]) == factorial(n - 1)

    boundary: list[list[tuple[int, ...]]] = [[() for _ in layers[0]]]
    for d in range(1, len(layers)):
        above = {parts: i for i, parts in enumerate(layers[d])}
        rows: list[list[int]] = [[] for _ in layers[d]]
        for f, parts in enumerate(layers[d - 1]):
            last = parts[-1]
            # adjacent pairs in front of n's part, then n's part with the part
            # before it, and with the first part (rotated to keep n's last)
            for i in range(len(parts) - 2):
                merged = parts[i] | parts[i + 1]
                if short[merged]:
                    rows[above[parts[:i] + (merged,) + parts[i + 2 :]]].append(f)
            merged = parts[-2] | last
            if short[merged]:
                rows[above[parts[:-2] + (merged,)]].append(f)
            merged = parts[0] | last
            if short[merged]:
                rows[above[parts[1:-1] + (merged,)]].append(f)
        boundary.append(list(map(tuple, rows)))
    return CWComplex(linkage, layers, boundary)


def euler_characteristic(complex_: CWComplex) -> int:
    return sum((-1) ** d * c for d, c in enumerate(complex_.f_vector()))


# Facet rows for the two admissibility tables of the standard pentagon
# surgery, in their conventional order.  Step-2 rows are the 14 facets of the
# 4-permutohedron with {5} appended (rows 1-8 hexagons, 9-14 squares; row 8 is
# the reversal {2,3,4}{1}{5} of row 1 -- it is sometimes misprinted as
# {1,2,3}{1}{5}, which repeats 1 and omits 4).  Step-3 rows are the three-part
# cyclic partitions whose part containing 5 is not a singleton; the two cyclic
# arrangements of the same parts are paired per row since they are admissible
# or not together.
STEP2_ROWS: tuple[str, ...] = (
    "{1}{2,3,4}{5}",
    "{2}{1,3,4}{5}",
    "{3}{1,2,4}{5}",
    "{4}{1,2,3}{5}",
    "{1,2,3}{4}{5}",
    "{1,2,4}{3}{5}",
    "{1,3,4}{2}{5}",
    "{2,3,4}{1}{5}",
    "{1,2}{3,4}{5}",
    "{3,4}{1,2}{5}",
    "{1,3}{2,4}{5}",
    "{2,4}{1,3}{5}",
    "{1,4}{2,3}{5}",
    "{2,3}{1,4}{5}",
)

STEP3_ROWS: tuple[tuple[str, str], ...] = (
    ("{3}{4}{1,2,5}", "{4}{3}{1,2,5}"),
    ("{2}{4}{1,3,5}", "{4}{2}{1,3,5}"),
    ("{2}{3}{1,4,5}", "{3}{2}{1,4,5}"),
    ("{1}{4}{2,3,5}", "{4}{1}{2,3,5}"),
    ("{1}{3}{2,4,5}", "{3}{1}{2,4,5}"),
    ("{1}{2}{3,4,5}", "{2}{1}{3,4,5}"),
    ("{3,4}{2}{1,5}", "{2}{3,4}{1,5}"),
    ("{2,4}{3}{1,5}", "{3}{2,4}{1,5}"),
    ("{2,3}{4}{1,5}", "{4}{2,3}{1,5}"),
    ("{3,4}{1}{2,5}", "{1}{3,4}{2,5}"),
    ("{1,4}{3}{2,5}", "{3}{1,4}{2,5}"),
    ("{1,3}{4}{2,5}", "{4}{1,3}{2,5}"),
    ("{2,4}{1}{3,5}", "{1}{2,4}{3,5}"),
    ("{1,4}{2}{3,5}", "{2}{1,4}{3,5}"),
    ("{1,2}{4}{3,5}", "{4}{1,2}{3,5}"),
    ("{2,3}{1}{4,5}", "{1}{2,3}{4,5}"),
    ("{1,3}{2}{4,5}", "{2}{1,3}{4,5}"),
    ("{1,2}{3}{4,5}", "{3}{1,2}{4,5}"),
)


@dataclass(frozen=True)
class MembershipTable:
    """Admissibility of the step-2 and step-3 face labels per linkage."""

    columns: tuple[str, ...]
    step2: tuple[tuple[str, tuple[bool, ...]], ...]
    step3: tuple[tuple[tuple[str, str], tuple[bool, ...]], ...]


def facet_membership_table(
    linkages: list[Linkage], columns: list[str] | None = None
) -> MembershipTable:
    """Evaluate the fixed step-2/step-3 row labels against each pentagon."""
    for l in linkages:
        if l.n != 5:
            raise ArityMismatch(f"facet tables are defined for n=5, got n={l.n}")
    if columns is None:
        columns = [f"({l.spec()})" for l in linkages]
    step2 = tuple(
        (
            row,
            tuple(
                is_admissible_partition(l, parse_partition(row).parts)
                for l in linkages
            ),
        )
        for row in STEP2_ROWS
    )
    step3 = []
    for row in STEP3_ROWS:
        a, b = (parse_partition(s) for s in row)
        values = []
        for l in linkages:
            va = is_admissible_partition(l, a.parts)
            vb = is_admissible_partition(l, b.parts)
            assert va == vb  # same parts, different cyclic order
            values.append(va)
        step3.append((row, tuple(values)))
    return MembershipTable(tuple(columns), step2, tuple(step3))
