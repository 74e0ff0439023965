"""The combinatorial cell complex of a generic linkage.

Cells of dimension k are the admissible cyclic partitions of {1..n} into
n-k parts; the boundary of a cell consists of its one-step refinements
(all of which are admissible, since refining only shrinks part sums).
Two-part labels never occur: a 2-part partition would need both parts
admissible, forcing the equal split that genericity excludes, so dimensions
run from 0 (full cyclic orders) to n-3 (three-part labels).

A part is admissible exactly when it is a short subset of the bars (its
length is below half the total), so the whole complex is fixed by one table
of the 2^n subsets (`linkage.short_subsets`).  `build_complex` works on int
bitmasks against that table: it generates only the set partitions whose
blocks are all short, and wires incidence by splitting mask parts, so no
inadmissible candidate is ever built and no rational sum is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import factorial

from .linkage import Linkage, is_admissible_partition, mask_elements, short_subsets
from .partitions import CyclicPartition, parse_partition, part_text


class ArityMismatch(ValueError):
    """Operation defined only for a specific number of bars."""


def check_supported_arity(n: int) -> None:
    """Raise ArityMismatch unless build_complex supports n bars (4..8)."""
    if not 4 <= n <= 8:
        raise ArityMismatch(f"complex construction supports 4 <= n <= 8, got n={n}")


@dataclass(frozen=True)
class Cell:
    label: CyclicPartition
    dim: int


class CWComplex:
    """Graded admissible cells with refinement incidence.

    cells_by_dim[d] lists the d-cells sorted by label string; boundary[d][i]
    holds the indices (into cells_by_dim[d-1]) of the cell's codimension-1
    faces.  Immutable after construction.  The label -> (dim, index) map
    behind has_cell and index_of is built on their first call, so a complex
    that is only written out or walked by index never builds it.
    """

    def __init__(
        self,
        linkage: Linkage,
        cells_by_dim: list[list[Cell]],
        boundary: list[list[tuple[int, ...]]],
    ):
        self.linkage = linkage
        self.cells_by_dim = tuple(tuple(cs) for cs in cells_by_dim)
        self.boundary = tuple(tuple(bs) for bs in boundary)

    @cached_property
    def _index(self) -> dict[CyclicPartition, tuple[int, int]]:
        return {
            cell.label: (d, i)
            for d, cells in enumerate(self.cells_by_dim)
            for i, cell in enumerate(cells)
        }

    @property
    def dim(self) -> int:
        return len(self.cells_by_dim) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(cs) for cs in self.cells_by_dim)

    def has_cell(self, label: CyclicPartition) -> bool:
        return label in self._index

    def index_of(self, label: CyclicPartition) -> tuple[int, int]:
        return self._index[label]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CWComplex):
            return NotImplemented
        return (
            self.linkage.lengths == other.linkage.lengths
            and self.cells_by_dim == other.cells_by_dim
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
    n last and permuting the rest, which is the canonical rotation.  Faces
    split one part p into (sub, p ^ sub) over the submasks of p.  Labels are
    materialized only for the cells kept, sorted by label string, and are
    not checked again: each is a canonical partition by construction.
    """
    n = linkage.n
    check_supported_arity(n)
    short = short_subsets(linkage)
    top = 1 << (n - 1)

    by_parts: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
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
    text = {
        m: part_text(mask_elements(m))
        for m in range(1, 1 << n)
        if short[m]
    }
    layers = by_parts[n:2:-1]  # m parts -> dimension n - m
    for layer in layers:
        layer.sort(key=lambda parts: "".join([text[p] for p in parts]))
    # Every full cyclic order is admissible (singleton parts are admissible by
    # the polygon inequality).
    assert len(layers[0]) == factorial(n - 1)

    # nonempty proper submasks of every short mask: its ways to split in two
    splits = {p: _proper_submasks(p) for p in text}
    boundary: list[list[tuple[int, ...]]] = [[() for _ in layers[0]]]
    for d in range(1, len(layers)):
        below = {parts: i for i, parts in enumerate(layers[d - 1])}
        rows = []
        for parts in layers[d]:
            front, last = parts[:-1], parts[-1]
            faces = []
            for i, p in enumerate(front):
                head, tail = parts[:i], parts[i + 1 :]
                faces += [below[head + (s, p ^ s) + tail] for s in splits[p]]
            # splitting the part that holds n: its n-free half y comes just
            # before the rest, or first once n's part is rotated last
            for y in splits[last]:
                if not y & top:
                    faces.append(below[front + (y, last ^ y)])
                    faces.append(below[(y,) + front + (last ^ y,)])
            # refinements of an admissible label are admissible, hence present
            rows.append(tuple(sorted(faces)))
        boundary.append(rows)

    part_set = {m: frozenset(mask_elements(m)) for m in text}
    make_label = CyclicPartition._from_canonical
    cells_by_dim = [
        [Cell(make_label(tuple([part_set[p] for p in parts])), d) for parts in layer]
        for d, layer in enumerate(layers)
    ]
    return CWComplex(linkage, cells_by_dim, boundary)


def _proper_submasks(mask: int) -> list[int]:
    out = []
    sub = (mask - 1) & mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def euler_characteristic(complex_: CWComplex) -> int:
    return sum((-1) ** d * len(cs) for d, cs in enumerate(complex_.cells_by_dim))


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
