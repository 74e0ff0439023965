"""The combinatorial cell complex of a generic linkage.

Cells of dimension k are the admissible cyclic partitions of {1..n} into
n-k parts; the boundary of a cell consists of its one-step refinements
(all of which are admissible, since refining only shrinks part sums).
Two-part labels never occur: a 2-part partition would need both parts
admissible, forcing the equal split that genericity excludes, so dimensions
run from 0 (full cyclic orders) to n-3 (three-part labels).

A part is admissible exactly when it is a short subset of the bars (its
length is below half the total), so the whole complex is fixed by one table
of the 2^n subsets (`Linkage.short`).  A cell is stored as the tuple
of its parts' int bitmasks (bar i is bit i-1), n's part last: the canonical
rotation.  `build_complex` walks prefixes of short parts in label-text
order, so it builds only admissible cells, each grade already in label
order, and takes no rational sum.  It wires each grade to the next through
the order-preserving match between a split of a part and its merge: the
faces holding a split (a, b) at positions p, p + 1 correspond, in index
order, to the cofaces holding a | b at p, so incidence is wired by zipping
index buckets.  The 1-skeleton (`CWComplex.edges`), which every command
that builds a complex reads, is wired at build, and each grade above it
when first read; both run with the cyclic garbage collector paused, as
they build no cycle.  `count_cells` counts the cells without building
one, which is all `classify` needs for n >= 6.  Label
text is written from masks in one place, `CWComplex.labels`, so no command
builds a CyclicPartition; `CWComplex.cells_by_dim`, a view for the tests
and the benchmark, builds them on first read.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from functools import cached_property
from math import factorial

from .linkage import Linkage, mask_elements
from .partitions import CyclicPartition, mask_texts

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
    bit i-1, n's part last), sorted by label string; `labels(d)` writes their
    text.  boundary[d][i] holds the ascending indices (into masks_by_dim[d-1])
    of cell i's codimension-1 faces.  The cells never change.  `edges`,
    boundary[1] or the 1-skeleton, is wired at construction; given no
    `boundary` (as from `build_complex`), the grades above it are wired on
    its first read.  Counts read the masks alone, while equality and export
    read every row.  cells_by_dim, the same cells as CyclicPartition labels,
    is built on first read through the checking constructor; no command
    reads it, so it serves only the tests and the benchmark.
    """

    def __init__(
        self,
        linkage: Linkage,
        masks_by_dim: list[list[Masks]],
        boundary: list[list[tuple[int, ...]]] | None = None,
    ):
        self.linkage = linkage
        self.masks_by_dim = tuple(tuple(cs) for cs in masks_by_dim)
        if boundary is not None:
            self.boundary = tuple(tuple(bs) for bs in boundary)
        self.edges = self._rows(1) if boundary is None else self.boundary[1]

    @cached_property
    def boundary(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        with _collector_paused():
            above = [self._rows(d) for d in range(2, len(self.masks_by_dim))]
        return (((),) * len(self.masks_by_dim[0]), self.edges, *above)

    def _rows(self, d: int) -> tuple[tuple[int, ...], ...]:
        """Wire the boundary rows of grade d from the masks."""
        faces, cofaces = self.masks_by_dim[d - 1 : d + 1]
        return tuple(_wire(self.linkage.n, self.linkage.short, faces, cofaces))

    @cached_property
    def cells_by_dim(self) -> tuple[tuple[CyclicPartition, ...], ...]:
        # one frozenset per mask on n bars, shared by every label holding it
        part_set = [frozenset(mask_elements(m)) for m in range(1 << self.linkage.n)]
        return tuple(
            tuple(CyclicPartition(tuple([part_set[p] for p in parts])) for parts in layer)
            for layer in self.masks_by_dim
        )

    def labels(self, d: int) -> list[str]:
        """Grade d's cells as label text, written from their part masks."""
        texts = mask_texts(self.linkage.n)
        return ["".join([texts[p] for p in parts]) for parts in self.masks_by_dim[d]]

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
    The cells come from one walk over prefixes of parts, taken level by
    level: each step appends one short part of the bars below n not yet
    used, trying the candidates in label-text order, and a prefix whose
    remaining bars plus n form a short part ends a cell with that part last
    (the canonical rotation).  Shortness passes to subsets, so every prefix
    extends to a cell, and the walk builds exactly the admissible cells.  No
    part text is a prefix of another, so label order is the order of the
    parts' texts, position by position: the walk keeps each level in that
    order, and every grade comes out sorted without a sort.

    The result holds masks only, and no label is built.  Its `edges` are
    wired here and each grade above on the first read of `boundary`, so
    `classify` of a quadrilateral wires one grade; wiring zips index buckets
    (see `_wire`), and no tuple is built or looked up per incidence.  The walk
    and all wiring run with the cyclic collector paused (`_collector_paused`).
    """
    n = linkage.n
    check_supported_arity(n)
    short = linkage.short
    top = 1 << (n - 1)
    parts = sorted(filter(short.__getitem__, range(1, top)), key=mask_texts(n).__getitem__)
    # the short parts of each set of unused bars below n, in text order
    fits = [[m for m in parts if m & unused == m] for unused in range(top)]

    with _collector_paused():
        layers: list[list[Masks]] = []  # by part count, 3 parts first
        prefixes: list[Masks] = [()]
        unused = [top - 1]
        for k in range(1, n):
            prefixes = [pre + (m,) for pre, u in zip(prefixes, unused) for m in fits[u]]
            unused = [u ^ m for u in unused for m in fits[u]]
            if k >= 2:  # two-part cells never occur: both parts short breaks genericity
                layers.append(
                    [pre + (u | top,) for pre, u in zip(prefixes, unused) if short[u | top]]
                )
        layers.reverse()  # m parts -> dimension n - m
        # Every full cyclic order is admissible (singleton parts are admissible by
        # the polygon inequality).
        assert len(layers[0]) == factorial(n - 1)
        return CWComplex(linkage, layers)


def count_cells(linkage: Linkage) -> tuple[int, ...]:
    """The f-vector of `build_complex(linkage)`, with no cell built: a set
    partition of the bars into m short parts gives (m-1)! cells of dimension
    n - m, one per cyclic order.  A DP over masks counts the partitions,
    recursing on the part holding the lowest bar, in about 3^(n-1)/2 steps:
    only the masks without bar 1, and the full one, are needed.  A mask's
    count is a polynomial in x, one x per part, packed in one int with
    x = 2^w, where 2^w > n^n bounds every coefficient."""
    n, short = linkage.n, linkage.short
    w = n * n.bit_length()
    full = (1 << n) - 1
    ways = [1] + [0] * full  # the empty mask has one partition, into no parts
    for mask in (*range(2, full, 2), full):
        low = mask & -mask
        rest = sub = mask ^ low
        total = 0
        while True:  # every part sub | low of mask that holds its lowest bar
            if short[sub | low]:
                total += ways[rest ^ sub]
            if not sub:
                break
            sub = (sub - 1) & rest
        ways[mask] = total << w
    x = ways[full]
    return tuple(factorial(m - 1) * ((x >> m * w) & ((1 << w) - 1)) for m in range(n, 2, -1))


class _collector_paused:
    """A `with` block run with the cyclic garbage collector off; on leaving
    it, even by an exception, the caller's setting comes back, so a caller
    that had the collector off keeps it off.

    The walk and the wiring allocate hundreds of thousands of tuples, lists
    and dicts that hold only ints and each other, and build no reference
    cycle, so reference counting frees all they drop.  A collection during
    them finds no garbage; it only rescans the cells made so far, about a
    fifth of an n=8 build.  A class, not a generator: entering costs one
    `isenabled` and one `disable`, with no generator frame.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            gc.enable()


def _wire(
    n: int, short: tuple[bool, ...], faces: list[Masks], cofaces: list[Masks]
) -> list[tuple[int, ...]]:
    """The boundary rows of `cofaces` (m parts each) in `faces` (m + 1 parts).

    A coface holding the short part z at position p has, for each ordered
    split (a, b) of z, the face holding a, b at p, p + 1 and its other parts
    unchanged.  Merging a and b back maps the faces holding a, b at p, p + 1
    onto the cofaces holding z at p, one for one, and keeps their label
    order, since the parts before p and after p + 1 keep their relative
    positions.  So the two index buckets, both ascending, match entry by
    entry.  The wrap merge, of the first part into n's part (last), matches
    the same way the faces holding a first and b last with the cofaces
    holding a | b last.  Buckets arrive in no order across keys, so each
    row is sorted at the end.
    """
    low = (1 << n) - 1
    # one int object per cell, shared by every bucket and row that lists it
    face_ids, coface_ids = list(range(len(faces))), list(range(len(cofaces)))
    holding = []  # per position: the cofaces holding each part there
    for column in zip(*cofaces):
        by_part = defaultdict(list)
        for c, z in zip(coface_ids, column):
            by_part[z].append(c)
        holding.append(by_part)
    columns = list(zip(*faces))
    merges = list(zip(holding, columns, columns[1:]))
    merges.append((holding[-1], columns[0], columns[-1]))
    rows: list[list[int]] = [[] for _ in cofaces]
    for holding_z, firsts, seconds in merges:
        splits = defaultdict(list)  # the faces holding a, b here, by a << n | b
        for f, a, b in zip(face_ids, firsts, seconds):
            if short[a | b]:
                splits[a << n | b].append(f)
        for key, fs in splits.items():
            cs = holding_z[key >> n | key & low]
            assert len(cs) == len(fs)  # the match is one for one
            for c, f in zip(cs, fs):
                rows[c].append(f)
    for row in rows:
        row.sort()
    return list(map(tuple, rows))


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


def facet_membership_table(linkages: list[Linkage]) -> tuple[list, list]:
    """Evaluate the fixed step-2/step-3 row labels against each pentagon,
    as the step-2 and step-3 lists of (row, values), one value per linkage: a
    row is admissible iff each of its part masks is short.  Both labels of a
    step-3 row have the same parts, so the first one decides."""
    for l in linkages:
        if l.n != 5:
            raise ArityMismatch(f"facet tables are defined for n=5, got n={l.n}")
    mask_of = {text: m for m, text in enumerate(mask_texts(5))}

    def values(row: str) -> tuple[bool, ...]:
        masks = [mask_of["{" + part + "}"] for part in row[1:-1].split("}{")]
        return tuple(all(l.short[m] for m in masks) for l in linkages)

    step2 = [(row, values(row)) for row in STEP2_ROWS]
    step3 = [(row, values(row[0])) for row in STEP3_ROWS]
    return step2, step3
