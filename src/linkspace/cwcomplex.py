"""The combinatorial cell complex of a generic linkage.

Cells of dimension k are the admissible cyclic partitions of {1..n} into
n-k parts; the boundary of a cell consists of its one-step refinements
(all of which are admissible, since refining only shrinks part sums).
Two-part labels never occur: a 2-part partition would need both parts
admissible, forcing the equal split that genericity excludes, so dimensions
run from 0 (full cyclic orders) to n-3 (three-part labels).

A part is admissible exactly when it is a short subset of the bars (its
length is below half the total), so the whole complex is fixed by one table
of the 2^n subsets (`Linkage.short`).  A built cell is stored once, as its
label text.  Inside the build a part is an int bitmask (bar i is bit i-1),
and a grade's parts are held as one `bytes` column per position, n's part
last: the canonical rotation.  `_walk` visits prefixes of short parts in
label-text order, so it builds only admissible cells, each grade already in
label order, and takes no rational sum; it writes each prefix's label text
with one string concatenation.  A face's cofaces are its merges of two
cyclically adjacent parts, so each grade is wired to the next by looking up
every face's short merges in a dict of the grade above.  Every command that
builds a complex reads every grade, so every grade is wired, with the
cyclic garbage collector paused for the walk and the wiring, as they build
no cycle.  For n <= 7 no linkage's complex is walked: `build_complex` cuts
it from one wired table per n and process, every cyclic partition of
{1..n} into at least 3 parts (the walk with every proper subset short),
keeping the cells whose every part is short.  At n = 5 that is the paper's
surgery on the 4-permutohedron; n = 8 is walked, as its table would hold
about 94k cells.  `count_cells` counts the cells without building one,
which is all `classify` needs away from n = 5.  A label is written once, by
`_walk`, and no record or command parses it back.
"""

from __future__ import annotations

import gc
from functools import cache, reduce
from itertools import accumulate, compress
from math import factorial
from operator import and_, itemgetter, or_

from .linkage import Linkage, _Record, mask_texts

#: A grade's parts by position: column p holds each cell's p-th part mask,
#: one byte per cell (a mask on n <= 8 bars is below 2^8).
Columns = tuple[bytes, ...]


class ArityMismatch(ValueError):
    """Operation defined only for a specific number of bars."""


def check_supported_arity(n: int, name: str) -> None:
    """Raise ArityMismatch, naming `name`, unless build_complex supports n bars (4..8)."""
    if not 4 <= n <= 8:
        raise ArityMismatch(f"{name} supports 4 <= n <= 8 bars, got n={n}")


class CWComplex(_Record):
    """Graded admissible cells with refinement incidence, a plain record.

    labels_by_dim[d] lists the d-cells as label text, e.g. '{1,3}{2}{4,5}'
    (n's part last), sorted.  boundary[d][i] holds the ascending indices
    (into labels_by_dim[d-1]) of cell i's codimension-1 faces, with an empty
    row for each vertex, and `edges` is boundary[1], the 1-skeleton.  Tuple
    equality compares the linkage, the labels and the rows.  As built, every
    grade has cells, every edge lists exactly two faces (its two vertices),
    and every row above dim 1 two or more; the JSON writer and `_restrict`
    rely on that shape.
    """

    __slots__ = ()

    def __new__(
        cls,
        linkage: Linkage,
        labels_by_dim: tuple[tuple[str, ...], ...],
        boundary: tuple[tuple[tuple[int, ...], ...], ...],
    ) -> CWComplex:
        return tuple.__new__(cls, (linkage, labels_by_dim, boundary))

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self.boundary[1]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.labels_by_dim))

    def __repr__(self) -> str:
        return f"CWComplex(n={self.linkage.n}, f={self.f_vector()})"


def build_complex(linkage: Linkage) -> CWComplex:
    """Enumerate all admissible cyclic partitions of {1..n} grade by grade
    and wire up refinement incidence.  Supported for 4 <= n <= 8.

    For n <= 7 the complex is cut from one table per n and process,
    `_table(n)`, every cyclic partition of {1..n} into at least 3 parts:
    grade by grade it keeps the cells whose every part is short, and
    renumbers their boundary rows through the kept indices of the grade
    below.  For a pentagon that is the surgery on the 4-permutohedron: its
    facets and edges with {5} appended, and the diagonal faces and edges,
    are the cells of the table.  Every face of an admissible cell is
    admissible, so the renumbering is monotone, and label order and
    ascending rows come out as `_walk` gives them from the linkage's own
    short-subset table, which builds the complex at n = 8 (its part
    columns are dropped on return).
    """
    n = linkage.n
    check_supported_arity(n, "complex construction")
    if n <= 7:
        labels, boundary = _restrict(n, linkage.short)
    else:
        labels, boundary, _ = _walk(n, linkage.short)
    # Every full cyclic order is admissible (singleton parts are admissible by
    # the polygon inequality).
    assert len(labels[0]) == factorial(n - 1)
    return CWComplex(linkage, labels, boundary)


def _walk(n: int, short: tuple[bool, ...]) -> tuple[tuple, tuple, tuple[Columns, ...]]:
    """Every grade of the complex on n bars whose admissible parts are the
    masks m with short[m], as (label text by dimension, boundary rows, part
    columns).

    Parts are int bitmasks checked against the short-subset table.  The
    cells come from one walk over prefixes of parts, taken level by level:
    each step appends one short part of the bars below n not yet used,
    trying the candidates in label-text order, and a prefix whose remaining
    bars plus n form a short part ends a cell with that part last (the
    canonical rotation).  Shortness passes to subsets, so every prefix
    extends to a cell, and the walk builds exactly the admissible cells.  No
    part text is a prefix of another, so label order is the order of the
    parts' texts, position by position: the walk keeps each level in that
    order, and every grade comes out sorted without a sort.  Each prefix
    gets its label text, one concatenation of its last part's text to its
    parent's, and a cell one more for n's part.  Each grade's cells are
    transposed once into part columns, so no cell is kept as a tuple.

    Each grade is wired to the one below by looking up each face's merges
    among the cells of the grade above (see `_wire`), one part tuple per
    face and short merge, at C level.  The walk and the wiring allocate
    hundreds of thousands of tuples, lists and dicts that hold only ints and
    each other, and build no reference cycle, so they run with the cyclic
    collector paused: a collection during them would find no garbage and
    only rescan the cells made so far.  The caller's setting comes back on
    return, even by an exception.
    """
    top = 1 << (n - 1)
    texts = mask_texts(n)
    parts = sorted(filter(short.__getitem__, range(1, top)), key=texts.__getitem__)
    # the short parts of each set of unused bars below n, in text order
    fits = [[m for m in parts if m & unused == m] for unused in range(top)]

    enabled = gc.isenabled()
    gc.disable()
    try:
        labels: list[tuple[str, ...]] = []  # by part count, 3 parts first
        columns: list[Columns] = []
        prefixes: list[tuple[int, ...]] = [()]
        words = [""]  # each prefix's label text
        unused = [top - 1]
        for k in range(1, n):
            prefixes = [pre + (m,) for pre, u in zip(prefixes, unused) for m in fits[u]]
            words = [w + texts[m] for w, u in zip(words, unused) for m in fits[u]]
            unused = [u ^ m for u in unused for m in fits[u]]
            if k >= 2:  # two-part cells never occur: both parts short breaks genericity
                ends = [u | top for u in unused]  # n's part, last
                keep = list(map(short.__getitem__, ends))
                labels.append(tuple([w + texts[z] for w, z in compress(zip(words, ends), keep)]))
                heads = map(bytes, zip(*compress(prefixes, keep)))
                columns.append((*heads, bytes(compress(ends, keep))))
        labels.reverse()  # m parts -> dimension n - m
        columns.reverse()
        is_short = _short_bytes(short)
        boundary = [((),) * len(labels[0])]
        boundary += [_wire(is_short, *pair) for pair in zip(columns, columns[1:])]
        return tuple(labels), tuple(boundary), tuple(columns)
    finally:
        if enabled:
            gc.enable()


@cache
def _table(n: int) -> tuple[tuple[tuple[str, ...], ...], tuple, tuple[Columns, ...]]:
    """Every cyclic partition of {1..n} into at least 3 parts, wired: the walk
    with every proper subset short, built once per process for each n <= 7.
    Its f-vectors are (6, 12), (24, 60, 50), (120, 360, 390, 180) and (720,
    2520, 3360, 2100, 602) for n = 4..7: S(n, m) * (m - 1)! cells with m
    parts.  At n = 5 its 0-, 1- and 2-cells are the 4-permutohedron's 24
    vertices, 36 edges and 14 facets (n's part {5}), plus 24 diagonal edges
    and 36 diagonal faces.  It holds the cells' label text (about 0.6 MB at
    n = 7), their boundary rows and each grade's part columns, which the
    cut reads with `bytes.translate`.  Every build at n reads the table, so
    it is all tuples.  A build that raises is not cached."""
    return _walk(n, (True,) * ((1 << n) - 1) + (False,))


def _restrict(n: int, short: tuple[bool, ...]) -> tuple[tuple[tuple[str, ...], ...], tuple]:
    """The label text of the cells of `_table(n)` whose every part is short,
    and their boundary rows renumbered into the kept cells of the grade
    below.  Text and rows are cut by one flag per cell (`_kept`), each
    grade's column in one C-level `compress` pass, into tuples that the
    record keeps without a copy.  Until a grade below drops a cell, a
    grade's rows are the table's own row tuples cut by its flags, which the
    JSON writer finds equal to the table's cut and writes from the table's
    faces text."""
    labels, boundary, columns = _table(n)
    is_short = _short_bytes(short)
    kept_labels, kept_boundary = [], []
    dropped = None  # the grade below's flags, if it dropped a cell
    for words, rows, parts in zip(labels, boundary, columns):
        flags = _kept(is_short, parts)
        kept_labels.append(tuple(compress(words, flags)))
        kept_rows = compress(rows, flags)
        if dropped is None:
            kept_boundary.append(tuple(kept_rows))
        else:  # a kept face's new index is the number of kept faces before it
            index = list(accumulate(dropped, initial=0))
            # a row lists at least two faces, so itemgetter gives a tuple
            kept_boundary.append(tuple([itemgetter(*row)(index) for row in kept_rows]))
        dropped = None if len(kept_labels[-1]) == len(words) else flags
    return tuple(kept_labels), tuple(kept_boundary)


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


def _short_bytes(short: tuple[bool, ...]) -> bytes:
    """`short` as a `bytes.translate` table: mask -> 1 if short, else 0."""
    return bytes(short).ljust(256, b"\0")


def _kept(is_short: bytes, parts: Columns) -> bytes:
    """One byte per cell of a grade given by its part columns, 1 iff every
    part is short (`is_short`, from `_short_bytes`): the columns' flags, read
    as big ints and AND-ed.  `_restrict` cuts the table by them, and the
    JSON writer cuts the table's faces text by them."""
    flags = reduce(and_, [int.from_bytes(column.translate(is_short), "big") for column in parts])
    return flags.to_bytes(len(parts[0]), "big")


def _wire(is_short: bytes, faces: Columns, cofaces: Columns) -> tuple[tuple[int, ...], ...]:
    """The boundary rows of the cofaces (m parts each) in the faces (m + 1
    parts), both as part columns: row c lists, ascending, the faces that give
    coface c by merging two cyclically adjacent parts, p with p + 1 or the
    first into n's part (last).  Each merge's column is one C-level pass, and
    the faces whose merged part is short (`is_short`, from `_short_bytes`)
    are looked up by their merged parts in a dict of the cofaces.  Such a
    merge is an admissible cell, so one that is no coface raises KeyError."""
    index = dict(zip(zip(*cofaces), range(len(cofaces[0]))))
    face_ids = list(range(len(faces[0])))  # one int object per face, shared by the rows
    rows: list[list[int]] = [[] for _ in cofaces[0]]
    merges = [(faces[:p], faces[p], faces[p + 1], faces[p + 2 :]) for p in range(len(faces) - 1)]
    for before, a, b, after in [*merges, (faces[1:-1], faces[0], faces[-1], ())]:
        z = bytes(map(or_, a, b))
        keep = z.translate(is_short)
        cs = map(index.__getitem__, compress(zip(*before, z, *after), keep))
        for c, f in zip(cs, compress(face_ids, keep)):
            rows[c].append(f)
    del index  # free its key tuples before the rows' tuples are made
    for row in rows:
        row.sort()
    return tuple(map(tuple, rows))
