"""Part texts, which every command uses, and cyclically ordered partitions
of {1..n} as labels: a reference for the tests, which no command reaches.

A cyclic partition is stored in its canonical rotation: the part containing
the largest element n comes last.  That rotation is unique, so tuple equality
on the parts is equality of cyclic partitions, and it lines up with the
convention of appending {n} to an ordered partition of {1..n-1} and with the
vertex <-> permutation correspondence (cut the cycle at n, drop n).
"""

from __future__ import annotations

import re
from functools import cache
from itertools import permutations, product
from typing import Iterable, Iterator, NamedTuple, Sequence


class PartitionError(ValueError):
    pass


class NotAPartition(PartitionError):
    pass


class InvalidArity(PartitionError):
    pass


# NamedTuple refuses a __new__ in its own body: the checking one is on a subclass
class _Parts(NamedTuple):
    parts: tuple[frozenset[int], ...]


class CyclicPartition(_Parts):
    """Canonical-rotation cyclic partition; build via canonicalize()."""

    __slots__ = ()

    def __new__(cls, parts: tuple[frozenset[int], ...]):
        n = _check_partition(parts)
        if n not in parts[-1]:
            raise NotAPartition(f"not in canonical rotation: {n} must lie in the last part")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "".join(map(part_text, self.parts))

    def __repr__(self) -> str:
        return f"CyclicPartition({self})"


def part_text(part: Iterable[int]) -> str:
    """One part in the table notation, elements ascending, e.g. '{1,3}'."""
    return "{" + ",".join(map(str, sorted(part))) + "}"


@cache
def mask_texts(n: int) -> tuple[str, ...]:
    """The text of every part on n bars, indexed by its bitmask (bar i is
    bit i-1): mask_texts(5)[0b101] == '{1,3}'."""
    return tuple(part_text(i + 1 for i in range(n) if m >> i & 1) for m in range(1 << n))


def _check_partition(parts: Sequence[frozenset[int]]) -> int:
    """Validate that parts partition {1..n} for some n; return n."""
    if not parts:
        raise NotAPartition("no parts")
    if not all(parts):
        raise NotAPartition("empty part")
    union: set[int] = set().union(*parts)
    if sum(map(len, parts)) != len(union):
        raise NotAPartition("parts overlap")
    n = max(union)
    # n distinct elements from 1 to n are exactly 1..n; no set(range(1, n + 1)),
    # which one huge stray element would make huge
    if len(union) != n or min(union) < 1:
        raise NotAPartition(f"ground set {sorted(union)} is not 1..{n}")
    return n


def canonicalize(parts: Iterable[Iterable[int]]) -> CyclicPartition:
    """Rotate a raw part sequence so the part containing n comes last.

    The input must be a partition of {1..n}; the result is the unique
    canonical representative of its rotation class.  The constructor does
    the validation: a sequence with no parts or an empty part goes to it
    unrotated, and any other rotation keeps the same union and overlaps.
    """
    seq = tuple(frozenset(p) for p in parts)
    if seq and all(seq):
        n = max(map(max, seq))
        for i, p in enumerate(seq):
            if n in p:
                return CyclicPartition(seq[i + 1 :] + seq[: i + 1])
    return CyclicPartition(seq)


_PART = re.compile(r"\{\d+(?:,\d+)*\}")
_PARTITION = re.compile(f"(?:{_PART.pattern})+")


def parse_part(text: str) -> frozenset[int]:
    """Parse one part of the table notation, e.g. '{1,3}'.

    Raises NotAPartition unless the text is a braced, comma-separated list
    of distinct integers.
    """
    if not _PART.fullmatch(text):
        raise NotAPartition(f"cannot parse part {text!r}")
    elements = text[1:-1].split(",")
    part = frozenset(map(int, elements))
    if len(part) != len(elements):
        raise NotAPartition(f"part {text!r} repeats an element")
    return part


def parse_partition(text: str) -> CyclicPartition:
    """Parse the table notation, e.g. '{1,3}{2,4}{5}'."""
    if not _PARTITION.fullmatch(text):
        raise NotAPartition(f"cannot parse partition {text!r}")
    return canonicalize(map(parse_part, _PART.findall(text)))


def _set_partitions(elements: Sequence[int], m: int) -> Iterator[list[frozenset[int]]]:
    """All partitions of `elements` into exactly m unordered blocks.

    Blocks are emitted ordered by their smallest element, so every partition
    appears exactly once; element i is assigned to an existing block or opens
    a new one, pruned so exactly m blocks result.
    """
    n = len(elements)

    def extend(i: int, blocks: list[list[int]]) -> Iterator[list[frozenset[int]]]:
        if i == n:
            if len(blocks) == m:
                yield [frozenset(b) for b in blocks]
            return
        remaining = n - i
        for b in blocks:
            # still possible to open the missing blocks later?
            if len(blocks) + remaining - 1 >= m:
                b.append(elements[i])
                yield from extend(i + 1, blocks)
                b.pop()
        if len(blocks) < m:
            blocks.append([elements[i]])
            yield from extend(i + 1, blocks)
            blocks.pop()

    yield from extend(0, [])


def enumerate_cyclic_partitions(n: int, m: int) -> list[CyclicPartition]:
    """All cyclic partitions of {1..n} into exactly m parts, canonical form.

    Generated directly in canonical form: the block containing n is pinned
    last and the remaining m-1 blocks are arranged in every linear order, so
    no rotation-deduplication is needed.  Count = S(n,m) * (m-1)!.
    """
    if m < 2 or m > n:
        raise InvalidArity(f"need 2 <= m <= n, got m={m}, n={n}")
    out = []
    for blocks in _set_partitions(range(1, n + 1), m):
        last = next(b for b in blocks if n in b)
        rest = [b for b in blocks if b is not last]
        for arrangement in permutations(rest):
            out.append(CyclicPartition(tuple(arrangement) + (last,)))
    return out


def cell_vertices(c: CyclicPartition) -> list[CyclicPartition]:
    """All full cyclic orders refining c: order each part internally, keep the
    cyclic order of the parts.  Exactly prod(|part|!) of them."""
    per_part = [permutations(sorted(p)) for p in c.parts]
    out = []
    for choice in product(*per_part):
        seq = [x for block in choice for x in block]
        out.append(canonicalize([(x,) for x in seq]))
    return out


def _ordered_splits(part: frozenset[int]) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All ordered pairs (X, Y) of nonempty sets with X | Y = part."""
    elems = sorted(part)
    for mask in range(1, 2 ** len(elems) - 1):
        x = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        yield x, part - x


def one_step_refinements(c: CyclicPartition) -> list[CyclicPartition]:
    """All cyclic partitions obtained by splitting one part of c into an
    ordered pair of consecutive parts; these are exactly the partitions into
    num_parts+1 parts that refine c."""
    out = []
    for i, part in enumerate(c.parts):
        if len(part) < 2:
            continue
        for x, y in _ordered_splits(part):
            out.append(canonicalize(c.parts[:i] + (x, y) + c.parts[i + 1 :]))
    return out
