"""Exact-rational polygonal linkages and admissibility predicates.

A linkage is a tuple of positive rational bar lengths.  Every predicate in
the package reduces to comparing a subset sum against half the total length,
so all arithmetic is exact: lengths are `fractions.Fraction`s, and the
one whole-table pass, in make_linkage, scales them to integers over their
common denominator for both the genericity check and the short-subset
table, which the linkage keeps.  Genericity (no subset sums to
exactly half the total) guarantees that the non-strict comparisons used
below never hit the equality case.

Subsets of bars are also written as int bitmasks: bar i is bit i-1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .partitions import NotAPartition, part_text

#: Concrete stand-in for a "sufficiently small" length in the standard
#: representatives.  Any eps below a spec's first wall gives the same
#: chamber; tests/test_export.py finds the walls exactly (1 and 1/2).
DEFAULT_EPSILON = Fraction(1, 100)


class LinkageError(ValueError):
    """Base class for linkage construction and predicate errors."""


class NonPositiveLength(LinkageError):
    pass


class ViolatesPolygonInequality(LinkageError):
    """Some bar is at least as long as all the others combined."""


class NonGeneric(LinkageError):
    """Some subset of bars has exactly half the total length.

    Carries the witnessing index subset in `witness`.
    """

    def __init__(self, witness: frozenset[int], half: Fraction):
        self.witness = witness
        super().__init__(
            f"subset {part_text(witness)} sums to half the total length ({half});"
            " the linkage admits a collinear configuration"
        )


class Linkage(NamedTuple):
    """A validated polygonal linkage: positive, closed (polygon inequality)
    and generic.  Construct via make_linkage(); repr leaves out `short`."""

    lengths: tuple[Fraction, ...]
    #: short[mask]: are the bars in `mask` shorter than the rest, i.e. an
    #: admissible part (the empty mask counts)?  From make_linkage's subset
    #: sums.  The lengths fix it, so comparing it, as the tuple equality
    #: does, changes no equality.
    short: tuple[bool, ...]

    def __repr__(self) -> str:
        return f"Linkage(lengths={self.lengths!r})"

    @property
    def n(self) -> int:
        return len(self.lengths)

    def part_sum(self, indices: Iterable[int]) -> Fraction:
        return sum((self.lengths[i - 1] for i in indices), Fraction(0))

    def spec(self) -> str:
        """Comma-separated exact form, e.g. '1,1,1/100,1/100,1'."""
        return ",".join(str(l) for l in self.lengths)


def make_linkage(lengths: Sequence[Fraction | int]) -> Linkage:
    """Validate and build a Linkage.

    This is the single gate enforcing positivity, genericity and the polygon
    inequality; everything downstream may assume all three.  Genericity is
    checked before the polygon inequality so that a degenerate bar equal to
    the sum of the rest (an exact half-split) is reported as NonGeneric with
    its witness.

    Raises NonPositiveLength, NonGeneric or ViolatesPolygonInequality.
    """
    if not lengths:
        raise LinkageError("length list is empty")
    ls = tuple(Fraction(l) for l in lengths)
    if len(ls) < 3:
        raise LinkageError(f"need at least 3 bars, got {len(ls)}")
    for i, l in enumerate(ls, 1):
        if l <= 0:
            raise NonPositiveLength(f"length {i} is {l}; all lengths must be > 0")
    weights = integer_weights(ls)
    sums = subset_sums(weights)
    total = sums[-1]
    if not total % 2 and total // 2 in sums:
        # smallest subset first, then lexicographic, so the witness is
        # deterministic
        halves = [mask_elements(m) for m, s in enumerate(sums) if 2 * s == total]
        witness = min(halves, key=lambda e: (len(e), e))
        raise NonGeneric(frozenset(witness), sum(ls, Fraction(0)) / 2)
    if 2 * max(weights) >= total:
        longest, rest = max(ls), sum(ls, Fraction(0)) - max(ls)
        raise ViolatesPolygonInequality(f"longest bar {longest} is >= sum of the rest {rest}")
    # no subset weighs exactly half, so a subset is short iff it weighs less
    # than half the total rounded up
    short = tuple(map(((total + 1) // 2).__gt__, sums))
    return Linkage(lengths=ls, short=short)


def integer_weights(lengths: Sequence[Fraction]) -> tuple[int, ...]:
    """The lengths times their common denominator: integers, same ratios."""
    den = lcm(*(l.denominator for l in lengths))
    return tuple(l.numerator * (den // l.denominator) for l in lengths)


def subset_sums(weights: Sequence[int]) -> list[int]:
    """sums[mask] is the total weight of the bars in `mask`, for all 2^n
    masks; each entry is one addition on the entry without its lowest bit."""
    sums = [0] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def mask_elements(mask: int) -> tuple[int, ...]:
    """The bar indices in `mask`, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def is_admissible_partition(
    linkage: Linkage, parts: Iterable[Iterable[int]]
) -> bool:
    """True iff every part of the partition is admissible: its sum is at
    most that of the other parts, all the parts' sums making up the total.

    The (cyclic) order of the parts is irrelevant: parts are checked
    independently, so partitions with the same parts in different order are
    admissible or not together.
    """
    sets = [frozenset(p) for p in parts]
    ground = frozenset(range(1, linkage.n + 1))
    if any(not p for p in sets):
        raise NotAPartition("empty part")
    if sum(len(p) for p in sets) != len(ground) or frozenset().union(*sets) != ground:
        raise NotAPartition(
            f"parts {sorted(sorted(p) for p in sets)} do not partition 1..{linkage.n}"
        )
    sums = [linkage.part_sum(p) for p in sets]
    total = sum(sums)
    return all(s <= total - s for s in sums)


#: The longest length token parse_rational accepts: for up to 8 bars, every
#: sum an error message prints then stays under CPython's 4,300-digit limit.
MAX_TOKEN = 500


#: A length token: an optional sign, then D, D/D, D.D, D. or .D, where D is
#: ASCII digits.  Fraction's own grammar varies between Python versions
#: (underscores, spaces around '/') and takes any Unicode digit and exponents,
#: which it would expand digit by digit ('1e30000000').
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def parse_rational(token: str, name: str = "length") -> Fraction:
    """Parse an optionally signed 'int', 'int/int' or decimal ('0.25', '.5',
    '5.') of at most MAX_TOKEN characters, else raise LinkageError, whose
    message calls the token `name`."""
    token = token.strip()
    if len(token) > MAX_TOKEN:
        raise LinkageError(f"{name} {token[:20]!r}... is over {MAX_TOKEN} characters")
    if not _RATIONAL.fullmatch(token):
        raise LinkageError(f"cannot parse {name} {token!r}: not an integer, fraction or decimal")
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise LinkageError(f"cannot parse {name} {token!r}: {exc}") from None


def parse_lengths(text: str, epsilon: Fraction = DEFAULT_EPSILON) -> list[Fraction]:
    """Parse a comma-separated length spec; each token is an ASCII integer,
    fraction or decimal (see `parse_rational`) or the symbol `eps`
    (replaced by the given epsilon).  An empty token is refused."""
    tokens = [t.strip() for t in text.split(",")]
    for k, t in enumerate(tokens, 1):
        if not t:
            raise LinkageError(f"length {k} is empty")
    return [Fraction(epsilon) if t == "eps" else parse_rational(t) for t in tokens]
