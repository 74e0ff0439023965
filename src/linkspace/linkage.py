"""Exact-rational polygonal linkages and admissibility predicates.

A linkage is a tuple of positive rational bar lengths.  Every predicate in
the package reduces to comparing a subset sum against half the total length,
so all arithmetic is exact, and done in ints: make_linkage keeps each length
as an integer weight over the lengths' least common denominator, and from
the weights it checks genericity and builds the short-subset table, which
the linkage keeps.  Genericity (no subset sums to exactly half the total)
guarantees that the non-strict comparisons used below never hit the
equality case.

A length is a `Ratio`, its numerator and denominator in lowest terms: the
length grammar (`parse_rational`, `parse_lengths`) reads a token into one
with string methods, and `DEFAULT_EPSILON` is one, so that nothing here
loads `fractions` or `re`.  make_linkage reads the same two attributes from
an int or a `fractions.Fraction`.

Subsets of bars are also written as int bitmasks: bar i is bit i-1.  Part
texts ('{1,3}') live here, as `NonGeneric` and `cwcomplex` both write them,
and so does `_Record`, the plain tuple every record of the command paths is
made from, so that no command loads `typing`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd, lcm
from operator import itemgetter


class _Record(tuple):
    """A tuple with a name for each field, as a `typing.NamedTuple` is, but
    made with no `typing`, `exec` or `eval`.  A record class takes exactly
    its fields in its `__new__`, whose parameters name them: when the class
    is made, `_fields` lists them and field i gets a
    `property(itemgetter(i))`.  Equality and hashing are the tuple's; repr,
    `_replace` and the copy and pickle support are the NamedTuple's."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __getnewargs__(self) -> tuple:
        """The fields as a plain tuple, for copy and pickle to call `__new__` with."""
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self)])
        return f"{type(self).__name__}({fields})"

    def _replace(self, **changes: object) -> _Record:
        """A new record with the named fields replaced by `changes`' values."""
        record = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record


class Ratio(_Record):
    """A rational as its numerator and its positive denominator, in lowest
    terms: the package's one exact length type, which the length grammar
    hands out.  str() writes it as str(Fraction) does: '3' or '-5/2'."""

    __slots__ = ()

    # parse_rational builds an int token's Ratio by `tuple.__new__`, not
    # through this method: keep the two in step
    def __new__(cls, numerator: int, denominator: int) -> Ratio:
        return tuple.__new__(cls, (numerator, denominator))

    def __str__(self) -> str:
        return _text(*self)


def _ratio(numerator: int, denominator: int) -> Ratio:
    """numerator / denominator in lowest terms, for a denominator > 0."""
    g = gcd(numerator, denominator)
    return Ratio(numerator // g, denominator // g)


def _text(numerator: int, denominator: int) -> str:
    """numerator / denominator in lowest terms, for a denominator > 0, as
    str(Fraction) writes it: '3' or '-5/2'."""
    g = gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


#: The value of `eps`: a concrete stand-in for a "sufficiently small"
#: length in the standard representatives.  Any eps below a spec's first
#: wall gives the same chamber; tests/test_export.py finds the walls exactly
#: (1 and 1/2).
DEFAULT_EPSILON = Ratio(1, 100)


class LinkageError(ValueError):
    """Base class for linkage construction and predicate errors."""


class NotAPartition(ValueError):
    """Parts that do not partition the bars into non-empty sets."""


class NonPositiveLength(LinkageError):
    pass


class ViolatesPolygonInequality(LinkageError):
    """Some bar is at least as long as all the others combined."""


class NonGeneric(LinkageError):
    """Some subset of bars has exactly half the total length.

    Carries the witnessing index subset in `witness`.
    """

    def __init__(self, witness: frozenset[int], half: str):
        self.witness = witness
        super().__init__(
            f"subset {part_text(witness)} sums to half the total length ({half});"
            " the linkage admits a collinear configuration"
        )


class Linkage(_Record):
    """A validated polygonal linkage: positive, closed (polygon inequality)
    and generic.  Bar i is weights[i-1] / denominator long, where the
    weights are ints and `denominator` is the least common denominator of
    the lengths, so equal lengths give equal, and equal-hashing, records.
    short[mask] tells whether the bars in `mask` are shorter than the rest,
    i.e. an admissible part (the empty mask counts), from make_linkage's
    subset sums.  The lengths fix it, so comparing it, as the tuple
    equality does, changes no equality.  Construct via make_linkage();
    repr shows the lengths alone, as `spec()` writes them."""

    __slots__ = ()

    # make_linkage builds the record by `tuple.__new__`, not through this
    # method: keep the two in step
    def __new__(
        cls, weights: tuple[int, ...], denominator: int, short: tuple[bool, ...]
    ) -> Linkage:
        return tuple.__new__(cls, (weights, denominator, short))

    def __repr__(self) -> str:
        return f"Linkage(lengths={self.spec()!r})"

    @property
    def n(self) -> int:
        return len(self.weights)

    def spec(self) -> str:
        """Comma-separated exact form, e.g. '1,1,1/100,1/100,1'."""
        return ",".join([_text(w, self.denominator) for w in self.weights])


def _pair(k: int, length: object) -> tuple[int, int]:
    """Length k's numerator and denominator, read off it: an int and a
    `fractions.Fraction` each has both (make_linkage takes a `Ratio` as its
    own pair).  Anything else, a float or a string included, raises
    TypeError naming bar k."""
    if not hasattr(length, "denominator"):
        raise TypeError(f"length {k} is a {type(length).__name__}, not an int, Fraction or Ratio")
    return length.numerator, length.denominator


def make_linkage(lengths: Sequence[object]) -> Linkage:
    """Validate and build a Linkage from lengths given as ints, Fractions or
    `Ratio`s.  A `Ratio`, as the length grammar hands out, is its own pair;
    any other length is read by `_pair`.

    This is the single gate enforcing positivity, genericity and the polygon
    inequality; everything downstream may assume all three.  Genericity is
    checked before the polygon inequality so that a degenerate bar equal to
    the sum of the rest (an exact half-split) is reported as NonGeneric with
    its witness.  The checks and the messages work from the integer weights.

    The record is built by `tuple.__new__`, as `Linkage.__new__` builds it,
    without the call through the class.

    Raises NonPositiveLength, NonGeneric or ViolatesPolygonInequality, and
    TypeError for a length of another type.
    """
    if not lengths:
        raise LinkageError("length list is empty")
    pairs = [l if type(l) is Ratio else _pair(k, l) for k, l in enumerate(lengths, 1)]
    if len(pairs) < 3:
        raise LinkageError(f"need at least 3 bars, got {len(pairs)}")
    for i, (a, d) in enumerate(pairs, 1):
        if a <= 0 or d <= 0:  # a `Ratio` built by hand may break its positive denominator
            raise NonPositiveLength(f"length {i} is {_text(a, d)}; all lengths must be > 0")
    common = lcm(*[d for _, d in pairs])
    weights = tuple([a * (common // d) for a, d in pairs])
    sums = _subset_sums(weights)
    total = sums[-1]
    if not total % 2 and total // 2 in sums:
        # smallest subset first, then lexicographic, so the witness is
        # deterministic
        halves = [_mask_elements(m) for m, s in enumerate(sums) if 2 * s == total]
        witness = min(halves, key=lambda e: (len(e), e))
        raise NonGeneric(frozenset(witness), _text(total, 2 * common))
    longest = max(weights)
    if 2 * longest >= total:
        longest, rest = _text(longest, common), _text(total - longest, common)
        raise ViolatesPolygonInequality(f"longest bar {longest} is >= sum of the rest {rest}")
    # no subset weighs exactly half, so a subset is short iff it weighs less
    # than half the total rounded up
    half = (total + 1) // 2
    return tuple.__new__(Linkage, (weights, common, tuple([s < half for s in sums])))


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """sums[mask] is the total weight of the bars in `mask`, for all 2^n
    masks: bar i's masks are the masks below bit i-1 with its weight added,
    so each bar doubles the list with one comprehension."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _mask_elements(mask: int) -> tuple[int, ...]:
    """The bar indices in `mask`, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def part_text(part: Iterable[int]) -> str:
    """One part in the table notation, elements ascending, e.g. '{1,3}'."""
    return "{" + ",".join(map(str, sorted(part))) + "}"


def mask_texts(n: int) -> tuple[str, ...]:
    """The text of every part on n bars, indexed by its bitmask:
    mask_texts(5)[0b101] == '{1,3}'."""
    return tuple(part_text(_mask_elements(m)) for m in range(1 << n))


def is_admissible_partition(linkage: Linkage, parts: Iterable[Iterable[int]]) -> bool:
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
    weights = linkage.weights
    sums = [sum(weights[i - 1] for i in p) for p in sets]
    total = sum(sums)
    return all(s <= total - s for s in sums)


#: The longest length token the grammar accepts: for up to 8 bars, every
#: sum an error message prints then stays under CPython's 4,300-digit limit.
MAX_TOKEN = 500


def _is_digits(text: str) -> bool:
    """Whether `text` is one or more ASCII digits, 0-9: `str.isdigit` alone
    also takes other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


def _quoted(text: str) -> str:
    """`text` as an error message quotes a value: cut to 200 characters and '...'."""
    return text if len(text) <= 200 else text[:200] + "..."


def parse_rational(token: str, name: str = "length") -> Ratio:
    """The length grammar: an optionally signed 'int', 'int/int' or decimal
    ('0.25', '.5', '5.') of at most MAX_TOKEN characters, each digit ASCII,
    as its `Ratio`; else raise LinkageError, whose message calls the token
    `name` and quotes its repr, cut by `_quoted`.  The token is read once,
    by string methods, and the value built from its digits: a decimal's are
    those on either side of the point, and a signed int is read as a
    decimal with none after it.  A token of ASCII digits alone, as most
    specs' tokens are, takes one branch, straight after the length check,
    and its `Ratio` is built by `tuple.__new__`.  Fraction's own
    grammar varies between Python versions (underscores, spaces around '/')
    and takes any Unicode digit and exponents, which it would expand digit
    by digit ('1e30000000')."""
    token = token.strip()
    if len(token) > MAX_TOKEN:
        raise LinkageError(f"{name} {token[:20]!r}... is over {MAX_TOKEN} characters")
    if _is_digits(token):
        return tuple.__new__(Ratio, (int(token), 1))
    sign = token[:1] if token.startswith(("+", "-")) else ""
    head, slash, tail = token[len(sign) :].partition("/")
    whole, _, tenths = head.partition(".")
    fault = "not an integer, fraction or decimal"
    if slash:
        if _is_digits(head) and _is_digits(tail):
            if denominator := int(tail):
                return _ratio(int(sign + head), denominator)
            fault = "its denominator is 0"
    elif _is_digits(whole + tenths):  # its digits over 10 ** (those after the point, if any)
        return _ratio(int(sign + whole + tenths), 10 ** len(tenths))
    raise LinkageError(f"cannot parse {name} {_quoted(repr(token))}: {fault}")


def parse_lengths(text: str, epsilon: object = DEFAULT_EPSILON) -> list:
    """A comma-separated length spec as make_linkage takes it: each token is
    an ASCII integer, fraction or decimal, as its `Ratio` (`parse_rational`),
    or the symbol `eps`, as `epsilon` itself.  An empty token is refused,
    the first one named, before any token is parsed: one scan of the tokens
    finds it."""
    tokens = [t.strip() for t in text.split(",")]
    if "" in tokens:
        raise LinkageError(f"length {tokens.index('') + 1} is empty")
    return [epsilon if t == "eps" else parse_rational(t) for t in tokens]
