from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from linkspace.cwcomplex import build_complex
from linkspace.export import REPRESENTATIVES
from linkspace.geometry import perform_surgery
from linkspace.linkage import (
    Linkage,
    LinkageError,
    NonGeneric,
    NonPositiveLength,
    NotAPartition,
    ViolatesPolygonInequality,
    is_admissible_partition,
    make_linkage,
    parse_lengths,
)
from linkspace.partitions import canonicalize
from linkspace.topology import classify_linkage

from oracles import EmptySubset, is_admissible_part, oracle_admissible


def test_make_linkage_accepts_the_sphere_pentagon():
    l = make_linkage([1, 1, 1, 1, 3])
    assert l.n == 5
    assert sum(l.lengths) == 7
    assert l.spec() == "1,1,1,1,3"


def test_degenerate_triangle_is_nongeneric_with_witness():
    with pytest.raises(NonGeneric) as exc:
        make_linkage([1, 2, 3])
    assert exc.value.witness == frozenset({3})


def test_half_splittable_pentagon_is_nongeneric():
    with pytest.raises(NonGeneric) as exc:
        make_linkage([1, 1, 1, 1, 2])
    assert exc.value.witness == frozenset({1, 5})
    assert str(exc.value) == (
        "subset {1,5} sums to half the total length (3);"
        " the linkage admits a collinear configuration"
    )


@pytest.mark.parametrize(
    "lengths, witness",
    [
        ([2, 2, 2, 2], {1, 2}),
        ([1, 1, 2, 2, 2], {3, 4}),
        ([1, 2, 3, 4, 5, 7], {4, 6}),
        ([5, 1, 1, 1, 1, 1], {1}),
        ([1, 1, 1, 1, 1, 1, 2, 2], {1, 7, 8}),
        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 1], {4}),
    ],
)
def test_nongeneric_witness_is_smallest_then_lexicographic(lengths, witness):
    with pytest.raises(NonGeneric) as exc:
        make_linkage(lengths)
    assert exc.value.witness == frozenset(witness)


def test_nonpositive_length_rejected():
    with pytest.raises(NonPositiveLength):
        make_linkage([1, 0, 1])
    with pytest.raises(NonPositiveLength):
        make_linkage([1, 1, Fraction(-1, 2), 1])


def test_polygon_inequality_rejected():
    # generic (no subset sums to 7) but one bar outweighs the rest
    with pytest.raises(ViolatesPolygonInequality) as exc:
        make_linkage([1, 1, 1, 1, 10])
    assert str(exc.value) == "longest bar 10 is >= sum of the rest 4"
    # the check runs on integer weights; the message keeps the exact lengths
    with pytest.raises(ViolatesPolygonInequality) as exc:
        make_linkage([Fraction(1, 3), Fraction(1, 2), Fraction(7, 3)])
    assert str(exc.value) == "longest bar 7/3 is >= sum of the rest 5/6"


def test_too_few_bars_rejected():
    with pytest.raises(LinkageError):
        make_linkage([1, 1])
    with pytest.raises(LinkageError):
        make_linkage([])


def test_admissible_part_examples():
    l = make_linkage([1, 1, 1, 1, 3])
    assert is_admissible_part(l, {5})          # 3 <= 4
    assert not is_admissible_part(l, {4, 5})   # 4 > 3
    eq = make_linkage([1, 1, 1, 1, 1])
    assert not is_admissible_part(eq, {2, 3, 4})  # 3 > 2


def test_admissible_part_errors():
    l = make_linkage([1, 1, 1, 1, 3])
    with pytest.raises(EmptySubset):
        is_admissible_part(l, set())
    with pytest.raises(LinkageError):
        is_admissible_part(l, {0, 1})
    with pytest.raises(LinkageError):
        is_admissible_part(l, {6})


def test_admissible_partition_examples():
    assert is_admissible_partition(
        make_linkage([2, 2, 1, 1, 3]), [{1}, {2, 3, 4}, {5}]
    )
    assert not is_admissible_partition(
        make_linkage([2, 1, 1, 1, 2]), [{2}, {1, 3, 4}, {5}]
    )
    assert is_admissible_partition(
        make_linkage([1, 1, 1, 1, 1]), [{1}, {2}, {3}, {4}, {5}]
    )


def test_admissible_partition_rejects_non_partitions():
    l = make_linkage([1, 1, 1, 1, 3])
    with pytest.raises(NotAPartition):
        is_admissible_partition(l, [{1, 2}, {2, 3}, {4, 5}])  # overlap
    with pytest.raises(NotAPartition):
        is_admissible_partition(l, [{1, 2}, {4, 5}])  # gap
    with pytest.raises(NotAPartition):
        is_admissible_partition(l, [{1, 2, 3, 4, 5}, set()])


def test_partition_admissibility_ignores_part_order():
    l = make_linkage([2, 2, 1, 1, 3])
    parts = [{1}, {2, 3, 4}, {5}]
    for arrangement in permutations(parts):
        assert is_admissible_partition(l, arrangement)


def _all_subsets(n):
    for size in range(1, n):
        yield from (frozenset(c) for c in combinations(range(1, n + 1), size))


def test_part_and_complement_cannot_both_fail(representatives):
    # at most one of S, complement(S) is non-admissible, and the failing one
    # has the strictly larger sum
    for _, linkage in representatives:
        ground = frozenset(range(1, linkage.n + 1))
        for s in _all_subsets(linkage.n):
            comp = ground - s
            a, b = is_admissible_part(linkage, s), is_admissible_part(linkage, comp)
            assert a or b
            if not a:
                assert linkage.part_sum(s) > linkage.part_sum(comp)


def test_genericity_excludes_the_equality_case(representatives):
    for _, linkage in representatives:
        half = sum(linkage.lengths) / 2
        for s in _all_subsets(linkage.n):
            assert linkage.part_sum(s) != half


def test_admissibility_matches_sum_oracle(representatives):
    for _, linkage in representatives:
        for s in _all_subsets(linkage.n):
            assert is_admissible_part(linkage, s) == oracle_admissible(
                linkage.lengths, [s]
            )


@st.composite
def generic_linkages(draw):
    lengths = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=6)
    )
    try:
        return make_linkage(lengths)
    except LinkageError:
        assume(False)


@given(generic_linkages(), st.data())
def test_refining_a_part_preserves_admissibility(linkage, data):
    indices = list(range(1, linkage.n + 1))
    cut = data.draw(st.integers(min_value=1, max_value=linkage.n - 1))
    part = frozenset(indices[:cut])
    sub = frozenset(
        data.draw(st.sets(st.sampled_from(sorted(part)), min_size=1, max_size=len(part)))
    )
    if is_admissible_part(linkage, part):
        assert is_admissible_part(linkage, sub)


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=4, max_size=6),
    st.fractions(min_value=Fraction(1, 10), max_value=10),
)
def test_validation_and_admissibility_are_scale_invariant(lengths, scale):
    outcome = scaled_outcome = None
    try:
        base = make_linkage(lengths)
    except LinkageError as exc:
        outcome = type(exc)
    try:
        scaled = make_linkage([scale * Fraction(l) for l in lengths])
    except LinkageError as exc:
        scaled_outcome = type(exc)
    assert outcome == scaled_outcome
    if outcome is None:
        for s in _all_subsets(base.n):
            assert is_admissible_part(base, s) == is_admissible_part(scaled, s)


def test_linkage_is_immutable():
    l = make_linkage([1, 1, 1, 1, 3])
    with pytest.raises(AttributeError):
        l.lengths = (Fraction(0),)
    assert isinstance(l, Linkage)


#: each record, with one of its fields
RECORDS = {
    "Linkage": (lambda: make_linkage([1, 1, 1, 1, 3]), "lengths"),
    "CyclicPartition": (lambda: canonicalize([{1}, {2, 3}]), "parts"),
    "SurfaceMesh": (lambda: perform_surgery(make_linkage([1, 1, 1, 1, 3])), "points"),
    "CWComplex": (lambda: build_complex(make_linkage([1, 1, 1, 1, 3])), "labels_by_dim"),
    "ComponentReport": (
        lambda: classify_linkage(make_linkage([1, 1, 1, 1, 3])).components[0],
        "vertex_count",
    ),
    "TopologyReport": (lambda: classify_linkage(make_linkage([1, 1, 1, 1, 3])), "f_vector"),
    "Representative": (lambda: REPRESENTATIVES[0], "spec"),
}


@pytest.mark.parametrize("record", RECORDS)
def test_every_record_is_immutable(record):
    make, field = RECORDS[record]
    value = make()
    assert type(value).__name__ == record
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 0


def test_linkage_repr_leaves_out_the_short_table():
    assert repr(make_linkage([1, 1, 1, 1, 3])) == (
        "Linkage(lengths=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), "
        "Fraction(1, 1), Fraction(3, 1)))"
    )


def test_equal_lengths_give_equal_linkages():
    # the lengths fix the short-subset table, so comparing it as a field
    # changes no equality
    a, b = (make_linkage(parse_lengths(s)) for s in ("1,1,1,1,1", "2/2,1,1,1,1"))
    assert a == b and hash(a) == hash(b)
    assert a != make_linkage(parse_lengths("1,1,1,1,3"))
