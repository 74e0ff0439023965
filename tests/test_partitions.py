from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkspace.partitions import (
    CyclicPartition,
    InvalidArity,
    NotAPartition,
    canonicalize,
    cell_vertices,
    enumerate_cyclic_partitions,
    one_step_refinements,
    parse_partition,
)

from oracles import (
    GroundSetMismatch,
    TooCoarse,
    coarsenings,
    oracle_refines,
    permutation_to_vertex,
    rotation_class,
    vertex_to_permutation,
)


def refines(fine, coarse):
    """The brute-force oracle's cyclic refinement, on labels."""
    return oracle_refines(fine.parts, coarse.parts)


def _refinements(c):
    """c and everything reached from it by repeated one-step refinement."""
    seen = {c}
    frontier = [c]
    while frontier:
        frontier = [f for g in frontier for f in one_step_refinements(g) if f not in seen]
        seen.update(frontier)
    return seen


def test_canonicalize_rotates_the_part_with_n_last():
    assert str(canonicalize([{4, 5}, {1}, {2, 3}])) == "{1}{2,3}{4,5}"
    assert str(canonicalize([{1}, {2}, {3}, {4}, {5}])) == "{1}{2}{3}{4}{5}"
    assert str(canonicalize([{3, 5}, {1, 2}, {4}])) == "{1,2}{4}{3,5}"


def test_canonicalize_rejects_non_partitions():
    with pytest.raises(NotAPartition, match="^parts overlap$"):
        canonicalize([{1, 2}, {2, 3}])
    with pytest.raises(NotAPartition, match=r"^ground set \[1, 3\] is not 1\.\.3$"):
        canonicalize([{1}, {3}])
    with pytest.raises(NotAPartition, match="^empty part$"):
        canonicalize([{1, 2}, set()])
    with pytest.raises(NotAPartition, match="^no parts$"):
        canonicalize([])


def test_canonicalize_rejects_a_far_element_without_building_its_range():
    # comparing with set(range(1, n + 1)) would build a set of 10**10 ints
    with pytest.raises(NotAPartition, match=r"is not 1\.\.10000000000$"):
        canonicalize([{1}, {10**10}])


def test_constructor_insists_on_canonical_rotation():
    with pytest.raises(NotAPartition):
        CyclicPartition((frozenset({5}), frozenset({1, 2, 3, 4})))


def test_parse_partition_round_trips():
    for text in ("{1,3}{2,4}{5}", "{1}{2}{3}{4}{5}", "{1,2}{4}{3,5}"):
        assert str(parse_partition(text)) == text
    with pytest.raises(NotAPartition):
        parse_partition("oops")
    with pytest.raises(NotAPartition):
        parse_partition("{1}{1,2}")
    with pytest.raises(NotAPartition, match="repeats an element"):
        parse_partition("{1,1}{2}{3}")


@st.composite
def raw_partitions(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    assignment = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, set[int]] = {}
    for x, b in enumerate(assignment, 1):
        blocks.setdefault(b, set()).add(x)
    parts = [blocks[b] for b in sorted(blocks)]
    order = draw(st.permutations(range(len(parts))))
    return [parts[i] for i in order]


@given(raw_partitions(), st.integers(0, 10))
def test_canonicalize_is_rotation_invariant_and_idempotent(parts, k):
    rotated = parts[k % len(parts) :] + parts[: k % len(parts)]
    c = canonicalize(parts)
    assert canonicalize(rotated) == c
    assert canonicalize(c.parts) == c


def test_enumeration_counts():
    assert len(enumerate_cyclic_partitions(5, 5)) == 24
    assert len(enumerate_cyclic_partitions(5, 4)) == 60
    assert {str(c) for c in enumerate_cyclic_partitions(3, 3)} == {
        "{1}{2}{3}",
        "{2}{1}{3}",
    }


def test_enumeration_has_no_duplicates_and_counts_match_formula():
    # count = S(n,m) * (m-1)!; checked indirectly through rotation classes
    for n in (4, 5, 6):
        for m in range(2, n + 1):
            cells = enumerate_cyclic_partitions(n, m)
            assert len({c for c in cells}) == len(cells)
            assert len({rotation_class(c.parts) for c in cells}) == len(cells)


def test_enumeration_arity_errors():
    with pytest.raises(InvalidArity):
        enumerate_cyclic_partitions(5, 1)
    with pytest.raises(InvalidArity):
        enumerate_cyclic_partitions(5, 6)


def test_refines_examples():
    fine = canonicalize([{1}, {2}, {3}, {4}, {5}])
    coarse = canonicalize([{1, 2}, {3}, {4, 5}])
    assert refines(fine, coarse)
    scrambled = canonicalize([{1}, {3}, {2}, {4}, {5}])
    assert not refines(scrambled, coarse)
    assert refines(coarse, coarse)


def test_refines_ground_set_mismatch():
    with pytest.raises(GroundSetMismatch):
        refines(canonicalize([{1}, {2}, {3}]), canonicalize([{1, 2}, {3, 4}]))


def test_refines_agrees_with_brute_force_oracle():
    # the library's route to refinement: repeated one-step splits
    cells = [c for m in (3, 4, 5) for c in enumerate_cyclic_partitions(5, m)]
    sample = cells[::7]
    for coarse in sample:
        below = _refinements(coarse)
        for fine in sample:
            assert (fine in below) == oracle_refines(fine.parts, coarse.parts)


def test_refines_is_a_partial_order_for_n4():
    cells = [c for m in (3, 4) for c in enumerate_cyclic_partitions(4, m)]
    for a in cells:
        assert refines(a, a)
    for a in cells:
        for b in cells:
            if refines(a, b) and refines(b, a):
                assert a == b
            for c in cells:
                if refines(a, b) and refines(b, c):
                    assert refines(a, c)


def test_vertex_to_permutation_examples():
    assert vertex_to_permutation(canonicalize([{1}, {2}, {3}, {4}, {5}])) == (1, 2, 3, 4)
    assert vertex_to_permutation(canonicalize([{2}, {1}, {3}, {4}, {5}])) == (2, 1, 3, 4)
    assert vertex_to_permutation(canonicalize([{3}, {5}, {1}, {4}, {2}])) == (1, 4, 2, 3)


def test_vertex_permutation_bijection():
    orders = enumerate_cyclic_partitions(5, 5)
    images = {vertex_to_permutation(v) for v in orders}
    assert images == set(permutations((1, 2, 3, 4)))
    for v in orders:
        assert permutation_to_vertex(vertex_to_permutation(v)) == v


def test_cell_vertices_examples():
    square = canonicalize([{1, 2}, {3, 4}, {5}])
    got = {str(v) for v in cell_vertices(square)}
    assert got == {
        "{1}{2}{3}{4}{5}",
        "{2}{1}{3}{4}{5}",
        "{1}{2}{4}{3}{5}",
        "{2}{1}{4}{3}{5}",
    }
    hexagon = canonicalize([{1}, {2}, {3, 4, 5}])
    assert len(cell_vertices(hexagon)) == 6
    vertex = canonicalize([{1}, {2}, {3}, {4}, {5}])
    assert cell_vertices(vertex) == [vertex]


def test_cell_vertices_count_and_refinement():
    for m in (3, 4, 5):
        for c in enumerate_cyclic_partitions(5, m):
            vs = cell_vertices(c)
            assert len(vs) == prod(factorial(len(p)) for p in c.parts)
            assert len(set(vs)) == len(vs)
            assert all(refines(v, c) for v in vs)


def test_coarsenings_examples():
    full = canonicalize([{1}, {2}, {3}, {4}, {5}])
    out = coarsenings(full)
    assert len(out) == 5
    assert all(c.num_parts == 4 for c in out)
    three = canonicalize([{1, 2}, {3}, {4, 5}])
    assert len(coarsenings(three)) == 3
    source = canonicalize([{3, 4}, {1}, {2}, {5}])
    assert canonicalize([{1}, {2}, {3, 4, 5}]) in coarsenings(source)


def test_coarsenings_are_refined_by_their_source():
    for m in (3, 4, 5):
        for c in enumerate_cyclic_partitions(5, m)[::5]:
            for coarse in coarsenings(c):
                assert refines(c, coarse)


def test_coarsenings_too_coarse():
    with pytest.raises(TooCoarse):
        coarsenings(canonicalize([{1, 2}, {3, 4}]))


def test_one_step_refinements_are_exactly_the_next_grade_refinements():
    for c in enumerate_cyclic_partitions(5, 3)[::4]:
        split = set(one_step_refinements(c))
        all_next = {
            f for f in enumerate_cyclic_partitions(5, 4) if refines(f, c)
        }
        assert split == all_next


@given(st.integers(3, 6))
def test_full_orders_count(n):
    assert len(enumerate_cyclic_partitions(n, n)) == factorial(n - 1)
