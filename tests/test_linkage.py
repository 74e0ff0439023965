import ast
import copy
import json
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import linkspace
from linkspace.cwcomplex import build_complex
from linkspace.export import REPRESENTATIVES, complex_to_json, report_to_json
from linkspace.geometry import perform_surgery
from linkspace.linkage import (
    DEFAULT_EPSILON,
    Linkage,
    LinkageError,
    NonGeneric,
    NonPositiveLength,
    NotAPartition,
    MAX_TOKEN,
    Ratio,
    ViolatesPolygonInequality,
    is_admissible_partition,
    make_linkage,
    parse_lengths,
    parse_rational,
)
from linkspace.partitions import canonicalize
from linkspace.topology import classify_linkage

from oracles import (
    RATIONAL,
    EmptySubset,
    fraction_lengths,
    is_admissible_part,
    oracle_admissible,
    oracle_linkage_error,
    oracle_ratio,
    part_sum,
)


def test_make_linkage_accepts_the_sphere_pentagon():
    l = make_linkage([1, 1, 1, 1, 3])
    assert l.n == 5
    assert sum(fraction_lengths(l)) == 7
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
                assert part_sum(linkage, s) > part_sum(linkage, comp)


def test_genericity_excludes_the_equality_case(representatives):
    for _, linkage in representatives:
        half = sum(fraction_lengths(linkage)) / 2
        for s in _all_subsets(linkage.n):
            assert part_sum(linkage, s) != half


def test_admissibility_matches_sum_oracle(representatives):
    for _, linkage in representatives:
        for s in _all_subsets(linkage.n):
            assert is_admissible_part(linkage, s) == oracle_admissible(
                fraction_lengths(linkage), [s]
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
        l.weights = (0,)
    assert isinstance(l, Linkage)


#: each record, with one of its fields
RECORDS = {
    "Linkage": (lambda: make_linkage([1, 1, 1, 1, 3]), "weights"),
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


#: the seven records of the command paths, by name, then by name and how it
#: is made: each one's value, its fields and its repr, which for all but
#: `Linkage` and `CWComplex` is a NamedTuple's.  An unsigned int token's
#: `Ratio` and make_linkage's `Linkage` are made by `tuple.__new__`, not by
#: the class
CONTRACTS = {
    "Ratio": (lambda: parse_rational("6/4"), ("numerator", "denominator"), None),
    "Ratio of an int token": (lambda: parse_rational("3"), ("numerator", "denominator"), None),
    "Linkage": (
        lambda: make_linkage([1, 1, 1, 1, 3]),
        ("weights", "denominator", "short"),
        "Linkage(lengths='1,1,1,1,3')",
    ),
    "Linkage of a parsed spec": (
        lambda: make_linkage(parse_lengths("1,1,1,1,3")),
        ("weights", "denominator", "short"),
        "Linkage(lengths='1,1,1,1,3')",
    ),
    "CWComplex": (
        lambda: build_complex(make_linkage([1, 1, 1, 1, 3])),
        ("linkage", "labels_by_dim", "boundary"),
        "CWComplex(n=5, f=(24, 36, 14))",
    ),
    "SurfaceMesh": (
        lambda: perform_surgery(make_linkage([1, 1, 1, 1, 3])),
        ("complex", "points", "cycles"),
        None,
    ),
    "ComponentReport": (
        lambda: classify_linkage(make_linkage([1, 1, 1, 1, 3])).components[0],
        ("vertex_count", "edge_count", "face_count", "euler_characteristic", "orientable", "genus"),
        None,
    ),
    "TopologyReport": (
        lambda: classify_linkage(make_linkage([1, 1, 1, 1, 3])),
        ("component_count", "components", "f_vector", "euler_characteristic", "classification"),
        None,
    ),
    "Representative": (
        lambda: REPRESENTATIVES[1],
        ("spec", "classification", "components", "chi"),
        "Representative(spec='1,1,1,eps,2', classification='torus', components=1, chi=0)",
    ),
}


@pytest.mark.parametrize("record", CONTRACTS)
def test_every_record_keeps_the_named_tuple_contract(record):
    make, fields, shown = CONTRACTS[record]
    kind = record.split()[0]
    value = make()
    cls, values = type(value), tuple(value)
    assert cls.__name__ == kind and cls._fields == fields and len(values) == len(fields)
    assert [getattr(value, f) for f in fields] == list(values)
    for made in (cls(*values), cls(**dict(zip(fields, values)))):
        assert type(made) is cls and made == value and hash(made) == hash(value)
    assert value == values and hash(value) == hash(values)  # a tuple's equality and hash
    for count in (len(values) - 1, len(values) + 1):
        with pytest.raises(TypeError):
            cls(*(values + (None,))[:count])
    twins = [copy.copy(value), copy.deepcopy(value)]
    twins += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert type(twin) is cls and twin == value
    last = fields[-1]
    replaced = value._replace(**{last: "x"})
    assert type(replaced) is cls and replaced == values[:-1] + ("x",)
    assert value._replace() == value
    with pytest.raises(ValueError) as raised:
        value._replace(**{last: "x", "no_such_field": 1})
    assert str(raised.value) == "Got unexpected field names: ['no_such_field']"
    named = ", ".join(f"{name}={v!r}" for name, v in zip(fields, values))
    assert repr(value) == (shown or f"{kind}({named})")


#: a length token of each form a spec takes: an int, a fraction, a decimal
#: or `eps`
_SPEC_TOKENS = st.one_of(
    st.integers(1, 20).map(str),
    st.builds("{}/{}".format, st.integers(1, 20), st.integers(1, 12)),
    st.builds("{}.{}".format, st.integers(0, 9), st.integers(1, 99)),
    st.just("eps"),
)


@settings(max_examples=200)
@given(
    st.lists(_SPEC_TOKENS, min_size=3, max_size=6),
    st.sampled_from([DEFAULT_EPSILON, Ratio(1, 3)]),
)
@example(["1", "1", "1", "1", "3"], DEFAULT_EPSILON)
@example(["1", "1", "eps", "eps", "1"], DEFAULT_EPSILON)
@example(["3/2", "0.25", "1", "eps"], Ratio(1, 3))
def test_the_short_table_is_the_admissibility_of_each_part(tokens, epsilon):
    # make_linkage writes `short` from its integer subset sums; each entry
    # is a bool, and the rational sums of the oracle agree on every part
    try:
        linkage = make_linkage(parse_lengths(",".join(tokens), epsilon))
    except LinkageError:
        assume(False)
    assert len(linkage.short) == 1 << linkage.n and linkage.short[0] is True
    for mask in range(1, 1 << linkage.n):
        part = [i + 1 for i in range(linkage.n) if mask >> i & 1]
        assert type(linkage.short[mask]) is bool
        assert linkage.short[mask] == is_admissible_part(linkage, part), (tokens, part)


def test_linkage_repr_leaves_out_the_short_table():
    assert repr(make_linkage([1, 1, 1, 1, 3])) == "Linkage(lengths='1,1,1,1,3')"
    assert repr(make_linkage([Fraction(3, 2), 1, 1, 1, 1])) == "Linkage(lengths='3/2,1,1,1,1')"


@given(st.fractions())
@example(Fraction(0))
@example(Fraction(-5, 2))
@example(Fraction(7))
def test_a_ratio_is_written_as_its_fraction(value):
    # a reduced pair, with a negative or zero numerator too
    assert str(Ratio(value.numerator, value.denominator)) == str(value)


def test_equal_lengths_give_equal_linkages():
    # the lengths fix the short-subset table, so comparing it as a field
    # changes no equality
    a, b = (make_linkage(parse_lengths(s)) for s in ("1,1,1,1,1", "2/2,1,1,1,1"))
    assert a == b and hash(a) == hash(b)
    assert a != make_linkage(parse_lengths("1,1,1,1,3"))


# ASCII digit runs; two of them, a sign and '/' or '.' make at most MAX_TOKEN
# characters
_DIGITS = st.text("0123456789", min_size=1, max_size=(MAX_TOKEN - 2) // 2)


@st.composite
def rational_tokens(draw):
    """A token of any form `oracles.RATIONAL` accepts: an optional sign, then D,
    D/D, D.D, D. or .D, leading zeros included; no zero denominator."""
    sign, a, b = draw(st.sampled_from(["", "+", "-"])), draw(_DIGITS), draw(_DIGITS)
    form = draw(st.sampled_from(["{a}", "{a}/{b}", "{a}.{b}", "{a}.", ".{b}"]))
    assume(form != "{a}/{b}" or int(b))
    return sign + form.format(a=a, b=b)


@settings(max_examples=300)
@given(rational_tokens())
@example("+007")
@example("-0")
@example("-6/4")
@example("+0014/0007")
@example("1.")
@example(".5")
@example("-2.50")
def test_parse_rational_is_fractions_parse_of_every_accepted_token(token):
    # the one parse builds integers and fractions from the digits it matched,
    # as a pair in lowest terms
    assert len(token) <= MAX_TOKEN and RATIONAL.fullmatch(token)
    value = parse_rational(token)
    assert type(value) is Ratio and Fraction(*value) == Fraction(token)
    assert value == Fraction(token).as_integer_ratio()


@given(st.sampled_from(["", "+", "-"]), _DIGITS, st.integers(1, 200))
@example("", "1", 1)
@example("", "007", 2)
def test_a_zero_denominator_in_any_spelling_is_refused(sign, numerator, zeros):
    token = f"{sign}{numerator}/{'0' * zeros}"
    assume(len(token) <= MAX_TOKEN)
    with pytest.raises(LinkageError) as raised:
        parse_rational(token)
    message = str(raised.value)  # the token's repr cut to 200 characters
    assert message.startswith(f"cannot parse length {repr(token)[:200]}")
    assert message.endswith(": its denominator is 0")


#: what the length grammar meets: ASCII digits, Arabic-Indic digits and a
#: superscript, which `str.isdigit` takes too, signs, '/', '.', spaces and
#: line breaks
_GRAMMAR_TEXT = st.text("0123456789١٢²+-/. \n", max_size=12)


@st.composite
def grammar_tokens(draw):
    """Any short text of the grammar's characters, or a token `RATIONAL`
    accepts; either one padded, after any sign, with leading zeros to
    MAX_TOKEN or MAX_TOKEN + 1 characters, or followed by a line break."""
    token = draw(st.one_of(_GRAMMAR_TEXT, rational_tokens()))
    size = draw(st.sampled_from([0, MAX_TOKEN, MAX_TOKEN + 1]))
    sign = token[:1] if token.startswith(("+", "-")) else ""
    token = sign + token[len(sign) :].rjust(size - len(sign), "0")
    return token + "\n" if draw(st.booleans()) else token


@settings(max_examples=400)
@given(grammar_tokens(), st.sampled_from(["length", "--epsilon"]))
@example("١٢", "length")
@example("-١٢", "length")
@example("²", "length")
@example("12\n", "length")
@example("1/0\n", "--epsilon")
@example("-0/00", "length")
@example("+.", "length")
@example(".", "length")
@example("1.5/2", "length")
@example("+-1", "length")
@example("1/-2", "length")
@example("9" * MAX_TOKEN, "length")
@example("9" * (MAX_TOKEN + 1), "length")
@example(" " + "9" * MAX_TOKEN + "\n", "length")
def test_the_length_grammar_is_its_regex(token, name):
    # `parse_rational` reads a token with string methods; `RATIONAL` is the
    # regular expression it replaced, and `oracle_ratio` reads by it
    try:
        got = tuple(parse_rational(token, name))
    except LinkageError as exc:
        got = str(exc)
    assert got == oracle_ratio(token, name)


class _Length(Fraction):
    """A Fraction subclass, which make_linkage stores as a plain Fraction."""


#: a list of lengths as ints, Fractions, the subclass, Ratios, or mixed by position
_FORMS = {
    "int": lambda values: [int(v) for v in values],
    "Fraction": lambda values: [Fraction(v) for v in values],
    "subclass": lambda values: [_Length(v) for v in values],
    "Ratio": lambda values: [Ratio(*Fraction(v).as_integer_ratio()) for v in values],
    "mixed": lambda values: [(int, Fraction, _Length)[k % 3](v) for k, v in enumerate(values)],
}


def test_make_linkage_is_the_same_for_every_number_type():
    linkages = [form([2, 3, 4, 5, 7]) for form in _FORMS.values()]
    made = [make_linkage(lengths) for lengths in linkages]
    assert all(linkage == made[0] and repr(linkage) == repr(made[0]) for linkage in made)
    assert {type(w) for linkage in made for w in (*linkage.weights, linkage.denominator)} == {int}


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2)], ids=str)
def test_a_nonpositive_length_has_one_message_for_every_number_type(bad):
    messages = set()
    for name, form in _FORMS.items():
        if name == "int" and bad.denominator != 1:
            continue
        with pytest.raises(NonPositiveLength) as raised:
            make_linkage(form([2, 3, bad, 5, 7]))  # "mixed" makes `bad` a _Length
        messages.add(str(raised.value))
    assert messages == {f"length 3 is {bad}; all lengths must be > 0"}


@pytest.mark.parametrize("bad", [Ratio(1, -2), Ratio(-1, -1), Ratio(1, 0)], ids=str)
def test_a_ratio_without_a_positive_denominator_is_refused(bad):
    # a Ratio built by hand, not by the grammar: the weights would take the
    # denominator's sign, or divide by zero
    with pytest.raises(NonPositiveLength) as raised:
        make_linkage([1, 1, 1, bad])
    assert str(raised.value) == f"length 4 is {bad}; all lengths must be > 0"


@st.composite
def length_tokens(draw):
    """A length token as linkctl reads one: an int, an unreduced fraction
    ('6/4'), a decimal ('-2.50', '.5', '5.'), or one of them padded with
    leading zeros to MAX_TOKEN characters."""
    a, b, k = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    tenths = draw(st.text("0123456789", max_size=3))
    token = draw(st.sampled_from([str(a), f"{a * k}/{b * k}", f"{a}.{tenths}", f".{b}", f"{b}."]))
    # rare, so that most lists form a linkage (Hypothesis favours the ends)
    rare = draw(st.integers(0, 19))
    if rare == 7:
        token = "-" + token
    elif rare == 8:
        token = f"0/{b}"
    if draw(st.booleans()):
        sign = token[:1] if token[:1] == "-" else ""
        token = sign + token[len(sign) :].zfill(MAX_TOKEN - len(sign))
    return token


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(length_tokens(), st.just("eps")), min_size=3, max_size=8),
    length_tokens(),
)
@example(["1", "1", "1", "1", "3"], "1")
@example(["6/4", "-2.50", "eps", "1", "5."], ".5")
@example(["9" * MAX_TOKEN, "1", "1", "1", "1"], "1")
@example(["1", "1", "eps", "eps", "1"], "1")
def test_the_pair_route_is_exact(tokens, epsilon_text):
    # the grammar's reduced int pairs and the integer weights give what the
    # Fractions give: the same record, texts and refusals
    epsilon = Fraction(epsilon_text)
    fractions = [epsilon if t == "eps" else Fraction(t) for t in tokens]
    spec = ",".join(tokens)
    pairs = parse_lengths(spec, parse_rational(epsilon_text, "--epsilon"))
    assert [(p.numerator, p.denominator) for p in pairs] == [
        (f.numerator, f.denominator) for f in fractions
    ]
    # `eps` is the epsilon given, whatever its type
    assert parse_lengths(spec, epsilon) == [
        epsilon if t == "eps" else p for t, p in zip(tokens, pairs)
    ]
    refusal = oracle_linkage_error(fractions)
    if refusal is not None:
        for lengths in (pairs, fractions):
            with pytest.raises(refusal[0]) as raised:
                make_linkage(lengths)
            assert str(raised.value) == refusal[1]
        return
    linkage = make_linkage(pairs)
    assert fraction_lengths(linkage) == tuple(fractions)
    assert linkage == make_linkage(fractions) and hash(linkage) == hash(make_linkage(fractions))
    texts = [str(f) for f in fractions]
    assert linkage.spec() == ",".join(texts)
    if 4 <= linkage.n <= 6:
        report = json.loads(report_to_json(classify_linkage(linkage), linkage))
        assert report["lengths"] == texts
        assert json.loads(complex_to_json(build_complex(linkage)))["lengths"] == texts


def test_the_public_names_hand_out_ratios():
    # a length is the grammar's reduced int pair under every public name, and
    # a linkage keeps integer weights over one denominator
    assert Linkage._fields == ("weights", "denominator", "short")
    assert not hasattr(Linkage, "lengths") and not hasattr(Linkage, "part_sum")
    assert linkspace.DEFAULT_EPSILON is DEFAULT_EPSILON == Ratio(1, 100)
    assert str(DEFAULT_EPSILON) == "1/100"
    with pytest.raises(AttributeError):
        linkspace.linkage.NO_SUCH_NAME
    with pytest.raises(AttributeError):
        linkspace.NO_SUCH_NAME
    lengths = parse_lengths("6/4,-2.50,eps,1,5.")
    assert lengths == [Ratio(3, 2), Ratio(-5, 2), DEFAULT_EPSILON, Ratio(1, 1), Ratio(5, 1)]
    assert {type(l) for l in lengths} == {type(parse_rational("2/4"))} == {Ratio}
    linkage = make_linkage(parse_lengths("6/4,2.50,eps,1,2."))
    assert (linkage.weights, linkage.denominator) == ((150, 250, 1, 100, 200), 100)
    assert part_sum(linkage, [1, 3]) == Fraction(151, 100)


@pytest.mark.parametrize(
    "bad", [1.5, "1", "x", None, Decimal("1"), float("nan"), float("inf")], ids=repr
)
def test_make_linkage_refuses_a_length_with_no_numerator_and_denominator(bad):
    # a float or a string is not read as `Fraction` would read it: the bar
    # is named, with the type it came as
    with pytest.raises(TypeError) as raised:
        make_linkage([1, 1, bad, 1])
    assert str(raised.value) == (
        f"length 3 is a {type(bad).__name__}, not an int, Fraction or Ratio"
    )


def test_no_public_length_name_loads_fractions():
    # the public names read, parse, store and write a length as int pairs,
    # so none loads `fractions`, nor the `decimal` and `numbers` it brings
    # in.  -S leaves out `site`, whose .pth files may import them for their
    # own use
    src = str(Path(linkspace.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from linkspace import DEFAULT_EPSILON, make_linkage; "
        "from linkspace.linkage import parse_lengths, parse_rational; "
        "linkage = make_linkage(parse_lengths('6/4,2.50,eps,1,2.', parse_rational('1/50'))); "
        "print(DEFAULT_EPSILON, repr(linkage), linkage.spec(), "
        "*sorted({'fractions', 'decimal', 'numbers'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "1/100 Linkage(lengths='3/2,5/2,1/50,1,2') 3/2,5/2,1/50,1,2\n"


def test_no_module_imports_fractions_or_defines_a_module_getattr():
    # one length type, so no module holds a `Fraction` route beside it, and
    # every name a module hands out is one it defines (no PEP 562 hook)
    paths = sorted(Path(linkspace.__file__).parent.glob("*.py"))
    assert "linkage.py" in [path.name for path in paths]
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]  # None for `from . import x`
            else:
                continue
            assert "fractions" not in {name.split(".")[0] for name in names}, path.name
        defined = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
        assert "__getattr__" not in defined, path.name
