"""Graph parsing, invariants, partitions and the coarseness order."""
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlmpnn.cases import builtin_graph, named_spec, sample_graph
from wlmpnn.graphs import (
    GraphFormatError,
    LabelledGraph,
    Partition,
    format_graph,
    make_graph,
    one_hot_rows,
    parse_graph,
    partition_of,
    partition_refines,
)
from wlmpnn.linalg import unique_rows
from wlmpnn.mpnn import run_mpnn
from wlmpnn.surd import ZERO, ExactScalar, canonical_key, exact_sum
from wlmpnn.wl import wl_partitions

FIG1_TEXT = """
# six vertices, one-hot labels
n 6
v 1 3: 1, 0, 0
v 2 3: 1, 0, 0
v 3 3: 0, 1, 0
v 4 3: 0, 0, 1
v 5 3: 0, 0, 1
v 6 3: 0, 1, 0
e 1 3
e 2 3
e 3 4
e 4 5
e 5 6
"""


def test_parse_fig1_degrees():
    g = parse_graph(FIG1_TEXT)
    assert g.degrees() == (1, 1, 3, 2, 2, 1)
    assert g == builtin_graph("fig1")


def test_parse_single_edge():
    g = parse_graph("n 2\nv 1 2: 1, 0\nv 2 2: 0, 1\ne 1 2\n")
    assert g == builtin_graph("g2")
    assert g.degree(1) == 1


def test_g3_centre_degree():
    assert builtin_graph("g3").degree(1) == 4


def test_parse_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph("n 1\nv 1 1: 1\ne 1 1\n")


def test_parse_rejects_isolated_vertex():
    with pytest.raises(GraphFormatError, match="solated"):
        parse_graph("n 3\nv 1 1: 1\nv 2 1: 1\nv 3 1: 1\ne 1 2\n")


def test_parse_rejects_dimension_mismatch():
    with pytest.raises(GraphFormatError):
        parse_graph("n 2\nv 1 2: 1, 0\nv 2 1: 1\ne 1 2\n")


def test_a_graph_made_in_code_is_checked_like_one_read_from_a_file():
    # the constructor makes int labels exact scalars and a reversed edge an
    # ordered pair, as make_graph, the same constructor, always did
    for edge in ((1, 2), (2, 1)):
        g = LabelledGraph(2, frozenset({edge}), ((1,), (2,)))
        assert g == make_graph(2, [(1, 2)], [(1,), (2,)]) == parse_graph("n 2\nv 1 1: 1\nv 2 1: 2\ne 2 1\n")
        assert g.edges == frozenset({(1, 2)}) and g.labels == ((ExactScalar(1),), (ExactScalar(2),))
        assert run_mpnn(g, named_spec("gcn", 1, 1)).rounds == 1
    with pytest.raises(GraphFormatError, match="label rows must share a positive width"):
        parse_graph("n 2\nv 1 2: 1, 0\nv 2 1: 1\ne 1 2\n")


@pytest.mark.parametrize(
    "n, edges, labels, message",
    [
        (2, [(1.0, 2)], [(1,), (2,)], "edge (1.0, 2): vertex ids must be of type int"),
        (2.0, [(1, 2)], [(1,), (2,)], "vertex count 2.0 is a float, not an int"),
        (2, [(True, 2)], [(1,), (2,)], "edge (True, 2): vertex ids must be of type int"),
        (2, [(1, "2")], [(1,), (2,)], "edge (1, '2'): vertex ids must be of type int"),
        (3, [(1, 2, 3)], [(1,)] * 3, "edge (1, 2, 3) is not a pair of vertices"),
        (3, [(1,)], [(1,)] * 3, "edge (1,) is not a pair of vertices"),
        (3, [1], [(1,)] * 3, "an edge must be iterable, not of type int"),
        (2, 12, [(1,), (2,)], "edges must be iterable, not of type int"),
        (2, [(1, 2)], 5, "labels must be iterable, not of type int"),
        (2, [(1, 2)], [(1,), 2], "a label row must be iterable, not of type int"),
        (3, [(1, 2), (2, 3)], [(1,), (2,)], "expected 3 label rows, got 2"),
        (2, [(1, 2), (2, 2)], [(1,), (2,)], "self-loop at vertex 2"),
    ],
    ids=[
        "float-id",
        "float-n",
        "bool-id",
        "str-id",
        "triple-edge",
        "single-edge",
        "int-edge",
        "int-edges",
        "int-labels",
        "int-row",
        "label-count",
        "self-loop",
    ],
)
def test_make_graph_refuses_vertex_ids_and_counts_that_are_not_ints(n, edges, labels, message):
    # a float id would break wl_run's list indexing, and True would pass as
    # vertex 1; an edge, a label set or a row of the wrong shape is refused
    # before it is unpacked or iterated
    with pytest.raises(GraphFormatError, match=re.escape(message)):
        make_graph(n, edges, labels)


def test_parse_rejects_bad_vertex_id():
    with pytest.raises(GraphFormatError):
        parse_graph("n 2\nv 1 1: 1\nv 3 1: 1\ne 1 3\n")


def test_missing_vertices_are_counted_not_listed():
    # the message names the count and a few ids, however large the declared n
    with pytest.raises(GraphFormatError) as info:
        parse_graph("n 1000000\nv 1 1: 1\nv 2 1: 1\ne 1 2\n")
    message = str(info.value)
    assert len(message) < 1024
    assert message == "missing vertex lines for 999998 of 1000000 vertices: 3, 4, 5, ..."
    with pytest.raises(GraphFormatError, match=r"missing vertex lines for 2 of 4 vertices: 2, 4$"):
        parse_graph("n 4\nv 1 1: 1\nv 3 1: 1\ne 1 3\n")
    with pytest.raises(GraphFormatError, match=r"missing vertex lines for 1 of 2 vertices: 2$"):
        parse_graph("n 2\nv 1 1: 1\nv 3 1: 1\ne 1 3\n")
    with pytest.raises(GraphFormatError, match=r"out of range 1..2: \[3\]"):
        parse_graph("n 2\nv 1 1: 1\nv 2 1: 1\nv 3 1: 1\ne 1 2\ne 2 3\n")


def test_format_parse_round_trip():
    g = builtin_graph("fig1")
    text = format_graph(g)
    assert parse_graph(text) == g
    assert format_graph(parse_graph(text)) == text


def test_equal_label_rows_are_one_row():
    half, root = Fraction(1, 2), ExactScalar.sqrt(2)
    rows = [
        (1, 0, half),
        (Fraction(1), ExactScalar(0), ExactScalar(half)),
        (0, root, 0),
        (ExactScalar(1), 0, Fraction(2, 4)),
        (Fraction(0), root, ZERO),
        (1, 0, 0),
    ]
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    expected = tuple(tuple(map(ExactScalar, row)) for row in rows)
    # fresh lists from a generator: no row outlives its turn unless the graph keeps it
    for labels in (rows, (list(row) for row in rows)):
        g = make_graph(6, edges, labels)
        assert g.labels == expected and all(type(x) is ExactScalar for row in g.labels for x in row)
        assert g.labels[0] is g.labels[1] is g.labels[3]
        assert g.labels[2] is g.labels[4]
        assert len({id(row) for row in g.labels}) == 3
        assert partition_of(g.labels).class_of == (0, 0, 1, 0, 1, 2)
        vertex_lines = [f"v {v} 3: {', '.join(x.to_text() for x in row)}" for v, row in enumerate(expected, 1)]
        edge_lines = [f"e {u} {v}" for u, v in edges]
        assert format_graph(g) == "\n".join(["n 6", *vertex_lines, *edge_lines]) + "\n"
    one_hot = make_graph(300, [(v, v % 300 + 1) for v in range(1, 301)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)] * 100)
    assert len({id(row) for row in one_hot.labels}) == 3
    assert len({id(x) for row in one_hot.labels for x in row}) <= 9


def test_degree_vertex_out_of_range():
    with pytest.raises(GraphFormatError):
        builtin_graph("g2").degree(3)


def _partition(rows):
    """The partition of a labelling given as rows of int entries."""
    return partition_of(tuple(tuple(ExactScalar(x) for x in row) for row in rows))


def test_refines_reflexive_and_coarsest():
    lab = _partition([(1, 0), (0, 1), (1, 0)])
    constant = _partition([(7,), (7,), (7,)])
    assert partition_refines(lab, lab)
    assert partition_refines(lab, constant)
    assert not partition_refines(constant, lab)


def test_refines_across_widths():
    fine = _partition([(1, 0, 0), (0, 1, 0), (1, 0, 0)])
    coarse = _partition([(2,), (3,), (2,)])
    assert partition_refines(fine, coarse)
    assert fine == coarse


def test_refines_fig1_gcn_vs_wl_round1():
    g = builtin_graph("fig1")
    wl1 = wl_partitions(g, 1)[1]
    gcn1 = run_mpnn(g, named_spec("gcn", 3, rounds=1)).partitions[1]
    # refinement round 1 merges v4, v5; the degree-aware layer splits them
    assert wl1.class_of[3] == wl1.class_of[4]
    assert gcn1.class_of[3] != gcn1.class_of[4]
    assert not partition_refines(wl1, gcn1)
    assert partition_refines(gcn1, wl1)


def test_equivalent_one_hot_column_permutation():
    a = _partition([(1, 0), (0, 1), (1, 0)])
    b = _partition([(0, 1), (1, 0), (0, 1)])
    assert a == b


def test_vertex_count_mismatch_is_error():
    with pytest.raises(ValueError, match="mismatch"):
        partition_refines(_partition([(1,)]), _partition([(1,), (2,)]))


def test_partition_of_examples():
    assert _partition([(1,), (2,), (3,)]).num_classes == 3
    assert _partition([(1,), (1,)]).num_classes == 1


def test_partition_of_wl_round1_fig1():
    g = builtin_graph("fig1")
    part = wl_partitions(g, 1)[1]
    assert part.classes() == [[1, 2], [3], [4, 5], [6]]


def test_one_hot_labelling():
    part = Partition((0, 1, 0))
    rows = one_hot_rows(part)
    assert partition_of(rows) == part
    assert rows == ((ExactScalar(1), ZERO), (ZERO, ExactScalar(1)), (ExactScalar(1), ZERO))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_equivalent_iff_same_partition(seed):
    # refinement both ways is partition equality: class ids by first occurrence
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    a = _partition([[rng.randint(0, 2)] for _ in range(n)])
    b = _partition([[rng.randint(0, 2), rng.randint(0, 1)] for _ in range(n)])
    assert (partition_refines(a, b) and partition_refines(b, a)) == (a == b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_refines_preorder_on_random_triples(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    a, b, c = (_partition([[rng.randint(0, 2)] for _ in range(n)]) for _ in range(3))
    assert partition_refines(a, a)
    if partition_refines(a, b) and partition_refines(b, c):
        assert partition_refines(a, c)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_permutation_invariance(seed):
    rng = random.Random(seed)
    g = sample_graph(rng.randint(3, 7), 0.5, seed)
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)  # perm[old-1] = new id
    edges = [(perm[u - 1], perm[v - 1]) for u, v in g.edges]
    labels = [None] * g.n
    for v in range(1, g.n + 1):
        labels[perm[v - 1] - 1] = g.label_of(v)
    permuted = make_graph(g.n, edges, labels)
    original = wl_partitions(g, 2)
    image = wl_partitions(permuted, 2)
    for p_orig, p_img in zip(original, image):
        for v in range(1, g.n + 1):
            for w in range(1, g.n + 1):
                same_orig = p_orig.class_of[v - 1] == p_orig.class_of[w - 1]
                same_img = p_img.class_of[perm[v - 1] - 1] == p_img.class_of[perm[w - 1] - 1]
                assert same_orig == same_img


def _three_probe_ids(keys):
    """Distinct keys in first-occurrence order and each key's index, with a
    membership test, an insertion and a lookup per key."""
    seen = {}
    ids = []
    for key in keys:
        if key not in seen:
            seen[key] = len(seen)
        ids.append(seen[key])
    return list(seen), ids


# equal values of different types hash alike, so they share an index
_KEY_VALUES = [
    0, ExactScalar(0), Fraction(0),
    1, Fraction(1), ExactScalar(1),
    Fraction(1, 2), ExactScalar(Fraction(1, 2)),
    -2, ExactScalar(-2),
    ExactScalar.sqrt(2), ExactScalar.sqrt(2, Fraction(1, 2)), ExactScalar(1) + ExactScalar.sqrt(3),
]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_KEY_VALUES), min_size=1, max_size=3).map(tuple), max_size=30))
def test_partition_rows_match_the_three_probe_reference(rows):
    distinct, ids = _three_probe_ids(rows)
    assert Partition.from_keys(rows).class_of == tuple(ids)
    assert Partition.from_keys(iter(rows)).class_of == tuple(ids)
    uniq, index = unique_rows(rows)
    assert index == ids
    # the first occurrence of each key stands for it, with its own types
    assert len(uniq) == len(distinct) and all(a is b for a, b in zip(uniq, distinct))
    scalars = [row[0] for row in rows]
    assert Partition.from_keys(scalars).class_of == tuple(_three_probe_ids(scalars)[1])


def test_partition_rows_merge_equal_values_of_different_types():
    rows = [(1,), (Fraction(1),), (ExactScalar(1),), (ExactScalar(Fraction(1, 2)),), (Fraction(1, 2),)]
    assert Partition.from_keys(rows).class_of == (0, 0, 0, 1, 1)
    uniq, index = unique_rows(rows)
    assert index == [0, 0, 0, 1, 1]
    assert uniq == [(1,), (ExactScalar(Fraction(1, 2)),)]
    assert type(uniq[0][0]) is int and type(uniq[1][0]) is ExactScalar
    assert Partition.from_keys([]).class_of == () and unique_rows([]) == ([], [])


# -- partition keys from the canonical integers ------------------------------------------


def _hash_partition(rows):
    """Class ids by first occurrence, keyed by the hashes of the rows'
    entries, as ``Partition.from_keys`` keys them."""
    seen = {}
    return Partition(tuple(seen.setdefault(tuple(row), len(seen)) for row in rows))


def test_canonical_key_ignores_the_order_terms_were_built_in():
    a = ExactScalar(1) + ExactScalar.sqrt(2) + ExactScalar.sqrt(3)
    b = ExactScalar.sqrt(3) + ExactScalar.sqrt(2) + ExactScalar(1)
    assert a == b and list(a._num) != list(b._num)
    assert canonical_key(a) == canonical_key(b) and hash(canonical_key(a)) == hash(canonical_key(b))
    assert canonical_key(ExactScalar.sqrt(2) - ExactScalar.sqrt(2)) == canonical_key(0) == canonical_key(ZERO)
    assert canonical_key(Fraction(3, 6)) == canonical_key(ExactScalar(Fraction(1, 2))) != canonical_key(1)
    assert canonical_key(Fraction(4, 2)) == canonical_key(2) == canonical_key(ExactScalar(2))
    assert canonical_key(ExactScalar.sqrt(8)) == canonical_key(ExactScalar.sqrt(2, 2))
    assert canonical_key(ExactScalar.sqrt(2)) != canonical_key(ExactScalar.sqrt(3))
    assert all(canonical_key(v) == canonical_key(ExactScalar(v)) for v in (0, 1, -1, -(2**200), True, False))



def test_rows_from_an_iterator_of_fresh_rows_get_their_own_keys():
    # a freed row's id may be reused by a later row, so the ids are keyed only while every row is held
    for seed in range(50):
        rng = random.Random(seed)
        values = [rng.randrange(4) for _ in range(12)]
        assert unique_rows([v] for v in values)[1] == unique_rows([(v,) for v in values])[1]


_RADICANDS = (1, 2, 3, 5, 6)
_TERMS = st.lists(
    st.tuples(st.sampled_from(_RADICANDS), st.fractions(min_value=-4, max_value=4, max_denominator=6)),
    max_size=4,
)


def _equal_forms(terms):
    """One value built several ways whose ``_num`` dicts differ in insertion
    order: term by term in drawn and reversed order, through ``exact_sum``
    and ``normalize``, through a cancelling detour, and for a rational the
    Fraction itself, and the int for an integer."""
    parts = [ExactScalar.sqrt(r, c) for r, c in terms]
    forward, backward = ZERO, ZERO
    for x in parts:
        forward = forward + x
    for x in reversed(parts):
        backward = backward + x
    detour = ExactScalar.sqrt(7) + backward - ExactScalar.sqrt(7)
    forms = [forward, backward, exact_sum(reversed(parts)), ExactScalar.normalize(reversed(terms)), detour]
    if forward.is_rational:
        q = forward.as_fraction()
        forms.append(q)
        if q.denominator == 1:
            forms.append(q.numerator)
    return forms


@settings(max_examples=150, deadline=None)
@given(st.lists(_TERMS, min_size=1, max_size=4), st.data())
def test_partition_of_matches_the_hash_reference(values, data):
    pool = [form for terms in values for form in _equal_forms(terms)]
    pool += [ZERO, 0, Fraction(0), ExactScalar(1) - ExactScalar(1)]
    width = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from(pool)] * width), min_size=1, max_size=25))
    rows += rows[::2]  # row objects that several vertices share
    reference = _hash_partition(rows)
    assert partition_of(rows) == reference
    uniq, index = unique_rows(rows)
    assert index == list(reference.class_of)
    # each distinct row is the object at its first occurrence
    assert all(row is rows[index.index(i)] for i, row in enumerate(uniq))
    a, b = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    assert (canonical_key(a) == canonical_key(b)) == (a == b)
