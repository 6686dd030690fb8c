"""The closed form's surd pass on unreduced rows, against the exact per-edge reference.

run_mpnn's relu and none rounds, and the keys of a sign round that integer
bounds leave open, run ``propagate`` on rows of unreduced integer numerators
over one denominator, reduced once per emitted entry.  Each test compares
the closed form with ``CustomLayer(*builtin_layer(...))``, which reduces
every value it makes, and checks that every emitted entry is canonical: its
numerators are nonzero and share no factor with its denominator.

Every check is a test assertion, never an ``assert`` inside the library, so
the module also runs under ``python -O``.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wlmpnn import mpnn
from wlmpnn.graphs import make_graph
from wlmpnn.mpnn import (
    FAMILIES,
    BoundArithmetic,
    BuiltinLayer,
    CustomLayer,
    DegreeFn,
    LayerParams,
    MpnnSpec,
    builtin_layer,
    lift_plus_one,
    propagate,
    run_mpnn,
)
from wlmpnn.surd import ONE, ZERO, ExactScalar, activate, from_numerators, numerators

S = ExactScalar
SIGMAS = ("relu", "sign", "none")

# label rows with surd entries, repeated so that rows of one class recur
LABELS = (
    (S.sqrt(2), ONE, ZERO),
    (ONE, S.sqrt(3) - ONE, S(Fraction(1, 2))),
    (-S.sqrt(6), S(Fraction(2, 3)), S.sqrt(2) + S.sqrt(5)),
)


def _ring_graph(n: int, seed: int, labels=LABELS):
    """A ring of n vertices with a few seeded chords, so degrees differ."""
    rng = random.Random(seed)
    edges = {(v, v % n + 1) for v in range(1, n + 1)}
    for _ in range(n // 3):
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        if v - u not in (1, n - 1):
            edges.add((u, v))
    return make_graph(n, sorted(edges), [rng.choice(labels) for _ in range(n)])


def _weights(rng, rows: int, cols: int, half: bool):
    """Integers in [-3, 3], or odd halves in [-5/2, 5/2] when half."""
    if half:
        return tuple(tuple(S(Fraction(2 * rng.randint(-3, 2) + 1, 2)) for _ in range(cols)) for _ in range(rows))
    return tuple(tuple(S(rng.randint(-3, 3)) for _ in range(cols)) for _ in range(rows))


def _layer(rng, family: str, width: int, out: int, sigma: str, half: bool) -> BuiltinLayer:
    """A layer of family with every field it requires or takes."""
    row = FAMILIES[family]
    fields = {"w2": _weights(rng, width, out, half)}
    if "w1" in row.requires + row.takes:
        fields["w1"] = _weights(rng, width, out, half)
    if "bias" in row.requires + row.takes:
        fields["bias"] = tuple(S(Fraction(rng.randint(-3, 3), 2)) for _ in range(out))
    for name in ("p", "q", "r"):
        if name in row.requires:
            fields[name] = S(Fraction(rng.randint(1, 4), 4))
    if family == "general-dgnn":
        fields.update(g_fn=DegreeFn("inv_sqrt_d"), h_fn=DegreeFn("inv_1pd"))
    return BuiltinLayer(family, LayerParams(sigma=sigma, **fields))


def _spec(rng, family: str, width: int, sigma: str, half: bool, rounds: int = 2) -> MpnnSpec:
    layers = []
    for _ in range(rounds):
        out = rng.randint(1, 3)
        layers.append(_layer(rng, family, width, out, sigma, half))
        width = out
    return MpnnSpec("zero" if family in ("gnn", "gnn-minus") else "degree", tuple(layers))


def _per_edge(spec: MpnnSpec) -> MpnnSpec:
    layers = (CustomLayer(*builtin_layer(layer.family, layer.params)) for layer in spec.layers)
    return MpnnSpec(spec.f_mode, tuple(layers))


def _canonical(x: ExactScalar) -> bool:
    den, num = numerators(x)
    return den > 0 and all(num.values()) and math.gcd(den, *num.values()) == 1


def _check(g, spec: MpnnSpec, reference: MpnnSpec | None = None):
    closed = run_mpnn(g, spec)
    expected = run_mpnn(g, reference or _per_edge(spec))
    assert closed.labellings == expected.labellings
    assert closed.partitions == expected.partitions
    emitted = [x for rows in closed.labellings[1:] for row in rows for x in row]
    assert all(map(_canonical, emitted))
    return closed


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("half", [False, True], ids=["integer", "half-integer"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_closed_form_on_unreduced_rows_matches_per_edge(family, half, sigma):
    for seed in range(3):
        rng = random.Random(f"{family}:{half}:{sigma}:{seed}")
        g = _ring_graph(rng.randint(6, 10), seed)
        _check(g, _spec(rng, family, g.label_dim, sigma, half))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_integer_products_that_cancel_emit_exact_zeros(sigma):
    # every vertex has degree 2 and one label, (a, a, b): column 0 of W2 is
    # (1, -1, 0), so x W2 cancels there within one product, and W1 = -2 W2
    # cancels the neighbour sum 2 x W2 in every column
    labels = [(S.sqrt(2), S.sqrt(2), S.sqrt(3) - ONE)] * 6
    g = make_graph(6, [(v, v % 6 + 1) for v in range(1, 7)], labels)
    w2 = ((1, 2, 0), (-1, 0, 3), (0, -1, 1))
    w1 = tuple(tuple(-2 * x for x in r) for r in w2)
    layer = BuiltinLayer("gnn", LayerParams(w1=w1, w2=w2, sigma=sigma))
    closed = _check(g, MpnnSpec("zero", (layer,)))
    assert all(x is ZERO for row in closed.labellings[1] for x in row)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("half", [False, True], ids=["integer", "half-integer"])
@pytest.mark.parametrize("family", ["gcn-kipf", "dgnn2", "dgnn6", "gnn", "general-dgnn"])
def test_width_one_layers_match_per_edge(family, half, sigma):
    # one-row weights on width-1 labels, then back to width 1
    rng = random.Random(f"width-one:{family}:{half}:{sigma}")
    g = _ring_graph(9, 5, labels=[(S.sqrt(2),), (ONE - S.sqrt(3),), (S(Fraction(3, 2)),)])
    layers = (_layer(rng, family, 1, 2, sigma, half), _layer(rng, family, 2, 1, sigma, half))
    f_mode = "zero" if family == "gnn" else "degree"
    _check(g, MpnnSpec(f_mode, layers))


@pytest.mark.parametrize("half", [False, True], ids=["integer", "half-integer"])
@pytest.mark.parametrize("family", ["dgnn1", "dgnn4", "dgnn6", "gnn", "general-dgnn"])
def test_lifted_layers_on_unreduced_rows_match_per_edge(family, half):
    for seed, sigma in enumerate(SIGMAS):
        rng = random.Random(f"lifted:{family}:{half}:{seed}")
        g = _ring_graph(8, seed)
        spec = _spec(rng, family, g.label_dim, sigma, half)
        lifted, reference = spec, _per_edge(spec)
        for _ in range(2):
            lifted, reference = lift_plus_one(lifted), lift_plus_one(reference)
            _check(g, lifted, reference)


def test_only_non_integer_weights_go_through_row_mat(monkeypatch):
    # an integer weight is multiplied in the unreduced form; any other
    # takes linalg's row_mat on the exact row, once per class
    calls = []
    row_mat = mpnn.row_mat
    monkeypatch.setattr(mpnn, "row_mat", lambda x, w: calls.append(w) or row_mat(x, w))
    g = _ring_graph(9, 2)
    for half in (False, True):
        spec = _spec(random.Random(f"route:{half}"), "gnn", g.label_dim, "relu", half)
        calls.clear()
        run_mpnn(g, spec)
        assert bool(calls) == half


@pytest.mark.parametrize("arith", [mpnn.SURD, BoundArithmetic(64)], ids=["surd", "bounds"])
def test_propagate_at_every_vertex_matches_each_vertex_alone(arith):
    # at = every vertex takes the classes from the partition and reads no
    # neighbour list to find them; one vertex at a time reads only its own
    g = _ring_graph(10, 3)
    rng = random.Random(7)
    form = _layer(rng, "general-dgnn", g.label_dim, 2, "none", half=True).form
    degrees = g.degrees()
    class_of = [LABELS.index(row) for row in g.labels]
    class_row = dict(enumerate(LABELS))
    g_of, h_of = form.g.on(degrees), form.h.on(degrees)
    args = (arith, class_of, class_row, degrees, form.p, g_of, h_of, form.w2, form.w1, form.bias)
    every = propagate(g, range(1, g.n + 1), *args)
    alone = [propagate(g, [v], *args)[0] for v in range(1, g.n + 1)]
    assert every == alone


def test_from_numerators_drops_zeros_and_reduces_once():
    assert from_numerators(6, {1: 4, 2: 0, 3: -2}) == S(Fraction(2, 3)) - S.sqrt(3, Fraction(1, 3))
    assert from_numerators(4, {1: 0, 5: 0}) is ZERO
    x = from_numerators(12, {1: 6, 7: 18})
    assert numerators(x) == (2, {1: 1, 7: 3})
    assert _canonical(x)


# squarefree radicands over the primes 2, 3, 5 and 7, 1 included, so that
# radicands often share a prime or are equal
RADICANDS = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70, 105, 210])


@st.composite
def unreduced_rows(draw, signs=st.integers(-9, 9), widths=st.integers(1, 4)):
    """An unreduced surd row (den, num, width): zero numerators included."""
    width = draw(widths)
    keys = st.tuples(st.integers(0, width - 1), RADICANDS)
    num = draw(st.dictionaries(keys, signs, max_size=8))
    return draw(st.integers(1, 12)), num, width


def _merged_scale(row, s):
    """The product of a row by a scalar (den, num) as the merging loop forms
    it: every pair of terms, sqrt(r) sqrt(rs) = g sqrt(r rs / g**2) for
    g = gcd(r, rs), added into its key."""
    (den, num, width), (s_den, s_num) = row, s
    out = {}
    for (j, r), c in num.items():
        for rs, cs in s_num.items():
            g = math.gcd(r, rs)
            key = j, r * rs // g**2
            out[key] = out.get(key, 0) + c * cs * g
    return den * s_den, out, width


@given(unreduced_rows(), RADICANDS, st.integers(-5, 5).filter(bool), st.integers(1, 6))
def test_one_term_scale_permutes_radicands_as_the_merging_loop_would(row, rs, k, s_den):
    # k sqrt(rs) / s_den sends each (column, radicand) key to one key, so the
    # one-term product has the merging loop's numerators, zeros included
    scaled = mpnn.SURD.scale(row, (s_den, {rs: k}))
    assert scaled == _merged_scale(row, (s_den, {rs: k}))
    den, num, width = row
    assert len(scaled[1]) == len(num)
    factor = from_numerators(s_den, {rs: k})
    for j in range(width):
        column = {r: c for (i, r), c in num.items() if i == j}
        scaled_column = {r: c for (i, r), c in scaled[1].items() if i == j}
        assert from_numerators(scaled[0], scaled_column) == from_numerators(den, column) * factor


@given(unreduced_rows(), st.dictionaries(RADICANDS, st.integers(-5, 5).filter(bool), min_size=2, max_size=4))
def test_multi_term_scale_merges_the_products_of_its_terms(row, s_num):
    assert mpnn.SURD.scale(row, (3, s_num)) == _merged_scale(row, (3, s_num))


@given(st.lists(unreduced_rows(widths=st.just(3)), min_size=1, max_size=5))
def test_sum_adds_rows_over_the_lcm_of_their_denominators(rows):
    den, num, width = mpnn.SURD.sum(rows)
    assert den == math.lcm(*[d for d, _, _ in rows]) and width == 3
    for j in range(3):
        column = {r: c for (i, r), c in num.items() if i == j}
        parts = [from_numerators(d, {r: c for (i, r), c in n.items() if i == j}) for d, n, _ in rows]
        assert from_numerators(den, column) == sum(parts, ZERO)


@given(unreduced_rows(signs=st.integers(0, 9)))
def test_a_nonnegative_relu_row_settles_to_its_activated_entries(row):
    _check_settle(row)


@given(unreduced_rows(signs=st.integers(-3, 3)))
def test_any_row_settles_to_its_activated_entries(row):
    _check_settle(row)


def _check_settle(row):
    # every settled entry is the activation of its column's value, in lowest terms
    den, num, width = row
    columns = [{r: c for (j, r), c in num.items() if j == i} for i in range(width)]
    for sigma in SIGMAS:
        (settled,) = mpnn.SURD.settle([row], sigma)
        assert settled == tuple(activate(from_numerators(den, column), sigma) for column in columns)
        assert all(map(_canonical, settled))


def test_each_degree_table_is_made_once_per_run(monkeypatch):
    # run_mpnn makes each degree function's table once per run, at the first
    # round that reads it, one table when g and h are equal, and keeps none
    # across runs
    made = []
    on = DegreeFn.on
    monkeypatch.setattr(DegreeFn, "on", lambda fn, degrees: made.append(fn.descriptor()) or on(fn, degrees))
    g = _ring_graph(12, 5)
    eye = tuple(tuple(S(int(i == j)) for j in range(3)) for i in range(3))
    gcn = BuiltinLayer("gcn-kipf", LayerParams(w2=eye))
    run_mpnn(g, MpnnSpec("degree", (gcn,) * 3))
    assert made == ["inv_sqrt_1pd"]
    made.clear()
    dgnn1 = BuiltinLayer("dgnn1", LayerParams(w2=eye))
    dgnn6 = BuiltinLayer("dgnn6", LayerParams(w2=eye, r=S(Fraction(1, 2)), p=S(Fraction(1, 2))))
    spec = MpnnSpec("degree", (gcn, dgnn1, dgnn6, BuiltinLayer("gcn-kipf", LayerParams(w2=eye)), dgnn1))
    run_mpnn(g, spec)
    run_mpnn(g, lift_plus_one(spec))
    assert made == ["inv_sqrt_1pd", "inv_d", "one", "blend_inv_sqrt(1/2)"] * 2
