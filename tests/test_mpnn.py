"""Message-passing execution, builtin families, and network transformations."""
import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from wlmpnn.cases import (
    CaseSpec,
    builtin_graph,
    named_spec,
    pre_weight_matrix,
    sample_degree_spec,
    sample_graph,
    verify_counterexample,
)
from wlmpnn.graphs import make_graph, partition_of
from wlmpnn import mpnn
from wlmpnn.linalg import identity
from wlmpnn.mpnn import (
    DEGREE_FAMILIES,
    FAMILIES,
    BuiltinLayer,
    CustomLayer,
    DegreeFn,
    DimensionError,
    LayerParams,
    MpnnSpec,
    SpecValidationError,
    anonymize_h_const,
    builtin_layer,
    degree_fn_from_name,
    degree_probe_spec,
    lift_plus_one,
    run_mpnn,
    spec_from_json,
    spec_to_json,
    wrap_comb_aggr,
)
from wlmpnn.surd import ONE, ZERO, ExactScalar

S = ExactScalar

GCN_FIG1_ROUND1 = [
    ["1/2", "1/4*sqrt(2)", "0"],
    ["1/2", "1/4*sqrt(2)", "0"],
    ["1/2*sqrt(2)", "1/4", "1/6*sqrt(3)"],
    ["0", "1/6*sqrt(3)", "2/3"],
    ["0", "1/6*sqrt(6)", "2/3"],
    ["0", "1/2", "1/6*sqrt(6)"],
]


def test_gcn_identity_round_on_fig1_matches_closed_form():
    g = builtin_graph("fig1")
    trace = run_mpnn(g, named_spec("gcn", 3, rounds=1))
    got = [[x.to_text() for x in trace.labellings[1][v - 1]] for v in range(1, 7)]
    assert got == GCN_FIG1_ROUND1


def test_gcn_message_coefficient_for_degree_two_pair():
    # two adjacent degree-2 vertices exchange with weight 1/3 = (1/sqrt 3)**2
    msg, _ = builtin_layer("gcn-kipf", LayerParams(w2=identity(1)))
    value = msg((ZERO,), (ONE,), 2, 2)
    assert value == (S(Fraction(1, 3)),)


def test_dgnn1_neighbour_coefficient():
    msg, _ = builtin_layer("dgnn1", LayerParams(w2=identity(1)))
    assert msg((ZERO,), (ONE,), 3, 5) == (S(Fraction(1, 3)),)


def test_dgnn6_with_r_one_has_identity_diagonals():
    fn = DegreeFn.blend_inv_sqrt(ONE)
    assert fn.value(1) == ONE and fn.value(7) == ONE


def test_identity_layer_keeps_nonnegative_labels():
    g = builtin_graph("fig1")
    layer = BuiltinLayer("gnn", LayerParams(w1=identity(3), w2=((ZERO,) * 3,) * 3, sigma="relu"))
    trace = run_mpnn(g, MpnnSpec(f_mode="zero", layers=(layer, layer)))
    for t in range(3):
        assert trace.labellings[t] == g.labels


def test_dgnn2_merges_v1_v4_on_g1():
    g = builtin_graph("g1")
    trace = run_mpnn(g, named_spec("dgnn2", 3, rounds=1))
    assert trace.labellings[1][0] == trace.labellings[1][3]


def test_degree_families_refuse_anonymous_mode():
    layer = BuiltinLayer("gcn-kipf", LayerParams(w2=identity(3)))
    with pytest.raises(SpecValidationError, match="degree"):
        run_mpnn(builtin_graph("fig1"), MpnnSpec(f_mode="zero", layers=(layer,)))


def test_specs_refuse_a_broken_contract_when_made():
    # run_mpnn is not needed to refuse an activation or an f_mode
    with pytest.raises(SpecValidationError, match="^unknown activation 'tanh'$"):
        BuiltinLayer("gnn", LayerParams(w1=identity(3), w2=identity(3), sigma="tanh"))
    layer = BuiltinLayer("gcn-kipf", LayerParams(w2=identity(3)))
    with pytest.raises(SpecValidationError, match="^family 'gcn-kipf' uses degree information but f_mode is 'zero'$"):
        MpnnSpec(f_mode="zero", layers=(layer,))


def test_dgnn6_rejects_r_zero():
    with pytest.raises(SpecValidationError):
        builtin_layer("dgnn6", LayerParams(w2=identity(1), r=ZERO, p=ONE))


def test_gnn_minus_rejects_out_of_range_parameters():
    with pytest.raises(SpecValidationError):
        builtin_layer("gnn-minus", LayerParams(w2=identity(1), p=S(2), q=ZERO))


def test_families_reject_extra_parameters():
    with pytest.raises(SpecValidationError, match="does not take"):
        BuiltinLayer("dgnn1", LayerParams(w2=identity(1), p=ONE))
    with pytest.raises(SpecValidationError, match="does not take"):
        BuiltinLayer("gnn", LayerParams(w1=identity(1), w2=identity(1), q=ZERO))
    with pytest.raises(SpecValidationError, match="no bias"):
        BuiltinLayer("gcn-kipf", LayerParams(w2=identity(1), bias=(ZERO,)))
    with pytest.raises(SpecValidationError, match="requires"):
        BuiltinLayer("dgnn6", LayerParams(w2=identity(1)))


def test_dimension_mismatch_detected():
    g = builtin_graph("fig1")
    layer = BuiltinLayer("gcn-kipf", LayerParams(w2=identity(2)))
    with pytest.raises(DimensionError):
        run_mpnn(g, MpnnSpec(f_mode="degree", layers=(layer,)))


def test_custom_layer_wrong_width_detected():
    g = builtin_graph("g2")

    def msg(x, y, fv, fu):
        return y

    calls = {"n": 0}

    def upd(x, m):
        calls["n"] += 1
        return x if calls["n"] == 1 else (x[0],)

    with pytest.raises(DimensionError):
        run_mpnn(g, MpnnSpec(f_mode="zero", layers=(CustomLayer(msg=msg, upd=upd),)))


def test_degree_probe_appends_degrees():
    g = builtin_graph("fig1")
    trace = run_mpnn(g, degree_probe_spec())
    for v in range(1, 7):
        row = trace.labellings[1][v - 1]
        assert row[:3] == g.label_of(v)
        assert row[3] == S(g.degree(v))


def test_degree_probe_on_star():
    g = builtin_graph("g3")
    trace = run_mpnn(g, degree_probe_spec())
    assert trace.labellings[1][0][-1] == S(4)
    assert trace.labellings[1][1][-1] == S(1)


def test_lift_plus_one_reconstructs_shifted_labels():
    g = builtin_graph("fig1")
    spec = named_spec("gcn", 3, rounds=2)
    original = run_mpnn(g, spec)
    lifted = run_mpnn(g, lift_plus_one(spec))
    assert lifted.rounds == 3
    for t in range(3):
        for v in range(1, 7):
            row = lifted.labellings[t + 1][v - 1]
            assert row[:-1] == original.labellings[t][v - 1]
            assert row[-1] == S(g.degree(v))


def test_lift_plus_one_refinement_contract():
    from wlmpnn.graphs import partition_refines

    for seed in range(8):
        g = sample_graph(7, 0.4, seed + 50)
        spec = sample_degree_spec(random.Random(seed), g.label_dim)
        original = run_mpnn(g, spec)
        lifted = run_mpnn(g, lift_plus_one(spec))
        for t in range(spec.rounds + 1):
            assert partition_refines(lifted.partitions[t + 1], original.partitions[t])


def test_lift_of_anonymous_network_carries_unused_degree_column():
    g = builtin_graph("fig1")
    spec = named_spec("gnn", 3, rounds=2)
    original = run_mpnn(g, spec)
    lifted = run_mpnn(g, lift_plus_one(spec))
    from wlmpnn.graphs import partition_refines

    for t in range(3):
        for v in range(1, 7):
            row = lifted.labellings[t + 1][v - 1]
            assert row[:-1] == original.labellings[t][v - 1]
            assert row[-1] == S(g.degree(v))
        assert partition_refines(lifted.partitions[t + 1], original.partitions[t])


def test_anonymize_h_const_reproduces_labels_exactly():
    for family in ("dgnn1", "dgnn3"):
        for seed in range(6):
            rng = random.Random(seed)
            g = sample_graph(6, 0.5, seed + 200)
            layers = []
            width = g.label_dim
            for _ in range(rng.randint(1, 3)):
                out = rng.randint(1, 3)
                w = tuple(
                    tuple(S(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))) for _ in range(out))
                    for _ in range(width)
                )
                layers.append(BuiltinLayer(family, LayerParams(w2=w, sigma=rng.choice(["relu", "sign"]))))
                width = out
            spec = MpnnSpec(f_mode="degree", layers=tuple(layers))
            anonymous = anonymize_h_const(spec)
            assert anonymous.f_mode == "zero"
            a = run_mpnn(g, spec)
            b = run_mpnn(g, anonymous)
            for la, lb in zip(a.labellings, b.labellings):
                assert la == lb


def test_anonymize_rejects_nonunit_h():
    with pytest.raises(SpecValidationError, match="h"):
        anonymize_h_const(named_spec("dgnn4", 2, rounds=1))


def test_blend_inv_sqrt_of_one_is_one_and_anonymizes():
    # blend_inv_sqrt(1) is (1 + 0 d)**(-1/2) = 1 at every degree, so a dgnn6
    # layer with r = 1 and a general-dgnn layer with that h have h = 1
    g = builtin_graph("fig1")
    unit = DegreeFn.blend_inv_sqrt(ONE)
    assert unit.is_one and unit.on(g.degrees()) is None
    assert not DegreeFn.blend_inv_sqrt(S(Fraction(1, 2))).is_one
    half, w = S(Fraction(1, 2)), identity(g.label_dim)
    for layer in (
        BuiltinLayer("dgnn6", LayerParams(w2=w, r=ONE, p=half, bias=(-half,) * g.label_dim)),
        BuiltinLayer("general-dgnn", LayerParams(w2=w, w1=w, p=half, g_fn=DegreeFn("inv_sqrt_1pd"), h_fn=unit)),
    ):
        spec = MpnnSpec("degree", (layer, layer))
        original, anonymous = run_mpnn(g, spec), run_mpnn(g, anonymize_h_const(spec))
        assert anonymous.labellings == original.labellings
        assert anonymous.partitions == original.partitions


def test_wrap_comb_aggr_projection_is_plain_neighbour_sum():
    g = builtin_graph("fig1")
    spec = wrap_comb_aggr(
        comb=lambda x, y: y,
        aggr_h=lambda y: y,
        aggr_g=lambda m: m,
        rounds=1,
    )
    trace = run_mpnn(g, spec)
    for v in range(1, 7):
        expected = [ZERO, ZERO, ZERO]
        for u in g.neighbors(v):
            for j in range(3):
                expected[j] = expected[j] + g.label_of(u)[j]
        assert trace.labellings[1][v - 1] == tuple(expected)


def test_wrap_comb_aggr_constant_h_ignores_structure():
    g = builtin_graph("fig1")
    spec = wrap_comb_aggr(
        comb=lambda x, y: (*x, y[0]),
        aggr_h=lambda y: (ZERO,),
        aggr_g=lambda m: m,
        rounds=1,
    )
    trace = run_mpnn(g, spec)
    part = partition_of(trace.labellings[1])
    # appended column is degree-independent only through the zero message
    for v in range(1, 7):
        assert trace.labellings[1][v - 1][-1] == ZERO


def test_spec_json_round_trip():
    g = builtin_graph("fig1")
    for name in ("gcn", "dgnn6", "gnn", "gnn-minus"):
        spec = named_spec(name, 3, rounds=2)
        payload = spec_to_json(spec)
        rebuilt = spec_from_json(json.loads(json.dumps(payload)))
        assert run_mpnn(g, rebuilt).partitions == run_mpnn(g, spec).partitions


# the LayerParams fields besides sigma, and a valid value of each on fig1
FIELD_VALUES = {
    "w1": identity(3),
    "w2": ((ONE, ZERO, S(-1)), (ZERO, S(Fraction(1, 2)), ONE), (ONE, ONE, ZERO)),
    "bias": (S(Fraction(-1, 3)), ZERO, S(-1)),
    "p": S(Fraction(1, 2)),
    "q": S(Fraction(1, 4)),
    "r": S(Fraction(1, 3)),
    "g_fn": DegreeFn("inv_sqrt_1pd"),
    "h_fn": DegreeFn.blend_inv_sqrt(S(Fraction(2, 3))),
}


def _full_layer(family: str) -> BuiltinLayer:
    """A layer of family with every field it requires or takes."""
    row = FAMILIES[family]
    return BuiltinLayer(family, LayerParams(sigma="none", **{f: FIELD_VALUES[f] for f in row.requires + row.takes}))


def test_family_table():
    assert DEGREE_FAMILIES == {"gcn-kipf", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5", "dgnn6", "general-dgnn"}
    assert {family: (set(row.requires), set(row.takes)) for family, row in FAMILIES.items()} == {
        "gnn": ({"w1", "w2"}, {"bias"}),
        "gnn-minus": ({"w2", "p", "q"}, set()),
        "gcn-kipf": ({"w2"}, set()),
        **{f"dgnn{i}": ({"w2"}, {"bias"}) for i in range(1, 6)},
        "dgnn6": ({"w2", "r", "p"}, {"bias"}),
        "general-dgnn": ({"w2", "p", "g_fn", "h_fn"}, {"w1", "bias"}),
    }


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_requires_its_fields_and_refuses_the_rest(family):
    row = FAMILIES[family]
    full = _full_layer(family).params
    for field in row.requires:
        with pytest.raises(SpecValidationError, match=f"^{family} requires "):
            BuiltinLayer(family, replace(full, **{field: None}))
    for field in FIELD_VALUES.keys() - set(row.requires + row.takes):
        with pytest.raises(SpecValidationError, match=f"^{family} does not take "):
            BuiltinLayer(family, replace(full, **{field: FIELD_VALUES[field]}))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_spec_json_round_trips_every_field_of_every_family(family):
    g = builtin_graph("fig1")
    spec = MpnnSpec(f_mode="degree" if family in DEGREE_FAMILIES else "zero", layers=(_full_layer(family),) * 2)
    payload = json.loads(json.dumps(spec_to_json(spec)))
    weights = [name for name in payload["layers"][0] if name.startswith("W")]
    assert weights == (["W1", "W2"] if family in ("gnn", "general-dgnn") else ["W"])
    rebuilt = spec_from_json(payload)
    assert rebuilt == spec
    assert run_mpnn(g, rebuilt).labellings == run_mpnn(g, spec).labellings


def test_spec_json_rejects_custom_layers():
    with pytest.raises(SpecValidationError, match="custom layers are not serializable"):
        spec_to_json(degree_probe_spec())
    # a lifted builtin layer is refused as the lift it is, not as a custom layer
    layer = BuiltinLayer("dgnn1", LayerParams(w2=identity(3)))
    lifted = lift_plus_one(lift_plus_one(MpnnSpec("degree", (layer,))))
    with pytest.raises(SpecValidationError, match=re.escape("a dgnn1 layer lifted by lift_plus_one (depth 2)")):
        spec_to_json(MpnnSpec("zero", lifted.layers[2:]))


def test_general_dgnn_round_trips_with_degree_functions():
    g = builtin_graph("fig1")
    layer = BuiltinLayer(
        "general-dgnn",
        LayerParams(
            w1=identity(3),
            w2=identity(3),
            bias=(ONE, ZERO, ZERO),
            p=S(Fraction(1, 2)),
            sigma="sign",
            g_fn=DegreeFn("inv_sqrt_1pd"),
            h_fn=DegreeFn("one"),
        ),
    )
    tabulated = BuiltinLayer(
        "general-dgnn",
        LayerParams(
            w2=identity(3),
            p=ONE,
            g_fn=DegreeFn.from_table({1: ONE, 2: S(Fraction(1, 2)), 3: S.sqrt(3, Fraction(1, 3)) + ONE}),
            h_fn=DegreeFn.blend_inv_sqrt(S(Fraction(1, 3))),
        ),
    )
    spec = MpnnSpec(f_mode="degree", layers=(layer, tabulated))
    payload = json.loads(json.dumps(spec_to_json(spec)))
    assert payload["layers"][1]["g"] == "table(1:1; 2:1/2; 3:1 + 1/3*sqrt(3))"
    rebuilt = spec_from_json(payload)
    assert rebuilt == spec
    assert run_mpnn(g, rebuilt).labellings == run_mpnn(g, spec).labellings


@pytest.mark.parametrize(
    "name", ["table(1:1; 1:2)", "table(0:1)", "table(1)", "table(x:1)", "table(1:; 2:1)"]
)
def test_malformed_degree_table_is_a_spec_error(name):
    with pytest.raises(SpecValidationError, match="degree function"):
        degree_fn_from_name(name)


def test_empty_degree_table_round_trips():
    assert degree_fn_from_name(DegreeFn.from_table({}).descriptor()) == DegreeFn.from_table({})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DegreeFn.from_table({1: ONE, 2: ZERO}), "table(1:1; 2:0): value 0 at degree 2 is not positive"),
        (lambda: DegreeFn.from_table({1: -ONE}), "table(1:-1): value -1 at degree 1 is not positive"),
        (lambda: DegreeFn("inv_sqrt_x"), "unknown degree function kind 'inv_sqrt_x'"),
        (lambda: DegreeFn.blend_inv_sqrt(ZERO), "blend parameter r must satisfy 0 < r <= 1"),
        (lambda: DegreeFn.blend_inv_sqrt(S(2)), "blend parameter r must satisfy 0 < r <= 1"),
        (lambda: DegreeFn.blend_inv_sqrt(S.sqrt(2)), "blend parameter r must be rational"),
        (lambda: DegreeFn("blend_inv_sqrt", r=S(2)), "blend parameter r must satisfy 0 < r <= 1"),
        (lambda: DegreeFn.from_table({1: -1}), "table(1:-1): value -1 at degree 1 is not positive"),
        (lambda: DegreeFn.from_table({1: 0.5}), "table at degree 1: value 0.5 is a float, not an exact scalar"),
        (lambda: DegreeFn.from_table({0: ONE}), "degree function table: degree 0 is not a positive int"),
        (lambda: DegreeFn.from_table({2.0: ONE}), "degree function table: degree 2.0 is not a positive int"),
        (lambda: DegreeFn.from_table({1: ONE, "2": ONE}), "degree function table: degree '2' is not a positive int"),
        (lambda: DegreeFn("blend_inv_sqrt"), "degree function blend_inv_sqrt needs a blend parameter r"),
        (lambda: DegreeFn.blend_inv_sqrt(0.5), "degree function blend_inv_sqrt: r 0.5 is a float, not an exact scalar"),
        (lambda: DegreeFn("table"), "degree function table needs a table of values"),
    ],
    ids=[
        "table-0",
        "table-minus-1",
        "unknown-kind",
        "r-0",
        "r-2",
        "r-sqrt2",
        "r-2-without-constructor",
        "table-int-minus-1",
        "table-float",
        "table-degree-0",
        "table-float-degree",
        "table-str-degree",
        "blend-without-r",
        "r-float",
        "table-without-table",
    ],
)
def test_degree_function_refused_when_made(make, message):
    with pytest.raises(SpecValidationError, match=re.escape(message)):
        make()


def test_degree_function_makes_int_and_fraction_values_exact():
    table = DegreeFn.from_table({1: 1, 2: Fraction(1, 2)})
    assert table == DegreeFn.from_table({1: ONE, 2: S(Fraction(1, 2))})
    assert type(table.value(2)) is ExactScalar and table.descriptor() == "table(1:1; 2:1/2)"
    assert DegreeFn.blend_inv_sqrt(Fraction(1, 2)) == DegreeFn.blend_inv_sqrt(S(Fraction(1, 2)))


@pytest.mark.parametrize(
    "fn, degree, message",
    [
        (DegreeFn("inv_sqrt_1pd"), 65536, "radicand 65537 has a prime factor above MAX_RADICAND_PRIME"),
        (DegreeFn("inv_sqrt_d"), 65537, "radicand 65537 has a prime factor above MAX_RADICAND_PRIME"),
        (DegreeFn.from_table({1: ONE, 3: ONE}), 2, "missing from the table"),
    ],
    ids=["inv_sqrt_1pd", "inv_sqrt_d", "table"],
)
def test_degree_function_refusal_at_a_degree_names_it(fn, degree, message):
    # the same refusal from value and from on, naming the function and the degree
    expected = re.escape(f"{fn.descriptor()} at degree {degree}: {message}")
    with pytest.raises(SpecValidationError, match=expected):
        fn.value(degree)
    with pytest.raises(SpecValidationError, match=expected):
        fn.on([1, degree, 1])


_HALF_AT_3 = DegreeFn.from_table({1: ONE, 2: ONE, 3: S(Fraction(1, 2))})


@pytest.mark.parametrize(
    "fn, degrees, one_there",
    [
        (DegreeFn("one"), (2, 3, 2), True),
        (DegreeFn("inv_d"), (1, 1), True),
        (DegreeFn("inv_d"), (1, 2), False),
        (DegreeFn("inv_sqrt_d"), (1,), True),
        (DegreeFn("inv_sqrt_d"), (4, 1), False),
        (DegreeFn("inv_1pd"), (1,), False),
        (DegreeFn("inv_sqrt_1pd"), (3, 1, 3), False),
        (DegreeFn.blend_inv_sqrt(S(Fraction(1, 3))), (1, 1), True),
        (DegreeFn.blend_inv_sqrt(S(Fraction(1, 3))), (1, 2, 3), False),
        (DegreeFn.blend_inv_sqrt(ONE), (2, 5), True),
        (_HALF_AT_3, (1, 2, 1), True),
        (_HALF_AT_3, (1, 2, 3), False),
    ],
)
def test_degree_function_on_matches_value(fn, degrees, one_there):
    # None exactly when fn is 1 on every present degree, as inv_d is at
    # degree 1 and the table on degrees 1 and 2 (not on 3)
    reference = {d: fn.value(d) for d in degrees}
    assert all(v == ONE for v in reference.values()) == one_there
    assert fn.on(degrees) == (None if one_there else reference)


# -- closed-form evaluation against the per-edge view ---------------------------------------


def _random_matrix(rng, rows, cols):
    return tuple(
        tuple(S(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))) for _ in range(cols))
        for _ in range(rows)
    )


def _random_layer(rng, family, width, out, max_degree):
    sigma = rng.choice(["relu", "sign", "none"])
    w = _random_matrix(rng, width, out)
    bias = _random_matrix(rng, 1, out)[0]
    if family in ("gcn-kipf", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5"):
        kwargs = {} if family == "gcn-kipf" else {"bias": bias}
        return LayerParams(w2=w, sigma=sigma, **kwargs)
    if family == "dgnn6":
        r = S(Fraction(rng.randint(1, 4), 4))
        return LayerParams(w2=w, bias=bias, r=r, p=S(Fraction(rng.randint(0, 4), 4)), sigma=sigma)
    if family == "gnn":
        return LayerParams(w1=_random_matrix(rng, width, out), w2=w, bias=bias, sigma=sigma)
    if family == "gnn-minus":
        p, q = (S(Fraction(rng.randint(0, 4), 4)) for _ in range(2))
        return LayerParams(w2=w, p=p, q=q, sigma=sigma)
    # general-dgnn: own self weight, a bias, p != 0 and distinct g and h, one of them tabulated
    h_table = {d: S.sqrt(d + 1, Fraction(1, rng.randint(1, 3))) for d in range(1, max_degree + 1)}
    return LayerParams(
        w1=_random_matrix(rng, width, out),
        w2=w,
        bias=bias,
        p=S(Fraction(rng.randint(1, 4), 4)),
        sigma=sigma,
        g_fn=rng.choice([DegreeFn("inv_d"), DegreeFn("inv_sqrt_d"), DegreeFn.blend_inv_sqrt(S(Fraction(1, 3)))]),
        h_fn=DegreeFn.from_table(h_table),
    )


@pytest.mark.parametrize(
    "family",
    ["gcn-kipf", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5", "dgnn6", "gnn", "gnn-minus", "general-dgnn"],
)
def test_closed_form_matches_per_edge_closures(family):
    for seed in range(6):
        rng = random.Random(f"{family}:{seed}")
        # two-letter alphabet: repeated labels; edge density 0.35: mixed degrees
        g = sample_graph(rng.randint(4, 9), 0.35, 300 + seed, alphabet=rng.choice((2, 3)))
        width, layers = g.label_dim, []
        for _ in range(3):
            out = rng.randint(1, 3)
            layers.append(BuiltinLayer(family, _random_layer(rng, family, width, out, g.n - 1)))
            width = out
        f_mode = "zero" if family in ("gnn", "gnn-minus") else "degree"
        spec = MpnnSpec(f_mode=f_mode, layers=tuple(layers))
        per_edge = MpnnSpec(
            f_mode=f_mode,
            layers=tuple(CustomLayer(*builtin_layer(layer.family, layer.params)) for layer in layers),
        )
        closed, reference = run_mpnn(g, spec), run_mpnn(g, per_edge)
        assert closed.labellings == reference.labellings
        assert closed.partitions == reference.partitions


# -- integer degree values against the Fraction formula and sympy ---------------------------


def _fraction_inv_sqrt(q: Fraction) -> ExactScalar:
    """The former route: (num/den)**(-1/2) through Fraction and ExactScalar.sqrt."""
    return S.sqrt(q.numerator * q.denominator, Fraction(1, q.numerator))


BLEND_RS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1))

# degrees near the desk-scale end, where 1 + d reaches 2**16 and the largest
# primes below it, 65519 and 65521: the builtin kinds and r = 1/2 keep
# their values there under the bounded split of their radicands
LARGE_DEGREES = (65518, 65519, 65520, 65534, 65535)

# (DegreeFn, rational argument q(d), power of q): the value is q(d) ** power
DEGREE_VALUE_CASES = [
    (DegreeFn("one"), lambda d: Fraction(1), 1),
    (DegreeFn("inv_d"), lambda d: Fraction(1, d), 1),
    (DegreeFn("inv_1pd"), lambda d: Fraction(1, 1 + d), 1),
    (DegreeFn("inv_sqrt_d"), lambda d: Fraction(d), -1),
    (DegreeFn("inv_sqrt_1pd"), lambda d: Fraction(1 + d), -1),
    *(
        (DegreeFn.blend_inv_sqrt(S(r)), lambda d, r=r: r + (1 - r) * d, -1)
        for r in BLEND_RS
    ),
]


@pytest.mark.parametrize(
    "fn, q, power", DEGREE_VALUE_CASES, ids=[fn.descriptor() for fn, _, _ in DEGREE_VALUE_CASES]
)
def test_degree_values_match_fraction_formula_and_sympy(fn, q, power):
    sympy = pytest.importorskip("sympy")
    large = fn.kind != "blend_inv_sqrt" or fn.r == S(Fraction(1, 2))
    for d in (*range(1, 301), *(LARGE_DEGREES if large else ())):
        got = fn.value(d)
        old = S(q(d)) if power == 1 else _fraction_inv_sqrt(q(d))
        assert got == old and got.to_text() == old.to_text()
        rational = sympy.Rational(q(d).numerator, q(d).denominator)
        expected = rational if power == 1 else 1 / sympy.sqrt(rational)
        terms = (sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r) for r, c in got.terms.items())
        assert sympy.expand(sympy.Add(*terms) - expected) == 0


# -- the lift replays every degree family exactly -----------------------------------------


@pytest.mark.parametrize("family", sorted(DEGREE_FAMILIES))
def test_lift_plus_one_replays_labels_exactly(family):
    label_at_several_degrees = False
    for seed in range(5):
        rng = random.Random(f"lift:{family}:{seed}")
        # two-letter alphabet: one label sits at several degrees
        g = sample_graph(rng.randint(5, 9), 0.35, 500 + seed, alphabet=2)
        degrees_of: dict = {}
        for v in range(1, g.n + 1):
            degrees_of.setdefault(g.label_of(v), set()).add(g.degree(v))
        label_at_several_degrees |= any(len(ds) > 1 for ds in degrees_of.values())
        width, layers = g.label_dim, []
        for _ in range(rng.randint(2, 3)):
            out = rng.randint(1, 3)
            layers.append(BuiltinLayer(family, _random_layer(rng, family, width, out, g.n - 1)))
            width = out
        spec = MpnnSpec(f_mode="degree", layers=tuple(layers))
        original = run_mpnn(g, spec)
        lifted = run_mpnn(g, lift_plus_one(spec))
        assert lifted.rounds == spec.rounds + 1
        for t, rows in enumerate(original.labellings):
            extended = tuple((*row, S(g.degree(v))) for v, row in enumerate(rows, start=1))
            assert lifted.labellings[t + 1] == extended
    assert label_at_several_degrees


@pytest.mark.parametrize("family", sorted(DEGREE_FAMILIES))
def test_degree_messages_require_degree_information(family):
    msg, _ = builtin_layer(family, _random_layer(random.Random(family), family, 1, 1, 3))
    for dv, du in ((0, 2), (2, 0), (0, 0)):
        with pytest.raises(SpecValidationError, match="without degree information"):
            msg((ONE,), (ONE,), dv, du)


# -- lifted builtin rounds in closed form, against the lifts of their per-edge closures ----


def _per_edge_layer(layer: BuiltinLayer) -> CustomLayer:
    """The layer's per-edge view, which run_mpnn evaluates edge by edge."""
    return CustomLayer(*builtin_layer(layer.family, layer.params))


@pytest.mark.parametrize("family", sorted(DEGREE_FAMILIES) + ["gnn"])
def test_lifted_closed_form_matches_its_closures(family):
    # the lifts of a per-edge view run the closures a lifted layer once
    # carried; a k-fold lift runs its builtin layers at depth k in closed form
    for seed in range(4):
        rng = random.Random(f"lifted:{family}:{seed}")
        g = sample_graph(rng.randint(5, 9), 0.35, 900 + seed, alphabet=2)
        width, layers = g.label_dim, []
        for _ in range(rng.randint(2, 3)):
            out = rng.randint(1, 3)
            layers.append(BuiltinLayer(family, _random_layer(rng, family, width, out, g.n - 1)))
            width = out
        f_mode = "zero" if family == "gnn" else "degree"
        lifted = MpnnSpec(f_mode, tuple(layers))
        reference = MpnnSpec(f_mode, tuple(map(_per_edge_layer, layers)))
        for k in (1, 2, 3):
            lifted, reference = lift_plus_one(lifted), lift_plus_one(reference)
            assert all(layer == mpnn._LiftedBuiltin(builtin, k) for layer, builtin in zip(lifted.layers[k:], layers))
            closed, expected = run_mpnn(g, lifted), run_mpnn(g, reference)
            assert closed.labellings == expected.labellings
            assert closed.partitions == expected.partitions


def test_lifted_layers_off_the_degree_column_are_refused():
    # the lifted layers alone, on labels whose last component is not the
    # degree: the closed form refuses them, naming the layer, while the lift
    # of the per-edge view runs its closures there, or raises as they do
    g = builtin_graph("fig1")
    rng = random.Random("off-column")
    for family in sorted(DEGREE_FAMILIES) + ["gnn"]:
        layer = BuiltinLayer(family, _random_layer(rng, family, 3, 2, 7))
        f_mode = "zero" if family == "gnn" else "degree"
        rest = MpnnSpec("zero", lift_plus_one(MpnnSpec(f_mode, (layer,))).layers[1:])
        reference = MpnnSpec("zero", lift_plus_one(MpnnSpec(f_mode, (_per_edge_layer(layer),))).layers[1:])
        for column, error in ((S(3), None), (S(7), None), (S(Fraction(1, 2)), ValueError), (ZERO, SpecValidationError)):
            labelled = make_graph(g.n, sorted(g.edges), [(*g.label_of(v), column) for v in range(1, g.n + 1)])
            with pytest.raises(SpecValidationError, match="^layer 1: "):
                run_mpnn(labelled, rest)
            if error is None or family == "gnn" and column == ZERO:  # gnn ignores the degrees it reads
                run_mpnn(labelled, reference)
                continue
            with pytest.raises(error) as raised:
                run_mpnn(labelled, reference)
            assert type(raised.value) is error


def test_lifting_a_builtin_layer_builds_no_per_edge_view(monkeypatch):
    # a lifted builtin layer is a record of its layer and lift depth, run in
    # the closed form: neither lifting nor running it makes per-edge terms
    def refuse(form):
        raise AssertionError("per-edge terms made for a lifted builtin layer")

    monkeypatch.setattr(mpnn, "_layer_terms", refuse)
    g = builtin_graph("fig1")
    spec = sample_degree_spec(random.Random(5), g.label_dim)
    original = run_mpnn(g, spec)
    lifted = run_mpnn(g, lift_plus_one(spec))
    twice = run_mpnn(g, lift_plus_one(lift_plus_one(spec)))
    degree = [S(d) for d in g.degrees()]
    for t, rows in enumerate(original.labellings):
        assert lifted.labellings[t + 1] == tuple((*row, d) for row, d in zip(rows, degree))
        assert twice.labellings[t + 2] == tuple((*row, d, d) for row, d in zip(rows, degree))


def test_lifted_builtin_rounds_are_guarded_as_builtin_rounds():
    # a lifted builtin layer runs through the same guarded closed form as
    # the layer itself: its value and width errors name the layer
    g = builtin_graph("fig1")
    tiny_r = BuiltinLayer("dgnn6", LayerParams(w2=identity(3), r=S(Fraction(1, 2**100)), p=S(Fraction(1, 2))))
    narrow = BuiltinLayer("dgnn1", LayerParams(w2=identity(2)))
    for layer, error, message in (
        (tiny_r, SpecValidationError, f"blend_inv_sqrt(1/{2**100}) at degree 2: "),
        (narrow, DimensionError, "dgnn1 W has 2 rows but incoming labels have width 3"),
    ):
        spec = MpnnSpec("degree", (layer,))
        with pytest.raises(error, match=re.escape(f"layer 1: {message}")):
            run_mpnn(g, spec)
        with pytest.raises(error, match=re.escape(f"layer 2: {message}")):
            run_mpnn(g, lift_plus_one(spec))


# -- builtin rounds once per key, on graphs where keys repeat -------------------------------


def _one_hot(cls: int) -> tuple[int, ...]:
    return tuple(int(j == cls) for j in range(3))


def _torus(rows: int, cols: int, a: int, b: int):
    """rows x cols torus labelled (a i + b j) mod 3."""
    vid = lambda i, j: (i % rows) * cols + j % cols + 1  # noqa: E731
    edges = {(vid(i, j), vid(i + 1, j)) for i in range(rows) for j in range(cols)}
    edges |= {(vid(i, j), vid(i, j + 1)) for i in range(rows) for j in range(cols)}
    labels = [_one_hot((a * i + b * j) % 3) for i in range(rows) for j in range(cols)]
    return make_graph(rows * cols, sorted(edges), labels)


def _circulant(n: int, step: int):
    """C_n(1, step) labelled v mod 3."""
    edges = {(v + 1, (v + s) % n + 1) for v in range(n) for s in (1, step)}
    return make_graph(n, sorted(edges), [_one_hot(v % 3) for v in range(n)])


def _cycle_plus_chords(n: int, rng: random.Random):
    """An n-cycle plus n random chords, every vertex labelled alike."""
    edges = {(v, v + 1) for v in range(1, n)} | {(1, n)}
    while len(edges) < 2 * n:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return make_graph(n, sorted(edges), [(1,)] * n)


def _petersen():
    outer = [(v, v % 5 + 1) for v in range(1, 6)]
    spokes = [(v, v + 5) for v in range(1, 6)]
    inner = [(v + 5, (v + 1) % 5 + 6) for v in range(1, 6)]
    return make_graph(10, outer + spokes + inner, [(1, 0)] * 5 + [(0, 1)] * 5)


REPEATED_KEY_GRAPHS = {
    "torus-6x6-1-1": lambda: _torus(6, 6, 1, 1),
    "torus-3x6-0-1": lambda: _torus(3, 6, 0, 1),
    "circulant-24-5": lambda: _circulant(24, 5),
    "circulant-18-4": lambda: _circulant(18, 4),
    "cycle-plus-chords-20": lambda: _cycle_plus_chords(20, random.Random(20)),
    "petersen": _petersen,
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEY_GRAPHS))
@pytest.mark.parametrize("family", sorted(DEGREE_FAMILIES | {"gnn", "gnn-minus"}))
def test_closed_form_once_per_key_matches_per_edge_closures(name, family):
    g = REPEATED_KEY_GRAPHS[name]()
    rng = random.Random(f"keys:{name}:{family}")
    width, layers = g.label_dim, []
    for _ in range(3):
        out = rng.randint(1, 3)
        layers.append(BuiltinLayer(family, _random_layer(rng, family, width, out, max(g.degrees()))))
        width = out
    f_mode = "zero" if family in ("gnn", "gnn-minus") else "degree"
    spec = MpnnSpec(f_mode, tuple(layers))
    per_edge = MpnnSpec(f_mode, tuple(CustomLayer(*builtin_layer(layer.family, layer.params)) for layer in layers))
    closed, reference = run_mpnn(g, spec), run_mpnn(g, per_edge)
    assert closed.labellings == reference.labellings
    assert closed.partitions == reference.partitions
    # vertices shared a key in round 1, so some rows came out of one evaluation
    assert len(set(closed.labellings[1])) < g.n


# -- anonymization through the self term ----------------------------------------------------


def test_anonymize_h_const_reproduces_general_dgnn_labels_exactly():
    # general-dgnn with W1, a bias and p > 0: the anonymized update adds the
    # self term own(x, c) at the counted degree c
    for seed in range(20):
        rng = random.Random(f"anonymize:general-dgnn:{seed}")
        g = sample_graph(rng.randint(5, 9), 0.4, 700 + seed, alphabet=2)
        g_table = DegreeFn.from_table({d: S(Fraction(rng.randint(1, 5), 3)) for d in range(1, g.n)})
        width, layers = g.label_dim, []
        for _ in range(rng.randint(1, 3)):
            out = rng.randint(1, 3)
            params = LayerParams(
                w1=_random_matrix(rng, width, out),
                w2=_random_matrix(rng, width, out),
                bias=_random_matrix(rng, 1, out)[0],
                p=S(Fraction(rng.randint(1, 4), 4)),
                sigma=rng.choice(["relu", "sign", "none"]),
                g_fn=rng.choice([DegreeFn("inv_d"), DegreeFn("inv_sqrt_d"), g_table]),
                h_fn=DegreeFn("one"),
            )
            layers.append(BuiltinLayer("general-dgnn", params))
            width = out
        spec = MpnnSpec(f_mode="degree", layers=tuple(layers))
        original, anonymous = run_mpnn(g, spec), run_mpnn(g, anonymize_h_const(spec))
        assert anonymous.labellings == original.labellings


# -- no scalar hashing in builtin and lifted rounds -------------------------------------------

# the builtin families of the engine benchmark (perfbench/workloads.py FAMILIES)
ENGINE_FAMILIES = ("gcn", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5", "dgnn6", "gnn", "gnn-minus")


def _ring(n: int):
    """An n-cycle plus n distinct random chords from random.Random(n), with
    one-hot labels over 3 letters (perfbench's cycle_plus_chords)."""
    rng = random.Random(n)
    edges = {(v, v + 1) for v in range(1, n)} | {(1, n)}
    while len(edges) < 2 * n:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return make_graph(n, sorted(edges), [_one_hot(rng.randrange(3)) for _ in range(n)])


NO_HASH_GRAPHS = {"ring-40": lambda: _ring(40), "torus-6x6-1-1": lambda: _torus(6, 6, 1, 1)}
NO_HASH_SPECS = {family: lambda s0, family=family: named_spec(family, s0, rounds=3) for family in ENGINE_FAMILIES}
for _seed in range(5):
    NO_HASH_SPECS[f"lifted-{_seed}"] = lambda s0, seed=_seed: lift_plus_one(sample_degree_spec(random.Random(seed), s0))


def _refuse_hash(self):
    raise AssertionError("an ExactScalar was hashed")


@pytest.mark.parametrize("spec_name", sorted(NO_HASH_SPECS))
@pytest.mark.parametrize("graph_name", sorted(NO_HASH_GRAPHS))
def test_builtin_and_lifted_rounds_hash_no_scalar(monkeypatch, graph_name, spec_name):
    # products are keyed by class id and partitions by canonical integers,
    # so run_mpnn runs with ExactScalar.__hash__ refusing every call
    g = NO_HASH_GRAPHS[graph_name]()
    spec = NO_HASH_SPECS[spec_name](g.label_dim)
    reference = run_mpnn(g, spec)
    with monkeypatch.context() as patch:
        patch.setattr(ExactScalar, "__hash__", _refuse_hash)
        with pytest.raises(AssertionError):
            hash(S(2))
        trace = run_mpnn(g, spec)
    assert trace.to_json() == reference.to_json()


def test_each_layer_is_checked_once_when_it_is_made(monkeypatch):
    # the contract check runs in BuiltinLayer.__post_init__, once per layer
    # object; evaluating, lifting or anonymizing a layer reads its form
    checked = []
    check = BuiltinLayer.__post_init__
    monkeypatch.setattr(BuiltinLayer, "__post_init__", lambda layer: checked.append(layer) or check(layer))
    g = builtin_graph("fig1")
    gcn = named_spec("gcn", 3, rounds=3)
    assert len(checked) == 1
    sampled = [sample_degree_spec(random.Random(seed), 3) for seed in range(6)]
    assert len(checked) == 1 + sum(spec.rounds for spec in sampled)
    dgnn1 = named_spec("dgnn1", 3, rounds=2)
    built = list(checked)
    for spec in (gcn, dgnn1, *sampled):
        run_mpnn(g, spec)
        run_mpnn(g, lift_plus_one(spec))
    run_mpnn(g, anonymize_h_const(dgnn1))
    pre_weight_matrix(g, dgnn1.layers[0])
    assert checked == built
    # a verification checks each layer it makes once: the identity-weight
    # layer, one per trial, and fig1-gcn's named 3-round network
    verify_counterexample(CaseSpec("fig1-gcn", trials=4, seed=1))
    assert len(checked) == len(built) + 1 + 4 + 1
    assert len({id(layer) for layer in checked}) == len(checked)


def test_lifted_rounds_multiply_no_more_than_unlifted(monkeypatch):
    # a lifted round keys its weight products by the classes of the inner
    # rows, not of the full labels, whose degree column splits equal rows;
    # every product in the surd field is one that SurdArithmetic.times
    # returns, an integer weight's included
    calls = []
    times = mpnn.SurdArithmetic.times

    def counted(self, w):
        product, integer = times(self, w), mpnn._integer_terms(w) is not None
        return lambda x: calls.append(integer) or product(x)

    monkeypatch.setattr(mpnn.SurdArithmetic, "times", counted)
    counts = {}
    for lift in (False, True):
        calls.clear()
        for seed in range(40):
            spec = sample_degree_spec(random.Random(seed), 2)
            run_mpnn(sample_graph(8, 0.4, seed, alphabet=2), lift_plus_one(spec) if lift else spec)
        counts[lift] = len(calls)
        assert any(calls) and not all(calls)  # integer and other weights both counted
    assert counts[True] == counts[False] > 0


# -- custom layers returning plain numbers --------------------------------------------------


@pytest.mark.parametrize(
    "msg, upd",
    [
        (lambda x, y, fv, fu: (ONE,), lambda x, m: (m[0].as_int(),)),
        (lambda x, y, fv, fu: (1,), lambda x, m: m),
        (lambda x, y, fv, fu: (Fraction(1, 2),), lambda x, m: (m[0] * 2,)),
    ],
    ids=["int-update", "int-message", "fraction-message"],
)
def test_custom_int_and_fraction_entries_become_exact_scalars(msg, upd):
    g = builtin_graph("fig1")
    then = BuiltinLayer("dgnn1", LayerParams(w2=identity(1)))
    exact = CustomLayer(msg=lambda x, y, fv, fu: (ONE,), upd=lambda x, m: m)
    trace = run_mpnn(g, MpnnSpec("degree", (CustomLayer(msg=msg, upd=upd), then)))
    reference = run_mpnn(g, MpnnSpec("degree", (exact, then)))
    assert all(type(x) is ExactScalar for rows in trace.labellings for row in rows for x in row)
    assert json.dumps(trace.to_json()) == json.dumps(reference.to_json())
    assert trace.partitions == reference.partitions


@pytest.mark.parametrize("entry", ["1", 1.0, None])
def test_custom_entries_of_other_types_are_refused(entry):
    g = builtin_graph("fig1")
    as_update = CustomLayer(msg=lambda x, y, fv, fu: (ONE,), upd=lambda x, m: (ONE, entry))
    named = f"entry {entry!r} is a {type(entry).__name__}, not an exact scalar"
    with pytest.raises(SpecValidationError, match=re.escape(f"round 2: update {named}")):
        run_mpnn(g, MpnnSpec("zero", (degree_probe_spec().layers[0], as_update)))
    as_message = CustomLayer(msg=lambda x, y, fv, fu: (entry,), upd=lambda x, m: m)
    with pytest.raises(SpecValidationError, match=re.escape(f"round 1: message {named}")):
        run_mpnn(g, MpnnSpec("zero", (as_message,)))


def test_a_custom_update_of_width_zero_is_refused_naming_its_round():
    g = builtin_graph("fig1")
    empty = CustomLayer(msg=lambda x, y, fv, fu: (ONE,), upd=lambda x, m: ())
    with pytest.raises(DimensionError, match=re.escape("round 2: update widths [0], not one positive width")):
        run_mpnn(g, MpnnSpec("zero", (degree_probe_spec().layers[0], empty)))


def test_custom_rows_of_unequal_widths_are_refused_naming_their_round():
    g = builtin_graph("fig1")  # one-hot labels of width 3, v1 and v2 led by 1
    cut = lambda row: row if row[0] == ONE else row[:1]
    uneven_update = CustomLayer(msg=lambda x, y, fv, fu: (ONE,), upd=lambda x, m: cut(x))
    with pytest.raises(DimensionError, match=re.escape("round 1: update widths [1, 3], not one positive width")):
        run_mpnn(g, MpnnSpec("zero", (uneven_update,)))
    uneven_message = CustomLayer(msg=lambda x, y, fv, fu: cut(y), upd=lambda x, m: m)
    with pytest.raises(DimensionError, match=re.escape("round 1: message width 3 != 1")):
        run_mpnn(g, MpnnSpec("zero", (uneven_message,)))


# -- builtin layers given plain numbers ----------------------------------------------------

_PLAIN_LAYERS = [
    ("gcn-kipf", dict(w2=((1, 0, 0), (0, 1, 0), (0, 0, 1)))),
    ("gnn", dict(w1=((1, 0), (0, Fraction(1, 2)), (1, 1)), w2=((0, 1), (1, 0), (2, 0)), bias=(-1, Fraction(1, 3)))),
    ("gnn-minus", dict(w2=((1, -1), (0, 1), (1, 0)), p=Fraction(1, 2), q=0)),
    ("dgnn6", dict(w2=((1, 0), (0, 1), (1, 1)), r=Fraction(1, 3), p=1, bias=(-1, -1))),
    ("general-dgnn", dict(w2=((1,), (2,), (3,)), p=Fraction(2, 3), g_fn=DegreeFn("inv_d"), h_fn=DegreeFn("one"))),
]


def _exact(value):
    if isinstance(value, tuple):
        return tuple(map(_exact, value))
    return value if isinstance(value, DegreeFn) else S(value)


@pytest.mark.parametrize("family, fields", _PLAIN_LAYERS, ids=[family for family, _ in _PLAIN_LAYERS])
def test_builtin_int_and_fraction_entries_become_exact_scalars(family, fields):
    g = builtin_graph("fig1")
    f_mode = "degree" if family in DEGREE_FAMILIES else "zero"
    layer = BuiltinLayer(family, LayerParams(**fields))
    twin = BuiltinLayer(family, LayerParams(**{name: _exact(value) for name, value in fields.items()}))
    assert layer == twin
    for name in fields.keys() - {"g_fn", "h_fn"}:
        value = getattr(layer.params, name)
        entries = [x for row in value for x in row] if name in ("w1", "w2") else value if name == "bias" else [value]
        assert all(type(x) is ExactScalar for x in entries)
    trace = run_mpnn(g, MpnnSpec(f_mode, (layer,)))
    reference = run_mpnn(g, MpnnSpec(f_mode, (twin,)))
    assert json.dumps(trace.to_json()) == json.dumps(reference.to_json())
    assert trace.partitions == reference.partitions
    # a layer whose entries are all exact keeps its parameters as they are
    assert BuiltinLayer(family, twin.params).params is twin.params


def test_builtin_exact_entries_stay_the_same_objects():
    half = S(Fraction(1, 2))
    layer = BuiltinLayer("dgnn6", LayerParams(w2=((half, 1), (0, half), (1, 1)), r=half, p=1, bias=(half, 0)))
    assert layer.params.w2[0][0] is half and layer.params.w2[1][1] is half
    assert layer.params.r is half and layer.params.bias[0] is half
    assert layer.params.w2 == ((half, ONE), (ZERO, half), (ONE, ONE))


@pytest.mark.parametrize(
    "family, fields, named",
    [
        ("gcn-kipf", dict(w2=((1.0, 0), (0, 1))), "gcn-kipf W entry 1.0 is a float"),
        ("gnn", dict(w1=((1,),), w2=(("1",),)), "gnn W2 entry '1' is a str"),
        ("dgnn1", dict(w2=((1,),), bias=(0.5,)), "dgnn1 bias entry 0.5 is a float"),
        ("dgnn6", dict(w2=((1,),), r="1/2", p=Fraction(1, 2)), "dgnn6 r '1/2' is a str"),
        ("gnn-minus", dict(w2=((1,),), p=0.5, q=0), "gnn-minus p 0.5 is a float"),
    ],
)
def test_builtin_entries_of_other_types_are_refused(family, fields, named):
    with pytest.raises(SpecValidationError, match=re.escape(f"{named}, not an exact scalar")):
        BuiltinLayer(family, LayerParams(**fields))


W3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "family, params, fields, message",
    [
        ("dgnn1", dict(w2=((), (), ())), {"W": [[], [], []]}, "dgnn1 W has no columns, so its output width is 0"),
        (
            "gnn",
            dict(w1=((1, 0),) * 3, w2=identity(3)),
            {"W1": [["1", "0"]] * 3, "W2": W3},
            "gnn weight matrices disagree on output width: {2, 3}",
        ),
        (
            "dgnn6",
            dict(w2=identity(3), r=Fraction(1, 2), p=Fraction(1, 2), bias=(1, 1)),
            {"W": W3, "r": "1/2", "p": "1/2", "bias": ["1", "1"]},
            "dgnn6 bias width 2 does not match output",
        ),
    ],
    ids=["no-columns", "W1-W2-widths", "bias-width"],
)
def test_bad_shapes_are_refused_when_the_layer_is_made(family, params, fields, message):
    # the shape facts that need no graph are checked once, when the layer
    # is made, and a spec file names the layer
    with pytest.raises(DimensionError, match=re.escape(message)):
        BuiltinLayer(family, LayerParams(**params))
    data = {"f_mode": "degree", "layers": [{"family": "gcn-kipf", "W": W3}, {"family": family, **fields}]}
    with pytest.raises(DimensionError, match=re.escape(f"layer 2: {message}")):
        spec_from_json(data)


@pytest.mark.parametrize("w2", [((1, 0), (1,)), ((ONE,), (ONE, ZERO))], ids=["int", "exact"])
def test_builtin_ragged_weights_are_refused(w2):
    with pytest.raises(DimensionError, match="gcn-kipf W has rows of unequal widths"):
        BuiltinLayer("gcn-kipf", LayerParams(w2=w2))
    with pytest.raises(DimensionError, match="gnn W1 has rows of unequal widths"):
        BuiltinLayer("gnn", LayerParams(w1=w2, w2=((1, 0), (0, 1))))
