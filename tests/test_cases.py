"""Case graphs, the counterexample harness, and the seeded samplers."""
import hashlib
from fractions import Fraction

import pytest

from wlmpnn.cases import (
    CASE_IDS,
    SAMPLE_GRAPH_MAX_N,
    CaseSpec,
    CaseVerificationError,
    builtin_graph,
    named_spec,
    pre_weight_matrix,
    sample_anonymous_spec,
    sample_degree_spec,
    sample_graph,
    verify_counterexample,
)
from wlmpnn.graphs import format_graph
from wlmpnn.linalg import identity
from wlmpnn.mpnn import BuiltinLayer, DegreeFn, LayerParams, run_mpnn
from wlmpnn.surd import ExactScalar, InputError, LimitError

S = ExactScalar


def test_builtin_graph_shapes():
    assert builtin_graph("fig1").degrees() == (1, 1, 3, 2, 2, 1)
    assert builtin_graph("g1").degrees() == (2, 2, 2, 2)
    assert builtin_graph("g2").n == 2
    g3 = builtin_graph("g3")
    assert g3.n == 10 and g3.degree(1) == g3.degree(6) == 4


def test_builtin_graph_unknown_id():
    with pytest.raises(ValueError, match="unknown builtin graph"):
        builtin_graph("petersen")


def test_pre_weight_rows_g1_match_closed_form():
    g = builtin_graph("g1")
    for family in ("dgnn1", "dgnn2"):
        rows = pre_weight_matrix(g, BuiltinLayer(family, LayerParams(w2=identity(3))))
        # both normalizations give g(2)h(2) = 1/2, so the shared row is (0, 1, 0)
        assert rows[0] == rows[3] == (S(0), S(1), S(0))


def test_pre_weight_rows_g2_match_closed_form():
    g = builtin_graph("g2")
    half = S(Fraction(1, 2))
    for family in ("dgnn3", "dgnn4"):
        rows = pre_weight_matrix(g, BuiltinLayer(family, LayerParams(w2=identity(2))))
        assert rows[0] == rows[1] == (half, half)


def test_pre_weight_rows_g3_match_closed_form():
    g = builtin_graph("g3")
    rows = pre_weight_matrix(g, BuiltinLayer("dgnn5", LayerParams(w2=identity(3))))
    assert rows[0] == rows[5] == (S(1), S(1), S(1))


def test_pre_weight_rejects_two_weight_families():
    with pytest.raises(ValueError, match="self weight"):
        pre_weight_matrix(
            builtin_graph("g2"),
            BuiltinLayer(
                "general-dgnn",
                LayerParams(w1=identity(2), w2=identity(2), p=S(0), g_fn=DegreeFn("one"), h_fn=DegreeFn("one")),
            ),
        )


def test_all_cases_pass():
    for case_id in CASE_IDS:
        report = verify_counterexample(CaseSpec(case_id, trials=60, seed=1))
        assert report.passed, case_id


def test_forced_merge_cases_never_separate():
    for case_id in ("g1-dgnn12", "g2-dgnn34", "g3-dgnn5"):
        report = verify_counterexample(CaseSpec(case_id, trials=100, seed=7))
        assert report.trial_separations == 0
        assert report.structural_ok and report.expected_rows_ok
        assert report.wl_verdict_ok


def test_fig1_gcn_case_extra_checks():
    report = verify_counterexample(CaseSpec("fig1-gcn", trials=30, seed=3))
    checks = dict(report.extra)
    assert checks["same_round_relation_fails"]
    assert checks["same_round_witness_is_round1_pair"]
    assert checks["one_step_ahead_relation_holds"]


def test_reports_are_reproducible():
    a = verify_counterexample(CaseSpec("g1-dgnn12", trials=40, seed=9))
    b = verify_counterexample(CaseSpec("g1-dgnn12", trials=40, seed=9))
    assert a.to_json_text() == b.to_json_text()


def test_structural_verdicts_ignore_seed():
    a = verify_counterexample(CaseSpec("g2-dgnn34", trials=10, seed=1))
    b = verify_counterexample(CaseSpec("g2-dgnn34", trials=10, seed=999))
    assert a.structural_ok == b.structural_ok == True
    assert a.expected_rows_ok == b.expected_rows_ok == True


def test_unknown_case_id():
    with pytest.raises(ValueError, match="unknown case"):
        verify_counterexample(CaseSpec("fig9-gin"))


def test_case_spec_refuses_its_input_when_made():
    with pytest.raises(InputError, match="^unknown case 'fig9-gin' \\(known: fig1-gcn, "):
        CaseSpec("fig9-gin")
    with pytest.raises(InputError, match="^a verification needs at least one trial, got 0$"):
        CaseSpec("g2-dgnn34", trials=0)


def test_sample_graph_single_edge():
    g = sample_graph(2, 1, seed=5)
    assert sorted(g.edges) == [(1, 2)]


def test_sample_graph_deterministic():
    a = sample_graph(8, Fraction(2, 5), seed=42)
    b = sample_graph(8, Fraction(2, 5), seed=42)
    assert a == b
    assert a != sample_graph(8, Fraction(2, 5), seed=43)


def test_sample_graph_invariants_sweep():
    for seed in range(100):
        import random

        n = random.Random(seed).randint(2, 10)
        g = sample_graph(n, 0.4, seed)
        assert min(g.degrees()) >= 1
        for v in range(1, n + 1):
            row = g.label_of(v)
            assert sum(x.as_int() for x in row) == 1


def test_sample_graph_connected_flag():
    for seed in range(20):
        g = sample_graph(7, 0.3, seed, require_connected=True)
        from wlmpnn.cases import _connected

        assert _connected(g.n, sorted(g.edges))


def test_sample_graph_gives_up_eventually():
    with pytest.raises(RuntimeError, match="attempts"):
        sample_graph(3, 0, seed=1, max_attempts=50)


def test_sample_graph_stops_at_its_size_limit():
    with pytest.raises(LimitError, match=f"exceeds SAMPLE_GRAPH_MAX_N = {SAMPLE_GRAPH_MAX_N}"):
        sample_graph(SAMPLE_GRAPH_MAX_N + 1, Fraction(2, 5), seed=7)


@pytest.mark.parametrize(
    "n, digest",
    [
        (8, "e9219524fed3ddbfbbe72884199d608c1f3a84fa06740a9e5c114ee8350f04ce"),
        (SAMPLE_GRAPH_MAX_N, "ce56c84be65ac9d25483f5ec86d4c1bf7f09e248dd1682abe6761be4b8dadc6b"),
    ],
)
def test_sample_graph_draws_up_to_the_limit_are_pinned(n, digest):
    # suite and test inputs depend on these draws
    g = sample_graph(n, Fraction(2, 5), seed=7, require_connected=True)
    assert hashlib.sha256(format_graph(g).encode()).hexdigest() == digest


def test_sampled_specs_execute():
    import random

    g = sample_graph(6, 0.5, 3)
    for seed in range(6):
        rng = random.Random(seed)
        anon = sample_anonymous_spec(rng, g.label_dim)
        assert anon.f_mode == "zero"
        run_mpnn(g, anon)
        deg = sample_degree_spec(rng, g.label_dim)
        assert deg.f_mode == "degree"
        run_mpnn(g, deg)


def test_named_spec_unknown():
    with pytest.raises(ValueError, match="unknown network"):
        named_spec("gin", 3, rounds=1)


def test_case_failure_raises_with_dump():
    # seed does not matter: force a failure by tampering with the table
    from wlmpnn import cases as cases_module

    tampered = dict(cases_module._CASE_TABLE["g1-dgnn12"])
    tampered["pair"] = (2, 3)  # refinement keeps these together at round 1?
    original = cases_module._CASE_TABLE["g1-dgnn12"]
    cases_module._CASE_TABLE["g1-dgnn12"] = tampered
    try:
        with pytest.raises(CaseVerificationError) as excinfo:
            verify_counterexample(CaseSpec("g1-dgnn12", trials=5, seed=1))
        assert "g1-dgnn12" in str(excinfo.value)
    finally:
        cases_module._CASE_TABLE["g1-dgnn12"] = original


@pytest.mark.parametrize("trials", [0, -3])
def test_verification_needs_a_trial(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        verify_counterexample(CaseSpec("g2-dgnn34", trials=trials, seed=1))
    with pytest.raises(ValueError, match="at least one trial"):
        verify_counterexample(CaseSpec("g2-dgnn34", trials=trials, seed=1), raise_on_failure=False)
    report = verify_counterexample(CaseSpec("g2-dgnn34", trials=1, seed=1))
    assert report.trials == 1 and report.passed


class _FreshDraws:
    """The samplers' per-draw body before they shared one support: a fresh
    ExactScalar(Fraction(n, d)) for every drawn (n, d)."""

    def __getitem__(self, key):
        n, d = key
        return ExactScalar(Fraction(n, d))


def _reference_matrix(rng, rows, cols, span, dens):
    return tuple(
        tuple(ExactScalar(Fraction(rng.randint(-span, span), rng.choice(dens))) for _ in range(cols))
        for _ in range(rows)
    )


def _builtin_entries(spec):
    """Every scalar a sampled spec's builtin layers were given."""
    for layer in spec.layers:
        p = layer.params
        rows = (*(p.w1 or ()), *(p.w2 or ()), p.bias or (), (p.p, p.q, p.r))
        yield from (x for row in rows for x in row if x is not None)


@pytest.mark.parametrize("sample", [sample_degree_spec, sample_anonymous_spec])
def test_sampled_specs_share_their_values_and_keep_the_stream(sample, monkeypatch):
    import random

    from wlmpnn import cases
    from wlmpnn.mpnn import CustomLayer

    fig1 = builtin_graph("fig1")
    shared = {}
    for seed in range(200):
        rng = random.Random(seed)
        spec = sample(rng, 3)
        with monkeypatch.context() as patch:
            patch.setattr(cases, "_SUPPORT", _FreshDraws())
            reference_rng = random.Random(seed)
            reference = sample(reference_rng, 3)
        assert rng.getstate() == reference_rng.getstate()
        assert spec.f_mode == reference.f_mode
        if isinstance(spec.layers[0], CustomLayer):  # comb-aggr keeps its draws in closures
            assert run_mpnn(fig1, spec) == run_mpnn(fig1, reference)
            continue
        assert spec.layers == reference.layers  # family and every parameter, by value
        if seed < 100:
            shared.update((id(x), x) for x in _builtin_entries(spec))
    assert 0 < len(shared) <= 27


@pytest.mark.parametrize("scale, span, dens", [("WEIGHT_SCALE", 3, (1, 2)), ("TRIAL_SCALE", 5, (1, 2, 3))])
def test_sampled_matrices_draw_the_same_stream_from_one_object_per_value(scale, span, dens):
    import random

    from wlmpnn import cases

    objects = {}
    for seed in range(200):
        rows, cols = seed % 4 + 1, seed // 4 % 4 + 1
        rng, reference_rng = random.Random(seed), random.Random(seed)
        matrix = cases._sample_matrix(rng, rows, cols, getattr(cases, scale))
        assert matrix == _reference_matrix(reference_rng, rows, cols, span, dens)
        assert rng.getstate() == reference_rng.getstate()
        objects.update((id(x), x) for row in matrix for x in row)
    assert len(objects) == len({x.as_fraction() for x in objects.values()})


def test_the_sampler_support_is_one_read_only_object_per_value():
    from wlmpnn import cases

    support = cases._SUPPORT
    values = {id(x): x for x in support.values()}
    assert len(values) == len({x.as_fraction() for x in values.values()}) == 27
    assert all(x == ExactScalar(Fraction(n, d)) for (n, d), x in support.items())
    assert support[2, 2] is support[1, 1] and support[0, 3] is support[0, 1]
    with pytest.raises(TypeError):
        support[7, 1] = ExactScalar(7)
