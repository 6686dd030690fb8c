"""Weight synthesis: right inverses, separation, the p bound, certificates."""
import random
from fractions import Fraction

import pytest

from wlmpnn import synthesis
from wlmpnn.cases import builtin_graph, make_graph, sample_graph
from wlmpnn.graphs import partition_refines
from wlmpnn.linalg import (
    DependentRowsError,
    as_matrix,
    determinant,
    identity,
    mat_mul,
    outer,
    right_inverse,
    row_mat,
    solve,
    unique_rows,
)
from wlmpnn.mpnn import DegreeFn, run_mpnn
from wlmpnn.surd import ONE, ZERO, ExactScalar, activate, parse_scalar
from wlmpnn.synthesis import (
    compute_mp,
    relu_separation,
    sign_separation,
    synthesize_dgnn6,
    synthesize_gnn_minus,
)
from wlmpnn.wl import wl_partitions, wl_run

S = ExactScalar


def M(rows):
    return as_matrix([[S(Fraction(x)) for x in row] for row in rows])


# -- right inverses -------------------------------------------------------------


def test_right_inverse_identity():
    assert right_inverse(identity(3)) == identity(3)


def test_right_inverse_wide_matrix():
    lab = M([[1, 0, 1], [0, 1, 1], [1, 0, 1]])  # two unique rows
    u = right_inverse(lab)
    uniq, _ = unique_rows(lab)
    assert len(u) == 3 and len(u[0]) == 2
    assert mat_mul(tuple(uniq), u) == identity(2)


def test_right_inverse_rejects_dependent_rows():
    with pytest.raises(ValueError, match="dependent"):
        right_inverse(M([[1, 1], [2, 2]]))


def test_right_inverse_raises_its_own_error_for_dependent_rows():
    assert issubclass(DependentRowsError, ValueError)
    with pytest.raises(DependentRowsError):
        right_inverse(M([[1, 2, 0], [1, 2, 0], [2, 4, 0]]))


def test_dgnn6_takes_the_direct_route_only_for_dependent_rows(monkeypatch):
    # a failure inside the route's independence test surfaces instead of
    # picking the direct route; the first call vets the initial labels, the
    # second picks round 1's route
    real = synthesis.rows_linearly_independent
    calls = []

    def failing(rows):
        calls.append(rows)
        if len(calls) == 1:
            return real(rows)
        raise ValueError("radicands span 13 primes; the conjugate limit is 12")

    monkeypatch.setattr(synthesis, "rows_linearly_independent", failing)
    with pytest.raises(ValueError, match="primes"):
        synthesize_dgnn6(builtin_graph("fig1"), 2, "relu")
    assert len(calls) == 2


def test_dgnn6_repair_variants_let_a_separation_error_escape(monkeypatch):
    # a ValueError from a repair variant is a fault, not a reason to try the next one
    def failing(rows, sigma, q_override, g, t):
        raise ValueError("radicands span 13 primes; the conjugate limit is 12")

    monkeypatch.setattr(synthesis, "_separated_block", failing)
    with pytest.raises(ValueError, match="primes"):
        synthesize_dgnn6(builtin_graph("fig1"), 2, "relu")


def test_right_inverse_with_surd_entries():
    lab = as_matrix([[S.sqrt(2), ONE], [ONE, S.sqrt(3)]])
    u = right_inverse(lab)
    assert mat_mul(lab, u) == identity(2)


# -- separation ------------------------------------------------------------------


def test_relu_separation_worked_example():
    sep = relu_separation(M([[2, 0], [0, 1]]))
    assert sep.base == S(3)
    assert sep.q == S(Fraction(2, 3))
    assert sep.x_row == (S(Fraction(1, 3)), S(Fraction(1, 2)))
    assert outer(sep.z, sep.x_row) == M([["1/3", "1/2"], [1, "3/2"]]) == as_matrix(
        [[parse_scalar("1/3"), parse_scalar("1/2")], [parse_scalar("1"), parse_scalar("3/2")]]
    )
    c = M([[2, 0], [0, 1]])
    activated = tuple(
        tuple(max(ZERO, v - sep.q, key=lambda s: s.sign()) for v in row)
        for row in mat_mul(c, outer(sep.z, sep.x_row))
    )
    assert activated == M([[0, "1/3"], ["1/3", "5/6"]])
    assert determinant(activated) == S(Fraction(-1, 9))


def test_relu_separation_single_row():
    sep = relu_separation(M([[5]]))
    assert sep.q == ZERO
    assert mat_mul(M([[5]]), outer(sep.z, sep.x_row)) == M([[1]])


def test_base_escalation_on_integer_rows_starts_past_collision():
    # with z = (1, 3) the rows (3,0), (0,1) would collide; starting at
    # max entry + 1 = 4 already separates them
    sep = relu_separation(M([[3, 0], [0, 1]]))
    assert sep.base == S(4)


def test_base_escalation_loop_triggers_on_fractional_rows():
    # max entry 3/2 gives base 5/2 and a genuine collision: (3/2)*1 = (3/5)*(5/2)
    sep = relu_separation(M([["3/2", 0], [0, "3/5"]]))
    assert sep.base == S(Fraction(7, 2))


def test_separation_precondition_errors():
    with pytest.raises(ValueError, match="non-negative"):
        relu_separation(M([[-1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="zero"):
        relu_separation(M([[0, 0], [0, 1]]))
    with pytest.raises(ValueError, match="distinct"):
        relu_separation(M([[1, 0], [1, 0]]))


def test_sign_separation_midpoint_threshold():
    sep = sign_separation(M([[2, 0], [0, 1]]))
    assert sep.q == S(Fraction(5, 6))  # midpoint of 2/3 and 1
    signed = tuple(
        tuple(S((v - sep.q).sign()) for v in row) for row in mat_mul(M([[2, 0], [0, 1]]), outer(sep.z, sep.x_row))
    )
    assert determinant(signed) == S(-2)
    # rows in descending-mix order show the strict triangular sign pattern
    ordered = tuple(signed[i] for i in sep.permutation)
    assert ordered == M([[1, 1], [-1, 1]])
    assert determinant(M([[1, 1], [-1, 1]])) == S(2)


def test_sign_pattern_three_rows():
    sep = sign_separation(M([[1], [2], [4]]))
    signed = tuple(
        tuple(S((v - sep.q).sign()) for v in row) for row in mat_mul(M([[1], [2], [4]]), outer(sep.z, sep.x_row))
    )
    ordered = tuple(signed[i] for i in sep.permutation)
    assert ordered == M([[1, 1, 1], [-1, 1, 1], [-1, -1, 1]])
    assert determinant(ordered) == S(4)


def test_separation_with_surd_entries():
    c = as_matrix([[S.sqrt(2), ONE], [ONE, S.sqrt(3)]])
    for sep in (relu_separation(c), sign_separation(c)):
        assert ZERO <= sep.q < ONE


def _seeded_rows(seed: int, low: int, zero_row: bool = False) -> list:
    rng = random.Random(seed)
    rows = [tuple(S(Fraction(rng.randint(low, 6), rng.randint(1, 3))) for _ in range(3)) for _ in range(5)]
    rows.append((S.sqrt(2), ONE, S(Fraction(1, 2))))
    rows.append(rows[1])  # a repeated row must take its unique row's output
    if zero_row:
        rows[2] = (ZERO, ZERO, ZERO)
    return rows


@pytest.mark.parametrize("sigma", ["relu", "sign"])
@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize(
    "low, zero_row, shift_sign",
    [(1, False, 0), (-3, False, 1), (1, True, 1)],
    ids=["non-negative", "negative-entry", "zero-row"],
)
def test_separated_block_matches_the_explicit_product(sigma, uniform, low, zero_row, shift_sign):
    # the block kept as (z, x_row) must give exactly what the materialized
    # separation matrix gives: sigma(row X + bias) with X = outer(z, x_row)
    rows = _seeded_rows(7 + low, low, zero_row)
    q_override = synthesis._uniform_q(len(rows)) if uniform else None
    (z, x_row), bias, values, q, shift = synthesis._separated_block(
        rows, sigma, q_override, builtin_graph("fig1"), 1
    )
    assert shift.sign() == shift_sign
    if zero_row:
        assert shift == ONE
    if uniform:
        assert q == q_override
    x_matrix = outer(z, x_row)
    explicit = [
        tuple(activate(v + b, sigma) for v, b in zip(row_mat(row, x_matrix), bias)) for row in rows
    ]
    assert values == explicit
    z_total = sum(z, start=ZERO)
    assert bias == tuple(shift * z_total * xj - q for xj in x_row)


def test_factored_weights_match_the_materialized_products():
    # the round loop composes outer(z, x_row), K X and V (K X) as
    # outer(z', x_row) with z' = z, K z or V (K z)
    rng = random.Random(11)

    def seeded(rows, cols):
        return tuple(
            tuple(S(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(cols)) for _ in range(rows)
        )

    sep = relu_separation(M([[2, 1], [0, 1], [3, 5]]))
    kernel = seeded(3, 2)
    v_map = seeded(3, 3) + ((S.sqrt(3), ZERO, ONE),)
    x_matrix = outer(sep.z, sep.x_row)
    kernel_z = synthesis._mat_vec(kernel, sep.z)
    assert outer(kernel_z, sep.x_row) == mat_mul(kernel, x_matrix)
    assert outer(synthesis._mat_vec(v_map, kernel_z), sep.x_row) == mat_mul(v_map, mat_mul(kernel, x_matrix))
    wide = relu_separation(M([[2, 1, 0], [0, 1, 1], [3, 5, 2]]))
    assert outer(synthesis._mat_vec(v_map, wide.z), wide.x_row) == mat_mul(v_map, outer(wide.z, wide.x_row))
    # the paper route solves the column list [K z | clamp directions | 0]
    # once, then spreads its first column over x_row
    uniq = M([[2, 1, 0], [0, 1, 1], [3, 5, 2]])
    directions = seeded(3, 2)
    columns = tuple((y,) + d + (ZERO,) for y, d in zip(kernel_z, directions))
    spread = tuple(tuple(r[0] * xj for xj in sep.x_row) + r[1:] for r in solve(uniq, columns))
    block = outer(kernel_z, sep.x_row)
    assert spread == solve(uniq, tuple(block[i] + directions[i] + (ZERO,) for i in range(3)))


# -- the p bound -----------------------------------------------------------------


def test_compute_mp_regular_graph_is_zero():
    g = builtin_graph("g1")  # all degrees 2
    assert compute_mp(g, DegreeFn("inv_sqrt_1pd")) == ZERO


def test_compute_mp_two_degree_example():
    path3 = make_graph(3, [(1, 2), (2, 3)], [(1,), (1,), (1,)])
    g_fn = DegreeFn.from_table({1: ONE, 2: S(Fraction(1, 2))})
    assert compute_mp(path3, g_fn) == S(Fraction(1, 2))


def brute_force_mp(n, g_values):
    """Independent oracle: collect every admissible value, then max."""
    ratios = {b / a for a in g_values for b in g_values if a != b}
    candidates = {Fraction(0)}
    for alpha in ratios:
        for i in range(n + 1):
            for j in range(n + 1):
                for value in (alpha * j - i, (i - alpha * j) / alpha, (alpha * j - i) / (1 - alpha)):
                    if 0 <= value < 1:
                        candidates.add(value)
    return max(candidates)


def brute_force_mp_exact(n, g_values):
    """The same enumeration over surd g values: every i, j and form, then max."""
    ratios = {b / a for a in g_values for b in g_values if a != b}
    best = ZERO
    for alpha in ratios:
        for i in range(n + 1):
            for j in range(n + 1):
                for value in (alpha * j - i, (S(i) - alpha * j) / alpha, (alpha * j - i) / (ONE - alpha)):
                    if ZERO <= value < ONE and value > best:
                        best = value
    return best


def test_compute_mp_cross_checked_by_second_enumeration():
    path3 = make_graph(3, [(1, 2), (2, 3)], [(1,), (1,), (1,)])
    g_fn = DegreeFn.from_table({1: ONE, 2: S(Fraction(1, 2))})
    oracle = brute_force_mp(3, [Fraction(1), Fraction(1, 2)])
    assert compute_mp(path3, g_fn) == S(oracle) == S(Fraction(1, 2))
    # rational two-degree variant on a larger graph
    star = make_graph(4, [(1, 2), (1, 3), (1, 4)], [(1,)] * 4)
    g_fn = DegreeFn.from_table({1: S(Fraction(2, 3)), 3: S(Fraction(1, 3))})
    oracle = brute_force_mp(4, [Fraction(2, 3), Fraction(1, 3)])
    assert compute_mp(star, g_fn) == S(oracle)
    assert brute_force_mp_exact(4, [S(Fraction(2, 3)), S(Fraction(1, 3))]) == S(oracle)


@pytest.mark.parametrize("seed", range(6))
def test_compute_mp_cross_checked_on_random_graphs(seed):
    g = sample_graph(7, Fraction(2, 5), seed)
    g_fn = DegreeFn("inv_sqrt_1pd")
    values = [g_fn.value(d) for d in sorted(set(g.degrees()))]
    assert compute_mp(g, g_fn) == brute_force_mp_exact(g.n, values)


def test_compute_mp_cross_checked_with_tabulated_surd_g():
    # multi-term ratios on both sides of 1; the maximum comes from the
    # (alpha*j - i)/(1 - alpha) form, not from alpha*j - i
    table = {1: ONE + S.sqrt(2), 2: S(2) - S.sqrt(2), 3: S(Fraction(1, 6)), 4: S(9)}
    g = make_graph(6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 6)], [(1,)] * 6)
    assert set(g.degrees()) == set(table)
    expected = brute_force_mp_exact(g.n, list(table.values()))
    assert expected == parse_scalar("6/49 + 30/49*sqrt(2)")
    assert compute_mp(g, DegreeFn.from_table(table)) == expected


def test_compute_mp_rational_tables_with_edge_maxima():
    # the (alpha*j - i)/(1 - alpha) form wins
    star = make_graph(4, [(1, 2), (1, 3), (1, 4)], [(1,)] * 4)
    oracle = brute_force_mp(4, [Fraction(9), Fraction(1, 6)])
    assert oracle == Fraction(4, 53)
    assert compute_mp(star, DegreeFn.from_table({1: S(9), 3: S(Fraction(1, 6))})) == S(oracle)
    # a maximum at the edge i = n: alpha*j - i with alpha = 55/14, j = 1, i = 3
    path3 = make_graph(3, [(1, 2), (2, 3)], [(1,), (1,), (1,)])
    oracle = brute_force_mp(3, [Fraction(10, 7), Fraction(4, 11)])
    assert oracle == Fraction(13, 14)
    assert compute_mp(path3, DegreeFn.from_table({1: S(Fraction(10, 7)), 2: S(Fraction(4, 11))})) == S(oracle)


def test_compute_mp_fig1_gcn_scaling_below_one():
    g = builtin_graph("fig1")
    value = compute_mp(g, DegreeFn("inv_sqrt_1pd"))
    assert (value - ONE).sign() < 0 and value.sign() >= 0


def test_compute_mp_rejects_nonpositive_g():
    path3 = make_graph(3, [(1, 2), (2, 3)], [(1,), (1,), (1,)])
    with pytest.raises(ValueError, match="positive"):
        compute_mp(path3, DegreeFn.from_table({1: ZERO, 2: ONE}))


# -- synthesis: single weight matrix per round -------------------------------------


def test_gnn_minus_fig1_relu():
    g = builtin_graph("fig1")
    cert = synthesize_gnn_minus(g, 3, "relu", p=S(Fraction(1, 2)))
    assert cert.all_equivalent and cert.all_row_independent
    trace = run_mpnn(g, cert.to_spec())
    assert trace.partitions[2].class_of[3] != trace.partitions[2].class_of[4]
    assert trace.partitions[1].class_of[3] == trace.partitions[1].class_of[4]


def test_gnn_minus_g1_sign():
    g = builtin_graph("g1")
    cert = synthesize_gnn_minus(g, 2, "sign")
    assert cert.all_equivalent
    parts = run_mpnn(g, cert.to_spec()).partitions
    assert parts[1].class_of[0] != parts[1].class_of[3]


def test_gnn_minus_rejects_bad_p():
    g = builtin_graph("g2")
    for bad in (ZERO, ONE, S(2), S(-1)):
        with pytest.raises(ValueError, match="strictly between"):
            synthesize_gnn_minus(g, 1, "relu", p=bad)


def test_gnn_minus_replay_is_exact():
    for gid in ("fig1", "g1", "g3"):
        g = builtin_graph(gid)
        rounds = wl_run(g).stabilized_at
        for sigma in ("relu", "sign"):
            cert = synthesize_gnn_minus(g, rounds, sigma)
            trace = run_mpnn(g, cert.to_spec())
            reference = wl_partitions(g, rounds)
            for t in range(rounds + 1):
                assert trace.partitions[t] == reference[t]


def test_gnn_minus_uniform_q_mode():
    g = builtin_graph("fig1")
    cert = synthesize_gnn_minus(g, 3, "relu", uniform_q=True)
    expected = S(1 - Fraction(1, 7**7))
    assert all(r.q == expected for r in cert.rounds)
    assert cert.all_equivalent


def test_dgnn6_uniform_q_mode():
    g = builtin_graph("fig1")
    cert = synthesize_dgnn6(g, 3, "relu", uniform_q=True)
    expected = S(1 - Fraction(1, 7**7))
    for r in cert.rounds:
        if r.repair != "clamp":
            assert r.q == expected
    assert cert.all_equivalent
    trace = run_mpnn(g, cert.to_spec())
    reference = wl_partitions(g, 3)
    assert all(trace.partitions[t] == reference[t] for t in range(4))


def test_gnn_minus_reencodes_dependent_initial_labels():
    # labels (1,1) and (2,2) are distinct but linearly dependent
    g = make_graph(2, [(1, 2)], [(1, 1), (2, 2)])
    cert = synthesize_gnn_minus(g, 1, "relu")
    assert cert.reencoded and cert.all_equivalent


# -- synthesis: degree-normalized -------------------------------------------------


def test_dgnn6_fig1_both_activations():
    g = builtin_graph("fig1")
    for sigma in ("relu", "sign"):
        cert = synthesize_dgnn6(g, 3, sigma)
        assert cert.all_equivalent and cert.all_row_independent
        assert cert.m_p < cert.p < ONE
        trace = run_mpnn(g, cert.to_spec())
        reference = wl_partitions(g, 3)
        for t in range(4):
            assert trace.partitions[t] == reference[t]


def test_dgnn6_regular_graph_degenerates():
    g = builtin_graph("g1")
    cert = synthesize_dgnn6(g, 2, "relu")
    assert cert.m_p == ZERO and cert.p == S(Fraction(1, 2))
    assert cert.all_equivalent


def test_dgnn6_unit_scalings_match_gnn_minus():
    # gnn-minus is the degree-normalized construction with g = h = 1 at p = 1/2
    graphs = [builtin_graph(gid) for gid in ("fig1", "g1", "g3")]
    graphs += [sample_graph(7, Fraction(2, 5), seed, require_connected=True) for seed in (3, 8, 21)]
    unit = DegreeFn("one")
    for g in graphs:
        rounds = max(1, wl_run(g).stabilized_at)
        for sigma in ("relu", "sign"):
            for uniform_q in (False, True):
                cert6 = synthesize_dgnn6(g, rounds, sigma, g_fn=unit, h_fn=unit, uniform_q=uniform_q)
                cert_minus = synthesize_gnn_minus(g, rounds, sigma, uniform_q=uniform_q)
                assert cert6.p == cert_minus.p == S(Fraction(1, 2))
                assert cert6.reencoded == cert_minus.reencoded
                assert [r.to_json() for r in cert6.rounds] == [r.to_json() for r in cert_minus.rounds]


def test_gnn_minus_rejects_a_round_that_needs_a_repair(monkeypatch):
    # against a reference coarser than refinement at round 2, the shared loop
    # merges the extra split with a projection repair, which the plain
    # sigma((A + pI) L W - q J) layer cannot express
    real = synthesis.wl_partitions

    def coarser(g, rounds):
        parts = real(g, rounds)
        parts[2] = parts[1]
        return parts

    monkeypatch.setattr(synthesis, "wl_partitions", coarser)
    for sigma in ("relu", "sign"):
        with pytest.raises(synthesis.SynthesisError, match="round 2") as info:
            synthesize_gnn_minus(builtin_graph("fig1"), 3, sigma)
        assert info.value.dump["round"] == 2
        assert info.value.dump["repair"] == "projection"


def test_gnn_minus_round_forced_to_need_a_shift_raises_at_that_round(monkeypatch):
    # the gnn-minus contract is checked as each round's layer is made, so
    # a round that needs a shift stops synthesis before the next round
    real, seen = synthesis._separated_block, []

    def shifted(rows, sigma, q_override, g, t):
        seen.append(t)
        columns, bias, values, q, shift = real(rows, sigma, q_override, g, t)
        return columns, bias, values, q, ONE if t == 2 else shift

    monkeypatch.setattr(synthesis, "_separated_block", shifted)
    with pytest.raises(synthesis.SynthesisError, match=r"round 2 verification failed \(repair=none, shift=1,") as info:
        synthesize_gnn_minus(builtin_graph("fig1"), 3, "relu")
    assert info.value.dump["round"] == 2 and info.value.dump["shift"] == "1"
    assert max(seen) == 2


@pytest.mark.parametrize("target", ["gnn-minus", "dgnn6"])
@pytest.mark.parametrize("sigma", ["relu", "sign"])
def test_certificate_rounds_hold_the_layers_of_its_spec(target, sigma):
    # each round's layer is made once, and to_spec returns those objects;
    # the certificate's W and bias are the layer's, -q in every entry for gnn-minus
    g = builtin_graph("fig1")
    synthesize = synthesize_gnn_minus if target == "gnn-minus" else synthesize_dgnn6
    cert = synthesize(g, 3, sigma)
    spec = cert.to_spec()
    assert spec.f_mode == ("zero" if target == "gnn-minus" else "degree")
    for t, r in enumerate(cert.rounds):
        assert spec.layers[t] is r.layer
        assert r.layer.family == ("gnn-minus" if target == "gnn-minus" else "general-dgnn")
        assert r.layer.params.p == cert.p and r.layer.params.sigma == sigma
        if target == "gnn-minus":
            assert r.layer.params.q is r.q and r.to_json()["bias"] == [(-r.q).to_text()] * len(r.layer.params.w2[0])
        else:
            assert (r.layer.params.g_fn, r.layer.params.h_fn) == (cert.g_fn, cert.h_fn)
    assert run_mpnn(g, spec).partitions == tuple(wl_partitions(g, 3))


def test_uniform_q_failure_carries_the_round_dump(monkeypatch):
    # q = 0 leaves sigma(C X) = C X of rank one, so separation must fail
    monkeypatch.setattr(synthesis, "_uniform_q", lambda n: ZERO)
    for synthesize in (synthesize_gnn_minus, synthesize_dgnn6):
        with pytest.raises(synthesis.SynthesisError, match="uniform threshold") as info:
            synthesize(builtin_graph("fig1"), 2, "relu", uniform_q=True)
        dump = info.value.dump
        assert dump["round"] == 1 and dump["q"] == "0"
        assert dump["reason"] == "uniform q too small" and "graph" in dump


def test_dgnn6_round_one_repair_on_fig1():
    # the initial class {v3, v6} spans degrees 3 and 1, so the scaled rows
    # are dependent and the direct route plus projection repair must fire
    g = builtin_graph("fig1")
    cert = synthesize_dgnn6(g, 3, "relu")
    assert cert.rounds[0].route == "direct" and cert.rounds[0].repair == "projection"
    assert all(r.route == "paper" and r.repair == "none" for r in cert.rounds[1:])


def test_dgnn6_clamp_repair_on_uniform_path():
    # uniform labels on a 5-path: round 1 must merge the two outer middle
    # vertices whose neighbour normalizations differ; no linear projection
    # can do it without collapsing everything (width 1), so the clamp-column
    # repair carries the round, exactly and replayably
    path5 = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [(1,)] * 5)
    rounds = wl_run(path5).stabilized_at
    for sigma in ("relu", "sign"):
        cert = synthesize_dgnn6(path5, rounds, sigma)
        assert cert.rounds[0].repair == "clamp"
        assert cert.all_equivalent and cert.all_row_independent
        trace = run_mpnn(path5, cert.to_spec())
        reference = wl_partitions(path5, rounds)
        for t in range(rounds + 1):
            assert trace.partitions[t] == reference[t]


def test_clamp_repair_reports_nested_values_as_infeasible():
    # crafted width-1 rows: the reference-equal pair sits at 1 and 4 while a
    # reference-distinct pair sits at 2 and 3; every threshold tearing the
    # inner pair also tears the outer one, so the repair must give up
    from wlmpnn.graphs import Partition
    from wlmpnn.synthesis import _clamp_repair

    rows = [(S(1),), (S(4),), (S(2),), (S(3),)]
    wl_part = Partition((0, 0, 1, 2))
    for sigma in ("relu", "sign"):
        assert _clamp_repair(rows, (), [()] * len(rows), wl_part, sigma) is None


def _scan_clamp_column(rows, wl_part, a, b, kernel, k_cols, sigma):
    """The clamp search as an activation scan: every row is activated at
    every midpoint of consecutive sorted projections, then below them all."""
    width = len(rows[0])
    delta = tuple(x - y for x, y in zip(rows[a], rows[b]))
    delta_u = [synthesis._dot(row, delta) for row in rows]

    def candidates():
        yield delta, delta_u
        yield tuple(-x for x in delta), [-x for x in delta_u]
        for l in range(k_cols):
            column = tuple(kernel[i][l] for i in range(width))
            column_u = [synthesis._dot(row, column) for row in rows]
            for gamma in (1, 2, 4, 8, 16, 64):
                for d_sign in (1, -1):
                    for k_sign in (1, -1):
                        k = k_sign * gamma
                        yield (
                            tuple(d_sign * d + k * c for d, c in zip(delta, column)),
                            [d_sign * d + k * c for d, c in zip(delta_u, column_u)],
                        )
        for j in range(width):
            if not delta[j].is_zero:
                unit = tuple(ONE if i == j else ZERO for i in range(width))
                yield unit, [row[j] for row in rows]
                yield tuple(-x for x in unit), [-row[j] for row in rows]

    classes = {}
    for v, cls in enumerate(wl_part.class_of):
        classes.setdefault(cls, []).append(v)
    half = S(Fraction(1, 2))
    for direction, u in candidates():
        if (u[a] - u[b]).is_zero:
            continue
        distinct = []
        for value in sorted(u):
            if not distinct or value != distinct[-1]:
                distinct.append(value)
        thresholds = [(s + t) * half for s, t in zip(distinct, distinct[1:])]
        thresholds.append(distinct[0] - ONE)
        for tau in thresholds:
            values = [activate(u[v] - tau, sigma) for v in range(len(rows))]
            if values[a] == values[b]:
                continue
            if any(any(values[v] != values[members[0]] for v in members[1:]) for members in classes.values()):
                continue
            return direction, tau, values
    return None


def _clamp_case(seed: int):
    """Rows of width 1-3, a random partition, a != b and 0-2 kernel columns."""
    from wlmpnn.graphs import Partition

    rng = random.Random(seed)
    width, n = rng.randint(1, 3), rng.randint(2, 8)

    def entry():
        return S(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))

    rows = [tuple(entry() for _ in range(width)) for _ in range(n)]
    wl_part = Partition.from_keys([(rng.randrange(rng.randint(1, n)),) for _ in range(n)])
    a, b = rng.sample(range(n), 2)
    k_cols = rng.randint(0, 2)
    kernel = tuple(tuple(entry() for _ in range(k_cols)) for _ in range(width))
    return rows, wl_part, a, b, kernel, k_cols


def _texts(column):
    if column is None:
        return None
    direction, tau, values = column
    return [x.to_text() for x in direction], tau.to_text(), [x.to_text() for x in values]


@pytest.mark.parametrize("sigma", ["relu", "sign"])
def test_clamp_column_by_position_matches_the_activation_scan(sigma):
    # the threshold picked from sorted positions must be the one the scan
    # finds first, with the same direction and output values
    found = 0
    for seed in range(1000):
        case = _clamp_case(seed)
        expected = _texts(_scan_clamp_column(*case, sigma))
        assert _texts(synthesis._find_clamp_column(*case, sigma)) == expected, seed
        found += expected is not None
    assert 300 < found < 700


def test_two_torn_classes_impossible_for_relu_reported_honestly():
    # uniform labels, two degree classes each containing vertices with
    # different neighbour normalizations: every ReLU column is constant 0 on
    # both classes (a column constant on a class with distinct projections
    # must clamp it), so their rows coincide for every weight choice and
    # round-1 equivalence is unachievable; the verdict must say so while the
    # refinement bound holds.  The sign activation can place the two class
    # value intervals in different bands and does achieve equivalence.
    g = make_graph(6, [(1, 4), (1, 5), (2, 4), (3, 6), (4, 5), (4, 6)], [(1,)] * 6)
    rounds = wl_run(g).stabilized_at
    relu_cert = synthesize_dgnn6(g, rounds, "relu")
    assert not relu_cert.rounds[0].equivalent_to_wl
    assert relu_cert.all_refine and relu_cert.all_row_independent
    assert all(r.equivalent_to_wl for r in relu_cert.rounds[1:])
    sign_cert = synthesize_dgnn6(g, rounds, "sign")
    assert sign_cert.all_equivalent
    assert sign_cert.rounds[0].repair == "clamp"
    reference = wl_partitions(g, rounds)
    for cert in (relu_cert, sign_cert):
        trace = run_mpnn(g, cert.to_spec())
        for t, r in enumerate(cert.rounds, start=1):
            assert partition_refines(trace.partitions[t], reference[t])
            assert (trace.partitions[t] == reference[t]) == r.equivalent_to_wl


def test_dgnn6_replay_is_exact_on_seeded_graphs():
    from wlmpnn.cases import sample_graph

    for seed in (0, 3, 6):
        g = sample_graph(7, 0.45, seed + 1, require_connected=True)
        rounds = wl_run(g).stabilized_at
        cert = synthesize_dgnn6(g, rounds, "sign")
        trace = run_mpnn(g, cert.to_spec())
        reference = wl_partitions(g, rounds)
        for t, r in enumerate(cert.rounds, start=1):
            assert partition_refines(trace.partitions[t], reference[t])
            assert (trace.partitions[t] == reference[t]) == r.equivalent_to_wl


def test_synthesis_hashes_no_scalar(monkeypatch):
    # the separation tests its mixed values for distinctness, and compute_mp
    # collects its ratios, by canonical keys, so no scalar hash is taken
    graphs = [builtin_graph("fig1"), sample_graph(7, Fraction(2, 5), 3, require_connected=True)]
    runs = [
        (synthesize, g, wl_run(g).stabilized_at, sigma)
        for synthesize in (synthesize_gnn_minus, synthesize_dgnn6)
        for g in graphs
        for sigma in ("relu", "sign")
    ]
    expected = [synthesize(g, rounds, sigma).to_json_text() for synthesize, g, rounds, sigma in runs]

    def refuse(self):
        raise AssertionError("scalar hashed")

    monkeypatch.setattr(ExactScalar, "__hash__", refuse)
    assert [synthesize(g, rounds, sigma).to_json_text() for synthesize, g, rounds, sigma in runs] == expected


def test_thresholds_stay_in_unit_interval():
    for gid in ("fig1", "g1", "g3"):
        g = builtin_graph(gid)
        rounds = wl_run(g).stabilized_at
        for make, sigma in (
            (synthesize_gnn_minus, "relu"),
            (synthesize_gnn_minus, "sign"),
            (synthesize_dgnn6, "relu"),
            (synthesize_dgnn6, "sign"),
        ):
            cert = make(g, rounds, sigma)
            for r in cert.rounds:
                assert r.q.sign() >= 0 and (r.q - ONE).sign() < 0


def test_certificate_json_shape():
    g = builtin_graph("g2")
    cert = synthesize_dgnn6(g, 1, "relu")
    payload = cert.to_json()
    assert payload["target"] == "dgnn6"
    assert payload["g"] == "inv_sqrt_1pd"
    assert payload["rounds"][0]["equivalent_to_wl"] is True
    assert payload["rounds"][0]["repair"] == "none"
    assert "m_p" in payload
