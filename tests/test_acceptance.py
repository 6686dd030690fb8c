"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Seeds are fixed inline so every run checks the same instances.
"""
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from wlmpnn.cases import (
    CaseSpec,
    builtin_graph,
    make_graph,
    named_spec,
    sample_anonymous_spec,
    sample_degree_spec,
    sample_graph,
    verify_counterexample,
)
from wlmpnn.compare import ShiftSpec, weaker
from wlmpnn.graphs import partition_refines
from wlmpnn.mpnn import (
    BuiltinLayer,
    LayerParams,
    MpnnSpec,
    anonymize_h_const,
    lift_plus_one,
    run_mpnn,
)
from wlmpnn.surd import ONE, ExactScalar
from wlmpnn.synthesis import synthesize_dgnn6, synthesize_gnn_minus
from wlmpnn.wl import WlTrace, encoded_wl_spec, phi_inverse, phi_sum, wl_partitions, wl_run


def _finish(number: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {number} ({name}) failed{detail}"


@lru_cache(maxsize=None)
def _synthesis_graphs():
    """50 seeded random connected graphs, n <= 10, one-hot labels, alphabet 3."""
    graphs = []
    for i in range(50):
        n = random.Random(i * 7919 + 13).randint(4, 10)
        graphs.append(
            sample_graph(n, Fraction(2, 5), seed=1000 + i, alphabet=3, require_connected=True)
        )
    return tuple(graphs)


@lru_cache(maxsize=None)
def _property_graphs():
    """20 seeded random graphs, n <= 10, for the class-level property suites."""
    return tuple(
        sample_graph(random.Random(s).randint(4, 10), Fraction(2, 5), seed=300 + s)
        for s in range(20)
    )


def test_criterion_01_exact_gcn_matrix():
    started = time.perf_counter()
    expected = [
        ["1/2", "1/4*sqrt(2)", "0"],
        ["1/2", "1/4*sqrt(2)", "0"],
        ["1/2*sqrt(2)", "1/4", "1/6*sqrt(3)"],
        ["0", "1/6*sqrt(3)", "2/3"],
        ["0", "1/6*sqrt(6)", "2/3"],
        ["0", "1/2", "1/6*sqrt(6)"],
    ]
    g = builtin_graph("fig1")
    trace = run_mpnn(g, named_spec("gcn", 3, rounds=1))
    got = [[x.to_text() for x in trace.labellings[1][v - 1]] for v in range(1, 7)]
    elapsed = time.perf_counter() - started
    _finish(1, "exact degree-normalized matrix reproduction", got == expected and elapsed < 1.0,
            f" ({elapsed:.2f}s)")


def test_criterion_02_same_round_fails_one_ahead_holds():
    started = time.perf_counter()
    g = builtin_graph("fig1")
    gcn1 = run_mpnn(g, named_spec("gcn", 3, rounds=1))
    gcn3 = run_mpnn(g, named_spec("gcn", 3, rounds=3))
    same_round = weaker(gcn1, WlTrace(tuple(wl_partitions(g, 1)), None), ShiftSpec("identity"))
    one_ahead = weaker(gcn3, WlTrace(tuple(wl_partitions(g, 4)), None), ShiftSpec("plus_one"))
    elapsed = time.perf_counter() - started
    ok = (
        not same_round.holds
        and same_round.first_violation == (1, 4, 5)
        and one_ahead.holds
        and elapsed < 1.0
    )
    _finish(2, "same-round relation fails with witness, one-step-ahead holds", ok,
            f" ({elapsed:.2f}s)")


def test_criterion_03_forced_merge_cases():
    started = time.perf_counter()
    reports = [
        verify_counterexample(CaseSpec("g1-dgnn12", trials=100, seed=7)),
        verify_counterexample(CaseSpec("g2-dgnn34", trials=100, seed=1)),
        verify_counterexample(CaseSpec("g3-dgnn5", trials=100, seed=1)),
    ]
    elapsed = time.perf_counter() - started
    ok = all(
        r.passed and r.structural_ok and r.expected_rows_ok and r.trial_separations == 0
        and r.wl_verdict_ok
        for r in reports
    ) and elapsed < 5.0
    _finish(3, "forced-merge counterexample cases", ok, f" ({elapsed:.2f}s)")


def test_criterion_04_single_weight_synthesis():
    started = time.perf_counter()
    failures = []
    for index, g in enumerate(_synthesis_graphs()):
        rounds = wl_run(g).stabilized_at
        for sigma in ("relu", "sign"):
            cert = synthesize_gnn_minus(g, rounds, sigma)
            if not (cert.all_equivalent and cert.all_row_independent):
                failures.append((index, sigma))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    _finish(4, "single-weight synthesis equivalent per round on 50 graphs", ok,
            f" ({elapsed:.1f}s, failures={failures})")


def test_criterion_05_degree_normalized_synthesis():
    started = time.perf_counter()
    substance_failures = []
    equivalence_failures = []
    for index, g in enumerate(_synthesis_graphs()):
        rounds = wl_run(g).stabilized_at
        for sigma in ("relu", "sign"):
            cert = synthesize_dgnn6(g, rounds, sigma)
            p_ok = (cert.m_p < cert.p) and (cert.p < ONE)
            if not (cert.all_refine and cert.all_row_independent and p_ok):
                substance_failures.append((index, sigma))
            if not cert.all_equivalent:
                equivalence_failures.append(
                    (index, sigma, [r.equivalent_to_wl for r in cert.rounds])
                )
    elapsed = time.perf_counter() - started
    assert not substance_failures, (
        "refinement bound, row independence or the p range failed: "
        f"{substance_failures}"
    )
    assert elapsed < 120.0, f"over time budget: {elapsed:.1f}s"
    ok = not equivalence_failures
    _finish(
        5,
        "degree-normalized synthesis equivalent per round on 50 graphs",
        ok,
        f" ({elapsed:.1f}s, equivalence failures={equivalence_failures})",
    )


def test_criterion_06_anonymous_upper_bound():
    started = time.perf_counter()
    violations = 0
    graphs = _property_graphs()
    for i in range(50):
        spec = sample_anonymous_spec(random.Random(9000 + i), 3)
        for g in graphs:
            trace = run_mpnn(g, spec)
            reference = wl_partitions(g, spec.rounds)
            for t in range(spec.rounds + 1):
                if not partition_refines(reference[t], trace.partitions[t]):
                    violations += 1
    elapsed = time.perf_counter() - started
    _finish(6, "refinement refines every anonymous network, 50 specs x 20 graphs",
            violations == 0, f" ({elapsed:.1f}s, violations={violations})")


def test_criterion_07_degree_aware_one_step_bound():
    started = time.perf_counter()
    violations = lift_violations = 0
    graphs = _property_graphs()
    for i in range(50):
        spec = sample_degree_spec(random.Random(4444 + i), 3)
        lifted = lift_plus_one(spec)
        for g in graphs:
            trace = run_mpnn(g, spec)
            reference = wl_partitions(g, spec.rounds + 1)
            lifted_trace = run_mpnn(g, lifted)
            for t in range(spec.rounds + 1):
                if not partition_refines(reference[t + 1], trace.partitions[t]):
                    violations += 1
                if not partition_refines(lifted_trace.partitions[t + 1], trace.partitions[t]):
                    lift_violations += 1
    elapsed = time.perf_counter() - started
    _finish(7, "one-step-ahead bound and lift contract, 50 specs x 20 graphs",
            violations == 0 and lift_violations == 0,
            f" ({elapsed:.1f}s, violations={violations}/{lift_violations})")


def test_criterion_08_injection_encoding():
    started = time.perf_counter()
    dictionary = [(ExactScalar(k),) for k in range(3)]
    round_trips = 0
    for size in range(6):
        for combo in combinations_with_replacement(dictionary, size):
            value = phi_sum(list(combo), 5)
            if sorted(phi_inverse(value, 5, dictionary)) == sorted(combo):
                round_trips += 1
    matches = True
    for seed in range(10):
        rng = random.Random(seed)
        base = sample_graph(rng.randint(3, 5), Fraction(3, 5), seed + 77, alphabet=1)
        labels = [(random.Random(seed + 5 + v).randrange(3),) for v in range(base.n)]
        g = make_graph(base.n, sorted(base.edges), labels)
        rounds = wl_run(g).stabilized_at
        encoded = run_mpnn(g, encoded_wl_spec(g, rounds))
        reference = wl_partitions(g, rounds)
        matches &= all(encoded.partitions[t] == reference[t] for t in range(rounds + 1))
    elapsed = time.perf_counter() - started
    ok = round_trips == 56 and matches and elapsed < 10.0
    _finish(8, "injection encoding: 56 round trips and encoded refinement", ok,
            f" ({elapsed:.1f}s)")


def test_criterion_09_termination_within_n():
    started = time.perf_counter()
    ok = True
    for seed in range(100):
        n = random.Random(seed).randint(2, 12)
        g = sample_graph(n, Fraction(2, 5), seed + 20_000)
        trace = wl_run(g)
        ok &= trace.stabilized_at is not None and trace.stabilized_at <= g.n
    elapsed = time.perf_counter() - started
    _finish(9, "refinement stabilizes within n rounds on 100 graphs", ok,
            f" ({elapsed:.1f}s)")


def test_criterion_10_anonymization():
    started = time.perf_counter()
    violations = 0
    for index, g in enumerate(_property_graphs()):
        rng = random.Random(555 + index)
        for family in ("dgnn1", "dgnn3"):
            layers = []
            width = g.label_dim
            for _ in range(rng.randint(1, 3)):
                out = rng.randint(1, 3)
                weight = tuple(
                    tuple(
                        ExactScalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
                        for _ in range(out)
                    )
                    for _ in range(width)
                )
                layers.append(
                    BuiltinLayer(family, LayerParams(w2=weight, sigma=rng.choice(["relu", "sign"])))
                )
                width = out
            spec = MpnnSpec(f_mode="degree", layers=tuple(layers))
            original = run_mpnn(g, spec)
            anonymous = run_mpnn(g, anonymize_h_const(spec))
            for a, b in zip(original.partitions, anonymous.partitions):
                if a != b:
                    violations += 1
    elapsed = time.perf_counter() - started
    _finish(10, "h = 1 anonymization reproduces partitions round-wise",
            violations == 0, f" ({elapsed:.1f}s, violations={violations})")
