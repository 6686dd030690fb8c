"""The weaker/g-weaker comparison calculus and its reports."""
import json
import random

import pytest

from wlmpnn.cases import builtin_graph, named_spec, sample_anonymous_spec, sample_degree_spec, sample_graph
from wlmpnn.compare import ShiftSpec, compare_traces, report, weaker
from wlmpnn.mpnn import RunTrace, lift_plus_one, run_mpnn
from wlmpnn.synthesis import synthesize_gnn_minus
from wlmpnn.wl import WlTrace, wl_partitions, wl_run


def gcn_trace(rounds):
    g = builtin_graph("fig1")
    return run_mpnn(g, named_spec("gcn", 3, rounds=rounds))


def test_shift_spec_parsing():
    assert ShiftSpec.from_text("0").apply(4) == 4
    assert ShiftSpec.from_text("+1").apply(4) == 5
    assert ShiftSpec.from_text("x2").apply(4) == 8
    assert ShiftSpec.from_text("x2").to_text() == "x2"
    with pytest.raises(ValueError):
        ShiftSpec.from_text("twice")
    with pytest.raises(ValueError):
        ShiftSpec("times_c", 0)


def test_weaker_is_reflexive():
    trace = gcn_trace(2)
    assert weaker(trace, trace, ShiftSpec("identity")).holds


def test_gcn_not_weaker_than_refinement_same_round():
    trace = gcn_trace(1)
    wl = WlTrace(tuple(wl_partitions(builtin_graph("fig1"), 1)), None)
    verdict = weaker(trace, wl, ShiftSpec("identity"))
    assert not verdict.holds
    assert verdict.first_violation == (1, 4, 5)


def test_gcn_weaker_than_refinement_one_step_ahead():
    trace = gcn_trace(3)
    wl = WlTrace(tuple(wl_partitions(builtin_graph("fig1"), 4)), None)
    assert weaker(trace, wl, ShiftSpec("plus_one")).holds


def test_witness_is_self_validating():
    trace = gcn_trace(1)
    wl = WlTrace(tuple(wl_partitions(builtin_graph("fig1"), 1)), None)
    verdict = weaker(trace, wl, ShiftSpec("identity"))
    t, v, w = verdict.first_violation
    fine = wl.partitions[t]
    coarse = trace.partitions[t]
    assert fine.class_of[v - 1] == fine.class_of[w - 1]
    assert coarse.class_of[v - 1] != coarse.class_of[w - 1]


def test_weaker_requires_enough_rounds():
    trace = gcn_trace(2)
    wl = WlTrace(tuple(wl_partitions(builtin_graph("fig1"), 2)), None)
    with pytest.raises(ValueError, match="rounds"):
        weaker(trace, wl, ShiftSpec("plus_one"))


def test_times_c_identity_sanity():
    g = builtin_graph("fig1")
    wl_long = WlTrace(tuple(wl_partitions(g, 4)), None)
    wl_short = WlTrace(tuple(wl_partitions(g, 2)), None)
    assert weaker(wl_short, wl_long, ShiftSpec("times_c", 2)).holds


def test_equally_strong_with_synthesized_network():
    g = builtin_graph("fig1")
    cert = synthesize_gnn_minus(g, 3, "relu")
    trace = run_mpnn(g, cert.to_spec())
    wl = WlTrace(tuple(wl_partitions(g, 3)), None)
    assert trace.partitions == wl.partitions
    identity = ShiftSpec("identity")
    assert weaker(trace, wl, identity).holds and weaker(wl, trace, identity).holds
    assert weaker(trace, trace, identity).holds


def test_equally_strong_fails_for_degree_aware_layer():
    g = builtin_graph("fig1")
    trace = run_mpnn(g, named_spec("dgnn2", 3, rounds=1))
    wl = WlTrace(tuple(wl_partitions(g, 1)), None)
    assert trace.partitions != wl.partitions
    assert not weaker(trace, wl, ShiftSpec("identity")).holds


def test_equally_strong_requires_matching_rounds():
    # partition tuples of unequal lengths are unequal, and mutual weakness
    # at the identity shift refuses the shorter side as the right one
    short, long = gcn_trace(1), WlTrace(tuple(wl_partitions(builtin_graph("fig1"), 2)), None)
    assert short.partitions != long.partitions
    with pytest.raises(ValueError, match="right trace has 1 rounds but the shift needs 2"):
        weaker(long, short, ShiftSpec("identity"))


def test_mutual_weakness_at_the_identity_is_partition_equality():
    # equally strong is stated as a.partitions == b.partitions; check it
    # against mutual weakness on network, lifted and refinement traces
    identity = ShiftSpec("identity")
    network_equal = unequal = 0
    for seed in range(30):
        rng = random.Random(seed)
        g = sample_graph(rng.randint(4, 8), 0.5, seed, alphabet=2)
        specs = [sample_anonymous_spec(rng, g.label_dim) for _ in range(3)]
        specs += [sample_degree_spec(rng, g.label_dim) for _ in range(3)]
        traces = [run_mpnn(g, spec) for spec in specs]
        traces += [run_mpnn(g, lift_plus_one(spec)) for spec in specs[3:]]
        traces += [WlTrace(tuple(wl_partitions(g, rounds)), None) for rounds in range(1, 6)]
        traces.append(wl_run(g))
        for a in traces:
            for b in traces:
                if a is b or len(a.partitions) != len(b.partitions):
                    continue
                equal = a.partitions == b.partitions
                assert (weaker(a, b, identity).holds and weaker(b, a, identity).holds) == equal
                network_equal += equal and isinstance(a, RunTrace)
                unequal += not equal
    assert network_equal >= 20 and unequal >= 20


def test_weaker_identity_preorder_on_samples():
    rng = random.Random(11)
    g = sample_graph(6, 0.5, 17)
    traces = [run_mpnn(g, sample_anonymous_spec(random.Random(s), g.label_dim)) for s in range(4)]
    identity = ShiftSpec("identity")
    fixed = [WlTrace(tuple(t.partitions[:3]), None) for t in traces if len(t.partitions) >= 3]
    for a in fixed:
        assert weaker(a, a, identity).holds
        for b in fixed:
            for c in fixed:
                if weaker(a, b, identity).holds and weaker(b, c, identity).holds:
                    assert weaker(a, c, identity).holds


def test_report_empty():
    assert report([]) == "no comparisons\n"
    assert json.loads(report([], fmt="json"))["comparisons"] == []


def test_report_names_witness():
    g = builtin_graph("fig1")
    comparison = compare_traces(
        gcn_trace(1), WlTrace(tuple(wl_partitions(g, 1)), None), ShiftSpec("identity"), "gcn", "wl"
    )
    text = report([comparison])
    assert "gcn NOT weaker-than wl" in text
    assert "round 1, vertices v4 and v5" in text
    payload = json.loads(report([comparison], fmt="json"))
    assert payload["failed"] == 1
    assert payload["comparisons"][0]["first_violation"] == {"round": 1, "v": 4, "w": 5}


def test_report_batch_counts():
    g = builtin_graph("fig1")
    wl1 = WlTrace(tuple(wl_partitions(g, 1)), None)
    wl2 = WlTrace(tuple(wl_partitions(g, 2)), None)
    comparisons = [
        compare_traces(gcn_trace(1), wl1, ShiftSpec("identity"), "gcn", "wl"),
        compare_traces(wl2, wl2, ShiftSpec("identity"), "wl", "wl"),
    ]
    assert "1/2 relations hold" in report(comparisons)
