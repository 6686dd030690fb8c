"""End-to-end flows across modules: synthesize, serialize, reload, replay."""
import json

from wlmpnn.cases import builtin_graph, sample_graph
from wlmpnn.compare import ShiftSpec, weaker
from wlmpnn.graphs import format_graph, parse_graph
from wlmpnn.mpnn import run_mpnn, spec_from_json, spec_to_json
from wlmpnn.synthesis import synthesize_dgnn6, synthesize_gnn_minus
from wlmpnn.wl import WlTrace, wl_partitions, wl_run


def test_synthesized_network_is_equally_strong_as_refinement():
    g = builtin_graph("fig1")
    rounds = wl_run(g).stabilized_at
    for target in (synthesize_gnn_minus, synthesize_dgnn6):
        for sigma in ("relu", "sign"):
            cert = target(g, rounds, sigma)
            trace = run_mpnn(g, cert.to_spec())
            assert trace.partitions == tuple(wl_partitions(g, rounds))


def test_certificate_survives_spec_serialization():
    g = builtin_graph("fig1")
    cert = synthesize_gnn_minus(g, 3, "relu")
    spec = cert.to_spec()
    reloaded = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    direct = run_mpnn(g, spec)
    replayed = run_mpnn(g, reloaded)
    for a, b in zip(direct.labellings, replayed.labellings):
        assert a == b


def test_dgnn6_certificate_survives_spec_serialization():
    g = builtin_graph("fig1")
    cert = synthesize_dgnn6(g, 2, "sign")
    spec = cert.to_spec()
    reloaded = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    direct = run_mpnn(g, spec)
    replayed = run_mpnn(g, reloaded)
    for a, b in zip(direct.labellings, replayed.labellings):
        assert a == b


def test_graph_round_trip_through_file_then_synthesis():
    g = sample_graph(7, 0.45, seed=12, require_connected=True)
    reparsed = parse_graph(format_graph(g))
    assert reparsed == g
    rounds = wl_run(reparsed).stabilized_at
    cert = synthesize_gnn_minus(reparsed, rounds, "sign")
    assert cert.all_equivalent
    trace = run_mpnn(reparsed, cert.to_spec())
    reference = WlTrace(tuple(wl_partitions(reparsed, rounds)), None)
    assert weaker(trace, reference, ShiftSpec("identity")).holds
    assert weaker(reference, trace, ShiftSpec("identity")).holds
