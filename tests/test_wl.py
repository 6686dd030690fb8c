"""Colour refinement: steps, termination, traces."""
import json
from fractions import Fraction

import pytest

from wlmpnn.cases import builtin_graph, named_spec, sample_graph
from wlmpnn.graphs import Partition, partition_of, partition_refines
from wlmpnn.surd import InputError, LimitError
from wlmpnn.synthesis import synthesize_dgnn6, synthesize_gnn_minus
from wlmpnn.wl import MAX_ROUNDS, wl_partitions, wl_run, wl_step


def brute_force_step(g, class_of):
    """Independent oracle: string-signature refinement."""
    signatures = []
    for v in range(1, g.n + 1):
        neighbour = ",".join(str(class_of[u - 1]) for u in sorted(g.neighbors(v), key=lambda u: class_of[u - 1]))
        signatures.append(f"{class_of[v - 1]}|{neighbour}")
    ids: dict[str, int] = {}
    out = []
    for s in signatures:
        ids.setdefault(s, len(ids))
        out.append(ids[s])
    return tuple(out)


def test_wl_step_fig1_round1():
    g = builtin_graph("fig1")
    initial = partition_of(g.labels)
    assert initial.classes() == [[1, 2], [3, 6], [4, 5]]
    step1 = wl_step(g, initial)
    assert step1.classes() == [[1, 2], [3], [4, 5], [6]]
    assert step1.class_of == brute_force_step(g, initial.class_of)


def test_wl_step_splits_v4_v5_at_round_two():
    g = builtin_graph("fig1")
    parts = wl_partitions(g, 2)
    assert parts[1].class_of[3] == parts[1].class_of[4]
    assert parts[2].class_of[3] != parts[2].class_of[4]


def test_wl_step_fixpoint_on_discrete_partition():
    g = builtin_graph("fig1")
    discrete = Partition(tuple(range(g.n)))
    assert wl_step(g, discrete) == discrete


@pytest.mark.parametrize("seed", range(8))
def test_wl_step_matches_the_full_signature_reference(seed):
    # wl_step keys a vertex alone in its class by that class alone; the
    # partition must still be the one full signatures give, on partitions
    # of (class, degree) pairs as the engine steps them, on all-singleton
    # ones (ids in and out of first-occurrence order) and on one class
    g = sample_graph(12, Fraction(1, 3), seed, alphabet=2)
    initial = partition_of(g.labels)
    pairs = Partition.from_keys(list(zip(initial.class_of, g.degrees())))
    singletons = [Partition(tuple(range(g.n))), Partition(tuple(reversed(range(g.n))))]
    for current in (initial, pairs, *wl_run(g).partitions[1:], *singletons, Partition((0,) * g.n)):
        assert wl_step(g, current).class_of == brute_force_step(g, current.class_of)


def test_wl_run_stabilizes_immediately_on_distinct_labels():
    trace = wl_run(builtin_graph("g2"))
    assert trace.stabilized_at == 1
    assert [p.num_classes for p in trace.partitions] == [2, 2]


def test_wl_run_g1_separates_v1_v4_at_round1():
    g = builtin_graph("g1")
    trace = wl_run(g)
    part = trace.partitions[1]
    assert part.class_of[0] != part.class_of[3]


def test_wl_run_respects_max_rounds():
    g = builtin_graph("fig1")
    trace = wl_run(g, max_rounds=1)
    assert len(trace.partitions) == 2
    assert trace.stabilized_at is None


def test_wl_run_rejects_a_negative_max_rounds():
    g = builtin_graph("fig1")
    with pytest.raises(ValueError, match="non-negative"):
        wl_run(g, max_rounds=-1)
    trace = wl_run(g, max_rounds=0)
    assert len(trace.partitions) == 1 and trace.stabilized_at is None


def test_wl_termination_within_n_on_seeded_graphs():
    for seed in range(100):
        import random

        n = random.Random(seed).randint(2, 12)
        g = sample_graph(n, 0.4, seed + 10_000)
        trace = wl_run(g)
        assert trace.stabilized_at is not None and trace.stabilized_at <= g.n


def test_monotone_refinement():
    for seed in range(30):
        g = sample_graph(6, 0.5, seed)
        trace = wl_run(g)
        for t in range(1, len(trace.partitions)):
            assert partition_refines(trace.partitions[t], trace.partitions[t - 1])
            assert trace.partitions[t].num_classes >= trace.partitions[t - 1].num_classes


def test_wl_partitions_extends_past_stabilization():
    g = builtin_graph("g2")
    parts = wl_partitions(g, 5)
    assert len(parts) == 6
    assert all(p == parts[1] for p in parts[1:])


def test_round_counts_stop_at_max_rounds():
    # every count from outside is refused before a list of its length is made
    g = builtin_graph("g2")
    assert len(wl_partitions(g, MAX_ROUNDS)) == MAX_ROUNDS + 1
    assert named_spec("gcn", 2, rounds=MAX_ROUNDS).rounds == MAX_ROUNDS
    huge = 10**22
    for refuse in (
        lambda rounds: wl_partitions(g, rounds),
        lambda rounds: named_spec("gcn", 2, rounds=rounds),
        lambda rounds: synthesize_gnn_minus(g, rounds, "relu"),
        lambda rounds: synthesize_dgnn6(g, rounds, "sign"),
    ):
        for rounds in (MAX_ROUNDS + 1, huge):
            with pytest.raises(LimitError, match=f"^{rounds} rounds exceed MAX_ROUNDS = 1000$"):
                refuse(rounds)
    with pytest.raises(InputError, match="^rounds must be non-negative, got -1$"):
        wl_partitions(g, -1)


def test_trace_json_shape():
    trace = wl_run(builtin_graph("fig1"))
    payload = json.loads(trace.to_json_text())
    assert payload["stabilized_at"] == 3
    assert payload["rounds"][0] == [0, 0, 1, 2, 2, 1]
    assert payload["rounds"][-1] == payload["rounds"][-2]


def test_wl_partitions_match_networkx_subgraph_hashes():
    nx = pytest.importorskip("networkx")
    rounds = 4
    for seed in range(8):
        g = sample_graph(6 + seed, Fraction(2, 5), seed=500 + seed, alphabet=3)
        reference = wl_partitions(g, rounds)
        graph = nx.Graph()
        for v, cls in enumerate(reference[0].class_of, start=1):
            # networkx joins neighbour labels without a separator, so every label has one width
            graph.add_node(v, colour=f"{cls:04d}")
        graph.add_edges_from(g.edges)
        hashes = nx.weisfeiler_lehman_subgraph_hashes(graph, node_attr="colour", iterations=rounds)
        for t in range(1, rounds + 1):
            theirs = Partition.from_keys([hashes[v][t - 1] for v in range(1, g.n + 1)])
            assert theirs == reference[t], (seed, t)
