"""A Tier-1 slice of the small-graph census: every connected atlas graph on
2 to 5 vertices, synthesized for both targets and both activations.

Each certificate must hold its refinement bound and row independence, and a
replay of its network must realize exactly the per-round verdicts it claims
against colour refinement.
"""
import random

import pytest

from wlmpnn.cases import make_graph
from wlmpnn.graphs import partition_refines
from wlmpnn.mpnn import run_mpnn
from wlmpnn.synthesis import synthesize_dgnn6, synthesize_gnn_minus
from wlmpnn.wl import wl_partitions, wl_run

nx = pytest.importorskip("networkx")


def _atlas_graphs():
    """Connected atlas graphs with 2-5 vertices, each with uniform labels
    and with seeded labels over two letters."""
    out = []
    for index, atlas in enumerate(nx.graph_atlas_g()):
        n = atlas.number_of_nodes()
        if not 2 <= n <= 5 or not nx.is_connected(atlas):
            continue
        edges = [(u + 1, v + 1) for u, v in atlas.edges()]
        rng = random.Random(index)
        letters = [rng.randrange(2) for _ in range(n)]
        out.append(pytest.param(make_graph(n, edges, [(1,)] * n), id=f"atlas{index}-uniform"))
        out.append(
            pytest.param(make_graph(n, edges, [(1 - c, c) for c in letters]), id=f"atlas{index}-two-letter")
        )
    return out


def test_the_slice_holds_every_connected_graph_on_at_most_five_vertices():
    assert len(_atlas_graphs()) == 2 * 30


@pytest.mark.parametrize("g", _atlas_graphs())
def test_certificates_replay_to_their_claimed_verdicts(g):
    rounds = max(1, wl_run(g).stabilized_at)
    reference = wl_partitions(g, rounds)
    for synthesize in (synthesize_gnn_minus, synthesize_dgnn6):
        for sigma in ("relu", "sign"):
            cert = synthesize(g, rounds, sigma)
            assert cert.all_refine and cert.all_row_independent, (synthesize.__name__, sigma)
            trace = run_mpnn(g, cert.to_spec())
            assert len(trace.partitions) == rounds + 1
            for t, r in enumerate(cert.rounds, start=1):
                assert partition_refines(trace.partitions[t], reference[t]) == r.refines_wl
                assert (trace.partitions[t] == reference[t]) == r.equivalent_to_wl
