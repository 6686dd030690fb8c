"""Seeded inputs and jobs for the three workloads.

A job is one public-API call plus its check.  ``WORKLOADS[name](seed,
out_dir)`` returns a workload's job list; the same seed always gives the
same inputs and the same jobs in the same order.  Each job returns ``(ok, canonical_text)``:
``ok`` is the verification, and the text is what the job's digest hashes
(a certificate, trace or report in its JSON form, or CLI stdout with the
exit code).

The library is reached only through ``import wlmpnn`` and its submodules,
looked up at call time, so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

import wlmpnn as W
import wlmpnn.cli
import wlmpnn.graphs

FAMILIES = ("gcn", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5", "dgnn6", "gnn", "gnn-minus")
ENGINE_GRAPHS = 6
ENGINE_N = 300
FAMILY_ROUNDS = 3
SUITE_GRAPHS = 20
SUITE_ANON_SPECS = 750
SUITE_DEGREE_SPECS = 750
# Each property spec runs on this many of the graphs.  A spec's cost varies
# thirtyfold with its draw, so a spec run on all 20 graphs put 20 jobs in or
# out of the tail at once, and the tail and the job rate moved with the seed.
SPEC_GRAPHS = 2
SUITE_ANONYMIZE_DRAWS = 5
SUITE_ENCODED_GRAPHS = 20
# The injection encoding's indices grow doubly exponentially with the round;
# three rounds on some 5-vertex graphs pass wl.ENCODING_GUARD (10**6), a named
# input limit, so the encoded jobs stop at round 2.
ENCODED_MAX_ROUNDS = 2

# README CLI examples with the exit code each must return; compare at shift 0
# reports a verdict failure (exit 1) by design.  {emit} is a path inside the
# benchmark's output directory.
CLI_EXAMPLES = (
    ("wl run --graph fig1 --format json", 0),
    ("mpnn run --graph fig1 --spec gcn --rounds 1", 0),
    ("compare --graph fig1 --left gcn --right wl --shift 0 --rounds 1", 1),
    ("compare --graph fig1 --left gcn --right wl --shift +1 --rounds 3", 0),
    ("synth --graph fig1 --target gnn-minus --sigma relu --rounds 3 --p 1/2 --emit {emit}", 0),
    ("synth --graph fig1 --target dgnn6 --sigma sign --rounds 3", 0),
    ("cases verify --case g2-dgnn34 --trials 100 --seed 1", 0),
    ("cases list", 0),
)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], tuple[bool, str]]
    group: int  # jobs of one group run in the same interpreter


def _rng(seed: int, *tag) -> random.Random:
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(t) for t in (seed, *tag)))


def _one_hot(cls: int, width: int = 3) -> tuple[int, ...]:
    return tuple(1 if j == cls else 0 for j in range(width))


class _Parts:
    """A trace-like view of a list of refinement partitions."""

    def __init__(self, partitions):
        self.partitions = tuple(partitions)


def _json(data) -> str:
    return json.dumps(data, sort_keys=True)


# -- input generators --------------------------------------------------------


def criterion_graphs() -> list:
    """The 50 graphs of acceptance criteria 4 and 5, exactly as those tests draw them."""
    graphs = []
    for i in range(50):
        n = random.Random(i * 7919 + 13).randint(4, 10)
        graphs.append(W.sample_graph(n, Fraction(2, 5), seed=1000 + i, alphabet=3, require_connected=True))
    return graphs


def cycle_plus_chords(n: int, rng: random.Random):
    """An n-cycle plus n distinct random chords, one-hot labels over 3 letters.

    Built directly: ``cases.sample_graph`` draws O(n^2) fractions per attempt
    and did not return within 9 minutes at n = 1000.
    """
    edges = {(v, v + 1) for v in range(1, n)} | {(1, n)}
    target = 2 * n
    while len(edges) < target:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    labels = [_one_hot(rng.randrange(3)) for _ in range(n)]
    return W.make_graph(n, sorted(edges), labels)


def torus(rows: int, cols: int, a: int, b: int):
    """rows x cols torus grid labelled (a*i + b*j) mod 3: label-preserving
    translations leave exactly three orbits, so refinement stays at 3 classes."""
    def vid(i, j):
        return (i % rows) * cols + (j % cols) + 1

    edges = set()
    for i in range(rows):
        for j in range(cols):
            for u, v in ((vid(i, j), vid(i + 1, j)), (vid(i, j), vid(i, j + 1))):
                edges.add((min(u, v), max(u, v)))
    labels = [_one_hot((a * i + b * j) % 3) for i in range(rows) for j in range(cols)]
    return W.make_graph(rows * cols, sorted(edges), labels)


def circulant(n: int, step: int):
    """Circulant C_n(1, step) labelled v mod 3 (3 divides n)."""
    edges = set()
    for v in range(n):
        for u in ((v + 1) % n, (v + step) % n):
            edges.add((min(u, v) + 1, max(u, v) + 1))
    labels = [_one_hot(v % 3) for v in range(n)]
    return W.make_graph(n, sorted(edges), labels)


def symmetric_graphs(seed: int) -> list:
    rng = _rng(seed, "symmetric")
    patterns = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    out = [torus(12, 12, *pattern) for pattern in rng.sample(patterns, 2)]
    out += [circulant(60, step) for step in rng.sample((2, 4, 5, 7, 8, 10, 11), 2)]
    out.append(torus(9, 15, *rng.choice(patterns)))
    return out


def property_graphs(seed: int) -> list:
    """Criteria 6, 7 and 10 inputs.  Sizes follow the acceptance suite and do not
    depend on the seed: every graph meets many specs, so seeded sizes moved
    the cost of the whole property group together."""
    return [
        W.sample_graph(random.Random(i).randint(4, 10), Fraction(2, 5), seed=_rng(seed, "property", i).getrandbits(32))
        for i in range(SUITE_GRAPHS)
    ]


def encoded_graphs(seed: int) -> list:
    """Criterion-8 inputs: small graphs relabelled with width-1 integer labels."""
    out = []
    for i in range(SUITE_ENCODED_GRAPHS):
        rng = _rng(seed, "encoded", i)
        base = W.sample_graph(random.Random(i).randint(3, 5), Fraction(3, 5), rng.getrandbits(32), alphabet=1)
        labels = [(rng.randrange(3),) for _ in range(base.n)]
        out.append(W.make_graph(base.n, sorted(base.edges), labels))
    return out


# -- job bodies ----------------------------------------------------------------


def _replay_consistent(g, cert, rounds: int) -> bool:
    """Replay the certificate and check its per-round claims against refinement."""
    trace = W.run_mpnn(g, cert.to_spec())
    reference = W.wl_partitions(g, rounds)
    if trace.partitions[0] != reference[0] or len(trace.partitions) != rounds + 1:
        return False
    for t, claimed in enumerate(cert.rounds, start=1):
        if (trace.partitions[t] == reference[t]) != claimed.equivalent_to_wl:
            return False
        if W.graphs.partition_refines(trace.partitions[t], reference[t]) != claimed.refines_wl:
            return False
    return True


def synth_job(g, rounds: int, target: str, sigma: str):
    def run():
        if target == "gnn-minus":
            cert = W.synthesize_gnn_minus(g, rounds, sigma)
            ok = cert.all_equivalent
        else:
            cert = W.synthesize_dgnn6(g, rounds, sigma)
            ok = cert.m_p < cert.p < W.ExactScalar(1)
        ok = ok and cert.all_refine and cert.all_row_independent and _replay_consistent(g, cert, rounds)
        return ok, cert.to_json_text()

    return run


def family_job(g, family: str):
    """A builtin family with identity weights, checked one step behind refinement."""
    def run():
        trace = W.run_mpnn(g, W.named_spec(family, g.label_dim, rounds=FAMILY_ROUNDS))
        reference = _Parts(W.wl_partitions(g, FAMILY_ROUNDS + 1))
        verdict = W.weaker(trace, reference, W.ShiftSpec("plus_one"))
        return verdict.holds, _json(trace.to_json())

    return run


def wl_job(g):
    def run():
        trace = W.wl_run(g)
        ok = trace.stabilized_at is not None and trace.stabilized_at <= g.n
        return ok, trace.to_json_text()

    return run


def anonymous_job(g, spec):
    """Criterion 6: refinement refines every anonymous network round-wise."""
    def run():
        trace = W.run_mpnn(g, spec)
        reference = W.wl_partitions(g, spec.rounds)
        ok = all(
            W.graphs.partition_refines(reference[t], trace.partitions[t]) for t in range(spec.rounds + 1)
        )
        return ok, _json(trace.to_json())

    return run


def degree_job(g, spec):
    """Criterion 7: the one-step-ahead bound and the lift contract."""
    def run():
        trace = W.run_mpnn(g, spec)
        lifted = W.run_mpnn(g, W.lift_plus_one(spec))
        reference = W.wl_partitions(g, spec.rounds + 1)
        refines = W.graphs.partition_refines
        ok = all(
            refines(reference[t + 1], trace.partitions[t]) and refines(lifted.partitions[t + 1], trace.partitions[t])
            for t in range(spec.rounds + 1)
        )
        return ok, _json([trace.to_json(), lifted.to_json()])

    return run


def anonymize_job(g, spec):
    """Criterion 10: the h = 1 anonymization keeps every round's partition."""
    def run():
        original = W.run_mpnn(g, spec)
        anonymous = W.run_mpnn(g, W.anonymize_h_const(spec))
        return original.partitions == anonymous.partitions, _json([original.to_json(), anonymous.to_json()])

    return run


def anonymize_spec(rng: random.Random, family: str, width: int):
    layers = []
    for _ in range(rng.randint(1, 3)):
        out = rng.randint(1, 3)
        weight = tuple(
            tuple(W.ExactScalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))) for _ in range(out))
            for _ in range(width)
        )
        layers.append(W.BuiltinLayer(family, W.LayerParams(w2=weight, sigma=rng.choice(["relu", "sign"]))))
        width = out
    return W.MpnnSpec(f_mode="degree", layers=tuple(layers))


def case_job(case_id: str, seed: int):
    def run():
        report = W.verify_counterexample(W.CaseSpec(case_id, trials=100, seed=seed), raise_on_failure=False)
        ok = report.passed and report.structural_ok and report.wl_verdict_ok
        return ok, report.to_json_text()

    return run


def encoded_job(g):
    """Criterion 8: the rational-injection network reproduces refinement."""
    def run():
        rounds = min(W.wl_run(g).stabilized_at, ENCODED_MAX_ROUNDS)
        encoded = W.run_mpnn(g, W.encoded_wl_spec(g, rounds))
        reference = W.wl_partitions(g, rounds)
        ok = all(encoded.partitions[t] == reference[t] for t in range(rounds + 1))
        return ok, _json(encoded.to_json())

    return run


def phi_roundtrip_job():
    """Criterion 8: the 56 multisets of size <= 5 over 3 labels decode exactly."""
    def run():
        dictionary = [(W.ExactScalar(k),) for k in range(3)]
        values, round_trips = [], 0
        for size in range(6):
            for combo in combinations_with_replacement(dictionary, size):
                value = W.phi_sum(list(combo), 5)
                values.append(str(value))
                round_trips += sorted(W.phi_inverse(value, 5, dictionary)) == sorted(combo)
        return round_trips == 56, _json(values)

    return run


def cli_job(command: str, expected: int, emit: Path):
    def run():
        argv = command.format(emit=emit).split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = wlmpnn.cli.main(argv)
        text = out.getvalue()
        if "{emit}" in command:
            text += emit.read_text()
        return code == expected, f"exit {code}\n{text}"

    return run


# -- workloads -----------------------------------------------------------------


def synth(seed: int, out_dir: Path) -> list[Job]:
    """The seed only decides which interpreter runs which graph: relabelled
    copies of these graphs move single dgnn6 jobs by several times (the
    elimination order changes), which made the p95 differ by 20% between seeds."""
    graphs = criterion_graphs()
    groups = list(range(len(graphs)))
    _rng(seed, "synth").shuffle(groups)
    jobs = []
    for i, g in enumerate(graphs):
        rounds = W.wl_run(g).stabilized_at
        for target in ("gnn-minus", "dgnn6"):
            for sigma in ("relu", "sign"):
                jobs.append(Job(f"synth/{i}/{target}/{sigma}", synth_job(g, rounds, target, sigma), group=groups[i]))
    return jobs


def engine(seed: int, out_dir: Path) -> list[Job]:
    jobs = []
    for k in range(ENGINE_GRAPHS):
        g = cycle_plus_chords(ENGINE_N, _rng(seed, "engine", k))
        for family in FAMILIES:
            jobs.append(Job(f"engine/{k}/{family}", family_job(g, family), group=len(jobs)))
    return jobs


def suite(seed: int, out_dir: Path) -> list[Job]:
    jobs = []

    def add(name, run):
        jobs.append(Job(name, run, group=len(jobs)))

    graphs = property_graphs(seed)

    def spec_graphs(i):
        return [(SPEC_GRAPHS * i + k) % len(graphs) for k in range(SPEC_GRAPHS)]

    for i in range(SUITE_ANON_SPECS):
        spec = W.sample_anonymous_spec(_rng(seed, "anon", i), 3)
        for j in spec_graphs(i):
            add(f"suite/anon/{i}/{j}", anonymous_job(graphs[j], spec))
    for i in range(SUITE_DEGREE_SPECS):
        spec = W.sample_degree_spec(_rng(seed, "degree", i), 3)
        for j in spec_graphs(i):
            add(f"suite/degree/{i}/{j}", degree_job(graphs[j], spec))
    for j, g in enumerate(graphs):
        rng = _rng(seed, "anonymize", j)
        for family in ("dgnn1", "dgnn3"):
            for k in range(SUITE_ANONYMIZE_DRAWS):
                add(f"suite/anonymize/{j}/{family}/{k}", anonymize_job(g, anonymize_spec(rng, family, g.label_dim)))
    case_rng = _rng(seed, "cases")
    for case_id in ("g1-dgnn12", "g2-dgnn34", "g3-dgnn5", "fig1-gcn", "fig1-dgnn6"):
        add(f"suite/case/{case_id}", case_job(case_id, case_rng.randrange(1 << 16)))
    for j, g in enumerate(encoded_graphs(seed)):
        add(f"suite/encoded/{j}", encoded_job(g))
    add("suite/phi", phi_roundtrip_job())
    for k, (command, expected) in enumerate(CLI_EXAMPLES):
        add(f"suite/cli/{k}", cli_job(command, expected, out_dir / f"cli-{k}.json"))
    for j, g in enumerate(symmetric_graphs(seed)):
        add(f"suite/symmetric/{j}/wl", wl_job(g))
        for family in FAMILIES:
            add(f"suite/symmetric/{j}/{family}", family_job(g, family))
    return jobs


WORKLOADS = {"synth": synth, "engine": engine, "suite": suite}
