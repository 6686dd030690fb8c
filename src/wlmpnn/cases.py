"""Built-in case graphs, the counterexample harness and seeded samplers.

The case graphs are the four concrete instances the distinguishing-power
separations are proved on; ``verify_counterexample`` mechanically re-checks
each claim three ways: a symbolic pre-weight row comparison (independent of
weights, bias and activation), seeded random weight trials through the
execution engine, and the refinement side of the claim.

Samplers use ``random.Random`` (MT19937) so every report is reproducible
from (case id, trials, seed) alone.  The spec and trial samplers draw their
entries from one shared exact support, a read-only table built at import
with one ExactScalar per value: the drawn entries of any number of sampled
specs are at most 27 scalar objects, not one per entry.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from .compare import ShiftSpec, compare_traces
from .graphs import LabelledGraph, make_graph
from .linalg import Row, identity, row_add, row_mat, row_scale
from .mpnn import (
    DEGREE_FAMILIES,
    FAMILIES,
    BuiltinLayer,
    LayerParams,
    MpnnSpec,
    run_mpnn,
    wrap_comb_aggr,
)
from .surd import ONE, ZERO, ExactScalar, InputError, LimitError, activate
from .wl import WlTrace, check_round_limit, wl_partitions

CASE_IDS = ("fig1-gcn", "g1-dgnn12", "g2-dgnn34", "g3-dgnn5", "fig1-dgnn6")

_E1 = (1, 0, 0)
_E2 = (0, 1, 0)
_E3 = (0, 0, 1)


# the four case graphs by id, as the arguments of make_graph
_GRAPHS = {
    "fig1": (6, [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6)], [_E1, _E1, _E2, _E3, _E3, _E2]),
    "g1": (4, [(1, 2), (1, 3), (4, 2), (4, 3)], [_E1, _E2, _E2, _E3]),
    "g2": (2, [(1, 2)], [(1, 0), (0, 1)]),
    "g3": (
        10,
        [(1, 2), (1, 3), (1, 4), (1, 5), (6, 7), (6, 8), (6, 9), (6, 10)],
        [_E1, _E2, _E2, _E3, _E3, _E2, _E1, _E1, _E3, _E3],
    ),
}
GRAPH_IDS = tuple(_GRAPHS)


def builtin_graph(graph_id: str) -> LabelledGraph:
    """The case graph of an id of GRAPH_IDS: fig1, g1, g2, g3."""
    if graph_id not in _GRAPHS:
        raise InputError(f"unknown builtin graph {graph_id!r} (expected fig1, g1, g2 or g3)")
    return make_graph(*_GRAPHS[graph_id])


def pre_weight_matrix(g: LabelledGraph, layer: BuiltinLayer) -> tuple[Row, ...]:
    """The symbolic matrix a single-weight degree-aware layer multiplies by W.

    Computed directly from the closed form diag(g) (A + pI) diag(h) L (plus
    L itself when the family ties the self weight to W), not through the
    message-passing engine, so it doubles as an independent cross-check of
    the engine in the trials.
    """
    form = layer.form
    if form.w1 is not None and form.w1 is not form.w2:
        raise ValueError(f"{layer.family} has an independent self weight; no single pre-weight matrix")
    scaled = [row_scale(g.label_of(v), form.h.value(g.degree(v))) for v in range(1, g.n + 1)]
    rows = []
    for v in range(1, g.n + 1):
        acc = row_scale(scaled[v - 1], form.p)
        for u in g.neighbors(v):
            acc = row_add(acc, scaled[u - 1])
        row = row_scale(acc, form.g.value(g.degree(v)))
        if form.w1 is not None:
            row = row_add(row, g.label_of(v))
        rows.append(row)
    return tuple(rows)


@dataclass(frozen=True)
class CaseSpec:
    """A case claim to verify; making one refuses an unknown case id, trials
    < 1 and, with LimitError, trials above MAX_TRIALS."""

    case_id: str
    trials: int = 100
    seed: int = 1

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise InputError(f"unknown case {self.case_id!r} (known: {', '.join(CASE_IDS)})")
        if self.trials < 1:
            raise InputError(f"a verification needs at least one trial, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise LimitError(f"{self.trials} trials exceed MAX_TRIALS = {MAX_TRIALS}")


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    trials: int
    seed: int
    architectures: tuple[str, ...]
    claimed_pair: tuple[int, int]
    kind: str  # "forced-merge" or "forced-split"
    structural_ok: bool
    expected_rows_ok: bool
    trial_merges: int
    trial_separations: int
    wl_round: int
    wl_verdict_ok: bool
    extra: tuple[tuple[str, bool], ...] = ()

    @property
    def passed(self) -> bool:
        # forced-merge claims are universal (no weight draw may split the
        # pair); forced-split claims are existential, witnessed by the
        # identity-weight structural check, so trials only corroborate.
        trials_ok = self.trial_separations == 0 if self.kind == "forced-merge" else True
        return (
            self.structural_ok
            and self.expected_rows_ok
            and trials_ok
            and self.wl_verdict_ok
            and all(ok for _, ok in self.extra)
        )

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "trials": self.trials,
            "seed": self.seed,
            "architectures": list(self.architectures),
            "claimed_pair": list(self.claimed_pair),
            "kind": self.kind,
            "structural_ok": self.structural_ok,
            "expected_rows_ok": self.expected_rows_ok,
            "trial_merges": self.trial_merges,
            "trial_separations": self.trial_separations,
            "wl_round": self.wl_round,
            "wl_verdict_ok": self.wl_verdict_ok,
            "extra_checks": {name: ok for name, ok in self.extra},
            "passed": self.passed,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


class CaseVerificationError(RuntimeError):
    """A case claim failed mechanical verification."""

    def __init__(self, report: CaseReport):
        super().__init__(f"case {report.case_id} failed verification:\n{report.to_json_text()}")
        self.report = report


_HALF = ExactScalar(Fraction(1, 2))

# case id -> graph id, the families with their parameters besides W and
# sigma, the claimed pair, the kind of claim, the refinement round, and for a
# forced merge the pair's shared pre-weight row from the layer's closed form
_CASE_TABLE: dict[str, dict] = {
    "g1-dgnn12": {
        "graph": "g1",
        "families": (("dgnn1", {}), ("dgnn2", {})),
        "pair": (1, 4),
        "kind": "forced-merge",
        "wl_round": 1,
        # both endpoints see two degree-2 neighbours of the middle label
        "expected": lambda form: (ZERO, form.g.value(2) * form.h.value(2) * 2, ZERO),
    },
    "g2-dgnn34": {
        "graph": "g2",
        "families": (("dgnn3", {}), ("dgnn4", {})),
        "pair": (1, 2),
        "kind": "forced-merge",
        "wl_round": 1,
        "expected": lambda form: (form.g.value(1) * form.h.value(1),) * 2,
    },
    "g3-dgnn5": {
        "graph": "g3",
        "families": (("dgnn5", {}),),
        "pair": (1, 6),
        "kind": "forced-merge",
        "wl_round": 1,
        "expected": lambda form: (ONE, ONE, ONE),
    },
    "fig1-gcn": {
        "graph": "fig1",
        "families": (("gcn-kipf", {}),),
        "pair": (4, 5),
        "kind": "forced-split",
        "wl_round": 1,
    },
    "fig1-dgnn6": {
        "graph": "fig1",
        "families": (("dgnn6", {"r": _HALF, "p": _HALF}),),
        "pair": (4, 5),
        "kind": "forced-split",
        "wl_round": 1,
    },
}


# the scales of sampled entries n/d, as (span, dens): n = randint(-span,
# span), then d = choice(dens); weights and biases of sampled specs use the
# first, verify_counterexample's trials the second.  p, q and r of sampled
# layers are k/4 with k = randint(0, 4), randint(1, 4) for r.
WEIGHT_SCALE = (3, (1, 2))
TRIAL_SCALE = (5, (1, 2, 3))


def _exact_support() -> MappingProxyType:
    """Every drawn (n, d) -> the one ExactScalar of n/d, shared by all the
    pairs of equal value (2/2 and 1/1 map to one object)."""
    pairs = [(n, d) for span, dens in (WEIGHT_SCALE, TRIAL_SCALE) for n in range(-span, span + 1) for d in dens]
    pairs += [(k, 4) for k in range(5)]
    by_value: dict[Fraction, ExactScalar] = {}
    for n, d in pairs:
        by_value.setdefault(Fraction(n, d), ExactScalar(Fraction(n, d)))
    return MappingProxyType({(n, d): by_value[Fraction(n, d)] for n, d in pairs})


_SUPPORT = _exact_support()


def _sample_matrix(rng: random.Random, rows: int, cols: int, scale: tuple[int, tuple[int, ...]]):
    return tuple(_sample_row(rng, cols, scale) for _ in range(rows))


def _sample_row(rng: random.Random, cols: int, scale: tuple[int, tuple[int, ...]]) -> Row:
    span, dens = scale
    return tuple(_SUPPORT[rng.randint(-span, span), rng.choice(dens)] for _ in range(cols))


def verify_counterexample(case: CaseSpec, raise_on_failure: bool = True) -> CaseReport:
    """Re-check a case claim symbolically, by seeded trials, and against refinement.

    forced-merge cases assert the pair's pre-weight rows are identical (so no
    weight, bias or activation can split them) while refinement splits the
    pair at the stated round; forced-split cases assert the identity-weight
    layer splits a pair refinement still merges.
    """
    table = _CASE_TABLE[case.case_id]
    g = builtin_graph(table["graph"])
    v, w = table["pair"]
    kind = table["kind"]
    rng = random.Random(case.seed)
    structural_ok = True
    expected_rows_ok = True
    merges = 0
    separations = 0
    for family, extra_params in table["families"]:
        base = BuiltinLayer(family, LayerParams(w2=identity(g.label_dim), sigma="relu", **extra_params))
        pre = pre_weight_matrix(g, base)
        rows_equal = pre[v - 1] == pre[w - 1]
        if kind == "forced-merge":
            structural_ok &= rows_equal
            expected = table["expected"](base.form)
            expected_rows_ok &= pre[v - 1] == expected and pre[w - 1] == expected
        else:
            structural_ok &= not rows_equal
        for _ in range(case.trials):
            cols = rng.randint(1, 3)
            weight = _sample_matrix(rng, g.label_dim, cols, TRIAL_SCALE)
            sigma = rng.choice(["relu", "sign"])
            kwargs = dict(extra_params)
            if "bias" in FAMILIES[family].takes:
                kwargs["bias"] = _sample_row(rng, cols, TRIAL_SCALE)
            layer = BuiltinLayer(family, LayerParams(w2=weight, sigma=sigma, **kwargs))
            rows = run_mpnn(g, MpnnSpec(f_mode="degree", layers=(layer,))).labellings[1]
            if rows[v - 1] == rows[w - 1]:
                merges += 1
            else:
                separations += 1
    wl_round = table["wl_round"]
    wl_part = wl_partitions(g, wl_round)[wl_round]
    pair_merged_by_wl = wl_part.class_of[v - 1] == wl_part.class_of[w - 1]
    wl_ok = not pair_merged_by_wl if kind == "forced-merge" else pair_merged_by_wl
    extra: list[tuple[str, bool]] = []
    if case.case_id == "fig1-gcn":
        spec = named_spec("gcn", g.label_dim, rounds=3)
        trace = run_mpnn(g, spec)
        wl = tuple(wl_partitions(g, 4))
        same_round = compare_traces(trace, WlTrace(wl[:4], None), ShiftSpec("identity"))
        one_ahead = compare_traces(trace, WlTrace(wl, None), ShiftSpec("plus_one"))
        extra.append(("same_round_relation_fails", not same_round.verdict.holds))
        extra.append(
            (
                "same_round_witness_is_round1_pair",
                same_round.verdict.first_violation == (1, v, w),
            )
        )
        extra.append(("one_step_ahead_relation_holds", one_ahead.verdict.holds))
    report = CaseReport(
        case_id=case.case_id,
        trials=case.trials,
        seed=case.seed,
        architectures=tuple(family for family, _ in table["families"]),
        claimed_pair=(v, w),
        kind=kind,
        structural_ok=structural_ok,
        expected_rows_ok=expected_rows_ok,
        trial_merges=merges,
        trial_separations=separations,
        wl_round=wl_round,
        wl_verdict_ok=wl_ok,
        extra=tuple(extra),
    )
    if raise_on_failure and not report.passed:
        raise CaseVerificationError(report)
    return report


# -- seeded samplers -----------------------------------------------------------

# sample_graph draws one 53-bit integer per vertex pair on every attempt.  On
# a 2-vCPU Xeon VM under Python 3.11 an attempt took 2.5 ms at n = 100, 9.4 ms
# at n = 200 and 0.33 s at n = 1000, so the default 1,000 attempts stay under
# 3 s up to this limit; larger graphs are built directly, as perfbench's
# cycle_plus_chords does.
SAMPLE_GRAPH_MAX_N = 100

# On the same VM, 10,000 trials of verify_counterexample took 2.3 s (fig1-gcn),
# 3.3 s (g1-dgnn12), 2.6 s (g2-dgnn34), 2.8 s (g3-dgnn5) and 3.1 s (fig1-dgnn6).
MAX_TRIALS = 10_000


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def sample_graph(
    n: int,
    edge_prob: Fraction | float,
    seed: int,
    alphabet: int = 3,
    require_connected: bool = False,
    max_attempts: int = 1000,
) -> LabelledGraph:
    """Seeded Erdos-Renyi draw with one-hot labels over a small alphabet.

    Resamples until no vertex is isolated (and, optionally, the graph is
    connected); fails after max_attempts.  n above SAMPLE_GRAPH_MAX_N
    raises LimitError at once.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > SAMPLE_GRAPH_MAX_N:
        raise LimitError(f"n = {n} exceeds SAMPLE_GRAPH_MAX_N = {SAMPLE_GRAPH_MAX_N}")
    # a pair is an edge when its 53-bit draw k has k / 2**53 < a / b, that is k * b < a * 2**53
    a, b = Fraction(edge_prob).as_integer_ratio()
    bound = a << 53
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    for _ in range(max_attempts):
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if getrandbits(53) * b < bound
        ]
        touched = {x for e in edges for x in e}
        if len(touched) != n:
            continue
        if require_connected and not _connected(n, edges):
            continue
        labels = []
        for _ in range(n):
            cls = rng.randrange(alphabet)
            labels.append(tuple(1 if j == cls else 0 for j in range(alphabet)))
        return make_graph(n, edges, labels)
    raise RuntimeError(f"no admissible graph found in {max_attempts} attempts")


def sample_anonymous_spec(rng: random.Random, s0: int) -> MpnnSpec:
    """Random anonymous network: gnn / gnn-minus / comb-aggr, up to 4 rounds."""
    family = rng.choice(["gnn", "gnn-minus", "comb-aggr"])
    rounds = rng.randint(1, 4)
    sigma = rng.choice(["relu", "sign"])
    if family == "comb-aggr":
        inner = rng.randint(1, 3)
        h_matrix = _sample_matrix(rng, s0, inner, WEIGHT_SCALE)
        g_matrix = _sample_matrix(rng, inner, inner, WEIGHT_SCALE)
        self_matrix = _sample_matrix(rng, s0, s0, WEIGHT_SCALE)
        mix = _sample_matrix(rng, inner, s0, WEIGHT_SCALE)
        bias = _sample_row(rng, s0, WEIGHT_SCALE)

        def aggr_h(y):
            return row_mat(y, h_matrix)

        def aggr_g(m):
            return row_mat(m, g_matrix)

        def comb(x, y):
            pre = row_add(row_add(row_mat(x, self_matrix), row_mat(y, mix)), bias)
            return tuple(activate(value, sigma) for value in pre)

        return wrap_comb_aggr(comb, aggr_h, aggr_g, rounds)
    return MpnnSpec(f_mode="zero", layers=_sample_layers(rng, family, rounds, s0, sigma))


def sample_degree_spec(rng: random.Random, s0: int) -> MpnnSpec:
    """Random degree-aware network from the normalized-adjacency families."""
    family = rng.choice(["gcn-kipf", "dgnn1", "dgnn2", "dgnn3", "dgnn4", "dgnn5", "dgnn6"])
    rounds = rng.randint(1, 4)
    sigma = rng.choice(["relu", "sign"])
    return MpnnSpec(f_mode="degree", layers=_sample_layers(rng, family, rounds, s0, sigma))


def _sample_layers(rng: random.Random, family: str, rounds: int, width: int, sigma: str) -> tuple[BuiltinLayer, ...]:
    """rounds layers of family, each of output width 1 to 3 and with every
    field the family requires or takes: weights and bias at the
    property-suite scale, p and q in {0, 1/4, ..., 1} and r in {1/4, ..., 1}."""
    row = FAMILIES[family]
    layers = []
    for _ in range(rounds):
        out = rng.randint(1, 3)
        fields = {}
        for attr in ("w1", "w2", "r", "p", "q", "bias"):  # in the order they are drawn
            if attr not in row.requires + row.takes:
                continue
            if attr == "bias":
                fields[attr] = _sample_row(rng, out, WEIGHT_SCALE)
            elif attr in ("w1", "w2"):
                fields[attr] = _sample_matrix(rng, width, out, WEIGHT_SCALE)
            else:
                fields[attr] = _SUPPORT[rng.randint(1 if attr == "r" else 0, 4), 4]
        layers.append(BuiltinLayer(family, LayerParams(sigma=sigma, **fields)))
        width = out
    return tuple(layers)


# the names of named_spec: gcn for gcn-kipf, and each family that requires
# no more than its weights and p, q or r
NETWORK_NAMES = tuple(
    "gcn" if family == "gcn-kipf" else family
    for family, row in FAMILIES.items()
    if set(row.requires) <= {"w1", "w2", "p", "q", "r"}
)


def named_spec(name: str, s0: int, rounds: int, sigma: str = "relu") -> MpnnSpec:
    """Identity-weight network for a name of NETWORK_NAMES (CLI shorthand),
    its p, q and r set to 1/2."""
    if name not in NETWORK_NAMES:
        raise InputError(f"unknown network name {name!r}")
    check_round_limit(rounds)
    family = "gcn-kipf" if name == "gcn" else name
    row = FAMILIES[family]
    eye = identity(s0)
    params = LayerParams(sigma=sigma, **{field: eye if field[0] == "w" else _HALF for field in row.requires})
    f_mode = "degree" if family in DEGREE_FAMILIES else "zero"
    return MpnnSpec(f_mode=f_mode, layers=(BuiltinLayer(family, params),) * rounds)
