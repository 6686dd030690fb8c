"""Exact execution, comparison and synthesis of message passers against
colour refinement on labelled graphs."""

from .surd import ExactScalar, activate, parse_scalar
from .graphs import (
    LabelledGraph,
    Partition,
    format_graph,
    make_graph,
    parse_graph,
    partition_of,
)
from .wl import (
    WlTrace,
    alpha_encode,
    degree_aware_partitions,
    encoded_wl_spec,
    h_inject,
    phi_inverse,
    phi_sum,
    wl_partitions,
    wl_run,
    wl_step,
)
from .mpnn import (
    BuiltinLayer,
    CustomLayer,
    DegreeFn,
    LayerParams,
    MpnnSpec,
    RunTrace,
    anonymize_h_const,
    builtin_layer,
    degree_probe_spec,
    lift_plus_one,
    run_mpnn,
    spec_from_json,
    spec_to_json,
    wrap_comb_aggr,
)
from .synthesis import (
    SeparationResult,
    SynthesisCertificate,
    SynthesisError,
    compute_mp,
    relu_separation,
    sign_separation,
    synthesize_dgnn6,
    synthesize_gnn_minus,
)
from .linalg import right_inverse
from .compare import CompareVerdict, ShiftSpec, compare_traces, report, weaker
from .cases import (
    CaseReport,
    CaseSpec,
    builtin_graph,
    named_spec,
    sample_anonymous_spec,
    sample_degree_spec,
    sample_graph,
    verify_counterexample,
)

__version__ = "0.1.0"
