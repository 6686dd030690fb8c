"""Command-line front end.

Subcommands: ``wl run``, ``mpnn run``, ``compare``, ``synth``,
``cases verify``, ``cases list``.  Exit codes: 0 success, 1 a verdict or
verification failed, 2 usage or input errors: an unparseable scalar, a
``--p`` outside (0, 1), a malformed graph or spec file (invalid JSON
included), an unknown name, a ``--rounds`` or ``--trials`` below 1 and a
negative ``--max-rounds``.  Any other failure is the program's, not the
input's: it prints ``internal error: ...`` and exits 1.  Graph
arguments accept a builtin id (fig1, g1, g2, g3) or a graph file path.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, TypeVar

from .cases import (
    CASE_IDS,
    CaseSpec,
    CaseVerificationError,
    builtin_graph,
    named_spec,
    verify_counterexample,
)
from .compare import ShiftSpec, compare_traces, report
from .graphs import GraphFormatError, LabelledGraph, parse_graph
from .mpnn import DimensionError, MpnnSpec, SpecValidationError, run_mpnn, spec_from_json
from .surd import ONE, ZERO, LimitError, parse_scalar
from .synthesis import SynthesisError, synthesize_dgnn6, synthesize_gnn_minus
from .wl import WlTrace, wl_partitions, wl_run

T = TypeVar("T")


class UsageError(ValueError):
    """The command line or an input file is malformed or names nothing known."""


def _parsed(parse: Callable[[], T]) -> T:
    """parse(), reporting any ValueError it raises as an input error."""
    try:
        return parse()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _count(minimum: int, what: str) -> Callable[[str], int]:
    """argparse type of an integer count of at least minimum."""

    def parse(text: str) -> int:
        try:
            count = int(text)
        except ValueError:
            count = minimum - 1
        if count < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return count

    return parse


_round_count = _count(1, "a positive round count")


def _load_graph(ref: str) -> LabelledGraph:
    try:
        return builtin_graph(ref)
    except ValueError:
        pass
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"graph {ref!r} is neither a builtin id nor an existing file")
    return _parsed(lambda: parse_graph(path.read_text()))


def _load_spec(ref: str, graph: LabelledGraph, rounds: int, sigma: str) -> MpnnSpec:
    try:
        return named_spec(ref, graph.label_dim, rounds, sigma)
    except ValueError:
        pass
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"spec {ref!r} is neither a known family nor an existing file")
    return _parsed(lambda: spec_from_json(json.loads(path.read_text())))


def _emit(text: str, path: str | None):
    if path:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_wl(args) -> int:
    g = _load_graph(args.graph)
    trace = wl_run(g, args.max_rounds)
    if args.format == "json":
        _emit(trace.to_json_text(), args.emit)
    else:
        lines = [f"round {t}: {p.num_classes} classes {list(p.class_of)}" for t, p in enumerate(trace.rounds)]
        lines.append(f"stabilized_at: {trace.stabilized_at}")
        _emit("\n".join(lines), args.emit)
    return 0


def _cmd_mpnn(args) -> int:
    g = _load_graph(args.graph)
    spec = _load_spec(args.spec, g, args.rounds, args.sigma)
    trace = run_mpnn(g, spec)
    if args.format == "json":
        _emit(json.dumps(trace.to_json(), indent=2, sort_keys=True), args.emit)
    else:
        lines = []
        for t, labelling in enumerate(trace.labellings):
            lines.append(f"round {t} ({trace.partitions[t].num_classes} classes):")
            for v in range(1, g.n + 1):
                row = ", ".join(x.to_text() for x in labelling.row_of(v))
                lines.append(f"  v{v}: {row}")
        _emit("\n".join(lines), args.emit)
    return 0


def _cmd_compare(args) -> int:
    g = _load_graph(args.graph)
    shift = _parsed(lambda: ShiftSpec.from_text(args.shift))
    left_rounds = args.rounds
    right_rounds = shift.apply(left_rounds)

    def side(ref: str, rounds: int):
        if ref == "wl":
            return WlTrace(tuple(wl_partitions(g, rounds)), None), "wl"
        return run_mpnn(g, _load_spec(ref, g, rounds, args.sigma)), ref

    left, left_name = side(args.left, left_rounds)
    right, right_name = side(args.right, right_rounds)
    comparison = compare_traces(left, right, shift, left_name, right_name)
    _emit(report([comparison], args.format), args.emit)
    return 0 if comparison.verdict.holds else 1


def _cmd_synth(args) -> int:
    g = _load_graph(args.graph)
    try:
        if args.target == "gnn-minus":
            p = _parsed(lambda: parse_scalar(args.p)) if args.p else None
            if p is not None and not ZERO < p < ONE:
                raise UsageError(f"--p {p.to_text()} must lie strictly between 0 and 1")
            cert = synthesize_gnn_minus(g, args.rounds, args.sigma, p=p, uniform_q=args.uniform_q)
        else:
            if args.p:
                raise UsageError("--p applies to the gnn-minus target only")
            cert = synthesize_dgnn6(g, args.rounds, args.sigma, uniform_q=args.uniform_q)
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        if exc.dump:
            print(json.dumps(exc.dump, indent=2, sort_keys=True, default=str), file=sys.stderr)
        return 1
    if args.format == "json":
        _emit(cert.to_json_text(), args.emit)
    else:
        lines = [
            f"target: {cert.target}  sigma: {cert.sigma}  p: {cert.p.to_text()}",
            f"rounds: {len(cert.rounds)}  reencoded: {cert.reencoded}",
        ]
        if cert.m_p is not None:
            lines.append(f"m_p: {cert.m_p.to_text()}")
        for t, r in enumerate(cert.rounds, start=1):
            lines.append(
                f"round {t}: q={r.q.to_text()} route={r.route} repair={r.repair} "
                f"equivalent={r.equivalent_to_wl} refines={r.refines_wl} "
                f"independent={r.row_independent}"
            )
        _emit("\n".join(lines), args.emit)
    return 0 if cert.all_equivalent and cert.all_row_independent else 1


def _cmd_cases(args) -> int:
    if args.cases_command == "list":
        print("\n".join(CASE_IDS))
        return 0
    spec = CaseSpec(case_id=args.case, trials=args.trials, seed=args.seed)
    try:
        case_report = verify_counterexample(spec)
    except CaseVerificationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.format == "json":
        _emit(case_report.to_json_text(), args.emit)
    else:
        _emit(
            "\n".join(
                f"{key}: {value}" for key, value in sorted(case_report.to_json().items())
            ),
            args.emit,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlmpnn",
        description="exact execution, comparison and synthesis of message passers "
        "against colour refinement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wl = sub.add_parser("wl", help="colour refinement")
    wl_sub = wl.add_subparsers(dest="wl_command", required=True)
    wl_runp = wl_sub.add_parser("run", help="run refinement on a graph")
    wl_runp.add_argument("--graph", required=True)
    wl_runp.add_argument("--max-rounds", type=_count(0, "a non-negative round count"), default=None)
    wl_runp.add_argument("--format", choices=("text", "json"), default="text")
    wl_runp.add_argument("--emit")
    wl_runp.set_defaults(func=_cmd_wl)

    mp = sub.add_parser("mpnn", help="message-passing execution")
    mp_sub = mp.add_subparsers(dest="mpnn_command", required=True)
    mp_runp = mp_sub.add_parser("run", help="run a network on a graph")
    mp_runp.add_argument("--graph", required=True)
    mp_runp.add_argument("--spec", required=True, help="family name or spec JSON file")
    mp_runp.add_argument("--rounds", type=_round_count, default=1)
    mp_runp.add_argument("--sigma", choices=("relu", "sign", "none"), default="relu")
    mp_runp.add_argument("--format", choices=("text", "json"), default="text")
    mp_runp.add_argument("--emit")
    mp_runp.set_defaults(func=_cmd_mpnn)

    cmp_p = sub.add_parser("compare", help="distinguishing-power comparison")
    cmp_p.add_argument("--graph", required=True)
    cmp_p.add_argument("--left", required=True, help="family name, spec file, or 'wl'")
    cmp_p.add_argument("--right", required=True, help="family name, spec file, or 'wl'")
    cmp_p.add_argument("--shift", default="0", help="0, +1 or x<c>")
    cmp_p.add_argument("--rounds", type=_round_count, required=True)
    cmp_p.add_argument("--sigma", choices=("relu", "sign", "none"), default="relu")
    cmp_p.add_argument("--format", choices=("text", "json"), default="text")
    cmp_p.add_argument("--emit")
    cmp_p.set_defaults(func=_cmd_compare)

    synth = sub.add_parser("synth", help="refinement-simulating weight synthesis")
    synth.add_argument("--graph", required=True)
    synth.add_argument("--target", choices=("gnn-minus", "dgnn6"), required=True)
    synth.add_argument("--sigma", choices=("relu", "sign"), required=True)
    synth.add_argument("--rounds", type=_round_count, required=True)
    synth.add_argument("--p", help="trade-off parameter for gnn-minus (scalar text)")
    synth.add_argument("--uniform-q", action="store_true")
    synth.add_argument("--format", choices=("text", "json"), default="text")
    synth.add_argument("--emit")
    synth.set_defaults(func=_cmd_synth)

    cases = sub.add_parser("cases", help="case claims")
    cases_sub = cases.add_subparsers(dest="cases_command", required=True)
    verify = cases_sub.add_parser("verify", help="verify a case claim")
    verify.add_argument("--case", required=True, choices=CASE_IDS)
    verify.add_argument("--trials", type=_count(1, "a positive trial count"), default=100)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--emit")
    verify.set_defaults(func=_cmd_cases)
    listing = cases_sub.add_parser("list", help="list case ids")
    listing.set_defaults(func=_cmd_cases)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, GraphFormatError, SpecValidationError, DimensionError, LimitError) as exc:
        # a spec the input describes can break its family's contract or fail
        # to chain with the graph's label width only when run_mpnn runs it,
        # and an input can drive a computation past a size limit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:  # the program failed, not the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script target
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
