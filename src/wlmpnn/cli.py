"""Command-line front end.

Subcommands: ``wl run``, ``mpnn run``, ``compare``, ``synth``,
``cases verify``, ``cases list``.  Exit codes: 0 success, 1 a verdict or
verification failed, 2 the input is at fault: argparse's own usage errors,
and every ``surd.InputError`` the library or the reading of a named file
raises.  Any other failure is the program's: it prints
``internal error: ...`` and exits 1.  Graph arguments accept a builtin id
(fig1, g1, g2, g3) or a graph file path.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cases import (
    CASE_IDS,
    GRAPH_IDS,
    NETWORK_NAMES,
    CaseSpec,
    CaseVerificationError,
    builtin_graph,
    named_spec,
    verify_counterexample,
)
from .compare import ShiftSpec, check_shift_rounds, compare_traces, report
from .graphs import LabelledGraph, parse_graph
from .mpnn import MpnnSpec, run_mpnn, spec_from_json
from .surd import InputError, parse_scalar
from .synthesis import SynthesisError, synthesize_dgnn6, synthesize_gnn_minus
from .wl import WlTrace, check_wl_rounds, degree_aware_partitions, wl_partitions, wl_run

# the refinement sides of a comparison: WL, and WL from (label, degree)
_REFINEMENTS = {"wl": wl_partitions, "wl+deg": degree_aware_partitions}


def _read(ref: str, what: str, names: str, as_json: bool = False):
    """The text of the file ref, or the JSON value it holds; a missing or
    unreadable file, undecodable text and invalid JSON are input errors."""
    try:
        text = Path(ref).read_text()
        return json.loads(text) if as_json else text
    except FileNotFoundError as exc:
        raise InputError(f"{what} {ref!r} is neither {names} nor an existing file") from exc
    except (OSError, ValueError) as exc:  # ValueError: UnicodeDecodeError, or json's (int digit limit included)
        raise InputError(str(exc)) from exc


def _load_graph(ref: str) -> LabelledGraph:
    if ref in GRAPH_IDS:
        return builtin_graph(ref)
    return parse_graph(_read(ref, "graph", "a builtin id"))


def _load_spec(ref: str, graph: LabelledGraph, rounds: int, sigma: str) -> MpnnSpec:
    if ref in NETWORK_NAMES:
        return named_spec(ref, graph.label_dim, rounds, sigma)
    return spec_from_json(_read(ref, "spec", "a known family", as_json=True))


def _emit(text: str, path: str | None):
    text = text if text.endswith("\n") else text + "\n"
    if not path:
        print(text, end="")
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _cmd_wl(args) -> int:
    g = _load_graph(args.graph)
    trace = wl_run(g, args.max_rounds)
    if args.format == "json":
        _emit(trace.to_json_text(), args.emit)
    else:
        lines = [f"round {t}: {p.num_classes} classes {list(p.class_of)}" for t, p in enumerate(trace.partitions)]
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
        for t, rows in enumerate(trace.labellings):
            lines.append(f"round {t} ({trace.partitions[t].num_classes} classes):")
            for v, row in enumerate(rows, start=1):
                lines.append(f"  v{v}: {', '.join(x.to_text() for x in row)}")
        _emit("\n".join(lines), args.emit)
    return 0


def _cmd_compare(args) -> int:
    g = _load_graph(args.graph)
    shift = ShiftSpec.from_text(args.shift)
    sides = ((args.left, args.rounds), (args.right, shift.apply(args.rounds)))
    # make both inputs, in order, and check their round counts against the
    # shift before running either: a spec, or refinement's checked round count
    made = [
        check_wl_rounds(rounds) if ref in _REFINEMENTS else _load_spec(ref, g, rounds, args.sigma)
        for ref, rounds in sides
    ]
    check_shift_rounds(*(x.rounds if isinstance(x, MpnnSpec) else x for x in made), shift)
    left, right = (
        run_mpnn(g, x) if isinstance(x, MpnnSpec) else WlTrace(tuple(_REFINEMENTS[ref](g, x)), None)
        for (ref, _), x in zip(sides, made)
    )
    comparison = compare_traces(left, right, shift, args.left, args.right)
    _emit(report([comparison], args.format), args.emit)
    return 0 if comparison.verdict.holds else 1


def _cmd_synth(args) -> int:
    g = _load_graph(args.graph)
    try:
        if args.target == "gnn-minus":
            p = parse_scalar(args.p) if args.p else None
            cert = synthesize_gnn_minus(g, args.rounds, args.sigma, p=p, uniform_q=args.uniform_q)
        else:
            if args.p:
                raise InputError("--p applies to the gnn-minus target only")
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
    wl_runp.add_argument("--max-rounds", type=int, default=None)
    wl_runp.add_argument("--format", choices=("text", "json"), default="text")
    wl_runp.add_argument("--emit")
    wl_runp.set_defaults(func=_cmd_wl)

    mp = sub.add_parser("mpnn", help="message-passing execution")
    mp_sub = mp.add_subparsers(dest="mpnn_command", required=True)
    mp_runp = mp_sub.add_parser("run", help="run a network on a graph")
    mp_runp.add_argument("--graph", required=True)
    mp_runp.add_argument("--spec", required=True, help="family name or spec JSON file")
    mp_runp.add_argument("--rounds", type=int, default=1)
    mp_runp.add_argument("--sigma", choices=("relu", "sign", "none"), default="relu")
    mp_runp.add_argument("--format", choices=("text", "json"), default="text")
    mp_runp.add_argument("--emit")
    mp_runp.set_defaults(func=_cmd_mpnn)

    cmp_p = sub.add_parser("compare", help="distinguishing-power comparison")
    cmp_p.add_argument("--graph", required=True)
    cmp_p.add_argument("--left", required=True, help="family name, spec file, 'wl' or 'wl+deg'")
    cmp_p.add_argument("--right", required=True, help="family name, spec file, 'wl' or 'wl+deg'")
    cmp_p.add_argument("--shift", default="0", help="0, +1 or x<c>")
    cmp_p.add_argument("--rounds", type=int, required=True)
    cmp_p.add_argument("--sigma", choices=("relu", "sign", "none"), default="relu")
    cmp_p.add_argument("--format", choices=("text", "json"), default="text")
    cmp_p.add_argument("--emit")
    cmp_p.set_defaults(func=_cmd_compare)

    synth = sub.add_parser("synth", help="refinement-simulating weight synthesis")
    synth.add_argument("--graph", required=True)
    synth.add_argument("--target", choices=("gnn-minus", "dgnn6"), required=True)
    synth.add_argument("--sigma", choices=("relu", "sign"), required=True)
    synth.add_argument("--rounds", type=int, required=True)
    synth.add_argument("--p", help="trade-off parameter for gnn-minus (scalar text)")
    synth.add_argument("--uniform-q", action="store_true")
    synth.add_argument("--format", choices=("text", "json"), default="text")
    synth.add_argument("--emit")
    synth.set_defaults(func=_cmd_synth)

    cases = sub.add_parser("cases", help="case claims")
    cases_sub = cases.add_subparsers(dest="cases_command", required=True)
    verify = cases_sub.add_parser("verify", help="verify a case claim")
    verify.add_argument("--case", required=True, choices=CASE_IDS)
    verify.add_argument("--trials", type=int, default=100)
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:  # the program failed, not the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script target
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
