"""Spans and counters for the traced run, installed from outside the library.

``install()`` replaces each traced public function with a wrapper at every
name a caller looks it up by: ``synthesis`` and ``mpnn`` bind the linalg
functions with ``from .linalg import ...``, ``cli`` and ``cases`` bind the
engine the same way, and the package re-exports most of them, so patching
only the defining module would miss nearly every call.  ``ExactScalar``
operations are patched on the class, ``__rmul__`` and ``__radd__``
separately because they are aliases, not lookups of ``__mul__``/``__add__``.

A span records its name, start, end, parent and job id.  Its self time is
its duration minus its child spans and minus the surd operations run
directly inside it; surd operations are aggregated per enclosing span, not
recorded one span each.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

LINALG = ("rank", "right_inverse", "nullspace_basis", "determinant", "mat_mul", "row_mat", "row_add", "row_scale")
ELIMINATION = ("rank", "right_inverse", "nullspace_basis", "determinant")
ROWOPS = ("row_mat", "row_add", "row_scale")

# (defining module, function name, span name)
TRACED_FUNCTIONS = (
    *(("wlmpnn.linalg", name, f"linalg.{name}") for name in LINALG),
    ("wlmpnn.mpnn", "run_mpnn", "mpnn.run"),
    ("wlmpnn.wl", "wl_step", "wl.step"),
    ("wlmpnn.synthesis", "synthesize_gnn_minus", "synthesis.run"),
    ("wlmpnn.synthesis", "synthesize_dgnn6", "synthesis.run"),
    ("wlmpnn.synthesis", "compute_mp", "synthesis.compute_mp"),
    ("wlmpnn.compare", "weaker", "compare.weaker"),
    ("wlmpnn.cases", "verify_counterexample", "cases.verify"),
    ("wlmpnn.cli", "main", "cli.main"),
)

# ExactScalar method -> counter name; the aliases get their own patch.
SURD_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__pow__": "pow",
    "invert": "invert",
    "sign": "sign",
}

PER_LAYER = (
    ("surd.mul.calls", "count", "lower"),
    ("surd.add.calls", "count", "lower"),
    ("surd.invert.calls", "count", "lower"),
    ("surd.sign.calls", "count", "lower"),
    ("surd.busy_s", "s", "lower"),
    ("surd.max_coeff_bits", "bits", "lower"),
    ("surd.primes", "count", "lower"),
    ("linalg.rank.busy_s", "s", "lower"),
    ("linalg.right_inverse.busy_s", "s", "lower"),
    ("linalg.nullspace_basis.busy_s", "s", "lower"),
    ("linalg.determinant.busy_s", "s", "lower"),
    ("linalg.elim.calls", "count", "lower"),
    ("linalg.elim.max_rows", "count", "lower"),
    ("linalg.mat_mul.busy_s", "s", "lower"),
    ("linalg.rowops.busy_s", "s", "lower"),
    ("mpnn.run.calls", "count", "lower"),
    ("mpnn.run.self_s", "s", "lower"),
    ("mpnn.vertex_rounds", "count", "lower"),
    ("mpnn.edge_messages", "count", "lower"),
    ("wl.step.calls", "count", "lower"),
    ("wl.step.busy_s", "s", "lower"),
    ("wl.shared_frac", "frac", "higher"),
    ("synthesis.run.self_s", "s", "lower"),
    ("synthesis.compute_mp.busy_s", "s", "lower"),
    ("synthesis.rounds", "count", "lower"),
    ("synthesis.repair.projection", "count", "lower"),
    ("synthesis.repair.clamp", "count", "lower"),
    ("synthesis.route.direct", "count", "lower"),
    ("synthesis.equivalent_frac", "frac", "higher"),
    ("compare.weaker.busy_s", "s", "lower"),
    ("cases.verify.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Counters that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "surd.mul.calls", "surd.add.calls", "surd.invert.calls", "surd.sign.calls",
    "surd.max_coeff_bits", "surd.primes", "linalg.elim.calls", "linalg.elim.max_rows",
    "mpnn.run.calls", "mpnn.vertex_rounds", "mpnn.edge_messages", "wl.step.calls",
    "synthesis.rounds", "synthesis.repair.projection", "synthesis.repair.clamp",
    "synthesis.route.direct",
)


class Tracer:
    """In-memory span store plus the counters gathered at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per finished span, in close order
        self.span_name = array("i")
        self.span_parent = array("i")  # index into the open order, -1 for none
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._open: list[list] = []  # [open_id, name_id, start, child_s, surd_s]
        self._opened = 0
        self.open_name = array("i")  # name of each span by open id
        self.job = -1
        self.counts: Counter = Counter()
        self.surd_s = 0.0
        self._in_surd = False
        self.max_bits = 0
        self.max_rows = 0
        self.radicands: set[int] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> list:
        entry = [self._opened, self._name_id(name), 0.0, 0.0, 0.0]
        self.open_name.append(entry[1])
        self._opened += 1
        self._open.append(entry)
        entry[2] = time.perf_counter()
        return entry

    def close(self, entry: list) -> None:
        end = time.perf_counter()
        popped = self._open.pop()
        if popped is not entry:  # pragma: no cover - wrappers always nest
            raise RuntimeError("span closed out of order")
        duration = end - entry[2]
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.span_name.append(entry[1])
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_job.append(self.job)
        self.span_start.append(entry[2])
        self.span_end.append(end)
        self.span_self.append(duration - entry[3] - entry[4])

    def surd_time(self, elapsed: float) -> None:
        self.surd_s += elapsed
        if self._open:
            self._open[-1][4] += elapsed

    def note_scalar(self, value) -> None:
        terms = value.terms
        self.radicands.update(terms)
        for c in terms.values():
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits

    def summary(self) -> dict:
        """This interpreter's raw figures; ``layer_metrics`` combines several."""
        busy: Counter = Counter()
        self_s: Counter = Counter()
        linalg_ids = {self._name_ids[f"linalg.{n}"] for n in LINALG if f"linalg.{n}" in self._name_ids}
        for i in range(len(self.span_name)):
            name = self.names[self.span_name[i]]
            parent = self.span_parent[i]
            if name.startswith("linalg.") and parent >= 0 and self.open_name[parent] in linalg_ids:
                continue  # time already inside the calling linalg entry point
            busy[name] += self.span_end[i] - self.span_start[i]
            self_s[name] += self.span_self[i]
        return {
            "counts": dict(self.counts),
            "busy": dict(busy),
            "self": dict(self_s),
            "surd_s": self.surd_s,
            "max_bits": self.max_bits,
            "max_rows": self.max_rows,
            "primes": sorted(_primes_of(self.radicands)),
        }


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the summaries of every traced interpreter.
    Seconds are scaled by each summary's ``time_factor`` (the worker's
    reference-speed correction, see speed.py) when it has one."""
    c: Counter = Counter()
    busy: Counter = Counter()
    self_s: Counter = Counter()
    for s in summaries:
        k = s.get("time_factor", 1.0)
        c.update(s["counts"])
        busy.update({name: t * k for name, t in s["busy"].items()})
        self_s.update({name: t * k for name, t in s["self"].items()})
    wl_n = c["wl.vertex_rounds"]
    rounds = c["synthesis.rounds"]
    out = {
        "surd.mul.calls": c["surd.mul"],
        "surd.add.calls": c["surd.add"],
        "surd.invert.calls": c["surd.invert"],
        "surd.sign.calls": c["surd.sign"],
        "surd.busy_s": sum(s["surd_s"] * s.get("time_factor", 1.0) for s in summaries),
        "surd.max_coeff_bits": max((s["max_bits"] for s in summaries), default=0),
        "surd.primes": len({p for s in summaries for p in s["primes"]}),
        "linalg.elim.calls": c["linalg.elim.calls"],
        "linalg.elim.max_rows": max((s["max_rows"] for s in summaries), default=0),
        "linalg.rowops.busy_s": sum(busy[f"linalg.{n}"] for n in ROWOPS),
        "mpnn.run.calls": c["mpnn.run.calls"],
        "mpnn.run.self_s": self_s["mpnn.run"],
        "mpnn.vertex_rounds": c["mpnn.vertex_rounds"],
        "mpnn.edge_messages": c["mpnn.edge_messages"],
        "wl.step.calls": c["wl.step.calls"],
        "wl.step.busy_s": busy["wl.step"],
        "wl.shared_frac": 1 - c["wl.classes"] / wl_n if wl_n else 0.0,
        "synthesis.run.self_s": self_s["synthesis.run"],
        "synthesis.compute_mp.busy_s": busy["synthesis.compute_mp"],
        "synthesis.rounds": rounds,
        "synthesis.repair.projection": c["synthesis.repair.projection"],
        "synthesis.repair.clamp": c["synthesis.repair.clamp"],
        "synthesis.route.direct": c["synthesis.route.direct"],
        "synthesis.equivalent_frac": c["synthesis.equivalent"] / rounds if rounds else 0.0,
        "compare.weaker.busy_s": busy["compare.weaker"],
        "cases.verify.busy_s": busy["cases.verify"],
        "cli.main.busy_s": busy["cli.main"],
    }
    for name in ("rank", "right_inverse", "nullspace_basis", "determinant", "mat_mul"):
        out[f"linalg.{name}.busy_s"] = busy[f"linalg.{name}"]
    return out


def _primes_of(radicands: set[int]) -> set[int]:
    primes = set()
    for r in radicands:
        p = 2
        while p * p <= r:
            if r % p == 0:
                primes.add(p)
                r //= p
            p += 1
        if r > 1:
            primes.add(r)
    return primes


def _count_call(tracer: Tracer, span: str, args, result) -> None:
    c = tracer.counts
    if span.startswith("linalg.") and span[len("linalg."):] in ELIMINATION:
        c["linalg.elim.calls"] += 1
        tracer.max_rows = max(tracer.max_rows, len(args[0]))
    elif span == "mpnn.run":
        g, spec = args[0], args[1]
        c["mpnn.run.calls"] += 1
        c["mpnn.vertex_rounds"] += g.n * spec.rounds
        c["mpnn.edge_messages"] += 2 * len(g.edges) * spec.rounds
    elif span == "wl.step":
        c["wl.step.calls"] += 1
        c["wl.vertex_rounds"] += result.n
        c["wl.classes"] += result.num_classes
    elif span == "synthesis.run":
        for r in result.rounds:
            c["synthesis.rounds"] += 1
            c["synthesis.repair.projection"] += r.repair == "projection"
            c["synthesis.repair.clamp"] += r.repair == "clamp"
            c["synthesis.route.direct"] += r.route == "direct"
            c["synthesis.equivalent"] += r.equivalent_to_wl


def _wrap_function(tracer: Tracer, fn, span: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        entry = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(entry)
        _count_call(tracer, span, args, result)
        return result

    return traced


def _wrap_surd(tracer: Tracer, fn, counter: str):
    key = f"surd.{counter}"
    note = counter in ("mul", "invert")
    perf_counter = time.perf_counter

    @functools.wraps(fn)
    def traced(*args):
        tracer.counts[key] += 1
        if tracer._in_surd:  # nested inside another surd operation: count only
            return fn(*args)
        tracer._in_surd = True
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            tracer._in_surd = False
            tracer.surd_time(perf_counter() - start)
        if note:
            tracer.note_scalar(args[0] if counter == "invert" else result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Patch every traced function at each ``wlmpnn`` name bound to it."""
    from wlmpnn.surd import ExactScalar

    modules = [m for name, m in sorted(sys.modules.items()) if name == "wlmpnn" or name.startswith("wlmpnn.")]
    for module_name, attr, span in TRACED_FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap_function(tracer, original, span)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    for method, counter in SURD_METHODS.items():
        setattr(ExactScalar, method, _wrap_surd(tracer, ExactScalar.__dict__[method], counter))
