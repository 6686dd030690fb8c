"""Labelled undirected graphs, partitions and the coarseness order.

Vertices are 1-based integers ``1..n``.  Graphs are simple (no self-loops)
and have no isolated vertices; both are rejected at construction time, and
no flag exists to silently drop offenders.  A labelling is a tuple of rows of
ExactScalar, one per vertex, and labellings compare only through the
partitions they induce: one refines another when ``partition_refines`` holds
of their partitions, and two are equivalent when their partitions are equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Sequence

from .linalg import unique_rows
from .surd import ONE, ZERO, ExactScalar, InputError, parse_scalar

Label = tuple[ExactScalar, ...]


class GraphFormatError(InputError):
    """Raised for malformed graph files or invariant violations."""


@dataclass(frozen=True)
class Partition:
    """Dense class ids per vertex, assigned by first occurrence in vertex order."""

    class_of: tuple[int, ...]

    @staticmethod
    def from_keys(keys: Sequence) -> "Partition":
        seen: dict = {}
        return Partition(tuple([seen.setdefault(key, len(seen)) for key in keys]))

    @property
    def n(self) -> int:
        return len(self.class_of)

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0

    def classes(self) -> list[list[int]]:
        """Vertex lists (1-based) per class id."""
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for v, c in enumerate(self.class_of, start=1):
            out[c].append(v)
        return out


@dataclass(frozen=True)
class LabelledGraph:
    """Undirected simple graph with ExactScalar vertex labels.  Making one
    refuses a vertex count or id not of type int (a bool included), turns
    each label entry into an ExactScalar (int and Fraction entries coerce,
    others raise TypeError) and each edge into an ordered pair, then refuses
    a graph that breaks the module's invariants.  Equal label rows, whatever
    the types of their entries, become one shared row: the rows are grouped
    by ``linalg.unique_rows`` and each distinct row is converted once, so a
    one-hot graph holds one row per label, not n rows of fresh scalars."""

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[Label, ...]

    def __post_init__(self):
        if type(self.n) is not int:
            raise GraphFormatError(f"vertex count {self.n!r} is a {type(self.n).__name__}, not an int")
        for u, v in self.edges:
            if type(u) is not int or type(v) is not int:
                raise GraphFormatError(f"edge ({u!r}, {v!r}): vertex ids must be of type int")
        distinct, index = unique_rows(self.labels)
        rows = [tuple(map(ExactScalar, row)) for row in distinct]
        object.__setattr__(self, "labels", tuple([rows[i] for i in index]))
        object.__setattr__(self, "edges", frozenset((min(u, v), max(u, v)) for u, v in self.edges))
        if self.n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        if len(self.labels) != self.n:
            raise GraphFormatError(f"expected {self.n} label rows, got {len(self.labels)}")
        width = len(self.labels[0])
        if width < 1 or any(len(row) != width for row in self.labels):
            raise GraphFormatError("label rows must share a positive width")
        touched = set()
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphFormatError(f"edge ({u},{v}) references a vertex outside 1..{self.n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            touched.add(u)
            touched.add(v)
        isolated = sorted(set(range(1, self.n + 1)) - touched)
        if isolated:
            raise GraphFormatError(f"isolated vertices are not allowed: {isolated}")

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u - 1].append(v)
            out[v - 1].append(u)
        return tuple(tuple(sorted(ns)) for ns in out)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._neighbors[v - 1]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._neighbors[v - 1])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self._neighbors[v]) for v in range(self.n))

    def label_of(self, v: int) -> Label:
        self._check_vertex(v)
        return self.labels[v - 1]

    @property
    def label_dim(self) -> int:
        return len(self.labels[0])

    def _check_vertex(self, v: int):
        if not (1 <= v <= self.n):
            raise GraphFormatError(f"vertex {v} out of range 1..{self.n}")


make_graph = LabelledGraph  # make_graph(n, edges, labels) makes and checks a graph


def parse_graph(text: str) -> LabelledGraph:
    """Parse the graph file format.

    ``#`` starts a comment line, ``n <count>`` appears once, each vertex has
    one ``v <id> <width>: <scalar>, <scalar>, ...`` line and each edge one
    ``e <u> <v>`` line.  Scalars use the exact_field text syntax.
    """
    n: int | None = None
    labels: dict[int, Label] = {}
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind = line.split(None, 1)[0]
        if kind == "n":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate n line")
            try:
                n = int(line.split()[1])
            except (IndexError, ValueError) as exc:
                raise GraphFormatError(f"line {lineno}: malformed n line") from exc
        elif kind == "v":
            head, _, tail = line.partition(":")
            parts = head.split()
            if len(parts) != 3 or not tail.strip():
                raise GraphFormatError(f"line {lineno}: malformed vertex line")
            try:
                vid, width = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: malformed vertex line") from exc
            if vid in labels:
                raise GraphFormatError(f"line {lineno}: duplicate vertex {vid}")
            try:
                row = tuple(parse_scalar(cell) for cell in tail.split(","))
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from exc
            if len(row) != width:
                raise GraphFormatError(
                    f"line {lineno}: vertex {vid} declares width {width} but lists {len(row)} scalars"
                )
            labels[vid] = row
        elif kind == "e":
            parts = line.split()
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: malformed edge line") from exc
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge {key}")
            seen_edges.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {kind!r}")
    if n is None:
        raise GraphFormatError("missing n line")
    extra = sorted(v for v in labels if not 1 <= v <= n)
    missing = n - len(labels) + len(extra)
    if missing > 0:  # name a few: listing them all could take memory by the declared n
        first = islice((v for v in range(1, n + 1) if v not in labels), 3)
        more = ", ..." if missing > 3 else ""
        raise GraphFormatError(f"missing vertex lines for {missing} of {n} vertices: {', '.join(map(str, first))}{more}")
    if extra:
        raise GraphFormatError(f"vertex ids out of range 1..{n}: {extra}")
    rows = tuple(labels[v] for v in range(1, n + 1))
    return LabelledGraph(n=n, edges=edges, labels=rows)


def format_graph(g: LabelledGraph) -> str:
    """Canonical graph file text; parse(format(g)) round-trips bit-exactly."""
    lines = [f"n {g.n}"]
    for v in range(1, g.n + 1):
        row = ", ".join(x.to_text() for x in g.label_of(v))
        lines.append(f"v {v} {g.label_dim}: {row}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


# -- the coarseness order ---------------------------------------------------


def partition_of(rows: Sequence[Label]) -> Partition:
    """The partition by equal label rows, class ids by first occurrence:
    the row index of ``linalg.unique_rows``, which keys each row object
    once by the canonical integers of its entries and hashes no scalar."""
    return Partition(tuple(unique_rows(rows)[1]))


def partition_refines(fine: Partition, coarse: Partition) -> bool:
    """True iff vertices equal under fine are equal under coarse, that is,
    iff ``partition_refines_violation`` finds no witness pair."""
    return partition_refines_violation(fine, coarse) is None


def partition_refines_violation(fine: Partition, coarse: Partition) -> tuple[int, int] | None:
    """First (v, w) in lexicographic order with fine-equal but coarse-distinct rows."""
    if fine.n != coarse.n:
        raise ValueError(f"vertex count mismatch: {fine.n} vs {coarse.n}")
    first_seen: dict[int, int] = {}
    witness = None
    for v, (fc, cc) in enumerate(zip(fine.class_of, coarse.class_of), start=1):
        first = first_seen.setdefault(fc, v)
        if coarse.class_of[first - 1] != cc and (witness is None or (first, v) < witness):
            witness = (first, v)
    return witness


def one_hot_rows(partition: Partition) -> tuple[Label, ...]:
    """Re-encode a partition as one-hot rows (class count columns)."""
    k = partition.num_classes
    return tuple(tuple(ONE if j == c else ZERO for j in range(k)) for c in partition.class_of)
