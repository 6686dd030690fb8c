"""Exact message-passing execution and the built-in network families.

A network is a declarative MpnnSpec: a round count, an f-mode (``zero``
erases degree information, ``degree`` passes endpoint degrees to every
message), and one layer per round.  Layers are either a builtin family with
exact parameters or custom message/update closures.  Execution runs
entirely in the surd field and records, per round, the label rows (a plain
tuple of rows, one per vertex) and the partition they induce.

Every builtin family is one closed form

    sigma(L W1 + diag(g) (A + pI) diag(h) L W2 + B)

with degree-determined positive g and h.  FAMILIES lists, per family, the
parameters it requires and may take and the p, g and h it fixes: gnn is the
case g = h = 1, p = 0, and gnn-minus g = h = 1, W1 = 0, B = -q.  The spec
reader and writer name the fields from the same table.  Making a
BuiltinLayer checks its family contract and the shapes of its weights and
bias, and resolves its LayerForm, which every evaluator reads; only the
incoming label width and the degree values wait for run_mpnn.
Both refusals name the layer (``layer i: ...``) when it comes from a spec
file.  run_mpnn evaluates a builtin round in that form once per refinement
key: a vertex's row depends only on its WL signature over (class, degree),
its own with the multiset of its neighbours', the degrees dropping out when
g and h are both 1, so the keys are the classes of one ``wl.wl_step``.

One function, ``propagate``, evaluates g(d_v) (p hy_v + sum of hy_u over
v's neighbours) + x_v W1 + B at a list of keys, in one of two arithmetics:
the surd field (SURD), and integer bounds lo <= y * 2**B <= hi of every
value (BoundArithmetic).  It computes x W2 and x W1 once per class id (rows
of one class are equal), h L W2 once per (class, degree), and only for the
classes that the keys and their neighbours read.  In the surd field a row
is unreduced, integer numerators keyed by (column, radicand) over one
denominator: sums, scalings and products by integer weights take no gcd,
a product by any other weight is row_mat on the class's exact row, and
each emitted entry is reduced once.  A relu or ``none`` round runs it
once, in the surd field.  A sign round needs only the sign of each entry:
it runs it on bounds at 64, 128 and then 256 bits, each pass on the keys
the last one left open, and in the surd field on those still open.  The
synthesizer's pre-weight rows come from the same function, settled with
``none``.  Nothing in a builtin round hashes a scalar: the keys are class
ids and degrees, and partitions key label rows by the canonical integers
of their entries (``linalg.unique_rows``).  Custom layers run edge by
edge: each vertex sums its messages over its neighbourhood and applies the
update; int and Fraction entries of messages and updates become
ExactScalar, as graph labels do, and entries of any other type are refused.

lift_plus_one replays a network a round late on labels ending in the
vertex degree.  A lifted builtin layer is a record of the layer and its lift
depth k, and run_mpnn always evaluates it in the closed form, at any depth,
after checking that the label's last k components are the vertex degrees;
other labels are refused with the layer's ``layer i: `` prefix.  Its round
runs on the classes of the inner rows, the full label's classes merged where
they differ only in the degree columns, so it multiplies no more rows than
the unlifted round.  The only per-edge views of a builtin layer are the
message/update pair of builtin_layer and the anonymized layers of
anonymize_h_const, both built from one term set of the closed form, made
once per layer: x W2 and x W1 once per distinct label, the self term x W1 +
p g(d) h(d) x W2, and a finishing step that adds B, sums each entry once and
activates.  Degree-aware messages carry the self term scaled by 1/d_v, once
per (label, degree), so the d_v messages add it back exactly once.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .graphs import Label, LabelledGraph, Partition, partition_of
from .linalg import Matrix, Row, matrix_from_text, matrix_to_text, row_add, row_mat, row_scale, unique_rows
from .surd import MINUS_ONE, ONE, ZERO, ExactScalar, InputError, activate, enclosure, exact_sum, inv_sqrt, parse_scalar
from .surd import from_numerators, numerators, reciprocal
from .wl import check_round_limit, wl_step

MsgFn = Callable[[Label, Label, int, int], Label]
UpdFn = Callable[[Label, Label], Label]


class SpecValidationError(InputError):
    """A network description violates its family's contract."""


class DimensionError(InputError):
    """Matrix or label widths do not chain."""


# -- degree-determined scalar functions ---------------------------------------


# the plain kinds of DegreeFn: name -> value at degree d
_PLAIN_KINDS: dict[str, Callable[[int], ExactScalar]] = {
    "one": lambda d: ONE,
    "inv_d": reciprocal,
    "inv_sqrt_d": inv_sqrt,
    "inv_1pd": lambda d: reciprocal(1 + d),
    "inv_sqrt_1pd": lambda d: inv_sqrt(1 + d),
}


@dataclass(frozen=True)
class DegreeFn:
    """A positive scalar function of the vertex degree, exact on every degree.

    Named kinds keep specs serializable: those of _PLAIN_KINDS, ``table``
    (positive values per degree) and ``blend_inv_sqrt``, (r + (1-r)d)**(-1/2)
    for a rational r in (0, 1], so values stay inside the surd field.  Making
    one makes r and the table values ExactScalar, sorts the table by degree
    and refuses any other kind, a missing r or table, a table degree that is
    not a positive int and any other r or table value, and ``value`` and
    ``on`` refuse a degree the table lacks or whose radicand has a prime
    factor above MAX_RADICAND_PRIME, each with a SpecValidationError.
    """

    kind: str
    r: ExactScalar | None = None
    table: tuple[tuple[int, ExactScalar], ...] | None = None

    def __post_init__(self):
        if self.kind == "blend_inv_sqrt":
            _require(self.r is not None, "degree function blend_inv_sqrt needs a blend parameter r")
            object.__setattr__(self, "r", _exact_value(self.r, "degree function blend_inv_sqrt: r"))
            _require(self.r.is_rational, "blend parameter r must be rational to stay in the surd field")
            _require(ZERO < self.r <= ONE, "blend parameter r must satisfy 0 < r <= 1")
        elif self.kind == "table":
            _require(self.table is not None, "degree function table needs a table of values")
            for d, _ in self.table:
                _require(type(d) is int and d >= 1, f"degree function table: degree {d!r} is not a positive int")
            values = ((d, _exact_value(v, f"degree function table at degree {d}: value")) for d, v in self.table)
            object.__setattr__(self, "table", tuple(sorted(values)))
            for d, v in self.table:
                if v.sign() <= 0:
                    raise SpecValidationError(f"{self.descriptor()}: value {v.to_text()} at degree {d} is not positive")
        elif self.kind not in _PLAIN_KINDS:
            raise SpecValidationError(f"unknown degree function kind {self.kind!r}")

    @staticmethod
    def blend_inv_sqrt(r: ExactScalar) -> "DegreeFn":
        return DegreeFn("blend_inv_sqrt", r=r)

    @staticmethod
    def from_table(values: dict[int, ExactScalar]) -> "DegreeFn":
        return DegreeFn("table", table=tuple(values.items()))

    def value(self, degree: int) -> ExactScalar:
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        try:
            if self.kind == "blend_inv_sqrt":
                # r + (1-r)d = (a + (b-a)d)/b for r = a/b
                a, b = self.r.as_fraction().as_integer_ratio()
                return inv_sqrt(a + (b - a) * degree, b)
            if self.kind == "table":
                for d, v in self.table:
                    if d == degree:
                        return v
                raise ValueError("missing from the table")
            return _PLAIN_KINDS[self.kind](degree)
        except ValueError as exc:  # a prime factor above MAX_RADICAND_PRIME, or no entry
            raise SpecValidationError(f"{self.descriptor()} at degree {degree}: {exc}") from exc

    def on(self, degrees: Iterable[int]) -> dict[int, ExactScalar] | None:
        """The value at each distinct degree, or None when it is 1 on all of them."""
        if self.kind == "one":
            return None
        table = {d: self.value(d) for d in set(degrees)}
        return None if all(v == ONE for v in table.values()) else table

    @property
    def is_one(self) -> bool:
        """1 at every degree: kind one, a table of ones, or blend_inv_sqrt(1) = (1 + 0 d)**(-1/2)."""
        if self.kind == "table":
            return all(v == ONE for _, v in self.table)
        return self.kind == "one" or self.kind == "blend_inv_sqrt" and self.r == ONE

    def descriptor(self) -> str:
        if self.kind == "blend_inv_sqrt":
            return f"blend_inv_sqrt({self.r.to_text()})"
        if self.kind == "table":
            return "table(" + "; ".join(f"{d}:{v.to_text()}" for d, v in self.table) + ")"
        return self.kind


def degree_fn_from_name(name: str) -> DegreeFn:
    if name in _PLAIN_KINDS:
        return DegreeFn(name)
    if name.startswith("blend_inv_sqrt(") and name.endswith(")"):
        return DegreeFn.blend_inv_sqrt(parse_scalar(name[len("blend_inv_sqrt(") : -1]))
    if name.startswith("table(") and name.endswith(")"):
        return _parse_table(name)
    raise SpecValidationError(f"unknown degree function {name!r}")


def _parse_table(name: str) -> DegreeFn:
    """Inverse of ``DegreeFn.descriptor`` for tables: ``table(1:1; 2:1/2)``."""
    values: dict[int, ExactScalar] = {}
    body = name[len("table(") : -1].strip()
    for entry in body.split(";") if body else ():
        degree, sep, value = entry.partition(":")
        try:
            if not sep:
                raise ValueError("expected degree:value")
            d = int(degree)
            if d in values:
                raise ValueError(f"degree {d} repeats")
            values[d] = parse_scalar(value)
        except ValueError as exc:
            raise SpecValidationError(f"bad entry {entry.strip()!r} in degree function {name!r}: {exc}") from exc
    return DegreeFn.from_table(values)


def _exact_value(x, what: str) -> ExactScalar:
    """x made ExactScalar as make_graph makes labels; another type raises,
    naming it after what."""
    try:
        return ExactScalar(x)
    except TypeError:
        raise SpecValidationError(f"{what} {x!r} is a {type(x).__name__}, not an exact scalar") from None


# -- layer descriptors ---------------------------------------------------------


@dataclass(frozen=True)
class LayerParams:
    w1: Matrix | None = None
    w2: Matrix | None = None
    bias: Row | None = None
    p: ExactScalar | None = None
    q: ExactScalar | None = None
    r: ExactScalar | None = None
    sigma: str = "relu"
    g_fn: DegreeFn | None = None
    h_fn: DegreeFn | None = None


class LayerForm(NamedTuple):
    """A builtin layer's closed form; w1 and bias are None where it has no such term."""

    w1: Matrix | None
    w2: Matrix
    bias: Row | None
    p: ExactScalar
    g: DegreeFn
    h: DegreeFn
    sigma: str


@dataclass(frozen=True)
class BuiltinLayer:
    """A layer of a family of FAMILIES.  Making one checks the parameters
    against the family's row, naming each field as a spec file does, makes
    their entries ExactScalar as make_graph makes labels, refuses ragged
    weights, a weight with rows but no columns, W1 and W2 of different
    output widths and a bias of another width (DimensionError) and resolves
    them into ``form``; the incoming width and degrees wait for run_mpnn."""

    family: str
    params: LayerParams
    form: LayerForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        family, params = self.family, self.params
        _require(params.sigma in ("relu", "sign", "none"), f"unknown activation {params.sigma!r}")
        _require(family in FAMILIES, f"unknown family {family!r}")
        row = FAMILIES[family]
        exact = {}
        for attr, name in _JSON_NAMES[family].items():
            value = getattr(params, attr)
            if (value is None) == (attr in row.requires) and attr not in row.takes:  # missing, or not taken
                raise SpecValidationError(f"{family} requires {name}" if value is None else _not_taken(family, name))
            if value is not None and attr not in ("g_fn", "h_fn"):
                make = _exact_matrix if attr in ("w1", "w2") else _exact_row if attr == "bias" else _exact_value
                if (made := make(value, f"{family} {name}")) is not value:
                    exact[attr] = made
        if exact:
            params = replace(params, **exact)
            object.__setattr__(self, "params", params)
        for name, v in (("r", params.r), ("p", params.p), ("q", params.q)):  # r in (0, 1], p and q in [0, 1]
            if v is not None and not ((v.sign() > 0 if name == "r" else v.sign() >= 0) and (v - ONE).sign() <= 0):
                raise SpecValidationError(f"{name} = {v} outside the allowed unit-interval range")
        out_widths = set()
        for attr, name in (("w1", "W1"), ("w2", _JSON_NAMES[family]["w2"])):
            if m := getattr(params, attr):  # a weight without rows is left to run_mpnn's width check
                if not m[0]:
                    raise DimensionError(f"{family} {name} has no columns, so its output width is 0")
                out_widths.add(len(m[0]))
        if len(out_widths) > 1:
            raise DimensionError(f"{family} weight matrices disagree on output width: {out_widths}")
        if params.bias is not None and out_widths and len(params.bias) not in out_widths:
            raise DimensionError(f"{family} bias width {len(params.bias)} does not match output")
        if family == "dgnn6":
            g = h = DegreeFn.blend_inv_sqrt(params.r)
        else:
            g, h = row.g or params.g_fn, row.h or params.h_fn
        w1 = params.w2 if family == "dgnn5" else params.w1
        bias = params.bias
        if family == "gnn-minus":
            bias = (-params.q,) * (len(params.w2[0]) if params.w2 else 0)
        p = params.p if row.p is None else row.p
        object.__setattr__(self, "form", LayerForm(w1, params.w2, bias, p, g, h, params.sigma))


@dataclass(frozen=True)
class CustomLayer:
    """Closure-defined layer.  Closures may carry state (the encoded
    refinement caches the labels it injects); the engine guarantees all of a
    round's messages are computed before any update runs."""

    msg: MsgFn
    upd: UpdFn


@dataclass(frozen=True)
class _LiftedBuiltin:
    """A builtin layer replayed depth rounds late by lift_plus_one, on labels
    whose last depth components are the vertex degrees, which it carries
    forward; run_mpnn evaluates it in the closed form."""

    builtin: BuiltinLayer
    depth: int = 1


Layer = BuiltinLayer | _LiftedBuiltin | CustomLayer


@dataclass(frozen=True)
class MpnnSpec:
    f_mode: str
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if self.f_mode not in ("zero", "degree"):
            raise SpecValidationError(f"f_mode must be 'zero' or 'degree', got {self.f_mode!r}")
        if not self.layers:
            raise SpecValidationError("a network needs at least one round")
        if self.f_mode == "zero":
            for layer in self.layers:
                if isinstance(layer, BuiltinLayer) and layer.family in DEGREE_FAMILIES:
                    raise SpecValidationError(f"family {layer.family!r} uses degree information but f_mode is 'zero'")

    @property
    def rounds(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class RunTrace:
    """The label rows of each round, labellings[0] the graph's, and their partitions."""

    labellings: tuple[tuple[Label, ...], ...]
    partitions: tuple[Partition, ...]

    @property
    def rounds(self) -> int:
        return len(self.labellings) - 1

    def to_json(self) -> dict:
        return {
            "rounds": [list(p.class_of) for p in self.partitions],
            "labels": [[[x.to_text() for x in row] for row in rows] for rows in self.labellings],
        }


class Family(NamedTuple):
    """A family's contract: the LayerParams fields besides sigma that it
    requires and those it may take, and the p, g and h it fixes (None
    leaves them to the parameters)."""

    requires: tuple[str, ...]
    takes: tuple[str, ...]
    p: ExactScalar | None
    g: DegreeFn | None
    h: DegreeFn | None


# Every family is sigma(L W1 + diag(g)(A + pI)diag(h) L W2 + B).  Three rules
# are not in the table: dgnn5 ties W1 to W2, gnn-minus's B is -q in every
# entry, and dgnn6's g = h is blend_inv_sqrt(r).
FAMILIES = {
    "gnn": Family(("w1", "w2"), ("bias",), ZERO, DegreeFn("one"), DegreeFn("one")),
    "gnn-minus": Family(("w2", "p", "q"), (), None, DegreeFn("one"), DegreeFn("one")),
    "gcn-kipf": Family(("w2",), (), ONE, DegreeFn("inv_sqrt_1pd"), DegreeFn("inv_sqrt_1pd")),
    "dgnn1": Family(("w2",), ("bias",), ZERO, DegreeFn("inv_d"), DegreeFn("one")),
    "dgnn2": Family(("w2",), ("bias",), ZERO, DegreeFn("inv_sqrt_d"), DegreeFn("inv_sqrt_d")),
    "dgnn3": Family(("w2",), ("bias",), ONE, DegreeFn("inv_1pd"), DegreeFn("one")),
    "dgnn4": Family(("w2",), ("bias",), ONE, DegreeFn("inv_sqrt_1pd"), DegreeFn("inv_sqrt_1pd")),
    "dgnn5": Family(("w2",), ("bias",), ZERO, DegreeFn("inv_sqrt_d"), DegreeFn("inv_sqrt_d")),
    "dgnn6": Family(("w2", "r", "p"), ("bias",), None, None, None),
    "general-dgnn": Family(("w2", "p", "g_fn", "h_fn"), ("w1", "bias"), None, None, None),
}

# the families whose g or h depends on the degree
DEGREE_FAMILIES = frozenset(f for f, row in FAMILIES.items() if (row.g, row.h) != (DegreeFn("one"), DegreeFn("one")))


# per family, LayerParams field -> its name in a JSON layer; the weight W2
# is named W in the families that take no self weight W1
_JSON_NAMES = {
    family: {"w1": "W1", "w2": "W2" if "w1" in row.requires + row.takes else "W"}
    | {"bias": "bias", "p": "p", "q": "q", "r": "r", "g_fn": "g", "h_fn": "h"}
    for family, row in FAMILIES.items()
}


def _not_taken(family: str, name: str) -> str:
    return f"{family} does not take {name} (a {family} layer has no {name} field)"


def _require(condition: bool, message: str):
    if not condition:
        raise SpecValidationError(message)


def _layer_terms(form: LayerForm):
    """The terms every per-edge view of one builtin layer is built from.

    Returns (xw2, own, finish): xw2(y) is y W2, once per distinct y; own(x,
    d) is the self term x W1 + p g(d) h(d) x W2, or None when the layer has
    no self term; finish(*rows) adds B, sums each entry as one exact_sum and
    applies sigma.
    """
    xw2 = cache(lambda y: row_mat(y, form.w2))
    tail = () if form.bias is None else (form.bias,)

    def finish(*rows: Row) -> Label:
        rows += tail
        pre = rows[0] if len(rows) == 1 else map(exact_sum, zip(*rows, strict=True))
        return tuple(activate(v, form.sigma) for v in pre)

    if form.w1 is None and form.p.is_zero:
        return xw2, None, finish
    xw1 = None if form.w1 is None else cache(lambda x: row_mat(x, form.w1))
    self_factor = cache(lambda d: form.p * form.g.value(d) * form.h.value(d))

    def own(x: Label, d: int) -> Row:
        out = None if xw1 is None else xw1(x)
        if not form.p.is_zero:
            scaled = row_scale(xw2(x), self_factor(d))
            out = scaled if out is None else row_add(out, scaled)
        return out

    return xw2, own, finish


def builtin_layer(family: str, params: LayerParams) -> tuple[MsgFn, UpdFn]:
    """Per-edge message/update pair for a builtin family, the reference the
    closed form that run_mpnn evaluates is tested against.  gnn and gnn-minus
    send y W2 and add the self term in the update (g = h = 1, so any degree
    will do).  The degree families send g(d_v) h(d_u) y W2 plus the self term
    scaled by 1/d_v, so the d_v messages add it back exactly once; the
    update finishes.
    """
    form = BuiltinLayer(family, params).form
    xw2, own, finish = _layer_terms(form)
    if family not in DEGREE_FAMILIES:

        def msg(x, y, fv, fu):
            return xw2(y)

        def upd(x, m):
            return finish(m) if own is None else finish(m, own(x, 1))

        return msg, upd

    pair_factor = cache(lambda dv, du: form.g.value(dv) * form.h.value(du))
    own_share = cache(lambda x, dv: row_scale(own(x, dv), reciprocal(dv)))

    def msg(x, y, dv, du):
        if dv < 1 or du < 1:
            raise SpecValidationError("degree-aware family run without degree information")
        neighbour = row_scale(xw2(y), pair_factor(dv, du))
        return neighbour if own is None else row_add(own_share(x, dv), neighbour)

    def upd(x, m):
        return finish(m)

    return msg, upd


def _check_builtin_dims(layer: BuiltinLayer, width: int) -> None:
    """Refuse weights that do not take labels of this width, the one shape
    fact that depends on the graph (BuiltinLayer checks the others); a
    weight is named as its spec field is."""
    for attr in ("w1", "w2"):
        m = getattr(layer.params, attr)
        if m is not None and len(m) != width:
            name = _JSON_NAMES[layer.family][attr]
            raise DimensionError(f"{layer.family} {name} has {len(m)} rows but incoming labels have width {width}")


class SurdArithmetic:
    """``propagate`` in the surd field, on unreduced rows.

    A row is (den, num, width): integer numerators num keyed by (column,
    radicand) over one positive denominator den, neither in lowest terms,
    and num may hold zeros.  Lifting puts a row's entries over the lcm of
    their denominators, a sum adds numerators over the lcm of its rows'
    denominators, and a product by a scalar (g, h or p) multiplies the
    numerators term by term and the denominators, so none of them takes a
    gcd.  A product by a weight whose entries are all integers runs in the
    same form and keeps the denominator; by any other weight it is linalg's
    row_mat, looked up on each use, on the exact row, lifted after.
    ``settle`` makes each entry a value with one gcd and activates it.
    """

    def lift(self, values: Sequence[ExactScalar]) -> tuple[int, dict[tuple[int, int], int], int]:
        parts = list(map(numerators, values))
        den = math.lcm(*[d for d, _ in parts])
        out = {}
        for j, (d, num) in enumerate(parts):
            s = den // d
            for r, c in num.items():
                out[j, r] = c * s
        return den, out, len(parts)

    scalar = staticmethod(numerators)

    def times(self, w: Matrix) -> Callable[[Row], tuple]:
        """The product by w of an exact row, lifted."""
        lift, terms = self.lift, _integer_terms(w)
        if terms is None:
            return lambda x: lift(row_mat(x, w))
        width = len(w[0])

        def product(x):
            den, num, _ = lift(x)
            out = {}
            get = out.get
            for (j, r), c in num.items():
                for k, wk in terms[j]:
                    key = k, r
                    out[key] = get(key, 0) + c * wk
            return den, out, width

        return product

    def scale(self, row, s):
        (den, num, width), (s_den, s_num) = row, s
        if len(s_num) == 1 and 1 in s_num:
            k = s_num[1]
            return den * s_den, num if k == 1 else {key: c * k for key, c in num.items()}, width
        out = {}
        get, gcd = out.get, math.gcd
        for (j, r), c in num.items():
            for rs, cs in s_num.items():
                if r == 1 or rs == 1:
                    key, t = (j, r * rs), c * cs
                elif r == rs:
                    key, t = (j, 1), c * cs * r
                else:
                    g = gcd(r, rs)
                    key, t = (j, (r // g) * (rs // g)), c * cs * g
                out[key] = get(key, 0) + t
        return den * s_den, out, width

    def sum(self, rows: list) -> tuple:
        den, out = math.lcm(*{d for d, _, _ in rows}), {}
        get = out.get
        for d, num, _ in rows:
            s = den // d
            for key, c in num.items():
                out[key] = get(key, 0) + c * s
        return den, out, rows[0][2]

    def settle(self, pre: list, sigma: str) -> list[Label]:
        out = []
        for den, num, width in pre:
            columns = [{} for _ in range(width)]
            for (j, r), c in num.items():
                columns[j][r] = c
            out.append(tuple(activate(from_numerators(den, column), sigma) for column in columns))
        return out


SURD = SurdArithmetic()


def _integer_terms(w: Matrix) -> list[list[tuple[int, int]]] | None:
    """Per row of w, the (column, entry) of its nonzero entries as ints;
    None when an entry is not an integer."""
    try:
        return [[(k, x.as_int()) for k, x in enumerate(row) if x] for row in w]
    except ValueError:
        return None


class BoundArithmetic:
    """``propagate`` on integer bounds lo <= y * 2**bits <= hi of every value
    y (``surd.enclosure``): a row is the list of its entries' (lo, hi).
    Sums add the bounds.  A product by a matrix sums the least and the
    greatest corner products of its terms, and a product by a nonnegative
    scalar (g, h or p) takes one corner per bound; both floor the lower and
    ceil the upper bounds over 2**bits."""

    def __init__(self, bits: int):
        self.bits, self.roots = bits, {}

    def lift(self, values: Iterable[ExactScalar]) -> list[tuple[int, int]]:
        return [enclosure(x, self.bits, self.roots) for x in values]

    def scalar(self, x: ExactScalar) -> tuple[int, int]:
        return enclosure(x, self.bits, self.roots)

    def times(self, w: Matrix) -> Callable[[Row], list[tuple[int, int]]]:
        """The product by w of an exact row, lifted first.  An exact entry
        of the row (lo = hi) has two corners, and an exact 0 none."""
        lift, bits = self.lift, self.bits
        w = list(map(lift, w))

        def product(x):
            los, his = [0] * len(w[0]), [0] * len(w[0])
            for (a0, a1), row in zip(lift(x), w):
                if a0 != a1:
                    for j, (b0, b1) in enumerate(row):
                        ends = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
                        los[j] += min(ends)
                        his[j] += max(ends)
                elif a0:
                    for j, (b0, b1) in enumerate(row):
                        lo, hi = (a0 * b0, a0 * b1) if a0 > 0 else (a0 * b1, a0 * b0)
                        los[j] += lo
                        his[j] += hi
            return [(lo >> bits, -(-hi >> bits)) for lo, hi in zip(los, his)]

        return product

    def scale(self, row, s):
        """s = (s0, s1) with s0 >= 0: a lower bound l takes s0 when l >= 0, else s1."""
        (s0, s1), bits = s, self.bits
        return [(lo * (s0 if lo >= 0 else s1) >> bits, -(-hi * (s1 if hi >= 0 else s0) >> bits)) for lo, hi in row]

    def sum(self, rows):
        return [tuple(map(sum, zip(*column))) for column in zip(*rows)]

    def settle(self, pre, sigma: str) -> list[Label | None]:
        """Each row's signs when the bounds decide every entry, else None:
        +1 when lo > 0, -1 when hi < 0 and 0 when lo = hi = 0, the only
        value such bounds admit."""
        out = []
        for row in pre:
            signs = [1 if lo > 0 else -1 if hi < 0 else 0 if lo == hi == 0 else None for lo, hi in row]
            out.append(None if None in signs else tuple((ZERO, ONE, MINUS_ONE)[s] for s in signs))
        return out


def propagate(
    g: LabelledGraph, at: Sequence[int], arith, class_of, class_row, degrees, p, g_of, h_of, w2=None, w1=None, bias=None
) -> list:
    """Row g(d_v) (p hy_v + sum of hy_u over v's neighbours u) + x_v W1 + B
    for each vertex v of at, in arith (SURD or a BoundArithmetic), where
    x_u = class_row[class_of[u - 1]] and hy_u = h(d_u) x_u W2.  g_of and
    h_of map each degree to the value of g and h, None where it is 1 on
    every degree; W2, W1 and B are left out where None.

    Only what the vertices of at and their neighbours read is lifted into
    arith and multiplied: x W2, or x where W2 is None, once per class they
    hold, hy once per (class, degree) they hold, x W1 once per class of at;
    when at is every vertex, those are the classes and (class, degree)
    pairs of the whole graph.  With g one, each entry is one sum of every
    term; else of the g-scaled sum, x_v W1 and B.
    """
    lift, scalar, scale, total = arith.lift, arith.scalar, arith.scale, arith.sum
    around = list(map(g.neighbors, at))
    if len(at) == g.n:
        classes = at_classes = set(class_of)
        held = zip(class_of, degrees)
    else:
        read = set(at).union(*around)
        classes, at_classes = {class_of[u - 1] for u in read}, {class_of[v - 1] for v in at}
        held = ((class_of[u - 1], degrees[u - 1]) for u in read)

    def times(w, classes):
        mul = arith.times(w)
        return {c: mul(class_row[c]) for c in classes}

    xw2 = {c: lift(class_row[c]) for c in classes} if w2 is None else times(w2, classes)
    xw1 = None if w1 is None else xw2 if w1 is w2 else times(w1, at_classes)
    h_at = None if h_of is None else {d: scalar(v) for d, v in h_of.items()}
    g_at = h_at if g_of is h_of else None if g_of is None else {d: scalar(v) for d, v in g_of.items()}
    if h_at is None:
        hy = [xw2.get(c) for c in class_of]
    else:
        hy_at = {(c, d): scale(xw2[c], h_at[d]) for c, d in set(held)}
        hy = [hy_at.get(pair) for pair in zip(class_of, degrees)]
    p_zero, p_at = p.is_zero, None if p.is_zero or p == ONE else scalar(p)
    tail = [] if bias is None else [lift(bias)]
    out = []
    for v, ns in zip(at, around):
        parts = [hy[u - 1] for u in ns]
        if not p_zero:
            parts.append(hy[v - 1] if p_at is None else scale(hy[v - 1], p_at))
        rest = tail if xw1 is None else [xw1[class_of[v - 1]], *tail]
        if g_at is None:
            out.append(total(parts + rest))
        else:
            pre = scale(total(parts), g_at[degrees[v - 1]])
            out.append(total([pre, *rest]) if rest else pre)
    return out


def _closed_form_round(
    g: LabelledGraph, rows: Sequence[Label], form: LayerForm, degrees: Sequence[int], partition: Partition
) -> list[Label]:
    """One builtin round: ``propagate``'s pre-activation rows, activated.

    Rows in one class of partition are equal, so pre_v is a function of v's
    WL signature over its (class, degree), with the degrees left out when g
    and h are 1 on every degree present: the keys are the classes of
    ``wl_step`` from the partition of those values, and pre_v is evaluated
    once per key, at its first vertex.  The g and h tables are computed
    once, one table when g and h are one function, and no label is hashed.

    A relu or none round runs ``propagate`` once, in the surd field.  A
    sign round runs it on bounds at 64, 128 and 256 bits, each pass on the
    keys the last left with an open entry, and then in the surd field on
    the keys still open.
    """
    class_of = partition.class_of
    g_of = form.g.on(degrees)
    h_of = g_of if form.h == form.g else form.h.on(degrees)
    own = partition if g_of is None and h_of is None else Partition.from_keys(list(zip(class_of, degrees)))
    keys = wl_step(g, own)
    reps = [members[0] for members in keys.classes()]
    class_row = dict(zip(class_of, rows))  # class id -> the row its vertices share
    passes = (*map(BoundArithmetic, (64, 128, 256)), SURD) if form.sigma == "sign" else (SURD,)
    out: list[Label | None] = [None] * len(reps)
    todo = range(len(reps))
    for arith in passes:
        at = [reps[i] for i in todo]
        pre = propagate(g, at, arith, class_of, class_row, degrees, form.p, g_of, h_of, form.w2, form.w1, form.bias)
        for i, row in zip(todo, arith.settle(pre, form.sigma)):
            out[i] = row
        todo = [i for i in todo if out[i] is None]
        if not todo:
            break
    return out if len(reps) == g.n else [out[i] for i in keys.class_of]


def _exact_row(row, what: str) -> Label:
    """row with int and Fraction entries made ExactScalar, as make_graph
    makes labels, naming what; a row of ExactScalar entries is returned as it is."""
    for x in row:
        if type(x) is not ExactScalar:
            break
    else:
        return row
    return tuple(_exact_value(x, f"{what} entry") for x in row)


def _exact_matrix(m, what: str) -> Matrix:
    """m with every row made exact by _exact_row, the same object when each
    row already is; rows of unequal widths raise DimensionError."""
    rows = [_exact_row(row, what) for row in m]
    if len(set(map(len, rows))) > 1:
        raise DimensionError(f"{what} has rows of unequal widths")
    return m if all(map(operator.is_, rows, m)) else tuple(rows)


def _per_edge_round(g: LabelledGraph, rows: Sequence[Label], layer: CustomLayer, f_values, round_index: int):
    """One custom round: sum every vertex's messages, each entry one
    exact_sum, then apply the update.  Message and update entries that are
    int or Fraction become ExactScalar; any other type raises, and so do
    updates not of one positive width (DimensionError)."""
    aggregated: list[Label] = []
    msg_width: int | None = None
    message, update = f"round {round_index}: message", f"round {round_index}: update"
    for v in range(1, g.n + 1):
        x = rows[v - 1]
        parts = []
        for u in g.neighbors(v):
            part = layer.msg(x, rows[u - 1], f_values[v - 1], f_values[u - 1])
            part = _exact_row(part, message)
            if msg_width is None:
                msg_width = len(part)
            elif len(part) != msg_width:
                raise DimensionError(f"round {round_index}: message width {len(part)} != {msg_width}")
            parts.append(part)
        aggregated.append(tuple(map(exact_sum, zip(*parts))))
    new_rows = [_exact_row(tuple(layer.upd(x, m)), update) for x, m in zip(rows, aggregated)]
    widths = sorted({len(row) for row in new_rows})
    if widths[0] == 0 or len(widths) > 1:
        raise DimensionError(f"round {round_index}: update widths {widths}, not one positive width")
    return new_rows


def run_mpnn(g: LabelledGraph, spec: MpnnSpec) -> RunTrace:
    """Execute the network on the graph, exactly, recording every round."""
    labels = g.labels
    labellings, partitions = [labels], [partition_of(labels)]
    degrees = g.degrees()
    f_values = degrees if spec.f_mode == "degree" else (0,) * g.n
    degree_row = None  # the degrees as exact scalars, made at the first lifted round
    for round_index, layer in enumerate(spec.layers, start=1):
        if isinstance(layer, CustomLayer):
            new_rows = _per_edge_round(g, labels, layer, f_values, round_index)
        else:
            builtin, depth = (layer.builtin, layer.depth) if isinstance(layer, _LiftedBuiltin) else (layer, 0)
            rows, partition = labels, partitions[-1]
            try:
                if depth:
                    degree_row = degree_row or [ExactScalar(d) for d in degrees]
                    ends = all(x[-depth:] == (d,) * depth for x, d in zip(rows, degree_row))
                    _require(ends, f"lifted {builtin.family} layer: labels must end in {depth} vertex degree column(s)")
                    rows = [x[:-depth] for x in rows]
                    # merge the classes whose labels differ only in the degrees (ids count from 0)
                    inner = unique_rows(list(dict(zip(partition.class_of, rows)).values()))[1]
                    partition = Partition(tuple(inner[c] for c in partition.class_of))
                _check_builtin_dims(builtin, len(rows[0]))
                new_rows = _closed_form_round(g, rows, builtin.form, degrees, partition)
            except (SpecValidationError, DimensionError) as exc:  # name the layer, as spec_from_json does
                raise type(exc)(f"layer {round_index}: {exc}") from exc
            if depth:
                new_rows = [(*row, *x[-depth:]) for row, x in zip(new_rows, labels)]
        labels = tuple(new_rows)
        labellings.append(labels)
        partitions.append(partition_of(labels))
    return RunTrace(tuple(labellings), tuple(partitions))


# -- derived network constructions ---------------------------------------------


def degree_probe_spec() -> MpnnSpec:
    """One anonymous round appending the vertex degree: constant-1 messages,
    update (x, z) -> (x, z)."""

    def msg(x, y, fv, fu):
        return (ONE,)

    def upd(x, m):
        return (*x, m[0])

    return MpnnSpec(f_mode="zero", layers=(CustomLayer(msg=msg, upd=upd),))


def lift_plus_one(spec: MpnnSpec) -> MpnnSpec:
    """Anonymous T+1-round network replaying a degree-aware one a round late.

    Round 1 appends degrees to the labels; round t >= 2 replays round t-1 of
    the original, reading endpoint degrees from the appended component and
    carrying it forward.  The lifted labelling at round t+1 is exactly the
    original round-t labelling extended with the vertex degree.  Anonymous
    networks are accepted too (they are degree-aware networks that ignore
    the degree arguments); their lift carries an unused degree column.  A
    lifted builtin layer, at any lift depth, stays a record of its builtin
    layer, which run_mpnn evaluates in the closed form on labels ending in
    the vertex degrees and refuses on any other labels.
    """
    return MpnnSpec(f_mode="zero", layers=(degree_probe_spec().layers[0], *map(_lifted, spec.layers)))


def _lifted(layer: Layer) -> Layer:
    """layer run on labels ending in the vertex degree, which it carries forward."""
    if isinstance(layer, BuiltinLayer):
        return _LiftedBuiltin(layer)
    if isinstance(layer, _LiftedBuiltin):
        return _LiftedBuiltin(layer.builtin, layer.depth + 1)

    def msg(x, y, fv, fu):
        return layer.msg(x[:-1], y[:-1], x[-1].as_int(), y[-1].as_int())

    def upd(x, m):
        return (*layer.upd(x[:-1], m), x[-1])

    return CustomLayer(msg=msg, upd=upd)


def anonymize_h_const(spec: MpnnSpec) -> MpnnSpec:
    """Rewrite a degree-aware network with h == 1 as an anonymous one.

    The message becomes (y W2, 1); the update recovers the degree from the
    aggregated count and applies the g scaling after aggregation, which
    reproduces the original labels exactly.
    """
    layers: list[Layer] = []
    for layer in spec.layers:
        if not isinstance(layer, BuiltinLayer) or layer.family not in DEGREE_FAMILIES:
            raise SpecValidationError("anonymization handles builtin degree-aware layers only")
        if not layer.form.h.is_one:
            raise SpecValidationError(f"{layer.family} does not have h constantly 1")
        layers.append(_anonymized_layer(layer.form))
    return MpnnSpec(f_mode="zero", layers=tuple(layers))


def _anonymized_layer(form: LayerForm) -> CustomLayer:
    """The message (y W2, 1) counts the degree c; the update finishes
    g(c) times the aggregated y W2 plus the self term own(x, c)."""
    xw2, own, finish = _layer_terms(form)
    g_of = cache(form.g.value)

    def msg(x, y, fv, fu):
        return (*xw2(y), ONE)

    def upd(x, z):
        inner, count = z[:-1], z[-1].as_int()
        scaled = row_scale(inner, g_of(count))
        return finish(scaled) if own is None else finish(scaled, own(x, count))

    return CustomLayer(msg=msg, upd=upd)


def wrap_comb_aggr(
    comb: Callable[[Label, Label], Label],
    aggr_h: Callable[[Label], Label],
    aggr_g: Callable[[Label], Label],
    rounds: int,
) -> MpnnSpec:
    """Combination/aggregation network: message h(y), update comb(x, g(sum))."""

    def msg(x, y, fv, fu):
        return aggr_h(y)

    def upd(x, m):
        return comb(x, aggr_g(m))

    return MpnnSpec(f_mode="zero", layers=tuple(CustomLayer(msg=msg, upd=upd) for _ in range(rounds)))


# -- serialization ---------------------------------------------------------------


_LAYER_FIELDS = ("W", "W1", "W2", "bias", "p", "q", "r", "g", "h")  # besides family and sigma


def _json_text(entry: dict, name: str, index: int) -> str:
    value = entry[name]
    _require(isinstance(value, str), f"layer {index}: {name} must be a string, not {type(value).__name__}")
    return value


def _json_texts(value, what: str) -> list[str]:
    _require(
        isinstance(value, list) and all(isinstance(c, str) for c in value),
        f"{what} must be a list of scalar strings",
    )
    return value


def _json_field(entry: dict, name: str, index: int):
    """The value of the layer field name, its JSON type checked; an error in
    the value names the layer and the field."""
    value = entry[name]
    if name in ("W", "W1", "W2"):
        _require(isinstance(value, list), f"layer {index}: {name} must be a list of rows, not {type(value).__name__}")
        text = [_json_texts(row, f"layer {index}: each row of {name}") for row in value]
        parse = matrix_from_text
    elif name == "bias":
        text = _json_texts(value, f"layer {index}: bias")
        parse = lambda cells: tuple(map(parse_scalar, cells))
    else:
        text = _json_text(entry, name, index)
        parse = degree_fn_from_name if name in ("g", "h") else parse_scalar
    try:
        return parse(text)
    except ValueError as exc:
        raise SpecValidationError(f"layer {index}: {name}: {exc}") from exc


def spec_to_json(spec: MpnnSpec) -> dict:
    layers = []
    for layer in spec.layers:
        if isinstance(layer, _LiftedBuiltin):
            raise SpecValidationError(
                f"a {layer.builtin.family} layer lifted by lift_plus_one (depth {layer.depth}) is not serializable"
            )
        _require(isinstance(layer, BuiltinLayer), "custom layers are not serializable")
        entry: dict = {"family": layer.family, "sigma": layer.params.sigma}
        for attr, name in _JSON_NAMES[layer.family].items():
            value = getattr(layer.params, attr)
            if value is None:
                continue
            if name in ("W", "W1", "W2"):
                entry[name] = matrix_to_text(value)
            elif name == "bias":
                entry[name] = [v.to_text() for v in value]
            else:
                entry[name] = value.descriptor() if name in ("g", "h") else value.to_text()
        layers.append(entry)
    return {"f_mode": spec.f_mode, "rounds": spec.rounds, "layers": layers}


def spec_from_json(data: dict) -> MpnnSpec:
    """The spec of a ``spec_to_json`` object.  More than MAX_ROUNDS layers
    raise LimitError before any layer is read, and a field of the wrong JSON
    type raises SpecValidationError first; then so does an unknown field, a
    weight named W where the family takes W1 and W2 or the other way round,
    and a layer that breaks its family's contract, and DimensionError a
    layer whose weights and bias do not fit together, each naming its layer
    as run_mpnn does."""
    _require(isinstance(data, dict), "a network spec must be a JSON object")
    _require(isinstance(data.get("layers"), list), "a network spec needs a list of layers")
    check_round_limit(len(data["layers"]))
    layers = []
    for index, entry in enumerate(data["layers"], start=1):
        _require(isinstance(entry, dict) and "family" in entry, f"layer {index} has no family")
        family = _json_text(entry, "family", index)
        sigma = _json_text(entry, "sigma", index) if "sigma" in entry else "relu"
        values = {name: _json_field(entry, name, index) for name in _LAYER_FIELDS if name in entry}
        _require(family in FAMILIES, f"layer {index}: unknown family {family!r}")
        fields = {name: attr for attr, name in _JSON_NAMES[family].items()}
        for name in entry:
            if name not in fields and name not in ("family", "sigma"):
                _require(name not in _LAYER_FIELDS, f"layer {index}: {_not_taken(family, name)}")
                raise SpecValidationError(f"layer {index}: unknown field {name!r}")
        params = LayerParams(sigma=sigma, **{fields[name]: value for name, value in values.items()})
        try:
            layers.append(BuiltinLayer(family=family, params=params))
        except (SpecValidationError, DimensionError) as exc:
            raise type(exc)(f"layer {index}: {exc}") from exc
    spec = MpnnSpec(f_mode=data.get("f_mode"), layers=tuple(layers))
    if "rounds" in data:
        rounds = data["rounds"]
        _require(type(rounds) is int, f"rounds must be an integer, not {type(rounds).__name__}")
        _require(rounds == spec.rounds, f"declared rounds {rounds} != {spec.rounds} layers")
    for name in data:
        _require(name in ("f_mode", "rounds", "layers"), f"unknown field {name!r}")
    return spec
