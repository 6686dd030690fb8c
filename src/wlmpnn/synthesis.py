"""Constructive weight synthesis simulating colour refinement per round.

Two targets are supported on a fixed input graph:

* ``gnn-minus``: layers sigma((A + pI) L W - q J) with one weight matrix per
  round, any 0 < p < 1, and a per-round threshold q from the separation
  construction.  Every round provably reproduces the refinement partition.

* ``dgnn6``: layers sigma(diag(g) (A + pI) diag(h) L W + B) for positive
  degree-determined g and h.  The trade-off parameter p is chosen above the
  graph- and g-dependent bound m_p so that the g scaling can never merge
  distinct neighbourhood counts.

One round loop serves both: gnn-minus is the degree-normalized form with
g = h = 1 at its given p, which never needs a repair or a shift, so its bias
is -q J.  Each round tests the current unique label rows for independence,
forms the neighbourhood count labelling through (A + pI), separates its
unique rows with a provably non-singular activated matrix, and verifies the
result against the refinement reference (for gnn-minus, also that it took
no repair and no shift).  Verification is mandatory: a failed round raises
SynthesisError with a dump, and no later round is synthesized.  A
certificate is the network plus claims: each round holds its layer, made
once (``gnn-minus`` or ``general-dgnn``), which ``to_spec`` returns and
whose W and bias the JSON writes.

Exact elimination runs only where a certificate needs its result:
independence is first tested on the rows' image modulo a prime, with the
exact rank as the fallback (``linalg.rows_linearly_independent``); the
paper route solves the unique label rows for the few weight columns it
applies (``linalg.solve``) instead of building a right inverse; and the
clamp repair tests each probe column against an exact left kernel of the
class rows, narrowed as columns are added, instead of re-ranking the rows
per probe.

When a label class spans degrees with different h values, the h-scaled
unique rows are linearly dependent, so they cannot be solved for every
weight; the round then takes the direct route on the pre-weight rows.

Each round tries its repair variants (repair, kernel K or None, base rows,
clamp columns) in order through one construction, until the output refines
the reference partition with independent unique rows.  The output starts
with the activated block sigma(C X - q J), where C is the base rows shifted
to positive and X = z x^T is a rank-one separation matrix kept as its two
factors; the block is computed once from the mixed values C z, and skipped
when the base has width 0.  One column sigma(row . w - tau) per clamp
column follows.  The weight is composed once from the columns [y | clamp
directions], with y = z, or K z when the base rows are the pre-weight rows
times K; the paper route solves them back through the unique label rows,
and y is then spread over x_row.  All repairs stay inside the
architecture's weight/bias freedom:

* ``none``: the base rows are the pre-weight rows, with no clamp columns.
* ``projection``: rows that refinement merges can often be merged by
  projecting the difference directions of reference-equal pairs to zero;
  the base rows are the pre-weight rows times that kernel K, and the shift
  (absorbed by the bias) keeps them positive.
* ``clamp``: when the projection would also collapse reference-distinct
  rows, clamp columns follow the projected block, each sending every
  member of a torn reference class into one clamp band while keeping some
  other pair apart; a constant pad column (zero weights, bias 1, output 1)
  ends the list and keeps the class rows linearly independent.

When no repair realizes the reference partition (the class values can be
nested so that every threshold tearing one pair also tears an equal pair),
the round keeps its finer labelling: the refinement bound still holds and
is enforced, and the certificate records the equivalence verdict as false.

The construction needs only order facts: the largest entry of C (for the
base of z), the descending order of the mixed values, the largest ratio
below 1 of consecutive ones, the smallest row entry (for the shift), the
largest candidate of m_p, and the sorted projections of each clamp
candidate.  Each comes from ``surd.exact_max``, ``exact_min`` or
``exact_order``, which compare certified integer enclosures and subtract
exactly only where those overlap.  Activated entries whose sign the exact
order fixes are read off it (``_activated``, ``_find_clamp_column``): the
differences relu keeps are computed without a sign test, and the 0, +1
and -1 entries are not computed at all.  Only a uniform q below the
largest below-1 ratio computes the entries below the order's diagonal and
their signs exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import (
    Label,
    LabelledGraph,
    Partition,
    format_graph,
    one_hot_rows,
    partition_refines,
    partition_refines_violation,
)
from .linalg import (
    Matrix,
    Row,
    as_matrix,
    identity,
    matrix_to_text,
    nullspace_basis,
    row_mat,
    row_scale,
    rows_linearly_independent,
    solve,
    unique_rows,
)
from .mpnn import SURD, BuiltinLayer, DegreeFn, LayerParams, MpnnSpec, propagate
from .surd import MINUS_ONE, ONE, ZERO, ExactScalar, InputError, activate, canonical_key, exact_dot, exact_max
from .surd import exact_min, exact_order, floor_exact
from .wl import check_round_limit, wl_partitions


class SynthesisError(RuntimeError):
    """A verification step that the theory guarantees has failed."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass(frozen=True)
class SeparationResult:
    """Witness that sigma(C X - q J) has non-singular unique rows.

    X = z x_row^T has rank one, so only its two factors are stored.
    permutation orders the mixed values C z descending, x_row holds their
    reciprocals in that order, and below_one is the largest of the ratios
    below 1 of consecutive mixed values (q itself under relu).
    """

    q: ExactScalar
    permutation: tuple[int, ...]
    base: ExactScalar
    z: Row
    x_row: Row
    below_one: ExactScalar


def _check_separation_preconditions(c: Sequence[Row]) -> None:
    if not c:
        raise ValueError("separation needs at least one row")
    if len(unique_rows(c)[0]) < len(c):
        raise ValueError("separation rows must be pairwise distinct")
    for row in c:
        if all(v.is_zero for v in row):
            raise ValueError("separation rows must not be entirely zero")
        for v in row:
            if v.sign() < 0:
                raise ValueError("separation rows must be non-negative")


def _dot(a: Row, b: Row) -> ExactScalar:
    return exact_dot(zip(a, b))


def _mat_vec(m: Matrix, col: Row) -> Row:
    return tuple(_dot(row, col) for row in m)


def _activated(
    mixed: Sequence[ExactScalar],
    order: Sequence[int],
    x_row: Row,
    below_one: ExactScalar,
    q: ExactScalar,
    sigma: str,
) -> Matrix:
    """sigma(C X - q J) from the mixed values C z, for any q < 1: entry (i, j)
    is sigma(mixed_i x_j - q), because (C z x^T)_ij = (c_i . z) x_j.

    order lists the mixed values in descending order and x_j is 1 over the
    j-th of them, so with pos(i) the place of i in order, the ratio mixed_i
    x_j is at least 1 > q when pos(i) <= j: relu keeps mixed_i x_j - q
    without a sign test, and sign gives +1.  When pos(i) > j the ratio is at
    most below_one, the largest ratio below 1, so relu gives 0 when q >=
    below_one and sign gives -1 when q > below_one; only a smaller q
    computes those entries and their signs exactly.
    """
    pos = [0] * len(mixed)
    for k, i in enumerate(order):
        pos[i] = k
    relu = sigma == "relu"
    settled = q >= below_one if relu else q > below_one
    low = ZERO if relu else MINUS_ONE
    out = []
    for m, k in zip(mixed, pos):
        below = (low,) * k if settled else tuple(activate(m * xj - q, sigma) for xj in x_row[:k])
        above = tuple(m * xj - q for xj in x_row[k:]) if relu else (ONE,) * (len(x_row) - k)
        out.append(below + above)
    return tuple(out)


def _separation(c: Sequence[Row], sigma: str) -> tuple[SeparationResult, list[ExactScalar], Matrix]:
    """The separation of the rows c, their mixed values c_i . z and the
    activated block sigma(C X - q J), whose independence is checked here."""
    _check_separation_preconditions(c)
    m = len(c)
    width = len(c[0])
    base = exact_max(v for row in c for v in row) + ONE
    attempts = m * m * width + 8
    while True:
        powers = [ONE]
        for _ in range(width - 1):
            powers.append(powers[-1] * base)
        z = tuple(powers)
        mixed = [_dot(row, z) for row in c]
        if len({canonical_key(v) for v in mixed}) == m:
            break
        base = base + ONE
        attempts -= 1
        if attempts <= 0:  # pragma: no cover - distinct rows guarantee termination
            raise SynthesisError("base escalation failed to separate distinct rows")
    order = tuple(exact_order(mixed, reverse=True))
    descending = [mixed[i] for i in order]
    x_row = tuple(v.invert() for v in descending)
    # x_row[j] = 1/descending[j], so the ratios below 1 are descending[j + 1] x_row[j]
    below_one = exact_max(descending[j + 1] * x_row[j] for j in range(m - 1)) if m > 1 else ZERO
    threshold = below_one if sigma == "relu" else (below_one + ONE) * ExactScalar(Fraction(1, 2))
    activated = _activated(mixed, order, x_row, below_one, threshold, sigma)
    if not rows_linearly_independent(activated):  # the construction guarantees independence
        raise SynthesisError("separation produced a singular activated matrix")
    sep = SeparationResult(q=threshold, permutation=order, base=base, z=z, x_row=x_row, below_one=below_one)
    return sep, mixed, activated


def relu_separation(c: Sequence[Row]) -> SeparationResult:
    """Separation for the ReLU activation; q is the greatest below-1 ratio."""
    return _separation(as_matrix(c), "relu")[0]


def sign_separation(c: Sequence[Row]) -> SeparationResult:
    """Separation for the sign activation; the threshold is the midpoint
    between the greatest below-1 ratio and 1, forcing a strict +-1 pattern."""
    return _separation(as_matrix(c), "sign")[0]


# -- the p lower bound for degree-normalized synthesis -------------------------

def compute_mp(g: LabelledGraph, g_fn: DegreeFn) -> ExactScalar:
    """Largest forbidden trade-off value for the degree scaling g on this graph.

    The maximum, over ratios alpha of distinct g values and i, j in {0..n},
    of the values alpha*j - i, (i - alpha*j)/alpha and (alpha*j - i)/(1 - alpha)
    that land in [0, 1), or 0 when none do (e.g. on regular graphs).  All
    comparisons are exact.

    The ratios come in pairs alpha, 1/alpha, and (i - alpha*j)/alpha is
    (1/alpha)*i - j, so the second form repeats the first; the third form
    is symmetric under alpha -> 1/alpha with i and j swapped, so it is
    taken for alpha < 1 only.  For fixed alpha and j each remaining form
    lands in [0, 1) on an interval of i whose best end is a floor of
    alpha*j or alpha*(j+1), so the work is O(n) per ratio, not O(n^2).
    g's values come from ``DegreeFn.on``, positive by its contract; each
    distinct one is inverted once, and no scalar is hashed.
    """
    values = g_fn.on(g.degrees()) or {}
    distinct = list({canonical_key(v): v for _, v in sorted(values.items())}.values())  # in degree order
    ratios: dict[tuple, ExactScalar] = {}  # canonical key -> ratio of two distinct g values
    for i, inverse in enumerate([v.invert() for v in distinct]):
        for j, v in enumerate(distinct):
            if i != j:
                ratio = v * inverse
                ratios.setdefault(canonical_key(ratio), ratio)
    candidates = [ZERO]
    n = g.n
    for alpha in ratios.values():
        below_one = alpha < ONE
        inv_one_minus = (ONE - alpha).invert() if below_one else None
        multiples = [alpha * k for k in range(n + 2)]
        floors = [floor_exact(m) for m in multiples]
        for j in range(n + 1):
            alpha_j = multiples[j]
            # alpha*j - i lies in [0, 1) only for i = floor(alpha*j)
            if floors[j] <= n:
                candidates.append(alpha_j - floors[j])
            # (alpha*j - i)/(1 - alpha) lies in [0, 1) for i in (alpha*(j+1) - 1, alpha*j];
            # the smallest such i, floor(alpha*(j+1)), gives the largest value
            if below_one and floors[j + 1] <= min(n, floors[j]):
                candidates.append((alpha_j - floors[j + 1]) * inv_one_minus)
    return exact_max(candidates)


# -- certificates ----------------------------------------------------------------


@dataclass(frozen=True)
class RoundSynthesis:
    """One synthesized round: its layer, made once (``gnn-minus``, or
    ``general-dgnn`` for dgnn6), and the claims about it."""

    layer: BuiltinLayer
    q: ExactScalar
    shift: ExactScalar
    route: str
    repair: str  # none | projection | clamp
    equivalent_to_wl: bool
    refines_wl: bool
    row_independent: bool
    wl_class_count: int

    def to_json(self) -> dict:
        return {
            "W": matrix_to_text(self.layer.params.w2),
            "bias": [v.to_text() for v in self.layer.form.bias],
            "q": self.q.to_text(),
            "shift": self.shift.to_text(),
            "route": self.route,
            "repair": self.repair,
            "equivalent_to_wl": self.equivalent_to_wl,
            "refines_wl": self.refines_wl,
            "row_independent": self.row_independent,
            "wl_class_count": self.wl_class_count,
        }


@dataclass(frozen=True)
class SynthesisCertificate:
    target: str
    sigma: str
    p: ExactScalar
    uniform_q: bool
    reencoded: bool
    n: int
    rounds: tuple[RoundSynthesis, ...]
    g_fn: DegreeFn | None = None
    h_fn: DegreeFn | None = None
    m_p: ExactScalar | None = None

    @property
    def all_equivalent(self) -> bool:
        return all(r.equivalent_to_wl for r in self.rounds)

    @property
    def all_refine(self) -> bool:
        return all(r.refines_wl for r in self.rounds)

    @property
    def all_row_independent(self) -> bool:
        return all(r.row_independent for r in self.rounds)

    def to_spec(self) -> MpnnSpec:
        """The synthesized network itself, the rounds' layers, replayable through run_mpnn."""
        return MpnnSpec("zero" if self.target == "gnn-minus" else "degree", tuple(r.layer for r in self.rounds))

    def to_json(self) -> dict:
        out = {
            "target": self.target,
            "sigma": self.sigma,
            "p": self.p.to_text(),
            "uniform_q": self.uniform_q,
            "reencoded": self.reencoded,
            "n": self.n,
            "rounds": [r.to_json() for r in self.rounds],
            "all_equivalent_to_wl": self.all_equivalent,
            "all_refine_wl": self.all_refine,
            "all_row_independent": self.all_row_independent,
        }
        if self.g_fn is not None:
            out["g"] = self.g_fn.descriptor()
            out["h"] = self.h_fn.descriptor()
        if self.m_p is not None:
            out["m_p"] = self.m_p.to_text()
        return out

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# -- shared helpers ----------------------------------------------------------------


def _prepared_initial(g: LabelledGraph) -> tuple[tuple[Label, ...], bool]:
    uniq, index = unique_rows(g.labels)
    if rows_linearly_independent(uniq):
        return g.labels, False
    return one_hot_rows(Partition(tuple(index))), True


def _uniform_q(n: int) -> ExactScalar:
    return ExactScalar(1 - Fraction(1, (n + 1) ** (n + 1)))


def _check_q(q: ExactScalar) -> None:
    if q.sign() < 0 or (q - ONE).sign() >= 0:
        raise SynthesisError(f"threshold q = {q} outside [0, 1)")


def _dump(g: LabelledGraph, round_index: int, reason: str, **extra) -> dict:
    payload = {"round": round_index, "reason": reason, "graph": format_graph(g)}
    payload.update(extra)
    return payload


def _separated_block(
    rows: list[Row], sigma: str, q_override: ExactScalar | None, g: LabelledGraph, t: int
):
    """Shift-to-positive + separation over a row block of round t.

    Returns (z, x_row), the bias entries, the per-row output values, q and
    the shift.  The weight columns are the rank-one X = z x_row^T in row
    space; the shift is folded into the bias through the all-ones image of
    the mixing column 1_w X = (sum z) x.  A row's output is the activated separation
    row of its unique index: (row + shift 1) . z is that row's mixed value.
    """
    uniq, index = unique_rows(rows)
    minimum = exact_min(v for row in uniq for v in row)
    zero_row = any(all(v.is_zero for v in row) for row in uniq)
    if minimum.sign() < 0:
        shift = ONE - minimum
    elif zero_row:
        shift = ONE
    else:
        shift = ZERO
    c_rows = uniq if shift.is_zero else [tuple(v + shift for v in row) for row in uniq]
    sep, mixed, block = _separation(tuple(c_rows), sigma)
    q = sep.q if q_override is None else q_override
    _check_q(q)
    if q_override is not None:
        block = _activated(mixed, sep.permutation, sep.x_row, sep.below_one, q, sigma)
        if not rows_linearly_independent(block):
            raise SynthesisError(
                "uniform threshold breaks non-singularity on this round",
                _dump(g, t, "uniform q too small", q=q.to_text()),
            )
    z_total = sum(sep.z, start=ZERO)
    bias = tuple(shift * z_total * xj - q for xj in sep.x_row)
    values = [block[i] for i in index]
    return (sep.z, sep.x_row), bias, values, q, shift


def _find_clamp_column(
    rows: list[Row],
    wl_part: Partition,
    a: int,
    b: int,
    kernel: Matrix,
    k_cols: int,
    sigma: str,
):
    """A direction w and threshold tau with sigma(row . w - tau) constant on
    every reference class yet different for rows a and b, or None.

    Classes whose projections differ along w must fall entirely into the
    clamp band (below tau); kernel offsets shift whole classes relative to
    each other, which often lifts the target pair clear of that band.

    The column changes only when tau crosses a projection value, so the
    midpoints of consecutive sorted distinct values cover every band, and a
    midpoint never activates a zero.  Threshold k, between the values at
    positions k and k + 1, is chosen from positions alone, and each row's
    activated value is read off its position too: the projections are
    ordered once, by ``surd.exact_order``.  A class is torn when its members
    take more than one position.  Under relu, rows at or below k clamp to 0
    and the others keep distinct values, so the first feasible k is the
    highest top position of a torn class (0 if none), provided it lies
    below the higher of a's and b's positions.  Under sign, rows at or
    below k map to -1 and the others to +1, so k is the first index between
    a's and b's positions that no torn class straddles.
    """
    width = len(rows[0])
    delta = tuple(x - y for x, y in zip(rows[a], rows[b]))
    delta_u = [_dot(row, delta) for row in rows]

    def candidates():
        # each candidate's projections are a combination of rows . delta and
        # rows . column, computed once; a zero direction has u[a] = u[b]
        yield delta, delta_u
        yield tuple(-x for x in delta), [-x for x in delta_u]
        for l in range(k_cols):
            column = tuple(kernel[i][l] for i in range(width))
            column_u = [_dot(row, column) for row in rows]
            for gamma in (1, 2, 4, 8, 16, 64):
                for d_sign in (1, -1):
                    for k_sign in (1, -1):
                        k = k_sign * gamma
                        yield (
                            tuple(d_sign * d + k * c for d, c in zip(delta, column)),
                            [d_sign * d + k * c for d, c in zip(delta_u, column_u)],
                        )
        for j in range(width):
            if not delta[j].is_zero:
                unit = tuple(ONE if i == j else ZERO for i in range(width))
                yield unit, [row[j] for row in rows]
                yield tuple(-x for x in unit), [-row[j] for row in rows]

    classes = wl_part.classes()
    for direction, u in candidates():
        if u[a] == u[b]:
            continue
        # position[v] is the index of u[v] among the sorted distinct values
        order = exact_order(u)
        distinct = [u[order[0]]]
        position = [0] * len(rows)
        for v in order[1:]:
            if u[v] != distinct[-1]:
                distinct.append(u[v])
            position[v] = len(distinct) - 1
        torn = []
        for members in classes:
            spots = [position[v - 1] for v in members]
            if min(spots) < max(spots):
                torn.append((min(spots), max(spots)))
        low, high = sorted((position[a], position[b]))
        if sigma == "relu":
            k = max((top for _, top in torn), default=0)
            if k >= high:
                continue
        else:
            k = next(
                (i for i in range(low, high) if not any(bottom <= i < top for bottom, top in torn)), None
            )
            if k is None:
                continue
        # tau lies strictly between positions k and k + 1, so each row's
        # side of it is its position's
        tau = (distinct[k] + distinct[k + 1]) * ExactScalar(Fraction(1, 2))
        if sigma == "relu":
            return direction, tau, [x - tau if at > k else ZERO for x, at in zip(u, position)]
        return direction, tau, [ONE if at > k else MINUS_ONE for at in position]
    return None


def _clamp_repair(
    rows: list[Row],
    kernel: Matrix,
    base: list[Row],
    wl_part: Partition,
    sigma: str,
):
    """Clamp columns that, after the kernel columns, realize the reference
    partition.

    base holds rows times kernel.  Returns [(direction, tau, output
    values)], or None when some torn pair admits no legal threshold (nested
    class values) or no set of thresholds makes the class rows independent.

    Independence is decided on a proxy: the separated kernel block assigns
    each base class an independent row, which has the same joint rank as a
    base-class one-hot, so [one-hot | clamp values | 1] is checked exactly.
    A probe column raises its rank exactly when some vector of its left
    kernel has a nonzero dot product with the column.  The kernel is
    computed once, for [one-hot | 1], and each added column narrows it to
    the vectors orthogonal to that column, so the rows are never eliminated
    again; an empty kernel means the rows are independent.
    """
    n, k_cols = len(rows), len(base[0])
    prefix = one_hot_rows(Partition(tuple(unique_rows(base)[1])))
    reps = [members[0] - 1 for members in wl_part.classes()]
    suffix: list[tuple[Row, ExactScalar, list[ExactScalar]]] = []
    # the left kernel of the class rows [one-hot | clamp values | 1] at reps
    left_kernel = list(zip(*nullspace_basis(tuple(zip(*(prefix[v] + (ONE,) for v in reps))), len(reps))))

    def append(column, dots: list[ExactScalar]) -> None:
        """Add a clamp column, keeping the kernel vectors orthogonal to it;
        dots holds each kernel vector's dot product with its values at reps."""
        suffix.append(column)
        pivot = next((i for i, d in enumerate(dots) if not d.is_zero), None)
        if pivot is None:
            return
        y0 = left_kernel.pop(pivot)
        inv = dots.pop(pivot).invert()
        for i, d in enumerate(dots):
            if not d.is_zero:
                f = d * inv
                left_kernel[i] = tuple(a - f * b for a, b in zip(left_kernel[i], y0))

    def kernel_dots(column) -> list[ExactScalar]:
        probe = tuple(column[2][v] for v in reps)
        return [_dot(y, probe) for y in left_kernel]

    for _ in range(wl_part.num_classes + 6):
        proxy = [prefix[v] + tuple(col[2][v] for col in suffix) + (ONE,) for v in range(n)]
        violation = partition_refines_violation(Partition(tuple(unique_rows(proxy)[1])), wl_part)
        if violation is not None:
            a, b = violation
            column = _find_clamp_column(rows, wl_part, a - 1, b - 1, kernel, k_cols, sigma)
            if column is None:
                return None
            append(column, kernel_dots(column))
            continue
        if not left_kernel:
            return suffix
        improved = False
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                column = _find_clamp_column(rows, wl_part, a, b, kernel, k_cols, sigma)
                if column is None:
                    continue
                dots = kernel_dots(column)
                if any(not d.is_zero for d in dots):
                    append(column, dots)
                    improved = True
                    break
            if improved:
                break
        if not improved:
            return None
    return None


def _check_arguments(sigma: str, rounds: int) -> None:
    if sigma not in ("relu", "sign"):
        raise InputError(f"activation must be 'relu' or 'sign', got {sigma!r}")
    if rounds < 1:
        raise InputError("need at least one round")
    check_round_limit(rounds)


def _synthesize_rounds(
    g: LabelledGraph,
    rounds: int,
    sigma: str,
    p: ExactScalar,
    g_fn: DegreeFn,
    h_fn: DegreeFn,
    uniform_q: bool,
    family: str,
) -> tuple[tuple[RoundSynthesis, ...], bool]:
    """The verified rounds of sigma(diag(g) (A + pI) diag(h) L W + B) at this p.

    Returns the rounds and whether the initial labels were re-encoded.  Each
    round enforces the refinement bound and row independence, records its
    equivalence verdict and makes its layer of family (``gnn-minus``, which
    must take no repair or shift and match the reference, or
    ``general-dgnn``) once; unit g and h scale nothing.
    """
    degrees = g.degrees()
    g_of, h_of = g_fn.on(degrees), h_fn.on(degrees)
    initial, reencoded = _prepared_initial(g)
    reference = wl_partitions(g, rounds)
    q_override = _uniform_q(g.n) if uniform_q else None
    synthesized: list[RoundSynthesis] = []
    rows = list(initial)
    for t in range(1, rounds + 1):
        scaled = rows if h_of is None else [row_scale(rows[v], h_of[degrees[v]]) for v in range(g.n)]
        uniq_scaled, scaled_class = unique_rows(scaled)
        # the paper route sums the count labelling of the unique rows, the direct one the rows
        route = "paper" if rows_linearly_independent(uniq_scaled) else "direct"
        basis = identity(len(uniq_scaled)) if route == "paper" else uniq_scaled
        pre = propagate(g, range(1, g.n + 1), SURD, scaled_class, dict(enumerate(basis)), degrees, p, g_of, None)
        target = SURD.settle(pre, "none")
        width = len(target[0])
        wl_part = reference[t]
        diffs: list[Row] = []
        for rep, *others in wl_part.classes():
            for v in others:
                if target[rep - 1] != target[v - 1]:
                    diffs.append(tuple(a - b for a, b in zip(target[rep - 1], target[v - 1])))
        # each variant is (repair, kernel or None, base rows, clamp columns)
        variants: list[tuple[str, Matrix | None, list[Row], list]] = []
        if diffs:
            kernel = nullspace_basis(diffs, width)
            k_cols = len(kernel[0])
            projected_rows = [row_mat(row, kernel) for row in target]
            if k_cols and partition_refines(Partition(tuple(unique_rows(projected_rows)[1])), wl_part):
                variants.append(("projection", kernel, projected_rows, []))
            else:
                clamps = _clamp_repair(target, kernel, projected_rows, wl_part, sigma)
                if clamps is not None:
                    pad = ((ZERO,) * width, -ONE, [ONE] * g.n)
                    variants.append(("clamp", kernel, projected_rows, clamps + [pad]))
        variants.append(("none", None, target, []))
        for repair, kernel, base, clamps in variants:
            # the weight columns in row space: z or K z, then the clamp directions
            columns: list[Row] = []
            x_row: Row = ()
            bias, values, q, shift = (), [() for _ in base], ZERO, ZERO
            if base[0]:
                (z, x_row), bias, values, q, shift = _separated_block(base, sigma, q_override, g, t)
                columns.append(z if kernel is None else _mat_vec(kernel, z))
            columns += [direction for direction, _, _ in clamps]
            bias += tuple(-tau for _, tau, _ in clamps)
            new_rows = [values[v] + tuple(col[2][v] for col in clamps) for v in range(g.n)]
            uniq_new, new_class = unique_rows(new_rows)
            new_partition = Partition(tuple(new_class))
            if partition_refines(new_partition, wl_part) and rows_linearly_independent(uniq_new):
                break
        else:
            raise SynthesisError(
                f"round {t}: no construction satisfied the refinement bound and independence",
                _dump(g, t, "degree-normalized round failed verification", route=route),
            )
        # the paper route's weights act on the count labelling of the unique
        # rows, so they are solved back through them; the separated block's
        # column is spread over x_row
        weight = tuple(zip(*columns))
        if route == "paper":
            weight = solve(uniq_scaled, weight)
        if x_row:
            weight = tuple(tuple(r[0] * xj for xj in x_row) + r[1:] for r in weight)
        equivalent = new_partition == wl_part
        if family == "gnn-minus":
            if repair != "none" or not shift.is_zero or not equivalent:
                reason = "gnn-minus round needs a repair or a shift, or misses the refinement reference"
                raise SynthesisError(
                    f"round {t} verification failed (repair={repair}, shift={shift}, equivalent={equivalent})",
                    _dump(g, t, reason, repair=repair, shift=shift.to_text(), wl_class_count=wl_part.num_classes),
                )
            params = LayerParams(w2=weight, p=p, q=q, sigma=sigma)
        else:
            params = LayerParams(w2=weight, bias=bias, p=p, sigma=sigma, g_fn=g_fn, h_fn=h_fn)
        synthesized.append(
            RoundSynthesis(
                layer=BuiltinLayer(family, params),
                q=q,
                shift=shift,
                route=route,
                repair=repair,
                equivalent_to_wl=equivalent,
                refines_wl=True,
                row_independent=True,
                wl_class_count=wl_part.num_classes,
            )
        )
        rows = new_rows
    return tuple(synthesized), reencoded


def synthesize_gnn_minus(
    g: LabelledGraph,
    rounds: int,
    sigma: str,
    p: ExactScalar | None = None,
    uniform_q: bool = False,
) -> SynthesisCertificate:
    """Per-round weights W = U X with bias -q*1 reproducing refinement exactly.

    p defaults to 1/2 and must lie strictly inside (0, 1).  The rounds are
    the degree-normalized ones with g = h = 1 at this p; each must also need
    no repair and no shift, so that its bias is -q*1, and match the
    refinement reference exactly, or synthesis raises at that round.
    """
    _check_arguments(sigma, rounds)
    p = ExactScalar(Fraction(1, 2)) if p is None else ExactScalar(p)
    if p.sign() <= 0 or (p - ONE).sign() >= 0:
        raise InputError(f"p = {p} must lie strictly between 0 and 1")
    unit = DegreeFn("one")
    synthesized, reencoded = _synthesize_rounds(g, rounds, sigma, p, unit, unit, uniform_q, "gnn-minus")
    return SynthesisCertificate(
        target="gnn-minus",
        sigma=sigma,
        p=p,
        uniform_q=uniform_q,
        reencoded=reencoded,
        n=g.n,
        rounds=synthesized,
    )


def synthesize_dgnn6(
    g: LabelledGraph,
    rounds: int,
    sigma: str,
    g_fn: DegreeFn | None = None,
    h_fn: DegreeFn | None = None,
    uniform_q: bool = False,
) -> SynthesisCertificate:
    """Degree-normalized synthesis with p = (m_p + 1)/2; see the module docstring.

    The refinement bound (every synthesized round refines into the reference
    partition) and row independence are enforced; the per-round equivalence
    verdict is recorded in the certificate and holds whenever every label
    class the round starts from is pure in h-degree terms, or the projection
    repair restores it.  g and h default to ``inv_sqrt_1pd``; DegreeFn
    guarantees that they are positive, and a degree at which either
    refuses a value raises its SpecValidationError.
    """
    _check_arguments(sigma, rounds)
    g_fn = g_fn or DegreeFn("inv_sqrt_1pd")
    h_fn = h_fn or DegreeFn("inv_sqrt_1pd")
    m_p = compute_mp(g, g_fn)
    p = (m_p + ONE) * ExactScalar(Fraction(1, 2))
    if not m_p < p < ONE:
        raise ArithmeticError(f"trade-off parameter p = {p} is not strictly between m_p = {m_p} and 1")
    synthesized, reencoded = _synthesize_rounds(g, rounds, sigma, p, g_fn, h_fn, uniform_q, "general-dgnn")
    return SynthesisCertificate(
        target="dgnn6",
        sigma=sigma,
        p=p,
        uniform_q=uniform_q,
        reencoded=reencoded,
        n=g.n,
        rounds=synthesized,
        g_fn=g_fn,
        h_fn=h_fn,
        m_p=m_p,
    )
