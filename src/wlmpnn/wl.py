"""Colour refinement and its encoding as a label-injection message passer.

The refinement itself uses deterministic dictionary encoding: the pair
(own class, sorted neighbour classes) is mapped to dense integer ids by
first occurrence, so traces are reproducible and diffable.  ``wl_step`` is
the one such step: the engine takes its per-round evaluation keys from it
too.  A ``WlTrace`` holds the partitions, as a network's ``RunTrace`` does.

The second half realizes the same computation arithmetically: labels are
injected into rationals whose base-(n+1) digits recover neighbour multisets
after summation.  The injection goes scalar -> (integer polynomial, two
rationals) -> prime-power product -> Cantor tuple; it explodes quickly and
is guarded, so it is exercised on micro domains only.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .graphs import Label, LabelledGraph, Partition, partition_of
from .surd import ExactScalar, InputError, LimitError, conjugates, floor_exact

ENCODING_GUARD = 10**6

# A round count from outside may not exceed this.  On a 2-vCPU Xeon VM under
# Python 3.11, `mpnn run --spec gcn` on fig1 took 2.4 s at 1,000 rounds and
# 57 s at 4,000, and a count is the length of lists and tuples it builds.
MAX_ROUNDS = 1000


class NotInImageError(ValueError):
    """A rational is not a valid digit encoding of any multiset."""


# -- colour refinement -------------------------------------------------------


@dataclass(frozen=True)
class WlTrace:
    """Refinement history; partitions[0] is the initial partition."""

    partitions: tuple[Partition, ...]
    stabilized_at: int | None

    def to_json(self) -> dict:
        return {
            "rounds": [list(p.class_of) for p in self.partitions],
            "stabilized_at": self.stabilized_at,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def wl_step(g: LabelledGraph, current: Partition) -> Partition:
    """One refinement round: split by (own class, sorted neighbour classes).

    A vertex alone in its class stays alone, so it is keyed by its class
    and its neighbour classes are not sorted.
    """
    if current.n != g.n:
        raise ValueError(f"partition covers {current.n} vertices, graph has {g.n}")
    class_of = current.class_of
    sizes = Counter(class_of)
    signatures = []
    for v, c in enumerate(class_of, start=1):
        signatures.append(c if sizes[c] == 1 else (c, tuple(sorted([class_of[u - 1] for u in g.neighbors(v)]))))
    return Partition.from_keys(signatures)


def wl_run(g: LabelledGraph, max_rounds: int | None = None) -> WlTrace:
    """Iterate wl_step until the class count stops growing (or max_rounds)."""
    if max_rounds is not None and max_rounds < 0:
        raise InputError(f"max_rounds must be non-negative, got {max_rounds}")
    partitions = [partition_of(g.labels)]
    stabilized = None
    t = 0
    while stabilized is None and (max_rounds is None or t < max_rounds):
        nxt = wl_step(g, partitions[-1])
        partitions.append(nxt)
        t += 1
        if nxt.num_classes == partitions[-2].num_classes:
            stabilized = t
    return WlTrace(tuple(partitions), stabilized)


def check_round_limit(rounds: int) -> None:
    """Refuse a round count above MAX_ROUNDS with LimitError."""
    if rounds > MAX_ROUNDS:
        raise LimitError(f"{rounds} rounds exceed MAX_ROUNDS = {MAX_ROUNDS}")


def check_wl_rounds(rounds: int) -> int:
    """rounds, refused if negative (InputError) or above MAX_ROUNDS (LimitError)."""
    if rounds < 0:
        raise InputError(f"rounds must be non-negative, got {rounds}")
    check_round_limit(rounds)
    return rounds


def wl_partitions(g: LabelledGraph, rounds: int) -> list[Partition]:
    """The partitions after 0..rounds refinement steps: those of ``wl_run``
    up to rounds, then its stable partition repeated, since a stable
    partition steps to itself, class ids included."""
    check_wl_rounds(rounds)
    out = list(wl_run(g, rounds).partitions)
    return out + [out[-1]] * (rounds + 1 - len(out))


# -- injection into rationals -------------------------------------------------

def _prime(index: int) -> int:
    """The index-th prime (1-based), by trial division."""
    count, candidate = 0, 1
    while count < index:
        candidate += 1
        if all(candidate % d for d in range(2, math.isqrt(candidate) + 1)):
            count += 1
    return candidate


def _prime_power(slot: int, z: int) -> int:
    if z >= 0:
        return _prime(2 * slot) ** z
    return _prime(2 * slot + 1) ** (-z)


def alpha_encode(coeffs: Sequence[int], n1: int, n2: int, d1: int, d2: int) -> int:
    """Injective map from (integer polynomial, two rationals) to positive integers.

    Slot i holds z via the 2i-th prime for z >= 0 and the (2i+1)-th prime
    for z < 0; the two rationals occupy slots 1..4 and coefficient j slot
    j+5.  Trailing zero coefficients are stripped so equal polynomials agree.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    value = _prime_power(1, n1) * _prime_power(2, n2) * _prime_power(3, d1) * _prime_power(4, d2)
    for j, a in enumerate(coeffs):
        value *= _prime_power(j + 5, a)
    return value


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def _simplest_in_open(lo: ExactScalar, hi: ExactScalar) -> Fraction:
    """Smallest-denominator rational strictly between lo and hi (Stern-Brocot walk)."""
    if not lo < hi:
        raise ValueError("empty interval")
    if lo.sign() < 0 and hi.sign() > 0:
        return Fraction(0)
    if hi.sign() <= 0:
        return -_simplest_in_open(-hi, -lo)
    floor_lo = floor_exact(lo)
    candidate = floor_lo + 1
    if lo < candidate < hi:
        return Fraction(candidate)
    # both strictly inside (floor_lo, floor_lo + 1); recurse on reciprocals
    shifted_lo = lo - candidate + 1  # lo - floor_lo
    shifted_hi = hi - candidate + 1
    if shifted_lo.is_zero:  # 1/k < shifted_hi first for the least integer k above 1/shifted_hi
        return floor_lo + Fraction(1, floor_exact(shifted_hi.invert()) + 1)
    inner = _simplest_in_open(shifted_hi.invert(), shifted_lo.invert())
    return floor_lo + 1 / inner


def scalar_representation(x: ExactScalar) -> tuple[tuple[int, ...], int, int, int, int]:
    """Canonical (polynomial coefficients, n1, n2, d1, d2) encoding of a scalar.

    Rationals n/d use no polynomial terms and the pair (n/d, 0/1).  Irrational
    values use the expanded product of (T - conjugate) over all sign-flip
    conjugates, made integral and primitive, plus the simplest rational
    interval isolating the value from its other conjugates.
    """
    if x.is_rational:
        q = x.rational_part
        return ((), q.numerator, 0, q.denominator, 1)
    roots = conjugates(x)
    poly: list[ExactScalar] = [ExactScalar(1)]
    for root in roots:
        shifted = [ExactScalar(0)] + poly  # multiply by T
        for i, coeff in enumerate(poly):
            shifted[i] = shifted[i] - root * coeff
        poly = shifted
    fracs = [c.as_fraction() for c in poly]
    denom_lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom_lcm) for f in fracs]
    content = math.gcd(*ints)
    ints = [a // content for a in ints]
    if ints[-1] < 0:
        ints = [-a for a in ints]
    distinct = sorted(set(roots))
    pos = distinct.index(x)
    below = distinct[pos - 1] if pos > 0 else x - 1
    above = distinct[pos + 1] if pos + 1 < len(distinct) else x + 1
    r1 = _simplest_in_open(below, x)
    r2 = _simplest_in_open(x, above)
    return (tuple(ints), r1.numerator, r2.numerator, r1.denominator, r2.denominator)


def scalar_index(x: ExactScalar) -> int:
    coeffs, n1, n2, d1, d2 = scalar_representation(x)
    return alpha_encode(coeffs, n1, n2, d1, d2)


def label_tau(row: Label) -> int:
    """Injective positive-integer index of a label row, guarded at desk scale."""
    indices = []
    for x in row:
        idx = scalar_index(x)
        if idx > ENCODING_GUARD:
            raise LimitError(f"component index {idx} exceeds the guard {ENCODING_GUARD}")
        indices.append(idx)
    tau = indices[0]
    for nxt in indices[1:]:
        tau = cantor_pair(tau, nxt)
        if tau > ENCODING_GUARD:
            raise LimitError(f"tuple index {tau} exceeds the guard {ENCODING_GUARD}")
    return tau


TauFn = Callable[[Label], int]


def h_inject(row: Label, n: int, tau: TauFn = label_tau) -> Fraction:
    """The injection row -> 1/(n+1)**tau(row); a single base-(n+1) digit."""
    return Fraction(1, (n + 1) ** tau(row))


def phi_sum(bag: Iterable[Label], n: int, tau: TauFn = label_tau) -> Fraction:
    """Exact sum of h_inject over a multiset of at most n rows."""
    rows = list(bag)
    if len(rows) > n:
        raise ValueError(f"multiset of size {len(rows)} exceeds the digit bound n = {n}")
    total = Fraction(0)
    for row in rows:
        total += h_inject(row, n, tau)
    return total


def phi_inverse(
    value: Fraction,
    n: int,
    dictionary: Sequence[Label],
    tau: TauFn = label_tau,
) -> list[Label]:
    """Recover the multiset from its digit sum, given the candidate labels.

    Raises NotInImageError when the value has a digit at a position no
    dictionary label occupies, or is otherwise not an exact digit sum.
    """
    value = Fraction(value)
    if value < 0 or value >= 1:
        raise NotInImageError(f"{value} lies outside [0, 1)")
    if value == 0:
        return []
    positions: dict[int, Label] = {}
    for row in dictionary:
        t = tau(row)
        if t in positions and positions[t] != row:
            raise ValueError("dictionary labels collide under tau")
        positions[t] = row
    if not positions:
        raise NotInImageError("nonzero value with an empty dictionary")
    base = n + 1
    max_tau = max(positions)
    scaled = value * base**max_tau
    if scaled.denominator != 1:
        raise NotInImageError(f"{value} is not supported on the dictionary digit positions")
    scaled_int = scaled.numerator
    out: list[Label] = []
    consumed = 0
    for t in sorted(positions):
        digit = (scaled_int // base ** (max_tau - t)) % base
        consumed += digit * base ** (max_tau - t)
        out.extend([positions[t]] * digit)
    if consumed != scaled_int:
        raise NotInImageError(f"{value} has digits outside the dictionary positions")
    return out


def encoded_wl_spec(g: LabelledGraph, rounds: int):
    """The refinement as an anonymous message passer over injected rationals.

    Built through the combination/aggregation wrapping: the per-element map
    injects the neighbour label into a rational digit (recording every label
    it sees), the aggregated sum is decoded back into the neighbour multiset
    against the recorded candidates, and the combination applies a fresh-id
    dictionary hash to the (own label, multiset) pair.  Labels from round 1
    on are 1-dimensional dictionary ids.  Decoding is sound because every
    vertex is some vertex's neighbour (no isolated vertices), so by the
    engine's messages-before-updates contract every current label has been
    recorded before any decode runs; stale candidates contribute zero digits.
    """
    from .mpnn import wrap_comb_aggr

    n = g.n
    seen: dict[Label, None] = {}
    hash_state: dict = {}

    def aggr_h(y: Label) -> Label:
        seen.setdefault(y, None)
        return (ExactScalar(h_inject(y, n)),)

    def aggr_g(total: Label):
        return tuple(sorted(phi_inverse(total[0].as_fraction(), n, list(seen))))

    def comb(x: Label, bag) -> Label:
        key = (x, bag)
        if key not in hash_state:
            hash_state[key] = len(hash_state)
        return (ExactScalar(hash_state[key]),)

    return wrap_comb_aggr(comb, aggr_h, aggr_g, rounds)
