"""Order facts from certified enclosures: exact_max, exact_min, exact_order
against plain exact comparisons, and the separated block read off the order.

Every check here is a test assertion, never an ``assert`` inside the
library, so the module also runs under ``python -O``.
"""
import math
import random
import time
import timeit
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlmpnn import synthesis
from wlmpnn.cases import builtin_graph, make_graph
from wlmpnn.linalg import as_matrix
from wlmpnn.surd import (
    ONE,
    ZERO,
    ExactScalar,
    LimitError,
    activate,
    exact_max,
    exact_min,
    exact_order,
    exact_sum,
    floor_exact,
    parse_scalar,
)
from wlmpnn.wl import scalar_index, wl_run

S = ExactScalar

RADICANDS = (1, 2, 3, 5, 6, 7, 10, 15, 30)


def _reference_order(values, reverse=False):
    return sorted(range(len(values)), key=values.__getitem__, reverse=reverse)


def _check_against_plain_comparisons(values):
    # exact_max and exact_min return a value equal to the plain ones (equal
    # values are one canonical form), exact_order the very same positions
    assert exact_max(values) == max(values)
    assert exact_min(values) == min(values)
    assert exact_order(values) == _reference_order(values)
    assert exact_order(values, reverse=True) == _reference_order(values, reverse=True)


coefficients = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**130), 2**130), st.integers(1, 2**70)),
)
surds = st.builds(
    lambda terms: S.normalize(terms),
    st.lists(st.tuples(st.sampled_from(RADICANDS), coefficients), min_size=0, max_size=4),
)


@settings(max_examples=200)
@given(st.lists(surds, min_size=1, max_size=12))
def test_order_helpers_match_plain_exact_comparisons(values):
    _check_against_plain_comparisons(values)


@settings(max_examples=100)
@given(st.lists(surds, min_size=1, max_size=5), st.lists(st.integers(0, 4), min_size=1, max_size=20))
def test_order_helpers_with_many_ties(pool, picks):
    # the clamp sort orders projections of which whole classes are equal
    values = [pool[i % len(pool)] for i in picks]
    _check_against_plain_comparisons(values)


def _equal_forms():
    """Groups of one value each, built in different ways; each group's
    members are equal, and the groups are distinct."""
    root2 = S.sqrt(2)
    return [
        [S.sqrt(8), root2 * 2, S.normalize([(2, 1), (2, 1)]), exact_sum([root2, root2])],
        [(ONE + root2) * (ONE + root2), S(3) + S.sqrt(8), S.normalize([(1, 3), (8, 1)])],
        [S(Fraction(3, 2)), S(3) * S(Fraction(1, 2)), S(Fraction(6, 4)), S.normalize([(1, Fraction(3, 2))])],
        [ZERO, root2 - root2, S.normalize([(3, 1), (3, -1)]), S(0)],
        [-S.sqrt(3) * S.sqrt(5), -S.sqrt(15), S.normalize([(15, -1)])],
        [S.sqrt(2) + S.sqrt(3), S.sqrt(3) + S.sqrt(2), exact_sum([S.sqrt(3), S.sqrt(7), S.sqrt(2), -S.sqrt(7)])],
    ]


def test_equal_values_built_differently_keep_their_given_order():
    groups = _equal_forms()
    rng = random.Random(5)
    for _ in range(20):
        tagged = [(g, m) for g, group in enumerate(groups) for m in range(len(group))]
        rng.shuffle(tagged)
        values = [groups[g][m] for g, m in tagged]
        _check_against_plain_comparisons(values)
        for reverse in (False, True):
            order = exact_order(values, reverse=reverse)
            # members of one group stay in the order they were given
            for g in range(len(groups)):
                positions = [i for i in order if tagged[i][0] == g]
                assert positions == sorted(positions)


def _close_pairs():
    """Triples below < middle < above of distinct values closer than 2**-64,
    where middle is irrational, often with coefficients so large that the
    enclosure of c*sqrt(r) at 64 bits is c units wide."""
    out = []
    for big, r, k, den in [
        (1, 2, 80, 1),
        (1, 3, 100, 7),
        (10**20, 2, 70, 1),
        (-(10**20), 2, 70, 1),
        (3**60, 5, 130, 11),
        (-(2**90), 30, 96, 3),
        (1, 6, 65, 1),
    ]:
        middle = S.sqrt(r, Fraction(big, den))
        # floor and ceiling of middle at k bits, both rational
        scaled = math.isqrt(big * big * r << (2 * k))
        if big < 0:
            scaled = -scaled - 1
        below = S(Fraction(scaled, den << k))
        above = S(Fraction(scaled + 1, den << k))
        out.append((below, middle, above))
    # sqrt(2) against a convergent p/q below it, |p/q - sqrt(2)| < 1/q**2 with
    # q past 2**50, and a near-cancelling value of about 2**-101 whose
    # coefficients pass 2**100
    p, q = 1, 1
    for _ in range(40):
        p, q = p + 2 * q, p + q
    out.append((S(Fraction(p, q)), S.sqrt(2), S.sqrt(2) + S(Fraction(1, 2**90))))
    tiny = (S.sqrt(2) - ONE) ** 80
    out.append((ZERO, tiny, tiny + S(Fraction(1, 2**200))))
    return out


def test_distinct_values_closer_than_the_enclosures():
    for below, middle, above in _close_pairs():
        assert below < middle < above and (above - below) < S(Fraction(1, 2**64))
        for values in ([below, middle, above], [above, middle, below], [middle, above, below], [above, below, middle]):
            _check_against_plain_comparisons(values)
            assert exact_max(values) == above and exact_min(values) == below
            assert [values[i] for i in exact_order(values)] == [below, middle, above]
        negated = [-below, -middle, -above]
        _check_against_plain_comparisons(negated)


def test_negatives_zero_and_rationals():
    values = [S(-3), ZERO, S(Fraction(1, 3)), -S.sqrt(2), S(Fraction(-7, 5)), S.sqrt(2) - S(Fraction(7, 5)), ZERO, S(2)]
    _check_against_plain_comparisons(values)
    assert exact_order(values) == [0, 3, 4, 1, 6, 5, 2, 7]
    assert exact_max([ZERO]) == ZERO and exact_min([S(-1)]) == S(-1)
    assert exact_order([]) == []
    with pytest.raises(ValueError):
        exact_max([])
    with pytest.raises(ValueError):
        exact_min(iter(()))


def test_helpers_take_any_iterable():
    values = [S(3), S.sqrt(5), S(2)]
    assert exact_max(v for v in values) == S(3)
    assert exact_min(iter(values)) == S(2)
    assert exact_order(tuple(values), reverse=True) == [0, 1, 2]


# -- floors from integer bounds, and the simplest rational of an interval ----------


def _floor_in_bracket(x):
    # the bracket is decided by exact signs, independently of the bounds' floors
    k = floor_exact(x)
    assert S(k) <= x < S(k + 1)
    return k


def _floor_against_sympy(k, y):
    """floor(k + y) for an integer k against k plus sympy's floor of y:
    sympy's evalf runs out of precision on 400-digit integer parts."""
    sympy = pytest.importorskip("sympy")
    value = sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r) for r, c in y.terms.items()))
    assert _floor_in_bracket(S(k) + y) == k + int(sympy.floor(value))


signs = st.sampled_from((-1, 1))
integer_parts = st.one_of(st.just(0), st.integers(-10, 10), st.integers(-(10**400), 10**400))
# (sqrt(2) - 1)**n < 2**-64 for n >= 51 and (sqrt(3) - sqrt(2))**m < 2**-64 for m >= 39
near_zero = st.builds(
    lambda s1, n, s2, m, both: s1 * (S.sqrt(2) - ONE) ** n + (s2 * (S.sqrt(3) - S.sqrt(2)) ** m if both else ZERO),
    signs, st.integers(51, 60), signs, st.integers(39, 45), st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(integer_parts, st.one_of(surds, near_zero))
def test_floor_matches_sympy(k, y):
    _floor_against_sympy(k, y)


def test_floor_of_large_and_close_values():
    tiny = (S.sqrt(2) - ONE) ** 80
    for k, y in (
        (10**23, S.sqrt(2)),
        (10**400, S.sqrt(2)),
        (-(10**400), -S.sqrt(2)),
        (0, tiny),
        (0, -tiny),
        (7, tiny - (S.sqrt(3) - S.sqrt(2)) ** 60),
        (0, S(Fraction(-7, 2))),
        (-4, ZERO),
    ):
        _floor_against_sympy(k, y)
    assert floor_exact(S(10**400) + S.sqrt(2)) == 10**400 + 1
    # 10**400 * sqrt(2) has 401 integer digits, past sympy's default precision
    assert _floor_in_bracket(S(10**400) * S.sqrt(2) - S(Fraction(1, 3))) == math.isqrt(2 * 10**800)


def test_floor_and_representation_of_a_large_value_are_fast():
    # 10**23 lies 23 bits past a float's precision, so a floor stepped one
    # unit at a time from a float guess would take millions of steps
    x = parse_scalar("100000000000000000000000 + sqrt(2)")
    assert min(timeit.repeat(lambda: floor_exact(x), number=1, repeat=3)) < 0.01
    assert floor_exact(x) == 10**23 + 1
    # the encoding index of x, or of 10**23, would lie far past its guard,
    # so it is refused at once
    for y in (x, S(10**23)):
        start = time.perf_counter()
        with pytest.raises(LimitError, match="guard 1000000"):
            scalar_index(y)
        assert time.perf_counter() - start < 0.01


# -- the separated block read off the exact order ------------------------------


def _explicit_block(mixed, x_row, q, sigma):
    return tuple(tuple(activate(m * xj - q, sigma) for xj in x_row) for m in mixed)


def _separation_inputs(seed, size):
    rng = random.Random(seed)
    rows = set()
    while len(rows) < size:
        rows.add(
            tuple(
                S.normalize([(rng.choice((1, 1, 2, 3)), Fraction(rng.randint(0, 6), rng.randint(1, 3)))])
                for _ in range(3)
            )
        )
    return [row for row in sorted(rows, key=str) if any(not v.is_zero for v in row)]


@pytest.mark.parametrize("sigma", ["relu", "sign"])
@pytest.mark.parametrize("seed", range(6))
def test_activated_block_matches_the_explicit_matrix(sigma, seed):
    rows = as_matrix(_separation_inputs(seed, 3 + seed))
    sep, mixed, block = synthesis._separation(rows, sigma)
    assert block == _explicit_block(mixed, sep.x_row, sep.q, sigma)
    below_one = sep.below_one
    thresholds = {
        "construction": sep.q,
        "uniform": synthesis._uniform_q(len(rows)),
        "zero": ZERO,  # the _uniform_q -> ZERO case of the round dump test
        "half below": below_one * S(Fraction(1, 2)),
        "below_one": below_one,  # sign must compute: ties give sign 0
        "just above": below_one + S(Fraction(1, 2**80)),
    }
    for name, q in thresholds.items():
        got = synthesis._activated(mixed, sep.permutation, sep.x_row, below_one, q, sigma)
        assert got == _explicit_block(mixed, sep.x_row, q, sigma), name


def test_below_one_is_the_largest_ratio_below_one():
    for seed in range(6):
        rows = as_matrix(_separation_inputs(seed, 4 + seed))
        sep, mixed, _ = synthesis._separation(rows, "relu")
        ratios = [m * xj for m in mixed for xj in sep.x_row]
        assert sep.below_one == max((r for r in ratios if r < ONE), default=ZERO)
        assert [mixed[i] for i in sep.permutation] == sorted(mixed, reverse=True)


# -- synthesis with the plain exact order ----------------------------------------


def _ring(n):
    edges = [(v, v % n + 1) for v in range(1, n + 1)] + [(1, n // 2), (2, n // 3 + 2)]
    return make_graph(n, edges, [(1,)] * n)


@pytest.mark.parametrize(
    "name, graph",
    [
        ("fig1", builtin_graph("fig1")),
        ("path5", make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [(1,)] * 5)),
        ("ring12", _ring(12)),
    ],
)
@pytest.mark.parametrize("sigma", ["relu", "sign"])
def test_synthesis_certificates_match_plain_exact_order(monkeypatch, name, graph, sigma):
    # every order fact the synthesizer takes from enclosures, and every
    # block entry it reads off the order, gives the certificate that plain
    # exact comparisons and explicit activations give
    rounds = wl_run(graph).stabilized_at or 1
    fast = synthesis.synthesize_dgnn6(graph, rounds, sigma).to_json_text()
    monkeypatch.setattr(synthesis, "exact_max", lambda values: max(values))
    monkeypatch.setattr(synthesis, "exact_min", lambda values: min(values))
    monkeypatch.setattr(synthesis, "exact_order", lambda values, reverse=False: _reference_order(values, reverse))
    monkeypatch.setattr(
        synthesis,
        "_activated",
        lambda mixed, order, x_row, below_one, q, sigma: _explicit_block(mixed, x_row, q, sigma),
    )
    assert synthesis.synthesize_dgnn6(graph, rounds, sigma).to_json_text() == fast
