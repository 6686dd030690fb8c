"""Sign rounds settled by integer bounds, against the exact per-edge reference.

run_mpnn decides a sign-activated entry from bounds lo <= x * 2**B <= hi of
its pre-activation at B = 64, 128 and 256 bits and evaluates exactly only
the keys those leave open.  Each test here compares the closed form with
``CustomLayer(*builtin_layer(...))``, which evaluates every message exactly,
and counts the keys that went to the exact path.

Every check is a test assertion, never an ``assert`` inside the library, so
the module also runs under ``python -O``.
"""
import random
from fractions import Fraction

import pytest

from wlmpnn import mpnn
from wlmpnn.cases import sample_graph
from wlmpnn.graphs import make_graph
from wlmpnn.mpnn import (
    BuiltinLayer,
    CustomLayer,
    DegreeFn,
    LayerParams,
    MpnnSpec,
    builtin_layer,
    lift_plus_one,
    run_mpnn,
)
from wlmpnn.surd import MINUS_ONE, ONE, ZERO, ExactScalar
from wlmpnn.synthesis import synthesize_dgnn6, synthesize_gnn_minus
from wlmpnn.wl import wl_run

S = ExactScalar


def _cycle(n: int, labels):
    return make_graph(n, [(v, v % n + 1) for v in range(1, n + 1)], labels)


def _per_edge(layer):
    return CustomLayer(*builtin_layer(layer.family, layer.params))


def _reference(spec: MpnnSpec) -> MpnnSpec:
    """The spec of builtin layers with each replaced by its per-edge view."""
    return MpnnSpec(spec.f_mode, tuple(map(_per_edge, spec.layers)))


@pytest.fixture
def exact_keys(monkeypatch):
    """The number of keys each exact pass of run_mpnn's ``propagate``
    evaluated, pass by pass; its bound passes are not counted."""
    calls = []
    propagate = mpnn.propagate

    def counting(g, at, arith, *args):
        if arith is mpnn.SURD:
            calls.append(len(at))
        return propagate(g, at, arith, *args)

    monkeypatch.setattr(mpnn, "propagate", counting)
    return calls


@pytest.fixture
def bits_used(monkeypatch):
    """The precisions at which the bound pass enclosed a value."""
    seen = set()
    enclosure = mpnn.enclosure

    def recording(x, bits, roots):
        seen.add(bits)
        return enclosure(x, bits, roots)

    monkeypatch.setattr(mpnn, "enclosure", recording)
    return seen


def _run_both(g, spec, reference=None):
    closed, reference = run_mpnn(g, spec), run_mpnn(g, reference or _reference(spec))
    assert closed.labellings == reference.labellings
    assert closed.partitions == reference.partitions
    return closed


def _gnn(w2, bias, w1=None):
    w1 = w1 or tuple((ZERO,) * len(w2[0]) for _ in w2)
    return MpnnSpec("zero", (BuiltinLayer("gnn", LayerParams(w1=w1, w2=w2, bias=bias, sigma="sign")),))


def test_structurally_zero_rows_settle_as_zero_without_exact_evaluation(monkeypatch):
    # a zero weight column with no bias, and a zero label row under any
    # weight: every such entry is a sum of products by an exact 0, whose
    # bounds are lo = hi = 0
    propagate = mpnn.propagate

    def refuse(g, at, arith, *args):
        if arith is mpnn.SURD:
            raise AssertionError("a structurally zero row went to the exact pass")
        return propagate(g, at, arith, *args)

    labels = [(S.sqrt(2), ZERO), (ZERO, ZERO), (ONE, S.sqrt(3)), (ZERO, ZERO)]
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)], labels)
    w2 = ((S.sqrt(5), ZERO), (-S.sqrt(7), ZERO))
    spec = _gnn(w2, (ZERO, ZERO))
    reference = run_mpnn(g, _reference(spec))
    monkeypatch.setattr(mpnn, "propagate", refuse)
    closed = run_mpnn(g, spec)
    assert closed.labellings == reference.labellings
    assert all(row[1] is ZERO for row in closed.labellings[1])
    assert closed.labellings[1][0] == (ZERO, ZERO)  # its neighbours 2 and 4 have zero rows
    assert closed.labellings[1][1] == (ONE, ZERO)  # sqrt(2) sqrt(5) + sqrt(5) - sqrt(21)


def test_zero_by_irrational_cancellation_goes_exact(exact_keys, bits_used):
    # pre = 2 * sqrt(2) * sqrt(2) - 4 = 0: the bounds of the irrational
    # products straddle zero at every precision, so the key goes exact
    g = _cycle(4, [(S.sqrt(2),)] * 4)
    closed = _run_both(g, _gnn(((S.sqrt(2),),), (S(-4),)))
    assert closed.labellings[1] == ((ZERO,),) * 4
    assert bits_used == {64, 128, 256}
    assert exact_keys == [1]  # one key: the cycle's vertices are alike


@pytest.mark.parametrize("sign", [1, -1])
def test_values_near_zero_settle_only_after_doubling(exact_keys, bits_used, sign):
    # x = 2**-50 and w = +-2**-50 on a cycle: pre = +-2 * 2**-100, whose
    # bounds at 64 bits are [0, 1] or [-1, 0] and at 128 bits exact
    g = _cycle(5, [(S(Fraction(1, 2**50)),)] * 5)
    closed = _run_both(g, _gnn(((S(Fraction(sign, 2**50)),),), (ZERO,)))
    assert closed.labellings[1] == (((ONE if sign > 0 else MINUS_ONE),),) * 5
    assert bits_used == {64, 128}
    assert exact_keys == []


@pytest.mark.parametrize("sign", [1, -1])
def test_irrational_values_near_zero_settle_only_after_doubling(exact_keys, bits_used, sign):
    # pre = +-2 * sqrt(2) * 2**-50 * sqrt(3) * 2**-50 = +-2 * sqrt(6) * 2**-100:
    # no bound of an irrational factor is exact, and 64 bits cannot decide it
    g = _cycle(3, [(S.sqrt(2, Fraction(1, 2**50)),)] * 3)
    closed = _run_both(g, _gnn(((S.sqrt(3, Fraction(sign, 2**50)),),), (ZERO,)))
    assert closed.labellings[1] == (((ONE if sign > 0 else MINUS_ONE),),) * 3
    assert bits_used == {64, 128}
    assert exact_keys == []


@pytest.mark.parametrize("family", ["dgnn2", "dgnn4"])
@pytest.mark.parametrize("sign", [1, -1])
def test_scaled_values_near_zero_settle_only_after_doubling(exact_keys, bits_used, family, sign):
    # the same products scaled by g = h = 1/sqrt(2) (dgnn2) or 1/sqrt(3)
    # with the self term p = 1 (dgnn4): pre = +-2**-100 on the cycle, and
    # every bound of a scaled row is rounded from an irrational product
    g = _cycle(5, [(S(Fraction(1, 2**50)),)] * 5)
    layer = BuiltinLayer(family, LayerParams(w2=((S(Fraction(sign, 2**50)),),), sigma="sign"))
    closed = _run_both(g, MpnnSpec("degree", (layer,)))
    assert closed.labellings[1] == (((ONE if sign > 0 else MINUS_ONE),),) * 5
    assert bits_used == {64, 128}
    assert exact_keys == []


@pytest.mark.parametrize("sign", [1, -1])
def test_values_past_the_precision_cap_go_exact(exact_keys, bits_used, sign):
    # pre = +-2 * 2**-3000: open at 256 bits, so the key is evaluated exactly
    g = _cycle(4, [(S(Fraction(1, 2**1500)),)] * 4)
    closed = _run_both(g, _gnn(((S(Fraction(sign, 2**1500)),),), (ZERO,)))
    assert closed.labellings[1] == (((ONE if sign > 0 else MINUS_ONE),),) * 4
    assert bits_used == {64, 128, 256}
    assert exact_keys == [1]


def test_only_open_keys_go_exact(exact_keys):
    # a path's two keys: its ends see one neighbour and its inner vertices
    # two, so pre = deg * sqrt(2) * sqrt(2) - 4 is -2 at the ends, settled by
    # bounds, and exactly 0 inside, which goes exact
    g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [(S.sqrt(2),)] * 5)
    closed = _run_both(g, _gnn(((S.sqrt(2),),), (S(-4),)))
    assert [row[0] for row in closed.labellings[1]] == [MINUS_ONE, ZERO, ZERO, ZERO, MINUS_ONE]
    assert exact_keys == [1]


def test_looser_valid_bounds_never_settle_an_open_entry(monkeypatch, exact_keys):
    # bounds widened by one on either side are still valid: lo = 0 < hi or
    # lo < 0 = hi then leave the entry open, even where the value is 0
    enclosure = mpnn.enclosure
    g = make_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)], [(ONE, ZERO), (ZERO, ONE), (ONE, ONE), (ZERO, ZERO)])
    spec = _gnn(((ONE, ZERO), (ZERO, ZERO)), (ZERO, ZERO))
    expected = run_mpnn(g, _reference(spec)).labellings
    for widen in (0, 1), (-1, 0):

        def looser(x, bits, roots):
            lo, hi = enclosure(x, bits, roots)
            return lo + widen[0], hi + widen[1]

        monkeypatch.setattr(mpnn, "enclosure", looser)
        assert run_mpnn(g, spec).labellings == expected
    assert sum(exact_keys) > 0


def _random_sign_layer(rng, family, width, out, max_degree):
    def entry():
        return S.sqrt(rng.choice((1, 2, 3, 6)), Fraction(rng.randint(-3, 3), rng.choice((1, 2))))

    w = tuple(tuple(entry() for _ in range(out)) for _ in range(width))
    bias = tuple(S(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))) for _ in range(out))
    if family == "dgnn6":
        r, p = S(Fraction(rng.randint(1, 4), 4)), S(Fraction(rng.randint(0, 4), 4))
        return LayerParams(w2=w, bias=bias, r=r, p=p, sigma="sign")
    g_table = {d: S.sqrt(d, Fraction(1, rng.randint(1, 3))) for d in range(1, max_degree + 1)}
    h_table = {d: S.sqrt(d + 1, Fraction(1, rng.randint(1, 3))) for d in range(1, max_degree + 1)}
    return LayerParams(
        w1=tuple(tuple(S(rng.randint(-2, 2)) for _ in range(out)) for _ in range(width)),
        w2=w,
        bias=bias,
        p=S(Fraction(rng.randint(1, 4), 4)),
        sigma="sign",
        g_fn=DegreeFn.from_table(g_table),
        h_fn=DegreeFn.from_table(h_table),
    )


@pytest.mark.parametrize("family", ["general-dgnn", "dgnn6"])
def test_tabulated_and_lifted_sign_layers_match_the_reference(family):
    # general-dgnn with distinct tabulated g and h, and dgnn6, whose g and
    # h are one table; each also lifted once and twice, where the round
    # runs on the inner rows' classes
    for seed in range(4):
        rng = random.Random(f"sign-bounds:{family}:{seed}")
        g = sample_graph(rng.randint(5, 9), 0.35, 700 + seed, alphabet=2)
        width, layers = g.label_dim, []
        for _ in range(3):
            out = rng.randint(1, 3)
            layers.append(BuiltinLayer(family, _random_sign_layer(rng, family, width, out, g.n - 1)))
            width = out
        spec = MpnnSpec("degree", tuple(layers))
        reference = _reference(spec)
        _run_both(g, spec, reference)
        for _ in range(2):
            spec, reference = lift_plus_one(spec), lift_plus_one(reference)
            _run_both(g, spec, reference)


def _criterion_graphs():
    """The 50 graphs of acceptance criteria 4 and 5."""
    for i in range(50):
        n = random.Random(i * 7919 + 13).randint(4, 10)
        yield sample_graph(n, Fraction(2, 5), seed=1000 + i, alphabet=3, require_connected=True)


def test_criterion_sign_certificates_replay_without_exact_evaluation(exact_keys):
    # every certificate is synthesized before the count starts, so the
    # synthesizer's exact pre-weight rows are not counted
    replays = [
        (g, synthesize(g, wl_run(g).stabilized_at, "sign").to_spec())
        for g in _criterion_graphs()
        for synthesize in (synthesize_gnn_minus, synthesize_dgnn6)
    ]
    exact_keys.clear()
    for g, spec in replays:
        _run_both(g, spec)
    assert sum(spec.rounds for _, spec in replays) == 226
    assert exact_keys == []


def test_a_rebounding_pass_lifts_only_what_its_open_keys_read(monkeypatch, exact_keys):
    # dgnn1 on a path of distinct labels: pre_v, the sum of x_u over v's
    # neighbours u divided by d_v, minus 1, is 2**-100 at vertex 1 alone,
    # open at 64 bits and settled at 128; every other key's is at least 5
    # and settles at 64 bits
    enclosed: dict[int, set] = {}
    enclosure = mpnn.enclosure

    def recording(x, bits, roots):
        enclosed.setdefault(bits, set()).add(x)
        return enclosure(x, bits, roots)

    near_one = S(1) + S(Fraction(1, 2**100))
    labels = [S(5), near_one, S(7), S(11), S(13), S(17)]
    g = make_graph(6, [(v, v + 1) for v in range(1, 6)], [(x,) for x in labels])
    spec = MpnnSpec("degree", (BuiltinLayer("dgnn1", LayerParams(w2=((ONE,),), bias=(MINUS_ONE,), sigma="sign")),))
    monkeypatch.setattr(mpnn, "enclosure", recording)
    closed = _run_both(g, spec)
    assert closed.labellings[1] == ((ONE,),) * 6
    parameters = {ONE, MINUS_ONE, S(Fraction(1, 2))}  # W, B and g = 1/d at degrees 1 and 2
    assert set(enclosed) == {64, 128}
    assert enclosed[64] - parameters == set(labels)
    assert enclosed[128] - parameters == {S(5), near_one}  # the labels of vertices 1 and 2
    assert exact_keys == []
