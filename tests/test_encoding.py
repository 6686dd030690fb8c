"""The label-injection encoding: prime powers, digit sums, decoding, and the
message-passing realization of refinement."""
import itertools
from fractions import Fraction

import pytest

from wlmpnn.cases import make_graph, sample_graph
from wlmpnn.mpnn import run_mpnn
from wlmpnn.surd import ExactScalar, LimitError
from wlmpnn.wl import (
    NotInImageError,
    _prime,
    alpha_encode,
    cantor_pair,
    encoded_wl_spec,
    h_inject,
    label_tau,
    phi_inverse,
    phi_sum,
    scalar_index,
    scalar_representation,
    wl_partitions,
    wl_run,
)


def test_alpha_all_zero_is_one():
    assert alpha_encode([], 0, 0, 0, 0) == 1
    assert alpha_encode([0, 0, 0], 0, 0, 0, 0) == 1


def test_alpha_paper_slot_example():
    # slots: 3^1 * 7^0 * 13^1 * 19^1
    assert alpha_encode([], 1, 0, 1, 1) == 3 * 13 * 19 == 741


def test_alpha_negative_uses_odd_primes():
    # slot 1 negative -> 5, coefficient slot 0 negative -> 31
    assert alpha_encode([], -1, 0, 1, 1) == 5 * 13 * 19
    assert alpha_encode([-1], 0, 0, 0, 0) == 31


def test_prime_lookup_matches_sympy():
    # the slot primes come from trial division on every call, with no table;
    # k = 300 is the prime 1987
    sympy = pytest.importorskip("sympy")
    assert [_prime(k) for k in range(1, 301)] == [sympy.prime(k) for k in range(1, 301)]


def test_alpha_injective_on_micro_domain():
    coeff_lists = [()]
    for length in (1, 2):
        for combo in itertools.product((-1, 0, 1), repeat=length):
            if combo[-1] != 0:  # canonical: no trailing zeros
                coeff_lists.append(combo)
    rationals = [(0, 1), (1, 1), (-1, 1), (1, 2)]
    seen = {}
    for coeffs in coeff_lists:
        for n1, d1 in rationals:
            for n2, d2 in rationals:
                key = (coeffs, n1, d1, n2, d2)
                value = alpha_encode(coeffs, n1, n2, d1, d2)
                assert value not in seen or seen[value] == key
                seen[value] = key


def test_scalar_representation_of_rationals():
    assert scalar_representation(ExactScalar(Fraction(3, 4))) == ((), 3, 0, 4, 1)
    assert scalar_index(ExactScalar(0)) == 13 * 19 == 247
    assert scalar_index(ExactScalar(1)) == 741
    assert scalar_index(ExactScalar(2)) == 3 * 741


def test_scalar_representation_of_surds_is_injective():
    root2 = ExactScalar.sqrt(2)
    coeffs, n1, n2, d1, d2 = scalar_representation(root2)
    assert coeffs == (-2, 0, 1)  # T**2 - 2, primitive with positive lead
    assert Fraction(n1, d1) < 2**0.5 < Fraction(n2, d2)
    neg = scalar_representation(-root2)
    assert neg[0] == coeffs and (neg[1:]) != (n1, n2, d1, d2)


def test_label_tau_guard():
    with pytest.raises(LimitError, match="component index 861235747047 exceeds the guard 1000000"):
        label_tau((ExactScalar(20),))
    with pytest.raises(LimitError, match="tuple index 1099644 exceeds the guard 1000000"):
        label_tau((ExactScalar(1), ExactScalar(1), ExactScalar(1)))
    # irrational components are representable but blow up the index
    with pytest.raises(LimitError):
        label_tau((ExactScalar.sqrt(2),))


def test_h_inject_formula_with_stubbed_index():
    tau = lambda row: {("a",): 1, ("b",): 2}[row]
    assert h_inject(("a",), 3, tau) == Fraction(1, 4)
    assert h_inject(("b",), 3, tau) == Fraction(1, 16)


def test_h_inject_injective_on_micro_labels():
    labels = [(ExactScalar(k),) for k in range(4)]
    values = {h_inject(row, 5) for row in labels}
    assert len(values) == 4


def test_phi_sum_examples():
    tau = lambda row: {("x",): 1, ("y",): 2}[row]
    assert phi_sum([], 5, tau) == 0
    assert phi_sum([("x",)], 5, tau) == Fraction(1, 6)
    assert phi_sum([("x",), ("x",), ("y",)], 5, tau) == Fraction(2, 6) + Fraction(1, 36) == Fraction(13, 36)


def test_phi_sum_oversize_multiset_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        phi_sum([("x",)] * 6, 5, lambda row: 1)


def test_phi_inverse_examples():
    tau = lambda row: {("x",): 1, ("y",): 2}[row]
    dictionary = [("x",), ("y",)]
    assert phi_inverse(Fraction(0), 5, dictionary, tau) == []
    recovered = phi_inverse(Fraction(13, 36), 5, dictionary, tau)
    assert sorted(recovered) == [("x",), ("x",), ("y",)]


def test_phi_inverse_rejects_out_of_image():
    tau = lambda row: {("x",): 2, ("y",): 3}[row]
    dictionary = [("x",), ("y",)]
    # 1/2 = digit 3 at position 1, but no dictionary label sits at position 1
    with pytest.raises(NotInImageError):
        phi_inverse(Fraction(1, 2), 5, dictionary, tau)
    with pytest.raises(NotInImageError):
        phi_inverse(Fraction(3, 2), 5, dictionary, tau)
    with pytest.raises(NotInImageError):
        phi_inverse(Fraction(1, 7), 5, dictionary, tau)


def test_phi_round_trip_exhaustive():
    # all multisets of size <= 5 over a 3-label dictionary, n = 5: 56 of them
    dictionary = [(ExactScalar(k),) for k in range(3)]
    count = 0
    for size in range(6):
        for combo in itertools.combinations_with_replacement(dictionary, size):
            value = phi_sum(list(combo), 5)
            recovered = phi_inverse(value, 5, dictionary)
            assert sorted(recovered) == sorted(combo)
            count += 1
    assert count == 56


def test_cantor_pair_basics():
    seen = set()
    for a in range(20):
        for b in range(20):
            seen.add(cantor_pair(a, b))
    assert len(seen) == 400


def micro_graph(seed):
    import random

    rng = random.Random(seed)
    base = sample_graph(rng.randint(3, 5), 0.6, seed + 77, alphabet=1)
    labels = [(rng.randrange(3),) for _ in range(base.n)]
    return make_graph(base.n, sorted(base.edges), labels)


def test_encoded_refinement_matches_dictionary_refinement():
    for seed in range(10):
        g = micro_graph(seed)
        rounds = wl_run(g).stabilized_at
        encoded = run_mpnn(g, encoded_wl_spec(g, rounds))
        reference = wl_partitions(g, rounds)
        for t in range(rounds + 1):
            assert encoded.partitions[t] == reference[t], (seed, t)
