"""Exact linear algebra against sympy: rank, determinant, echelon form,
kernel, right inverse and solve, on seeded rational matrices and small surd
ones; and the modular independence test against inputs whose image loses
rank or does not exist."""
import random
from fractions import Fraction

import pytest

from wlmpnn import linalg, surd
from wlmpnn.linalg import (
    DependentRowsError,
    as_matrix,
    determinant,
    identity,
    mat_mul,
    nullspace_basis,
    rank,
    right_inverse,
    rows_linearly_independent,
    solve,
    unique_rows,
)
from wlmpnn.surd import ONE, RESIDUE_PRIME, RESIDUE_ROOTS, ZERO, ExactScalar, residues
from wlmpnn.synthesis import _separation

sympy = pytest.importorskip("sympy")

S = ExactScalar


def M(rows):
    return as_matrix([[Fraction(x) for x in row] for row in rows])


def _sym(x: ExactScalar):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r) for r, c in x.terms.items()))


def _sym_matrix(rows, width):
    return sympy.Matrix(len(rows), width, [_sym(x) for row in rows for x in row])


def _random_matrix(rng, n_rows, n_cols, inner=None):
    """Seeded rational entries, about a third of them zero; with inner set,
    the product of an n_rows x inner and an inner x n_cols matrix, so the rank
    is at most inner."""

    def entries(r, c):
        return [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0 for _ in range(c)]
            for _ in range(r)
        ]

    if inner is None:
        return M(entries(n_rows, n_cols))
    return mat_mul(M(entries(n_rows, inner)), M(entries(inner, n_cols)))


SHAPES = [
    (3, 3, None),
    (4, 4, None),
    (4, 4, 2),  # rank-deficient square
    (2, 5, None),  # wide
    (3, 6, 2),  # wide, rank-deficient
    (6, 3, None),  # tall
    (5, 4, 3),  # tall, rank-deficient
    (1, 4, None),
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_rows,n_cols,inner", SHAPES)
def test_rational_matrices_match_sympy(seed, n_rows, n_cols, inner):
    rng = random.Random(seed * 1000 + n_rows * 10 + n_cols)
    rows = _random_matrix(rng, n_rows, n_cols, inner)
    sm = _sym_matrix(rows, n_cols)
    assert rank(rows) == sm.rank()
    assert rows_linearly_independent(rows) == (sm.rank() == n_rows)
    echelon, pivots, _, _ = linalg._eliminate(rows)
    expected, expected_pivots = sm.rref()
    assert tuple(pivots) == tuple(expected_pivots)
    # a row echelon form (zero left of each pivot, rows past the rank zero)
    # of the same row space, so it reduces to sympy's reduced form
    assert all(echelon[i][c].is_zero for i, pivot in enumerate(pivots) for c in range(pivot))
    assert all(x.is_zero for row in echelon[len(pivots) :] for x in row)
    assert _sym_matrix(echelon, n_cols).rref()[0] == expected
    kernel = nullspace_basis(rows, n_cols)
    expected_kernel = sm.nullspace()
    assert len(kernel) == n_cols
    assert all(len(row) == len(expected_kernel) for row in kernel)
    for j, column in enumerate(expected_kernel):
        assert [_sym(row[j]) for row in kernel] == list(column)
    if n_rows == n_cols:
        assert _sym(determinant(rows)) == sm.det()
    uniq, _ = unique_rows(rows)
    if rows_linearly_independent(uniq):
        assert mat_mul(tuple(uniq), right_inverse(rows)) == identity(len(uniq))


def test_echelon_form_clears_below_pivots_only():
    rows = M([[2, 4, 1], [1, 3, 2], [3, 1, 1]])
    echelon, pivots, swaps, _ = linalg._eliminate(rows)
    assert pivots == [0, 1, 2] and swaps == 0
    assert echelon[0] == list(rows[0])  # pivot row left unscaled
    assert all(echelon[r][c].is_zero for c in range(3) for r in range(c + 1, 3))
    assert determinant(rows) == echelon[0][0] * echelon[1][1] * echelon[2][2]


def test_leading_zero_column():
    rows = M([[0, 1, 2], [0, 3, 4]])
    assert rank(rows) == 2
    assert linalg._eliminate(rows)[1] == [1, 2]
    assert nullspace_basis(rows, 3) == M([[1], [0], [0]])
    u = right_inverse(rows)
    assert u[0] == (ZERO, ZERO)  # no pivot in column 0: free variable zero
    assert mat_mul(rows, u) == identity(2)


def test_forced_row_swap_flips_determinant_sign():
    assert determinant(M([[0, 1], [1, 0]])) == S(-1)
    assert linalg._eliminate(M([[0, 1], [1, 0]]))[2] == 1
    rows = M([[0, 2, 1], [0, 1, 1], [3, 0, 1]])
    assert linalg._eliminate(rows)[2] == 1
    assert _sym(determinant(rows)) == _sym_matrix(rows, 3).det() == 3
    assert mat_mul(rows, right_inverse(rows)) == identity(3)


def test_singular_square_matrix_has_zero_determinant():
    rows = M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert determinant(rows) == ZERO
    assert rank(rows) == 2
    assert not rows_linearly_independent(rows)


def test_empty_and_degenerate_inputs():
    assert nullspace_basis((), 3) == identity(3)
    assert rank(()) == 0
    assert rows_linearly_independent(())
    assert determinant(()) == ONE
    assert rank(((ZERO,) * 3,) * 2) == 0
    assert nullspace_basis(((ZERO,) * 3,) * 2, 3) == identity(3)
    full = nullspace_basis(identity(3), 3)
    assert full == ((), (), ())  # width rows, no columns
    with pytest.raises(ValueError, match="square"):
        determinant(M([[1, 2, 3], [4, 5, 6]]))


def _surd(rng):
    """A seeded element of Q(sqrt 2, sqrt 3) with small coefficients."""
    value = ZERO
    for radicand in (1, 2, 3, 6):
        if rng.random() < 0.6:
            value = value + S(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) * S.sqrt(radicand)
    return value


def _surd_matrix(rng, n_rows, n_cols):
    return tuple(tuple(_surd(rng) for _ in range(n_cols)) for _ in range(n_rows))


@pytest.mark.parametrize("seed", range(5))
def test_surd_determinant_matches_sympy(seed):
    rng = random.Random(seed)
    for n in (2, 3):
        rows = _surd_matrix(rng, n, n)
        assert sympy.expand(_sym(determinant(rows)) - _sym_matrix(rows, n).det()) == 0


@pytest.mark.parametrize("seed", range(5))
def test_surd_kernel_and_right_inverse(seed):
    rng = random.Random(100 + seed)
    # rank at most 2: a 3 x 2 times a 2 x 4 product
    rows = mat_mul(_surd_matrix(rng, 3, 2), _surd_matrix(rng, 2, 4))
    kernel = nullspace_basis(rows, 4)
    k = len(kernel[0])
    assert rank(rows) + k == 4
    assert mat_mul(rows, kernel) == ((ZERO,) * k,) * 3
    assert rank(tuple(zip(*kernel))) == k  # the columns are independent
    wide = _surd_matrix(rng, 2, 4)
    uniq, _ = unique_rows(wide)
    if rows_linearly_independent(uniq):
        assert mat_mul(tuple(uniq), right_inverse(wide)) == identity(len(uniq))


# -- the modular independence test ------------------------------------------------

ELL = RESIDUE_PRIME


def test_residue_prime_and_roots():
    assert sympy.isprime(ELL)
    assert ELL % 8 == 1
    assert sorted(RESIDUE_ROOTS) == list(sympy.primerange(2, 48))
    for p, root in RESIDUE_ROOTS.items():
        assert ELL % p == 1 or p == 2
        assert root * root % ELL == p


@pytest.mark.parametrize("seed", range(5))
def test_residues_are_a_ring_map(seed):
    rng = random.Random(200 + seed)
    for _ in range(20):
        x, y = _surd(rng), _surd(rng) * S.sqrt(rng.choice((1, 5, 7, 35, 47)))
        rx, ry, rsum, rprod = residues([x, y, x + y, x * y])
        assert rsum == (rx + ry) % ELL
        assert rprod == rx * ry % ELL
    assert residues([S(Fraction(1, 3))]) == [pow(3, -1, ELL)]
    assert residues([S.sqrt(6)]) == [RESIDUE_ROOTS[2] * RESIDUE_ROOTS[3] % ELL]


def _without_exact_rank(monkeypatch):
    def refuse(rows):
        raise AssertionError("exact rank called")

    monkeypatch.setattr(linalg, "rank", refuse)


def test_full_rank_image_decides_without_exact_rank(monkeypatch):
    rows = _surd_matrix(random.Random(7), 3, 4)
    assert _sym_matrix(rows, 4).rank() == 3
    _without_exact_rank(monkeypatch)
    assert rows_linearly_independent(rows)


@pytest.mark.parametrize(
    "rows, independent",
    [
        # full rank over the surd field, image of rank 1: ell maps to 0
        (M([[1, 0], [0, ELL]]), True),
        (M([[1, 0], [ELL, ELL]]), True),
        # a denominator divisible by ell has no image
        (M([[Fraction(1, ELL), 0], [0, 1]]), True),
        (M([[Fraction(1, ELL), 1], [Fraction(2, ELL), 2]]), False),
        # 53 is outside the table of roots
        (((S.sqrt(53), ONE), (ONE, S.sqrt(53))), True),
        (((S.sqrt(53), ONE), (S(53), S.sqrt(53))), False),
        (((S.sqrt(106), S.sqrt(2)), (S.sqrt(2), S.sqrt(106))), True),
    ],
)
def test_images_that_lose_rank_or_do_not_exist_fall_back_to_exact_rank(rows, independent):
    assert linalg._residue_rank(rows) in (None, 1)
    assert rows_linearly_independent(rows) is independent
    assert (rank(rows) == len(rows)) is independent


def test_triangular_matrices_are_ranked_without_inversion(monkeypatch):
    # the activated block of a ReLU separation is triangular up to a row
    # permutation; a row echelon form of it needs no pivot inverted
    block = _separation(M([[3, 1, 0], [0, 2, 1], [1, 1, 1], [2, 0, 5]]), "relu")[2]
    surd_block = tuple(tuple(x * S.sqrt(53) for x in row) for row in block)

    def refuse(self):
        raise AssertionError("pivot inverted")

    monkeypatch.setattr(ExactScalar, "invert", refuse)
    assert rank(surd_block) == 4
    assert rows_linearly_independent(surd_block)
    assert not determinant(surd_block).is_zero


def test_each_pivot_is_inverted_once(monkeypatch):
    # elimination clears a row below every pivot but the last, so it inverts
    # those pivots, and back substitution reuses their inverses
    inverted = []
    invert = ExactScalar.invert

    def counting(self):
        inverted.append(surd.canonical_key(self))
        return invert(self)

    monkeypatch.setattr(ExactScalar, "invert", counting)
    dense = M([[2, 1, 1], [1, 3, 2], [1, 1, 4]])
    surd_dense = tuple(tuple(x + S.sqrt(2) for x in row) for row in dense)
    for rows in (dense, surd_dense):
        inverted.clear()
        assert mat_mul(rows, solve(rows, identity(3))) == identity(3)
        assert len(inverted) == 3 and len(set(inverted)) == 3
    wide = M([[1, 2, 3, 4], [2, 1, 1, 3]])
    inverted.clear()
    kernel = nullspace_basis(wide, 4)
    assert len(kernel[0]) == 2 and all(x.is_zero for row in mat_mul(wide, kernel) for x in row)
    assert len(inverted) == 2 and len(set(inverted)) == 2
    inverted.clear()
    assert rank(M([[1, 2, 3], [0, 4, 5], [0, 0, 6]])) == 3
    assert inverted == []


# -- solve ----------------------------------------------------------------------


def _check_solve(rows, rhs):
    uniq, _ = unique_rows(rows)
    y = solve(rows, rhs)
    assert mat_mul(tuple(uniq), y) == rhs
    assert y == mat_mul(right_inverse(rows), rhs)
    # sympy's solution with every free parameter zero, denominators rationalized
    solution, params = _sym_matrix(uniq, len(rows[0])).gauss_jordan_solve(_sym_matrix(rhs, len(rhs[0])))
    difference = _sym_matrix(y, len(rhs[0])) - solution.subs({t: 0 for t in params})
    assert difference.applyfunc(lambda e: sympy.expand(sympy.radsimp(e))).is_zero_matrix


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_rows, n_cols, k", [(3, 3, 1), (2, 5, 1), (3, 6, 4), (4, 4, 3), (1, 4, 2)])
def test_rational_solve_matches_right_inverse_and_sympy(seed, n_rows, n_cols, k):
    rng = random.Random(seed * 1000 + n_rows * 100 + n_cols * 10 + k)
    rows = _random_matrix(rng, n_rows, n_cols)
    uniq, _ = unique_rows(rows)
    rhs = _random_matrix(rng, len(uniq), k)
    if not rows_linearly_independent(uniq):
        with pytest.raises(DependentRowsError):
            solve(rows, rhs)
        return
    _check_solve(rows, rhs)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_rows, n_cols, k", [(2, 2, 1), (2, 4, 2), (3, 5, 1)])
def test_surd_solve_matches_right_inverse_and_sympy(seed, n_rows, n_cols, k):
    rng = random.Random(300 + seed)
    rows = _surd_matrix(rng, n_rows, n_cols)
    if not rows_linearly_independent(rows):
        return
    rhs = _surd_matrix(rng, n_rows, k)
    _check_solve(rows, rhs)


def test_solve_reads_free_columns_as_zero_and_repeated_rows_once():
    rows = M([[0, 1, 2, 0], [0, 3, 4, 1], [0, 1, 2, 0]])
    rhs = M([[1, 0], [2, 5]])
    y = solve(rows, rhs)
    assert y[0] == (ZERO, ZERO)  # no pivot in column 0
    _check_solve(rows, rhs)


def test_solve_rejects_dependent_rows_and_a_mismatched_right_hand_side():
    with pytest.raises(DependentRowsError):
        solve(M([[1, 2], [2, 4]]), M([[1], [1]]))
    with pytest.raises(ValueError, match="right-hand side"):
        solve(M([[1, 2], [3, 4]]), M([[1]]))


# -- row_mat and solve against pairwise folds -------------------------------------


def _fold_row_mat(row, m):
    """row @ m with every entry a left fold of pairwise products and sums."""
    out = [ZERO] * (len(m[0]) if m else 0)
    for x, mrow in zip(row, m):
        for j, y in enumerate(mrow):
            out[j] = out[j] + x * y
    return tuple(out)


def _fold_solve(matrix, rhs):
    """Gauss-Jordan on [uniq | rhs] by pairwise arithmetic, free variables zero."""
    uniq, _ = unique_rows(tuple(matrix))
    width = len(uniq[0])
    work = [list(row) + list(b) for row, b in zip(uniq, rhs)]
    pivots = []
    for col in range(width):
        r0 = len(pivots)
        pivot = next((r for r in range(r0, len(work)) if not work[r][col].is_zero), None)
        if pivot is None:
            continue
        work[r0], work[pivot] = work[pivot], work[r0]
        inv = work[r0][col].invert()
        work[r0] = [inv * x for x in work[r0]]
        for r in range(len(work)):
            if r != r0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[r0])]
        pivots.append(col)
    out = [[ZERO] * len(rhs[0]) for _ in range(width)]
    for row, col in zip(work, pivots):
        out[col] = row[width:]
    return tuple(tuple(r) for r in out)


def _sparse_surd_matrix(rng, n_rows, n_cols, zero_rows=(), zero_cols=()):
    """Seeded surd entries, about half of them zero, with the given rows and
    columns entirely zero."""
    return tuple(
        tuple(
            ZERO if i in zero_rows or j in zero_cols or rng.random() < 0.5 else _surd(rng)
            for j in range(n_cols)
        )
        for i in range(n_rows)
    )


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "n_inner, n_cols, zero_rows, zero_cols",
    [(3, 4, (), ()), (4, 3, (1,), ()), (5, 5, (0, 3), (2,)), (1, 3, (), (0, 2)), (6, 2, (), ())],
)
def test_row_mat_matches_pairwise_fold(seed, n_inner, n_cols, zero_rows, zero_cols):
    rng = random.Random(700 + seed)
    m = _sparse_surd_matrix(rng, n_inner, n_cols, zero_rows, zero_cols)
    for row in (_sparse_surd_matrix(rng, 1, n_inner)[0], (ZERO,) * n_inner, tuple(_surd(rng) for _ in range(n_inner))):
        assert linalg.row_mat(row, m) == _fold_row_mat(row, m)
    a = _sparse_surd_matrix(rng, 3, n_inner, zero_rows=(1,))
    assert mat_mul(a, m) == tuple(_fold_row_mat(row, m) for row in a)


def test_row_mat_degenerate_shapes_and_width_mismatch():
    row = (S(2), ZERO, S.sqrt(3))
    assert linalg.row_mat(row, ((), (), ())) == ()
    assert linalg.row_mat((), ()) == ()
    assert linalg.row_mat(row, ((ZERO,) * 2,) * 3) == (ZERO, ZERO)
    assert linalg.row_mat((ZERO, ZERO, ZERO), M([[1, 2], [3, 4], [5, 6]])) == (ZERO, ZERO)
    # one live pair per column is a plain product
    assert linalg.row_mat(row, identity(3)) == row
    with pytest.raises(ValueError, match="width 3 does not match matrix with 2 rows"):
        linalg.row_mat(row, M([[1], [2]]))
    with pytest.raises(ValueError, match="width 0 does not match matrix with 1 rows"):
        linalg.row_mat((), M([[1]]))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "n_rows, n_cols, k, zero_cols",
    [(2, 3, 2, ()), (3, 5, 2, (1,)), (3, 4, 1, (0, 3)), (4, 6, 3, (2,)), (2, 4, 0, ())],
)
def test_solve_matches_pairwise_fold(seed, n_rows, n_cols, k, zero_cols):
    rng = random.Random(900 + seed)
    rows = _sparse_surd_matrix(rng, n_rows, n_cols, zero_cols=zero_cols)
    uniq, _ = unique_rows(rows)
    rhs = _sparse_surd_matrix(rng, len(uniq), k, zero_rows=(0,))
    if not rows_linearly_independent(uniq):
        with pytest.raises(DependentRowsError):
            solve(rows, rhs)
        return
    y = solve(rows, rhs)
    assert y == _fold_solve(rows, rhs)
    assert all(y[c] == (ZERO,) * k for c in zero_cols)
