"""Exact dense linear algebra over the surd field.

Matrices are tuples of row tuples of ExactScalar.  One elimination routine,
``_eliminate``, serves every solver, with exact zero tests, so ranks,
inverses, kernels and determinants are certificates rather than numerical
estimates.  ``rank`` and ``determinant`` stop at a row echelon form (clear
below each pivot only); ``right_inverse`` and ``nullspace_basis`` need the
reduced form (pivots scaled to 1, columns cleared above and below), from
which solutions are read off directly.  The reduced form, the rank and the
determinant are unique, so each caller takes the cheaper form it can.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .surd import ONE, ZERO, ExactScalar

Row = tuple[ExactScalar, ...]
Matrix = tuple[Row, ...]


class DependentRowsError(ValueError):
    """The unique rows of a matrix are linearly dependent."""


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, ExactScalar) else ExactScalar(Fraction(x)) for x in row))
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows")
    return tuple(out)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((ZERO,) * cols for _ in range(rows))


def row_add(a: Row, b: Row) -> Row:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def row_scale(row: Row, factor: ExactScalar) -> Row:
    return tuple(factor * x for x in row)


def row_mat(row: Row, m: Matrix) -> Row:
    """Row vector times matrix."""
    if len(row) != len(m):
        raise ValueError(f"width {len(row)} does not match matrix with {len(m)} rows")
    cols = len(m[0]) if m else 0
    out = [ZERO] * cols
    for x, mrow in zip(row, m):
        if x.is_zero:
            continue
        for j, y in enumerate(mrow):
            if not y.is_zero:
                out[j] = out[j] + x * y
    return tuple(out)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(row_mat(row, b) for row in a)


def outer(col: Row, row: Row) -> Matrix:
    return tuple(tuple(c * r for r in row) for c in col)


def unique_rows(rows: Sequence[Row]) -> tuple[list[Row], list[int]]:
    """Distinct rows in first-occurrence order plus the row -> index map."""
    seen: dict[Row, int] = {}
    index = []
    for row in rows:
        if row not in seen:
            seen[row] = len(seen)
        index.append(seen[row])
    return list(seen), index


def _eliminate(rows: Sequence[Row], ncols: int | None = None, reduced: bool = True):
    """Eliminate a copy of rows, pivoting in the first ncols columns (all by
    default) on the first nonzero entry at or below the current rank.

    reduced=True scales each pivot row to 1 and clears its column above and
    below, giving the reduced row echelon form.  reduced=False only clears
    below, with the pivot rows left unscaled, giving a row echelon form.
    Stops once every row has a pivot.  Returns (rows, pivot columns, number
    of row swaps).
    """
    work = [list(r) for r in rows]
    n_rows = len(work)
    pivots: list[int] = []
    swaps = 0
    if ncols is None:
        ncols = len(work[0]) if work else 0
    for col in range(ncols):
        rank_so_far = len(pivots)
        if rank_so_far == n_rows:
            break
        pivot = next((r for r in range(rank_so_far, n_rows) if not work[r][col].is_zero), None)
        if pivot is None:
            continue
        if pivot != rank_so_far:
            work[rank_so_far], work[pivot] = work[pivot], work[rank_so_far]
            swaps += 1
        prow = work[rank_so_far]
        inv = prow[col].invert()
        if reduced:
            prow = work[rank_so_far] = [inv * x for x in prow]
        for r in range(0 if reduced else rank_so_far + 1, n_rows):
            if r != rank_so_far and not work[r][col].is_zero:
                factor = work[r][col] if reduced else work[r][col] * inv
                work[r] = [x - factor * y for x, y in zip(work[r], prow)]
        pivots.append(col)
    return work, pivots, swaps


def rank(rows: Sequence[Row]) -> int:
    return len(_eliminate(rows, reduced=False)[1])


def rows_linearly_independent(rows: Sequence[Row]) -> bool:
    return rank(rows) == len(rows)


def right_inverse(matrix: Sequence[Row]) -> Matrix:
    """U with uniq(matrix) @ U = I, for a matrix whose unique rows are independent.

    Solved by reducing [uniq | I] on the columns of uniq; free variables are
    set to zero.  Raises DependentRowsError, a ValueError, when the unique
    rows are linearly dependent.
    The returned product is re-verified exactly before returning; a failed
    verification raises ArithmeticError.
    """
    uniq, _ = unique_rows(tuple(matrix))
    m = len(uniq)
    width = len(uniq[0])
    aug = [row + tuple(ONE if i == j else ZERO for j in range(m)) for i, row in enumerate(uniq)]
    work, pivots, _ = _eliminate(aug, ncols=width)
    if len(pivots) < m:
        raise DependentRowsError("unique rows are linearly dependent; no right inverse exists")
    out = [[ZERO] * m for _ in range(width)]
    for row, col in zip(work, pivots):
        out[col] = row[width:]
    u = as_matrix(out)
    product = mat_mul(tuple(uniq), u)
    if product != identity(m):
        raise ArithmeticError("right inverse verification failed")
    return u


def determinant(matrix: Sequence[Row]) -> ExactScalar:
    """(-1)^swaps times the diagonal product of a row echelon form."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant requires a square matrix")
    work, pivots, swaps = _eliminate(matrix, reduced=False)
    if len(pivots) < n:
        return ZERO
    det = -ONE if swaps % 2 else ONE
    for i in range(n):
        det = det * work[i][i]
    return det


def nullspace_basis(rows: Sequence[Row], width: int) -> Matrix:
    """Columns spanning {x : row @ x = 0 for every row}; shape width x k.

    Each column sets one free variable of the reduced form to 1 and the
    others to 0; k is 0 when the rows span the full space.  Empty row input
    yields the identity.
    """
    if not rows:
        return identity(width)
    work, pivots, _ = _eliminate(rows, ncols=width)
    pivot_set = set(pivots)
    basis_cols = []
    for free in (c for c in range(width) if c not in pivot_set):
        vec = [ZERO] * width
        vec[free] = ONE
        for row, piv in zip(work, pivots):
            vec[piv] = -row[free]
        basis_cols.append(vec)
    return tuple(tuple(col[i] for col in basis_cols) for i in range(width))


def matrix_to_text(matrix: Matrix) -> list[list[str]]:
    return [[x.to_text() for x in row] for row in matrix]


def matrix_from_text(cells: Sequence[Sequence[str]]) -> Matrix:
    from .surd import parse_scalar

    return as_matrix([[parse_scalar(c) for c in row] for row in cells])
