"""Exact dense linear algebra over the surd field.

Matrices are tuples of row tuples of ExactScalar.  Everything here runs
Gaussian elimination with exact zero tests, so ranks, inverses and
determinants are certificates rather than numerical estimates.
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


def _eliminate(rows: list[list[ExactScalar]]) -> int:
    """In-place forward elimination to row echelon form; returns the rank."""
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].invert()
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and not rows[r][col].is_zero:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank(rows: Sequence[Row]) -> int:
    return _eliminate([list(r) for r in rows])


def rows_linearly_independent(rows: Sequence[Row]) -> bool:
    return rank(rows) == len(rows)


def right_inverse(matrix: Sequence[Row]) -> Matrix:
    """U with uniq(matrix) @ U = I, for a matrix whose unique rows are independent.

    Solved by Gauss-Jordan elimination of [uniq | I]; free variables are set
    to zero.  Raises DependentRowsError, a ValueError, when the unique rows
    are linearly dependent.
    The returned product is re-verified exactly before returning; a failed
    verification raises ArithmeticError.
    """
    uniq, _ = unique_rows(tuple(matrix))
    m = len(uniq)
    width = len(uniq[0])
    aug = [list(row) + [ONE if i == j else ZERO for j in range(m)] for i, row in enumerate(uniq)]
    pivots: list[int] = []
    rank_so_far = 0
    for col in range(width):
        pivot = next((r for r in range(rank_so_far, m) if not aug[r][col].is_zero), None)
        if pivot is None:
            continue
        aug[rank_so_far], aug[pivot] = aug[pivot], aug[rank_so_far]
        inv = aug[rank_so_far][col].invert()
        aug[rank_so_far] = [inv * x for x in aug[rank_so_far]]
        for r in range(m):
            if r != rank_so_far and not aug[r][col].is_zero:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[rank_so_far])]
        pivots.append(col)
        rank_so_far += 1
        if rank_so_far == m:
            break
    if rank_so_far < m:
        raise DependentRowsError("unique rows are linearly dependent; no right inverse exists")
    out = [[ZERO] * m for _ in range(width)]
    for i, col in enumerate(pivots):
        for j in range(m):
            out[col][j] = aug[i][width + j]
    u = as_matrix(out)
    product = mat_mul(tuple(uniq), u)
    if product != identity(m):
        raise ArithmeticError("right inverse verification failed")
    return u


def determinant(matrix: Sequence[Row]) -> ExactScalar:
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant requires a square matrix")
    rows = [list(r) for r in matrix]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].invert()
        for r in range(col + 1, n):
            if not rows[r][col].is_zero:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def nullspace_basis(rows: Sequence[Row], width: int) -> Matrix:
    """Columns spanning {x : row @ x = 0 for every row}; shape width x k.

    Returns a matrix with zero columns count when the rows span the full
    space.  Empty row input yields the identity.
    """
    if not rows:
        return identity(width)
    work = [list(r) for r in rows]
    n_rows = len(work)
    pivots: list[int] = []
    rank_so_far = 0
    for col in range(width):
        pivot = next((r for r in range(rank_so_far, n_rows) if not work[r][col].is_zero), None)
        if pivot is None:
            continue
        work[rank_so_far], work[pivot] = work[pivot], work[rank_so_far]
        inv = work[rank_so_far][col].invert()
        work[rank_so_far] = [inv * x for x in work[rank_so_far]]
        for r in range(n_rows):
            if r != rank_so_far and not work[r][col].is_zero:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank_so_far])]
        pivots.append(col)
        rank_so_far += 1
        if rank_so_far == n_rows:
            break
    free_cols = [c for c in range(width) if c not in pivots]
    basis_cols = []
    for free in free_cols:
        vec = [ZERO] * width
        vec[free] = ONE
        for i, piv in enumerate(pivots):
            vec[piv] = -work[i][free]
        basis_cols.append(vec)
    return tuple(tuple(basis_cols[j][i] for j in range(len(basis_cols))) for i in range(width))


def matrix_to_text(matrix: Matrix) -> list[list[str]]:
    return [[x.to_text() for x in row] for row in matrix]


def matrix_from_text(cells: Sequence[Sequence[str]]) -> Matrix:
    from .surd import parse_scalar

    return as_matrix([[parse_scalar(c) for c in row] for row in cells])
