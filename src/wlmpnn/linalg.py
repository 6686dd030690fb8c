"""Exact dense linear algebra over the surd field.

Matrices are tuples of row tuples of ExactScalar.  One elimination routine,
``_eliminate``, serves every exact solver, with exact zero tests, so ranks,
solutions, kernels and determinants are certificates rather than numerical
estimates.  It stops at a row echelon form (clear below each pivot only,
inverting a pivot only when a row below needs clearing); ``solve`` and
``nullspace_basis`` read their vectors off that form by one back
substitution, ``_back_substitute``, with the free variables set to zero (a
kernel vector then sets its own free variable to 1).

Exact elimination is spent only where a certificate needs its result.
``rows_linearly_independent`` first ranks the image of the rows in the
integers modulo a fixed prime (``surd.residues``): a ring map never raises
rank, so a full-rank image proves independence, and only a deficient image,
or an entry with no image, falls back to the exact ``rank``.  ``solve``
returns the one solution a caller applies instead of a whole right inverse,
and checks it exactly.

Every entry of ``row_mat`` (so of ``mat_mul``) and every back-substituted
sum is one ``surd.exact_dot``, reduced to lowest terms once, not once per
product and partial sum.  ``unique_rows`` is the one grouping of equal
rows: it keys each row object once by the ``surd.canonical_key`` of its
entries, so no scalar is hashed.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .surd import ONE, RESIDUE_PRIME, ZERO, ExactScalar, canonical_key, exact_dot, residues

Row = tuple[ExactScalar, ...]
Matrix = tuple[Row, ...]


class DependentRowsError(ValueError):
    """The unique rows of a matrix are linearly dependent."""


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    out = [tuple(map(ExactScalar, row)) for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows")
    return tuple(out)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def row_add(a: Row, b: Row) -> Row:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def row_scale(row: Row, factor: ExactScalar) -> Row:
    return tuple(factor * x for x in row)


def row_mat(row: Row, m: Matrix) -> Row:
    """Row vector times matrix: each entry is one exact_dot over the pairs
    whose factors are both nonzero, a plain product when only one pair is,
    and ZERO when none is."""
    if len(row) != len(m):
        raise ValueError(f"width {len(row)} does not match matrix with {len(m)} rows")
    columns: list[list[tuple[ExactScalar, ExactScalar]]] = [[] for _ in range(len(m[0]) if m else 0)]
    for x, mrow in zip(row, m):
        if not x.is_zero:
            for pairs, y in zip(columns, mrow):
                if not y.is_zero:
                    pairs.append((x, y))
    return tuple(
        exact_dot(pairs) if len(pairs) > 1 else pairs[0][0] * pairs[0][1] if pairs else ZERO
        for pairs in columns
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(row_mat(row, b) for row in a)


def outer(col: Row, row: Row) -> Matrix:
    return tuple(tuple(c * r for r in row) for c in col)


def unique_rows(rows: Iterable[Row]) -> tuple[list[Row], list[int]]:
    """Distinct rows in first-occurrence order plus the row -> index map.

    Each row is keyed by the ``canonical_key`` of its entries, so equal
    values of any type share an index and no scalar hash is computed: every
    row is keyed once, and a first ``ExactScalar`` hash costs more than the
    key.  A row object that several positions share, as the vertices of one
    refinement key do after a builtin round, is keyed once.  Any iterable
    of rows is taken: it is held as a tuple first, so no row is freed and
    its id reused by a later row while the ids are keys.
    """
    rows = tuple(rows)
    by_id: dict[int, tuple] = {}  # id of a row object -> its key
    seen: dict[tuple, int] = {}  # key -> index
    distinct: list[Row] = []
    index = []
    for row in rows:
        key = by_id.get(id(row))
        if key is None:
            key = by_id[id(row)] = tuple(map(canonical_key, row))
        i = seen.setdefault(key, len(distinct))
        if i == len(distinct):
            distinct.append(row)
        index.append(i)
    return distinct, index


def _eliminate(rows: Sequence[Row], ncols: int | None = None):
    """A row echelon form of a copy of rows, pivoting in the first ncols
    columns (all by default) on the first nonzero entry at or below the
    current rank.

    Only entries below a pivot are cleared, and the pivot rows are left
    unscaled; a pivot is inverted only when some row below needs clearing,
    so a triangular matrix is reduced without a single inversion.  Stops
    once every row has a pivot.  Returns (rows, pivot columns, number of
    row swaps, the inverse of each pivot or None where none was taken).
    """
    work = [list(r) for r in rows]
    n_rows = len(work)
    pivots: list[int] = []
    inverses: list[ExactScalar | None] = []
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
        inv = None
        for r in range(rank_so_far + 1, n_rows):
            factor = work[r][col]
            if factor.is_zero:
                continue
            if inv is None:
                inv = prow[col].invert()
            factor = factor * inv
            work[r] = [x - factor * y for x, y in zip(work[r], prow)]
        pivots.append(col)
        inverses.append(inv)
    return work, pivots, swaps, inverses


def _back_substitute(work: Sequence[Sequence[ExactScalar]], pivots: Sequence[int], inverses, rhs, width: int):
    """x with work[i][:width] . x = rhs[i][j] in column j for every pivot row
    i of the echelon form, the non-pivot (free) variables zero.  rhs has a
    row for every row of work, at least one.  Returns x as width lists of
    len(rhs[0]) entries, each one exact_dot times the pivot's inverse, which
    is inverted here only where the elimination's inverses hold None."""
    out = [[ZERO] * len(rhs[0]) for _ in range(width)]
    for i in range(len(pivots) - 1, -1, -1):
        row, col = work[i], pivots[i]
        inv = row[col].invert() if inverses[i] is None else inverses[i]
        later = [(row[c], out[c]) for c in pivots[i + 1 :] if not row[c].is_zero]
        out[col] = [inv * (b - exact_dot((a, y[j]) for a, y in later)) for j, b in enumerate(rhs[i])]
    return out


def _residue_rank(rows: Sequence[Row]) -> int | None:
    """The rank of the rows' image modulo RESIDUE_PRIME, or None when some
    entry has no image (see ``surd.residues``)."""
    width = len(rows[0]) if rows else 0
    if not width:
        return 0
    flat = residues(x for row in rows for x in row)
    if flat is None:
        return None
    ell = RESIDUE_PRIME
    work = [flat[i : i + width] for i in range(0, len(flat), width)]
    found = 0
    for col in range(width):
        if found == len(work):
            break
        pivot = next((r for r in range(found, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        prow = work[found]
        inv = pow(prow[col], -1, ell)
        for r in range(found + 1, len(work)):
            factor = work[r][col] * inv % ell
            if factor:
                work[r] = [(x - factor * y) % ell for x, y in zip(work[r], prow)]
        found += 1
    return found


def rank(rows: Sequence[Row]) -> int:
    return len(_eliminate(rows)[1])


def rows_linearly_independent(rows: Sequence[Row]) -> bool:
    """Whether the rows are linearly independent over the surd field.

    A full-rank image modulo RESIDUE_PRIME proves it, since a ring map never
    raises rank; otherwise (a deficient image, or an entry with no image)
    the exact rank decides.
    """
    if _residue_rank(rows) == len(rows):
        return True
    return rank(rows) == len(rows)


def solve(matrix: Sequence[Row], rhs: Sequence[Row]) -> Matrix:
    """Y with uniq(matrix) @ Y = rhs, for a matrix whose unique rows are independent.

    rhs has one row per unique row of matrix.  [uniq | rhs] is brought to a
    row echelon form on the columns of uniq and Y read off by back
    substitution with the free variables set to zero, so Y is
    right_inverse(matrix) @ rhs.  Raises DependentRowsError, a ValueError,
    when the unique rows are linearly dependent.  The product uniq @ Y is
    re-verified exactly before returning; a mismatch raises ArithmeticError.
    """
    uniq, _ = unique_rows(tuple(matrix))
    rhs = tuple(tuple(row) for row in rhs)
    m = len(uniq)
    if len(rhs) != m:
        raise ValueError(f"right-hand side has {len(rhs)} rows for {m} unique rows")
    width = len(uniq[0])
    work, pivots, _, inverses = _eliminate([row + b for row, b in zip(uniq, rhs)], ncols=width)
    if len(pivots) < m:
        raise DependentRowsError("unique rows are linearly dependent; no solution for every right-hand side")
    y = tuple(map(tuple, _back_substitute(work, pivots, inverses, [row[width:] for row in work], width)))
    if mat_mul(tuple(uniq), y) != rhs:
        raise ArithmeticError("solve verification failed")
    return y


def right_inverse(matrix: Sequence[Row]) -> Matrix:
    """U with uniq(matrix) @ U = I: ``solve`` against the identity, so free
    variables are zero, dependent unique rows raise DependentRowsError and
    the product is re-verified exactly."""
    return solve(matrix, identity(len(unique_rows(tuple(matrix))[0])))


def determinant(matrix: Sequence[Row]) -> ExactScalar:
    """(-1)^swaps times the diagonal product of a row echelon form."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant requires a square matrix")
    work, pivots, swaps, _ = _eliminate(matrix)
    if len(pivots) < n:
        return ZERO
    det = -ONE if swaps % 2 else ONE
    for i in range(n):
        det = det * work[i][i]
    return det


def nullspace_basis(rows: Sequence[Row], width: int) -> Matrix:
    """Columns spanning {x : row @ x = 0 for every row}; shape width x k.

    Each column sets one free variable to 1 and the others to 0, and the
    pivot variables follow by back substitution on the echelon form; k is 0
    when the rows span the full space, which a full-rank image modulo
    RESIDUE_PRIME proves without exact elimination.  Empty row input yields
    the identity.
    """
    if not rows:
        return identity(width)
    if len(rows) >= width and _residue_rank(rows) == width:
        return tuple(() for _ in range(width))
    work, pivots, _, inverses = _eliminate(rows, ncols=width)
    free = [c for c in range(width) if c not in pivots]
    out = _back_substitute(work, pivots, inverses, [[-row[f] for f in free] for row in work], width)
    for j, f in enumerate(free):
        out[f][j] = ONE
    return tuple(map(tuple, out))


def matrix_to_text(matrix: Matrix) -> list[list[str]]:
    return [[x.to_text() for x in row] for row in matrix]


def matrix_from_text(cells: Sequence[Sequence[str]]) -> Matrix:
    from .surd import parse_scalar

    return as_matrix([[parse_scalar(c) for c in row] for row in cells])
