"""Exact rational linear solving by sparse Gaussian elimination.

Coefficients are ``fractions.Fraction`` throughout, so solvability verdicts
are exact, and rows are eliminated as dicts of their nonzero entries.  The
pivot columns are the leftmost basis of the column space and free variables
are zero, so a solution lives on the shortest prefix of columns whose span
holds the right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


def solve_linear_system(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[list[Fraction]]:
    """Solve ``matrix @ x = rhs`` exactly; ``None`` when inconsistent.

    Pivot columns are taken left to right, each the first column outside
    the span of those before it, and every other entry of x is zero: the
    last nonzero entry of x ends the shortest prefix of columns whose span
    holds ``rhs``.
    """
    m = len(matrix)
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    rows = [
        ({j: Fraction(v) for j, v in enumerate(row) if v}, Fraction(r))
        for row, r in zip(matrix, rhs)
    ]

    pivots = []
    for col in range(n):
        k = next((i for i, (row, _) in enumerate(rows) if col in row), None)
        if k is None:
            continue
        prow, pr = rows.pop(k)
        for i, (row, r) in enumerate(rows):
            if col in row:
                f = row[col] / prow[col]
                for j, v in prow.items():
                    w = row.get(j, 0) - f * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                rows[i] = (row, r - f * pr)
        pivots.append((col, prow, pr))
    if any(r for _, r in rows):
        return None
    x = [Fraction(0)] * n
    for col, row, r in reversed(pivots):
        x[col] = (r - sum(v * x[j] for j, v in row.items() if j != col)) / row[col]
    return x
