from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcap.capacities import solve_linear_system

F = Fraction


def matvec(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in matrix]


def test_unique_solution():
    matrix = [[F(2), F(1)], [F(1), F(-1)]]
    assert solve_linear_system(matrix, [F(5), F(1)]) == [F(2), F(1)]


def test_inconsistent_returns_none():
    matrix = [[F(1), F(1)], [F(2), F(2)]]
    assert solve_linear_system(matrix, [F(1), F(3)]) is None


def test_underdetermined_returns_some_solution():
    matrix = [[F(1), F(1), F(0)]]
    rhs = [F(4)]
    x = solve_linear_system(matrix, rhs)
    assert x is not None
    assert matvec(matrix, x) == rhs


def test_zero_rows_only_constrain_the_rhs():
    matrix = [[F(0), F(0)]]
    assert solve_linear_system(matrix, [F(0)]) == [F(0), F(0)]
    assert solve_linear_system(matrix, [F(1)]) is None


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_linear_system([[F(1)]], [])
    with pytest.raises(ValueError):
        solve_linear_system([[F(1)], [F(1), F(2)]], [F(0), F(0)])


small = st.integers(min_value=-6, max_value=6).map(Fraction)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_planted_solutions_are_recovered(m, n, data):
    matrix = [
        [data.draw(small) for _ in range(n)] for _ in range(m)
    ]
    planted = [data.draw(small) for _ in range(n)]
    rhs = matvec(matrix, planted)
    x = solve_linear_system(matrix, rhs)
    assert x is not None
    assert matvec(matrix, x) == rhs


def _dense_reference(matrix, rhs):
    """Dense Gauss-Jordan: the solver as it was before it went sparse."""
    m = len(matrix)
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    n = len(matrix[0]) if m else 0
    rows = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for row in rows:
        if len(row) != n + 1:
            raise ValueError("ragged matrix")

    pivot_cols: list[int] = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == m:
            break
    for r in range(rank, m):
        if rows[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        x[col] = rows[r][n]
    return x


rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def sparse_systems(draw):
    """Rational systems up to 6x6, about half zeros, with columns that are
    zero or combinations of earlier ones, zero rows, and a right-hand side
    that is random or in the column space."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(F(0)), rational)
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "dependent", "zero"]))
        if kind == "dependent" and cols:
            coeffs = [draw(entry) for _ in cols]
            col = [
                sum((c * v[i] for c, v in zip(coeffs, cols)), F(0)) for i in range(m)
            ]
        elif kind == "zero":
            col = [F(0)] * m
        else:
            col = [F(0) if i in zero_rows else draw(entry) for i in range(m)]
        cols.append(col)
    matrix = [[col[i] for col in cols] for i in range(m)]
    if draw(st.booleans()):
        rhs = matvec(matrix, [draw(entry) for _ in range(n)])
    else:
        rhs = [draw(entry) for _ in range(m)]
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_elimination_matches_the_dense_reference(system):
    matrix, rhs = system
    x = solve_linear_system(matrix, rhs)
    assert x == _dense_reference(matrix, rhs)
    if x is None or not any(x):
        return
    # x lives on the leftmost pivot columns: its last nonzero column p ends
    # the shortest prefix of columns whose span holds rhs
    p = max(j for j, v in enumerate(x) if v)
    assert _dense_reference([row[: p + 1] for row in matrix], rhs) is not None
    assert _dense_reference([row[:p] for row in matrix], rhs) is None
