from fractions import Fraction

import pytest

from gorcheck.linalg import _eliminate, invert, solve_unique


def test_fraction_rank():
    def rank(rows):
        mat = [[Fraction(x) for x in r] for r in rows]
        return len(_eliminate(mat, len(mat[0]) if mat else 0))

    assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2  # row 2 = 2 * row 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([]) == 0


def test_invert():
    A = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    inv = invert(A)
    product = [[sum(inv[i][k] * A[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert product == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        invert([[1, 2], [2, 4]])


def test_solve_unique():
    # consistent, with a redundant row
    assert solve_unique([[1, 1], [1, -1], [2, 2]], [3, 1, 6]) == [2, 1]
    assert solve_unique([[3]], [1]) == [Fraction(1, 3)]
    # inconsistent: the redundant row disagrees
    assert solve_unique([[1, 1], [1, -1], [2, 2]], [3, 1, 7]) is None
    # underdetermined
    with pytest.raises(ValueError):
        solve_unique([[1, 1]], [2])
