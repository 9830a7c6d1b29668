import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxpres.collineation import Params, gale_matrix_P, weight_matrices
from coxpres.intlinalg import (IntMatrix, hermite_normal_form, kernel_basis,
                               primitive, rank, row_space_hnf)


def test_rank_identity():
    assert rank(IntMatrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(IntMatrix.zero(3, 4)) == 0


def test_rank_weight_matrix_3_3():
    # columns are three (1,1), nine (1,0), three (1,-1): two independent
    q, _ = weight_matrices(Params(3, 3))
    assert (q.rows, q.cols) == (2, 15)
    assert rank(q) == 2


def test_hnf_identity():
    h, u = hermite_normal_form(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    assert u == IntMatrix.identity(3)


def test_hnf_defining_equations():
    m = IntMatrix.from_rows([[2, 4], [1, 3]])
    h, u = hermite_normal_form(m)
    assert u @ m == h
    # |det u| = 1 for a 2x2
    (a, b), (c, d) = u.entries
    assert abs(a * d - b * c) == 1
    # staircase with positive pivots: first pivot 1, second 2
    assert h.entries[0][0] == 1 and h.entries[1][0] == 0
    assert h.entries[1][1] == 2
    assert 0 <= h.entries[0][1] < 2


def test_hnf_zero_row():
    h, _ = hermite_normal_form(IntMatrix.from_rows([[0, 0]]))
    assert h == IntMatrix.from_rows([[0, 0]])


def test_hnf_idempotent():
    m = IntMatrix.from_rows([[6, 4, 2], [2, 8, 0], [1, 1, 1]])
    h, _ = hermite_normal_form(m)
    h2, _ = hermite_normal_form(h)
    assert h2 == h


def test_kernel_single_row():
    kb = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert kb.rows == 1
    assert kb.entries[0] in ((1, -1), (-1, 1))


def test_kernel_of_identity_empty():
    assert kernel_basis(IntMatrix.identity(2)).rows == 0


def test_kernel_of_weight_matrix_matches_gale_rows():
    p = Params(3, 3)
    q, _ = weight_matrices(p)
    kb = kernel_basis(q)
    assert kb.rows == 13
    assert row_space_hnf(kb) == row_space_hnf(gale_matrix_P(p))


@pytest.mark.parametrize("rows", [
    [[1, 2, 3]],
    [[2, 4], [1, 3]],
    [[1, 0, -1], [0, 2, 2], [1, 2, 1]],
    [[5]],
    [[0, 0], [0, 0]],
])
def test_kernel_and_rank_relations(rows):
    m = IntMatrix.from_rows(rows)
    kb = kernel_basis(m)
    assert rank(m) + kb.rows == m.cols
    if kb.rows:
        assert (m @ kb.transpose()).is_zero()


def test_primitive():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_rational_representation_is_canonical():
    # coefficients ride on the stdlib Fraction: reduced, denominator > 0
    from fractions import Fraction
    q = Fraction(-2, -4) + Fraction(1, 6)
    assert q.denominator > 0
    from math import gcd
    assert gcd(abs(q.numerator), q.denominator) == 1
    # arbitrary precision integers never overflow
    big = 10 ** 50
    m = IntMatrix.from_rows([[big, 2 * big], [3, 7]])
    assert rank(m) == 2


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 5), cols=st.integers(1, 5), data=st.data())
def test_row_space_hnf_is_the_nonzero_rows_of_the_hnf(rows, cols, data):
    m = IntMatrix.from_rows(data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)))
    h, _ = hermite_normal_form(m)
    assert row_space_hnf(m) == IntMatrix.from_rows(
        [r for r in h.entries if any(x != 0 for x in r)])
