"""Property tests of the Bareiss kernel and the block split against the
cofactor oracle, and of the zero-skipping product against a triple sum."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_exact import cofactor_determinant

from pascalhankel import exact
from pascalhankel.exact import ExactMatrix


@st.composite
def zero_led_matrices(draw):
    """Small integer matrices whose upper-left z x z block is zeroed, so the
    leading pivots vanish and elimination has to swap rows or give up."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    z = draw(st.integers(0, n))
    for i in range(z):
        rows[i][:z] = [0] * z
    return rows


@settings(max_examples=200, deadline=None)
@given(zero_led_matrices())
def test_determinant_matches_cofactor_with_zero_pivots(rows):
    assert exact.determinant(ExactMatrix.from_rows(rows)) == cofactor_determinant(rows)


@settings(max_examples=200, deadline=None)
@given(zero_led_matrices())
def test_leading_minors_are_leading_submatrix_determinants(rows):
    want = [cofactor_determinant([r[:k] for r in rows[:k]])
            for k in range(1, len(rows) + 1)]
    a = ExactMatrix.from_rows(rows)
    if 0 in want:
        with pytest.raises(exact.SingularMinorError) as err:
            exact.leading_principal_minors(a)
        assert err.value.order == want.index(0) + 1
    else:
        assert exact.leading_principal_minors(a) == want


@st.composite
def shuffled_block_diagonal(draw):
    """Block-diagonal matrices of 1-3 blocks of order 1-4, a repeated row
    making some blocks singular, with rows and columns then shuffled."""
    blocks = []
    for n in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        block = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                              min_size=n, max_size=n))
        if n > 1 and draw(st.booleans()):
            block[-1] = block[0]
        blocks.append(block)
    size = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + r + [0] * (size - at - len(b)) for r in b]
        at += len(b)
    row_order = draw(st.permutations(range(size)))
    col_order = draw(st.permutations(range(size)))
    return [[rows[i][j] for j in col_order] for i in row_order]


@settings(max_examples=200, deadline=None)
@given(shuffled_block_diagonal())
def test_determinant_matches_cofactor_on_shuffled_blocks(rows):
    assert exact.determinant(ExactMatrix.from_rows(rows)) == cofactor_determinant(rows)


@st.composite
def sparse_factor(draw, rows, cols):
    """A rows x cols matrix of ints and Fractions at a drawn density from
    none to all nonzero, with some whole rows and columns then zeroed."""
    density = draw(st.integers(0, 4))
    value = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    entries = []
    for i in range(rows):
        for j in range(cols):
            x = draw(value) if draw(st.integers(0, 3)) < density else 0
            entries.append(0 if i in zero_rows or j in zero_cols else x)
    return ExactMatrix(rows, cols, tuple(entries))


@st.composite
def product_pairs(draw):
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(sparse_factor(r, k)), draw(sparse_factor(k, c))


@settings(max_examples=300, deadline=None)
@given(product_pairs())
def test_mat_mul_matches_triple_sum(pair):
    a, b = pair
    a_rows, b_rows = a.to_rows(), b.to_rows()
    want = tuple(sum(a_rows[i][l] * b_rows[l][j] for l in range(a.cols))
                 for i in range(a.rows) for j in range(b.cols))
    product = exact.mat_mul(a, b)
    assert (product.rows, product.cols, product.entries) == (a.rows, b.cols, want)
    assert list(exact.product_rows(a, b)) == product.to_rows()
    if not any(isinstance(x, Fraction) for x in a.entries + b.entries):
        assert all(type(x) is int for x in product.entries)
