"""Property tests of the Bareiss kernel against the cofactor oracle."""

from __future__ import annotations

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
