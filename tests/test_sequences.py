"""Sequence generator tests against closed forms and exact binomials."""

from __future__ import annotations

import decimal
import itertools
import math
import types

import pytest

from pascalhankel import sequences as seq


def test_s2_values():
    assert seq.s2(0) == 0
    assert seq.s2(7) == 3
    for k in range(63):
        assert seq.s2(2 ** k) == 1
    with pytest.raises(ValueError):
        seq.s2(-1)


def test_thue_morse_prefix():
    assert [seq.thue_morse(i) for i in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_thue_morse_doubling():
    for i in range(200):
        assert seq.thue_morse(2 * i) == seq.thue_morse(i)
        assert seq.thue_morse(2 * i + 1) == 1 - seq.thue_morse(i)


def lucas_binom_mod2(i: int, j: int) -> int:
    """Lucas's theorem at p = 2: binom(j, i) mod 2 is 1 iff the bit set of i
    is contained in that of j.  The oracle of the M1(1) and M2 windows."""
    return 1 if i & ~j == 0 else 0


def paperfolding_by_doubling(length: int) -> list:
    """Prefix of the +-1 paperfolding sequence by its doubling recursion
    w -> w . (-1) . (-w reversed), started from w = (1)."""
    w = [1]
    while len(w) < length:
        w = w + [-1] + [-x for x in reversed(w)]
    return w[:length]


def test_lucas_examples():
    assert lucas_binom_mod2(1, 5) == 1
    assert lucas_binom_mod2(2, 4) == 0
    for i in range(20):
        assert lucas_binom_mod2(i, i) == 1


def test_lucas_matches_binomial_parity():
    for i in range(257):
        for j in range(257):
            assert lucas_binom_mod2(i, j) == math.comb(j, i) % 2


def test_digit_sum_subadditive_with_carry_characterisation():
    for i in range(513):
        for j in range(513):
            lhs = seq.s2(i) + seq.s2(j)
            rhs = seq.s2(i + j)
            assert lhs >= rhs
            # equality iff the additions carry nowhere, i.e. disjoint bits
            assert (lhs == rhs) == (i & j == 0)


def test_catalan_values():
    assert seq.catalan(0) == 1
    assert seq.catalan(3) == 5
    assert seq.catalan(10) == 16796
    with pytest.raises(ValueError):
        seq.catalan(-1)


def test_catalan_formulas_agree():
    for k in range(513):
        c = seq.catalan(k)
        assert c == math.comb(2 * k, k) // (k + 1)
        if k:
            assert c == math.comb(2 * k, k) - math.comb(2 * k, k - 1)


def mod2(k):
    return seq.SEQUENCES["catalan_interspersed_mod2"](k)


def test_catalan_interspersed_values():
    assert [seq.catalan_interspersed(k) for k in range(7)] == [1, 0, -1, 0, 2, 0, -5]
    with pytest.raises(ValueError):
        seq.catalan_interspersed(-1)
    assert [mod2(k) for k in range(7)] == [1, 0, 1, 0, 0, 0, 1]
    for k in range(50):
        assert seq.catalan_interspersed(2 * k + 1) == 0
        assert mod2(2 * k + 1) == 0
        # the mod-2 row is the residue of the signed one, sign dropped
        assert mod2(2 * k) == seq.catalan(k) % 2


def test_catalan_interspersed_mod2_closed_form():
    powers = {2 ** j - 2 for j in range(1, 12)}
    for k in range(2 ** 10 + 1):
        assert mod2(k) == (1 if k in powers else 0)


def test_paperfolding_values():
    assert [seq.SEQUENCES["paperfolding"](i) for i in range(7)] == [1, -1, -1, -1, 1, 1, -1]
    with pytest.raises(ValueError):
        seq.SEQUENCES["paperfolding"](-1)


def test_paperfolding_closed_form_matches_doubling_recursion():
    assert [seq.SEQUENCES["paperfolding"](i) for i in range(5000)] == \
        paperfolding_by_doubling(5000)


def test_paperfold_satisfies_the_doubling_recursion():
    # the first 2^(J+1) - 1 terms are w, -1, then w reversed and negated, w the first
    # 2^J - 1; not at J = 0, where w is empty but pf(0) = 1
    pf = [seq._paperfold(i) for i in range(2 ** 16 - 1)]
    for j in range(1, 16):
        w = pf[:2 ** j - 1]
        assert pf[:2 ** (j + 1) - 1] == w + [-1] + [-x for x in reversed(w)], j
    assert pf[0] == 1


def test_decimal_text_matches_str_of_each_term():
    rows = {kind: f for kind, f in seq.SEQUENCES.items() if hasattr(f, "text")}
    assert set(rows) == {"catalan", "catalan_interspersed"}
    for kind, f in rows.items():
        assert list(itertools.islice(f.text(), 3000)) == [str(f(i)) for i in range(3000)], kind


def test_decimal_text_raises_on_an_inexact_step(monkeypatch):
    # C_0 = 1.5 makes the first quotient 3.0 / 2 leave a remainder, and a precision of 5
    # digits makes the product 4862 * 38 on the way to C_10 round: both raise
    fake = lambda **change: types.SimpleNamespace(**{**vars(decimal), **change})
    monkeypatch.setattr(seq, "decimal", fake(Decimal=lambda _: decimal.Decimal("1.5")))
    with pytest.raises(ArithmeticError, match="C_1 is not an integer"):
        list(itertools.islice(seq.catalan.text(), 2))
    monkeypatch.setattr(seq, "decimal", fake(MAX_PREC=5))
    assert list(itertools.islice(seq.catalan.text(), 10))[-1] == "4862"
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        list(itertools.islice(seq.catalan.text(), 11))


def test_value_dispatch():
    assert seq.SEQUENCES["thue_morse"](3) == 0
    assert seq.SEQUENCES["catalan"](3) == 5
    assert seq.SEQUENCES["catalan_interspersed"](4) == 2
    assert seq.SEQUENCES["catalan_interspersed_mod2"](6) == 1
    assert seq.SEQUENCES["paperfolding"](2) == -1
    with pytest.raises(ValueError):
        seq.SEQUENCES["paperfolding"](-2)
