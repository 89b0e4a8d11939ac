"""Matrix family row makers, checked against per-entry reference closures."""

from __future__ import annotations

import math
import random

import pytest

from test_sequences import lucas_binom_mod2

from pascalhankel import exact
from pascalhankel import families as fam
from pascalhankel import laurent
from pascalhankel import sequences as seq

# kind -> maker from a of the entry function (i, j): the reference for every window
ORACLE = {
    # at a = 0, 0 ** 0 == 1 leaves the identity
    "P1": lambda a: lambda i, j: 0 if i > j else math.comb(j, i) * a ** (j - i),
    "P2": lambda a: lambda i, j: math.comb(i + j, i),
    # bit-subset makes the exponent nonnegative
    "M1": lambda a: lambda i, j: 0 if i & ~j else a ** (seq.s2(j) - seq.s2(i)),
    "M2": lambda a: lambda i, j: math.comb(i + j, i) % 2,
    "H1": lambda a: lambda i, j: seq.SEQUENCES["catalan_interspersed"](i + j),
    "H2": lambda a: lambda i, j: seq.SEQUENCES["catalan_interspersed_mod2"](i + j),
}


def entry(f, i, j):
    """Entry (i, j) of the family f, read off the last row of a one-column window."""
    return fam.window_of(f, i + 1, 1, j).entries[i]


def window_cases():
    """Seeded (family, n, m, k), a in {0, +-1, +-3, 10} for P1 and M1, with empty
    windows, the deep P1(10) column of `matrix show` and deep P2, M2, H1 and H2 columns."""
    rng = random.Random(29)
    for kind, (takes_a, _) in fam.KINDS.items():
        for a in (0, 1, -1, 3, -3, 10) if takes_a else (0,):
            f = fam.Family(kind, a)
            yield from ((f, rng.randrange(13), rng.randrange(13), rng.randrange(70))
                        for _ in range(4))
            yield from ((f, 0, 5, rng.randrange(70)), (f, 5, 0, rng.randrange(70)))
    yield fam.P1(10), 3, 4, 5000
    yield from ((f, 6, 7, 1000) for f in (fam.P2, fam.M2, fam.H1, fam.H2))
    # P2 by Pascal's rule, row after row: the sizes it was timed at, and empty windows
    yield from ((fam.P2, n, m, k) for n, m, k in ((128, 128, 0), (40, 40, 0), (12, 12, 64),
                                                  (5, 7, 3), (0, 7, 3), (5, 0, 3), (0, 0, 0)))


def test_windows_match_the_entry_oracle():
    for f, n, m, k in window_cases():
        assert fam.window_of(f, n, m, k) == exact.window(ORACLE[f.kind](f.a), n, m, k), \
            (f, n, m, k)


def test_entry_examples():
    assert entry(fam.M1(2), 1, 3) == 2
    assert entry(fam.M2, 1, 1) == 0
    assert entry(fam.H1, 1, 1) == -1
    # the kind and the sizes are checked when the rows are asked for, not when read
    with pytest.raises(ValueError, match="unknown family kind: P3"):
        fam.rows(fam.Family("P3"), 1)
    for n, m, k in ((-1, None, 0), (2, -1, 0), (2, 2, -1)):
        with pytest.raises(ValueError, match="window parameters must be nonnegative"):
            fam.rows(fam.P1(1), n, m, k)


def test_delta_at_zero_parameter():
    # the general entry formulas give I at a = 0, at the group laws' size
    for f in (fam.P1(0), fam.M1(0)):
        assert fam.window_of(f, 64) == exact.window(lambda i, j: int(i == j), 64)


def h2_structure_entry(i: int, j: int) -> int:
    """Closed form of the mod-2 Catalan Hankel entries: 1 iff i+j+2 is a
    power of two.  The oracle of the H2 windows."""
    v = i + j + 2
    return 1 if v & (v - 1) == 0 else 0


def test_h2_structure_examples():
    for i, j, want in ((0, 0, 1), (3, 3, 1), (1, 2, 0), (1, 5, 1), (2, 2, 0)):
        assert h2_structure_entry(i, j) == want
        assert entry(fam.H2, i, j) == want


def test_h2_structure_matches_catalan_mod2():
    # entries depend on i+j only, so sweeping the anti-diagonal index
    # covers every (i, j) with i, j <= 2048
    for k in range(2 * 2048 + 1):
        assert seq.SEQUENCES["catalan_interspersed_mod2"](k) == h2_structure_entry(k, 0)


@pytest.mark.parametrize("f, k, closed_form", [
    (fam.M2, 0, lambda i, j: lucas_binom_mod2(i, i + j)),
    (fam.M2, 1000, lambda i, j: lucas_binom_mod2(i, i + j)),
    (fam.M1(1), 0, lucas_binom_mod2),
    (fam.H2, 0, h2_structure_entry),
    (fam.H2, 2000, h2_structure_entry),
], ids=["M2", "M2-k1000", "M1(1)", "H2", "H2-k2000"])
def test_window_matches_closed_form(f, k, closed_form):
    # column j of the window at offset k is column j + k of the matrix
    assert fam.window_of(f, 64, 64, k).to_rows() == \
        [[closed_form(i, j + k) for j in range(64)] for i in range(64)]


@pytest.mark.parametrize("hankel, series", [(fam.H1, "L1"), (fam.H2, "L2")])
def test_hankel_window_is_laurent_coefficients(hankel, series):
    # both read one SEQUENCES row: entry (i, j) of the window at offset k
    # is the coefficient of X^-(i+j+k+1) in the series
    n, k = 12, 30
    s = laurent.build_L(series, 2 * n + k)
    assert fam.window_of(hankel, n, n, k).to_rows() == \
        [[s.coefficient(-(i + j + k + 1)) for j in range(n)] for i in range(n)]


def test_m1_is_p1_mod2():
    for j in range(0, 513, 7):
        p1 = fam.window_of(fam.P1(1), 513, 1, j)
        assert [x % 2 for x in p1.entries] == list(fam.window_of(fam.M1(1), 513, 1, j).entries)


def test_shifted_m1_windows_repeat_with_period_2_to_the_r():
    # for i < n <= 2^r, whether i is a bit-subset of k + j depends on (k + j) mod 2^r only, so
    # the n x n window of M1(1) at offset k, the leading block of the 2^r one, is that of k mod 2^r
    for r in range(5):
        q = 2 ** r
        period = [list(fam.rows(fam.M1(1), q, q, k)) for k in range(q)]
        for k in range(256):
            assert list(fam.rows(fam.M1(1), q, q, k)) == period[k % q], (r, k)


def test_m1_magnitudes():
    rng = random.Random(3)
    for _ in range(300):
        a = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        i = rng.randrange(128)
        j = rng.randrange(128)
        e = entry(fam.M1(a), i, j)
        if e:
            exponent = seq.s2(j) - seq.s2(i)
            assert exponent >= 0
            assert abs(e) == abs(a) ** exponent


def test_hankel_symmetry():
    rng = random.Random(5)
    for f in (fam.H1, fam.H2):
        for _ in range(100):
            i = rng.randrange(40)
            j = rng.randrange(40)
            assert entry(f, i, j) == entry(f, j, i)


def test_parse_family():
    assert fam.parse_family("P1:a=3") == fam.P1(3)
    assert fam.parse_family("M1:a=-2") == fam.M1(-2)
    assert fam.parse_family("P1") == fam.P1(1)
    assert fam.parse_family("P2") == fam.P2
    assert fam.parse_family("M2") == fam.M2
    assert fam.parse_family("H1") == fam.H1
    assert fam.parse_family("H2") == fam.H2
    with pytest.raises(ValueError):
        fam.parse_family("P3")
    with pytest.raises(ValueError):
        fam.parse_family("P2:a=1")
    with pytest.raises(ValueError):
        fam.parse_family("P1:b=1")

