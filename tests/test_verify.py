"""Identity verification sweeps (small grids; the acceptance module runs
the full ones)."""

from __future__ import annotations

import collections
import functools
import inspect
import io
import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from pascalhankel import cli, exact, families, laurent, sequences, verify
from test_exact import leading_block


def transpose(a):
    rows = a.to_rows()
    return exact.window(lambda i, j: rows[j][i], a.cols, a.rows)


def _calls(monkeypatch, name):
    """The argument tuples of each call of exact.<name> from here on.  Calls of
    product_rows count mat_mul's calls too, mat_mul collecting its rows."""
    calls, fn = [], getattr(exact, name)
    monkeypatch.setattr(exact, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_item1_gram():
    report = verify.run_check("item1", n_max=32)
    assert report.passed
    assert report.checked == 32


def test_item2_power():
    report = verify.run_check("item2", a=tuple(range(-3, 4)), n_max=12)
    assert report.passed
    assert report.checked == 6 * 12
    assert report.parameter_grid == "a in [-3,3] \\ {0}, n <= 12"
    report = verify.run_check("item2", a=(3, -1), n_max=4)
    assert report.checked == 2 * 4
    assert report.parameter_grid == "a in (3, -1) \\ {0}, n <= 4"


def test_item2_smallest_cases():
    w = families.window_of(families.P1(1), 2)
    assert exact.mat_mul(exact.mat_mul(w, w), w).to_rows() == [[1, 3], [0, 1]]
    # a = -1 in product form: P1(-1) P1 == I
    assert exact.mat_mul(families.window_of(families.P1(-1), 3),
                         families.window_of(families.P1(1), 3)) == \
        exact.window(lambda i, j: int(i == j), 3)


def test_item2_powers_are_one_running_product(monkeypatch):
    # P1^2 .. P1^max|a| take one product each, and each nonzero a one more
    calls = _calls(monkeypatch, "product_rows")
    a = verify.IDENTITIES["item2"].grid["a"]
    assert verify.run_check("item2").passed
    assert len(calls) == max(map(abs, a)) - 1 + len([x for x in a if x]) == 14


@pytest.mark.parametrize("identity_id", ["group-law-p1", "group-law-m1"])
def test_group_law_is_proved_by_one_product(identity_id, monkeypatch):
    # W(F(x)) W(F(1)) == W(F(x+1)) proves the law; the 121 pair products never run
    calls = _calls(monkeypatch, "product_rows")
    report = verify.run_check(identity_id)
    assert report.passed
    assert report.checked == 121 * 64
    assert len(calls) == 1


def _pair_loop(kind, a, n_max):
    """The group law checked pair by pair, one product per pair of a x a and
    each window built once: an oracle that shares no step with the proof."""
    report = verify.VerificationReport("pair loop", "", checked=len(a) ** 2 * n_max)
    w = functools.cache(lambda c: families.window_of(families.Family(kind, c), n_max))
    for x, y in itertools.product(a, a):
        if bad := verify._first_difference(f"a={x}, b={y}", exact.product_rows(w(x), w(y)),
                                           w(x + y).to_rows()):
            report.fail(*bad)
    return report


def test_group_law_reports_equal_the_pair_loop(monkeypatch):
    # small random grids, honest and with one entry raised at a grid parameter
    # (which some pair always exposes) or at 12, which no pair reaches and is
    # never x = 2^K or x + 1: the proof passes exactly when the pair loop does,
    # and counts the same windows
    rng = random.Random(1993)
    for trial in range(40):
        kind, n = rng.choice(["P1", "M1"]), rng.randint(1, 16)
        a = tuple(rng.sample(range(-4, 5), rng.randint(1, 3)))
        with monkeypatch.context() as m:
            if trial % 3:
                at = rng.choice([*a, *(x + y for x in a for y in a), 12])
                _corrupt(m, kind, at, rng.randrange(n), rng.randrange(n), rng.randint(1, 3))
            report = verify.run_check(f"group-law-{kind.lower()}", a=a, n_max=n)
            oracle = _pair_loop(kind, a, n)
        assert (report.passed, report.checked) == (oracle.passed, oracle.checked), (kind, n, a)


@pytest.mark.parametrize("kind, k, i, j, expected", [
    # x = 2^K, K = bit length of n max c^2: 64 C(63,31)^2 for P1, 64 for M1
    ("P1", 126, 3, 5, math.comb(5, 3) * 2 ** (126 * 2)),
    ("M1", 7, 1, 3, 2 ** 7),
])
def test_group_law_corrupted_at_the_substitution_point_fails(kind, k, i, j, expected,
                                                               monkeypatch):
    # no pair of the grid reaches x, so the pair loop passes and the proof's
    # first differing entry is reported
    _corrupt(monkeypatch, kind, 2 ** k, i, j)
    report = verify.run_check(f"group-law-{kind.lower()}")
    assert report.failures == [{"parameters": f"a={2 ** k}, n={max(i, j) + 1}, entry ({i},{j})",
                                "expected": str(expected), "actual": str(expected + 1)}]
    assert report.checked == 121 * 64


def _window_bytes(w):
    """The bytes a window holds: its entry tuple and its ints outside CPython's
    small-int cache, each a separate allocation."""
    return sys.getsizeof(w.entries) + sum(sys.getsizeof(v) for v in w.entries
                                          if not -5 <= v <= 256)


def test_group_law_proof_peaks_below_the_pair_loop():
    # the proof holds W(F(x)) and its product, or the product and W(F(x+1)),
    # and no cache of grid windows, so it needs less memory than the pair loop.
    # When the pair loop compares its last product, P1(5) P1(5), its cache holds
    # the window of every c in a and a + a, and the product equals W(P1(10)): that
    # many bytes bound its peak from below without running it
    a = verify.IDENTITIES["group-law-p1"].grid["a"]
    windows = {c: families.window_of(families.P1(c), 64)
               for c in {*a, *(x + y for x in a for y in a)}}
    pair_loop = sum(map(_window_bytes, windows.values())) + _window_bytes(windows[2 * max(a)])
    tracemalloc.start()
    try:
        assert verify.run_check("group-law-p1").passed
        peaks = [tracemalloc.get_traced_memory()[1], pair_loop]
    finally:
        tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_group_law_proof_streams_its_product():
    # the proof reads W(F(x)) W(F(1)) row by row and frees W(F(x)) once they are read,
    # so it never holds both whole
    n = verify.IDENTITIES["group-law-p1"].grid["n_max"]
    one = families.window_of(families.P1(1), n)
    x = 1 << (n * max(one.entries) ** 2).bit_length()
    wx = families.window_of(families.P1(x), n)
    both = _window_bytes(wx) + _window_bytes(exact.mat_mul(wx, one))
    del wx
    tracemalloc.start()
    try:
        assert verify.run_check("group-law-p1").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < both


def test_group_law_m1_small():
    # a x a holds the pairs (1, 1), (2, -2) and (0, 3)
    report = verify.run_check("group-law-m1", a=(-2, 0, 1, 2, 3), n_max=16)
    assert report.passed
    assert report.checked == 5 * 5 * 16


def test_group_law_m1_inverse_pairs_give_identity():
    for a in (1, 2, 5):
        w = exact.mat_mul(families.window_of(families.M1(a), 16),
                          families.window_of(families.M1(-a), 16))
        assert w == exact.window(lambda i, j: int(i == j), 16)


def test_group_law_p1():
    report = verify.run_check("group-law-p1", a=(-1, 1, 2, 3), n_max=8)
    assert report.passed
    assert exact.mat_mul(families.window_of(families.P1(2), 8),
                         families.window_of(families.P1(3), 8)) == \
        families.window_of(families.P1(5), 8)


def test_group_law_rejects_other_families():
    with pytest.raises(ValueError):
        verify.run_check("group-law-p2")


def test_lemma1():
    report = verify.run_check("lemma1", n_max=64)
    assert report.passed
    # smallest nontrivial case by hand: D = diag(1, -1) negates row 1 of M1
    m1 = families.window_of(families.M1(1), 2)
    d_m1 = exact.ExactMatrix.from_rows([[d * x for x in row]
                                        for d, row in zip((1, -1), m1.to_rows())])
    assert exact.mat_mul(transpose(m1), d_m1).to_rows() == [[1, 1], [1, 0]]


def test_det_formulas_pascal():
    assert verify.run_check("det-p1", n_max=8, k_max=16).passed
    assert verify.run_check("det-p2", n_max=8, k_max=16).passed


def test_det_formulas_pascal_hold_for_every_k_at_n_le_12():
    # det of a shifted P1 or P2 window is a polynomial in k of degree at most
    # n(n-1)/2 = 66 at n = 12, so det 1 at k = 0..66 proves it for every k
    for identity_id in ("det-p1", "det-p2"):
        report = verify.run_check(identity_id, n_max=12, k_max=66)
        assert report.passed
        assert report.checked == 12 * 67


def test_gram_identities_transport_shifted_determinants():
    """item1 and lemma1 sum over l <= i, so they hold with the right factor's
    window shifted by k: det(P2 at k) = det(P1 at k) and
    det(M2 at k) = (-1)^(t_0+...+t_(n-1)) det(M1 at k)."""
    def det(fam, n, k):
        return exact.determinant(families.window_of(fam, n, n, k))

    for n in range(1, 13):
        sign = (-1) ** sum(map(sequences.thue_morse, range(n)))
        for k in range(41):
            assert det(families.P2, n, k) == det(families.P1(1), n, k), (n, k)
            assert det(families.M2, n, k) == sign * det(families.M1(1), n, k), (n, k)


def test_sweep_parameters_are_the_grid_keys():
    # an option no grid names could only be set from Python, never the CLI
    for identity_id, identity in verify.IDENTITIES.items():
        params = set(inspect.signature(identity.sweep).parameters) - {"report"}
        assert params == set(identity.grid), identity_id


def test_det_formulas_m2():
    report = verify.run_check("det-m2", n_max=64)
    assert report.passed
    assert exact.determinant(families.window_of(families.M2, 3)) == 1
    # sign sequence equals partial products of (-1)^{t_i}
    signs = report.data["signs"]
    product = 1
    for i, det in enumerate(signs):
        product *= (-1) ** sequences.thue_morse(i)
        assert det == product


def test_det_formulas_m1a():
    report = verify.run_check("det-m1a", n_max=6, k_max=8, a=(1, -2, 3))
    assert report.passed
    assert abs(exact.determinant(families.window_of(families.M1(2), 2, 2, 1))) == 2


def test_det_formulas_m1a_reduces_to_unimodular_at_a1():
    report = verify.run_check("det-m1a", n_max=12, k_max=64, a=(1,))
    assert report.passed
    for signs in report.data["signs"].values():
        assert set(signs) <= {1, -1}


def test_det_m1a_eliminates_only_the_residues_of_the_period(monkeypatch):
    # 2^r = 16 >= n_max = 10: the shifts k = 0..32 of every a reach 16 M1(1) windows
    minors = _calls(monkeypatch, "leading_principal_minors")
    report = verify.run_check("det-m1a")
    assert report.passed
    assert report.checked == 6 * 33 * 10
    assert len(minors) <= 16
    assert [w.entries for (w,) in minors] == [
        families.window_of(families.M1(1), 10, 10, k).entries for k in range(16)]


def test_det_m1a_zero_minor_fails_by_its_shift(monkeypatch):
    # M1(1) with (1,1) made 0 has a zero minor of order 2 at k = 0, and the honest
    # M1(2) no longer scales it; a failure (exit 1), not a SingularMinorError (exit 2)
    _corrupt(monkeypatch, "M1", 1, 1, 1, -1)
    report = verify.run_check("det-m1a", a=(2,), n_max=4, k_max=0)
    assert report.failures == [_failure("k=0", "nonzero minor", "zero minor of order 2"),
                               _failure("a=2, k=0, n=2, entry (1,1)", 0, 1)]
    assert (report.checked, report.data) == (4, {"signs": {}})
    args = ["verify", "det-m1a", "--a-range=2:2", "--n-max", "4", "--k-max", "0"]
    assert cli.run(args, out=io.StringIO()) == 1


def test_det_m1a_non_unit_minor_fails_by_its_shift(monkeypatch):
    # entry (1,3) of M1(1) made 2 leaves the k = 0 window triangular, but makes the
    # k = 1 window's minors 1, -1, -2, -1: the minor not +-1 fails, labelled by its shift
    _corrupt(monkeypatch, "M1", 1, 1, 3)
    report = verify.run_check("det-m1a", a=(1,), n_max=4, k_max=1)
    assert report.failures == [_failure("k=1, n=3", -1, -2)]
    assert report.checked == 2 * 4


def test_det_m1a_signs_are_a_power_times_the_a1_minors():
    # entry (i, k + j) of M1(a) is a^(s2(k + j) - s2(i)) on a 0/1 pattern free of a,
    # so each term of the minor of order n carries a^e, e = sum over i < n of
    # s2(i + k) - s2(i): the minor is a^e times the minor at a = 1, sign included
    signs = verify.run_check("det-m1a").data["signs"]
    negative = 0
    for k in range(33):
        e = list(itertools.accumulate(sequences.s2(i + k) - sequences.s2(i) for i in range(10)))
        at1 = exact.leading_principal_minors(families.window_of(families.M1(1), 10, 10, k))
        for a in (1, -1, 2, -2, 3, -3):
            got = exact.leading_principal_minors(families.window_of(families.M1(a), 10, 10, k))
            assert got == [a ** e_n * d for e_n, d in zip(e, at1)], (a, k)
            assert signs[f"a={a},k={k}"] == [1 if d > 0 else -1 for d in got]
            negative += sum(d < 0 for d in got)
    assert len(signs) == 198
    assert negative == 732


def test_det_formulas_unknown():
    with pytest.raises(ValueError):
        verify.run_check("det-h1")


def test_hankel_minors():
    r1 = verify.run_check("hankel-h1", n_max=24)
    r2 = verify.run_check("hankel-h2", n_max=24)
    assert r1.passed and r2.passed
    assert exact.determinant(families.window_of(families.H1, 2)) == -1
    assert abs(exact.determinant(families.window_of(families.H2, 3))) == 1


def jfraction_minors(quotients):
    """H_n = (-1)^(n(n-1)/2) prod_{k=1..n} alpha_k^-(2(n-k)+1) for n up to
    the number of partial quotients A_k, each of degree 1 and leading
    coefficient alpha_k (Wall 1948; Krattenthaler, LAA 411 (2005))."""
    assert all(q.degree == 1 for q in quotients)
    alpha = [q.coeffs[1] for q in quotients]
    return [(-1) ** (n * (n - 1) // 2)
            * math.prod(alpha[k - 1] ** -(2 * (n - k) + 1) for k in range(1, n + 1))
            for n in range(1, len(alpha) + 1)]


@pytest.mark.parametrize("series, fam", [("L1", families.H1), ("L2", families.H2)])
def test_hankel_minors_match_the_j_fraction(series, fam):
    cf = laurent.cf_expand(laurent.build_L(series, 80), 40)
    minors = exact.leading_principal_minors(families.window_of(fam, 40))
    assert jfraction_minors(cf.partial_quotients) == minors


def test_j_fraction_minors_of_random_normal_series():
    rng = random.Random(2005)
    matched = 0
    for _ in range(200):
        coeffs = [rng.randint(-3, 3) for _ in range(24)]
        try:
            minors = exact.leading_principal_minors(
                exact.window(lambda i, j: coeffs[i + j], 12))
        except exact.SingularMinorError:
            continue
        cf = laurent.cf_expand(laurent.LaurentSeries.make(-1, coeffs), 12)
        assert jfraction_minors(cf.partial_quotients) == minors, coeffs
        matched += 1
    assert matched >= 100


def catalan_hankel(n, k):
    """det(C_{k+i+j})_{0<=i,j<n} = prod_{1<=i<=j<=k-1} (i+j+2n)/(i+j)
    (Desainte-Catherine and Viennot, LNM 1234, 1986)."""
    # each factor's multiplicity, cancelled between numerator and
    # denominator before multiplying out (at k = 1000 they share ~10^6 bits)
    mult = collections.Counter()
    for j in range(1, k):
        for i in range(1, j + 1):
            mult[i + j + 2 * n] += 1
            mult[i + j] -= 1
    num = math.prod(t ** e for t, e in mult.items() if e > 0)
    den = math.prod(t ** -e for t, e in mult.items() if e < 0)
    assert num % den == 0
    return num // den


def h1_window_det_abs(n, k):
    """|det| of the n x n window of H1 at column k: H1 is a checkerboard,
    so its window is, up to row and column order, two Catalan Hankel
    blocks of the rows of each parity, or singular when they cannot be
    square."""
    if k % 2 == 0:
        return catalan_hankel((n + 1) // 2, k // 2) * catalan_hankel(n // 2, k // 2 + 1)
    return catalan_hankel(n // 2, (k + 1) // 2) ** 2 if n % 2 == 0 else 0


def test_h1_window_determinant_closed_form():
    for n, k in [(n, k) for n in range(13) for k in range(14)] + [(40, 400), (60, 1000),
                                                                  (80, 400)]:
        det = exact.determinant(families.window_of(families.H1, n, None, k))
        assert abs(det) == h1_window_det_abs(n, k), (n, k)
    # signed: swapping rows 0 and 1 swaps the parity classes' rows and negates det
    w = families.window_of(families.H1, 40, None, 400)
    rows = w.to_rows()
    rows[0], rows[1] = rows[1], rows[0]
    assert exact.determinant(exact.ExactMatrix.from_rows(rows)) == -exact.determinant(w) != 0


def ballot(i, k):
    """Entry (i, k) of the signed ballot triangle: (-1)^((i-k)/2) (k+1)/(i+1)
    C(i+1, (i-k)/2) for i >= k of equal parity, else 0."""
    if k > i or (i - k) % 2:
        return 0
    h = (i - k) // 2
    return (-1) ** h * (k + 1) * math.comb(i + 1, h) // (i + 1)


def test_gram_factors_closed_forms():
    n = 64
    pf = sequences.SEQUENCES["paperfolding"]
    # item 1 and Lemma 1: L = P1^T, D = 1 and L = M1^T, D_i = (-1)^t_i
    assert families.GRAM["P2"](n) == (transpose(families.window_of(families.P1(1), n)), [1] * n)
    assert families.GRAM["M2"](n) == (transpose(families.window_of(families.M1(1), n)),
                                     [(-1) ** sequences.thue_morse(i) for i in range(n)])
    h1, d1 = families.GRAM["H1"](n)
    assert h1 == exact.window(ballot, n)
    assert d1 == [(-1) ** k for k in range(n)]
    # the mod-2 member's triangle is the pure one's mod 2
    h2, d2 = families.GRAM["H2"](n)
    assert set(h2.entries) <= {0, 1, -1}
    assert [x % 2 for x in h2.entries] == [x % 2 for x in h1.entries]
    assert d2 == [(-1) ** k * pf(k) for k in range(n)]
    assert families.GRAM["H1"](0) == (exact.window(ballot, 0), [])


@pytest.mark.parametrize("kind", ["H1", "H2"])
def test_stieltjes_factors_are_the_ldu_of_the_hankel_windows(kind):
    # the LDU factors are unique, so every n <= 64 is the leading block of n = 64
    factors = exact.ldu_decompose(families.window_of(families.Family(kind), 64))
    lower, d = families.GRAM[kind](64)
    assert (factors.L, list(factors.D), factors.U) == (lower, d, transpose(lower))
    for n in (1, 2, 5, 17):
        assert families.GRAM[kind](n) == (leading_block(lower, n), d[:n])


@pytest.mark.parametrize("series, kind", [("L1", "H1"), ("L2", "H2")])
def test_stieltjes_factors_match_the_j_fraction(series, kind):
    # partial quotients A_k = alpha_k X + b_k give D_0 = 1/alpha_1, gamma_k =
    # D_k/D_(k-1) = -1/(alpha_k alpha_(k+1)) and linear terms -b_k/alpha_k, here 0
    quotients = laurent.cf_expand(laurent.build_L(series, 80), 40).partial_quotients
    alpha = [q.coeffs[1] for q in quotients]
    _, d = families.GRAM[kind](len(alpha))
    assert [q.coeffs[0] for q in quotients] == [0] * 40
    assert d[0] == 1 / alpha[0]
    assert [Fraction(d[k], d[k - 1]) for k in range(1, 40)] == \
        [-1 / (alpha[k - 1] * alpha[k]) for k in range(1, 40)]


@pytest.mark.parametrize("identity_id", ["det-m2", "hankel-h1", "hankel-h2"])
def test_gram_proves_the_minors_by_one_product(identity_id, monkeypatch):
    products = _calls(monkeypatch, "product_rows")
    minors = _calls(monkeypatch, "leading_principal_minors")
    report = verify.run_check(identity_id)
    assert report.passed
    assert (len(products), len(minors)) == (1, 0)


def test_gram_with_a_d_against_expected_falls_back(monkeypatch):
    # H1 is L D L^T, but D's prefix products are not the expected minors 1, 1, ...:
    # the product is not taken, and the Bareiss pass reports what it reports alone
    products = _calls(monkeypatch, "product_rows")
    minors = _calls(monkeypatch, "leading_principal_minors")
    report = verify.VerificationReport("demo", "")
    verify._gram(families.H1, "H1", lambda n: 1, report, 6)
    oracle = verify.VerificationReport("demo", "")
    signs = verify._minors([("H1", families.H1, 0, lambda n: 1)], oracle, 6)
    assert report.failures == oracle.failures == [
        _failure(f"H1, n={n}", 1, -1) for n in (2, 3, 6)]
    assert (report.checked, report.data) == (oracle.checked, {"signs": signs["H1"]}) == \
        (6, {"signs": [1, -1, -1, 1, 1, -1]})
    assert (len(products), len(minors)) == (0, 2)


def test_gram_without_a_unit_diagonal_falls_back(monkeypatch):
    # L diag(s) D diag(s) L^T == L D L^T for signs s, so the product still holds
    # with columns of L negated, but L is no longer unit: the Bareiss pass runs
    lower, d = families.GRAM["H1"](8)
    rows = lower.to_rows()
    negated = exact.window(lambda i, j: (-1) ** j * rows[i][j], 8)
    monkeypatch.setitem(families.GRAM, "H1", lambda n: (negated, d))
    minors = _calls(monkeypatch, "leading_principal_minors")
    report = verify.run_check("hankel-h1", n_max=8)
    assert report.passed
    assert report.data == {"signs": [1 if (n // 2) % 2 == 0 else -1 for n in range(1, 9)]}
    assert len(minors) == 1


@pytest.mark.parametrize("shift, sign", [(1, 1), (0, -1)])
def test_gram_packing_leaves_no_carry(shift, sign, monkeypatch):
    # sign y added at (0,0) and sign taken at (0,1) leave H1's row 0 packed at x = y as it was,
    # b the bit length of the bound on L D L^T, y = 2^(b+1) or 2^b, every corrupted entry below
    # it: the entrywise product check fails and Bareiss reports, where a Kronecker-packed
    # comparison of rows at such an x would let the corruption through
    lower, d = families.GRAM["H1"](4)
    y = 1 << (4 * max(map(abs, lower.entries)) ** 2 * max(map(abs, d))).bit_length() + shift
    _corrupt(monkeypatch, "H1", 0, 0, 0, sign * y)
    _corrupt(monkeypatch, "H1", 0, 0, 1, -sign)
    report = verify.run_check("hankel-h1", n_max=4)
    oracle = verify.VerificationReport("hankel-h1", "")
    verify._minors([("H1", families.H1, 0, lambda n: (-1) ** (n // 2))], oracle, 4)
    assert report.failures == oracle.failures != []


def test_power_table_leaves_negative_exponents_to_pow(monkeypatch):
    # P1(1) with entry (3,1) set makes c_31 = 1 at e_31 = e_01 - e_03 = -2, a failed
    # hypothesis; the entry's want is x^-2, not an entry counted from the table's end
    _corrupt(monkeypatch, "P1", 1, 3, 1)
    x = 2 ** (4 * 3 ** 2).bit_length()
    assert verify.run_check("group-law-p1", a=(1,), n_max=4).failures == [_failure(
        f"a={x}", f"every c_ij 2^(e_ij) in [0, 2^{x.bit_length() - 1})", "a coefficient outside")]
    e0 = list(range(4))  # row 0 of P1(x) is x^j
    want = list(verify._scaled_rows(x, families.rows(families.P1(1), 4), e0, e0))[3][1]
    assert type(want) is Fraction and str(want) == f"1/{x ** 2}"


def test_ldu_of_m2_diagonal_is_thue_morse_signs():
    factors = exact.ldu_decompose(families.window_of(families.M2, 32))
    assert list(factors.D) == \
        [(-1) ** sequences.thue_morse(i) for i in range(32)]


def kronecker_power(rows, r):
    """The r-fold Kronecker power of a 2x2 matrix, a 2^r x 2^r ExactMatrix."""
    out = exact.window(lambda i, j: int(i == j), 1)
    for _ in range(r):
        prev = out.to_rows()
        out = exact.window(lambda i, j: prev[i // 2][j // 2] * rows[i % 2][j % 2],
                           2 * len(prev))
    return out


def test_m_side_windows_are_kronecker_powers():
    """An oracle for the M side that multiplies no windows: the
    2^r x 2^r windows are r-fold Kronecker powers of 2x2 matrices, so by
    the mixed-product rule group-law-m1, lemma1 and det-m2 at n = 2^r
    follow from the 2x2 identities at the end."""
    for r in range(7):
        n = 2 ** r
        for a in range(-3, 4):
            assert families.window_of(families.M1(a), n) == kronecker_power([[1, a], [0, 1]], r)
        # Lucas's theorem: C(i + j, i) is odd iff i and j share no binary digit
        m2 = families.window_of(families.M2, n)
        assert m2 == kronecker_power([[1, 1], [1, 0]], r)
        signs = kronecker_power([[1, 0], [0, -1]], r)
        assert signs == exact.window(
            lambda i, j: (-1) ** sequences.thue_morse(i) if i == j else 0, n)
        # det-m2: the LDU factors are the powers of the 2x2 factors, the L
        # and U being the windows of M1(1)^T and M1(1) from lemma1
        factors = exact.ldu_decompose(m2)
        assert factors.L == kronecker_power([[1, 0], [1, 1]], r)
        assert factors.L == transpose(families.window_of(families.M1(1), n))
        assert list(factors.D) == [row[i] for i, row in enumerate(signs.to_rows())]
        assert factors.U == kronecker_power([[1, 1], [0, 1]], r)
    two = exact.ExactMatrix.from_rows
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert exact.mat_mul(two([[1, a], [0, 1]]), two([[1, b], [0, 1]])) \
                == two([[1, a + b], [0, 1]])
    lower_d = exact.mat_mul(two([[1, 0], [1, 1]]), two([[1, 0], [0, -1]]))
    assert exact.mat_mul(lower_d, two([[1, 1], [0, 1]])) == two([[1, 1], [1, 0]])


def test_report_structure():
    report = verify.run_check("item1", n_max=4)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["failures"] == []
    assert d["checked"] == 4
    assert "windowing" in d["notes"]


def test_failure_reporting():
    # a deliberately wrong expectation exercises the failure path
    report = verify.VerificationReport("demo", "n=1")
    report.fail("n=1", 1, 2)
    assert not report.passed
    assert report.to_dict()["failures"][0] == \
        {"parameters": "n=1", "expected": "1", "actual": "2"}


def _corrupt(monkeypatch, kind, a, i0, j0, delta=1):
    """Add delta to entry (i0, j0) of the family kind at parameter a."""
    takes_a, make = families.KINDS[kind]

    def maker(x, n, m, k):
        for i, row in enumerate(make(x, n, m, k)):
            if (x, i) == (a, i0) and 0 <= j0 - k < m:
                row[j0 - k] += delta
            yield row

    monkeypatch.setitem(families.KINDS, kind, (takes_a, maker))


# (identity, options, corrupted (kind, a, i, j), the one failure, checked)
CORRUPTED = {
    # P1(-2) P1^2 == I: row 1 of the left side gains row 3 of P1(2)
    "item2-negative": ("item2", {"a": (-2,), "n_max": 6}, ("P1", -2, 1, 3),
                       {"parameters": "a=-2, n=4, entry (1,3)",
                        "expected": "0", "actual": "1"}, 6),
    # P1(0) P1^3 == P1(3) with the right side's C(2,0) 3^2 = 9 made 10
    "item2-positive": ("item2", {"a": (3,), "n_max": 6}, ("P1", 3, 0, 2),
                       {"parameters": "a=3, n=3, entry (0,2)",
                        "expected": "10", "actual": "9"}, 6),
    # the running product's base P1(1) has its (0,1) entry 1 made 2, so P1^3 holds 6 there
    "item2-base": ("item2", {"a": (3,), "n_max": 4}, ("P1", 1, 0, 1),
                   {"parameters": "a=3, n=2, entry (0,1)",
                    "expected": "3", "actual": "6"}, 4),
    # a grid parameter outside {1, x, x+1}: the hypothesis, checked on the window of
    # a + b = 4, wants C(4,1) 4^3 = 256 at (1,4)
    "group-law-p1": ("group-law-p1", {"a": (1, 2), "n_max": 6}, ("P1", 4, 1, 4),
                     {"parameters": "a=4, n=5, entry (1,4)",
                      "expected": "256", "actual": "257"}, 4 * 6),
    # M1(1) is the proof's W(F(1)): its (0,1) entry 2 makes the hypothesis want
    # 2 x at x = 2^6, where M1(x) holds x
    "group-law-m1": ("group-law-m1", {"a": (0, 1), "n_max": 8}, ("M1", 1, 0, 1),
                     {"parameters": "a=64, n=2, entry (0,1)",
                      "expected": "128", "actual": "64"}, 4 * 8),
    # the scaling wants 2^(s2(1) - s2(1)) times entry (1,1) of the M1(1) window at k = 0
    "det-m1a": ("det-m1a", {"a": (2,), "n_max": 4, "k_max": 0}, ("M1", 2, 1, 1),
                {"parameters": "a=2, k=0, n=2, entry (1,1)", "expected": "1", "actual": "2"}, 4),
    # M1(1)'s entry (3,4) made 1: the scaling wants 2^(s2(4) - s2(3)) = 1/2 there, exactly
    "det-m1a-negative-exponent": ("det-m1a", {"a": (2,), "n_max": 5, "k_max": 0},
                                  ("M1", 1, 3, 4), {"parameters": "a=2, k=0, n=5, entry (3,4)",
                                                    "expected": "1/2", "actual": "0"}, 5),
    "item1": ("item1", {"n_max": 5}, ("P2", 0, 2, 1),
              {"parameters": "P1^T P1, n=3, entry (2,1)",
               "expected": "4", "actual": "3"}, 5),
    "lemma1": ("lemma1", {"n_max": 8}, ("M2", 0, 2, 3),
               {"parameters": "M1^T D M1, n=4, entry (2,3)",
                "expected": "1", "actual": "0"}, 8),
    # t_1 = 1: the corrupted M1 entry (1,3), 2 for 1, enters with sign -1
    "lemma1-signed-row": ("lemma1", {"n_max": 8}, ("M1", 1, 1, 3),
                          {"parameters": "M1^T D M1, n=4, entry (1,3)",
                           "expected": "0", "actual": "-1"}, 8),
}


@pytest.mark.parametrize("case", CORRUPTED.values(), ids=CORRUPTED)
def test_corrupted_entry_is_reported_by_entry(case, monkeypatch):
    identity_id, options, (kind, a, i, j), failure, checked = case
    _corrupt(monkeypatch, kind, a, i, j)
    report = verify.run_check(identity_id, **options)
    assert report.failures == [failure]
    assert report.checked == checked


def test_every_entry_failure_names_its_smallest_window():
    # the one failure rule: entry (i,j) is named with n = max(i,j) + 1, the smallest
    # window that holds it
    labels = [case[3]["parameters"] for case in CORRUPTED.values()]
    found = [re.search(r", n=(\d+), entry \((\d+),(\d+)\)$", label) for label in labels]
    assert all(m and int(m[1]) == max(int(m[2]), int(m[3])) + 1 for m in found), labels


def _failure(parameters, expected, actual) -> dict:
    return {"parameters": parameters, "expected": str(expected), "actual": str(actual)}


def test_item2_reports_failures_in_the_order_of_a(monkeypatch):
    # the powers run in increasing |a| (P1^2, then P1^3), the failures in the order of a
    _corrupt(monkeypatch, "P1", 1, 0, 1)
    report = verify.run_check("item2", a=(3, -2), n_max=4)
    assert report.failures == [_failure("a=3, n=2, entry (0,1)", 3, 6),
                               _failure("a=-2, n=2, entry (0,1)", 0, 2)]


def test_zero_minor_fails_after_the_minors_below_it(monkeypatch):
    # P1's k=0 window with (1,1) made 2 and (3,3) made 0: leading minors 1, 2, 2, 0
    _corrupt(monkeypatch, "P1", 1, 1, 1)
    _corrupt(monkeypatch, "P1", 1, 3, 3, -1)
    with pytest.raises(exact.SingularMinorError) as err:
        exact.leading_principal_minors(families.window_of(families.P1(1), 4))
    assert (err.value.order, err.value.minors) == (4, [1, 2, 2])
    assert exact.determinant(families.window_of(families.P1(1), 4)) == 0
    report = verify.run_check("det-p1", n_max=4, k_max=0)
    assert report.failures == [_failure("k=0, n=2", 1, 2), _failure("k=0, n=3", 1, 2),
                               _failure("k=0", "nonzero minor", "zero minor of order 4")]
    assert report.checked == 4
    assert report.data == {}


# the minor sweeps: (identity, options, corrupted (kind, a, i, j, delta),
# the failures, checked, data)
CORRUPTED_MINORS = {
    # the k=1 window of P1 gains 1 at (1,1): minors 1, 2, 4, 7
    "det-p1": ("det-p1", {"n_max": 4, "k_max": 1}, ("P1", 1, 1, 2, 1),
               [_failure(f"k=1, n={n}", 1, got) for n, got in ((2, 2), (3, 4), (4, 7))],
               8, {}),
    "det-m2-zero-minor": ("det-m2", {"n_max": 5}, ("M2", 0, 2, 2, 1),
                          [_failure("M2", "nonzero minor", "zero minor of order 3")],
                          5, {}),
    "hankel-h1-zero-minor": ("hankel-h1", {"n_max": 6}, ("H1", 0, 0, 0, -1),
                             [_failure("H1", "nonzero minor", "zero minor of order 1")],
                             6, {}),
    # the minors pass; the 7 x 7 anti-triangular window does not
    "hankel-h2-anti-triangular": (
        "hankel-h2", {"n_max": 4}, ("H2", 0, 4, 2, 1),
        [_failure("anti-triangular n=7, entry (4,2)", 1, 2)],
        10, {"signs": [1, 1, -1, -1]}),
    # entry (0,4) gains 2: minors 1, 1, -1, -1, 1, all of size 1, and (0,4)
    # is above every anti-triangular window's anti-diagonal; n=5 wants -1
    "hankel-h2-signed-minor": ("hankel-h2", {"n_max": 5}, ("H2", 0, 0, 4, 2),
                               [_failure("H2, n=5", -1, 1)],
                               11, {"signs": [1, 1, -1, -1, 1]}),
    # the minors 3, -3, -5 are recorded as their signs
    "hankel-h1-signs": ("hankel-h1", {"n_max": 3}, ("H1", 0, 0, 0, 2),
                        [_failure(f"H1, n={n}", want, got)
                         for n, want, got in ((1, 1, 3), (2, -1, -3), (3, -1, -5))],
                        3, {"signs": [1, -1, -1]}),
    # entry (1,1) turns from -1 to 1: minors 1, 1, 1, of the right size but
    # not the signs 1, -1, -1 that H1's minors carry
    "hankel-h1-signed-minor": ("hankel-h1", {"n_max": 3}, ("H1", 0, 1, 1, 2),
                               [_failure(f"H1, n={n}", -1, 1) for n in (2, 3)],
                               3, {"signs": [1, 1, 1]}),
}


@pytest.mark.parametrize("case", CORRUPTED_MINORS.values(), ids=CORRUPTED_MINORS)
def test_corrupted_minor_sweep_fails(case, monkeypatch):
    identity_id, options, corrupted, failures, checked, data = case
    _corrupt(monkeypatch, *corrupted)
    minors = _calls(monkeypatch, "leading_principal_minors")
    report = verify.run_check(identity_id, **options)
    assert report.failures == failures
    assert report.checked == checked
    assert report.data == data
    # det-m2 and hankel-h* name a failed minor through the Bareiss fallback
    assert bool(minors) == any("anti-triangular" not in f["parameters"] for f in failures)


def test_products_names_the_smallest_failing_block():
    # (0,3) comes first in row order, but (2,2) already breaks the 3 x 3 block
    identity = exact.window(lambda i, j: int(i == j), 4)
    lhs = exact.ExactMatrix.from_rows([[1, 0, 0, 5], [0, 1, 0, 0],
                                       [0, 0, 7, 0], [0, 0, 0, 1]])
    assert verify._first_difference("demo", exact.product_rows(lhs, identity),
                                    identity.to_rows()) == ("demo, n=3, entry (2,2)", 1, 7)
    assert verify._first_difference("demo", exact.product_rows(identity, identity),
                                    identity.to_rows()) is None


def test_run_check_registry():
    assert verify.run_check("item1", n_max=4).passed
    with pytest.raises(ValueError):
        verify.run_check("no-such-identity")
    # options outside the identity's grid, and grids that check nothing
    for identity_id, options in [("item1", {"k_max": 3}), ("hankel-h1", {"a": (1,)}),
                                 ("det-p1", {"n_max": 0}), ("det-p1", {"k_max": -1}),
                                 ("item2", {"a": (0,)}), ("group-law-m1", {"a": ()})]:
        with pytest.raises(verify.GridError):
            verify.run_check(identity_id, **options)
    with pytest.raises(ValueError):
        verify.run_check("item1", n_max=-1)
    # the anti-triangular windows of hankel-h2 do not depend on n_max
    assert verify.run_check("hankel-h2", n_max=0).checked == verify._ANTI_K_MAX


def test_run_check_builds_one_report_per_identity(monkeypatch):
    # every sweep writes into run_check's report and builds no scratch report of its own
    built, report_type = [], verify.VerificationReport
    monkeypatch.setattr(verify, "VerificationReport",
                        lambda *args, **kwargs: built.append(args[0]) or report_type(*args, **kwargs))
    for identity_id in verify.IDENTITIES:
        assert verify.run_check(identity_id).passed
    assert built == list(verify.IDENTITIES)


def test_verify_all_is_run_check_over_the_registry(monkeypatch):
    # one run_check per report, so a wrapper summing `checked` over its
    # calls counts each report once
    calls = []

    def run_check(identity_id, **options):
        calls.append((identity_id, options))
        return verify.VerificationReport(identity_id, "", checked=1)

    monkeypatch.setattr(verify, "run_check", run_check)
    assert cli.run(["verify", "all"], out=io.StringIO()) == 0
    assert calls == [(identity_id, {}) for identity_id in verify.IDENTITIES]
