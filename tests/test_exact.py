"""Exact matrix kernel tests, including the independent cofactor oracle."""

from __future__ import annotations

import json
import math
import random
import signal
from fractions import Fraction

import pytest

from pascalhankel import exact, families
from pascalhankel.exact import ExactMatrix


def cofactor_determinant(rows):
    """Independent oracle: determinant by recursive cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def fraction_ldu(a):
    """Reference LDU: textbook Gaussian elimination over Fraction."""
    n = a.rows
    u = [[Fraction(x) for x in row] for row in a.to_rows()]
    l = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        if u[k][k] == 0:
            raise exact.SingularMinorError(k + 1)
        for i in range(k + 1, n):
            f = u[i][k] / u[k][k]
            l[i][k] = f
            if f:
                u[i] = [x - f * y for x, y in zip(u[i], u[k])]
    d = [u[k][k] for k in range(n)]
    for k in range(n):
        u[k] = [x / d[k] for x in u[k]]
    return l, d, u


def assert_ldu_matches_reference(a):
    l, d, u = fraction_ldu(a)
    f = exact.ldu_decompose(a)
    assert f.L.to_rows() == l and list(f.D) == d and f.U.to_rows() == u
    # integral entries come back as int, as the CLI prints them
    for x in f.L.entries + f.D + f.U.entries:
        assert isinstance(x, int) or x.denominator != 1


def random_matrix(rng, n, lo=-9, hi=9):
    return ExactMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_window_examples():
    assert families.window_of(families.P1(1), 1, 1, 0).to_rows() == [[1]]
    assert families.window_of(families.P1(1), 2, 2, 1).to_rows() == [[1, 1], [1, 2]]
    assert families.window_of(families.M2, 2).to_rows() == [[1, 1], [1, 0]]


def test_window_rejects_negative():
    with pytest.raises(ValueError):
        exact.window(lambda i, j: 1, -1, 2, 0)


def test_exact_matrix_rejects_malformed_shapes():
    with pytest.raises(ValueError, match="nonnegative"):
        ExactMatrix(-1, 0, ())
    with pytest.raises(ValueError, match="entry count"):
        ExactMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_mat_mul_examples():
    i2 = exact.window(lambda i, j: int(i == j), 2)
    assert exact.mat_mul(i2, i2) == i2
    u = ExactMatrix.from_rows([[1, 1], [0, 1]])
    assert exact.mat_mul(u, u).to_rows() == [[1, 2], [0, 1]]
    m1 = families.window_of(families.M1(1), 2)
    assert exact.mat_mul(m1, m1) == families.window_of(families.M1(2), 2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        exact.mat_mul(exact.window(lambda i, j: int(i == j), 2),
                      exact.window(lambda i, j: int(i == j), 3))
    rows = exact.product_rows(exact.window(lambda i, j: int(i == j), 2),
                              exact.window(lambda i, j: int(i == j), 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        next(rows)


class CountingInt(int):
    """An int that counts the multiplications it takes part in."""

    calls = 0

    def __mul__(self, other):
        CountingInt.calls += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def leading_block(a, n):
    """The upper-left n x n block of a."""
    return ExactMatrix.from_rows(row[:n] for row in a.to_rows()[:n])


def nonzero_triples(a, b):
    a_rows, b_rows = a.to_rows(), b.to_rows()
    return sum(1 for i in range(a.rows) for l in range(a.cols) for j in range(b.cols)
               if a_rows[i][l] and b_rows[l][j])


@pytest.mark.parametrize("family, sizes, count", [
    (families.M1(1), [2 ** r for r in range(6)], lambda n: n * n),  # 4^r at n = 2^r
    (families.P1(1), [0, 1, 2, 3, 7, 20, 33], lambda n: math.comb(n + 2, 3)),
])
def test_mat_mul_multiplies_once_per_nonzero_triple(family, sizes, count):
    # every nonzero a counting 2, so no entry is 1 and a shortcut for
    # x == 1 would not change the count
    for n in sizes:
        pattern = families.window_of(family, n)
        a = ExactMatrix(n, n, tuple(CountingInt(2) if x else 0 for x in pattern.entries))
        CountingInt.calls = 0
        exact.mat_mul(a, a)
        assert CountingInt.calls == nonzero_triples(a, a) == count(n)
        CountingInt.calls = 0
        for _ in exact.product_rows(a, a):
            pass
        assert CountingInt.calls == count(n)


def test_determinant_examples():
    assert exact.determinant(families.window_of(families.P2, 4)) == 1
    assert exact.determinant(families.window_of(families.M2, 2)) == -1
    assert exact.determinant(ExactMatrix(0, 0, ())) == 1


def test_determinant_non_square():
    with pytest.raises(ValueError):
        exact.determinant(ExactMatrix(1, 2, (1, 2)))


def test_elimination_kernels_reject_non_integer_entries():
    # Bareiss divides with //, which would floor these Fractions to det 0
    # and a zero minor of order 2
    rows = [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)],
            [Fraction(1, 7), Fraction(2, 3), Fraction(1, 4)],
            [Fraction(3, 4), Fraction(1, 9), Fraction(5, 6)]]
    assert cofactor_determinant(rows) == Fraction(319, 1680)
    assert cofactor_determinant([r[:2] for r in rows[:2]]) == Fraction(2, 7)
    # the second matrix's zero row would give det 0 before any elimination;
    # over F_3 a Fraction has no inverse to eliminate with
    for a in (ExactMatrix.from_rows(rows), ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, 0]]),
              ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                     [Fraction(1, 4), Fraction(1, 5)]])):
        for kernel in (exact.determinant, exact.leading_principal_minors, exact.ldu_decompose,
                       lambda m: exact.rank_mod_p(m, 3)):
            with pytest.raises(ValueError, match="integer entries required") as err:
                kernel(a)
            assert type(err.value) is ValueError


def test_determinant_singular_and_pivoting():
    # a zero row: a block of 1 row and no column
    assert exact.determinant(ExactMatrix.from_rows([[0, 0], [1, 1]])) == 0
    # rows 0 and 1 meet column 0 alone: a block of 2 rows and 1 column
    assert exact.determinant(ExactMatrix.from_rows([[3, 0, 0], [5, 0, 0], [0, 1, 2]])) == 0
    # zero upper-left pivot forces a row swap
    assert exact.determinant(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1


def test_determinant_of_permutation_matrix_is_its_sign():
    # every block is 1x1; the sign comes from the cycle type, (-1)^(n - cycles)
    rng = random.Random(15)
    for n in range(1, 9):
        perm = list(range(n))
        rng.shuffle(perm)
        cycles, seen = 0, set()
        for start in range(n):
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
        a = ExactMatrix.from_rows([[int(j == perm[i]) for j in range(n)] for i in range(n)])
        assert exact.determinant(a) == (-1) ** (n - cycles)


def test_bareiss_matches_cofactor_oracle():
    rng = random.Random(20240)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        assert exact.determinant(a) == cofactor_determinant(a.to_rows())


def test_hankel_det_by_number_wall_matches_cofactor_oracle():
    # zero-rich sequences, so that some walls meet a zero divisor and give None
    rng = random.Random(2701)
    taken = {"wall": 0, "fallback": 0}
    for _ in range(300):
        n = rng.randint(1, 9)
        s = [rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(2 * n - 1)]
        rows = [s[i:i + n] for i in range(n)]
        det = exact._hankel_det([r[:] for r in rows])
        if det is None:
            taken["fallback"] += 1
        else:
            taken["wall"] += 1
            assert det == cofactor_determinant(rows), s
        assert exact.determinant(ExactMatrix.from_rows(rows)) == cofactor_determinant(rows), s
    assert taken["wall"] and taken["fallback"], taken
    # not Hankel: rows 0 and 1 swapped
    assert exact._hankel_det([[2, 3], [1, 2]]) is None


def test_hankel_block_whose_wall_meets_a_zero():
    # s = 0, 1, 0, 1, 1: one connected block, W[1] needs no zero divisor,
    # W[2] divides by W[0][2] = s[2] = 0; the determinant is still -1
    rows = [[0, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert exact._hankel_det(rows) is None
    assert exact.determinant(ExactMatrix.from_rows(rows)) == cofactor_determinant(rows) == -1


def test_determinant_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, -5, 5)
        b = random_matrix(rng, n, -5, 5)
        assert exact.determinant(exact.mat_mul(a, b)) == \
            exact.determinant(a) * exact.determinant(b)


def test_leading_principal_minors_match_determinants():
    rng = random.Random(99)
    done = 0
    while done < 20:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        try:
            minors = exact.leading_principal_minors(a)
        except exact.SingularMinorError:
            continue
        assert minors == [exact.determinant(leading_block(a, k)) for k in range(1, n + 1)]
        done += 1


def test_ldu_examples():
    i3 = exact.window(lambda i, j: int(i == j), 3)
    f = exact.ldu_decompose(i3)
    assert f.L == i3 and f.U == i3 and f.D == (1, 1, 1)

    h = families.window_of(families.H1, 2)
    assert exact.ldu_decompose(h).D == (1, -1)

    for n in (1, 4, 8, 16):
        d = exact.ldu_decompose(families.window_of(families.M2, n)).D
        assert all(x in (1, -1) for x in d)


def test_ldu_reconstructs_and_reports_minor_ratios():
    rng = random.Random(4242)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        try:
            f = exact.ldu_decompose(a)
        except exact.SingularMinorError:
            continue
        d_u = ExactMatrix.from_rows([[d * x for x in row] for d, row in zip(f.D, f.U.to_rows())])
        assert exact.mat_mul(f.L, d_u) == a
        l_rows, u_rows = f.L.to_rows(), f.U.to_rows()
        for k in range(n):
            assert l_rows[k][k] == 1 and u_rows[k][k] == 1
        minors = [exact.determinant(leading_block(a, k)) for k in range(n + 1)]
        assert list(f.D) == [Fraction(minors[k + 1], minors[k]) for k in range(n)]
        done += 1


def test_ldu_matches_fraction_elimination_oracle():
    rng = random.Random(31337)
    done = 0
    while done < 40:
        a = random_matrix(rng, rng.randint(0, 7))
        try:
            fraction_ldu(a)
        except exact.SingularMinorError as err:
            with pytest.raises(exact.SingularMinorError) as got:
                exact.ldu_decompose(a)
            assert got.value.order == err.order
            continue
        assert_ldu_matches_reference(a)
        done += 1


@pytest.mark.parametrize("name, n", [("M2", 64), ("P2", 40), ("H1", 30)])
def test_ldu_of_family_windows_matches_fraction_elimination_oracle(name, n):
    assert_ldu_matches_reference(families.window_of(families.parse_family(name), n))


def test_ldu_lower_factor_transfers_mod_2():
    # A symmetric with every leading minor +-1 has an integral L (L[i][k] = m[i][k]/m[k][k]);
    # for B == A mod 2 with the same property, the LDU over F_2 is unique and D == 1 there,
    # so L_B == L_A mod 2.  A = L D L^T from a random unit L, B = A + 2S, S symmetric
    rng = random.Random(1529)
    pairs = moved = 0
    while pairs < 60:
        n = rng.randint(2, 6)
        lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)]
                 for i in range(n)]
        d = [rng.choice((1, -1)) for _ in range(n)]
        a = ExactMatrix.from_rows([[sum(x * e * y for x, e, y in zip(u, d, v)) for v in lower]
                                   for u in lower])
        s = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        rows = a.to_rows()
        b = ExactMatrix.from_rows([[rows[i][j] + 2 * s[min(i, j)][max(i, j)]
                                    for j in range(n)] for i in range(n)])
        try:
            if any(abs(m) != 1 for m in exact.leading_principal_minors(b)):
                continue
        except exact.SingularMinorError:
            continue
        la, lb = exact.ldu_decompose(a).L, exact.ldu_decompose(b).L
        assert la == ExactMatrix.from_rows(lower)
        assert all(isinstance(x, int) for x in la.entries + lb.entries)
        assert [x % 2 for x in lb.entries] == [x % 2 for x in la.entries]
        pairs += 1
        moved += la != lb
    assert moved > 20, moved  # 32 of the 60 pairs have L_B != L_A: not only equal factors


def test_ldu_reports_vanishing_minor_order():
    a = ExactMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(exact.SingularMinorError) as err:
        exact.ldu_decompose(a)
    assert err.value.order == 2


def test_rank_mod_p_examples():
    assert exact.rank_mod_p(exact.window(lambda i, j: int(i == j), 3), 5) == 3
    remark1 = ExactMatrix.from_rows([[1, 0, 0], [1, 1, 1], [1, 2, 2]])
    assert exact.rank_mod_p(remark1, 3) == 2
    # all entries even, so everything vanishes mod 2
    assert exact.rank_mod_p(ExactMatrix.from_rows([[2, 4], [2, 6]]), 2) == 0
    assert exact.rank_mod_p(ExactMatrix.from_rows([[2, 4], [1, 2]]), 2) == 1


def test_is_prime_matches_a_sieve():
    limit = 10000
    sieve = [False, False] + [True] * (limit - 1)  # sieve[p] for p = 0..limit
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f::f] = [False] * len(sieve[f * f::f])
    assert [exact.is_prime(p) for p in range(-5, limit + 1)] == [False] * 5 + sieve


def test_is_prime_on_pseudoprimes_squares_and_large_primes():
    # strong pseudoprimes to the bases 2; 2, 3, 5, 7; 2, 3, ..., 31; Carmichael numbers
    # below and above the trial-division range; squares of primes
    composites = [2047, 3215031751, 3825123056546413051, 561, 1729, 8911, 41041,
                  37 ** 2, 65521 ** 2, 4294967291 ** 2, (2 ** 31 - 1) ** 2]
    primes = [2 ** 61 - 1, 2 ** 64 - 59, 2 ** 64 + 13, 10 ** 18 + 3, 4294967291, 65521]
    assert not any(map(exact.is_prime, composites))
    assert all(map(exact.is_prime, primes))
    rng = random.Random(5)
    small = [p for p in range(10 ** 5, 10 ** 5 + 3000) if exact.is_prime(p)]
    for _ in range(200):  # semiprimes near 10^10, past every base
        p, q = rng.choice(small), rng.choice(small)
        assert not exact.is_prime(p * q)


def test_is_prime_refuses_the_first_twelve_base_pseudoprime():
    # 318665857834031151167461 = 399165290221 * 798330580441 passes the strong test to
    # every one of the first twelve primes (n - 1 = 4 d, d odd), so from there on that
    # test proves nothing and is_prime refuses to answer
    n = 399165290221 * 798330580441
    d = (n - 1) // 4
    assert d % 2 == 1
    assert all(pow(b, d, n) in (1, n - 1) or pow(b, 2 * d, n) == n - 1 for b in exact._BASES)
    with pytest.raises(ValueError):
        exact.is_prime(n)


def test_rank_mod_p_requires_prime():
    with pytest.raises(ValueError):
        exact.rank_mod_p(exact.window(lambda i, j: int(i == j), 2), 6)


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            cols = rng.randint(1, 5)
            a = ExactMatrix.from_rows(
                [[rng.randint(0, 20) for _ in range(cols)]
                 for _ in range(rng.randint(1, 5))])
            rows = a.to_rows()
            transposed = exact.window(lambda i, j: rows[j][i], a.cols, a.rows)
            assert exact.rank_mod_p(a, p) == exact.rank_mod_p(transposed, p)


def span_size_mod_p(rows, p, cols):
    """Independent oracle: the number of vectors in the F_p row span,
    found by enumerating every combination of the rows."""
    span = {(0,) * cols}
    for row in rows:
        span = {tuple((v + c * x) % p for v, x in zip(vec, row))
                for vec in span for c in range(p)}
    return len(span)


def insert_lists(basis: dict, row: list, time: int, p: int) -> None:
    """Reference elimination: exact._insert on rows as lists of entries in
    0..p-1, one entry at a time, with the same basis, lead column ->
    (time, row, inverse of the row's lead), and the same swap rule.  Rows
    are rebound, never mutated: callers pass rows of a shared table."""
    n = len(row)
    c = 0
    while True:
        while c < n and not row[c]:
            c += 1
        if c == n:
            return
        kept = basis.get(c)
        if kept is None or kept[0] < time:
            basis[c] = (time, row, pow(row[c], -1, p))
            if kept is None:
                return
            time, row, _ = kept
        _, pivot, inv = basis[c]
        f = row[c] * inv % p
        row = [0] * c + [(x - f * y) % p for x, y in zip(row[c:], pivot[c:])]
        c += 1


def unpacked(basis: dict, field: tuple, width: int) -> dict:
    """A basis of packed rows with each row as a list of its fields."""
    b = field[1]
    return {c: (time, [row >> j * b & (1 << b) - 1 for j in range(width)], inv)
            for c, (time, row, inv) in basis.items()}


@pytest.fixture
def deadline():
    """Fail the test after 30 s (it takes about 1 s) should exact._insert loop without end,
    as it did when a faulty reduction left the lead field at p or above."""
    def expire(signum, frame):
        raise TimeoutError("exact._insert did not finish within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
def test_shared_rank_loop_matches_span_enumeration():
    """The one F_p elimination, exact._insert on packed rows, and the list
    reference: a stack inserted with decreasing times keeps rank-many rows;
    inserted with increasing times, the kept rows of time >= l and lead < m
    count the rank of rows l.. cut to their first m columns."""
    rng = random.Random(7)
    seen = set()
    for p in (2, 3, 5, 7):
        for _ in range(25):
            nrows = rng.randint(0, 6)
            # keep the span at most 7^4 vectors so enumeration stays cheap
            cols = rng.randint(0, 6 if p < 5 else 4)
            rows = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(cols)]
                    for _ in range(nrows)]
            for i in rng.sample(range(nrows), nrows // 3):
                rows[i] = [0] * cols
            before = [list(r) for r in rows]
            field = exact._field(p, cols)
            packed = [exact._pack(row, field) for row in rows]
            bases = []
            for time in (lambda i: -i, lambda i: i):
                basis, reference = {}, {}
                for i, row in enumerate(rows):
                    exact._insert(basis, packed[i], time(i), field)
                    insert_lists(reference, row, time(i), p)
                assert unpacked(basis, field, cols) == reference, (p, rows)
                bases.append(basis)
            r = len(bases[0])
            assert p ** r == span_size_mod_p(rows, p, cols), (p, rows)
            assert exact.rank_mod_p(ExactMatrix(nrows, cols, tuple(x for row in rows
                                                                    for x in row)), p) == r
            for l in range(nrows + 1):
                for m in range(cols + 1):
                    kept = sum(1 for c, (time, _, _) in bases[1].items() if time >= l and c < m)
                    cut = [row[:m] for row in rows[l:]]
                    assert p ** kept == span_size_mod_p(cut, p, m), (p, rows, l, m)
            assert rows == before  # the reference rebinds rows, never mutates them
            seen.add((nrows > cols, r == min(nrows, cols)))
    # wide, tall, full-rank and rank-deficient matrices all occur
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.usefixtures("deadline")
def test_packed_elimination_matches_the_list_reference():
    """exact._insert on packed rows against insert_lists at small and
    word-sized primes over widths 0..130: the same basis row for row, with
    increasing and decreasing times, and rank_mod_p of entries outside
    0..p-1.  Zero rows, repeated rows, combinations of earlier rows and rows
    of all p - 1 occur; reducing a row of all p - 1 by another gives the
    largest field sum, p^2 - p, in every field."""
    rng = random.Random(3030)
    ranks = set()
    for p in (2, 3, 5, 7, 251, 65521, 2 ** 31 - 1, 4294967291):
        for width in range(131):
            rows = []
            for i in range(rng.randint(0, 7)):
                kind = rng.randrange(5) if i else 0
                if kind == 1:
                    rows.append([0] * width)
                elif kind == 2:
                    rows.append(list(rows[rng.randrange(i)]))
                elif kind == 3:
                    f, g = rng.randrange(p), rng.randrange(p)
                    rows.append([(f * x + g * y) % p for x, y in
                                 zip(rows[rng.randrange(i)], rows[rng.randrange(i)])])
                elif kind == 4 or rng.random() < 0.2:
                    rows.append([p - 1] * width)
                else:
                    rows.append([rng.randrange(p) if rng.random() < 0.8 else 0
                                 for _ in range(width)])
            field = exact._field(p, width)
            for time in (lambda i: -i, lambda i: i):
                basis, reference = {}, {}
                for i, row in enumerate(rows):
                    exact._insert(basis, exact._pack(row, field), time(i), field)
                    insert_lists(reference, row, time(i), p)
                assert unpacked(basis, field, width) == reference, (p, width)
            shifted = tuple(x + p * rng.randint(-3, 3) for row in rows for x in row)
            assert exact.rank_mod_p(ExactMatrix(len(rows), width, shifted), p) == len(reference)
            ranks.add((len(reference) < min(len(rows), width), len(reference) == len(rows)))
    assert ranks == {(False, True), (True, False), (False, False)}


@pytest.mark.parametrize("maker", [families.P1, families.M1])
def test_window_multiplicativity_for_triangular_families(maker):
    # truncation is multiplicative for upper triangular generators
    full_a = families.window_of(maker(2), 64)
    full_b = families.window_of(maker(-3), 64)
    product = exact.mat_mul(full_a, full_b)
    for n in [1, 2, 3, 5, 8, 13, 21, 31, 32, 33, 47, 63, 64]:
        direct = exact.mat_mul(leading_block(full_a, n), leading_block(full_b, n))
        assert direct == leading_block(product, n)


def test_json_roundtrip():
    # the exact text `matrix show --format json` prints: entries as strings
    a = ExactMatrix.from_rows([[-12, 3], [10 ** 30, 0]])
    d = json.loads(exact.to_json(a))
    assert d["entries"][1][0] == str(10 ** 30)
    assert exact.to_json(a) == \
        '{"rows": 2, "cols": 2, "entries": [["-12", "3"], ["%d", "0"]]}' % 10 ** 30


def test_csv_roundtrip():
    # the exact text `matrix show` prints: no header, no trailing newline
    a = ExactMatrix.from_rows([[1, -2, 3], [4, 5, -6]])
    assert exact.to_csv(a) == "1,-2,3\n4,5,-6"


@pytest.mark.usefixtures("deadline")
def test_insert_raises_where_a_reduction_leaves_the_lead(monkeypatch):
    """With Barrett's exponent one short, 2 bit_length(p) - 1, a reduction can leave the
    lead field nonzero; exact._insert raises then instead of adding the pivot forever."""
    field = exact._field

    def short(p, width):
        p, b, n, _, _, top, k = field(p, width)
        ones, n = top >> b - 1, n - 1
        return p, b, n, (1 << n) // p, ones * ((1 << b - n) - 1), top, k

    monkeypatch.setattr(exact, "_field", short)
    rng = random.Random(251)
    with pytest.raises(ArithmeticError, match="not cleared mod 251"):
        for _ in range(200):
            exact.rank_mod_p(ExactMatrix(12, 12, tuple(rng.randrange(251) for _ in range(144))),
                             251)
