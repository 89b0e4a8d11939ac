"""Digital net machinery: qualification, points, discrepancy, search."""

from __future__ import annotations

import copy
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pascalhankel import exact, families as fam, net
from test_exact import insert_lists


def gs(p, *gens):
    return net.GeneratingSet(p, tuple(gens))


def digital_point_set(g, n_points, m):
    """net.points' numerators over p^m as the PointSet of Fractions that
    star_discrepancy reads."""
    d = g.p ** m
    return net.PointSet(len(g.generators), tuple(tuple(Fraction(x, d) for x in pt)
                                                 for pt in net.points(g, n_points, m)))


def test_generating_set_validation():
    with pytest.raises(ValueError):
        net.GeneratingSet(4, (fam.P1(0),))
    with pytest.raises(ValueError):
        net.GeneratingSet(2, ())


def compositions(total, parts):
    """Oracle helper: all tuples of `parts` nonnegative integers summing to `total`."""
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def stacked_rank_ok(p, windows, composition):
    """Reference: full-row-rank test over F_p of the stack of the first d_i
    rows of each m x m window (GeneratingSet.windows): true iff its rank is
    sum(d_i)."""
    composition = tuple(composition)
    if len(composition) != len(windows) or any(d < 0 for d in composition):
        raise ValueError("composition must have s nonnegative parts")
    rows = [row for w, d in zip(windows, composition) for row in w[:d]]
    basis = {}
    for i, row in enumerate(rows):
        insert_lists(basis, row, -i, p)
    return len(basis) == sum(composition)


def test_compositions():
    assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert len(list(compositions(5, 3))) == math.comb(7, 2)


def test_stacked_rank_examples():
    pair = gs(2, fam.M1(0), fam.M1(1))
    assert stacked_rank_ok(2, pair.windows(2), (1, 1))
    # a stack of k rows passes on its rank alone, at any depth m >= k
    assert stacked_rank_ok(2, pair.windows(3), (1, 1))
    triple = gs(3, fam.M1(0), fam.M1(1), fam.M1(2))
    assert not stacked_rank_ok(3, triple.windows(3), (1, 1, 1))
    assert stacked_rank_ok(3, triple.windows(2), (0, 0, 0))
    with pytest.raises(ValueError):
        stacked_rank_ok(2, pair.windows(3), (1, 1, 1))
    with pytest.raises(ValueError):
        stacked_rank_ok(2, pair.windows(3), (2, -1))


def test_rank_tests_leave_the_window_table_unchanged(monkeypatch):
    """t_value builds one windows table, at m_max, and eliminates rows read
    from it, so the elimination must rebind rows, never mutate them."""
    tables = []
    windows = net.GeneratingSet.windows

    def recording(self, m):
        table = windows(self, m)
        tables.append((table, copy.deepcopy(table)))
        return table

    monkeypatch.setattr(net.GeneratingSet, "windows", recording)
    g = gs(3, fam.M1(0), fam.M1(1), fam.M1(2))
    assert net.t_value(g, 6)[-1] >= 1
    table = g.windows(6)
    results = [stacked_rank_ok(3, table, c)
               for k in range(7) for c in compositions(k, 3)]
    assert True in results and False in results
    assert len(tables) == 2
    assert all(table == snapshot for table, snapshot in tables)


def test_t_value_van_der_corput():
    assert net.t_value(gs(2, fam.P1(0)), 10) == [0] * 10
    with pytest.raises(ValueError, match="m_max must be positive"):
        net.t_value(gs(2, fam.P1(0)), 0)


def test_t_value_faure_pairs_and_counterexample():
    assert net.t_value(gs(2, fam.P1(0), fam.P1(1)), 8) == [0] * 8
    assert net.t_value(gs(3, fam.M1(1), fam.M1(2)), 8) == [0] * 8
    # the depth-by-depth search that the one pass replaced gives the same list
    assert net.t_value(gs(3, fam.M1(0), fam.M1(1), fam.M1(2)), 64) == list(map(int, (
        "0 0 1 0 1 2 2 0 1 2 3 4 5 4 4 0 1 2 3 4 5 6 7 8 9 10 10 8 9 8 8 0 "
        "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 20 20 16 17 18 18 16 17 16 16 0"
    ).split()))


def test_t_value_explicit_matrix_generator():
    c = exact.window(lambda i, j: int(i == j), 6)
    assert net.t_value(net.GeneratingSet(2, (c,)), 6) == [0] * 6
    short = net.GeneratingSet(2, (exact.window(lambda i, j: int(i == j), 4),))
    # both build their windows at the full depth
    with pytest.raises(ValueError, match="generator is 4x4, smaller than depth 6"):
        net.t_value(short, 6)
    with pytest.raises(ValueError, match="generator is 4x4, smaller than depth 6"):
        next(net.points(short, 3, 6))


def t_values_by_fresh_search(g, m_max):
    """Reference: at every depth m, the least t = 0, 1, 2, ... for which
    every composition of m - t stacks to full rank, searched afresh."""
    out = []
    for m in range(1, m_max + 1):
        windows = g.windows(m)
        out.append(next(t for t in range(m + 1)
                        if all(stacked_rank_ok(g.p, windows, c)
                               for c in compositions(m - t, len(windows)))))
    return out


def random_generator(size, p, rng):
    """A unitriangular or a dense, possibly singular, matrix; one in four
    has a zero row and one in four repeats an earlier row."""
    if rng.random() < 0.5:
        rows = net.random_upper_unitriangular(size, p, rng).to_rows()
    else:
        rows = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
    kind = rng.randrange(4)
    i = rng.randrange(1, size)
    if kind == 0:
        rows[i] = [0] * size
    elif kind == 1:
        rows[i] = list(rows[rng.randrange(i)])
    return exact.ExactMatrix.from_rows(rows), kind < 2


def test_t_value_matches_fresh_search_on_random_generators():
    """The one pass finds the t of a search from t = 0 at every depth, on
    unitriangular and on dense, possibly singular, windows, with zero and
    repeated rows in the leading generators (a singular prefix)."""
    rng = random.Random(2026)
    lists = []
    singular_prefix = 0
    for p in (2, 3, 5, 7):
        for s in (1, 2, 3, 4):
            for _ in range(6):
                drawn = [random_generator(10, p, rng) for _ in range(s)]
                g = gs(p, *(c for c, _ in drawn))
                ts = net.t_value(g, 10)
                assert ts == t_values_by_fresh_search(g, 10), (p, s, ts)
                lists.append(ts)
                singular_prefix += any(dependent for _, dependent in drawn[:s - 2])
    # some depth gains three or more strengths, so t falls by two or more
    steps = [b - a for ts in lists for a, b in zip(ts, ts[1:])]
    assert min(steps) <= -2 and max(map(max, lists)) >= 3
    assert singular_prefix >= 5


def test_t_value_where_prefix_rows_drop_rows_of_the_shared_last_basis(monkeypatch):
    """The last generator's rows go once into the basis that the walk copies.
    Where they repeat or combine rows of the leading generators, the rows of
    the walk's prefix and of the next-to-last generator, stamped newer,
    displace and drop them; a zero or repeated prefix row drops a prefix row
    (a singular prefix).  The one pass still finds the t of a search from
    t = 0."""
    m, insert, drops = 8, exact._insert, []

    def recording(basis, row, time, field):
        placed, dropped = insert(basis, row, time, field)
        drops.append((time, dropped))
        return placed, dropped

    rng = random.Random(3636)
    for p in (2, 3, 5):
        for s in (3, 4):
            for _ in range(5):
                drawn = [random_generator(m, p, rng)[0].to_rows() for _ in range(s - 1)]
                last = []
                for _ in range(m):
                    lead = rng.choice(drawn)
                    u, v = lead[rng.randrange(m)], lead[rng.randrange(m)]
                    f, g = rng.randrange(p), rng.randrange(p)
                    last.append(list(u) if rng.random() < 0.5 else
                                [(f * x + g * y) % p for x, y in zip(u, v)])
                g = gs(p, *map(exact.ExactMatrix.from_rows, drawn + [last]))
                want = t_values_by_fresh_search(g, m)
                with monkeypatch.context() as patch:
                    patch.setattr(exact, "_insert", recording)
                    assert net.t_value(g, m) == want, (p, s)
    # prefix rows are stamped m and later, the next-to-last generator's 0 .. m - 1
    # and the last generator's -m .. -1
    kinds = {(time >= m, dropped >= m) for time, dropped in drops
             if dropped is not None and (dropped < 0 <= time or dropped >= m)}
    assert kinds == {(True, False), (False, False), (True, True)}


def test_t_value_when_the_last_two_parts_are_zero():
    """Row i of the shift has its one in column i + 1, so (d, 0, 0) needs
    depth d + 1: more than any composition with a row of the last two."""
    shift = exact.ExactMatrix.from_rows([[int(j == i + 1) for j in range(6)]
                                         for i in range(6)])
    g = gs(3, shift, fam.M1(1), fam.M1(2))
    assert net.t_value(g, 6) == t_values_by_fresh_search(g, 6) == [1, 1, 1, 1, 1, 2]
    g = gs(3, fam.M1(1), shift, fam.M1(2), fam.M1(1))
    assert net.t_value(g, 6) == t_values_by_fresh_search(g, 6)


def least_t_by_box_counts(g, m):
    """Least t for which every elementary interval of volume p^(t-m)
    holds exactly p^t of the first p^m points, counted box by box."""
    p = g.p
    pts = list(net.points(g, p ** m, m))
    # p^m points in p^(m-t) boxes: all hold p^t when every nonempty one does;
    # the box of numerator x over p^m at depth d is x // p^(m-d)
    for t in range(m + 1):
        if all(set(Counter(tuple(x // p ** (m - d) for x, d in zip(pt, comp))
                           for pt in pts).values()) == {p ** t}
               for comp in compositions(m - t, len(g.generators))):
            return t


def test_t_value_matches_box_counts_on_random_generators():
    rng = random.Random(2024)
    seen = set()
    for p in (2, 3):
        for s in (1, 2, 3):
            for _ in range(3):
                g = gs(p, *(net.random_upper_unitriangular(5, p, rng) for _ in range(s)))
                for m in range(1, 6):
                    t = net.t_value(g, m)[-1]
                    assert t == least_t_by_box_counts(g, m), (p, s, m)
                    seen.add(t)
    assert max(seen) >= 2


def dot_product_points(g, n_points, m):
    """Independent oracle: coordinate i of point n is 0.y_1 ... y_m, as its
    numerator over p^m, with each digit y_r the dot product of row r of C_i
    with the base-p digits of n, mod p."""
    p = g.p
    windows = g.windows(m)
    pts = []
    for n in range(n_points):
        digits = [n // p ** k % p for k in range(m)]
        coords = []
        for c in windows:
            num = 0
            for row in c:
                num = num * p + sum(map(operator.mul, row, digits)) % p
            coords.append(num)
        pts.append(tuple(coords))
    return pts


@pytest.mark.parametrize("p", [2, 3, 5])
def test_digital_points_match_dot_products(p, monkeypatch):
    """With the block cap as it is, and small enough that depths up to 6
    take many blocks (of one point each at cap 1, of exactly the cap at
    p^2): no point, one, one block and one more, p^m - 1 (not a power of p
    once p^m > 2) and p^m, at depths 0..6."""
    rng = random.Random(p)
    # a family, a random upper unitriangular matrix and an explicit matrix,
    # dense, not triangular, with entries outside 0..p-1
    explicit = exact.ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(6)]
                                            for _ in range(6)])
    pool = (fam.P1(1), net.random_upper_unitriangular(6, p, rng), explicit)
    for s in (1, 2, 3):
        g = gs(p, *(pool[(s + i) % 3] for i in range(s)))
        for m in range(7):
            want = dot_product_points(g, p ** m, m)
            for cap in (net._BLOCK, p + 1, p ** 2) + ((1,) if m < 5 else ()):  # 1: a point a block
                monkeypatch.setattr(net, "_BLOCK", cap)
                block = p ** next(h for h in itertools.count() if p ** (h + 1) > min(p ** m, cap))
                for n_points in {0, 1, block + 1, p ** m - 1, p ** m} - {p ** m + 1}:
                    got = list(net.points(g, n_points, m))
                    assert all(len(pt) == s for pt in got)
                    assert got == want[:n_points], (s, m, cap, n_points)


@pytest.mark.parametrize("p, m", [(2, 11), (3, 8)])
def test_digital_points_match_dot_products_past_the_block_cap(p, m):
    """p^m points in blocks of p^h <= net._BLOCK, the largest such power:
    one block and one more, p^m - 1 and p^m, with an explicit dense
    generator."""
    rng = random.Random(m)
    explicit = exact.ExactMatrix.from_rows([[rng.randint(-9, 9) for _ in range(m)]
                                            for _ in range(m)])
    g = gs(p, fam.M1(1), explicit, net.random_upper_unitriangular(m, p, rng))
    block = p ** next(h for h in itertools.count() if p ** (h + 1) > net._BLOCK)
    assert block <= net._BLOCK < p * block < p ** m
    want = dot_product_points(g, p ** m, m)
    for n_points in (block + 1, p ** m - 1, p ** m):
        assert list(net.points(g, n_points, m)) == want[:n_points]


def test_first_point_peaks_below_a_bound_that_does_not_grow_with_n_points():
    """net.points streams: its tables hold s m p^h entries, p^h <=
    net._BLOCK whatever n_points is, so the first of the 531441 points at
    p = 3 and m = 12 costs what the first of 3^7 does (a whole 3^12 point
    set holds about 50 MB)."""
    g = gs(3, fam.M1(1), fam.M1(2))
    peaks = []
    for n_points in (3 ** 12, 3 ** 7):
        tracemalloc.start()
        try:
            first = next(net.points(g, n_points, 12))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert first == (0, 0)
    assert peaks[0] < 1024 * 1024 and peaks[0] < peaks[1] * 1.1, peaks


@pytest.mark.parametrize("p, m", [(997, 2), (1009, 2), (4294967291, 1)])
def test_blocks_stay_within_the_cap_at_primes_near_and_past_it(p, m):
    """Just below the cap a block is p points, and past it one point: at 2
    and at cap + 1 points the points match the dot products, and taking them
    all peaks far below one table of p^2 (or, at m = 1, p) entries."""
    rng = random.Random(p)
    g = gs(p, fam.P1(1), net.random_upper_unitriangular(m, p, rng))
    for n_points in (2, net._BLOCK + 1):
        if n_points > p ** m:
            continue
        tracemalloc.start()
        try:
            got = list(net.points(g, n_points, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == dot_product_points(g, n_points, m), (p, n_points)
        assert peak < 1024 * 1024, (p, n_points, peak)


def test_digital_points_van_der_corput():
    # 0, 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, 7/8 as numerators over 8
    assert [x for (x,) in net.points(gs(2, fam.P1(0)), 8, 3)] == [0, 4, 2, 6, 1, 5, 3, 7]


def test_digital_points_origin_and_bounds():
    g = gs(3, fam.M1(1), fam.M1(2))
    pts = list(net.points(g, 9, 2))
    assert pts[0] == (0, 0)
    for pt in pts:
        for x in pt:  # a numerator over 9
            assert type(x) is int and 0 <= x < 9
    with pytest.raises(ValueError):
        next(net.points(g, 10, 2))


def test_faure_pair_is_a_net_at_depth_2():
    g = gs(2, fam.P1(0), fam.P1(1))
    pts = list(net.points(g, 4, 2))
    # each of the four aligned boxes of area 1/4 contains one point
    for d1, d2 in ((2, 0), (1, 1), (0, 2)):
        boxes = {(x * 2 ** d1 // 4, y * 2 ** d2 // 4) for x, y in pts}
        assert len(boxes) == 4
    assert least_t_by_box_counts(g, 2) == 0


def test_net_property_detects_bad_sets():
    # duplicated generator cannot equidistribute two-dimensional boxes
    g = gs(2, fam.P1(1), fam.P1(1))
    assert least_t_by_box_counts(g, 2) != 0


def test_star_discrepancy_dim1():
    def ps(*xs):
        return net.PointSet(1, tuple((Fraction(x),) for x in xs))

    assert net.star_discrepancy(ps(0, Fraction(1, 2))) == Fraction(1, 2)
    n = 8
    lattice = ps(*[Fraction(k, n) for k in range(n)])
    assert net.star_discrepancy(lattice) == Fraction(1, n)
    vdc4 = digital_point_set(gs(2, fam.P1(0)), 4, 2)
    assert net.star_discrepancy(vdc4) == Fraction(1, 4)


def test_star_discrepancy_dim2():
    one_origin = net.PointSet(2, ((Fraction(0), Fraction(0)),))
    assert net.star_discrepancy(one_origin) == 1
    centered = net.PointSet(2, ((Fraction(1, 2), Fraction(1, 2)),))
    assert net.star_discrepancy(centered) == Fraction(3, 4)
    with pytest.raises(ValueError):
        net.star_discrepancy(net.PointSet(3, ((Fraction(0),) * 3,)))
    with pytest.raises(ValueError):
        net.star_discrepancy(net.PointSet(1, ()))


def star_discrepancy_by_boxes(ps):
    """Independent oracle: every anchored box [0, a) and [0, a] whose
    corner takes a distinct coordinate value or 1 on each axis, with its
    points counted one by one; O(N^(s+1))."""
    n = len(ps.points)
    axes = [sorted({pt[i] for pt in ps.points} | {Fraction(1)}) for i in range(ps.s)]
    best = Fraction(0)
    for corner in itertools.product(*axes):
        vol = math.prod(corner)
        open_count = sum(all(x < a for x, a in zip(pt, corner)) for pt in ps.points)
        closed_count = sum(all(x <= a for x, a in zip(pt, corner)) for pt in ps.points)
        best = max(best, vol - Fraction(open_count, n), Fraction(closed_count, n) - vol)
    return best


coordinates = st.integers(2, 12).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda k: Fraction(k, d)))


@st.composite
def point_sets(draw):
    """1 to 12 points in dimension 1 or 2 with mixed denominators 2..12,
    drawn from a few values per axis so that coordinates repeat."""
    s = draw(st.sampled_from((1, 2)))
    axes = [draw(st.lists(coordinates, min_size=1, max_size=5)) for _ in range(s)]
    pts = draw(st.lists(st.tuples(*(st.sampled_from(axis) for axis in axes)),
                        min_size=1, max_size=12))
    return net.PointSet(s, tuple(pts))


def point_set(*pts):
    return net.PointSet(len(pts[0]), tuple(tuple(map(Fraction, pt)) for pt in pts))


@settings(max_examples=200, deadline=None)
@given(point_sets())
@example(point_set(("0", "0")))
@example(point_set(("0", "1/2"), ("1/3", "0"), ("1/3", "1/2"), ("1/3", "1/2"), ("0", "1/2")))
@example(point_set(("5/12",), ("1/2",), ("5/12",), ("0",)))
def test_star_discrepancy_matches_box_enumeration(ps):
    assert net.star_discrepancy(ps) == star_discrepancy_by_boxes(ps)


@pytest.mark.parametrize("p, dims, m", [(2, (fam.P1(0), fam.P1(1)), 5),
                                        (3, (fam.M1(1), fam.M1(2)), 3)])
def test_star_discrepancy_of_digital_points_matches_box_enumeration(p, dims, m):
    ps = digital_point_set(gs(p, *dims), p ** m, m)
    assert net.star_discrepancy(ps) == star_discrepancy_by_boxes(ps)


def test_star_discrepancy_pinned_at_1024_points():
    ps = digital_point_set(gs(2, fam.P1(0), fam.P1(1)), 1024, 10)
    assert net.star_discrepancy(ps) == Fraction(1127, 262144)


def test_star_discrepancy_dim2_dominates_sampled_boxes():
    rng = random.Random(12)
    for _ in range(5):
        n = rng.randint(2, 8)
        pts = tuple((Fraction(rng.randrange(16), 16), Fraction(rng.randrange(16), 16))
                    for _ in range(n))
        d = net.star_discrepancy(net.PointSet(2, pts))
        grid = [Fraction(k, 16) for k in range(17)]
        sampled = Fraction(0)
        for a in grid:
            for b in grid:
                count = sum(1 for x, y in pts if x < a and y < b)
                sampled = max(sampled, abs(a * b - Fraction(count, n)))
        assert d >= sampled


def test_van_der_corput_discrepancy_envelope():
    import math as _math
    vdc = digital_point_set(gs(2, fam.P1(0)), 1024, 10)
    for n in list(range(1, 257)) + [512, 1024]:
        ps = net.PointSet(1, vdc.points[:n])
        d = net.star_discrepancy(ps)
        # sanity envelope, not a theorem check: D*_N <= (log N + 1)/N
        assert float(d) <= (_math.log(n) + 1.0) / n


def test_search_third_matrix():
    assert net.search_third_matrix(3, 3, "m1", 0) == []
    results = net.search_third_matrix(3, 3, "m1", 1)
    assert results[0]["candidate"] == "M1:a=2"
    assert results[0]["t"] >= 1
    rand = net.search_third_matrix(3, 3, "random", 5, seed=1)
    assert len(rand) == 5
    assert rand == net.search_third_matrix(3, 3, "random", 5, seed=1)
    with pytest.raises(ValueError):
        net.search_third_matrix(3, 3, "hankel", 1)


def test_m1_candidates_repeat_with_period_p():
    # M1(a) reduced mod p is M1(a mod p), so the m1 walk stops at a = p - 1:
    # a later a would repeat a candidate, and a = 0, 1 are the base generators
    for p in (2, 3, 5, 7):
        for a in range(22):
            assert gs(p, fam.M1(a)).windows(8) == gs(p, fam.M1(a % p)).windows(8)
    for p, budget, walk in ((2, 7, []), (3, 7, ["M1:a=2"]),
                            (7, 3, ["M1:a=2", "M1:a=3", "M1:a=4"])):
        results = net.search_third_matrix(p, 4, "m1", budget)
        assert sorted(r["candidate"] for r in results) == walk
