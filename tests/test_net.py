"""Digital net machinery: qualification, points, discrepancy, search."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from pascalhankel import exact, families as fam, net


def gs(p, *gens):
    return net.GeneratingSet(p, tuple(gens))


def test_generating_set_validation():
    with pytest.raises(ValueError):
        net.GeneratingSet(4, (fam.P1(0),))
    with pytest.raises(ValueError):
        net.GeneratingSet(2, ())


def test_compositions():
    assert sorted(net.compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(net.compositions(0, 3)) == [(0, 0, 0)]
    assert len(list(net.compositions(5, 3))) == math.comb(7, 2)


def test_stacked_rank_examples():
    pair = gs(2, fam.M1(0), fam.M1(1))
    assert net.stacked_rank_ok(2, pair.windows(2), 0, (1, 1))
    triple = gs(3, fam.M1(0), fam.M1(1), fam.M1(2))
    assert not net.stacked_rank_ok(3, triple.windows(3), 0, (1, 1, 1))
    assert net.stacked_rank_ok(3, triple.windows(2), 2, (0, 0, 0))
    with pytest.raises(ValueError):
        net.stacked_rank_ok(2, pair.windows(3), 0, (1, 1))


def test_t_value_van_der_corput():
    assert net.t_value(gs(2, fam.P1(0)), 10) == [0] * 10


def test_t_value_faure_pairs_and_counterexample():
    assert net.t_value(gs(2, fam.P1(0), fam.P1(1)), 8) == [0] * 8
    assert net.t_value(gs(3, fam.M1(1), fam.M1(2)), 8) == [0] * 8
    ts = net.t_value(gs(3, fam.M1(0), fam.M1(1), fam.M1(2)), 3)
    assert ts[2] >= 1


def test_t_value_explicit_matrix_generator():
    c = exact.ExactMatrix.identity(6)
    assert net.t_value(net.GeneratingSet(2, (c,)), 6) == [0] * 6
    short = net.GeneratingSet(2, (exact.ExactMatrix.identity(4),))
    # t_value stops at the first depth the generator cannot reach
    with pytest.raises(ValueError, match="generator is 4x4, smaller than depth 5"):
        net.t_value(short, 6)
    with pytest.raises(ValueError, match="generator is 4x4, smaller than depth 6"):
        net.digital_points(short, 3, 6)


def least_t_by_box_counts(g, m):
    """Least t for which every elementary interval of volume p^(t-m)
    holds exactly p^t of the first p^m points, counted box by box."""
    p = g.p
    ps = net.digital_points(g, p ** m, m)
    # p^m points in p^(m-t) boxes: all hold p^t when every nonempty one does
    for t in range(m + 1):
        if all(set(Counter(tuple(math.floor(x * p ** d) for x, d in zip(pt, comp))
                           for pt in ps.points).values()) == {p ** t}
               for comp in net.compositions(m - t, ps.s)):
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


def test_digital_points_van_der_corput():
    ps = net.digital_points(gs(2, fam.P1(0)), 8, 3)
    assert [pt[0] for pt in ps.points] == \
        [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
         Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]


def test_digital_points_origin_and_bounds():
    g = gs(3, fam.M1(1), fam.M1(2))
    ps = net.digital_points(g, 9, 2)
    assert ps.points[0] == (Fraction(0), Fraction(0))
    for pt in ps.points:
        for x in pt:
            assert 0 <= x < 1
            assert 9 % x.denominator == 0
    with pytest.raises(ValueError):
        net.digital_points(g, 10, 2)


def test_faure_pair_is_a_net_at_depth_2():
    g = gs(2, fam.P1(0), fam.P1(1))
    ps = net.digital_points(g, 4, 2)
    # each of the four aligned boxes of area 1/4 contains one point
    for d1, d2 in ((2, 0), (1, 1), (0, 2)):
        boxes = {(x * 2 ** d1 // 1, y * 2 ** d2 // 1) for x, y in ps.points}
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
    vdc4 = net.digital_points(gs(2, fam.P1(0)), 4, 2)
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
    vdc = net.digital_points(gs(2, fam.P1(0)), 1024, 10)
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
