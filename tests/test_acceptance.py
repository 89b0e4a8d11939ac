"""Acceptance suite: every criterion at its full grid, exact equality.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from pascalhankel import exact, families as fam, laurent, net, sequences as seq, verify


def report(name, ok, elapsed):
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s)")
    assert ok, name


def test_criterion_1_group_law():
    t0 = time.time()
    r = verify.run_check("group-law-m1", a=tuple(range(-5, 6)), n_max=64)
    report("criterion 1: M1 group law, a,b in [-5,5], n <= 64", r.passed,
           time.time() - t0)


def test_criterion_2_factorization():
    t0 = time.time()
    r = verify.run_check("lemma1", n_max=128)
    report("criterion 2: M1^T diag((-1)^t_i) M1 == M2, n <= 128", r.passed,
           time.time() - t0)


def test_criterion_3_determinants():
    t0 = time.time()
    ok = (verify.run_check("det-p1", n_max=12, k_max=64).passed
          and verify.run_check("det-p2", n_max=12, k_max=64).passed
          and verify.run_check("det-m2", n_max=64).passed
          and verify.run_check("det-m1a", n_max=10, k_max=32,
                               a=(1, -1, 2, -2, 3, -3)).passed)
    report("criterion 3: determinant formulas (P1, P2, M2, M1(a))", ok,
           time.time() - t0)


def test_criterion_4_hankel_minors():
    t0 = time.time()
    ok = (verify.run_check("hankel-h1", n_max=40).passed
          and verify.run_check("hankel-h2", n_max=40).passed)
    report("criterion 4: Hankel minors +-1 (n <= 40) and anti-diagonal "
           "structure (k <= 6)", ok, time.time() - t0)


def test_criterion_5_qualification():
    t0 = time.time()
    from test_net import stacked_rank_ok
    ok = True
    for p in (2, 3, 5):
        faure = net.GeneratingSet(p, tuple(fam.P1(a) for a in range(p)))
        ok = ok and net.t_value(faure, 8) == [0] * 8
        for a in range(p):
            for b in range(a + 1, p):
                pair = net.GeneratingSet(p, (fam.M1(a), fam.M1(b)))
                ok = ok and net.t_value(pair, 8) == [0] * 8
    triple = net.GeneratingSet(3, (fam.M1(0), fam.M1(1), fam.M1(2)))
    ok = ok and not stacked_rank_ok(3, triple.windows(3), (1, 1, 1))
    remark1 = exact.ExactMatrix.from_rows([[1, 0, 0], [1, 1, 1], [1, 2, 2]])
    ok = ok and exact.rank_mod_p(remark1, 3) == 2
    report("criterion 5: (0,s)-qualification sweeps and the base-3 "
           "counterexample", ok, time.time() - t0)


def test_criterion_6_continued_fractions():
    t0 = time.time()
    from test_sequences import paperfolding_by_doubling

    cf1 = laurent.cf_expand(laurent.build_L("L1", 61), 30)
    cf2 = laurent.cf_expand(laurent.build_L("L2", 61), 30)
    ok = len(cf1.partial_quotients) >= 30 and len(cf2.partial_quotients) >= 30
    ok = ok and all(q.degree == 1 for q in cf1.partial_quotients)
    ok = ok and all(q.degree == 1 for q in cf2.partial_quotients)
    ok = ok and all(laurent.poly_str(q) == "X" for q in cf1.partial_quotients)
    signs = [q.coeffs[1] for q in cf2.partial_quotients]
    ok = ok and all(q.coeffs[0] == 0 for q in cf2.partial_quotients)
    ok = ok and signs == paperfolding_by_doubling(30)
    report("criterion 6: CF of L1 all X; CF of L2 follows the paperfolding "
           "signs", ok, time.time() - t0)


def test_criterion_7_digital_method():
    t0 = time.time()
    from test_net import digital_point_set, least_t_by_box_counts

    vdc = net.GeneratingSet(2, (fam.P1(0),))
    pts = [Fraction(x, 8) for (x,) in net.points(vdc, 8, 3)]
    ok = pts == [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                 Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]
    ok = ok and net.star_discrepancy(digital_point_set(vdc, 4, 3)) == Fraction(1, 4)
    # box counting for every t=0 report from criterion 5 with p^m <= 729
    sets = []
    for p in (2, 3, 5):
        sets.append(net.GeneratingSet(p, tuple(fam.P1(a) for a in range(p))))
        for a in range(p):
            for b in range(a + 1, p):
                sets.append(net.GeneratingSet(p, (fam.M1(a), fam.M1(b))))
    for gs in sets:
        m = 1
        while gs.p ** (m + 1) <= 729:
            m += 1
        for depth in range(1, m + 1):
            ok = ok and least_t_by_box_counts(gs, depth) == 0
    report("criterion 7: van der Corput plumbing and elementary-interval "
           "counting", ok, time.time() - t0)


def test_criterion_8_oracle_equivalences():
    t0 = time.time()
    from test_exact import cofactor_determinant, random_matrix
    from test_families import h2_structure_entry
    from test_sequences import lucas_binom_mod2

    rng = random.Random(1234)
    ok = True
    for _ in range(200):
        a = random_matrix(rng, rng.randint(1, 5))
        ok = ok and exact.determinant(a) == cofactor_determinant(a.to_rows())
    m2 = fam.window_of(fam.M2, 257).to_rows()
    for i in range(257):
        for j in range(257):
            if not m2[i][j] == lucas_binom_mod2(i, i + j) == math.comb(i + j, i) % 2:
                ok = False
    for k in range(2 ** 14 + 1):
        if seq.SEQUENCES["catalan_interspersed_mod2"](k) != h2_structure_entry(k, 0):
            ok = False
    report("criterion 8: Bareiss vs cofactor, M2 vs Lucas vs binomial parity, "
           "mod-2 Catalan closed form", ok, time.time() - t0)
