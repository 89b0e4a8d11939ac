"""Digital (t,s)-sequence machinery over F_p.

Stacked-rank qualification checks, per-depth t-values, digital-method
point generation with exact rational coordinates, exact star discrepancy
in dimensions 1 and 2, and a search harness for a third base-3 generating
matrix.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from . import exact, families


@dataclass(frozen=True)
class GeneratingSet:
    """Prime p plus one entry generator per dimension, reduced mod p.

    Each generator is either a Family or an explicit ExactMatrix (whose
    size bounds the usable depth).
    """

    p: int
    generators: tuple

    def __post_init__(self):
        if not exact.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.generators) < 1:
            raise ValueError("need at least one generating matrix")

    def windows(self, m: int) -> list:
        """Each generator's m x m upper-left window reduced mod p, as lists
        of rows: the one table the rank tests and the points read."""
        out = []
        for g in self.generators:
            if isinstance(g, exact.ExactMatrix):
                if g.rows < m or g.cols < m:
                    raise ValueError(f"explicit generator is {g.rows}x{g.cols}, "
                                     f"smaller than depth {m}")
                w = g.submatrix(m)
            else:
                w = families.window_of(g, m)
            out.append([[x % self.p for x in row] for row in w.to_rows()])
        return out


@dataclass(frozen=True)
class PointSet:
    s: int
    points: tuple  # tuples of Fractions in [0, 1)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def stacked_rank_ok(p: int, windows: list, composition) -> bool:
    """Full-row-rank test over F_p of the stack of the first d_i rows of
    each m x m window (GeneratingSet.windows): true iff its rank is sum(d_i)."""
    composition = tuple(composition)
    if len(composition) != len(windows) or any(d < 0 for d in composition):
        raise ValueError("composition must have s nonnegative parts")
    rows = [row for w, d in zip(windows, composition) for row in w[:d]]
    return exact._rank_reduced(rows, p) == sum(composition)


def t_value(gs: GeneratingSet, m_max: int) -> list:
    """Minimal t = m - k per depth m = 1..m_max, k the largest strength whose
    compositions all pass.  Strength k implies every k' < k, and a depth-m stack
    is the depth-(m-1) stack with one more column, so each depth resumes at k."""
    if m_max < 1:
        raise ValueError("m_max must be positive")
    out = []
    strength = 0
    for m in range(1, m_max + 1):
        windows = gs.windows(m)
        while strength < m and all(stacked_rank_ok(gs.p, windows, c)
                                   for c in compositions(strength + 1, len(windows))):
            strength += 1
        out.append(m - strength)
    return out


def digital_points(gs: GeneratingSet, n_points: int, m: int) -> PointSet:
    """First n_points points of the digital sequence at depth m: coordinate
    i of point n is 0.y_1 ... y_m in base p, y = C_i . digits(n) mod p for
    the m x m window C_i and the digits of n, least significant first.

    Going from n to n+1 raises digit k by one and wraps every digit below
    it from p-1 to 0, which adds (1-p) col_j = col_j mod p; so y gains the
    sum of columns 0..k of C_i, amortised O(m) work per coordinate.
    """
    p = gs.p
    if n_points > p ** m:
        raise ValueError(f"cannot place {n_points} points at depth {m} in base {p}")
    windows = gs.windows(m)
    denom = p ** m
    weights = [p ** (m - 1 - r) for r in range(m)]
    # carry_sums[i][k] = columns 0..k of C_i summed mod p
    carry_sums = []
    for c in windows:
        acc, sums = [0] * m, []
        for k in range(m):
            acc = [(a + row[k]) % p for a, row in zip(acc, c)]
            sums.append(acc)
        carry_sums.append(sums)
    digits = [0] * m
    ys = [[0] * m for _ in windows]
    pts = []
    for n in range(n_points):
        if n:
            k = 0
            while digits[k] == p - 1:
                digits[k] = 0
                k += 1
            digits[k] += 1
            ys = [[(a + b) % p for a, b in zip(y, sums[k])]
                  for y, sums in zip(ys, carry_sums)]
        pts.append(tuple(Fraction(sum(map(mul, y, weights)), denom) for y in ys))
    return PointSet(len(windows), tuple(pts))


def star_discrepancy(ps: PointSet) -> Fraction:
    """Exact star discrepancy D*_N for dimension 1 or 2.

    In dimension 2 the anchored boxes [0, a) x [0, b) and [0, a] x [0, b]
    with a a distinct x or 1 and b a distinct y or 1 are swept in x order
    over integer coordinates on one common denominator, the lcm of the
    denominators, with a histogram of the points by y-rank: O(N^2).
    """
    n = len(ps.points)
    if n < 1:
        raise ValueError("need at least one point")
    if ps.s == 1:
        xs = sorted(x for (x,) in ps.points)
        best = Fraction(0)
        for i, x in enumerate(xs):
            best = max(best, Fraction(i + 1, n) - x, x - Fraction(i, n))
        return best
    if ps.s == 2:
        scale = math.lcm(*(x.denominator for pt in ps.points for x in pt))
        pts = [(int(x * scale), int(y * scale)) for x, y in ps.points]
        ys = sorted({y for _, y in pts} | {scale})
        rank = {y: r for r, y in enumerate(ys)}
        by_x = {}
        for x, y in pts:
            by_x.setdefault(x, []).append(rank[y])
        by_x.setdefault(scale, [])
        # counts weighted by scale^2 so that n a b and count scale^2 compare
        weight = scale * scale
        n_ys = [n * y for y in ys]
        hist = [0] * len(ys)
        # closed counts #{x <= a', y <= b} of the previous a', shifted one
        # y-rank up, are the open counts #{x < a, y < b}
        closed = [0] * len(ys)
        best = 0
        for a in sorted(by_x):
            vol = list(map(a.__mul__, n_ys))
            best = max(best, max(map(sub, vol, itertools.chain((0,), closed))))
            for r in by_x[a]:
                hist[r] += weight
            closed = list(itertools.accumulate(hist))
            best = max(best, max(map(sub, closed, vol)))
        return Fraction(best, n * weight)
    raise ValueError("star discrepancy implemented for dimensions 1 and 2 only")


def random_upper_unitriangular(size: int, p: int, rng: random.Random) -> exact.ExactMatrix:
    rows = [[1 if i == j else (rng.randrange(p) if j > i else 0)
             for j in range(size)] for i in range(size)]
    return exact.ExactMatrix.from_rows(rows)


def search_third_matrix(p: int, m_max: int, candidate_generator: str,
                        budget: int, seed: int = 0) -> list:
    """Heuristic exploration for a third matrix C making {M1(0), M1(1), C}
    a small-t triple in base p.  Results are data, not claims.

    candidate_generator "m1" walks M1(a) for a = 2, 3, ...; "random" draws
    seeded random upper unitriangular matrices of size m_max.
    """
    base = (families.M1(0), families.M1(1))
    results = []
    if candidate_generator == "m1":
        candidates = [(f"M1:a={a}", families.M1(a))
                      for a in range(2, 2 + budget)]
    elif candidate_generator == "random":
        rng = random.Random(seed)
        candidates = [(f"random[{i}]", random_upper_unitriangular(m_max, p, rng))
                      for i in range(budget)]
    else:
        raise ValueError(f"unknown candidate generator: {candidate_generator!r}")
    for name, cand in candidates:
        gs = GeneratingSet(p, base + (cand,))
        ts = t_value(gs, m_max)
        results.append({"candidate": name, "t_per_m": ts, "t": max(ts)})
    results.sort(key=lambda r: (r["t"], r["candidate"]))
    return results
