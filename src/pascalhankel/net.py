"""Digital (t,s)-sequence machinery over F_p.

Per-depth t-values from stacked-rank qualification, digital-method
point generation as integer numerators over p^m, exact star discrepancy
in dimensions 1 and 2, and a search harness for a third base-3 generating
matrix.
"""

import functools
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
        return [_window(g, m, self.p) for g in self.generators]


def _window(g, m: int, p: int) -> list:
    if isinstance(g, exact.ExactMatrix) and (g.rows < m or g.cols < m):
        raise ValueError(f"explicit generator is {g.rows}x{g.cols}, "
                         f"smaller than depth {m}")
    rows = g.to_rows()[:m] if isinstance(g, exact.ExactMatrix) else families.rows(g, m)
    return [[x % p for x in row[:m]] for row in rows]


@dataclass(frozen=True)
class PointSet:
    s: int
    points: tuple  # tuples of Fractions in [0, 1)


def t_value(gs: GeneratingSet, m_max: int) -> list:
    """Minimal t = m - k per depth m = 1..m_max, k the largest strength whose
    compositions all pass, from the windows built once at m_max."""
    return _t_values(gs.p, gs.windows(m_max), m_max)


def _t_values(p: int, windows: list, m_max: int) -> list:
    """t per depth 1..m_max from m_max x m_max windows reduced mod p, in one
    pass that keeps the echelon form of the rows already stacked (Pirsic &
    Schmid, J. Complexity 17 (2001)); about R^4 steps for three generators.

    need(c), the least depth at which composition c's stack has full rank,
    is 1 + the largest leading column of its basis.  T[k], the largest need
    over the compositions of k, never falls, so the strength at depth m is
    the largest k <= m with T[k] <= m.  The walk over d_1..d_{s-2} stamps
    their rows newest, so every window keeps them.  The stacks Y[:a] + X[:b]
    of the last two generators are the windows of Y_{R-1}..Y_0, X_0..X_{R-1}
    around the boundary: once row r is in, window [l, r] has rank
    #{kept rows of time >= l}, and at depth m #{those of lead < m}.
    """
    if m_max < 1:
        raise ValueError("m_max must be positive")
    never = m_max + 1
    worst = [0] * (m_max + 1)  # largest need found over the compositions of k
    field = exact._field(p, m_max)
    windows = [[exact._pack(row, field) for row in w] for w in windows]

    def last_two(xs, ys, used, prefix):
        budget = m_max - used
        basis = dict(prefix)
        for a in range(min(budget, len(ys)), 0, -1):
            exact._insert(basis, ys[a - 1], -a, field)
        for b in range(budget + 1):
            if b:
                exact._insert(basis, xs[b - 1], b - 1, field)
            # the prefix rows, stamped newest, and X[:b] are in every window
            count, top, leads = 0, 0, {}
            for c, (time, _, _) in basis.items():
                if time >= 0:
                    count += 1
                    top = max(top, c + 1)
                else:
                    leads[-time] = c
            for a in range(min(budget - b, len(ys)) + 1):
                if a in leads:
                    count += 1
                    top = max(top, leads[a] + 1)
                if count < used + a + b:
                    # every larger a (and, from a = 0, every larger b) fails too
                    worst[used + a + b] = never
                    if a == 0:
                        return
                    break
                worst[used + a + b] = max(worst[used + a + b], top)

    def walk(gens, used, prefix):
        if len(gens) <= 2:
            last_two(gens[0], gens[1] if len(gens) == 2 else [], used, prefix)
            return
        prefix = dict(prefix)
        for d in range(m_max - used + 1):
            walk(gens[1:], used + d, prefix)
            if used + d == m_max:
                return
            exact._insert(prefix, gens[0][d], m_max + used + d, field)
            if len(prefix) == used + d:  # singular, and so is every extension
                worst[used + d + 1] = never
                return

    walk(windows, 0, {})
    # T[k]; each composition the walk skipped is singular, as is one of a
    # smaller k that it recorded as never
    big_t = list(itertools.accumulate(worst, max))
    out = []
    strength = 0
    for m in range(1, m_max + 1):
        while strength < m and big_t[strength + 1] <= m:
            strength += 1
        out.append(m - strength)
    return out


_BLOCK = 1000  # a block of points is the largest power of p <= min(n_points, _BLOCK), or 1


def points(gs: GeneratingSet, n_points: int, m: int):
    """Yield the first n_points points of the digital sequence at depth m,
    each a tuple of integer numerators over p^m: coordinate i of point n is
    0.y_1 ... y_m in base p, y = C_i . digits(n) mod p for the m x m window
    C_i and the digits of n, least significant first.

    With n = q p^h + r, y = C_i[:, :h] . digits(r) + C_i[:, h:] . digits(q).
    The first term is a table per row of C_i over r < p^h, built once; the
    second is one offset per row and block q.  So a block of p^h points
    costs one list comprehension per row of each C_i, forming the numerators
    by Horner's rule in base p, and the tables hold s m p^h <= s m _BLOCK
    entries whatever n_points and p are (past _BLOCK, h = 0: a point a block).
    """
    p = gs.p
    if n_points > p ** m:
        raise ValueError(f"cannot place {n_points} points at depth {m} in base {p}")
    windows = gs.windows(m)
    h = next(h for h in itertools.count() if p ** (h + 1) > min(n_points, _BLOCK))
    # planes[i][r][x] = C_i[r][:h] . digits(x) mod p for x < p^h, one digit of x at a time
    planes = [[functools.reduce(lambda pl, ck: [(y + ck * d) % p for d in range(p) for y in pl],
                                row[:h], [0]) for row in c] for c in windows]
    for q in range(0, n_points, p ** h):
        digits = [q // p ** k % p for k in range(h, m)]
        coords = []
        for c, rows in zip(windows, planes):
            acc = [0] * p ** h
            for row, plane in zip(c, rows):
                off = sum(map(mul, row[h:], digits)) % p
                acc = [a * p + (y + off) % p for a, y in zip(acc, plane)]
            coords.append(acc)
        yield from itertools.islice(zip(*coords), n_points - q)


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

    "m1" walks M1(a), a = 2 .. p - 1 (M1(a) mod p is M1(a mod p)), at most
    budget of them; "random" draws seeded random upper unitriangular windows.
    """
    base = GeneratingSet(p, (families.M1(0), families.M1(1))).windows(m_max)
    results = []
    if candidate_generator == "m1":
        candidates = [(f"M1:a={a}", families.M1(a))
                      for a in range(2, min(p, 2 + budget))]
    elif candidate_generator == "random":
        rng = random.Random(seed)
        candidates = [(f"random[{i}]", random_upper_unitriangular(m_max, p, rng))
                      for i in range(budget)]
    else:
        raise ValueError(f"unknown candidate generator: {candidate_generator!r}")
    for name, cand in candidates:
        ts = _t_values(p, base + [_window(cand, m_max, p)], m_max)
        results.append({"candidate": name, "t_per_m": ts, "t": max(ts)})
    results.sort(key=lambda r: (r["t"], r["candidate"]))
    return results
