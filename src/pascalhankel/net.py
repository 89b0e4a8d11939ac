"""Digital (t,s)-sequence machinery over F_p.

Stacked-rank qualification checks, per-depth t-values, digital-method
point generation with exact rational coordinates, exact star discrepancy
at desk scale, and a search harness for a third base-3 generating matrix.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

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


def stacked_rank_ok(p: int, windows: list, t: int, composition) -> bool:
    """Full-row-rank test over F_p of the stacked (m-t) x m matrix built
    from the first d_i rows of each m x m window (GeneratingSet.windows)."""
    composition = tuple(composition)
    if len(composition) != len(windows) or any(d < 0 for d in composition):
        raise ValueError("composition must have s nonnegative parts")
    m = len(windows[0])
    if sum(composition) != m - t:
        raise ValueError("composition must sum to m - t")
    rows = [row for w, d in zip(windows, composition) for row in w[:d]]
    if not rows:
        return True
    return exact.rank_mod_p(exact.ExactMatrix.from_rows(rows), p) == m - t


def t_value(gs: GeneratingSet, m_max: int) -> list:
    """Minimal t per depth m = 1..m_max, exhaustive over compositions."""
    if m_max < 1:
        raise ValueError("m_max must be positive")
    out = []
    for m in range(1, m_max + 1):
        windows = gs.windows(m)
        for t in range(m + 1):
            if all(stacked_rank_ok(gs.p, windows, t, c)
                   for c in compositions(m - t, len(windows))):
                out.append(t)
                break
    return out


def digital_points(gs: GeneratingSet, n_points: int, m: int) -> PointSet:
    """First n_points points of the digital sequence at depth m: coordinate
    i of point n is 0.y_1 ... y_m in base p, y = C_i . digits(n) mod p for
    the m x m window C_i and the digits of n, least significant first."""
    p = gs.p
    if n_points > p ** m:
        raise ValueError(f"cannot place {n_points} points at depth {m} in base {p}")
    windows = gs.windows(m)
    denom = p ** m
    pts = []
    for n in range(n_points):
        digits = [n // p ** k % p for k in range(m)]
        coords = []
        for c in windows:
            num = 0
            for row in c:
                num = num * p + sum(a * b for a, b in zip(row, digits)) % p
            coords.append(Fraction(num, denom))
        pts.append(tuple(coords))
    return PointSet(len(windows), tuple(pts))


def star_discrepancy(ps: PointSet) -> Fraction:
    """Exact star discrepancy D*_N for dimension 1 or 2."""
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
        xs = sorted({pt[0] for pt in ps.points} | {Fraction(1)})
        ys = sorted({pt[1] for pt in ps.points} | {Fraction(1)})
        pts = ps.points
        best = Fraction(0)
        for a in xs:
            for b in ys:
                open_count = sum(1 for x, y in pts if x < a and y < b)
                closed_count = sum(1 for x, y in pts if x <= a and y <= b)
                vol = a * b
                best = max(best, vol - Fraction(open_count, n),
                           Fraction(closed_count, n) - vol)
        return best
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
