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

    @property
    def s(self) -> int:
        return len(self.generators)

    def matrix(self, dim: int, rows: int, cols: int) -> exact.ExactMatrix:
        """rows x cols upper-left window of generator dim, reduced mod p."""
        g = self.generators[dim]
        if isinstance(g, exact.ExactMatrix):
            w = g.submatrix(rows, cols)
        else:
            w = families.window_of(g, rows, cols)
        return exact.ExactMatrix(rows, cols, tuple(x % self.p for x in w.entries))


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


def stacked_rank_ok(gs: GeneratingSet, m: int, t: int, composition) -> bool:
    """Full-row-rank test of the stacked (m-t) x m matrix built from the
    first d_i rows of each generator window."""
    composition = tuple(composition)
    if len(composition) != gs.s or any(d < 0 for d in composition):
        raise ValueError("composition must have s nonnegative parts")
    if sum(composition) != m - t:
        raise ValueError("composition must sum to m - t")
    rows = []
    for dim, d in enumerate(composition):
        if d:
            rows.extend(gs.matrix(dim, d, m).to_rows())
    if not rows:
        return True
    stacked = exact.ExactMatrix.from_rows(rows)
    return exact.rank_mod_p(stacked, gs.p) == m - t


def t_value(gs: GeneratingSet, m_max: int) -> list:
    """Minimal t per depth m = 1..m_max, exhaustive over compositions."""
    if m_max < 1:
        raise ValueError("m_max must be positive")
    out = []
    for m in range(1, m_max + 1):
        for t in range(m + 1):
            if all(stacked_rank_ok(gs, m, t, c)
                   for c in compositions(m - t, gs.s)):
                out.append(t)
                break
    return out


def _digit_vectors(gs: GeneratingSet, n: int, m: int, windows: list) -> list:
    """Per-dimension digit vectors y = C^(m) . digits(n) mod p, least
    significant digit first."""
    p = gs.p
    digits = []
    v = n
    for _ in range(m):
        digits.append(v % p)
        v //= p
    return [[sum(c[r][k] * digits[k] for k in range(m)) % p for r in range(m)]
            for c in windows]


def _windows(gs: GeneratingSet, m: int) -> list:
    return [gs.matrix(dim, m, m).to_rows() for dim in range(gs.s)]


def digital_points(gs: GeneratingSet, n_points: int, m: int) -> PointSet:
    """First n_points points of the digital sequence at depth m."""
    if n_points > gs.p ** m:
        raise ValueError(f"cannot place {n_points} points at depth {m} in base {gs.p}")
    p = gs.p
    windows = _windows(gs, m)
    denom = p ** m
    pts = []
    for n in range(n_points):
        coords = []
        for y in _digit_vectors(gs, n, m, windows):
            # y_r is the digit of weight p^(-r-1)
            num = 0
            for d in y:
                num = num * p + d
            coords.append(Fraction(num, denom))
        pts.append(tuple(coords))
    return PointSet(gs.s, tuple(pts))


def net_property_ok(gs: GeneratingSet, m: int) -> bool:
    """Elementary-interval test: for every composition (d_1..d_s) of m,
    each of the p^m aligned boxes holds exactly one of the first p^m
    points."""
    p = gs.p
    count = p ** m
    windows = _windows(gs, m)
    all_digits = [_digit_vectors(gs, n, m, windows) for n in range(count)]
    for comp in compositions(m, gs.s):
        seen = set()
        for ys in all_digits:
            box = tuple(tuple(ys[dim][:d]) for dim, d in enumerate(comp))
            if box in seen:
                return False
            seen.add(box)
        if len(seen) != count:
            return False
    return True


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
