"""Reference answers for the benchmark's operations, computed without
importing pascalhankel.

Each function here is an independent second implementation: closed
forms where the mathematics gives one (Catalan numbers by binomials,
paperfolding by the 2-adic valuation), and plain textbook algorithms
written apart from the program's (Gaussian elimination over F_p, a
sorted sweep for the star discrepancy) everywhere else.
"""

from __future__ import annotations

import json
import math
import random
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction

# primes for the modular determinant and LDU checks
PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def catalans(count: int) -> list:
    """C_0, ..., C_{count-1} by C_k = C_{k-1} * 2(2k-1) / (k+1)."""
    out = [1]
    for k in range(1, count):
        out.append(out[-1] * 2 * (2 * k - 1) // (k + 1))
    return out[:count]


def catalan_interspersed(k: int, mod2: bool = False) -> int:
    if k % 2:
        return 0
    c = catalan(k // 2)
    if mod2:
        return c % 2
    return -c if (k // 2) % 2 else c


def paperfolding(i: int) -> int:
    """Term i (from 0) of the +-1 paperfolding sequence 1, -1, -1, -1, 1, ...

    With i + 1 = 2^v * o, o odd: the sign is +1 iff o = 1 mod 4, flipped
    when v > 0.
    """
    n = i + 1
    v = (n & -n).bit_length() - 1
    sign = 1 if (n >> v) % 4 == 1 else -1
    return sign if v == 0 else -sign


def family(name: str):
    """Entry function (i, j) -> int of a family named as on the command line."""
    kind, _, param = name.partition(":")
    a = int(param.partition("=")[2]) if param else 1
    if kind == "P1":
        return lambda i, j: math.comb(j, i) * a ** (j - i) if i <= j else 0
    if kind == "M1":
        # bit-subset pattern of binom(j, i) mod 2, weighted by a per extra bit
        return lambda i, j: (a ** (bin(j).count("1") - bin(i).count("1"))
                             if i & j == i else 0)
    if kind == "P2":
        return lambda i, j: math.comb(i + j, i)
    if kind == "M2":
        return lambda i, j: 1 if i & j == 0 else 0
    if kind in ("H1", "H2"):
        return lambda i, j: catalan_interspersed(i + j, mod2=kind == "H2")
    raise ValueError(f"unknown family {name!r}")


def window(name: str, n: int, m: int | None = None, k: int = 0) -> list:
    f = family(name)
    return [[f(i, k + j) for j in range(n if m is None else m)] for i in range(n)]


def matrix_csv(rows) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def matrix_json(rows) -> str:
    return json.dumps({"rows": len(rows), "cols": len(rows[0]) if rows else 0,
                       "entries": [[str(x) for x in row] for row in rows]}) + "\n"


def matrix_csv_unlimited(rows) -> str:
    """matrix_csv for entries past the interpreter's int-to-str digit limit.

    The limit is lifted only for this conversion and restored after it.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return matrix_csv(rows)
    finally:
        sys.set_int_max_str_digits(old)


def det_mod(rows, p: int) -> int:
    """Determinant mod p by Gaussian elimination over F_p."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def rank_mod(rows, p: int) -> int:
    """Rank over F_p by reduction to row echelon form."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        for r in range(rank + 1, len(a)):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def t_values(gens, p: int, m_max: int) -> list:
    """Minimal t per depth m of the digital net with generating matrices
    gens (entry functions).  Full row rank is inherited by row subsets,
    so t(m) = m - (largest k whose every composition is independent)."""
    out = []
    for m in range(1, m_max + 1):
        mats = [[[g(i, j) % p for j in range(m)] for i in range(m)] for g in gens]
        k = m
        while k and not all(
                rank_mod([r for mat, d in zip(mats, comp) for r in mat[:d]], p) == k
                for comp in compositions(k, len(gens))):
            k -= 1
        out.append(m - k)
    return out


def t_value_json(p: int, dims: str, m_max: int) -> str:
    ts = t_values([family(d) for d in dims.split(",")], p, m_max)
    return json.dumps({"p": p, "dims": dims, "t_per_m": ts, "t": max(ts)}) + "\n"


def search_json(p: int, m_max: int, budget: int, seed: int) -> str:
    """`net search --candidates random`: seeded random upper unitriangular
    candidates, drawn row by row above the diagonal, completing
    M1(0), M1(1); sorted by (t, name)."""
    rng = random.Random(seed)
    base = [family("M1:a=0"), family("M1:a=1")]
    results = []
    for i in range(budget):
        c = [[1 if r == col else (rng.randrange(p) if col > r else 0)
              for col in range(m_max)] for r in range(m_max)]
        ts = t_values(base + [lambda r, col, c=c: c[r][col]], p, m_max)
        results.append({"candidate": f"random[{i}]", "t_per_m": ts, "t": max(ts)})
    results.sort(key=lambda r: (r["t"], r["candidate"]))
    return json.dumps(results) + "\n"


def digital_points(p: int, dims: str, m: int, n: int) -> list:
    mats = [[[g(r, k) % p for k in range(m)] for r in range(m)]
            for g in (family(d) for d in dims.split(","))]
    pts = []
    for idx in range(n):
        digits = [idx // p**k % p for k in range(m)]
        coords = []
        for c in mats:
            num = 0
            for row in c:
                num = num * p + sum(x * d for x, d in zip(row, digits)) % p
            coords.append(Fraction(num, p**m))
        pts.append(tuple(coords))
    return pts


def points_csv(points) -> str:
    return "".join(",".join(f"{x.numerator}/{x.denominator}" for x in pt) + "\n"
                   for pt in points)


def star_discrepancy_2d(points) -> Fraction:
    """Exact D*_N over anchored boxes [0,a) x [0,b) and [0,a] x [0,b], with
    a, b from the point coordinates and 1, by a sorted sweep over a in
    integers scaled to the common denominator."""
    n = len(points)
    scale = math.lcm(*(x.denominator for pt in points for x in pt))
    pts = sorted((int(x * scale), int(y * scale)) for x, y in points)
    xs = sorted({x for x, _ in pts} | {scale})
    ys = sorted({y for _, y in pts} | {scale})
    best = 0
    for a in xs:
        below = sorted(y for x, y in pts if x < a)
        upto = sorted(y for x, y in pts if x <= a)
        for b in ys:
            vol = n * a * b
            best = max(best, vol - bisect_left(below, b) * scale * scale,
                       bisect_right(upto, b) * scale * scale - vol)
    return Fraction(best, n * scale * scale)


def random_points(seed: int, n: int) -> list:
    """n seeded points in [0,1)^2 whose coordinates have mixed denominators,
    so the common denominator is not a prime power."""
    rng = random.Random(seed)
    dens = (3, 5, 6, 7, 9, 10, 12, 25, 27, 64, 100, 1000)
    return [tuple(Fraction(rng.randrange(d), d) for d in (rng.choice(dens), rng.choice(dens)))
            for _ in range(n)]


def cf_target(series: str, coeffs: int) -> list:
    """Coefficients of X^-1, X^-2, ... of the Catalan Laurent series L1 / L2."""
    return [Fraction(catalan_interspersed(k, mod2=series == "L2")) for k in range(coeffs)]


def mul_mod(a, b, p: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
