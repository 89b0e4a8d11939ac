"""Row makers for the Pascal and Catalan-Hankel matrix families; Gram factors.  M2 is read by
Kummer's theorem: C(i+j, i) is odd exactly when i + j carries nothing in base 2, i & j == 0."""

import itertools
import math
import operator
from dataclasses import dataclass

from . import exact, sequences


@dataclass(frozen=True)
class Family:
    """A named infinite matrix with entries on N0 x N0.

    kind is a key of KINDS (the CLI name); a parametrizes P1 and M1.
    """

    kind: str
    a: int = 0


def _p1(a, n, m, k):
    # a^lo .. a^(k+m-1), lo the least j - i of the window; at a = 0, 0 ** 0 == 1 leaves I
    lo = max(k - n + 1, 0)
    pw = list(itertools.accumulate(itertools.repeat(a, k + m - 1 - lo), operator.mul,
                                   initial=a ** lo))
    for i in range(n):
        yield [0] * min(i - k, m) + [math.comb(j, i) * pw[j - i - lo]
                                     for j in range(max(i, k), k + m)]


def _m1(a, n, m, k):
    cols = range(k, k + m)
    s = list(map(int.bit_count, cols))  # s2, the popcount
    # bit-subset makes the exponent nonnegative; at a = 0, 0 ** 0 == 1
    pw = [a ** e for e in range(max(s, default=0) + 1)]
    for i in range(n):
        si = i.bit_count()
        yield [0 if i & ~j else pw[sj - si] for j, sj in zip(cols, s)]


def _p2(a, n, m, k):
    # Pascal's rule: row i+1 is the running sums of row i from C(i+k, i+1), left of column k
    row = [1] * m
    for i in range(n):
        yield row
        row = list(itertools.accumulate(row, initial=math.comb(i + k, i + 1)))[1:]


def _hankel(kind, a, n, m, k):
    """Rows of the Hankel matrix (c_{i+j}) of the SEQUENCES entry `kind`, sliced from its terms."""
    s = list(map(sequences.SEQUENCES[kind], range(k, k + n + m - 1)))
    return (s[i:i + m] for i in range(n))


# CLI name -> (whether it takes the parameter a, maker(a, n, m, k) of the n rows of the
# n x m window at column offset k, a new list each)
KINDS = {
    "P1": (True, _p1),
    "P2": (False, _p2),
    "M1": (True, _m1),
    "M2": (False, lambda a, n, m, k: ([0 if i & j else 1 for j in range(k, k + m)]
                                      for i in range(n))),
    "H1": (False, lambda *args: _hankel("catalan_interspersed", *args)),
    "H2": (False, lambda *args: _hankel("catalan_interspersed_mod2", *args)),
}


def P1(a: int) -> Family:
    return Family("P1", a=a)


def M1(a: int) -> Family:
    return Family("M1", a=a)


P2 = Family("P2")
M2 = Family("M2")
H1 = Family("H1")
H2 = Family("H2")


def rows(f: Family, n: int, m: int | None = None, k: int = 0):
    """The rows of the n x m window of f, columns from k; kind and sizes are checked here."""
    if f.kind not in KINDS:
        raise ValueError(f"unknown family kind: {f.kind}")
    if n < 0 or (m := n if m is None else m) < 0 or k < 0:
        raise ValueError("window parameters must be nonnegative")
    return KINDS[f.kind][1](f.a, n, m, k)


def window_of(f: Family, n: int, m: int | None = None, k: int = 0) -> exact.ExactMatrix:
    m = n if m is None else m
    return exact.ExactMatrix(n, m, tuple(itertools.chain.from_iterable(rows(f, n, m, k))))


def parse_family(text: str) -> Family:
    """Parse CLI family names: "P1:a=3", "M1:a=-2", "P2", "M2", "H1", "H2".

    Bare "P1" and "M1" default to a=1.
    """
    name, _, param = text.partition(":")
    name = name.strip().upper()
    if name not in KINDS:
        raise ValueError(f"unknown family: {text!r}")
    if not param:
        return Family(name, a=1 if KINDS[name][0] else 0)
    if not KINDS[name][0]:
        raise ValueError(f"family {name} takes no parameters")
    key, _, val = param.partition("=")
    if key.strip() != "a":
        raise ValueError(f"unknown parameter in {text!r}")
    return Family(name, a=int(val))


def _transposed(fam, t, n):
    """The Gram factor of n x n windows: L is the window of fam transposed, D_i = (-1)^t(i)."""
    return exact.ExactMatrix.from_rows(zip(*rows(fam, n))), [(-1) ** t(i) for i in range(n)]


def _stieltjes(gamma, n):
    """Gram factor of the Hankel matrix of Dyck paths, gamma(h) per step down from height h:
    L[0][0] = 1, L[r+1][k] = L[r][k-1] + gamma(k+1) L[r][k+1]; D_k = gamma(1)...gamma(k)."""
    g = [gamma(k) for k in range(1, n + 1)]
    rows = itertools.accumulate(
        range(n), lambda r, _: [x + y * z for x, y, z in zip([0, *r], g, [*r[1:], 0])],
        initial=[1] + [0] * (n - 1))
    entries = tuple(itertools.chain.from_iterable(itertools.islice(rows, n)))
    return exact.ExactMatrix(n, n, entries), [math.prod(g[:k]) for k in range(n)]


_PF = sequences.SEQUENCES["paperfolding"]
# kind -> the Gram factor (L, D) of its n x n windows, L diag(D) L^T with L unit lower triangular:
# the minor of order n is D_0...D_(n-1), for every n.  H1 and H2 are J-fraction Hankel matrices
# (Flajolet, Discrete Math. 32 (1980); Viennot, UQAM 1983); H2's D_k = (-1)^k pf(k), pf^2 = 1.
GRAM = {
    "P2": lambda n: _transposed(P1(1), lambda i: 0, n),
    "M2": lambda n: _transposed(M1(1), sequences.thue_morse, n),
    "H1": lambda n: _stieltjes(lambda k: -1, n),
    "H2": lambda n: _stieltjes(lambda k: -_PF(k - 1) * _PF(k), n),
}
