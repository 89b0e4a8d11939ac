"""Entry generators for the Pascal and Catalan-Hankel matrix families; Gram factors."""

import itertools
import math
from dataclasses import dataclass

from . import exact, sequences


@dataclass(frozen=True)
class Family:
    """A named infinite matrix with a total entry function on N0 x N0.

    kind is a key of KINDS (the CLI name); a parametrizes P1 and M1.
    """

    kind: str
    a: int = 0


def _p1(a):
    # at a = 0, 0 ** 0 == 1 leaves the identity
    return lambda i, j: 0 if i > j else math.comb(j, i) * a ** (j - i)


def _m1(a):
    def m1(i, j):
        if i & ~j:
            return 0
        # bit-subset makes the exponent nonnegative; at a = 0, 0 ** 0 == 1
        return a ** (sequences.s2(j) - sequences.s2(i))

    return m1


def _hankel(kind):
    """Maker of the Hankel matrix (c_{i+j}) of the SEQUENCES entry `kind`."""
    c = sequences.SEQUENCES[kind]
    return lambda a: lambda i, j: c(i + j)


# CLI name -> (whether it takes the parameter a, maker of its entry
# function from a)
KINDS = {
    "P1": (True, _p1),
    "P2": (False, lambda a: lambda i, j: math.comb(i + j, i)),
    "M1": (True, _m1),
    "M2": (False, lambda a: lambda i, j: math.comb(i + j, i) % 2),
    "H1": (False, _hankel("catalan_interspersed")),
    "H2": (False, _hankel("catalan_interspersed_mod2")),
}


def P1(a: int) -> Family:
    return Family("P1", a=a)


def M1(a: int) -> Family:
    return Family("M1", a=a)


P2 = Family("P2")
M2 = Family("M2")
H1 = Family("H1")
H2 = Family("H2")


def entry_fn(f: Family):
    """Closure computing entries of f; total on N0 x N0."""
    if f.kind not in KINDS:
        raise ValueError(f"unknown family kind: {f.kind}")
    return KINDS[f.kind][1](f.a)


def window_of(f: Family, n: int, m: int | None = None, k: int = 0) -> exact.ExactMatrix:
    return exact.window(entry_fn(f), n, m, k)


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
    gen = entry_fn(fam)
    return exact.window(lambda i, j: gen(j, i), n), [(-1) ** t(i) for i in range(n)]


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
