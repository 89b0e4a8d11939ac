"""Machine verification of the matrix identities.

IDENTITIES maps each identity id to its sweep, its default parameter grid
(whose keys are the only options it accepts), the grid's description and
the soundness notes; run_check, the one entry point, returns a report.

All matrix-product identities are evaluated on finite windows.  This is
sound because every participating entry only involves indices inside the
window (triangularity or min(i,j)-bounded summation); the applicable
argument is recorded in each report's notes.  For the same reason the
window-n product of triangular factors equals the upper-left n x n block
of the full-size product, so each sweep computes the product once at the
largest size and compares blocks.

The group laws F(a) F(b) == F(a+b), F = P1 or M1, hold for all a and b: if
entry (i, j) of F(c) is c_ij c^(e_ij), c_ij >= 0, e_ij = e_0j - e_0i, both
sides are homogeneous in (a, b), so b = 1 suffices, and their coefficients
in a, at most n max c^2 and c_ij 2^(e_ij), are certified below x = 2^K, so
W(F(x)) W(F(1)) == W(F(x+1)) proves it (Kronecker substitution).  The
hypothesis is checked at x, x + 1 and on each window of the grid, so every
reported pair is covered; a failure, as for every identity, names its first
differing entry and the smallest window holding it (_first_difference).

det-m1a holds for all a != 0 and k: for i < n <= 2^r, entry (i, k+j) of M1(a)
is a^(s2(k+j) - s2(i)) times entry (i, j) of W, the M1(1) window at shift k mod
2^r, so by diagonal scaling its minor of order n is a^e det W(n), e = sum_(i<n)
s2(k+i) - s2(i).  Each W the grid reaches is checked for minors +-1, each grid
window for the scaling.
"""

import functools
import itertools
import math
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact, families, sequences


@dataclass
class VerificationReport:
    identity_id: str
    parameter_grid: str
    checked: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    notes: str = ""
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, parameters: str, expected, actual):
        self.failures.append({"parameters": parameters, "expected": str(expected),
                              "actual": str(actual)})

    def to_dict(self) -> dict:
        return {"identity_id": self.identity_id, "parameter_grid": self.parameter_grid,
                "checked": self.checked, "passed": self.passed, "failures": self.failures,
                "elapsed": self.elapsed, "notes": self.notes, "data": self.data}

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (f"{self.identity_id}: {status} "
                f"[checked {self.checked}, {self.elapsed:.2f}s] {self.parameter_grid}")


def _first_difference(label, rows, target):
    """fail() arguments for the entry, least in (max(i, j), i, j), at which the rows of a
    square window differ from target's, compared a row at a time as rows yields them; None
    if none does.  Block n holds (i, j) exactly when max(i, j) < n, so one pass over the
    largest product settles every upper-left block and names the smallest that fails."""
    least = lambda i, row, want: row != want and min(
        (max(i, j), i, j, w, v) for j, (v, w) in enumerate(zip(row, want)) if v != w)
    # map drops each row and its want before it reads the next: a product row at a time is held
    first = min(filter(None, map(least, itertools.count(), rows, target)), default=None)
    if first:
        _, i, j, want, got = first
        return f"{label}, n={max(i, j) + 1}, entry ({i},{j})", want, got


def _a_text(a) -> str:
    """[LO,HI] for a run of consecutive integers, else the tuple."""
    a = tuple(a)
    return f"[{a[0]},{a[-1]}]" if a and a == tuple(range(a[0], a[-1] + 1)) else str(a)


def _gram(target, label, expected, report, n_max):
    """L diag(D) L^T == A, target's window, (L, D) = families.GRAM[target.kind](n_max), by one
    product of L with D L^T.  Given expected, unit lower triangular L proves the minors
    D_0...D_(n-1) == expected(n), signs kept as data; else _minors reports them."""
    lower, d = families.GRAM[target.kind](n_max)
    e, minors = lower.entries, list(itertools.accumulate(d, operator.mul))
    difference = lambda: _first_difference(label, exact.product_rows(lower, exact.ExactMatrix(
        n_max, n_max, tuple(x * v for l, x in enumerate(d) for v in e[l::n_max]))),
        families.rows(target, n_max))  # the one product, taken only where it decides
    if expected is None:
        report.checked += n_max
        if bad := difference():
            report.fail(*bad)
    elif (all(e[i * n_max + j] == (i == j) for i in range(n_max) for j in range(i, n_max))
            and minors == [expected(n) for n in range(1, n_max + 1)] and not difference()):
        report.checked += n_max
        report.data["signs"] = [1 if m > 0 else -1 for m in minors]
    elif label in (signs := _minors([(label, target, 0, expected)], report, n_max)):
        report.data["signs"] = signs[label]


def _item2(report, a, n_max):
    """P1^a == P1(a) for nonzero a, as P1(min(a,0)) P1^|a| == P1(max(a,0)).

    For a > 0 this is P1^a == P1(a), P1(0) being I; for a < 0 it is
    P1(a) P1^-a == I, which is equivalent because P1^-a is unitriangular.
    One power, a running product in increasing |a|, is alive at a time.
    """
    def w(c):
        return families.window_of(families.P1(c), n_max)

    power, p, found = (base := w(1)), 1, []
    for t, x in sorted(enumerate(filter(None, a)), key=lambda tx: tx[1] ** 2):
        while p ** 2 < x ** 2:
            power, p = exact.mat_mul(power, base), p + 1
        report.checked += n_max
        target = families.rows(families.P1(max(x, 0)), n_max)
        if bad := _first_difference(f"a={x}", exact.product_rows(w(min(x, 0)), power), target):
            found.append((t, bad))
    for _, bad in sorted(found):  # in grid order
        report.fail(*bad)


def _scaled_rows(c, ones, f, g):
    """The rows c_ij c^(f_j - g_i), c_ij the rows ones, one list at a time; a negative
    f_j - g_i, out of the power table, leaves an exact Fraction, a hypothesis failure."""
    powers = [c ** e for e in range(max(f, default=0) - min(g, default=0) + 1)]
    return ([cij and cij * (powers[fj - gi] if fj >= gi else Fraction(c) ** (fj - gi))
             for cij, fj in zip(crow, f)] for crow, gi in zip(ones, g))


def _group_law(kind, report, a, n_max):
    """F(a) F(b) == F(a+b) for each pair of a x a, F of the kind, by the substitution proof
    (module docstring); its first refutation, in the order it checks, fails the report."""
    report.checked += len(a) ** 2 * n_max
    fam, n = functools.partial(families.Family, kind), n_max
    lists = lambda w: (list(w.entries[i:i + n]) for i in range(0, n * n, n))  # no n lists kept
    one = families.window_of(fam(1), n)
    k = (n * max(one.entries, default=0) ** 2).bit_length() or 1
    x, wx = 1 << k, [families.window_of(fam(1 << k), n)]
    e0 = [max(v.bit_length() - 1, 0) // k for v in wx[0].entries[:n]]  # e_0j; e_ij = e_0j - e_0i
    check = lambda label, c, rows: _first_difference(
        label, rows, _scaled_rows(c, lists(one), e0, e0))
    grid = dict.fromkeys([x + 1, *a, *(p + q for p, q in itertools.product(a, a))])
    if refuted := (any(cij < 0 or cij and (f < g or cij << f - g >= x)
                       for crow, g in zip(lists(one), e0) for cij, f in zip(crow, e0))
                   and (f"a={x}", f"every c_ij 2^(e_ij) in [0, 2^{k})", "a coefficient outside")
                   or check(f"a={x}", x, lists(wx[0]))
                   # popped, W(F(x)) is held by the product's stream alone, freed once read
                   or check(f"a={x}, b=1", x + 1, exact.product_rows(wx.pop(), one))
                   or next(filter(None, (check(f"a={c}", c, families.rows(fam(c), n))
                                         for c in grid)), None)):
        report.fail(*refuted)


def _minors(windows, report, n_max):
    """expected(n) == minor of order n, n <= n_max, for each shifted window (label, family,
    k, expected) by one fraction-free pass, or +-1 where expected is None; a zero minor
    fails the window with its order, after the minors below it.  Returns the signs by
    label, zero-free windows only."""
    signs = {}
    for label, fam, k, expected in windows:
        report.checked += n_max
        try:
            minors = exact.leading_principal_minors(
                families.window_of(fam, n_max, n_max, k))
        except exact.SingularMinorError as err:
            minors = err.minors + [0]
        for n, det in enumerate(minors, start=1):
            want = expected(n) if expected else 1 if det > 0 else -1
            if not det:
                report.fail(label, "nonzero minor", f"zero minor of order {n}")
            elif det != want:
                report.fail(f"{label}, n={n}", want, det)
        if all(minors):
            signs[label] = [1 if d > 0 else -1 for d in minors]
    return signs


def _unimodular(fam, report, n_max, k_max):
    """det of every shifted window of fam is 1."""
    _minors([(f"k={k}", fam, k, lambda n: 1) for k in range(k_max + 1)], report, n_max)


def _det_m1a(report, a, n_max, k_max):
    """det-m1a for nonzero a by the module docstring's argument; sign(a)^e det W(n) is data."""
    period, g = 1 << (n_max - 1).bit_length(), [sequences.s2(i) for i in range(n_max)]
    ones = [list(families.rows(families.M1(1), n_max, n_max, k))
            for k in range(min(k_max + 1, period))]
    eps = _minors([(f"k={k}", families.M1(1), k, None) for k in range(len(ones))], report, n_max)
    a = tuple(filter(None, a))
    report.checked = len(a) * (k_max + 1) * n_max  # the grid's windows only
    signs = report.data["signs"] = {}
    for x, k in itertools.product(a, range(k_max + 1)):
        f = [sequences.s2(k + j) for j in range(n_max)]
        rows = families.rows(families.M1(x), n_max, n_max, k)
        if bad := _first_difference(f"a={x}, k={k}", rows, _scaled_rows(x, ones[k % period], f, g)):
            report.fail(*bad)
        if s := eps.get(f"k={k % period}"):
            e = itertools.accumulate(map(operator.sub, f, g))
            signs[f"a={x},k={k}"] = [(-1) ** (d * (x < 0)) * t for d, t in zip(e, s)]


def _hankel_h2(report, n_max):
    """The H2 minors, plus the anti-triangular structure of its 2^k - 1
    windows, k <= _ANTI_K_MAX: ones on the anti-diagonal, zeros below it."""
    _gram(families.H2, "H2", lambda n: (-1) ** (n * (n - 1) // 2) * math.prod(
        map(sequences.SEQUENCES["paperfolding"], range(n))), report, n_max)
    for n in (2 ** k - 1 for k in range(1, _ANTI_K_MAX + 1)):
        report.checked += 1
        if bad := next(((i, j, row[j]) for i, row in enumerate(families.rows(families.H2, n))
                        for j in range(n - 1 - i, n) if row[j] != (i + j == n - 1)), None):
            i, j, got = bad
            report.fail(f"anti-triangular n={n}, entry ({i},{j})", int(i + j == n - 1), got)


@dataclass(frozen=True)
class Identity:
    """sweep(report, **grid) checks the identity on a grid; grid holds the
    defaults, and its keys are the only options it accepts; describe(**grid)
    is the report's parameter_grid; notes say why windowing is sound."""

    sweep: Callable
    grid: dict
    describe: Callable
    notes: str = ""


_A_DEFAULT = tuple(range(-5, 6))
_ANTI_K_MAX = 6

IDENTITIES = {
    "item1": Identity(
        functools.partial(_gram, families.P2, "P1^T P1", None), {"n_max": 32},
        "n <= {n_max}".format, "Gram entries sum over l <= min(i,j), so windowing is exact."),
    "item2": Identity(
        _item2, {"a": _A_DEFAULT, "n_max": 16},
        lambda a, n_max: f"a in {_a_text(a)} \\ {{0}}, n <= {n_max}",
        "Powers of upper triangular matrices commute with windowing."),
    # proved for every a and b by one product at x = 2^K (module docstring); the grid
    # is what is reported, each of its windows checked against the proof's hypothesis
    **{f"group-law-{kind.lower()}": Identity(
        functools.partial(_group_law, kind), {"a": _A_DEFAULT, "n_max": 64},
        lambda a, n_max: f"{len(a) ** 2} pairs, n <= {n_max}",
        "Products of upper triangular matrices commute with windowing.")
       for kind in ("P1", "M1")},
    "lemma1": Identity(
        functools.partial(_gram, families.M2, "M1^T D M1", None), {"n_max": 64},
        "n <= {n_max}".format, "Summation index l <= min(i,j), so windowing is exact."),
    # row i of a shifted P1 or P2 window, C(k+j, i) or C(i+j+k, i), has degree i in k, so
    # det is a polynomial in k of degree <= n(n-1)/2: k_max = 66 proves n <= 12 for every k
    "det-p1": Identity(
        functools.partial(_unimodular, families.P1(1)), {"n_max": 12, "k_max": 64},
        "n <= {n_max}, k <= {k_max}".format),
    "det-p2": Identity(
        functools.partial(_unimodular, families.P2), {"n_max": 12, "k_max": 64},
        "n <= {n_max}, k <= {k_max}".format),
    # M2's minor of order n is the product of (-1)^s2(i) over i < n
    "det-m2": Identity(
        functools.partial(_gram, families.M2, "M2",
                          lambda n: (-1) ** sum(map(sequences.s2, range(n)))),
        {"n_max": 64}, "n <= {n_max}".format),
    "det-m1a": Identity(
        _det_m1a, {"a": (1, -1, 2, -2, 3, -3), "n_max": 10, "k_max": 32},
        lambda a, n_max, k_max: f"n <= {n_max}, k <= {k_max}, a in {tuple(filter(None, a))}",
        "By diagonal scaling each minor is a^e eps(n, k mod 2^r), 2^r >= n_max, for all a, k."),
    # both hold for every n: a series [0; a_1 X, a_2 X, ...] has Hankel minors (-1)^(n(n-1)/2)
    # prod_(k<=n) a_k^-(2n-2k+1), L1 = [0; X, X, ...] and L2's quotients are pf(k) X by the
    # folding lemma (Mendes France, Acta Arith. 1973; van der Poorten & Shallit, J. Number
    # Theory 1992).  H2's 2^k - 1 anti-triangular windows hold for every k, as c_m mod 2 = 1
    # exactly when m = 2^(j+1) - 2: 2^k - 2 on the anti-diagonal, none up to 2^(k+1) - 4 below.
    # H1's minor of order n is (-1)^floor(n/2) = (-1)^(n(n-1)/2), D_k being (-1)^k (families.GRAM)
    "hankel-h1": Identity(
        functools.partial(_gram, families.H1, "H1", lambda n: (-1) ** (n // 2)),
        {"n_max": 40}, "n <= {n_max}".format),
    # H2's minor of order n is (-1)^(n(n-1)/2) pf(0)...pf(n-1), D_k being (-1)^k pf(k)
    "hankel-h2": Identity(
        _hankel_h2, {"n_max": 40},
        lambda n_max: f"n <= {n_max}, anti-triangular k <= {_ANTI_K_MAX}"),
}

class GridError(ValueError):
    """An unknown identity, an option its grid lacks, or a grid that
    would check nothing: a usage error, not a failed verification."""


def run_check(identity_id: str, **options) -> VerificationReport:
    """Check one identity on its default grid updated by options."""
    t0 = time.perf_counter()
    identity = IDENTITIES.get(identity_id)
    if identity is None:
        raise GridError(f"unknown identity: {identity_id!r}; "
                        f"known: {', '.join(sorted(IDENTITIES))}")
    unknown = sorted(set(options) - set(identity.grid))
    if unknown:
        raise GridError(f"{identity_id} takes no option {', '.join(unknown)}; "
                        f"its grid is {', '.join(identity.grid)}")
    grid = {**identity.grid, **options}
    report = VerificationReport(identity_id, identity.describe(**grid),
                                notes=identity.notes)
    identity.sweep(report, **grid)
    if not report.checked:
        raise GridError(f"{identity_id}: the grid {report.parameter_grid} checks nothing")
    report.elapsed = time.perf_counter() - t0
    return report
