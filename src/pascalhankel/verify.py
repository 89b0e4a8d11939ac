"""Machine verification of the matrix identities: one routine per
identity, each sweeping a parameter grid and returning a structured
report.

All matrix-product identities are evaluated on finite windows.  This is
sound because every participating entry only involves indices inside the
window (triangularity or min(i,j)-bounded summation); the applicable
argument is recorded in each report's notes.  For the same reason the
window-n product of triangular factors equals the upper-left n x n block
of the full-size product, so each sweep computes the product once at the
largest size and compares blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
        self.failures.append({
            "parameters": parameters,
            "expected": str(expected),
            "actual": str(actual),
        })

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "parameter_grid": self.parameter_grid,
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures,
            "elapsed": self.elapsed,
            "notes": self.notes,
            "data": self.data,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (f"{self.identity_id}: {status} "
                f"[checked {self.checked}, {self.elapsed:.2f}s] {self.parameter_grid}")


def _compare_blocks(report, full_lhs, full_rhs, n_max, label):
    """Compare upper-left n x n blocks for every n <= n_max.

    Equality of the full matrices settles all blocks at once; on mismatch
    the smallest failing n is located explicitly.
    """
    if full_lhs == full_rhs:
        report.checked += n_max
        return
    for n in range(1, n_max + 1):
        report.checked += 1
        lhs = full_lhs.submatrix(n)
        rhs = full_rhs.submatrix(n)
        if lhs != rhs:
            report.fail(f"{label}, n={n}", exact.to_json(rhs), exact.to_json(lhs))
            report.checked += n_max - n
            break


def check_item1_gram(n_max: int = 32) -> VerificationReport:
    """P1^T P1 == P2 on all windows n <= n_max."""
    t0 = time.time()
    report = VerificationReport(
        "item1", f"n <= {n_max}",
        notes="Gram entries sum over l <= min(i,j), so windowing is exact.")
    w = families.window_of(families.P1(1), n_max)
    _compare_blocks(report, exact.mat_mul(w.transpose(), w),
                    families.window_of(families.P2, n_max), n_max, "P1^T P1")
    report.elapsed = time.time() - t0
    return report


def check_item2_power(a_range=(-5, 5), n_max: int = 16) -> VerificationReport:
    """P1^a == P1(a) on windows, for nonzero a in a_range."""
    t0 = time.time()
    lo, hi = a_range
    report = VerificationReport(
        "item2", f"a in [{lo},{hi}] \\ {{0}}, n <= {n_max}",
        notes="Powers of upper triangular matrices commute with windowing.")
    base = families.window_of(families.P1(1), n_max)
    for a in range(lo, hi + 1):
        if a == 0:
            continue
        _compare_blocks(report, exact.mat_pow(base, a),
                        families.window_of(families.P1(a), n_max),
                        n_max, f"a={a}")
    report.elapsed = time.time() - t0
    return report


def check_group_law(family: str = "M1", pairs=None, n_max: int = 64) -> VerificationReport:
    """F(a) F(b) == F(a+b) on windows for F in {P1, M1}."""
    t0 = time.time()
    if family not in ("P1", "M1"):
        raise ValueError("group law applies to P1 or M1")
    if pairs is None:
        pairs = [(a, b) for a in range(-5, 6) for b in range(-5, 6)]
    maker = families.P1 if family == "P1" else families.M1
    report = VerificationReport(
        f"group-law-{family.lower()}", f"{len(pairs)} pairs, n <= {n_max}",
        notes="Products of upper triangular matrices commute with windowing.")
    cache = {}

    def w(c):
        if c not in cache:
            cache[c] = families.window_of(maker(c), n_max)
        return cache[c]

    for a, b in pairs:
        _compare_blocks(report, exact.mat_mul(w(a), w(b)), w(a + b),
                        n_max, f"a={a}, b={b}")
    report.elapsed = time.time() - t0
    return report


def check_lemma1_factorization(n_max: int = 64) -> VerificationReport:
    """M1^T diag((-1)^t_i) M1 == M2 on windows n <= n_max."""
    t0 = time.time()
    report = VerificationReport(
        "lemma1", f"n <= {n_max}",
        notes="Summation index l <= min(i,j), so windowing is exact.")
    m1 = families.window_of(families.M1(1), n_max)
    signs = exact.ExactMatrix.diagonal(
        [(-1) ** sequences.thue_morse(i) for i in range(n_max)])
    lhs = exact.mat_mul(exact.mat_mul(m1.transpose(), signs), m1)
    _compare_blocks(report, lhs, families.window_of(families.M2, n_max),
                    n_max, "M1^T D M1")
    report.elapsed = time.time() - t0
    return report


def _minor_sweep(report, fam, n_max, k, expected_fn, label, key=lambda d: d):
    """Check det of shifted windows for all n via one fraction-free pass.

    key(det) is compared with expected_fn(n); abs for sweeps that only
    predict |det|.
    """
    try:
        minors = exact.leading_principal_minors(
            families.window_of(fam, n_max, n_max, k))
    except exact.SingularMinorError as err:
        report.fail(f"{label}", "nonzero minor", f"zero minor of order {err.order}")
        report.checked += n_max
        return None
    for n, det in enumerate(minors, start=1):
        report.checked += 1
        want, got = expected_fn(n), key(det)
        if got != want:
            report.fail(f"{label}, n={n}", want, got)
    return minors


def check_det_formulas(which: str, n_max: int | None = None,
                       k_max: int | None = None, a_values=None) -> VerificationReport:
    """Determinant sweeps.

    "P1"/"P2": det of every shifted window is 1.  "M2": leading minors
    follow the signed digit-sum product.  "M1": |det| of shifted windows
    of M1(a) matches the |a|^(s2(i+k)-s2(i)) product; the observed sign
    sequence is recorded as data, not predicted.
    """
    t0 = time.time()
    if which in ("P1", "P2"):
        n_max = 12 if n_max is None else n_max
        k_max = 64 if k_max is None else k_max
        fam = families.P1(1) if which == "P1" else families.P2
        report = VerificationReport(
            f"det-{which.lower()}", f"n <= {n_max}, k <= {k_max}")
        for k in range(k_max + 1):
            _minor_sweep(report, fam, n_max, k, lambda n: 1, f"k={k}")
    elif which == "M2":
        n_max = 64 if n_max is None else n_max
        report = VerificationReport("det-m2", f"n <= {n_max}")
        # running product of (-1)^{s2(i)} over i < n
        expected = []
        product = 1
        for i in range(n_max):
            product *= (-1) ** sequences.s2(i)
            expected.append(product)
        minors = _minor_sweep(report, families.M2, n_max, 0,
                              lambda n: expected[n - 1], "M2")
        if minors is not None:
            report.data["signs"] = minors
    elif which == "M1":
        n_max = 10 if n_max is None else n_max
        k_max = 32 if k_max is None else k_max
        a_values = (1, -1, 2, -2, 3, -3) if a_values is None else tuple(a_values)
        report = VerificationReport(
            "det-m1a", f"n <= {n_max}, k <= {k_max}, a in {a_values}",
            notes="Sign is recorded as data; only |det| is predicted.")
        signs = {}
        for a in a_values:
            if a == 0:
                raise ValueError("a must be nonzero")
            for k in range(k_max + 1):
                def expected(n, a=a, k=k):
                    e = sum(sequences.s2(i + k) - sequences.s2(i)
                            for i in range(n))
                    return abs(a) ** e

                minors = _minor_sweep(report, families.M1(a), n_max, k,
                                      expected, f"a={a}, k={k}", abs)
                if minors is not None:
                    signs[f"a={a},k={k}"] = [1 if d > 0 else -1 for d in minors]
        report.data["signs"] = signs
    else:
        raise ValueError(f"unknown determinant sweep: {which!r}")
    report.elapsed = time.time() - t0
    return report


def check_hankel_minors(which: str, n_max: int = 40,
                        anti_k_max: int = 6) -> VerificationReport:
    """|det| == 1 for all leading minors of H1 or H2; for H2 additionally
    the anti-triangular structure of the 2^k - 1 windows."""
    t0 = time.time()
    if which not in ("H1", "H2"):
        raise ValueError("Hankel sweep applies to H1 or H2")
    fam = families.H1 if which == "H1" else families.H2
    report = VerificationReport(
        f"hankel-{which.lower()}", f"n <= {n_max}"
        + (f", anti-triangular k <= {anti_k_max}" if which == "H2" else ""))
    minors = _minor_sweep(report, fam, n_max, 0, lambda n: 1, which, abs)
    if minors is not None:
        report.data["signs"] = minors
    if which == "H2":
        gen = families.entry_fn(families.H2)
        for k in range(1, anti_k_max + 1):
            n = 2 ** k - 1
            report.checked += 1
            bad = None
            for i in range(n):
                for j in range(n):
                    e = gen(i, j)
                    if i + j == n - 1 and e != 1:
                        bad = (i, j, 1, e)
                    elif i + j > n - 1 and e != 0:
                        bad = (i, j, 0, e)
                    if bad:
                        break
                if bad:
                    break
            if bad:
                i, j, want, got = bad
                report.fail(f"anti-triangular n={n}, entry ({i},{j})", want, got)
    report.elapsed = time.time() - t0
    return report


CHECKS = {
    "item1": check_item1_gram,
    "item2": check_item2_power,
    "group-law-p1": lambda **kw: check_group_law("P1", **kw),
    "group-law-m1": lambda **kw: check_group_law("M1", **kw),
    "lemma1": check_lemma1_factorization,
    "det-p1": lambda **kw: check_det_formulas("P1", **kw),
    "det-p2": lambda **kw: check_det_formulas("P2", **kw),
    "det-m2": lambda **kw: check_det_formulas("M2", **kw),
    "det-m1a": lambda **kw: check_det_formulas("M1", **kw),
    "hankel-h1": lambda **kw: check_hankel_minors("H1", **kw),
    "hankel-h2": lambda **kw: check_hankel_minors("H2", **kw),
}


def run_check(identity_id: str, **options) -> VerificationReport:
    if identity_id not in CHECKS:
        raise ValueError(f"unknown identity: {identity_id!r}; "
                         f"known: {', '.join(sorted(CHECKS))}")
    return CHECKS[identity_id](**options)


def run_all() -> list:
    """Every identity at its default grid, in fixed order."""
    return [CHECKS[name]() for name in CHECKS]
