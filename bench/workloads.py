"""The benchmark's workloads: fixed scripts of `pascalhankel` CLI
invocations, each op paired with a check of its output.

A check's `prepare` runs once per run in the load generator and returns
JSON data (a digest, residues); its `check` runs in the worker after the
op, outside the timed region, and returns None or what is wrong.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import oracles
from tracing import Exponent


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Check:
    """Base of the output checks; most need no reference data."""

    def prepare(self):
        return None


class Text(Check):
    """The output equals the oracle's text."""

    def __init__(self, make, *args):
        self.make, self.args = make, args

    def prepare(self):
        return digest(self.make(*self.args))

    def check(self, out: str, ref):
        return None if digest(out) == ref else "output differs from the oracle"


class Reports(Check):
    """`verify --json`: every report passes and each identity checked as
    many cases as at the seed commit (elapsed times are ignored)."""

    def __init__(self, *checked):
        self.checked = [list(c) for c in checked]

    def check(self, out: str, ref):
        reports = json.loads(out)
        got = [[r["identity_id"], r["checked"]] for r in reports]
        if got != self.checked:
            return f"checked counts {got}, expected {self.checked}"
        failed = [r["identity_id"] for r in reports if not r["passed"]]
        return f"reports failed: {failed}" if failed else None


class DetResidues(Check):
    """`matrix det`: the printed integer agrees with the window's
    determinant modulo several large primes."""

    def __init__(self, family, n, k):
        self.family, self.n, self.k = family, n, k

    def prepare(self):
        rows = oracles.window(self.family, self.n, None, self.k)
        return [oracles.det_mod(rows, p) for p in oracles.PRIMES]

    def check(self, out: str, ref):
        value = int(out)
        return None if [value % p for p in oracles.PRIMES] == ref else "determinant differs mod p"


class LDUProduct(Check):
    """`matrix ldu`: L unit lower and U unit upper triangular, and
    L diag(D) U equals the window modulo a large prime (the factorisation
    with unit triangular factors is unique)."""

    def __init__(self, family, n):
        self.family, self.n = family, n

    def check(self, out: str, ref):
        n, p = self.n, oracles.PRIMES[0]
        lines = out.splitlines()
        if lines[0] != "L:" or not lines[n + 1].startswith("D: ") or lines[n + 2] != "U:":
            return "malformed LDU output"

        def parse(rows):
            return [[Fraction(x) for x in row.split(",")] for row in rows]

        L, U = parse(lines[1:n + 1]), parse(lines[n + 3:2 * n + 3])
        D = [Fraction(x) for x in lines[n + 1][3:].split(",")]
        unit = all(L[i][j] == (i == j) for i in range(n) for j in range(i, n)) and \
            all(U[i][j] == (i == j) for i in range(n) for j in range(i + 1))
        if not unit or len(D) != n or 0 in D:
            return "factors are not unit triangular with nonzero D"

        def mod(x):
            return x.numerator * pow(x.denominator, -1, p) % p

        LD = [[mod(x * d) for x, d in zip(row, D)] for row in L]
        product = oracles.mul_mod(LD, [[mod(x) for x in row] for row in U], p)
        want = [[x % p for x in row] for row in oracles.window(self.family, n)]
        return None if product == want else "L diag(D) U differs from the window"


class Convergent(Check):
    """`cf expand --json`: the convergent of all quotients reproduces the
    series up to its certified order 2 deg q, which the input precision
    must cover; an early stop must leave too few coefficients for another
    quotient."""

    def __init__(self, series, coeffs, quotients):
        self.series, self.coeffs, self.quotients = series, coeffs, quotients

    def check(self, out: str, ref):
        from pascalhankel import laurent

        d = json.loads(out)
        quotients = [laurent.Poly.make(_poly(q)) for q in d["partial_quotients"]]
        if not quotients or any(q.degree < 1 for q in quotients):
            return "no quotients, or a quotient of degree < 1"
        cf = laurent.CFExpansion(laurent.Poly.make(_poly(d["integer_part"])),
                                 tuple(quotients), d["exhausted_precision"])
        p, q = laurent.convergent(cf, len(quotients))
        order, n = 2 * q.degree, self.coeffs
        if order > n:
            return f"order {order} is not certified by {n} coefficients"
        if cf.exhausted_precision:
            if n - order >= 2 * max(x.degree for x in quotients):
                return "stopped with precision left for another quotient"
        elif len(quotients) != self.quotients:
            return "fewer quotients than requested without exhausting precision"
        top = p.degree - q.degree
        series = laurent.series_of_fraction(p, q, order + max(0, top + 1))
        target = oracles.cf_target(self.series, order)
        if any(series.coefficient(e) != 0 for e in range(0, top + 1)) or \
                any(series.coefficient(-1 - i) != c for i, c in enumerate(target)):
            return "convergent does not reproduce the series"
        return None


def _poly(text: str) -> list:
    """Ascending coefficients of a polynomial printed like "-1*X^2 + X + 1/2"."""
    coeffs = {}
    for term in text.split(" + "):
        c, _, x = term.rpartition("*") if "*" in term else \
            (("1", "", term) if term.startswith("X") else (term, "", ""))
        degree = 0 if not x else 1 if x == "X" else int(x[2:])
        coeffs[degree] = Fraction(c)
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `{dir}` in argv is the pass's scratch
    directory; with `out_file` the harness saves the output there after
    the op, as a shell redirect would.  An op with `known_defect` fails at
    the seed for the stated reason: it is run, timed and reported, but an
    error exit or exception from it is not counted as a failed op (a wrong
    answer still is)."""

    argv: tuple
    expect: object
    out_file: str = ""
    known_defect: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    inputs: dict  # scratch file name -> contents, generated from the seed
    exponents: tuple = ()


def _op(cmd: str, expect, **kw) -> Op:
    return Op(tuple(cmd.split()), expect, **kw)


def verify_sweep(seed: int) -> Workload:
    # The paper's identity sweeps.  Dominated by exact.mat_mul on small to
    # medium integers (the group laws), plus leading minors at two sizes
    # (det-m2 at n = 64 inside `verify all`, and at 128).  laurent and net
    # do no work.  Nothing here depends on the seed.
    return Workload("verify-sweep", (
        _op("verify all --json", Reports(
            ("item1", 32), ("item2", 160), ("group-law-p1", 7744),
            ("group-law-m1", 7744), ("lemma1", 64), ("det-p1", 780),
            ("det-p2", 780), ("det-m2", 64), ("det-m1a", 1980),
            ("hankel-h1", 40), ("hankel-h2", 46))),
        _op("verify det-m2 --n-max 128 --json", Reports(("det-m2", 128))),
        _op("verify hankel-h1 --n-max 80 --json", Reports(("hankel-h1", 80))),
    ), {}, (Exponent("exact.minors.exp", "exact.leading_principal_minors", 64, 128),))


def matrix_deep(seed: int) -> Workload:
    # Single-window ops on deep or large-entry windows: pivoting Bareiss,
    # Fraction LDU and F_p rank on big integers, and big-integer output.
    # mat_mul does nothing here.  The only workload that reaches
    # determinant, ldu_decompose and paperfolding.  Nothing depends on the
    # seed.
    return Workload("matrix-deep", (
        _op("matrix det --family H1 --n 40 --k 400", DetResidues("H1", 40, 400)),
        _op("matrix ldu --family M2 --n 64", LDUProduct("M2", 64)),
        _op("matrix ldu --family P2 --n 40", LDUProduct("P2", 40)),
        _op("matrix rank --family P2 --n 128 --p 3",
            Text(lambda: f"{oracles.rank_mod(oracles.window('P2', 128), 3)}\n")),
        _op("matrix show --family H1 --n 60 --k 1000 --format json",
            Text(lambda: oracles.matrix_json(oracles.window("H1", 60, None, 1000)))),
        _op("seq catalan --count 3000",
            Text(lambda: json.dumps([str(c) for c in oracles.catalans(3000)]) + "\n")),
        _op("seq paperfolding --count 3000",
            Text(lambda: json.dumps([str(oracles.paperfolding(i)) for i in range(3000)]) + "\n")),
        _op("matrix show --family P1:a=10 --n 2 --k 5000",
            Text(lambda: oracles.matrix_csv_unlimited(oracles.window("P1:a=10", 2, None, 5000))),
            known_defect="entries exceed the interpreter's 4300-digit int-to-str limit"),
    ), {})


def cf_expand(seed: int) -> Workload:
    # Continued fractions of L1 (large Catalan coefficients) and L2 (0/1
    # coefficients) at two precisions.  Nearly all time is laurent's
    # Fraction power-series work; the exact kernel is idle.  Nothing
    # depends on the seed.
    ops = tuple(_op(f"cf expand --series {s} --coeffs {n} --quotients 1000 --json",
                    Convergent(s, n, 1000))
                for s in ("L1", "L2") for n in (81, 161))
    return Workload("cf-expand", ops, {},
                    (Exponent("laurent.cf_expand.exp", "laurent.cf_expand", 81, 161),))


def net(seed: int) -> Workload:
    # Digital-net qualification and point sets: rank_mod_p over many small
    # stacked matrices, window rebuilding per composition, and exact star
    # discrepancy at two sizes (32 and 64 digital points, through a CSV
    # file).  The seed drives `net search` and 64 random rationals whose
    # mixed denominators are not a power of the base, so a discrepancy
    # rewrite cannot assume a p^m denominator unseen.
    dims3 = "M1:a=0,M1:a=1,M1:a=2"
    rand = oracles.random_points(seed, 64)

    def base2(m, n):
        return oracles.digital_points(2, "P1:a=0,P1:a=1", m, n)

    return Workload("net", (
        _op(f"net t-value --p 3 --dims {dims3} --m-max 20 --json",
            Text(oracles.t_value_json, 3, dims3, 20)),
        _op(f"net search --p 3 --m-max 8 --candidates random --budget 100 --seed {seed} --json",
            Text(oracles.search_json, 3, 8, 100, seed)),
        _op(f"net points --p 3 --dims {dims3} --m 8 --n 6561",
            Text(lambda: oracles.points_csv(oracles.digital_points(3, dims3, 8, 6561)))),
        _op("net points --p 2 --dims P1:a=0,P1:a=1 --m 5 --n 32",
            Text(lambda: oracles.points_csv(base2(5, 32))),
            out_file="digital32.csv"),
        _op("net discrepancy --input {dir}/digital32.csv",
            Text(lambda: f"{oracles.star_discrepancy_2d(base2(5, 32))}\n")),
        _op("net points --p 2 --dims P1:a=0,P1:a=1 --m 6 --n 64",
            Text(lambda: oracles.points_csv(base2(6, 64))),
            out_file="digital64.csv"),
        _op("net discrepancy --input {dir}/digital64.csv",
            Text(lambda: f"{oracles.star_discrepancy_2d(base2(6, 64))}\n")),
        _op("net discrepancy --input {dir}/random64.csv",
            Text(lambda: f"{oracles.star_discrepancy_2d(rand)}\n")),
    ), {"random64.csv": oracles.points_csv(rand)},
        (Exponent("net.discrepancy.exp", "net.star_discrepancy", 32, 64, ops=(4, 6)),))


WORKLOADS = {"verify-sweep": verify_sweep, "matrix-deep": matrix_deep,
             "cf-expand": cf_expand, "net": net}
