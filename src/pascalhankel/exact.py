"""Exact matrix kernel over the integers and rationals.

Windows of infinite matrices, products, fraction-free determinants, LDU
factorisation, and rank over F_p.  No floating point anywhere.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction


class SingularMinorError(ValueError):
    """A leading principal minor vanished where a nonzero one is required."""

    def __init__(self, order: int, minors=()):
        super().__init__(f"leading principal minor of order {order} is zero")
        self.order, self.minors = order, list(minors)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable row-major rectangular matrix of exact numbers.

    Entries are Python ints, or Fractions in the L and U of ldu_decompose.
    Empty matrices are allowed; the determinant of the 0x0 matrix is 1.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(n, m, tuple(x for r in rows for x in r))

    def to_rows(self) -> list:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]


def window(gen, n: int, m: int | None = None, k: int = 0) -> ExactMatrix:
    """n x m window of the infinite matrix gen(i, j), columns starting at k."""
    if m is None:
        m = n
    if n < 0 or m < 0 or k < 0:
        raise ValueError("window parameters must be nonnegative")
    return ExactMatrix(n, m, tuple(gen(i, k + j)
                                   for i in range(n) for j in range(m)))


def product_rows(a: ExactMatrix, b: ExactMatrix):
    """The rows of a b, one list at a time, so the product is never held whole."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    # each row of b as its nonzero columns and their entries: one multiply-add per nonzero triple
    w, e = b.cols, b.entries
    bnz = [(tuple(itertools.compress(range(w), r)), tuple(filter(None, r)))
           for r in (e[l * w:(l + 1) * w] for l in range(b.rows))]
    for i in range(a.rows):
        acc = [0] * w
        for x, (js, vs) in zip(a.entries[i * a.cols:(i + 1) * a.cols], bnz):
            if x:
                for j, v in zip(js, vs):
                    acc[j] += x * v
        yield acc


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.rows, b.cols, tuple(itertools.chain.from_iterable(product_rows(a, b))))


def _ints(a: ExactMatrix) -> None:
    """The elimination kernels' entry check: // would floor a Fraction,
    and a Fraction has no inverse mod p."""
    if not all(isinstance(x, int) for x in a.entries):
        raise ValueError("integer entries required")


def _square_of_ints(a: ExactMatrix) -> None:
    if a.rows != a.cols:
        raise ValueError(f"square matrix required, got {a.rows}x{a.cols}")
    _ints(a)


def _bareiss(m: list, pivot: bool):
    """Single-step Bareiss fraction-free elimination of square int rows m.

    Returns m, eliminated in place, and the sign of the row permutation.
    With pivot a zero pivot is swapped with the first lower row that is
    nonzero in its column; SingularMinorError(k+1, minors 1..k) is raised at
    a zero pivot that may not (pivot false) or cannot be swapped past.

    The eliminated column is left in place, and by Sylvester's identity
    the entries it keeps are minors of the (row-permuted) matrix: m[k][k]
    is the leading principal minor of order k+1, m[i][k] (i > k) the minor
    on rows 0..k-1, i and columns 0..k, and m[k][j] (j > k) the minor on
    rows 0..k and columns 0..k-1, j.  So without row swaps
    A = L diag(D) U with L[i][k] = m[i][k]/m[k][k], U[k][j] = m[k][j]/m[k][k]
    and D[k] = m[k][k]/m[k-1][k-1].
    """
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = pivot and next((i for i in range(k + 1, n) if m[i][k]), None)
            if not swap:
                raise SingularMinorError(k + 1, (m[t][t] for t in range(k)))
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        mk = m[k]
        piv = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (piv * mi[j] - f * mk[j]) // prev
        prev = piv
    return m, sign


def _hankel_det(m: list):
    """det of the square int rows m = (s[i+j]) by Lunnon's number wall (J. Integer Seq.
    4 (2001)) in O(n^2) steps, or None if m is not Hankel or a divisor is 0.  Wall row -1
    is ones, row 0 is s, row k spans x = k..2n-2-k by the cross rule
    W[k+1][x] W[k-1][x] = W[k][x]^2 - W[k][x-1] W[k][x+1]; det m = (-1)^(n(n-1)/2) W[n-1][n-1]."""
    n = len(m)
    s = m[0] + [r[-1] for r in m[1:]]
    if any(r != s[i:i + n] for i, r in enumerate(m)):
        return None
    v, w = [1] * (2 * n + 1), s  # wall rows k-1 and k, from x = k-1 and x = k
    for _ in range(n - 1):
        if 0 in v[2:-2]:
            return None
        v, w = w, [(b * b - a * c) // d for a, b, c, d in zip(w, w[1:], w[2:], v[2:])]
    return -w[0] if n * (n - 1) // 2 % 2 else w[0]


def determinant(a: ExactMatrix):
    """Exact determinant, block by block.

    Rows and columns are split into the connected components of the
    bipartite graph that joins row i to column j wherever a[i][j] != 0.
    Listing the rows, and the columns, component by component makes the
    matrix block diagonal, so the determinant is the sign of the two orders
    times the product of the blocks' determinants: by the number wall for a
    Hankel block, else by pivoting Bareiss.  A component with unequal
    numbers of rows and columns makes it 0.
    """
    _square_of_ints(a)
    n, e = a.rows, a.entries
    parent = list(range(2 * n))  # rows 0..n-1, then columns n..2n-1

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(n):
        root = find(i)
        for j in range(n):
            if e[i * n + j]:
                parent[find(n + j)] = root
    components = {}
    for v in range(2 * n):
        components.setdefault(find(v), ([], []))[v >= n].append(v % n)
    blocks = list(components.values())
    if any(len(rows) != len(cols) for rows, cols in blocks):
        return 0
    value = 1
    for rows, cols in blocks:
        block = [[e[i * n + j] for j in cols] for i in rows]
        det = _hankel_det(block)
        if det is None:
            try:
                m, sign = _bareiss(block, pivot=True)
            except SingularMinorError:
                return 0
            det = sign * m[-1][-1]
        value *= det
    order = [[i for rows, _ in blocks for i in rows], [j for _, cols in blocks for j in cols]]
    inversions = sum(p > q for perm in order for s, p in enumerate(perm) for q in perm[s + 1:])
    return -value if inversions % 2 else value


def leading_principal_minors(a: ExactMatrix) -> list:
    """All leading principal minors det(A^(1)), ..., det(A^(n)) in one
    fraction-free pass.  Requires every minor nonzero (no pivoting);
    raises SingularMinorError otherwise.
    """
    _square_of_ints(a)
    m, _ = _bareiss(a.to_rows(), pivot=False)
    return [m[k][k] for k in range(len(m))]


@dataclass(frozen=True)
class LDUFactors:
    L: ExactMatrix
    D: tuple
    U: ExactMatrix


def ldu_decompose(a: ExactMatrix) -> LDUFactors:
    """Unique A = L diag(D) U with unit-diagonal triangular L, U.

    D_k equals det(A^(k+1))/det(A^(k)); raises SingularMinorError at the
    first vanishing leading principal minor.
    """
    _square_of_ints(a)
    m, _ = _bareiss(a.to_rows(), pivot=False)
    n = len(m)
    minors = [1] + [m[k][k] for k in range(n)]

    def ratio(p, q):
        return p // q if p % q == 0 else Fraction(p, q)

    return LDUFactors(
        window(lambda i, j: ratio(m[i][j], minors[j + 1]) if j < i else int(i == j), n),
        tuple(ratio(minors[k + 1], minors[k]) for k in range(n)),
        window(lambda i, j: ratio(m[i][j], minors[i + 1]) if j > i else int(i == j), n),
    )


# no composite below _PSI12 is a strong probable prime to all of the first twelve primes
# (Sorenson & Webster, Math. Comp. 86 (2017)); _PSI12 itself is one
_BASES, _PSI12 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37), 318665857834031151167461


def is_prime(p: int) -> bool:
    """Exact: trial division below 37^2, else the strong-probable-prime test to _BASES.
    Raises ValueError from _PSI12 on, where that test is no longer a proof."""
    if p < 37 ** 2:
        return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))
    if p >= _PSI12:
        raise ValueError(f"primality is decided below {_PSI12} only")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s, d odd
    for b in _BASES:
        x = pow(b, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def rank_mod_p(a: ExactMatrix, p: int) -> int:
    """Rank of A reduced entrywise mod p, by Gaussian elimination over F_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _ints(a)
    field, basis = _field(p, a.cols), {}
    for i, row in enumerate(a.to_rows()):
        _insert(basis, _pack(row, field), -i, field)
    return len(basis)


def _field(p: int, width: int) -> tuple:
    """_insert's constants for `width` columns mod p: column c in bits [c b, (c+1) b)."""
    n, b = 2 * p.bit_length(), 3 * p.bit_length()
    ones = ((1 << width * b) - 1) // ((1 << b) - 1)  # 1 in every field
    top = ones << b - 1
    return p, b, n, (1 << n) // p, ones * ((1 << b - n) - 1), top, top - ones * p


def _pack(row, field: tuple) -> int:
    return sum(x % field[0] << c * field[1] for c, x in enumerate(row))


def _insert(basis: dict, row: int, time: int, field: tuple) -> tuple:
    """Insert a row packed by _pack, stamped `time`, into `basis`: the one F_p
    elimination.  Returns the (column, time) pairs it placed, in order, and
    the time of the row it dropped (reduced to zero), or None.

    `basis` maps a leading (lowest nonzero) column to (time, row, inverse of
    the row's lead).  On a collision the newer row keeps the column and the
    older one, reduced by it, goes on; so for every l the kept rows of time
    >= l span the inserted rows of time >= l, with distinct leads, and a
    stack inserted with decreasing times never swaps.  A reduction adds
    (p - f) pivot, leaving each field v <= p^2 - p < 2^n.  As v mu <= (p - 1)
    2^n < 2^b for mu = 2^n // p, one product, shift and mask give each field
    Barrett's q = v mu >> n < p, v - 2p < q p <= v, and adding 2^(b-1) - p
    flags the fields left >= p: no carry or borrow crosses a field, in steps
    fixed for all p.
    """
    p, b, n, mu, low, top, k = field
    mask, c, placed = (1 << b) - 1, -1, []
    while row:
        last, c = c, ((row & -row).bit_length() - 1) // b
        if c == last:  # leads rise, or a faulty reduction left field c at p or above
            raise ArithmeticError(f"column {c} not cleared mod {p}")
        kept = basis.get(c)
        if kept is None or kept[0] < time:
            basis[c] = (time, row, pow(row >> c * b & mask, -1, p))
            placed.append((c, time))
            if kept is None:
                return placed, None
            time, row, _ = kept
        _, pivot, inv = basis[c]
        row += (p - (row >> c * b & mask) * inv % p) * pivot
        row -= (row * mu >> n & low) * p
        row -= ((row + k & top) >> b - 1) * p
    return placed, time


# --- serialization ---------------------------------------------------------

def to_json(a: ExactMatrix) -> str:
    return json.dumps({
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[str(x) for x in row] for row in a.to_rows()],
    })


def to_csv(a: ExactMatrix) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in a.to_rows())
