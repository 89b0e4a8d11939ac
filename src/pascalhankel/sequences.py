"""Integer and +-1 sequence generators behind the matrix families."""

import decimal
import itertools

# C_0, C_1, ...: every Catalan number computed so far, in order
_CATALAN = [1]


def s2(n: int) -> int:
    """Binary sum of digits (popcount)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n.bit_count()


def thue_morse(i: int) -> int:
    """Parity of the binary digit sum."""
    return s2(i) & 1


def catalan(k: int) -> int:
    """Exact Catalan number binom(2k,k)/(k+1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    while len(_CATALAN) <= k:
        j = len(_CATALAN)
        _CATALAN.append(_CATALAN[-1] * 2 * (2 * j - 1) // (j + 1))
    return _CATALAN[k]


def catalan_interspersed(k: int) -> int:
    """Signed Catalan numbers interspersed with zeros: c_{2k} = (-1)^k C_k
    and c_{2k+1} = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k % 2:
        return 0
    half = k // 2
    value = catalan(half)
    return -value if half % 2 else value


def _catalan_text():
    """str(C_0), str(C_1), ... by catalan's recurrence in exact decimal arithmetic, where a
    product or quotient by a small int and str() take linear time (str of an int is
    quadratic in its digits).  A step that is not exact raises, so no wrong digit prints."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    c = decimal.Decimal(1)
    for j in itertools.count(1):
        yield str(c)
        c, r = ctx.divmod(ctx.multiply(c, 2 * (2 * j - 1)), j + 1)
        if r:
            raise ArithmeticError(f"C_{j} is not an integer")


def _catalan_interspersed_text():
    for half, c in enumerate(_catalan_text()):
        yield "-" + c if half % 2 else c
        yield "0"


# a row's .text, where it has one, yields str(row(0)), str(row(1)), ... in linear time
catalan.text = _catalan_text
catalan_interspersed.text = _catalan_interspersed_text


def _paperfold(i: int) -> int:
    # the +-1 paperfolding sequence 1, -1, -1, -1, 1, ..., the limit of the
    # doubling recursion w -> w . (-1) . (-w reversed), in closed form: for
    # i + 1 = 2^v * m with m odd, the term is s = +1 if m = 1 (mod 4) else -1
    # when v = 0, and -s when v > 0
    if i < 0:
        raise ValueError("index must be nonnegative")
    n = i + 1
    v = (n & -n).bit_length() - 1
    s = 1 if (n >> v) % 4 == 1 else -1
    return -s if v else s


# kind -> total function N0 -> Z; the CLI lists the kinds in this order, and
# the Hankel families and Laurent series name the kind they are built from
SEQUENCES = {
    "thue_morse": thue_morse,
    "catalan": catalan,
    "catalan_interspersed": catalan_interspersed,
    "catalan_interspersed_mod2": lambda i: catalan_interspersed(i) % 2,
    "paperfolding": _paperfold,
}
