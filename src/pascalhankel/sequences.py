"""Integer and +-1 sequence generators behind the matrix families."""

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
