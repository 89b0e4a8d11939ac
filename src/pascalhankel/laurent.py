"""Truncated formal Laurent series over Q and their simple continued
fractions with polynomial partial quotients.

One kernel, exact polynomial long division (`divmod` on `Poly`), does
the work: a fractional part known to N coefficients is R/X^N, and its
continued fraction is the Euclidean algorithm on (X^N, R).  Precision is
tracked by degree: a quotient of degree d consumes 2d known
coefficients, so A_1, ..., A_k are certified while
2 (deg A_1 + ... + deg A_k) <= N, and the expansion stops (setting a
flag) rather than emit an uncertified quotient.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import sequences


@dataclass(frozen=True)
class Poly:
    """Polynomial with exact rational coefficients, ascending degree."""

    coeffs: tuple

    @staticmethod
    def make(coeffs) -> "Poly":
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return Poly(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly.make(out)

    def __mul__(self, other: "Poly") -> "Poly":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return Poly.make(out)

    def __divmod__(self, other: "Poly") -> tuple:
        """Quotient and remainder of long division, exact over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d, lead = other.degree, other.coeffs[-1]
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - d)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[k + d] / lead
            if c:
                for j, y in enumerate(other.coeffs[:d]):
                    rem[k + j] -= c * y
        return Poly.make(quot), Poly.make(rem[:d])


def poly_str(p: Poly) -> str:
    """Render like "X", "-1*X", "X^2 + 1"."""
    if p.is_zero():
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            x = "X" if k == 1 else f"X^{k}"
            terms.append(x if c == 1 else f"{c}*{x}")
    return " + ".join(terms)


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated series sum of c_e X^e for e = start_exponent, start_exponent-1, ...

    Exponents above start_exponent are zero; exponents below the stored
    range are unknown, not zero.
    """

    start_exponent: int
    coeffs: tuple

    @staticmethod
    def make(start_exponent: int, coeffs) -> "LaurentSeries":
        return LaurentSeries(start_exponent, tuple(Fraction(x) for x in coeffs))

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coefficient(self, exponent: int) -> Fraction:
        if exponent > self.start_exponent:
            return Fraction(0)
        idx = self.start_exponent - exponent
        if idx >= len(self.coeffs):
            raise ValueError(f"coefficient of X^{exponent} beyond precision")
        return self.coeffs[idx]


@dataclass(frozen=True)
class CFExpansion:
    integer_part: Poly
    partial_quotients: tuple
    exhausted_precision: bool


# series name -> the SEQUENCES kind c whose Laurent series sum c_k X^(-k-1) it is
SERIES = {"L1": "catalan_interspersed", "L2": "catalan_interspersed_mod2"}


def build_L(which: str, num_coeffs: int) -> LaurentSeries:
    """The Catalan Laurent series: coefficient of X^(-k-1) is c_k ("L1")
    or c_k mod 2 ("L2")."""
    if num_coeffs < 1:
        raise ValueError("need at least one coefficient")
    if which not in SERIES:
        raise ValueError(f"unknown series: {which!r}")
    c = sequences.SEQUENCES[SERIES[which]]
    return LaurentSeries.make(-1, [c(k) for k in range(num_coeffs)])


def cf_expand(s: LaurentSeries, max_quotients: int) -> CFExpansion:
    """Simple continued fraction of a Laurent series.

    The series is known through X^(-N), so X^N times it is a polynomial P;
    the Euclidean algorithm on (P, X^N) gives the integer part as its first
    quotient and then the partial quotients A_1, A_2, ....  The divisor that
    yields A_k has degree N - (deg A_1 + ... + deg A_k), so A_k is certified
    while 2 (deg A_1 + ... + deg A_k) <= N, i.e. while twice that degree is
    at least N.  The first quotient that fails this, or a zero remainder
    (which cannot be told from an unknown tail), stops the expansion with
    exhausted_precision set instead of guessing.
    """
    n = s.precision - 1 - s.start_exponent
    if not any(s.coeffs):
        raise ValueError("cannot expand the zero series")
    if n < 0:
        raise ValueError("insufficient precision for the integer part")
    a = Poly.make([0] * n + [1])
    integer_part, b = divmod(Poly.make(reversed(s.coeffs)), a)
    quotients = []
    while len(quotients) < max_quotients:
        if 2 * b.degree < n:  # also b = 0, of degree -1
            return CFExpansion(integer_part, tuple(quotients), True)
        quotient, remainder = divmod(a, b)
        quotients.append(quotient)
        a, b = b, remainder
    return CFExpansion(integer_part, tuple(quotients), False)


def convergent(cf: CFExpansion, upto: int):
    """Numerator/denominator of the continued fraction truncated after
    `upto` partial quotients, by the three-term recursion."""
    if upto > len(cf.partial_quotients):
        raise ValueError("not enough partial quotients")
    p_prev, p_cur = Poly.make([1]), cf.integer_part
    q_prev, q_cur = Poly(()), Poly.make([1])
    for quotient in cf.partial_quotients[:upto]:
        p_prev, p_cur = p_cur, quotient * p_cur + p_prev
        q_prev, q_cur = q_cur, quotient * q_cur + q_prev
    return p_cur, q_cur


def series_of_fraction(p: Poly, q: Poly, num_coeffs: int) -> LaurentSeries:
    """Laurent expansion of P/Q around infinity, num_coeffs terms: the
    polynomial part of X^shift P/Q, whose degree shift + deg P - deg Q is
    num_coeffs - 1."""
    if num_coeffs < 1:
        raise ValueError("need at least one coefficient")
    if q.is_zero():
        raise ZeroDivisionError("zero denominator")
    if p.is_zero():
        return LaurentSeries.make(-1, [0] * num_coeffs)
    top = p.degree - q.degree
    shift = num_coeffs - 1 - top
    quotient, _ = divmod(Poly.make([0] * max(shift, 0) + list(p.coeffs)),
                         Poly.make([0] * max(-shift, 0) + list(q.coeffs)))
    return LaurentSeries.make(top, reversed(quotient.coeffs))
