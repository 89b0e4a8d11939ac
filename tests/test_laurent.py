"""Laurent series and continued fraction engine."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pascalhankel import laurent
from pascalhankel import sequences as seq
from pascalhankel.laurent import LaurentSeries, Poly


def X_power(k):
    return Poly.make([0] * k + [1])


# Reference oracles: the power-series implementations that laurent used
# before long division became its kernel.  Each quotient strips leading
# zeros and recomputes a truncated reciprocal.

def _reciprocal(coeffs: list) -> list:
    """First len(coeffs) coefficients of 1/u for u = sum coeffs[i] t^i,
    coeffs[0] != 0."""
    c0 = coeffs[0]
    out = [Fraction(1) / c0]
    for i in range(1, len(coeffs)):
        s = sum(coeffs[j] * out[i - j] for j in range(1, i + 1))
        out.append(-s / c0)
    return out


def reciprocal_cf_expand(s: LaurentSeries, max_quotients: int) -> laurent.CFExpansion:
    top = s.start_exponent
    coeffs = [Fraction(x) for x in s.coeffs]
    if all(c == 0 for c in coeffs):
        raise ValueError("cannot expand the zero series")
    if top >= 0:
        if len(coeffs) <= top:
            raise ValueError("insufficient precision for the integer part")
        integer_part = Poly.make(list(reversed(coeffs[:top + 1])))
        coeffs = coeffs[top + 1:]
        top = -1
    else:
        integer_part = Poly(())
    quotients = []
    exhausted = False
    while len(quotients) < max_quotients:
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            top -= 1
        if not coeffs:
            exhausted = True
            break
        e = top  # leading exponent, <= -1
        if -e + 1 > len(coeffs):
            exhausted = True
            break
        inv = _reciprocal(coeffs)
        quotients.append(Poly.make(list(reversed(inv[:-e + 1]))))
        coeffs = inv[-e + 1:]
        top = -1
    return laurent.CFExpansion(integer_part, tuple(quotients), exhausted)


def reciprocal_series_of_fraction(p: Poly, q: Poly, num_coeffs: int) -> LaurentSeries:
    if q.is_zero():
        raise ZeroDivisionError("zero denominator")
    if p.is_zero():
        return LaurentSeries.make(-1, [0] * num_coeffs)
    top = p.degree - q.degree
    prev = list(reversed(p.coeffs)) + [Fraction(0)] * (num_coeffs - 1)
    qrev = list(reversed(q.coeffs))
    qinv = _reciprocal(qrev[:num_coeffs] + [Fraction(0)] * max(0, num_coeffs - len(qrev)))
    out = []
    for i in range(num_coeffs):
        out.append(sum(prev[j] * qinv[i - j] for j in range(i + 1)))
    return LaurentSeries.make(top, out)


def test_poly_basics():
    p = Poly.make([1, 0, 1])  # X^2 + 1
    q = Poly.make([0, 1])     # X
    assert p.degree == 2 and q.degree == 1
    assert (p * q).coeffs == (0, 1, 0, 1)
    assert (p + q).coeffs == (1, 1, 1)
    assert Poly.make([0, 0]).is_zero()


def test_poly_divmod():
    rng = random.Random(7)
    for _ in range(200):
        a = Poly.make([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                       for _ in range(rng.randint(0, 8))])
        b = Poly.make([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
                      + [rng.choice([1, -1, 2, Fraction(-3, 4)])])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
    assert divmod(Poly.make([1, 0, 1]), X_power(1)) == (X_power(1), Poly.make([1]))
    with pytest.raises(ZeroDivisionError):
        divmod(X_power(2), Poly.make([0]))


def test_poly_str():
    assert laurent.poly_str(Poly.make([0, 1])) == "X"
    assert laurent.poly_str(Poly.make([0, -1])) == "-1*X"
    assert laurent.poly_str(Poly.make([1, 0, 1])) == "X^2 + 1"
    assert laurent.poly_str(Poly.make([])) == "0"
    assert laurent.poly_str(Poly.make([Fraction(1, 2), 3])) == "3*X + 1/2"


def test_build_L_examples():
    l1 = laurent.build_L("L1", 3)
    assert l1.start_exponent == -1
    assert l1.coeffs == (1, 0, -1)

    l2 = laurent.build_L("L2", 7)
    assert [k for k, c in enumerate(l2.coeffs) if c] == [0, 2, 6]

    assert laurent.build_L("L1", 1).coeffs == (1,)
    # zero above the start exponent, unknown past the last known coefficient
    assert l1.coefficient(0) == 0
    with pytest.raises(ValueError, match="beyond precision"):
        l1.coefficient(-4)
    with pytest.raises(ValueError):
        laurent.build_L("L3", 3)
    with pytest.raises(ValueError):
        laurent.build_L("L1", 0)


def test_cf_expand_rejects_zero():
    with pytest.raises(ValueError):
        laurent.cf_expand(LaurentSeries.make(-1, [0, 0, 0]), 5)


def test_cf_expand_simple_inverse():
    # 1/X known through X^-3: one certified quotient X, then exhausted
    s = LaurentSeries.make(-1, [1, 0, 0])
    cf = laurent.cf_expand(s, 5)
    assert cf.integer_part.is_zero()
    assert [laurent.poly_str(q) for q in cf.partial_quotients] == ["X"]
    assert cf.exhausted_precision


def test_cf_expand_l1_all_X():
    cf = laurent.cf_expand(laurent.build_L("L1", 61), 30)
    assert len(cf.partial_quotients) == 30
    assert not cf.exhausted_precision
    assert all(laurent.poly_str(q) == "X" for q in cf.partial_quotients)


def test_cf_expand_l2_paperfolding_signs():
    cf = laurent.cf_expand(laurent.build_L("L2", 61), 30)
    assert len(cf.partial_quotients) == 30
    signs = []
    for q in cf.partial_quotients:
        assert q.degree == 1
        assert q.coeffs[0] == 0
        assert q.coeffs[1] in (1, -1)
        signs.append(int(q.coeffs[1]))
    assert signs == [seq.SEQUENCES["paperfolding"](i) for i in range(30)]


@pytest.mark.parametrize("which", ["L1", "L2"])
def test_cf_expand_quotients_in_closed_form_at_513_coefficients(which):
    # L1 = 1/(X + L1) by the Catalan recurrence, so every quotient is X.  L2 is the
    # limit of sums of X^-(2^(j+1)-1), each step a fold (Mendes France, Acta Arith. 23
    # (1973); van der Poorten & Shallit, J. Number Theory 40 (1992)), so its quotients
    # are pf(k) X, pf the paperfolding sequence.  513 coefficients certify 256
    cf = laurent.cf_expand(laurent.build_L(which, 513), 1000)
    pf = seq.SEQUENCES["paperfolding"]
    alpha = [1 if which == "L1" else pf(k) for k in range(256)]
    assert cf.integer_part.is_zero()
    assert cf.partial_quotients == tuple(Poly.make([0, a]) for a in alpha)
    assert cf.exhausted_precision


def test_cf_expand_certified_quotient_count():
    # precision p certifies at least floor((p-1)/2) degree-1 quotients
    for p in (5, 10, 21, 40):
        cf = laurent.cf_expand(laurent.build_L("L1", p), 100)
        assert len(cf.partial_quotients) >= (p - 1) // 2
        assert cf.exhausted_precision


def test_cf_expand_with_integer_part():
    # X + 1 + 1/X
    s = LaurentSeries.make(1, [1, 1, 1, 0, 0])
    cf = laurent.cf_expand(s, 3)
    assert laurent.poly_str(cf.integer_part) == "X + 1"
    assert [laurent.poly_str(q) for q in cf.partial_quotients] == ["X"]


def test_convergent_examples():
    cf = laurent.cf_expand(laurent.build_L("L1", 21), 10)
    p1, q1 = laurent.convergent(cf, 1)
    assert (p1, q1) == (Poly.make([1]), X_power(1))
    p2, q2 = laurent.convergent(cf, 2)
    assert p2 == X_power(1)
    assert q2 == Poly.make([1, 0, 1])
    with pytest.raises(ValueError):
        laurent.convergent(cf, 11)


def test_series_of_fraction():
    # X / (X^2 + 1) = X^-1 - X^-3 + X^-5 - ...
    s = laurent.series_of_fraction(X_power(1), Poly.make([1, 0, 1]), 6)
    assert s.start_exponent == -1
    assert s.coeffs == (1, 0, -1, 0, 1, 0)
    # a top exponent above the last term kept: X^5 / (X + 1) = X^4 - X^3 + ...
    s = laurent.series_of_fraction(X_power(5), Poly.make([1, 1]), 2)
    assert (s.start_exponent, s.coeffs) == (4, (1, -1))
    for num_coeffs in (0, -1):
        with pytest.raises(ValueError):
            laurent.series_of_fraction(X_power(1), Poly.make([1, 0, 1]), num_coeffs)
    with pytest.raises(ZeroDivisionError):
        laurent.series_of_fraction(X_power(1), Poly(()), 3)


def _cf(cf):
    return cf.integer_part, cf.partial_quotients, cf.exhausted_precision


@pytest.mark.parametrize("which", ["L1", "L2"])
def test_cf_expand_matches_reciprocal_oracle_on_catalan_series(which):
    for precision in (1, 2, 3, 4, 7, 20, 33, 64):
        series = laurent.build_L(which, precision)
        for max_quotients in (0, 1, 3, 1000):
            assert _cf(laurent.cf_expand(series, max_quotients)) == \
                _cf(reciprocal_cf_expand(series, max_quotients)), (precision, max_quotients)


def test_cf_expand_matches_reciprocal_oracle_on_random_series():
    rng = random.Random(2024)
    for case in range(600):
        kind = case % 3
        if kind == 2:
            # a truncated rational function: the expansion can terminate exactly
            p = Poly.make([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1])
            q = Poly.make([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
                          + [rng.choice([1, -1, 2])])
            series = laurent.series_of_fraction(p, q, rng.randint(1, 20))
            assert series == reciprocal_series_of_fraction(p, q, series.precision)
        else:
            def coeff():
                if kind == 0:
                    return rng.choice([0, 0, 0, 1, -1, 2, -3])
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            # start exponents >= 0 (an integer part), -1, and < -1 (leading zeros)
            series = LaurentSeries.make(rng.randint(-6, 4),
                                        [coeff() for _ in range(rng.randint(0, 20))])
        max_quotients = rng.choice([0, 1, 2, 5, 1000])
        try:
            want = _cf(reciprocal_cf_expand(series, max_quotients))
        except ValueError:
            with pytest.raises(ValueError):
                laurent.cf_expand(series, max_quotients)
            continue
        assert _cf(laurent.cf_expand(series, max_quotients)) == want, (series, max_quotients)


def test_series_of_fraction_matches_reciprocal_oracle():
    rng = random.Random(5)
    for _ in range(400):
        p = Poly.make([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
        q = Poly.make([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 3)])
        num_coeffs = rng.randint(1, 20)
        assert laurent.series_of_fraction(p, q, num_coeffs) == \
            reciprocal_series_of_fraction(p, q, num_coeffs)


@pytest.mark.parametrize("which", ["L1", "L2"])
def test_convergents_reconstruct_series(which):
    coeffs = 41
    series = laurent.build_L(which, coeffs)
    cf = laurent.cf_expand(series, 20)
    q_deg_prev = 0
    for upto in range(1, len(cf.partial_quotients) + 1):
        p, q = laurent.convergent(cf, upto)
        assert q.degree == sum(a.degree for a in cf.partial_quotients[:upto])
        # best approximation: agreement through exponent -(deg q + deg q' + 1)
        order = q.degree + q_deg_prev + 1
        if order > coeffs:
            break
        approx = laurent.series_of_fraction(p, q, order + q.degree + 1)
        for e in range(-1, -order - 1, -1):
            assert approx.coefficient(e) == series.coefficient(e)
        q_deg_prev = q.degree
