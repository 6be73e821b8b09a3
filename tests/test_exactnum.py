import random
from fractions import Fraction
from math import gcd

import pytest

from fordlab.exactnum import (
    EQUAL,
    GREATER,
    MixedRadicand,
    NotComplexModulus,
    NotReal,
    QuadValue,
    RadicalExpr,
    qv_format,
    qv_parse,
    sqrt_qv,
    square_free_decompose,
)


def test_mul_conjugate_pair():
    # (1+sqrt2)(1-sqrt2) = -1
    x = QuadValue(1, 1, 2)
    y = QuadValue(1, -1, 2)
    assert x * y == QuadValue(-1)


def test_mul_square_expands():
    # (3+sqrt5)^2 = 14 + 6 sqrt5, checked against hand expansion
    x = QuadValue(3, 1, 5)
    assert x * x == QuadValue(14, 6, 5)


def test_mul_imaginary_radicand():
    # (sqrt(-5))^2 = -5
    x = QuadValue(0, 1, -5)
    assert x * x == QuadValue(-5)


def test_mul_mixed_radicand_rejected():
    with pytest.raises(MixedRadicand):
        QuadValue(0, 1, 2) * QuadValue(0, 1, 3)


def test_mul_rational_mixes_with_anything():
    assert QuadValue(3) * QuadValue(0, 1, 7) == QuadValue(0, 3, 7)


def test_cmp_real_examples():
    # 1+sqrt2 vs 12/5 reduces to comparing 2 with 49/25
    assert QuadValue(1, 1, 2).cmp_real(QuadValue(Fraction(12, 5))) == GREATER
    assert QuadValue(0).cmp_real(QuadValue(0)) == EQUAL
    # 3 - sqrt5 > 0 since 9 > 5
    assert QuadValue(3, -1, 5).cmp_real(QuadValue(0)) == GREATER


def test_cmp_real_rejects_complex():
    with pytest.raises(NotReal):
        QuadValue(0, 1, -1).cmp_real(QuadValue(0))


def test_cmp_real_across_different_radicands():
    assert QuadValue(0, 1, 2).cmp_real(QuadValue(0, 1, 3)) < 0
    assert QuadValue(0, 5, 2).cmp_real(QuadValue(0, 4, 3)) > 0  # 50 > 48


def test_abs2_examples():
    assert QuadValue(Fraction(7, 5)).abs2() == Fraction(49, 25)
    assert QuadValue(1, 1, -1).abs2() == 2
    # (1+sqrt(-3))/2 has unit modulus
    assert QuadValue(Fraction(1, 2), Fraction(1, 2), -3).abs2() == 1


def test_abs2_rejects_real_quadratic_irrational():
    with pytest.raises(NotComplexModulus):
        QuadValue(1, 1, 5).abs2()


def test_radical_cmp_examples():
    # 1 + sqrt2 - sqrt9 = sqrt2 - 2 < 0
    e = RadicalExpr(1, ((1, 2), (-1, 9)))
    assert e.sign() == -1
    assert RadicalExpr(0).sign() == 0
    # sqrt2 > 6/5 since 2 > 36/25
    assert RadicalExpr(Fraction(-6, 5), ((1, 2),)).sign() == 1


def test_radical_cmp_two_radicals():
    # sqrt2 + sqrt3 vs pi-ish rational bounds
    e = RadicalExpr(Fraction(-314, 100), ((1, 2), (1, 3)))
    assert e.sign() == 1  # 3.146... > 3.14
    e = RadicalExpr(Fraction(-315, 100), ((1, 2), (1, 3)))
    assert e.sign() == -1
    # exact zero: sqrt8 - 2 sqrt2
    e = RadicalExpr(0, ((1, 8), (-2, 2)))
    assert e.sign() == 0


def test_radical_cmp_interval_fallback():
    # three independent radicals force the certified interval path
    # sqrt2 + sqrt3 + sqrt5 = 5.3823...
    e = RadicalExpr(Fraction(-9, 2), ((1, 2), (1, 3), (1, 5)))
    assert e.sign() == 1
    e2 = RadicalExpr(Fraction(-11, 2), ((1, 2), (1, 3), (1, 5)))
    assert e2.sign() == -1


def test_exact_zero_beyond_two_radicals_is_an_error():
    # sqrt18 - sqrt8 - sqrt2 = 0, three distinct radicands: the certified
    # interval can only shrink around zero, so the comparator must refuse
    from fordlab.exactnum import PrecisionExhausted
    e = RadicalExpr(0, ((1, 18), (-1, 8), (-1, 2)))
    with pytest.raises(PrecisionExhausted):
        e.sign()


def test_squarefree_decompose():
    assert square_free_decompose(1) == (1, 1)
    assert square_free_decompose(12) == (2, 3)
    assert square_free_decompose(49) == (7, 1)
    assert square_free_decompose(0) == (0, 0)


def test_sqrt_qv():
    assert sqrt_qv(Fraction(1, 25)) == QuadValue(Fraction(1, 5))
    assert sqrt_qv(Fraction(1, 5)) == QuadValue(0, Fraction(1, 5), 5)
    assert sqrt_qv(8) == QuadValue(0, 2, 2)
    v = sqrt_qv(Fraction(9, 2))
    assert v * v == QuadValue(Fraction(9, 2))


def test_normalization_folds_trivial_radicands():
    assert QuadValue(1, 2, 4) == QuadValue(5)          # sqrt4 = 2
    assert QuadValue(1, 3, 0) == QuadValue(1)
    assert QuadValue(0, Fraction(1, 2), 8) == QuadValue(0, 1, 2)
    assert QuadValue(2, 0, 7).m == 0


def test_division_and_inverse():
    x = QuadValue(3, 1, 2)
    assert x * x.inverse() == QuadValue(1)
    assert (QuadValue(1) / QuadValue(0, 1, 5)) == QuadValue(0, Fraction(1, 5), 5)


_SEED = 20240817


def _random_qv(rng, m):
    a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    return QuadValue(a, b, m)


def test_cmp_agrees_with_certified_interval_1000():
    rng = random.Random(_SEED)
    radicands = [2, 3, 5, 7, 13]
    for _ in range(1000):
        m1, m2 = rng.choice(radicands), rng.choice(radicands)
        x, y = _random_qv(rng, m1), _random_qv(rng, m2)
        c = x.cmp_real(y)
        expr = RadicalExpr(x.a - y.a, ((x.b, x.m), (-y.b, y.m)))
        lo, hi = expr.interval(333)  # ~100 decimal digits
        if c > 0:
            assert lo > 0
        elif c < 0:
            assert hi < 0
        else:
            assert lo <= 0 <= hi


def test_norm_multiplicative_on_imaginary_values():
    rng = random.Random(_SEED + 1)
    for _ in range(400):
        m = rng.choice([-1, -2, -5, -7, 0])
        x, y = _random_qv(rng, m), _random_qv(rng, m)
        assert (x * y).abs2() == x.abs2() * y.abs2()


def test_radical_cmp_antisymmetric_and_transitive():
    rng = random.Random(_SEED + 2)
    vals = []
    for _ in range(12):
        coeffs = [(Fraction(rng.randint(-4, 4)), rng.choice([2, 3, 5]))
                  for _ in range(2)]
        vals.append(RadicalExpr(Fraction(rng.randint(-9, 9), 2), coeffs))
    n = len(vals)
    cmps = {}
    for i in range(n):
        for j in range(n):
            cmps[i, j] = (vals[i] - vals[j]).sign()
    for i in range(n):
        for j in range(n):
            assert cmps[i, j] == -cmps[j, i]
            for k in range(n):
                if cmps[i, j] > 0 and cmps[j, k] > 0:
                    assert cmps[i, k] > 0


def test_outputs_stay_reduced():
    rng = random.Random(_SEED + 3)
    for _ in range(200):
        x, y = _random_qv(rng, 5), _random_qv(rng, 5)
        for v in (x + y, x * y, x - y):
            for part in (v.a, v.b):
                assert part.denominator > 0
                assert gcd(abs(part.numerator), part.denominator) == 1


def test_text_round_trip_examples():
    cases = ["3", "-7/5", "1/2+3/4*sqrt(5)", "1/2-3/4*sqrt(5)",
             "2*sqrt(-1)", "-1*sqrt(2)", "0"]
    for text in cases:
        assert qv_format(qv_parse(text)) == text


def test_text_round_trip_random():
    rng = random.Random(_SEED + 4)
    for _ in range(300):
        m = rng.choice([0, 2, 5, -1, -7, 15])
        v = _random_qv(rng, m) if m else QuadValue(Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
        assert qv_parse(qv_format(v)) == v


def test_parse_rejects_garbage():
    for bad in ["", "1+1", "sqrt(2)", "1/2 + 1*sqrt(2)", "x", "1*sqrt(2)+1"]:
        with pytest.raises(ValueError):
            qv_parse(bad)
