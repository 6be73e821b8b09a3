import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fordlab.exactnum import (
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
    assert QuadValue(1, 1, 2).cmp_real(QuadValue(Fraction(12, 5))) == 1
    assert QuadValue(0).cmp_real(QuadValue(0)) == 0
    # 3 - sqrt5 > 0 since 9 > 5
    assert QuadValue(3, -1, 5).cmp_real(QuadValue(0)) == 1


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


def test_squarefree_decompose_past_the_trial_limit():
    # a residual below 10**18 with no prime factor up to 10**6 is a prime,
    # a product of two primes or a square
    assert square_free_decompose(1000003 * 1000033) == (1, 1000036000099)
    assert square_free_decompose(1000003 ** 2) == (1000003, 1)
    assert square_free_decompose(12 * 1000003 * 1000033) == (2, 3000108000297)
    with pytest.raises(ValueError, match="too large to certify"):
        square_free_decompose(1000003 * 1000033 * 1000037)


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


# -- differential test against the (Fraction a, Fraction b, m) formulas ------------

_BIG = 2 ** 200
_nums = st.one_of(st.integers(-20, 20), st.integers(-_BIG, _BIG))
_dens = st.one_of(st.integers(1, 20), st.integers(1, _BIG))
_rats = st.builds(Fraction, _nums, _dens)
# radicands -19..19, plus non-square-free ones the constructor must reduce
_radicands = st.one_of(st.integers(-19, 19), st.sampled_from([4, 12, -8]))


class _Ref:
    """a + b*sqrt(m) on two Fractions, normalized as the constructor does."""

    def __init__(self, a, b=Fraction(0), m=0):
        a, b = Fraction(a), Fraction(b)
        if b == 0 or m == 0:
            b, m = Fraction(0), 0
        elif m != 1:
            s, r = square_free_decompose(abs(m))
            b *= s
            m = r if m > 0 else -r
        if m == 1:
            a, b, m = a + b, Fraction(0), 0
        self.a, self.b, self.m = a, b, m

    def join(self, o):
        if self.b == 0:
            return o.m
        if o.b == 0:
            return self.m
        if self.m != o.m:
            raise MixedRadicand
        return self.m

    def add(self, o):
        return _Ref(self.a + o.a, self.b + o.b, self.join(o))

    def neg(self):
        return _Ref(-self.a, -self.b, self.m)

    def sub(self, o):
        return self.add(o.neg())

    def mul(self, o):
        m = self.join(o)
        return _Ref(self.a * o.a + self.b * o.b * m, self.a * o.b + self.b * o.a, m)

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.m
        if norm == 0:
            raise ZeroDivisionError
        return _Ref(self.a / norm, -self.b / norm, self.m)

    def div(self, o):
        return self.mul(o.inverse())

    def conj(self):
        return _Ref(self.a, -self.b, self.m)

    def abs2(self):
        if self.m > 0:
            raise NotComplexModulus
        return self.a * self.a - self.m * self.b * self.b

    def sign_real(self):
        if self.m < 0:
            raise NotReal
        a, b2m = self.a, self.b * self.b * self.m
        sa, sb = (a > 0) - (a < 0), (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        t = (a * a > b2m) - (a * a < b2m)
        return sa if t > 0 else (sb if t < 0 else 0)

    def cmp_real(self, o):
        if self.m < 0 or o.m < 0:
            raise NotReal
        return RadicalExpr(self.a - o.a, ((self.b, self.m), (-o.b, o.m))).sign()


def _assert_canonical(v):
    p, q, n, m = v._p, v._q, v._n, v.m
    assert all(type(k) is int for k in (p, q, n, m))
    assert n > 0 and gcd(p, q, n) == 1
    assert (q == 0) == (m == 0)
    if m:
        assert m != 1 and square_free_decompose(abs(m))[0] == 1
    assert (v.a, v.b) == (Fraction(p, n), Fraction(q, n))


def _outcome(fn, *args):
    """The (a, b, m) or value of fn(*args), or the type of its exception."""
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    if isinstance(r, QuadValue):
        _assert_canonical(r)
    if isinstance(r, (QuadValue, _Ref)):
        return (r.a, r.b, r.m)
    return r


_OPS = [
    ("add", lambda x, y: x + y, _Ref.add),
    ("sub", lambda x, y: x - y, _Ref.sub),
    ("mul", lambda x, y: x * y, _Ref.mul),
    ("div", lambda x, y: x / y, _Ref.div),
    ("cmp_real", QuadValue.cmp_real, _Ref.cmp_real),
]
_UNARY = [
    ("neg", lambda x: -x, _Ref.neg),
    ("inverse", QuadValue.inverse, _Ref.inverse),
    ("conj", QuadValue.conj, _Ref.conj),
    ("abs2", QuadValue.abs2, _Ref.abs2),
    ("sign_real", QuadValue.sign_real, _Ref.sign_real),
]


@settings(max_examples=300, deadline=None)
@given(a1=_rats, b1=_rats, a2=_rats, b2=_rats, m1=_radicands,
       m2=_radicands, same_ring=st.booleans())
def test_core_matches_fraction_formulas(a1, b1, a2, b2, m1, m2, same_ring):
    if same_ring:
        m2 = m1
    x, y = QuadValue(a1, b1, m1), QuadValue(a2, b2, m2)
    rx, ry = _Ref(a1, b1, m1), _Ref(a2, b2, m2)
    for v, r in ((x, rx), (y, ry)):
        _assert_canonical(v)
        assert (v.a, v.b, v.m) == (r.a, r.b, r.m)
        for name, op, ref in _UNARY:
            assert _outcome(op, v) == _outcome(ref, r), name
        # equal values hash equal, and the text form round-trips
        w = qv_parse(qv_format(v))
        assert w == v and hash(w) == hash(v)
        u = (v + v) * QuadValue(Fraction(1, 2))
        assert u == v and hash(u) == hash(v)
    for name, op, ref in _OPS:
        assert _outcome(op, x, y) == _outcome(ref, rx, ry), name
        assert _outcome(op, y, x) == _outcome(ref, ry, rx), name


@settings(max_examples=300)
@given(a1=_rats, b1=_rats, a2=_rats, b2=_rats,
       rings=st.lists(st.sampled_from([2, 3, 5, 6, 7, 8, 10, 12, 13, 19]),
                      min_size=2, max_size=2, unique=True))
def test_cmp_real_across_rings_matches_fraction_formulas(a1, b1, a2, b2, rings):
    # real irrationals of two different rings take the two-radical path;
    # with equal rational parts only the radicals decide
    m1, m2 = rings
    x, rx = QuadValue(a1, b1, m1), _Ref(a1, b1, m1)
    for a in (a2, a1):
        y, ry = QuadValue(a, b2, m2), _Ref(a, b2, m2)
        assert x.cmp_real(y) == rx.cmp_real(ry)
        assert y.cmp_real(x) == ry.cmp_real(rx)


@given(k=_nums, r=_rats)
def test_rationals_equal_ints_and_fractions(k, r):
    assert QuadValue(k) == k and k == QuadValue(k)
    assert QuadValue(r) == r and hash(QuadValue(r)) == hash(QuadValue(r.numerator) / r.denominator)
    assert QuadValue(0, r, 4) == QuadValue(2 * r)
    assert QuadValue(0, r, -8) == QuadValue(0, 2 * r, -2)
    assert QuadValue(0, r, 12) == QuadValue(0, 2 * r, 3)
