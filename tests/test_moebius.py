import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fordlab.exactnum import MixedRadicand, QuadValue
from fordlab.moebius import (
    ElementClass,
    MoebiusElement,
    NotIntegral,
    _canonically_positive,
    bianchi_omega,
    canonicalize_trace,
    from_ints,
    identity,
    integer_entries,
    in_bianchi,
    in_gamma0,
    in_normalizer,
    in_principal,
    mm_format,
    mm_parse,
    omega_coords,
    parse_generator_file,
)

S = from_ints(0, -1, 1, 0)
T = from_ints(1, 1, 0, 1)
T5 = from_ints(1, 5, 0, 1)
ALPHA0 = from_ints(142, -545, 37, -142)
ALPHA1 = from_ints(17, -58, 5, -17)
ALPHA2 = from_ints(117, -370, 37, -117)


def test_mul_inverse_pair_is_identity():
    x = from_ints(1, 1, 0, 1)
    y = from_ints(1, -1, 0, 1)
    assert x * y == identity()


def test_parabolic_family_traces():
    # products T5^k * S have trace 5k
    for k in range(1, 6):
        w = T5 ** k * S
        assert w.canonical_trace() == QuadValue(5 * k)


def test_conjugation_matches_explicit_matrix():
    got = ALPHA0 * S * ALPHA0.inv()
    assert got == from_ints(82644, -317189, 21533, -82644)


def test_inverse_examples():
    assert identity().inv() == identity()
    # an involution equals its own inverse in PSL
    assert ALPHA1.inv() == ALPHA1
    assert T5.inv() == from_ints(1, -5, 0, 1)


def test_canonical_trace_examples():
    assert ALPHA1.canonical_trace() == QuadValue(0)
    assert from_ints(424, -1445, 125, -426).canonical_trace() == QuadValue(2)
    assert from_ints(1, 3, 0, 1).canonical_trace() == QuadValue(2)


def test_canonical_trace_tie_rule():
    assert canonicalize_trace(QuadValue(0, -3, 5)) == QuadValue(0, 3, 5)
    assert canonicalize_trace(QuadValue(0, -1, -1)) == QuadValue(0, 1, -1)
    assert canonicalize_trace(QuadValue(-4)) == QuadValue(4)


def test_classify_examples():
    assert S.classify() == ElementClass.ELLIPTIC
    assert from_ints(2, -1, 1, 0).classify() == ElementClass.PARABOLIC
    omega = bianchi_omega(1)
    loxo = MoebiusElement(omega, -1, 1, 0)
    assert loxo.classify() == ElementClass.LOXODROMIC
    assert from_ints(3, -1, 1, 0).classify() == ElementClass.HYPERBOLIC
    assert identity().classify() == ElementClass.IDENTITY
    # real quadratic trace sqrt(2) < 2 is elliptic
    w = MoebiusElement(QuadValue(0, 1, 2), QuadValue(0, Fraction(-1, 2), 2),
                       QuadValue(0, 1, 2), 0)
    assert w.classify() == ElementClass.ELLIPTIC


def test_pow_examples():
    assert S ** 0 == identity()
    assert from_ints(1, 5, 0, 1) ** 3 == from_ints(1, 15, 0, 1)
    assert from_ints(2, -1, 1, 0) ** 2 == from_ints(3, -2, 2, -1)
    assert T5 ** -2 == from_ints(1, -10, 0, 1)


def test_congruence_examples():
    assert in_gamma0(from_ints(1, 1, 0, 1), 7)
    assert in_principal(from_ints(1, 0, 2, 1), 2)
    assert not in_gamma0(S, 2)
    assert in_principal(identity(), 5)


def test_congruence_accepts_either_sign_lift():
    # stored form of -(I + 3E21) still lies in the principal level-3 group
    g = MoebiusElement(-1, 0, -3, -1)
    assert in_principal(g, 3)


def test_congruence_rejects_non_integral():
    w = MoebiusElement(QuadValue(0, 1, 2), QuadValue(0, Fraction(-1, 2), 2),
                       QuadValue(0, 1, 2), 0)
    with pytest.raises(NotIntegral):
        in_gamma0(w, 2)


def test_normalizer_membership():
    p = 5
    w = MoebiusElement(0, QuadValue(0, Fraction(-1, p), p), QuadValue(0, 1, p), 0)
    assert in_normalizer(w, p)
    assert in_normalizer(from_ints(1, 1, 5, 6), 5)   # c = 5
    assert not in_normalizer(from_ints(1, 1, 1, 2), 5)


def test_bianchi_membership():
    for d in (1, 2, 3, 7, 15):
        omega = bianchi_omega(d)
        g = MoebiusElement(omega, -1, 1, 0)
        assert in_bianchi(g, d)
        assert in_bianchi(identity(), d)
    # half-integer coordinates are integral only for d = 3 mod 4
    half = QuadValue(Fraction(1, 2), Fraction(1, 2), -5)
    det_fix = (half * half - QuadValue(1)) / QuadValue(1)
    g = MoebiusElement(half, det_fix, 1, half)
    assert not in_bianchi(g, 5)


def test_omega_coords():
    assert omega_coords(bianchi_omega(1), 1) == (0, 1)
    assert omega_coords(bianchi_omega(3), 3) == (0, 1)
    v = QuadValue(2) + bianchi_omega(7) * 3
    assert omega_coords(v, 7) == (2, 3)


def test_determinant_enforced():
    with pytest.raises(ValueError):
        MoebiusElement(1, 0, 0, 2)


def test_mixed_ring_rejected():
    with pytest.raises(MixedRadicand):
        MoebiusElement(QuadValue(0, 1, 2), QuadValue(0, Fraction(-1, 2), 2),
                       QuadValue(0, 1, 3), 0)


def test_sign_normalization_idempotent_and_kills_minus_identity():
    g = MoebiusElement(-1, 0, 0, -1)
    assert g == identity()
    h = from_ints(-2, 1, -1, 0)
    assert h.a.sign_real() > 0 or h.c.sign_real() > 0
    assert MoebiusElement(h.a, h.b, h.c, h.d) == h


_SEED = 913


def _random_pslz(rng, length=8):
    g = identity()
    for _ in range(length):
        step = rng.choice([T, T.inv(), S])
        g = g * step
    return g


def test_conjugation_invariance_of_canonical_trace():
    rng = random.Random(_SEED)
    for _ in range(1000):
        x = _random_pslz(rng, 6)
        g = _random_pslz(rng, 6)
        assert x.conjugate_by(g).canonical_trace() == x.canonical_trace()


def test_random_products_keep_determinant_one():
    rng = random.Random(_SEED + 1)
    for _ in range(300):
        x = _random_pslz(rng, 10)
        det = x.a * x.d - x.b * x.c
        assert det == QuadValue(1)
        assert x * x.inv() == identity()


def test_parabolic_powers_stay_parabolic():
    for g in (T, T5, from_ints(2, -1, 1, 0), from_ints(1, 0, 2, 1)):
        if g.classify() != ElementClass.PARABOLIC:
            continue
        for k in (-3, -1, 1, 2, 5):
            assert (g ** k).classify() == ElementClass.PARABOLIC


def test_matrix_text_round_trip():
    cases = [S, T5, ALPHA0, MoebiusElement(bianchi_omega(7), -1, 1, 0),
             MoebiusElement(0, QuadValue(0, Fraction(-1, 5), 5), QuadValue(0, 1, 5), 0)]
    for g in cases:
        assert mm_parse(mm_format(g)) == g


def test_generator_file_parsing():
    text = "# two generators\n[[0,-1],[1,0]]\n\n[[1,5],[0,1]]  # translation\n"
    gens = parse_generator_file(text)
    assert gens == [S, T5]
    with pytest.raises(ValueError, match="line 2"):
        parse_generator_file("[[1,1],[0,1]]\n[[1,1],[0]]\n")


_big = st.integers(-2 ** 80, 2 ** 80)
_rats = st.builds(Fraction, _big, st.integers(1, 2 ** 80))


@given(a=_big, c=_big, k=_big, x=_rats, y=_rats)
def test_apply_to_point_matches_fraction_formula(a, c, k, x, y):
    # an integer matrix with ad - bc = 1 from coprime a, c (c = 0 gives T^k)
    if c == 0:
        a, b, d = 1, k, 1
    else:
        if gcd(a, c) != 1:
            a = 1
        d = pow(a, -1, abs(c)) + k * c
        b = (a * d - 1) // c
    y = abs(y) + Fraction(1, 7)
    num_re = (a * x + b) * (c * x + d) + a * c * y * y
    den = (c * x + d) * (c * x + d) + c * c * y * y
    u, v = from_ints(a, b, c, d).apply_to_point(QuadValue(x), QuadValue(y))
    assert (u, v) == (QuadValue(num_re / den), QuadValue(y / den))


_small_rats = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@given(a=_rats | _small_rats, b=_rats | _small_rats,
       m=st.integers(-19, 19) | st.sampled_from([4, 12, -8]))
def test_int_sign_tests_match_fraction_formulas(a, b, m):
    v = QuadValue(a, b, m)
    p, q, n = v.ints()
    assert n > 0 and gcd(gcd(p, q), n) == 1
    assert (Fraction(p, n), Fraction(q, n)) == (v.a, v.b)
    positive = v.a > 0 or (v.a == 0 and v.b > 0)
    assert _canonically_positive(v) is positive
    negative = v.a < 0 or (v.a == 0 and v.b < 0)
    assert canonicalize_trace(v) == (-v if negative else v)
    # the sign normalization of a matrix: its first nonzero entry of
    # (c, a, b, d) becomes canonically positive
    if not v.is_zero():
        g = MoebiusElement(v, 0, 1, v.inverse())
        assert g.c == QuadValue(1) and g.a == v
        g = MoebiusElement(v, 1, 0, v.inverse())
        assert g.a == (v if positive else -v)
    if v.is_rational and v.a.denominator == 1:
        k = int(v.a)
        assert integer_entries(MoebiusElement(1, v, 0, 1)) == (1, k, 0, 1)
    else:
        with pytest.raises(NotIntegral):
            integer_entries(MoebiusElement(1, v, 0, 1))
