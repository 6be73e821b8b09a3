import hashlib
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fordlab.exactnum import QuadValue
from fordlab.geometry import (
    Disjointness,
    disk_within_interval,
    disks_disjoint,
    isometric_disk,
)
import fordlab.constructions
import fordlab.exactnum
from fordlab.moebius import bianchi_omega, from_ints, mm_format
from fordlab.constructions import (
    SearchExhausted,
    UnsupportedParameter,
    bianchi_deltas,
    bianchi_x_values,
    build,
    certify,
    find_power_conjugator,
    gamma0_special_generators,
    gamma0_unit_pairs,
    modular_conjugators,
    verify_construction,
    _int_disks_fit,
)

EXPECTED_COMBINED = [
    from_ints(26269, -100820, 6845, -26271),
    from_ints(-82644, 317189, -21533, 82644),
    from_ints(424, -1445, 125, -426),
    from_ints(-782, 2667, -229, 781),
    from_ints(21644, -68445, 6845, -21646),
    from_ints(-20241, 64009, -6400, 20239),
]


def test_modular_combined_generators_match_frozen_list():
    c = build("modular")
    assert set(c.combined_gens) == set(EXPECTED_COMBINED)


def test_modular_roundtrip():
    c = build("modular")
    pos = 0
    for sub, alpha in zip(c.subgroups, c.conjugators):
        for g in sub.gens:
            assert c.combined_gens[pos] == alpha * g * alpha.inv()
            pos += 1


def test_builtin_matrices_regression():
    """Every built-in matrix has determinant one and the advertised trace."""
    c = build("modular")
    for alpha in c.conjugators:
        assert alpha.canonical_trace() == QuadValue(0)
    for n in (2, 3, 4):
        for gens in gamma0_special_generators(n):
            for g in gens:
                det = g.a * g.d - g.b * g.c
                assert det == QuadValue(1)
    for d in (1, 2, 3, 5, 6, 7, 11, 15, 19, 23):
        for key, delta in bianchi_deltas(d).items():
            det = delta.a * delta.d - delta.b * delta.c
            assert det == QuadValue(1)
            assert delta.canonical_trace() == QuadValue(0)


def test_symbolic_delta_determinants_up_to_100():
    square_free = [d for d in range(1, 101)
                   if all(d % (q * q) for q in range(2, 11))]
    for d in square_free:
        for delta in bianchi_deltas(d).values():
            assert delta.a * delta.d - delta.b * delta.c == QuadValue(1)
            assert delta.canonical_trace() == QuadValue(0)


def test_gamma0_unit_pairs_satisfy_strict_inequality():
    for n in range(5, 13):
        for a, d, b in gamma0_unit_pairs(n):
            assert (a * d - 1) % n == 0
            assert 2 * abs(a + d) < n or 2 * abs(a + d) == n


def test_build_principal_sets():
    c = build("principal", 2)
    assert c.subgroups[0].gens == [from_ints(1, 4, 0, 1), from_ints(1, 0, 2, 1)]
    c = build("principal", 5)
    assert c.subgroups[0].gens == [from_ints(1, 5, 0, 1), from_ints(1, 0, 5, 1)]


def test_build_bianchi_deltas():
    c = build("bianchi", 5)
    om = bianchi_omega(5)
    by_x = {str(sub.gens[0].a): alpha for sub, alpha in zip(c.subgroups, c.conjugators)}
    assert by_x[str(om)] == from_ints(7, -10, 5, -7)
    assert by_x["0"] is None


def test_build_rejects_bad_parameters():
    with pytest.raises(UnsupportedParameter):
        build("gamma0", 0)
    with pytest.raises(UnsupportedParameter):
        build("normalizer", 6)
    with pytest.raises(UnsupportedParameter):
        build("bianchi", 12)
    with pytest.raises(UnsupportedParameter):
        build("nonsense", 3)


def test_find_power_conjugator_postconditions():
    alpha = find_power_conjugator(1, (Fraction(3), Fraction(4)),
                                  max_height=80, max_power=12)
    # both disks of the found power, and of the frozen involution, lie
    # strictly inside (3, 4)
    for g in (alpha, from_ints(17, -58, 5, -17)):
        for h in (g, g.inv()):
            assert disk_within_interval(isometric_disk(h), QuadValue(3),
                                        QuadValue(4))


def test_find_power_conjugator_exhausts_tiny_interval():
    with pytest.raises(SearchExhausted):
        find_power_conjugator(1, (Fraction(0), Fraction(1, 1000)),
                              max_height=10, max_power=3)


def test_verify_modular_is_verified():
    cert = verify_construction(build("modular"), 30, 8)
    assert cert.verdict == "Verified", cert.reasons


def test_verify_naive_principal_2_fails_lemma():
    cert = verify_construction(build("principal", 2, naive=True), 20, 6)
    assert cert.verdict == "Failed"
    assert any("LemmaViolation" in r for r in cert.reasons)


def test_verify_principal_2_standard_subgroup_passes_lemma():
    cert = verify_construction(build("principal", 2), 30, 8)
    lemma = [c for c in cert.checks if c.name.startswith("two_gen_domain[")]
    assert lemma and all(c.status == "pass" for c in lemma)


def test_verify_bianchi_19():
    cert = verify_construction(build("bianchi", 19), 40, 6)
    assert cert.verdict == "Verified", cert.reasons


def test_certificate_monotone_in_budget():
    c = build("gamma0", 7)
    small = verify_construction(c, 20, 8)
    large = verify_construction(c, 30, 10)
    assert small.verdict == "Verified"
    assert large.verdict == "Verified"
    assert set(small.coverage.missing) >= set(large.coverage.missing)


def test_gamma0_conjugator_disks_disjoint():
    c = build("gamma0", 5)
    disks = [isometric_disk(a) for a in c.conjugators]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            assert disks_disjoint(disks[i], disks[j]) == Disjointness.DISJOINT


def test_bianchi_x_values_cover_cosets():
    for d in (1, 3, 5):
        xs = bianchi_x_values(d)
        assert len(xs) == 5
        assert xs[0] == QuadValue(0)


def test_modular_conjugator_matrices_frozen():
    assert modular_conjugators() == [from_ints(142, -545, 37, -142),
                                     from_ints(17, -58, 5, -17),
                                     from_ints(117, -370, 37, -117)]


def _fraction_disks_fit(a, c, d, x, y):
    """Both disks, [-d/c -+ 1/|c|] and [a/c -+ 1/|c|], inside (x, y)."""
    if c == 0:
        return False
    lo = min(Fraction(-d, c), Fraction(a, c)) - Fraction(1, abs(c))
    hi = max(Fraction(-d, c), Fraction(a, c)) + Fraction(1, abs(c))
    return x < lo and hi < y


_entries = st.integers(-10 ** 6, 10 ** 6)
_rats = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


@given(a=_entries, b=_entries, c=_entries, d=_entries, x=_rats, y=_rats)
def test_int_disks_fit_matches_fraction_bounds(a, b, c, d, x, y):
    # random intervals, and intervals placed around the disks' midpoint so
    # that both outcomes and near-tangent bounds occur
    intervals = [(x, y)]
    if c:
        mid = Fraction(a - d, 2 * c)
        intervals.append((mid - abs(x), mid + abs(y)))
    for lo, hi in intervals:
        got = _int_disks_fit(a, b, c, d, lo.numerator, lo.denominator,
                             hi.numerator, hi.denominator)
        assert got == _fraction_disks_fit(a, c, d, lo, hi)


def _construction_text(c) -> str:
    """Labels, generators, conjugators, intervals, combined generators and
    notes of a construction, one text line each."""
    lines = [f"sub {s.label} " + " ".join(map(mm_format, s.gens))
             for s in c.subgroups]
    lines.append("conj " + " ".join("-" if a is None else mm_format(a)
                                    for a in c.conjugators))
    lines.append("intervals " + " ".join("-" if iv is None else f"{iv[0]},{iv[1]}"
                                         for iv in c.intervals))
    lines.append("combined " + " ".join(map(mm_format, c.combined_gens)))
    lines.extend(f"note {n}" for n in c.notes)
    return "\n".join(lines)


# sha256 of _construction_text(build("normalizer", p)), recorded when
# Gamma0(p)'s subgroups were still taken from a full _build_gamma0 run
NORMALIZER_DIGESTS = {
    2: "d590bbfaa8b971d444ff37887095f228d6e70f865c6bad10e926e02b28ac57fa",
    3: "f4b8b30c8206ad6983321ea13499052704c8d0c1d8756eaeea2ee4ff7afbaa08",
    5: "25334b21b77be8077684e490acf3892df4f69d20af6693eb790a8ac3371af552",
    7: "fcb2401c560712e1632678954e42a25b869c3a6402d4407264c7ea62a96e30fa",
    11: "35a4b12c0aef98c0df647ac0d355212b910ef6b2e4d76f05cfc26d2abeb29638",
    13: "6811413d51c339610bff96004d296e088adebe651528c132d8e0cd50a4ac78fa",
}


@pytest.mark.parametrize("p", sorted(NORMALIZER_DIGESTS))
def test_normalizer_build_unchanged(p):
    text = _construction_text(build("normalizer", p))
    assert hashlib.sha256(text.encode()).hexdigest() == NORMALIZER_DIGESTS[p]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_normalizer_searches_conjugators_once(monkeypatch, p):
    calls = []
    attach = fordlab.constructions._attach_conjugators

    def spy(construction, *args):
        calls.append(construction.model.kind)
        return attach(construction, *args)

    monkeypatch.setattr(fordlab.constructions, "_attach_conjugators", spy)
    build("normalizer", p)
    assert calls == ["normalizer"]


@pytest.mark.parametrize("d", [3, 19])
def test_bianchi_build_makes_one_prism_per_coset(monkeypatch, d):
    calls = []
    prism = fordlab.constructions.bianchi_prism

    def spy(ring, x):
        calls.append(x)
        return prism(ring, x)

    monkeypatch.setattr(fordlab.constructions, "bianchi_prism", spy)
    c = build("bianchi", d)
    assert calls == bianchi_x_values(d)


@pytest.mark.parametrize("target, param", [
    ("modular", None), ("gamma0", 5), ("principal", 7), ("normalizer", 7),
    ("bianchi", 1), ("bianchi", 3), ("bianchi", 19)])
def test_every_margin_check_passes_exactly_when_its_margin_is_positive(
        target, param):
    """The one rule of every disk, sphere, interval and prism check: pass
    exactly when the margin it reports is positive, so tangency fails."""
    cert = verify_construction(build(target, param), bound=4, max_word_len=2)
    with_margin = [c for c in cert.checks if c.margin is not None]
    assert with_margin
    assert [(c.name, c.status) for c in with_margin] == [
        (c.name, "pass" if c.margin.sign_real() > 0 else "fail")
        for c in with_margin]


FIXED_TARGETS = [("modular", None), ("gamma0", 5), ("principal", 7),
                 ("normalizer", 7), ("bianchi", 3), ("bianchi", 19),
                 ("bianchi", 10)]


@pytest.mark.parametrize("target, param", FIXED_TARGETS)
def test_certify_gives_the_certificate_checks(target, param):
    c = build(target, param)
    assert certify(c) == verify_construction(c, 4, 2).checks


def test_certify_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify enumerated traces")

    monkeypatch.setattr(fordlab.constructions, "enumerate_traces", refuse)
    for target, param in FIXED_TARGETS:
        assert certify(build(target, param))


# square-free d for which a delta_spheres_disjoint margin takes the square
# root of an integer that keeps a factor between 10**12 and 10**18 after
# trial division up to 10**6
LARGE_RESIDUAL_D = [699, 723, 739, 759, 823, 859, 907, 955, 1003, 1059, 1067,
                    1095, 1099, 1171, 1207, 1227, 1263, 1283, 1307, 1435,
                    1447, 1595, 1603, 1627, 1711, 1735, 1739, 1747, 1763,
                    1803, 1831, 1887, 1907, 1927, 1943, 1963]


@lru_cache(maxsize=None)
def _primes_to(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def _assert_square_free_split(n, s, q):
    """s*s*q = n, and q is square-free by trial division with every prime up
    to 10**6: q mod each prime, from q's 41-bit halves, finds the primes
    that divide it; what is left has no prime factor up to 10**6, so below
    10**18 it has at most two and is square-free unless a square."""
    assert s * s * q == n and 0 < q < 1 << 82
    primes = _primes_to(10 ** 6)
    hi, lo = divmod(q, 1 << 41)
    rest = q
    residues = (hi % primes * ((1 << 41) % primes) + lo % primes) % primes
    for r in primes[residues == 0].tolist():
        assert q % (r * r)
        rest //= r
    assert rest < 10 ** 18 and (rest == 1 or isqrt(rest) ** 2 != rest)


@pytest.mark.parametrize("d", LARGE_RESIDUAL_D)
def test_bianchi_with_large_residual_factor_is_verified(monkeypatch, d):
    # and every radicand split on the way is split as trial division by all
    # primes up to 10**6 certifies
    seen = set()
    decompose = fordlab.exactnum.square_free_decompose
    monkeypatch.setattr(fordlab.exactnum, "square_free_decompose",
                        lambda n: seen.add(n) or decompose(n))
    assert verify_construction(build("bianchi", d), 2, 1).verdict == "Verified"
    assert max(seen) > 10 ** 12
    for n in seen:
        _assert_square_free_split(n, *decompose(n))
