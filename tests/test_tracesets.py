from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fordlab import _bfs
from fordlab._bfs import (
    _columns,
    _ExactCodec,
    _first_rows,
    _flat,
    _IntCodec,
    _linear,
    _make_codec,
    _make_positive,
    _PairCodec,
    _py_rows,
    _row_hash,
    _Search,
    _widen,
    _within,
)
from fordlab.exactnum import MixedRadicand, QuadValue
from fordlab.moebius import (
    MoebiusElement,
    bianchi_omega,
    canonicalize_trace,
    from_ints,
    identity,
    omega_ints,
)
from fordlab.tracesets import (
    DEFAULT_STATE_CAP,
    NotHyperbolic,
    StateExplosion,
    TraceSetModel,
    UnsupportedParameter,
    coverage_report,
    enumerate_traces,
    expected_set,
    model_contains,
    trace_to_length,
    unit_residue_traces,
)

S = from_ints(0, -1, 1, 0)
T5 = from_ints(1, 5, 0, 1)


def _ints(traces):
    return sorted(int(t.a) for t in traces)


def test_expected_modular():
    assert _ints(expected_set(TraceSetModel("modular"), 5)) == [0, 1, 2, 3, 4, 5]


def test_expected_gamma0_5():
    got = _ints(expected_set(TraceSetModel("gamma0", 5), 20))
    assert got == [0, 2, 3, 5, 7, 8, 10, 12, 13, 15, 17, 18, 20]


def test_expected_principal_3():
    got = _ints(expected_set(TraceSetModel("principal", 3), 30))
    assert got == [2, 7, 11, 16, 20, 25, 29]


def test_expected_normalizer_includes_roots():
    got = expected_set(TraceSetModel("normalizer", 5), 10)
    assert QuadValue(0, 2, 5) in got          # 2*sqrt(5) <= 10
    assert QuadValue(0, 5, 5) not in got      # 5*sqrt(5) > 10
    assert QuadValue(7) in got                # 7 = 2 + 5 in the level-5 classes


def test_expected_bianchi_bounds_squared_modulus():
    got = expected_set(TraceSetModel("bianchi", 5), 9)
    assert QuadValue(3) in got                # 9 <= 9
    assert QuadValue(4) not in got            # 16 > 9
    assert QuadValue(0, 1, -5) in got         # |omega|^2 = 5 <= 9
    assert QuadValue(1, 1, -5) in got         # |1+omega|^2 = 6 <= 9
    assert QuadValue(2, 1, -5) in got         # |2+omega|^2 = 9, boundary included
    assert QuadValue(3, 1, -5) not in got     # 9 + 5 = 14 > 9


def test_model_contains():
    assert model_contains(TraceSetModel("gamma0", 5), QuadValue(7))
    assert not model_contains(TraceSetModel("gamma0", 5), QuadValue(4))
    assert model_contains(TraceSetModel("principal", 3), QuadValue(25))
    assert not model_contains(TraceSetModel("principal", 3), QuadValue(24))
    assert model_contains(TraceSetModel("normalizer", 5), QuadValue(0, 3, 5))
    assert model_contains(TraceSetModel("bianchi", 3), bianchi_omega(3) * 2)


def _former_expected_set(model, bound):
    """expected_set as each model stated it before the residue classes."""
    bound = Fraction(bound)
    kind, n = model.kind, model.param
    bf = bound.numerator // bound.denominator
    if kind == "modular":
        return {QuadValue(k) for k in range(bf + 1)}
    if kind == "gamma0":
        res = unit_residue_traces(n)
        return {QuadValue(k) for k in range(bf + 1) if k % n in res}
    if kind == "principal":
        out = set()
        a = 0
        while True:
            lo, hi = a * n * n - 2, a * n * n + 2
            if lo > bf:
                break
            for t in (abs(lo), hi):
                if t <= bf:
                    out.add(QuadValue(t))
            a += 1
        return out
    if kind == "normalizer":
        out = _former_expected_set(TraceSetModel("gamma0", n), bound)
        m = 0
        while m * m * n <= bound * bound:
            out.add(QuadValue(0, m, n))
            m += 1
        return out
    omega = bianchi_omega(n)
    out = set()
    vmax = isqrt(int(4 * bound // n)) + 2
    for v in range(-vmax, vmax + 1):
        umax = isqrt(int(bound)) + abs(v) * (isqrt(n) + 1) + 2
        for u in range(-umax, umax + 1):
            t = QuadValue(u) + omega * v
            if t.abs2() <= bound:
                out.add(canonicalize_trace(t))
    return out


def _former_model_contains(model, t):
    """model_contains as each model stated it before the residue classes."""
    t = canonicalize_trace(t)
    kind, n = model.kind, model.param
    integral = t.is_rational and t.a.denominator == 1
    if kind == "modular":
        return integral and t.a >= 0
    if kind == "gamma0":
        return integral and t.a.numerator % n in unit_residue_traces(n)
    if kind == "principal":
        k = t.a.numerator
        return integral and ((k - 2) % (n * n) == 0 or (k + 2) % (n * n) == 0)
    if kind == "normalizer":
        if t.is_rational:
            return t.a == 0 or _former_model_contains(TraceSetModel("gamma0", n), t)
        return t.m == n and t.a == 0 and t.b.denominator == 1
    try:
        u, v, den = omega_ints(t, n)
    except MixedRadicand:
        return False
    return u % den == 0 and v % den == 0


_FORMER_MODELS = (
    [TraceSetModel("modular")]
    + [TraceSetModel("gamma0", n) for n in range(1, 31)]
    + [TraceSetModel("principal", n) for n in range(1, 17)]
    + [TraceSetModel("normalizer", p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    + [TraceSetModel("bianchi", d) for d in (1, 2, 3, 7, 19, 67)])
_HALF = Fraction(1, 2)
_IRRATIONAL_PROBES = (
    [QuadValue(a, b, m) for m in (2, 3, 5, 7, 23) for a in (0, 1, -3, _HALF)
     for b in (1, -2, 3, _HALF)]
    + [QuadValue(a, b, -d) for d in (1, 2, 3, 7, 19, 67) for a in (0, 2, _HALF)
       for b in (1, -1, _HALF, Fraction(3, 2))])


def test_models_match_former_formulas():
    rational = [QuadValue(k) for k in range(-50, 51)] + [
        QuadValue(Fraction(k, 3)) for k in range(-10, 11)]
    checked = 0
    for model in _FORMER_MODELS:
        for bound in (0, 1, Fraction(7, 2), 10, 40):
            got = expected_set(model, bound)
            assert got == _former_expected_set(model, bound), (model, bound)
        for t in sorted(got | set(rational) | set(_IRRATIONAL_PROBES), key=str):
            assert model_contains(model, t) == _former_model_contains(model, t), \
                (model, t)
            checked += 1
    assert checked > 10_000


def test_models_validate_parameters():
    with pytest.raises(UnsupportedParameter):
        TraceSetModel("normalizer", 6)
    with pytest.raises(UnsupportedParameter):
        TraceSetModel("bianchi", 12)
    with pytest.raises(UnsupportedParameter):
        TraceSetModel("nonsense")
    with pytest.raises(UnsupportedParameter):
        TraceSetModel("gamma0", 0)
    assert issubclass(UnsupportedParameter, ValueError)


def test_model_names_its_target_and_group():
    assert TraceSetModel("modular").target == "modular"
    assert TraceSetModel("gamma0", 5).target == "gamma0:5"
    assert TraceSetModel("normalizer", 7).group == "N(Gamma0(7))"
    assert TraceSetModel("bianchi", 19).group == "PSL2(O_19)"


def test_enumerate_single_parabolic():
    result = enumerate_traces([from_ints(1, 1, 0, 1)], 10, 100)
    assert _ints(result.traces) == [2]


def test_enumerate_g0_small():
    result = enumerate_traces([S, T5], 3, 10)
    assert set(_ints(result.traces)) >= {0, 5, 10}


def test_enumerate_modular_combined_small():
    from fordlab.constructions import build
    gens = build("modular").combined_gens
    result = enumerate_traces(gens, 4, 10)
    assert set(_ints(result.traces)) >= set(range(0, 11))


def _word_trace(gens, word):
    g = identity()
    for token in word.split("*"):
        name, inverse, _ = token.partition("^-1")
        elem = gens[int(name[1:])]
        g = g * (elem.inv() if inverse else elem)
    return g.canonical_trace()


def test_witness_words_reproduce_traces():
    result = enumerate_traces([S, T5], 5, 30)
    for t, word in result.traces.items():
        assert _word_trace([S, T5], word) == t


def test_enumeration_deterministic():
    gens = [from_ints(1, -1, 1, 0), T5]
    runs = [enumerate_traces(gens, 7, 40) for _ in range(2)]
    base = {str(t): w for t, w in runs[0].traces.items()}
    assert {str(t): w for t, w in runs[1].traces.items()} == base
    assert runs[1].states_explored == runs[0].states_explored


def test_generic_kernel_matches_int_kernel():
    # force the generic path by conjugating into a sqrt-ring representation
    gens = [S, T5]
    fast = enumerate_traces(gens, 6, 30)
    p = 5
    w = MoebiusElement(0, QuadValue(0, Fraction(-1, p), p), QuadValue(0, 1, p), 0)
    slow_gens = [w * g * w.inv() for g in gens]
    slow = enumerate_traces(slow_gens, 6, 30)
    assert {str(t) for t in fast.traces} == {str(t) for t in slow.traces}


def _imaginary(gens):
    return any(v.m < 0 for g in gens for v in (g.a, g.b, g.c, g.d))


def _exact_result(gens, max_len, bound):
    codec = _ExactCodec(Fraction(bound), _imaginary(gens))
    search = _Search(codec, gens, DEFAULT_STATE_CAP)
    search.run(max_len)
    return search.result()


def _reference_enumerate(gens, max_len, bound):
    """Reference BFS sharing no code with fordlab._bfs: one global visited
    dict over MoebiusElement products, each level's new states taken in
    sorted key order, and the same witness rule (the first direction whose
    inverse step lands in the level before).  The bound caps |t|^2 when an
    entry is imaginary, |t| otherwise.  Returns (traces, states,
    max_len_reached)."""
    bound = Fraction(bound)
    modulus = _imaginary(gens)
    dirs, labels = [], []
    for i, g in enumerate(gens):
        for elem, label in ((g, f"g{i}"), (g.inv(), f"g{i}^-1")):
            if not elem.is_identity() and elem not in dirs:
                dirs.append(elem)
                labels.append(label)
    visited = {identity(): 0}
    frontier, found, reached = [identity()], {}, 0
    for level in range(1, max_len + 1):
        new = {x * g for x in frontier for g in dirs} - visited.keys()
        if not new:
            break
        frontier = sorted(new, key=MoebiusElement.key)
        for y in frontier:
            visited[y] = level
            t = y.canonical_trace()
            if t.abs2() <= bound if modulus else abs(t) <= QuadValue(bound):
                found.setdefault(t, y)
        reached = level

    def word(y):
        letters = []
        for lvl in range(visited[y], 0, -1):
            j = next(j for j, g in enumerate(dirs)
                     if visited.get(y * g.inv()) == lvl - 1)
            letters.append(labels[j])
            y = y * dirs[j].inv()
        return "*".join(reversed(letters))

    return {t: word(y) for t, y in found.items()}, len(visited), reached


def _assert_matches_reference(gens, result, max_len, bound, same_words=True):
    """Traces, states and depth equal the reference's, and every witness
    replays to its trace with the reference's (shortest) length.  Words are
    equal too when the encoding sorts states in MoebiusElement key order."""
    traces, states, reached = _reference_enumerate(gens, max_len, bound)
    assert result.states_explored == states
    assert result.max_len_reached == reached
    assert set(result.traces) == set(traces)
    for t, word in result.traces.items():
        assert _word_trace(gens, word) == t
        assert word.count("*") == traces[t].count("*")
    if same_words:
        assert result.traces == traces


def _spy_levels(monkeypatch):
    """Record (kind, codec type) of every level the driver runs past int64:
    "two-limb" numpy levels and "python" levels."""
    seen = []
    np_level, py_level = _Search._np_level, _Search._py_level

    def np_spy(self, frontier, *args):
        if frontier.shape[1] != self.width:
            seen.append(("two-limb", type(self.codec)))
        return np_level(self, frontier, *args)

    def py_spy(self, *args):
        seen.append(("python", type(self.codec)))
        return py_level(self, *args)

    monkeypatch.setattr(_Search, "_np_level", np_spy)
    monkeypatch.setattr(_Search, "_py_level", py_spy)
    return seen


def _assert_normalizer_kernel_matches_generic(gens, p, max_len, bound):
    codec = _make_codec(gens, Fraction(bound))
    assert isinstance(codec, _IntCodec) and codec.p == p
    fast = enumerate_traces(gens, max_len, bound)
    slow = _exact_result(gens, max_len, bound)
    assert set(fast.traces) == set(slow.traces)
    assert fast.states_explored == slow.states_explored
    assert fast.max_len_reached == slow.max_len_reached
    for result in (fast, slow):
        for t, word in result.traces.items():
            assert _word_trace(gens, word) == t


def test_normalizer_kernel_matches_generic_w1():
    from fordlab.constructions import sqrt_p_generators
    w1_gens = sqrt_p_generators(2)[1]
    _assert_normalizer_kernel_matches_generic(w1_gens, 2, 6, 15)
    _assert_matches_reference(w1_gens, enumerate_traces(w1_gens, 6, 15), 6, 15,
                              same_words=False)


def test_normalizer_kernel_matches_generic_past_int64(monkeypatch):
    # level 4 of the p = 7 cross-check leaves int64 and divides limb columns
    from fordlab.constructions import build
    seen = _spy_levels(monkeypatch)
    gens = build("normalizer", 7).combined_gens
    _assert_normalizer_kernel_matches_generic(gens, 7, 4, 27)
    assert ("two-limb", _IntCodec) in seen
    assert ("python", _IntCodec) not in seen


def _scaled(p, a, b, c, d):
    return MoebiusElement(*(QuadValue(0, Fraction(x, p), p) for x in (a, b, c, d)))


@pytest.mark.parametrize("gens", [
    # conjugated into a sqrt(5) representation: one non-integer rational matrix
    [_scaled(5, 0, -1, 5, 0) * g * _scaled(5, 0, -1, 5, 0).inv() for g in (S, T5)],
    # an integer generator outside Gamma0(5)
    [_scaled(5, 0, -1, 5, 0), S],
    # a scaled generator of determinant p but not of Atkin-Lehner shape
    [_scaled(5, 1, 1, -1, 4), T5],
], ids=["conjugated", "not_gamma0", "not_atkin_lehner"])
def test_unproven_real_quadratic_sets_use_generic_kernel(gens):
    assert isinstance(_make_codec(gens, Fraction(30)), _ExactCodec)


def test_generators_over_two_rings_raise_mixed_radicand():
    # no product of entries from two quadratic rings exists, so the search
    # refuses such a set at every word length, the first included
    pairs = [
        ([MoebiusElement(bianchi_omega(1), -1, 1, 0),
          MoebiusElement(bianchi_omega(3), -1, 1, 0)], r"sqrt\(-3\) and sqrt\(-1\)"),
        ([MoebiusElement(1, QuadValue(0, 1, 2), 0, 1),
          MoebiusElement(1, 0, QuadValue(0, 1, 3), 1)], r"sqrt\(2\) and sqrt\(3\)"),
    ]
    for gens, rings in pairs:
        with pytest.raises(MixedRadicand, match=rings):
            _make_codec(gens, Fraction(20))
        for max_len in (1, 2):
            with pytest.raises(MixedRadicand):
                enumerate_traces(gens, max_len, 20)


def test_pair_kernel_matches_generic_small():
    for d in (1, 2, 3, 7):
        om = bianchi_omega(d)
        gens = [MoebiusElement(om, -1, 1, 0), from_ints(1, 3, 0, 1)]
        assert isinstance(_make_codec(gens, Fraction(20)), _PairCodec)
        fast = enumerate_traces(gens, 5, 20)
        # ring coordinates (u - v, 2v) sort apart from the key order when
        # d = 3 mod 4, so there only the word lengths must agree
        _assert_matches_reference(gens, fast, 5, 20, same_words=d % 4 != 3)
        assert QuadValue(2) in fast.traces
        assert om in fast.traces or (-om) in fast.traces


def test_pair_kernel_matches_reference_past_int64(monkeypatch):
    # level 2 still fits int64; the guard moves levels 3 and 4 onto two limbs
    seen = _spy_levels(monkeypatch)
    om = bianchi_omega(1)
    gens = [MoebiusElement(om, -1, 1, 0), from_ints(1, 0, 1 << 29, 1),
            MoebiusElement(1, om * (1 << 10), 0, 1)]
    _assert_matches_reference(gens, enumerate_traces(gens, 4, 20), 4, 20)
    assert seen == [("two-limb", _PairCodec)] * 2


@pytest.mark.parametrize("big, kinds", [
    # level 3 runs on two limbs, level 4 passes the two-limb guard
    (from_ints(1, 1 << 29, 0, 1), ["two-limb", "python"]),
    # an entry of 2**31 may not multiply limbs: int64 straight to Python ints
    (from_ints(1 << 31, (1 << 31) - 1, 1, 1), ["python"] * 3),
], ids=["past_two_limbs", "entry_2_31"])
def test_pair_kernel_matches_reference_past_two_limbs(monkeypatch, big, kinds):
    seen = _spy_levels(monkeypatch)
    om = bianchi_omega(1)
    gens = [MoebiusElement(om, -1, 1, 0), from_ints(1, 0, 1 << 29, 1), big]
    _assert_matches_reference(gens, enumerate_traces(gens, 4, 20), 4, 20)
    assert seen == [(kind, _PairCodec) for kind in kinds]


def test_two_limb_levels_keep_traces_past_int64(monkeypatch):
    # at a bound of 2**200 the bound test on two-limb rows must pass traces
    # above 2**63: levels 3 and 4 run on two limbs
    seen = _spy_levels(monkeypatch)
    gens = [from_ints(1, 1 << 21, 0, 1), from_ints(1, 0, 1 << 21, 1)]
    result = enumerate_traces(gens, 5, 1 << 200)
    _assert_matches_reference(gens, result, 5, 1 << 200)
    assert seen == [("two-limb", _IntCodec)] * 2 + [("python", _IntCodec)]
    assert any(abs(t.a) >= 1 << 63 for t in result.traces)


@pytest.mark.parametrize("form_max, kinds", [
    ((1 << 32) - 1, ["two-limb"] * 2),
    (1 << 32, ["python"] * 2),
], ids=["below_2_32", "at_2_32"])
def test_two_limb_guard_bounds_coefficient_sums(monkeypatch, form_max, kinds):
    # levels 3 and 4 run on two limbs while K, the largest coefficient sum
    # of a direction's matrix, is below 2**32, and on Python ints from there
    gens = [from_ints(1, 1 << 21, 0, 1), from_ints(1, 0, 1 << 21, 1)]
    bound = Fraction(1 << 200)
    plain = enumerate_traces(gens, 4, bound)
    seen = _spy_levels(monkeypatch)
    search = _Search(_make_codec(gens, bound), gens, DEFAULT_STATE_CAP)
    assert search.form_max == (1 << 21) + 1
    search.form_max = form_max
    search.run(4)
    result = search.result()
    assert seen == [(kind, _IntCodec) for kind in kinds]
    assert result.traces == plain.traces
    assert result.states_explored == plain.states_explored


def test_bianchi_19_cross_check_has_one_two_limb_level(monkeypatch):
    # the 15-generator cross-check of bianchi:19 at (4, 40): level 4 runs
    # on two limbs, entries up to 141,023
    from fordlab.constructions import CROSS_CHECK_LEN, build
    seen = _spy_levels(monkeypatch)
    result = enumerate_traces(build("bianchi", 19).combined_gens,
                              CROSS_CHECK_LEN, 40)
    assert CROSS_CHECK_LEN == 4
    assert seen == [("two-limb", _PairCodec)]
    assert result.states_explored == 607_782


def test_bianchi_3_cross_check_stays_on_int64(monkeypatch):
    # the per-column bound of bianchi:3's level 4 is about 1.7e18 < 2**61,
    # where 2*F*G*growth would be about 1.4e19
    from fordlab.constructions import CROSS_CHECK_LEN, build
    seen = _spy_levels(monkeypatch)
    result = enumerate_traces(build("bianchi", 3).combined_gens,
                              CROSS_CHECK_LEN, 40)
    assert seen == []
    assert result.states_explored == 607_782


@pytest.mark.parametrize("b, kind", [
    ((1 << 60) - 1, "int64"),
    (1 << 60, "two-limb"),
], ids=["below_2_61", "at_2_61"])
def test_int64_guard_is_the_per_column_bound(b, kind):
    # x*T and x*T^-1 have coordinate b +- a, and no form of these
    # directions has a larger sum of |c_k| * F_k than |a| + |b|, so
    # T = 2**60 + b: int64 while T < 2**61, with exact products up to there
    gens = [from_ints(1, 1, 0, 1)]
    search = _Search(_make_codec(gens, Fraction(10)), gens, DEFAULT_STATE_CAP)
    rows = [(1 << 60, b, 0, 1), (-(1 << 60), -b, 0, 1)]
    frontier = np.array(rows, dtype=np.int64)
    assert search._kind("int64", frontier) == kind
    if kind == "two-limb":
        frontier = _widen(frontier)
    older = frontier[:0]
    got, hashes, _, new = search._np_level(
        frontier, np.array([-1, -1], np.int16), older,
        [_row_hash(older.T), _row_hash(frontier.T)])
    want = sorted({search.codec.mul(r, g) for r in rows for g in search.dirs})
    # level rows are in generation order
    assert sorted(_py_rows(got, 4)) == want and new == len(want)
    # each new row keeps its own hash
    assert hashes.tolist() == _row_hash(got.T).tolist()


def test_guard_runs_with_no_directions():
    # the identity alone leaves no direction, so no form bounds a product
    search = _Search(_make_codec([identity()], Fraction(10)), [identity()],
                     DEFAULT_STATE_CAP)
    assert search.dirs == [] and search._kind("int64", np.eye(2, 4, dtype=np.int64)) == "int64"
    result = enumerate_traces([identity()], 3, 10)
    assert (result.traces, result.states_explored) == ({}, 1)
    _assert_matches_reference([identity()], result, 3, 10)


def _sl2z(word):
    g = identity()
    for kind, n in word:
        g = g * {"T": from_ints(1, n, 0, 1), "L": from_ints(1, 0, n, 1),
                 "S": S}[kind]
    return g


# entries up to 2**40 leave int64 at level 2 or 3, small ones stay on numpy
_SL2Z = st.lists(st.tuples(st.sampled_from("TLS"),
                           st.integers(-4, 4) | st.integers(-(1 << 40), 1 << 40)),
                 min_size=1, max_size=3).map(_sl2z)


@settings(max_examples=40, deadline=None)
@given(gens=st.lists(_SL2Z, min_size=1, max_size=3),
       max_len=st.integers(1, 4), bound=st.integers(0, 40))
def test_driver_matches_reference_on_random_sl2z(gens, max_len, bound):
    assert isinstance(_make_codec(gens, Fraction(bound)), _IntCodec)
    _assert_matches_reference(gens, enumerate_traces(gens, max_len, bound),
                              max_len, bound)
    _assert_matches_reference(gens, _exact_result(gens, max_len, bound),
                              max_len, bound)


def _bianchi_gen(d, word):
    om = bianchi_omega(d)
    g = identity()
    for kind, u, v in word:
        x = om * v + u
        g = g * {"T": MoebiusElement(1, x, 0, 1), "L": MoebiusElement(1, 0, x, 1),
                 "S": S}[kind]
    return g


# small entries stay on int64; single letters with entries of 2**20 to
# 2**29 leave int64 for two limbs after a level or two
_SMALL = st.integers(-3, 3)
_BIG = st.integers(1 << 20, (1 << 29) - 1) | st.integers(-(1 << 29) + 1, -(1 << 20))
_LETTER = st.tuples(st.sampled_from("TLS"), _SMALL, _SMALL)
_BIANCHI_WORD = (st.lists(_LETTER, min_size=1, max_size=3)
                 | st.tuples(st.sampled_from("TL"), _BIG | _SMALL, _BIG).map(
                     lambda letter: [letter]))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 7, 19]),
       words=st.lists(_BIANCHI_WORD, min_size=1, max_size=3),
       max_len=st.sampled_from([4, 3, 2]), bound=st.integers(0, 40))
@example(d=3, words=[[("S", 0, 0), ("T", 0, 1)], [("L", 0, 1 << 28)]],
         max_len=4, bound=20)
@example(d=19, words=[[("T", 0, 1)], [("L", 5, (1 << 29) - 1)]], max_len=4,
         bound=40)
def test_pair_kernel_matches_reference_on_random_bianchi(d, words, max_len,
                                                        bound):
    gens = [_bianchi_gen(d, word) for word in words]
    assume(isinstance(_make_codec(gens, Fraction(bound)), _PairCodec))
    _assert_matches_reference(gens, enumerate_traces(gens, max_len, bound),
                              max_len, bound, same_words=d % 4 != 3)


def _assert_collisions_change_nothing(gens, max_len, bound, low_bits,
                                      same_words=True):
    """A run whose row hash keeps only the low bits of the first column (0
    bits: every row collides; None: the row hash itself) equals the plain
    run and the reference, and each numpy level hashed exactly the
    candidates that the skip table leaves.  Returns the row widths that the
    hash saw, and the widths of the levels at max_len whose exact compares
    rebuilt candidate rows from their links."""
    plain = enumerate_traces(gens, max_len, bound)
    widths, sizes, levels, rebuilt = [], [], [], set()
    row_hash, np_level, gather = _bfs._row_hash, _Search._np_level, _Search._gather

    def degenerate(cols):
        widths.append(len(cols))
        sizes.append(len(cols[0]))
        if low_bits is None:
            return row_hash(cols)
        return cols[0].view(np.uint64) & np.uint64((1 << low_bits) - 1)

    def spy(self, frontier, last, *args):
        before = len(sizes)
        out = np_level(self, frontier, last, *args)
        # direction j multiplies the frontier rows it does not skip
        candidates = sum(np.count_nonzero(~self.skip[j][last])
                         for j in range(len(self.dirs)))
        levels.append((candidates, sum(sizes[before:])))
        return out

    def gather_spy(self, pos, starts, sources, frontier, *args):
        # the candidates follow the two old levels
        if len(self.links) == max_len and (pos >= starts[2]).any():
            rebuilt.add(frontier.shape[1])
        return gather(self, pos, starts, sources, frontier, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_bfs, "_row_hash", degenerate)
        mp.setattr(_Search, "_np_level", spy)
        mp.setattr(_Search, "_gather", gather_spy)
        forced = enumerate_traces(gens, max_len, bound)
    assert all(candidates == hashed for candidates, hashed in levels)
    assert forced.traces == plain.traces
    assert forced.states_explored == plain.states_explored
    assert forced.max_len_reached == plain.max_len_reached
    _assert_matches_reference(gens, forced, max_len, bound, same_words)
    return set(widths), rebuilt


@settings(max_examples=30, deadline=None)
@given(gens=st.lists(_SL2Z, min_size=1, max_size=3),
       max_len=st.integers(1, 4), bound=st.integers(0, 40),
       low_bits=st.sampled_from([0, 2]))
def test_final_level_count_survives_hash_collisions_sl2z(gens, max_len, bound,
                                                         low_bits):
    _assert_collisions_change_nothing(gens, max_len, bound, low_bits)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 7, 19]),
       words=st.lists(_BIANCHI_WORD, min_size=1, max_size=3),
       max_len=st.sampled_from([4, 3, 2]), bound=st.integers(0, 40),
       low_bits=st.sampled_from([0, 2]))
def test_final_level_count_survives_hash_collisions_bianchi(d, words, max_len,
                                                            bound, low_bits):
    gens = [_bianchi_gen(d, word) for word in words]
    assume(isinstance(_make_codec(gens, Fraction(bound)), _PairCodec))
    _assert_collisions_change_nothing(gens, max_len, bound, low_bits,
                                      same_words=d % 4 != 3)


# T^3 and T^(3*omega) commute; gamma_omega = [[omega, -1], [1, 0]] and
# L^(2**29) give relations besides, and a final level on two limbs
_COMMUTING_TWO_LIMB = [from_ints(1, 3, 0, 1),
                       MoebiusElement(1, bianchi_omega(1) * 3, 0, 1),
                       MoebiusElement(bianchi_omega(1), -1, 1, 0),
                       from_ints(1, 0, 1 << 29, 1)]

# generator sets whose final level runs on int64 rows and on two-limb rows:
# the final row width, in int64 columns, for each
_FINAL_LEVELS = [
    ([from_ints(1, -1, 1, 0), T5], 6, 4),
    ([from_ints(1, 1 << 20, 0, 1), from_ints(1, 0, 1 << 20, 1)], 4, 8),
    ([MoebiusElement(bianchi_omega(3), -1, 1, 0), from_ints(1, 3, 0, 1)], 4, 8),
    ([MoebiusElement(bianchi_omega(1), -1, 1, 0), from_ints(1, 0, 1 << 29, 1),
      MoebiusElement(1, bianchi_omega(1) * (1 << 29), 0, 1)], 3, 16),
    (_COMMUTING_TWO_LIMB, 4, 16),
]
_FINAL_IDS = ["sl2z-int64", "sl2z-two-limb", "bianchi-int64",
              "bianchi-two-limb", "bianchi-commuting-two-limb"]


@pytest.mark.parametrize("gens, max_len, width", _FINAL_LEVELS, ids=_FINAL_IDS)
@pytest.mark.parametrize("low_bits", [0, 2])
def test_forced_collisions_on_both_final_level_kinds(gens, max_len, width,
                                                     low_bits):
    # every final candidate shares its hash with another: the compares
    # rebuild rows of the final width from their links
    widths, rebuilt = _assert_collisions_change_nothing(
        gens, max_len, 20, low_bits, same_words=False)
    assert max(widths) == width
    assert rebuilt == {width}


def test_final_two_limb_level_rebuilds_repeated_rows():
    # with the row hash itself, the 37 repeated rows among the 2,151
    # candidates of the final level are rebuilt on two limbs
    widths, rebuilt = _assert_collisions_change_nothing(
        _COMMUTING_TWO_LIMB, 4, 20, None, same_words=False)
    assert max(widths) == 16 and rebuilt == {16}


@pytest.mark.parametrize("gens, max_len, width", _FINAL_LEVELS, ids=_FINAL_IDS)
def test_state_cap_boundary_on_final_level(monkeypatch, gens, max_len, width):
    widths = []
    row_hash = _bfs._row_hash
    monkeypatch.setattr(_bfs, "_row_hash",
                        lambda cols: widths.append(len(cols))
                        or row_hash(cols))
    total = enumerate_traces(gens, max_len, 20).states_explored
    assert widths[-1] == width
    # the final level adds at least two states, so a cap of total - 1
    # is first exceeded there
    assert enumerate_traces(gens, max_len - 1, 20).states_explored < total - 1
    capped = enumerate_traces(gens, max_len, 20, state_cap=total)
    assert (capped.states_explored, capped.max_len_reached) == (total, max_len)
    with pytest.raises(StateExplosion, match=f"state count {total} exceeds"):
        enumerate_traces(gens, max_len, 20, state_cap=total - 1)


def _commuting_marks(search):
    """The (j, l) marked in the skip table for commuting, not for inverse
    directions."""
    mul, ident = search.codec.mul, search.codec.ident
    return [(j, l) for j, l in zip(*np.nonzero(search.skip))
            if mul(search.dirs[l], search.dirs[j]) != ident]


# g with a power of g in SL2(Z), and maybe one more generator
_COMMUTING_SL2Z = st.tuples(_SL2Z, st.integers(2, 3),
                            st.lists(_SL2Z, max_size=1)).map(
    lambda t: [t[0], t[0] ** t[1]] + t[2])
_NONZERO = st.integers(-3, 3).filter(bool)


def _commuting_bianchi(d, a, b, u, v):
    """T^a and T^(b*omega) with gamma_x = [[x, -1], [1, 0]], x = u + v*omega,
    over the integers of Q(sqrt(-d))."""
    om = bianchi_omega(d)
    return [MoebiusElement(1, a, 0, 1), MoebiusElement(1, om * b, 0, 1),
            MoebiusElement(om * v + u, -1, 1, 0)]


def _direction_elements(search, gens):
    # each direction's MoebiusElement, read from its label
    out = []
    for label in search.labels:
        g = gens[int(label[1:].split("^")[0])]
        out.append(g.inv() if label.endswith("^-1") else g)
    return out


@settings(max_examples=60, deadline=None)
@given(gens=_COMMUTING_SL2Z | st.builds(
    _commuting_bianchi, st.sampled_from([1, 2, 3, 7, 19]), _NONZERO,
    _NONZERO, _SMALL, _SMALL))
@example(gens=_commuting_bianchi(1, 3, 3, 0, 1))
def test_skip_table_marks_inverses_and_earlier_commuting_directions(gens):
    """skip[j][l] holds exactly where g_l is the inverse of g_j, or l < j
    and g_l commutes with g_j, by MoebiusElement products; the identity's
    column marks nothing."""
    search = _Search(_make_codec(gens, Fraction(20)), gens, DEFAULT_STATE_CAP)
    elems = _direction_elements(search, gens)
    k = len(elems)
    want = [[(elems[l] * elems[j]).is_identity()
             or (l < j and elems[l] * elems[j] == elems[j] * elems[l])
             for l in range(k)] + [False] for j in range(k)]
    assert search.skip.shape == (k, k + 1)
    assert search.skip.tolist() == want


def test_skip_table_of_commuting_translations():
    # directions T^3, T^-3, T^(3w), T^(-3w), gamma_w, gamma_w^-1; column 6
    # stands for the identity
    gens = _commuting_bianchi(1, 3, 3, 0, 1)
    search = _Search(_make_codec(gens, Fraction(20)), gens, DEFAULT_STATE_CAP)
    assert search.labels == ["g0", "g0^-1", "g1", "g1^-1", "g2", "g2^-1"]
    assert search.skip.astype(int).tolist() == [
        [0, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 0, 0]]


@settings(max_examples=40, deadline=None)
@given(gens=_COMMUTING_SL2Z | st.builds(
    _commuting_bianchi, st.sampled_from([1, 2, 3, 7, 19]), _NONZERO,
    _NONZERO, _SMALL, _SMALL),
       max_len=st.integers(2, 4), bound=st.integers(0, 40),
       low_bits=st.sampled_from([None, 0, 2]))
@example(gens=_commuting_bianchi(1, 3, 3, 0, 1), max_len=4, bound=40,
         low_bits=None)
def test_skipping_commuting_directions_changes_nothing(gens, max_len, bound,
                                                       low_bits):
    """Traces, witness words and state counts equal the reference's, which
    skips no candidate, with the row hash and with degenerate ones."""
    codec = _make_codec(gens, Fraction(bound))
    assume(_commuting_marks(_Search(codec, gens, DEFAULT_STATE_CAP)))
    _assert_collisions_change_nothing(
        gens, max_len, bound, low_bits,
        same_words=not (isinstance(codec, _PairCodec) and codec.d % 4 == 3))


def test_exact_codec_caps_squared_modulus_for_imaginary_entries():
    om = bianchi_omega(3)
    gens = [MoebiusElement(om, -1, 1, 0), from_ints(1, 3, 0, 1)]
    assert isinstance(_make_codec(gens, Fraction(20)), _PairCodec)
    pair = enumerate_traces(gens, 5, 20)
    assert len(pair.traces) == 7
    # conjugated by diag(2, 1/2): entries leave the ring, the exact codec runs
    h = MoebiusElement(2, 0, 0, Fraction(1, 2))
    conj = [h * g * h.inv() for g in gens]
    assert isinstance(_make_codec(conj, Fraction(20)), _ExactCodec)
    exact = enumerate_traces(conj, 5, 20)
    assert set(exact.traces) == set(pair.traces)
    _assert_matches_reference(conj, exact, 5, 20)


_LIMB_EDGES = [0, 1, -1, (1 << 31) - 1, 1 << 31, -(1 << 31), 1 << 62,
               -(1 << 62), (1 << 61) + 1, (1 << 61) - 1, -(1 << 61) + 1,
               -(1 << 61) - 1]
_LIMB_INTS = st.sampled_from(_LIMB_EDGES) | st.integers(-(1 << 62), 1 << 62)
_FACTORS = st.integers(-(1 << 30) + 1, (1 << 30) - 1)
_DIVISORS = st.integers(1, (1 << 30) - 1)


def _limbs(xs):
    return _columns(_widen(np.array(xs, dtype=np.int64)[:, None]), 1)[0]


def _values(col):
    """The integers of a limb column, which must be normalized."""
    hi, lo = np.broadcast_arrays(col.hi, col.lo)
    assert ((0 <= lo) & (lo < 1 << 31)).all()
    return [h * (1 << 31) + x for h, x in zip(hi.tolist(), lo.tolist())]


def _sgn(a):
    return (a > 0) - (a < 0)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_LIMB_INTS, _LIMB_INTS,
                               st.sampled_from([-1, 0, 1]), _DIVISORS),
                     min_size=1, max_size=6),
       k=_FACTORS, q=_DIVISORS)
def test_limb_columns_match_python_ints(rows, k, q):
    xs, ys, signs, qs = map(list, zip(*rows))
    x, y = _limbs(xs), _limbs(ys)
    # linear forms: x + y, x - y, -x, k*x, k*y, k*x - y, and an empty form
    form = [(1, 1), (1, -1), (-1, 0), (k, 0), (0, k), (k, -1), (0, 0)]
    for col, (a, b) in zip(_linear([x, y], form), form):
        assert _values(col) == [a * u + b * v for u, v in zip(xs, ys)]
    assert _values(_linear([x], [(k,)])[0] // q) == [a * k // q for a in xs]
    assert _values(_linear([x], [(q,)])[0] // q) == xs
    assert _values(x // np.array(qs)) == [a // b for a, b in zip(xs, qs)]
    assert x.sign().tolist() == [_sgn(a) for a in xs]
    assert (x <= np.array(ys)).tolist() == [a <= b for a, b in zip(xs, ys)]
    assert (x <= abs(k)).tolist() == [a <= abs(k) for a in xs]
    assert _within(x, abs(k)).tolist() == [abs(a) <= abs(k) for a in xs]
    # x times the sign of the first nonzero of (s, y), in place
    col, _, _ = _make_positive([x, _limbs(signs), y], lambda c: iter(c[1:]))
    assert _values(col) == [a * (s or _sgn(b)) for a, s, b in
                            zip(xs, signs, ys)]


# the integer codecs: plain, with the exact division by p = 7, and the
# rings of integers for d = 1, 2, 3 and 19
_NP_MUL_CODECS = [_IntCodec(Fraction(10)), _IntCodec(Fraction(10), 7)] + [
    _PairCodec(d, Fraction(10)) for d in (1, 2, 3, 19)]
_LIMB = 1 << 31


@settings(max_examples=300, deadline=None)
@given(codec=st.sampled_from(_NP_MUL_CODECS), data=st.data())
def test_np_mul_on_two_limbs_matches_mul(codec, data):
    """np_mul on two-limb columns equals mul on Python ints, canonical sign
    included, for every row the two-limb guard admits."""
    width = len(codec.ident)
    scaled = width == 5          # (a, b, c, d) and a scale bit e
    size = 4 if scaled else width
    # entries below 2**27 keep every coefficient sum below 2**32
    bits = data.draw(st.integers(0, 27))
    gen = tuple(data.draw(st.lists(st.integers(-(1 << bits), 1 << bits),
                                   min_size=size, max_size=size)))
    scale = st.integers(0, 1)
    gen += (data.draw(scale),) * scaled
    # gen's matrix as _Search derives it: x*gen on the unit rows x
    form = list(zip(*(codec._product(unit, gen)
                      for unit in np.eye(width, dtype=int).tolist())))
    form_max = max(sum(map(abs, coefs)) for coefs in form)
    assert form_max < 1 << 32
    # the largest F with T = F*K < 2**91 for coordinates up to F, K the
    # largest coefficient sum, as _Search._kind allows
    top = ((1 << 91) - 1) // max(1, form_max)
    h = top // _LIMB
    coord = (st.sampled_from([0, 1, -1, top, -top])
             | st.integers(-top, top)
             # lo limbs of 0 and 2**31 - 1
             | st.builds(lambda hi, lo: hi * _LIMB + lo,
                         st.integers(-h, h - 1),
                         st.sampled_from([0, _LIMB - 1])))
    rows = data.draw(st.lists(
        st.tuples(*[coord] * size, *[scale] * scaled), min_size=1, max_size=6))
    limbs = np.array([[half for v in row for half in (v >> 31, v % _LIMB)]
                      for row in rows], dtype=np.int64)
    out = np.stack(_flat(codec.np_mul(_columns(limbs, width), gen, form)),
                   axis=1)
    assert ((0 <= out[:, 1::2]) & (out[:, 1::2] < _LIMB)).all()
    assert _py_rows(out, width) == [codec.mul(row, gen) for row in rows]


@settings(max_examples=200, deadline=None)
@given(codec=st.sampled_from(_NP_MUL_CODECS), wide=st.booleans(),
       data=st.data())
def test_record_on_numpy_rows_matches_python_rows(codec, wide, data):
    """On numpy rows, in any order, trace_key runs on the least row of each
    distinct tuple of trace columns only; every trace keeps the least row
    with its key as the witness row, as on sorted Python-int rows.  Traces
    t and -t share a key, so row order, not trace-column order, must
    decide."""
    width = len(codec.ident)
    coord = st.integers(-12, 12)
    row = st.tuples(*[coord] * width)
    if width == 5:
        # a scaled state has Atkin-Lehner shape [[p*a, b], [p*c, p*d]]
        row = st.tuples(*[coord] * 4, st.booleans()).map(
            lambda r: (r[:4] + (0,) if not r[4] else
                       (7 * r[0], r[1], 7 * r[2], 7 * r[3], 1)))
    rows = data.draw(st.lists(row, min_size=1, max_size=40))
    searches = [_Search(codec, [], DEFAULT_STATE_CAP) for _ in range(2)]
    array = np.array(rows, dtype=np.int64)
    searches[0]._record(_widen(array) if wide else array, 3)
    # Python levels are sorted lists
    searches[1]._record(sorted(rows), 3)
    # the traces name their witness rows by index into each level
    got, want = ({key: (level, level_rows[i])
                  for key, (level, i) in search.traces.items()}
                 for search, level_rows in zip(searches, (rows, sorted(rows))))
    assert got == want


_TOP = (1 << 61) - 1      # the largest entry an int64 level may hold
_DEDUP_INTS = (st.sampled_from([0, 1, -1, _TOP, -_TOP, 1 << 31, -(1 << 31)])
               | st.integers(-_TOP, _TOP))
# n = 2**k and 2**k + 1 on both sides of a change of ceil(log2 n)
_DEDUP_SIZES = [1, 2, 3, 4, 5, 8, 9, 255, 256, 257, 1024, 1025]


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.lists(_DEDUP_INTS, min_size=4, max_size=4),
                     min_size=1, max_size=6),
       width=st.integers(1, 4), n=st.sampled_from(_DEDUP_SIZES),
       seed=st.integers(0, 2**32 - 1), distinct=st.booleans(),
       constant=st.lists(st.booleans(), min_size=4, max_size=4),
       wide=st.booleans(), hash_bits=st.sampled_from([None, 0, 2]),
       fortran=st.booleans())
@example(pool=[[5, 6, 7, 8]], width=4, n=1, seed=0, distinct=False,
         constant=[False] * 4, wide=False, hash_bits=None, fortran=False)
# two rows of 62-bit entries that differ in every column, one hash
@example(pool=[[_TOP, -_TOP, 0, 0], [-_TOP, _TOP, 0, 0]], width=2, n=2,
         seed=0, distinct=False, constant=[False] * 4, wide=False,
         hash_bits=0, fortran=True)
def test_first_rows_marks_first_occurrences(pool, width, n, seed, distinct,
                                            constant, wide, hash_bits,
                                            fortran):
    """_first_rows equals a Python first-occurrence dict, with the row hash
    or with degenerate hashes (all equal, or 2 low bits of the first
    column) that put different rows in one run."""
    rng = np.random.default_rng(seed)
    pool = np.array(pool, dtype=np.int64)[:, :width]
    if distinct:
        rows = rng.integers(pool.min(axis=0), pool.max(axis=0),
                            size=(n, width), endpoint=True)
    else:
        # mostly duplicates: n rows drawn from at most six
        rows = pool[rng.integers(0, len(pool), size=n)]
    for i in range(width):
        if constant[i]:
            rows[:, i] = pool[0, i]       # a zero-span column
    if wide:
        rows = _widen(rows)
    rows = np.asfortranarray(rows) if fortran else np.ascontiguousarray(rows)
    if hash_bits is None:
        hashes = _row_hash(rows.T)
    else:
        hashes = rows[:, 0].view(np.uint64) & np.uint64((1 << hash_bits) - 1)
    first = {}
    want = [first.setdefault(row, i) == i
            for i, row in enumerate(map(tuple, rows.tolist()))]
    assert _first_rows(hashes, lambda pos: rows[pos].T).tolist() == want


def _permute_levels(monkeypatch, seed):
    """Make the driver permute the rows of each numpy level, with their
    hashes and links, before the level becomes the frontier."""
    rng = np.random.default_rng(seed)
    np_level = _Search._np_level

    def permuted(self, *args):
        rows, hashes, (dirs, parents), new = np_level(self, *args)
        perm = rng.permutation(len(rows))
        return rows[perm], hashes[perm], (dirs[perm], parents[perm]), new

    monkeypatch.setattr(_Search, "_np_level", permuted)


def _normalizer_7():
    from fordlab.constructions import build
    return build("normalizer", 7).subgroups[0].gens


# (generators, max_len, bound): SL2(Z), Bianchi d = 1 and 3, the normalizer
# p = 7, and a set whose levels go int64 -> two-limb -> Python ints
_ORDER_FREE = [
    ([from_ints(1, -1, 1, 0), T5], 8, 40),
    ([MoebiusElement(bianchi_omega(1), -1, 1, 0), from_ints(1, 3, 0, 1),
      MoebiusElement(1, bianchi_omega(1) * 3, 0, 1)], 5, 20),
    ([MoebiusElement(bianchi_omega(3), -1, 1, 0), from_ints(1, 3, 0, 1),
      MoebiusElement(1, bianchi_omega(3) * 3, 0, 1)], 5, 20),
    (_normalizer_7, 8, 27),
    ([from_ints(1, 1 << 21, 0, 1), from_ints(1, 0, 1 << 21, 1)], 5, 1 << 200),
]
_ORDER_FREE_IDS = ["sl2z", "bianchi-1", "bianchi-3", "normalizer-7",
                   "int64-two-limb-python"]


@pytest.mark.parametrize("gens, max_len, bound", _ORDER_FREE,
                         ids=_ORDER_FREE_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_numpy_level_order_changes_nothing(monkeypatch, gens, max_len, bound,
                                           seed):
    gens = gens() if callable(gens) else gens
    plain = enumerate_traces(gens, max_len, bound)
    _permute_levels(monkeypatch, seed)
    seen = _spy_levels(monkeypatch)
    permuted = enumerate_traces(gens, max_len, bound)
    assert permuted.traces == plain.traces
    assert permuted.states_explored == plain.states_explored
    assert permuted.max_len_reached == plain.max_len_reached
    if bound == 1 << 200:
        assert seen == [("two-limb", _IntCodec)] * 2 + [("python", _IntCodec)]


def _spy_links(monkeypatch):
    """Record every level the driver makes: (search, the level before, the
    level, its links), each level as a list of states."""
    seen = []
    np_level, py_level = _Search._np_level, _Search._py_level

    def np_spy(self, frontier, *args):
        rows, hashes, links, new = np_level(self, frontier, *args)
        seen.append((self, _py_rows(frontier, self.width),
                     _py_rows(rows, self.width), links))
        return rows, hashes, links, new

    def py_spy(self, frontier, *args):
        rows, links = py_level(self, frontier, *args)
        seen.append((self, frontier, rows, links))
        return rows, links

    monkeypatch.setattr(_Search, "_np_level", np_spy)
    monkeypatch.setattr(_Search, "_py_level", py_spy)
    return seen


@pytest.mark.parametrize("gens, max_len, bound", _ORDER_FREE + [
    # conjugated by diag(2, 1/2): the exact codec
    ([MoebiusElement(2, 0, 0, Fraction(1, 2)) * g
      * MoebiusElement(2, 0, 0, Fraction(1, 2)).inv()
      for g in (MoebiusElement(bianchi_omega(3), -1, 1, 0),
                from_ints(1, 3, 0, 1))], 4, 20),
], ids=_ORDER_FREE_IDS + ["exact"])
def test_links_replay(monkeypatch, gens, max_len, bound):
    """Each state is its parent times its direction, and that direction is
    the first whose inverse step lands in the level before."""
    gens = gens() if callable(gens) else gens
    seen = _spy_links(monkeypatch)
    enumerate_traces(gens, max_len, bound)
    assert len(seen) == max_len
    for search, before, rows, (dirs, parents) in seen:
        mul, steps = search.codec.mul, search.dirs
        back = [next(h for h in steps if mul(g, h) == search.codec.ident)
                for g in steps]
        before_set = set(before)
        assert len(dirs) == len(parents) == len(rows)
        for row, j, x in zip(rows, dirs, parents):
            assert mul(before[x], steps[j]) == row
            assert next(k for k, g in enumerate(back)
                        if mul(row, g) in before_set) == j


def test_enumeration_peak_is_below_50_bytes_per_state():
    # the last level of gamma0:5's first subgroup at (60, 13) sets the peak;
    # it keeps only its hashes and in-bound rows besides the two old levels
    import tracemalloc
    from fordlab.constructions import build
    gens = build("gamma0", 5).subgroups[0].gens
    tracemalloc.start()
    try:
        result = enumerate_traces(gens, 13, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.states_explored == 3_188_645
    assert peak < 50 * result.states_explored


def test_state_cap_raises():
    with pytest.raises(StateExplosion):
        enumerate_traces([from_ints(1, -1, 1, 0), T5], 10, 10, state_cap=50)


def test_coverage_report():
    cov = coverage_report({QuadValue(0), QuadValue(2)},
                          {QuadValue(0), QuadValue(2)})
    assert cov.missing == () and cov.extra == ()


def test_coverage_direction_gamma0_6():
    from fordlab.constructions import build
    c = build("gamma0", 6)
    expected = expected_set(TraceSetModel("gamma0", 6), 30)
    got = set()
    for sub in c.subgroups:
        got |= set(enumerate_traces(sub.gens, 12, 30).traces)
    cov = coverage_report(expected, got)
    assert cov.missing == ()
    assert cov.extra == ()


def test_principal_traces_stay_in_class():
    # containment direction: traces of the level-n pair group are +-2 mod n^2
    for n in (3, 4, 5):
        gens = [from_ints(1, n, 0, 1), from_ints(1, 0, n, 1)]
        result = enumerate_traces(gens, 8, 200)
        for t in result.traces:
            k = int(t.a)
            assert (k - 2) % (n * n) == 0 or (k + 2) % (n * n) == 0


def test_unit_residue_symmetry():
    for n in range(1, 51):
        res = unit_residue_traces(n)
        assert res == {(n - r) % n for r in res}


def test_bianchi_coset_cover():
    from fordlab.constructions import build, coset_cover_check
    for d in (1, 2, 3, 5, 6, 7, 11, 15, 19):
        assert coset_cover_check(build("bianchi", d).subgroups).status == "pass"


@pytest.mark.parametrize("d", [1, 3, 19])
def test_bianchi_coset_cover_reads_the_subgroups(d):
    # without P[2+omega], +-(2+omega) leave two of the nine residues uncovered
    from fordlab.constructions import build, coset_cover_check
    check = coset_cover_check(build("bianchi", d).subgroups[:-1])
    assert check.status == "fail"
    assert len(check.witnesses["residues"]) == 7


def test_trace_to_length():
    assert abs(trace_to_length(QuadValue(3)) - 1.9248473002384139) < 1e-9
    with pytest.raises(NotHyperbolic):
        trace_to_length(QuadValue(2))
    with pytest.raises(NotHyperbolic):
        trace_to_length(QuadValue(0))
    with pytest.raises(NotHyperbolic):
        trace_to_length(QuadValue(0, 1, -1))
    # real quadratic hyperbolic trace works
    assert trace_to_length(QuadValue(0, 3, 5)) > 0
