from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fordlab import _bfs
from fordlab._bfs import (
    _columns,
    _ExactCodec,
    _IntCodec,
    _make_codec,
    _PairCodec,
    _row_order,
    _Search,
    _widen,
)
from fordlab.exactnum import QuadValue
from fordlab.moebius import MoebiusElement, bianchi_omega, from_ints, identity
from fordlab.tracesets import (
    DEFAULT_STATE_CAP,
    NotHyperbolic,
    StateExplosion,
    TraceSetModel,
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


def test_models_validate_parameters():
    with pytest.raises(ValueError):
        TraceSetModel("normalizer", 6)
    with pytest.raises(ValueError):
        TraceSetModel("bianchi", 12)
    with pytest.raises(ValueError):
        TraceSetModel("nonsense")


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


def test_two_imaginary_rings_use_exact_codec_with_modulus():
    gens = [MoebiusElement(bianchi_omega(1), -1, 1, 0),
            MoebiusElement(bianchi_omega(3), -1, 1, 0)]
    codec = _make_codec(gens, Fraction(20))
    assert isinstance(codec, _ExactCodec) and codec.modulus is True


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
            MoebiusElement(1, om, 0, 1)]
    _assert_matches_reference(gens, enumerate_traces(gens, 4, 20), 4, 20)
    assert seen == [("two-limb", _PairCodec)] * 2


@pytest.mark.parametrize("big, kinds", [
    # level 3 runs on two limbs, level 4 passes the two-limb guard
    (from_ints(1, 1 << 29, 0, 1), ["two-limb", "python"]),
    # an entry of 2**31 may not multiply limbs: int64 straight to Python ints
    (from_ints(1, 0, 1 << 31, 1), ["python"] * 3),
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
    gens = [from_ints(1, 1 << 20, 0, 1), from_ints(1, 0, 1 << 20, 1)]
    result = enumerate_traces(gens, 5, 1 << 200)
    _assert_matches_reference(gens, result, 5, 1 << 200)
    assert seen == [("two-limb", _IntCodec)] * 2 + [("python", _IntCodec)]
    assert any(abs(t.a) >= 1 << 63 for t in result.traces)


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
    bits: every row collides) equals the plain run and the reference.
    Returns the row widths that the degenerate hash saw."""
    plain = enumerate_traces(gens, max_len, bound)
    widths = set()

    def degenerate(rows):
        widths.add(rows.shape[1])
        return rows[:, 0].view(np.uint64) & np.uint64((1 << low_bits) - 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_bfs, "_row_hash", degenerate)
        forced = enumerate_traces(gens, max_len, bound)
    assert forced.traces == plain.traces
    assert forced.states_explored == plain.states_explored
    assert forced.max_len_reached == plain.max_len_reached
    _assert_matches_reference(gens, forced, max_len, bound, same_words)
    return widths


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


# generator sets whose final level runs on int64 rows and on two-limb rows:
# the final row width, in int64 columns, for each
_FINAL_LEVELS = [
    ([from_ints(1, -1, 1, 0), T5], 6, 4),
    ([from_ints(1, 1 << 20, 0, 1), from_ints(1, 0, 1 << 20, 1)], 4, 8),
    ([MoebiusElement(bianchi_omega(3), -1, 1, 0), from_ints(1, 3, 0, 1)], 4, 8),
    ([MoebiusElement(bianchi_omega(1), -1, 1, 0),
      from_ints(1, 0, 1 << 29, 1)], 3, 16),
]
_FINAL_IDS = ["sl2z-int64", "sl2z-two-limb", "bianchi-int64",
              "bianchi-two-limb"]


@pytest.mark.parametrize("gens, max_len, width", _FINAL_LEVELS, ids=_FINAL_IDS)
@pytest.mark.parametrize("low_bits", [0, 2])
def test_forced_collisions_on_both_final_level_kinds(gens, max_len, width,
                                                     low_bits):
    widths = _assert_collisions_change_nothing(gens, max_len, 20, low_bits,
                                               same_words=False)
    assert max(widths) == width


@pytest.mark.parametrize("gens, max_len, width", _FINAL_LEVELS, ids=_FINAL_IDS)
def test_state_cap_boundary_on_final_level(monkeypatch, gens, max_len, width):
    widths = []
    row_hash = _bfs._row_hash
    monkeypatch.setattr(_bfs, "_row_hash",
                        lambda rows: widths.append(rows.shape[1])
                        or row_hash(rows))
    total = enumerate_traces(gens, max_len, 20).states_explored
    assert widths[-1] == width
    # the final level adds at least two states, so a cap of total - 1
    # is first exceeded there
    assert enumerate_traces(gens, max_len - 1, 20).states_explored < total - 1
    capped = enumerate_traces(gens, max_len, 20, state_cap=total)
    assert (capped.states_explored, capped.max_len_reached) == (total, max_len)
    with pytest.raises(StateExplosion, match=f"state count {total} exceeds"):
        enumerate_traces(gens, max_len, 20, state_cap=total - 1)


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


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_LIMB_INTS, _LIMB_INTS, _FACTORS,
                               st.sampled_from([-1, 0, 1]), _DIVISORS),
                     min_size=1, max_size=6),
       k=_FACTORS, q=_DIVISORS)
def test_limb_columns_match_python_ints(rows, k, q):
    xs, ys, ks, signs, qs = map(list, zip(*rows))
    x, y = _limbs(xs), _limbs(ys)
    cases = [
        (x + y, [a + b for a, b in zip(xs, ys)]),
        (x + -y, [a - b for a, b in zip(xs, ys)]),
        (-x, [-a for a in xs]),
        (1 - x, [1 - a for a in xs]),
        (x + k, [a + k for a in xs]),
        (x * k, [a * k for a in xs]),
        (k * x, [k * a for a in xs]),
        (x * np.array(ks), [a * b for a, b in zip(xs, ks)]),
        (x * np.array(signs), [a * b for a, b in zip(xs, signs)]),
        (x * k // q, [a * k // q for a in xs]),
        (x * q // q, xs),
        (x // np.array(qs), [a // b for a, b in zip(xs, qs)]),
        (abs(x), [abs(a) for a in xs]),
    ]
    for col, want in cases:
        assert _values(col) == want
    assert x.sign().tolist() == [(a > 0) - (a < 0) for a in xs]
    assert (x <= np.array(ys)).tolist() == [a <= b for a, b in zip(xs, ys)]
    assert (x <= abs(k)).tolist() == [a <= abs(k) for a in xs]


_TOP = (1 << 61) - 1      # the largest entry an int64 level may hold
_ORDER_INTS = (st.sampled_from([0, 1, -1, _TOP, -_TOP, 1 << 31, -(1 << 31)])
               | st.integers(-_TOP, _TOP))
# n = 2**k and 2**k + 1 on both sides of a change of ceil(log2 n)
_ORDER_SIZES = [1, 2, 3, 4, 5, 8, 9, 255, 256, 257, 1024, 1025]


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.lists(_ORDER_INTS, min_size=4, max_size=4),
                     min_size=1, max_size=6),
       width=st.integers(1, 4), n=st.sampled_from(_ORDER_SIZES),
       seed=st.integers(0, 2**32 - 1), distinct=st.booleans(),
       constant=st.lists(st.booleans(), min_size=4, max_size=4),
       wide=st.booleans())
@example(pool=[[5, 6, 7, 8]], width=4, n=1, seed=0, distinct=False,
         constant=[False] * 4, wide=False)
# two 62-bit columns with n = 2: the first one spans bits 62..123 of the
# row, across the two 63-bit chunks
@example(pool=[[_TOP, -_TOP, 0, 0], [-_TOP, _TOP, 0, 0]], width=2, n=2,
         seed=0, distinct=False, constant=[False] * 4, wide=False)
def test_row_order_matches_lexsort(pool, width, n, seed, distinct, constant,
                                   wide):
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
    assert np.array_equal(_row_order(rows), np.lexsort(rows.T[::-1]))


def test_state_cap_raises():
    with pytest.raises(StateExplosion):
        enumerate_traces([from_ints(1, -1, 1, 0), T5], 10, 10, state_cap=50)


def test_state_cap_env_override(monkeypatch):
    monkeypatch.setenv("FORDLAB_STATE_CAP", "40")
    from fordlab.tracesets import default_state_cap
    assert default_state_cap() == 40
    with pytest.raises(StateExplosion):
        enumerate_traces([from_ints(1, -1, 1, 0), T5], 10, 10)
    for bad in ("oops", "0", "-3"):
        monkeypatch.setenv("FORDLAB_STATE_CAP", bad)
        with pytest.raises(ValueError, match="FORDLAB_STATE_CAP"):
            default_state_cap()
        with pytest.raises(ValueError, match="FORDLAB_STATE_CAP"):
            enumerate_traces([T5], 2, 10)


def test_coverage_report():
    cov = coverage_report({QuadValue(0), QuadValue(2)},
                          {QuadValue(0), QuadValue(2)})
    assert cov.missing == () and cov.extra == () and cov.complete


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
    from fordlab.constructions import coset_cover_check
    for d in (1, 2, 3, 5, 6, 7, 11, 15, 19):
        assert coset_cover_check(d).status == "pass"


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
