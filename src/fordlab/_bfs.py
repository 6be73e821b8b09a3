"""Breadth-first word enumeration over matrix generators.

One level-synchronous driver walks the Cayley graph of a generator set, one
word length (level) at a time, and keeps each level as its states sorted
lexicographically.  The graph is undirected, so every neighbour of a level-L
state lies in level L-1, L or L+1: a new level is deduplicated against the
two levels before it and no set of all visited states is kept (frontier
search; Korf et al., "Frontier Search", J. ACM 52(5), 2005).  Earlier
levels stay as sorted rows only, so that witness words can be traced back
by binary search.

A ring codec encodes the states:

* ``_IntCodec``: rational-integer matrices, or, given a radicand p, the
  normalizer generators (integer matrices in Gamma0(p) and Atkin-Lehner
  elements M/sqrt(p)) as integer rows with one scale column;
* ``_PairCodec``: imaginary-quadratic integer matrices in ring coordinates;
* ``_ExactCodec``: MoebiusElement states, for input with no proven integer
  encoding.

Integer rows run on int64 numpy levels while a per-level guard proves that
no product can overflow, and on exact Python-int levels from then on.  The
row order of a level decides which state becomes a trace's witness, and it
is the same on both kinds of level, so results are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import isqrt

import numpy as np

from fordlab.exactnum import QuadValue
from fordlab.moebius import MoebiusElement, identity, omega_coords

_INT64_GUARD = 1 << 61
DEFAULT_STATE_CAP = 5_000_000


class StateExplosion(RuntimeError):
    """The enumeration hit the configured state cap before finishing."""


class EnumerationResult:
    """Traces found by the search, with shortest witness words and stats."""

    __slots__ = ("traces", "states_explored", "max_len_reached")

    def __init__(self, traces, states_explored, max_len_reached):
        self.traces = traces            # dict[QuadValue -> witness word str]
        self.states_explored = states_explored
        self.max_len_reached = max_len_reached


def _directions(gens):
    dirs, labels = [], []
    seen = {}
    for i, g in enumerate(gens):
        for elem, label in ((g, f"g{i}"), (g.inv(), f"g{i}^-1")):
            if elem.is_identity():
                continue
            k = elem.key()
            if k in seen:
                continue
            seen[k] = len(dirs)
            dirs.append(elem)
            labels.append(label)
    inv_idx = [seen[d.inv().key()] for d in dirs]
    return dirs, labels, inv_idx


# -- integer matrices, optionally scaled by 1/sqrt(p) ----------------------


def _int_entries(g: MoebiusElement):
    row = []
    for v in (g.a, g.b, g.c, g.d):
        if v.b != 0 or v.a.denominator != 1:
            return None
        row.append(v.a.numerator)
    return tuple(row)


def _scaled_entries(g: MoebiusElement):
    """(M, p) with g = M / sqrt(p) for an integer matrix M, or None."""
    radicands = {v.m for v in (g.a, g.b, g.c, g.d) if v.b != 0}
    if len(radicands) != 1:
        return None
    p = radicands.pop()
    if p < 2:
        return None
    row = []
    for v in (g.a, g.b, g.c, g.d):
        x = v.b * p
        if v.a != 0 or x.denominator != 1:
            return None
        row.append(x.numerator)
    return tuple(row), p


def _atkin_lehner_prime(gens) -> int | None:
    """The p that proves the generators close up in the (M, e) encoding.

    Every generator must be an integer matrix in Gamma0(p), or M/sqrt(p)
    with M of Atkin-Lehner shape [[p*a, b], [p*c, p*d]] (det M = p).  That
    set is closed under products: the product of two scaled elements is
    divisible by p and M1*M2/p lies in Gamma0(p) again.  None when some
    generator falls outside it.
    """
    p, ints = None, []
    for g in gens:
        row = _int_entries(g)
        if row is not None:
            ints.append(row)
            continue
        scaled = _scaled_entries(g)
        if scaled is None or p not in (None, scaled[1]):
            return None
        (a, _, c, d), p = scaled
        if a % p or c % p or d % p:
            return None
    if p is None or any(row[2] % p for row in ints):
        return None
    return p


class _IntCodec:
    """Integer matrices [[a, b], [c, d]] as rows (a, b, c, d).

    With a radicand p (see ``_atkin_lehner_prime``) a row (a, b, c, d, e)
    stands for [[a, b], [c, d]] / sqrt(p)^e, e in {0, 1}; a product of two
    scaled states is divided exactly by p.  The trace of a scaled state is
    (|a + d| / p) * sqrt(p).  Trace keys are the (rational, radical) integer
    coefficients.
    """

    growth = 1

    def __init__(self, bound: Fraction, p: int | None = None):
        self.p = p
        self.ident = (1, 0, 0, 1) if p is None else (1, 0, 0, 1, 0)
        self.bound_floor = bound.numerator // bound.denominator
        # largest m with m*sqrt(p) <= bound
        self.rad_floor = -1
        if p is not None and bound >= 0:
            self.rad_floor = isqrt(bound.numerator ** 2
                                   // (p * bound.denominator ** 2))
        # |a + d| limit per e, clipped to int64 (the guard keeps |a + d| < 2**62)
        self.np_limits = np.array(
            [max(-1, min(lim, 1 << 62))
             for lim in (self.bound_floor, self.rad_floor * (p or 1))],
            dtype=np.int64)

    def entries(self, g):
        row = _int_entries(g)
        if self.p is None:
            return row
        if row is not None:
            return row + (0,)
        return _scaled_entries(g)[0] + (1,)

    @staticmethod
    def _product(x, y):
        # entries of x*y, for x as Python ints or as numpy columns
        a, b, c, d = x[:4]
        p, q, r, s = y[:4]
        return [a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s]

    def mul(self, x, y):
        row = self._product(x, y)
        if self.p is not None and x[4] and y[4]:
            row = [v // self.p for v in row]
        for lead in (row[2], row[0], row[1], row[3]):
            if lead:
                if lead < 0:
                    row = [-v for v in row]
                break
        return tuple(row) if self.p is None else (*row, x[4] ^ y[4])

    def np_mul(self, arr, gen):
        prod = np.stack(self._product(arr.T, gen), axis=1)
        if self.p is not None:
            e = arr[:, 4]
            if gen[4]:
                prod[e == 1] //= self.p
                e = 1 - e
            prod = np.column_stack([prod, e])
        # the first nonzero entry of (c, a, b, d) becomes positive
        sgn = np.zeros(len(prod), dtype=np.int64)
        for col in (3, 1, 0, 2):
            sgn = np.where(prod[:, col] != 0, np.sign(prod[:, col]), sgn)
        prod[:, :4] *= sgn[:, None]
        return prod

    def np_in_bound(self, arr):
        scale = arr[:, 4] if self.p is not None else 0
        return np.abs(arr[:, 0] + arr[:, 3]) <= self.np_limits[scale]

    def trace_key(self, row):
        s = abs(row[0] + row[3])
        if self.p is None or not row[4]:
            return (s, 0) if s <= self.bound_floor else None
        m = s // self.p
        return (0, m) if m <= self.rad_floor else None

    def to_qv(self, key):
        return QuadValue(key[0], key[1], self.p or 0)


# -- imaginary quadratic integer matrices ------------------------------------


def _pair_entries(g: MoebiusElement, d: int):
    row = []
    for v in (g.a, g.b, g.c, g.d):
        try:
            u, w = omega_coords(v, d)
        except Exception:
            return None
        if u.denominator != 1 or w.denominator != 1:
            return None
        row.extend((u.numerator, w.numerator))
    return tuple(row)


class _PairCodec:
    """Matrices with entries u + v*omega in the integers of Q(sqrt(-d)),
    stored as rows of eight coordinates (u, v) for a, b, c, d."""

    def __init__(self, d: int, bound: Fraction):
        self.d = d
        # omega^2 = e1*omega + e0
        self.e1, self.e0 = (1, -(1 + d) // 4) if d % 4 == 3 else (0, -d)
        self.growth = 2 + abs(self.e0) + abs(self.e1)
        self.ident = (1, 0, 0, 0, 0, 0, 1, 0)
        self.bound4_num = 4 * bound.numerator
        self.bound_den = bound.denominator
        # |tu|, |tv| <= 2*sqrt(bound) for every trace tu + tv*omega in bound
        ceil = -(-bound.numerator // bound.denominator)
        self.np_limit = 2 * isqrt(max(0, ceil)) + 2

    def entries(self, g):
        return _pair_entries(g, self.d)

    def _sign(self, u, v):
        # sign of the canonical-positivity functional for u + v*omega
        lead = 2 * u + v if self.d % 4 == 3 else u
        return (lead > 0) - (lead < 0) if lead else (v > 0) - (v < 0)

    def _product(self, x, y):
        # coordinates of x*y, for x as Python ints or as numpy columns
        out = []
        for xu, xv, yu, yv in (x[0:4], x[4:8]):
            for gu, gv, hu, hv in ((y[0], y[1], y[4], y[5]),
                                   (y[2], y[3], y[6], y[7])):
                v12 = xv * gv + yv * hv
                out.append(xu * gu + yu * hu + v12 * self.e0)
                out.append(xu * gv + xv * gu + yu * hv + yv * hu
                           + v12 * self.e1)
        return out

    def mul(self, x, y):
        row = self._product(x, y)
        for off in (4, 0, 2, 6):
            s = self._sign(row[off], row[off + 1])
            if s:
                return tuple(row) if s > 0 else tuple(-v for v in row)
        return tuple(row)

    def np_mul(self, arr, gen):
        arr = np.stack(self._product(arr.T, gen), axis=1)
        # the first nonzero entry of (c, a, b, d) becomes canonically positive
        sgn = np.zeros(len(arr), dtype=np.int64)
        for off in (6, 2, 0, 4):
            u, v = arr[:, off], arr[:, off + 1]
            lead = 2 * u + v if self.d % 4 == 3 else u
            sgn = np.where((u != 0) | (v != 0),
                           np.where(lead != 0, np.sign(lead), np.sign(v)), sgn)
        return arr * sgn[:, None]

    def np_in_bound(self, arr):
        tu, tv = arr[:, 0] + arr[:, 6], arr[:, 1] + arr[:, 7]
        return (np.abs(tu) <= self.np_limit) & (np.abs(tv) <= self.np_limit)

    def trace_key(self, row):
        tu, tv = row[0] + row[6], row[1] + row[7]
        if self._sign(tu, tv) < 0:
            tu, tv = -tu, -tv
        if self.d % 4 == 3:
            x = (2 * tu + tv) ** 2 + self.d * tv * tv
        else:
            x = 4 * (tu * tu + self.d * tv * tv)
        return (tu, tv) if x * self.bound_den <= self.bound4_num else None

    def to_qv(self, key):
        tu, tv = key
        if self.d % 4 == 3:
            return QuadValue(Fraction(2 * tu + tv, 2), Fraction(tv, 2), -self.d)
        return QuadValue(tu, tv, -self.d)


# -- exact elements ------------------------------------------------------------


class _ExactCodec:
    """MoebiusElement states, held as (key, element) so that they sort by
    key.  Trace keys are (rational, radical, radicand)."""

    growth = None    # no integer rows, so no numpy levels

    def __init__(self, bound: Fraction):
        self.bound = bound
        self.ident = self.entries(identity())

    @staticmethod
    def entries(g):
        return (g.key(), g)

    def mul(self, x, y):
        return self.entries(x[1] * y[1])

    def trace_key(self, state):
        t = state[1].canonical_trace()
        if t.is_real:
            ok = abs(t) <= QuadValue(self.bound)
        else:
            ok = t.abs2() <= self.bound
        return (t.a, t.b, t.m) if ok else None

    def to_qv(self, key):
        return QuadValue(*key)


def _detect_ring_d(gens) -> int | None:
    d = None
    for g in gens:
        for v in (g.a, g.b, g.c, g.d):
            if v.m < 0:
                if d is not None and d != -v.m:
                    return None
                d = -v.m
            elif v.m > 0:
                return None
    return d


def _make_codec(gens, bound: Fraction):
    """The codec for a generator set: the first encoding that provably fits."""
    if all(_int_entries(g) is not None for g in gens):
        return _IntCodec(bound)
    p = _atkin_lehner_prime(gens)
    if p is not None:
        return _IntCodec(bound, p)
    d = _detect_ring_d(gens)
    if d is not None and all(_pair_entries(g, d) is not None for g in gens):
        return _PairCodec(d, bound)
    return _ExactCodec(bound)


# -- the driver ----------------------------------------------------------------


def _tuples(arr):
    return [tuple(row) for row in arr.tolist()]


def _row_tuple(row):
    return tuple(row.tolist())


def _contains(rows, state) -> bool:
    """Binary search for a state in a level's lexicographically sorted rows."""
    key = _row_tuple if isinstance(rows, np.ndarray) else None
    i = bisect_left(rows, state, key=key)
    return i < len(rows) and (key(rows[i]) if key else rows[i]) == state


class _Search:
    """Level-synchronous frontier search over the words in a generator set."""

    def __init__(self, codec, gens, cap: int):
        self.codec = codec
        dirs, self.labels, self.inv_idx = _directions(gens)
        self.dirs = [self.codec.entries(g) for g in dirs]
        self.cap = cap
        self.levels = []      # per level: its states, sorted
        self.states = 1
        self.traces = {}      # trace key -> (level, state)
        self.max_level = 0

    def run(self, max_len: int) -> None:
        codec = self.codec
        use_np = codec.growth is not None
        if use_np:
            frontier = np.array([codec.ident], dtype=np.int64)
            last = np.array([-1], dtype=np.int16)
            gen_max = max((max(map(abs, row)) for row in self.dirs), default=1)
        else:
            frontier, last = [codec.ident], [-1]
        self.levels.append(frontier)
        older = set()         # on Python-int levels: the states of level L-2
        for level in range(1, max_len + 1):
            if use_np and (2 * int(np.abs(frontier).max()) * gen_max
                           * codec.growth >= _INT64_GUARD):
                use_np = False
                frontier, last = _tuples(frontier), last.tolist()
                if level > 1:
                    older = set(_tuples(self.levels[-2]))
            if use_np:
                rows, last = self._np_level(frontier, last)
            else:
                near = set(frontier)
                rows, last = self._py_level(frontier, last, older, near)
                older = near
            if not len(rows):
                break
            self.levels.append(rows)
            self._record(rows, level)
            frontier = rows
            self.states += len(rows)
            self.max_level = level
            if self.states > self.cap:
                raise StateExplosion(
                    f"state count {self.states} exceeds cap {self.cap}")

    def _np_level(self, frontier, last):
        parts, part_dirs = [], []
        for j, gen in enumerate(self.dirs):
            sub = frontier[last != self.inv_idx[j]]
            if len(sub):
                parts.append(self.codec.np_mul(sub, gen))
                part_dirs.append(np.full(len(sub), j, dtype=np.int16))
        if not parts:
            return frontier[:0], last[:0]
        older = self.levels[-2] if len(self.levels) > 1 else frontier[:0]
        n_old = len(older) + len(frontier)
        # stable: within equal rows, the two old levels come first and the
        # candidates follow in generation order
        rows = np.concatenate([older, frontier, *parts])
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        keep = order >= n_old
        keep[1:] &= (rows[1:] != rows[:-1]).any(axis=1)
        return rows[keep], np.concatenate(part_dirs)[order[keep] - n_old]

    def _py_level(self, frontier, last, older, near):
        cands = {}
        mul, inv_idx = self.codec.mul, self.inv_idx
        for state, ld in zip(frontier, last):
            for j, gen in enumerate(self.dirs):
                if ld != inv_idx[j]:
                    cands.setdefault(mul(state, gen), j)
        rows = [k for k in sorted(cands) if k not in near and k not in older]
        return rows, [cands[k] for k in rows]

    def _record(self, rows, level):
        if isinstance(rows, np.ndarray):
            rows = _tuples(rows[self.codec.np_in_bound(rows)])
        for row in rows:
            key = self.codec.trace_key(row)
            if key is not None and key not in self.traces:
                self.traces[key] = (level, row)

    def witness(self, state, level) -> str:
        """The word to a state: at each step back, the first direction whose
        inverse step lands in the level before."""
        word = []
        cur = state
        for lvl in range(level, 0, -1):
            for j, label in enumerate(self.labels):
                parent = self.codec.mul(cur, self.dirs[self.inv_idx[j]])
                if _contains(self.levels[lvl - 1], parent):
                    word.append(label)
                    cur = parent
                    break
            else:
                raise AssertionError("witness backtrack failed")
        return "*".join(reversed(word))

    def result(self) -> EnumerationResult:
        out = {}
        for key, (level, state) in sorted(self.traces.items()):
            out[self.codec.to_qv(key)] = self.witness(state, level)
        return EnumerationResult(out, self.states, self.max_level)


def bfs_enumerate(gens, max_word_len: int, trace_bound: Fraction,
                  state_cap: int = DEFAULT_STATE_CAP) -> EnumerationResult:
    """Enumerate canonical traces of words up to the given length."""
    if not gens:
        raise ValueError("generator list is empty")
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    search = _Search(_make_codec(gens, Fraction(trace_bound)), gens, state_cap)
    search.run(max_word_len)
    return search.result()
