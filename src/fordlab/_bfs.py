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

Integer rows run on three kinds of level, each taken while a per-level
guard proves that the next products fit it: int64 numpy rows; two-limb
numpy rows, which hold each coordinate x as the int64 pair
(x >> 31, x & (2**31 - 1)); and exact Python ints from then on.  Two-limb
rows sort by their limbs in the numeric order of their coordinates, so the
row order of a level, which decides which state becomes a trace's witness,
is the same on every kind of level and results are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import isqrt

import numpy as np

from fordlab.exactnum import MixedRadicand, QuadValue
from fordlab.moebius import MoebiusElement, identity, omega_coords
from fordlab.tracesets import DEFAULT_STATE_CAP, EnumerationResult, StateExplosion

_INT64_GUARD = 1 << 61
# two-limb levels (see _Search._kind): the bound on the products' entries,
# and on the generator entries and ring constants that multiply limbs
_WIDE_GUARD = 1 << 91
_WIDE_FACTOR = 1 << 30
_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1


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


# -- numpy columns -------------------------------------------------------------


class _Limbs:
    """A column of integers x = hi * 2**31 + lo, 0 <= lo < 2**31, held as two
    int64 arrays.

    It supports what the codecs' numpy formulas use: +, unary -, int - x,
    * by a Python int or an int64 array of factors below 2**31 in absolute
    value, // by positive divisors below 2**32, abs, <= and ``sign``.  Every
    result is normalized again, so a value has one representation and the
    limb pairs (hi, lo) order like the values.  The caller bounds the
    values (see ``_Search._kind``).
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    @staticmethod
    def _carry(hi, lo):
        return _Limbs(hi + (lo >> _LIMB_BITS), lo & _LIMB_MASK)

    @staticmethod
    def _of(y):
        if isinstance(y, _Limbs):
            return y
        return _Limbs(np.int64(y >> _LIMB_BITS), np.int64(y & _LIMB_MASK))

    def __add__(self, y):
        y = self._of(y)
        return self._carry(self.hi + y.hi, self.lo + y.lo)

    def __neg__(self):
        return self._carry(-self.hi, -self.lo)

    def __rsub__(self, y):
        return self._of(y) + -self

    def __mul__(self, k):
        return self._carry(self.hi * k, self.lo * k)

    __rmul__ = __mul__

    def __floordiv__(self, q):
        hi, r = np.divmod(self.hi, q)
        return _Limbs(hi, ((r << _LIMB_BITS) | self.lo) // q)

    def __abs__(self):
        return self * self.sign()

    def __le__(self, limit):
        lim_hi, lim_lo = limit >> _LIMB_BITS, limit & _LIMB_MASK
        return (self.hi < lim_hi) | ((self.hi == lim_hi) & (self.lo <= lim_lo))

    def sign(self):
        return np.where(self.hi != 0, np.sign(self.hi), np.sign(self.lo))


def _sign(col):
    """The elementwise sign of an int64 or a limb column."""
    return col.sign() if isinstance(col, _Limbs) else np.sign(col)


def _columns(rows, width):
    """The coordinate columns of numpy rows: int64 arrays, or limb columns
    when the rows have two limbs per coordinate."""
    if rows.shape[1] == width:
        return list(rows.T)
    return [_Limbs(rows[:, i], rows[:, i + 1])
            for i in range(0, rows.shape[1], 2)]


def _stack(cols):
    """Rows from columns, two limbs per coordinate for limb columns."""
    if isinstance(cols[0], _Limbs):
        cols = [half for col in cols for half in (col.hi, col.lo)]
    return np.stack(cols, axis=1)


def _widen(rows):
    """int64 rows as two-limb rows."""
    out = np.empty((len(rows), 2 * rows.shape[1]), dtype=np.int64)
    out[:, 0::2] = rows >> _LIMB_BITS
    out[:, 1::2] = rows & _LIMB_MASK
    return out


def _py_rows(rows, width):
    """int64 or two-limb numpy rows as tuples of Python ints, or one such
    row as one tuple."""
    if rows.shape[-1] != width:
        rows = ((rows[..., 0::2].astype(object) << _LIMB_BITS)
                + rows[..., 1::2].astype(object))
    if rows.ndim == 1:
        return tuple(rows.tolist())
    return list(map(tuple, rows.tolist()))


def _row_order(rows):
    """The stable permutation that sorts int64 rows lexicographically, equal
    to ``np.lexsort(rows.T[::-1])`` element for element, ties included.

    Each column, offset by its minimum, is a field as wide as the bit length
    of its span (max - min), and a row reads as one unsigned integer with
    its first column most significant.  With ib = ceil(log2 n) bits for a
    position, one in-place ``np.sort`` per (64 - ib)-bit chunk of that
    integer, least significant chunk first, sorts ``chunk << ib | i`` over
    the positions i of the order so far.  The keys are distinct, so each
    pass orders by its chunk and keeps the earlier order among equal
    chunks: the passes together are a stable sort by the whole integer.
    Two-limb rows sort by (hi, lo) per coordinate, which is their numeric
    order, since 0 <= lo < 2**31.

    Every span fits uint64, and ``col - col.min()`` cannot overflow int64,
    on both kinds of numpy level.  The ``_Search._kind`` guards keep every
    entry of an int64 level below P < 2**61 in absolute value, so a span is
    below 2**62.  On a two-limb level the coordinates y have |y| <= P <
    2**91, so |hi| <= |y| / 2**31 + 1 < 2**60 + 1 and hi spans are below
    2**62, while 0 <= lo < 2**31.  The two earlier levels that a new level
    is sorted with passed the same guards when they were made, and a
    widened int64 level has |hi| <= 2**30.
    """
    n = len(rows)
    ib = (n - 1).bit_length()
    step = 64 - ib
    fields, total = [], 0       # (column, its minimum, bit offset, width)
    for col in rows.T[::-1]:
        low = col.min()
        width = (int(col.max()) - int(low)).bit_length()
        if width:
            fields.append((col, low, total, width))
            total += width
    order = np.arange(n)
    pos = np.arange(n, dtype=np.uint64)
    mask = np.uint64((1 << ib) - 1)
    for start in range(0, total, step):
        key = np.zeros(n, dtype=np.uint64)
        for col, low, at, width in fields:
            first = max(at, start)
            if first < min(at + width, start + step):
                v = np.subtract(col, low).view(np.uint64)
                v >>= np.uint64(first - at)
                # bits above the chunk fall off in the shift by ib below
                v <<= np.uint64(first - start)
                key |= v
        if start:
            key = key[order]
        key <<= np.uint64(ib)
        key |= pos
        key.sort()
        key &= mask
        order = order[key.view(np.int64)] if start else key.view(np.int64)
    return order


# -- integer matrices, optionally scaled by 1/sqrt(p) ----------------------


def _int_entries(g: MoebiusElement):
    row = []
    for v in (g.a, g.b, g.c, g.d):
        if v.b != 0 or v.a.denominator != 1:
            return None
        row.append(v.a.numerator)
    return tuple(row)


def _scaled_entries(g: MoebiusElement, p: int):
    """The integer matrix M with g = M / sqrt(p), or None."""
    row = []
    for v in (g.a, g.b, g.c, g.d):
        x = v.b * p
        if v.a != 0 or v.m not in (0, p) or x.denominator != 1:
            return None
        row.append(x.numerator)
    return tuple(row)


class _IntCodec:
    """Integer matrices [[a, b], [c, d]] as rows (a, b, c, d).

    With a radicand p a row (a, b, c, d, e) stands for
    [[a, b], [c, d]] / sqrt(p)^e, e in {0, 1}; a product of two scaled
    states is divided exactly by p.  The trace of a scaled state is
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

    def entries(self, g):
        """g's row, or None when the encoding cannot prove it closes up.

        With a radicand p, g must be an integer matrix in Gamma0(p), or
        M/sqrt(p) with M of Atkin-Lehner shape [[p*a, b], [p*c, p*d]]
        (det M = p).  That set is closed under inverses and products: the
        product of two scaled elements is divisible by p and M1*M2/p lies
        in Gamma0(p) again.
        """
        row = _int_entries(g)
        p = self.p
        if p is None:
            return row
        if row is not None:
            return None if row[2] % p else row + (0,)
        row = _scaled_entries(g, p)
        if row is None or row[0] % p or row[2] % p or row[3] % p:
            return None
        return row + (1,)

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

    def np_mul(self, cols, gen):
        # the columns of the canonical rows x*gen, for int64 or limb columns
        prod = self._product(cols, gen)
        if self.p is not None:
            e = cols[4]
            if gen[4]:
                # e is 0 or 1: divide the rows of two scaled states by p
                prod = [v // (1 + (self.p - 1) * _sign(e)) for v in prod]
                e = 1 - e
            prod.append(e)
        # the first nonzero entry of (c, a, b, d) becomes positive
        sgn = 0
        for col in (3, 1, 0, 2):
            s = _sign(prod[col])
            sgn = np.where(s != 0, s, sgn)
        return [v * sgn for v in prod[:4]] + prod[4:]

    def np_in_bound(self, cols):
        # numpy compares int64 with Python ints of any size exactly
        size = abs(cols[0] + cols[3])
        if self.p is None:
            return size <= self.bound_floor
        return np.where(_sign(cols[4]) > 0, size <= self.rad_floor * self.p,
                        size <= self.bound_floor)

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
        except MixedRadicand:
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

    def np_mul(self, cols, gen):
        # the columns of the canonical rows x*gen, for int64 or limb columns
        prod = self._product(cols, gen)
        # the first nonzero entry of (c, a, b, d) becomes canonically positive
        sgn = 0
        for off in (6, 2, 0, 4):
            u, v = prod[off], prod[off + 1]
            lead = _sign(2 * u + v if self.d % 4 == 3 else u)
            s = np.where(lead != 0, lead, _sign(v))
            sgn = np.where(s != 0, s, sgn)
        return [v * sgn for v in prod]

    def np_in_bound(self, cols):
        tu, tv = cols[0] + cols[6], cols[1] + cols[7]
        return (abs(tu) <= self.np_limit) & (abs(tv) <= self.np_limit)

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
    key.  Trace keys are (rational, radical, radicand).  With ``modulus``
    (the generators have an imaginary entry) the bound caps |t|^2 of every
    trace, as for Bianchi groups; otherwise it caps |t| of a real trace."""

    growth = None    # no integer rows, so no numpy levels

    def __init__(self, bound: Fraction, modulus: bool):
        self.bound = bound
        self.modulus = modulus
        self.ident = self.entries(identity())

    @staticmethod
    def entries(g):
        return (g.key(), g)

    def mul(self, x, y):
        return self.entries(x[1] * y[1])

    def trace_key(self, state):
        t = state[1].canonical_trace()
        if self.modulus or not t.is_real:
            ok = t.abs2() <= self.bound
        else:
            ok = abs(t) <= QuadValue(self.bound)
        return (t.a, t.b, t.m) if ok else None

    def to_qv(self, key):
        return QuadValue(*key)


def _make_codec(gens, bound: Fraction):
    """The codec for a generator set: the integer encoding that the radicands
    of its entries name, if every generator has a row in it, else the exact
    codec.  No radicand names integer matrices, one p > 0 the normalizer
    encoding and one -d < 0 the integers of Q(sqrt(-d))."""
    radicands = {v.m for g in gens for v in (g.a, g.b, g.c, g.d) if v.m}
    codec = None
    if not radicands:
        codec = _IntCodec(bound)
    elif len(radicands) == 1:
        (m,) = radicands
        codec = _IntCodec(bound, m) if m > 0 else _PairCodec(-m, bound)
    if codec is not None and all(codec.entries(g) is not None for g in gens):
        return codec
    return _ExactCodec(bound, any(m < 0 for m in radicands))


# -- the driver ----------------------------------------------------------------

_INT64, _WIDE, _PY = "int64", "two-limb", "python"


def _contains(rows, state) -> bool:
    """Binary search for a state in a level's lexicographically sorted rows:
    Python-int states, int64 rows or two-limb rows."""
    key = None
    if isinstance(rows, np.ndarray):
        width = len(state)
        key = lambda row: _py_rows(row, width)
    i = bisect_left(rows, state, key=key)
    return i < len(rows) and (key(rows[i]) if key else rows[i]) == state


class _Search:
    """Level-synchronous frontier search over the words in a generator set."""

    def __init__(self, codec, gens, cap: int):
        self.codec = codec
        dirs, self.labels, self.inv_idx = _directions(gens)
        self.dirs = [self.codec.entries(g) for g in dirs]
        self.width = len(codec.ident)    # coordinates per integer row
        self.cap = cap
        self.levels = []      # per level: its states, sorted
        self.states = 1
        self.traces = {}      # trace key -> (level, state)
        self.max_level = 0

    def _kind(self, kind, frontier):
        """The kind of the next level: the first of int64, two-limb and
        Python-int levels, not before ``kind``, whose guard holds.

        With F bounding the frontier's entries, G the generators' and
        P = 2*F*G*growth, every entry of a product is at most P and every
        value that np_mul and np_in_bound compute at most 2*P.  So int64
        levels need P < 2**61.  On a two-limb level a value y has
        |hi| <= |y| / 2**31 + 1; each product y*k by a factor |k| < 2**30
        (a generator entry, a ring constant, 2 or a sign) is itself such a
        value, so |hi*k| <= 2*P / 2**31 + 2**30, |lo*k| < 2**61 and the
        carries are at most 2**30.  P < 2**91 keeps all of these, and the
        sums of two limbs, below 2**63.  The Atkin-Lehner p divides an
        entry of a generator, so p <= G.
        """
        if kind is _PY:
            return _PY
        if frontier.shape[1] == self.width:
            f = int(np.abs(frontier).max())
        else:
            f = (int(np.abs(frontier[:, 0::2]).max()) + 1) << _LIMB_BITS
        growth = self.codec.growth
        bound = 2 * f * self.gen_max * growth
        if kind is _INT64 and bound < _INT64_GUARD:
            return _INT64
        if max(self.gen_max, growth) < _WIDE_FACTOR and bound < _WIDE_GUARD:
            return _WIDE
        return _PY

    def run(self, max_len: int) -> None:
        codec = self.codec
        frontier, last = [codec.ident], [-1]
        if codec.growth is None:
            kind = _PY
        else:
            kind = _INT64
            frontier = np.array(frontier, dtype=np.int64)
            last = np.array(last, dtype=np.int16)
            self.gen_max = max((max(map(abs, row)) for row in self.dirs),
                               default=1)
        older = frontier[:0]    # level L-2, in the form of the frontier
        self.levels.append(frontier)
        for level in range(1, max_len + 1):
            step = self._kind(kind, frontier)
            if step is _WIDE and kind is _INT64:
                frontier, older = _widen(frontier), _widen(older)
            elif step is _PY and kind is not _PY:
                frontier = _py_rows(frontier, self.width)
                older = _py_rows(older, self.width)
                last = last.tolist()
            kind = step
            make = self._py_level if kind is _PY else self._np_level
            rows, last = make(frontier, last, older)
            older = frontier
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

    def _np_level(self, frontier, last, older):
        parts, part_dirs = [], []
        for j, gen in enumerate(self.dirs):
            sub = frontier[last != self.inv_idx[j]]
            if len(sub):
                cols = self.codec.np_mul(_columns(sub, self.width), gen)
                parts.append(_stack(cols))
                part_dirs.append(np.full(len(sub), j, dtype=np.int16))
        if not parts:
            return frontier[:0], last[:0]
        n_old = len(older) + len(frontier)
        rows = np.concatenate([older, frontier, *parts])
        dirs = np.concatenate(part_dirs)
        del parts, part_dirs, cols    # free the candidates early
        # numeric row order, stable: within equal rows the two old levels
        # come first and the candidates follow in generation order, so the
        # first of each run of equal rows is kept only if it is new
        order = _row_order(rows)
        differs = np.zeros(len(rows) - 1, dtype=bool)
        for col in rows.T:
            col = col[order]
            differs |= col[1:] != col[:-1]
        keep = order >= n_old
        keep[1:] &= differs
        kept = order[keep]
        return rows[kept], dirs[kept - n_old]

    def _py_level(self, frontier, last, older):
        # the rule of _np_level on lists: a stable sort of the two old
        # levels and the candidates, which keeps the first of each run of
        # equal rows only if it is new.  Equal (key, element) states of the
        # exact codec have equal keys and equal elements, so elements are
        # never ordered.
        mul, inv_idx = self.codec.mul, self.inv_idx
        rows, dirs = older + frontier, []
        n_old = len(rows)
        for j, gen in enumerate(self.dirs):
            for state, ld in zip(frontier, last):
                if ld != inv_idx[j]:
                    rows.append(mul(state, gen))
                    dirs.append(j)
        order = sorted(range(len(rows)), key=rows.__getitem__)
        kept = [i for at, i in enumerate(order) if i >= n_old
                and (at == 0 or rows[i] != rows[order[at - 1]])]
        return [rows[i] for i in kept], [dirs[i - n_old] for i in kept]

    def _record(self, rows, level):
        if isinstance(rows, np.ndarray):
            cols = _columns(rows, self.width)
            rows = _py_rows(rows[self.codec.np_in_bound(cols)], self.width)
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
