"""Breadth-first word enumeration over matrix generators.

One level-synchronous driver walks the Cayley graph of a generator set, one
word length (level) at a time.  The graph is undirected, so every neighbour
of a level-L state lies in level L-1, L or L+1: a new level is deduplicated
against the two levels before it and no set of all visited states is kept
(frontier search; Korf et al., "Frontier Search", J. ACM 52(5), 2005).  Of
earlier levels only a parent link per state is kept, (direction, index of
the parent state in the level before), and witness words are read back
along these links.

A ring codec encodes the states: ``_IntCodec`` rational-integer matrices,
or, given a radicand p, the normalizer generators (integer matrices in
Gamma0(p) and Atkin-Lehner elements M/sqrt(p)) as integer rows with one
scale column; ``_PairCodec`` imaginary-quadratic integer matrices in ring
coordinates; ``_ExactCodec`` MoebiusElement states, for input with no
proven integer encoding.

Integer rows run on three kinds of level, each taken while a per-level
guard proves that the next products fit it: int64 numpy rows; two-limb
numpy rows, which hold each coordinate x as the int64 pair
(x >> 31, x & (2**31 - 1)); and exact Python ints from then on.  A product
x*g is linear in the row x, with one integer matrix per direction g read
off the codec's own product.  Numpy levels apply it as int64 sums: on two
limbs the same sums over the hi and over the lo limbs, then one carry per
coordinate.  Every level keeps the first occurrence of each new row in
generation order, found by row hash on numpy levels and by a set on
Python-int and exact levels.  So each state's link names the first
direction that reaches it from the level before, and each trace is
witnessed by the least state, in numeric row order, that has it.
"""

from __future__ import annotations

from itertools import chain
from fractions import Fraction
from math import isqrt

import numpy as np

from fordlab.exactnum import MixedRadicand, QuadValue
from fordlab.moebius import (
    NotIntegral,
    identity,
    integer_entries,
    omega_ints,
    omega_norm4,
    omega_square,
    omega_value,
)
from fordlab.tracesets import DEFAULT_STATE_CAP, EnumerationResult, StateExplosion

_INT64_GUARD = 1 << 61
# two-limb levels (see _Search._kind): bounds on the products' entries, on
# generator entries and on coefficient sums
_WIDE_GUARD = 1 << 91
_WIDE_FACTOR = 1 << 30
_WIDE_FORM = 1 << 32
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
    int64 arrays.  ``_carry`` brings limb sums back to this form, in which
    the limb pairs (hi, lo) order like the values.  Products are linear
    forms over the limbs (``_linear``); a column also supports // by
    positive divisors below 2**32, <= and ``sign``.  The caller bounds the
    values (see ``_Search._kind``)."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    @staticmethod
    def _carry(hi, lo):
        # in place: the caller owns both arrays
        hi += lo >> _LIMB_BITS
        lo &= _LIMB_MASK
        return _Limbs(hi, lo)

    def __floordiv__(self, q):
        hi, r = np.divmod(self.hi, q)
        return _Limbs(hi, ((r << _LIMB_BITS) | self.lo) // q)

    def __le__(self, limit):
        lim_hi, lim_lo = limit >> _LIMB_BITS, limit & _LIMB_MASK
        return (self.hi < lim_hi) | ((self.hi == lim_hi) & (self.lo <= lim_lo))

    def sign(self):
        return np.sign(self.hi | (self.lo != 0))    # bit 0 keeps hi's sign


def _sign(col):
    """The elementwise sign of an int64 or a limb column."""
    return col.sign() if isinstance(col, _Limbs) else np.sign(col)


def _within(col, limit):
    """|col| <= limit elementwise, for an int64 or a limb column and a
    Python int of any size: numpy compares int64 with it exactly."""
    return (col <= limit) & ~(col <= -limit - 1)


def _linear(cols, form):
    """The columns sum_k form[i][k] * cols[k], one per row i of the form,
    summed in place, zero coefficients skipped: int64 columns directly,
    limb columns as the same sums over the hi and over the lo arrays, then
    one carry per column."""
    if isinstance(cols[0], _Limbs):
        return list(map(_Limbs._carry, _linear([c.hi for c in cols], form),
                        _linear([c.lo for c in cols], form)))
    out, term = [], np.empty_like(cols[0])
    for coefs in form:
        terms = [(c, x) for c, x in zip(coefs, cols) if c] or [(0, cols[0])]
        out.append(terms[0][1] * terms[0][0])
        for c, x in terms[1:]:
            out[-1] += np.multiply(x, c, out=term)
    return out


def _make_positive(cols, leads):
    """Columns times the sign of the first nonzero lead in each row, in place:
    both halves of a limb column, then one carry.  ``leads(cols)`` yields the
    lead columns of given columns in order; every row is signed by the first
    lead, and only the rows where it is zero by the others."""
    sgn = _sign(next(leads(cols)))
    rest = np.flatnonzero(sgn == 0)
    if len(rest):
        sub, subset = 0, [_take(c, rest) for c in cols]
        for s in map(_sign, reversed(list(leads(subset)))):
            sub = np.where(s != 0, s, sub)
        sgn[rest] = sub
    for half in _flat(cols):
        half *= sgn
    if isinstance(cols[0], _Limbs):
        return [_Limbs._carry(col.hi, col.lo) for col in cols]
    return cols


def _take(col, idx):
    """The rows idx of an int64 or a limb column."""
    if isinstance(col, _Limbs):
        return _Limbs(col.hi[idx], col.lo[idx])
    return col[idx]


def _columns(rows, width):
    """The coordinate columns of numpy rows: int64 arrays, or limb columns
    when the rows have two limbs per coordinate."""
    if rows.shape[1] == width:
        return list(rows.T)
    return [_Limbs(rows[:, i], rows[:, i + 1])
            for i in range(0, rows.shape[1], 2)]


def _flat(cols):
    """The int64 arrays of columns, two per limb column."""
    if isinstance(cols[0], _Limbs):
        return [half for col in cols for half in (col.hi, col.lo)]
    return cols


def _widen(rows):
    """int64 rows as column-major two-limb rows."""
    out = np.empty((len(rows), 2 * rows.shape[1]), dtype=np.int64, order="F")
    out[:, 0::2] = rows >> _LIMB_BITS
    out[:, 1::2] = rows & _LIMB_MASK
    return out


def _py_rows(rows, width):
    """int64 or two-limb numpy rows as tuples of Python ints."""
    if rows.shape[1] != width:
        rows = ((rows[:, 0::2].astype(object) << _LIMB_BITS)
                + rows[:, 1::2].astype(object))
    return list(map(tuple, rows.tolist()))


_MASK64 = (1 << 64) - 1


def _mix64(x):
    """The splitmix64 finalizer, a bijection of 64-bit words, on a Python
    int or elementwise on a uint64 array."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


# one fixed odd multiplier per column, at most 16 (eight two-limb
# coordinates); unrelated constants, since a row hash that is linear in
# its columns collides on rows x, y with sum((x - y) * C) = 0 mod 2**64
_HASH_MULS = [np.uint64(_mix64(k * 0x9E3779B97F4A7C15 & _MASK64) | 1)
              for k in range(1, 17)]


def _row_hash(rows):
    """A uint64 hash of each int64 row: the sum of its columns times fixed
    odd constants, mod 2**64, then ``_mix64``, so that the top bits depend
    on every bit of the row.  Equal rows hash equal; callers compare rows
    that share a hash exactly."""
    h = np.zeros(len(rows), dtype=np.uint64)
    term = np.empty_like(h)
    for col, mul in zip(rows.T, _HASH_MULS):
        np.multiply(col.view(np.uint64), mul, out=term)
        h += term
    return _mix64(h)


def _first_rows(rows, hashes):
    """A mask over int64 rows, given their ``_row_hash`` values, that marks
    the first occurrence by position of each distinct row.  The hashes are
    overwritten.

    One in-place ``np.sort`` of the hashes, with the row positions packed
    into their low bits, puts rows that share the top bits of their hash
    next to each other, each run in position order.  Neighbours in such a
    run are compared exactly.  In a run whose rows are all equal only the
    first is marked; a run that holds two different rows is resolved with a
    Python set over that run only.
    """
    n = len(rows)
    ib = (n - 1).bit_length()
    mask = np.uint64((1 << ib) - 1)
    key = hashes        # sorted in place
    key &= ~mask
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    # neighbours share their top bits when their keys differ in the low ones
    eq = np.bitwise_xor(key[1:], key[:-1]) <= mask
    key &= mask
    order = key.view(np.int64)
    first = np.insert(~eq, 0, True)     # in hash order: the run starts
    if eq.any():
        # the rows of every run of two or more, compared column by column
        # in hash order: a run's rows are neighbours there
        members = np.flatnonzero(np.append(eq, False) | ~first)
        pos = order[members]
        differs = np.zeros(len(members) - 1, dtype=bool)
        for col in rows.T:
            col = col[pos]
            differs |= col[1:] != col[:-1]
        bad = members[np.flatnonzero(differs & eq[members[:-1]])]
        if len(bad):
            starts = np.append(np.flatnonzero(first), n)
            for r in np.unique(np.searchsorted(starts, bad, side="right") - 1):
                seen = set()
                run = rows[order[starts[r]:starts[r + 1]]]
                for at, row in enumerate(map(tuple, run.tolist()), starts[r]):
                    first[at] = row not in seen
                    seen.add(row)
    out = np.empty(n, dtype=bool)
    out[order] = first
    return out


# -- integer matrices, optionally scaled by 1/sqrt(p) ----------------------


class _IntCodec:
    """Integer matrices [[a, b], [c, d]] as rows (a, b, c, d).

    With a radicand p a row (a, b, c, d, e) stands for
    [[a, b], [c, d]] / sqrt(p)^e, e in {0, 1}; a product of two scaled
    states is divided exactly by p.  The trace of a scaled state is
    (|a + d| / p) * sqrt(p).  Trace keys are the (rational, radical) integer
    coefficients.
    """

    def __init__(self, bound: Fraction, p: int | None = None):
        self.p = p
        self.ident = (1, 0, 0, 1) if p is None else (1, 0, 0, 1, 0)
        # the columns trace_key reads: a + d, and the scale e
        self.trace_form = [(1, 0, 0, 1)] + [(0, 0, 0, 0, 1)] * (p is not None)
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
        try:
            row = integer_entries(g)
        except NotIntegral:
            row = None
        p = self.p
        if p is None:
            return row
        if row is not None:
            return None if row[2] % p else row + (0,)
        row = []    # the integer matrix M with g = M / sqrt(p)
        for v in (g.a, g.b, g.c, g.d):
            x = v.b * p
            if v.a != 0 or v.m not in (0, p) or x.denominator != 1:
                return None
            row.append(x.numerator)
        return None if row[0] % p or row[2] % p or row[3] % p else (*row, 1)

    @staticmethod
    def _product(x, y):
        # entries of x*y
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

    def np_mul(self, cols, gen, form):
        # the int64 or limb columns of the canonical rows x*gen, by form
        prod = _linear(cols, form)
        if self.p is not None:
            e = cols[4]
            if gen[4]:
                # e is 0 or 1: divide the rows of two scaled states by p
                div = 1 + (self.p - 1) * _sign(e)
                prod = [v // div for v in prod]
                e = _Limbs(e.hi, e.lo ^ 1) if isinstance(e, _Limbs) else e ^ 1
            prod.append(e)
        # the first nonzero entry of (c, a, b, d) becomes positive
        leads = lambda c: iter((c[2], c[0], c[1], c[3]))
        return _make_positive(prod[:4], leads) + prod[4:]

    def np_in_bound(self, traces):
        if self.p is None:
            return _within(traces[0], self.bound_floor)
        return np.where(_sign(traces[1]) > 0,
                        _within(traces[0], self.rad_floor * self.p),
                        _within(traces[0], self.bound_floor))

    def trace_key(self, row):
        s = abs(row[0] + row[3])
        if self.p is None or not row[4]:
            return (s, 0) if s <= self.bound_floor else None
        m = s // self.p
        return (0, m) if m <= self.rad_floor else None

    def to_qv(self, key):
        return QuadValue(key[0], key[1], self.p or 0)


# -- imaginary quadratic integer matrices ------------------------------------


class _PairCodec:
    """Matrices with entries u + v*omega in the integers of Q(sqrt(-d)),
    stored as rows of eight coordinates (u, v) for a, b, c, d."""

    def __init__(self, d: int, bound: Fraction):
        self.d = d
        # omega^2 = e1*omega + e0
        self.e1, self.e0 = omega_square(d)
        self.ident = (1, 0, 0, 0, 0, 0, 1, 0)
        # the columns trace_key reads: a + d in ring coordinates
        self.trace_form = [(1, 0, 0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 1)]
        self.bound4_num = 4 * bound.numerator
        self.bound_den = bound.denominator
        # |tu|, |tv| <= 2*sqrt(bound) for every trace tu + tv*omega in bound
        ceil = -(-bound.numerator // bound.denominator)
        self.np_limit = 2 * isqrt(max(0, ceil)) + 2

    def entries(self, g):
        row = []
        for v in (g.a, g.b, g.c, g.d):
            try:
                u, w, n = omega_ints(v, self.d)
            except MixedRadicand:
                return None
            if u % n or w % n:
                return None
            row.extend((u // n, w // n))
        return tuple(row)

    def _sign(self, u, v):
        # sign of the canonical-positivity functional for u + v*omega: the
        # rational part of u + v*omega is (2u + e1*v) / 2
        lead = 2 * u + self.e1 * v
        return (lead > 0) - (lead < 0) if lead else (v > 0) - (v < 0)

    def _product(self, x, y):
        # coordinates of x*y
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

    def np_mul(self, cols, gen, form):
        # the int64 or limb columns of the canonical rows x*gen, by form
        # the first nonzero of (lead, v) over (c, a, b, d) becomes positive
        return _make_positive(_linear(cols, form), self._leads)

    def _leads(self, cols):
        for u, v in (cols[4:6], cols[0:2], cols[2:4], cols[6:8]):
            yield _linear([u, v], [(2, self.e1)])[0]
            yield v

    def np_in_bound(self, traces):
        tu, tv = traces
        return _within(tu, self.np_limit) & _within(tv, self.np_limit)

    def trace_key(self, row):
        tu, tv = row[0] + row[6], row[1] + row[7]
        if omega_norm4(tu, tv, self.d) * self.bound_den > self.bound4_num:
            return None
        lead = 2 * tu + self.e1 * tv
        return (tu, tv) if lead > 0 or (not lead and tv >= 0) else (-tu, -tv)

    def to_qv(self, key):
        return omega_value(*key, 1, self.d)


# -- exact elements ------------------------------------------------------------


class _ExactCodec:
    """MoebiusElement states, held as (key, element) so that they sort by
    key.  Trace keys are (rational, radical, radicand).  With ``modulus``
    (the generators have an imaginary entry) the bound caps |t|^2 of every
    trace, as for Bianchi groups; otherwise it caps |t| of a real trace."""

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
        if self.modulus:
            ok = t.abs2() <= self.bound
        else:
            ok = abs(t) <= QuadValue(self.bound)
        return (t.a, t.b, t.m) if ok else None

    def to_qv(self, key):
        return QuadValue(*key)


def _make_codec(gens, bound: Fraction):
    """The codec for a generator set: the integer encoding that the radicand
    of its entries names, if every generator has a row in it, else the exact
    codec.  No radicand names integer matrices, p > 0 the normalizer
    encoding and -d < 0 the integers of Q(sqrt(-d)).  Generators over two
    quadratic rings have no products: MixedRadicand."""
    radicands = sorted({v.m for g in gens for v in (g.a, g.b, g.c, g.d)
                        if v.m})
    if len(radicands) > 1:
        raise MixedRadicand("generators span the quadratic rings of "
                            + " and ".join(f"sqrt({m})" for m in radicands))
    m = radicands[0] if radicands else 0
    codec = _PairCodec(-m, bound) if m < 0 else _IntCodec(bound, m or None)
    if all(codec.entries(g) is not None for g in gens):
        return codec
    return _ExactCodec(bound, m < 0)


# -- the driver ----------------------------------------------------------------

_INT64, _WIDE, _PY = "int64", "two-limb", "python"


class _Search:
    """Level-synchronous frontier search over the words in a generator set."""

    def __init__(self, codec, gens, cap: int):
        self.codec = codec
        dirs, self.labels, self.inv_idx = _directions(gens)
        self.dirs = [self.codec.entries(g) for g in dirs]
        self.width = len(codec.ident)    # coordinates per integer row
        self.cap = cap
        if not isinstance(codec, _ExactCodec):
            # x*g as linear forms in the row x: row i of g's matrix, read off
            # the codec's own product of the unit rows with g, is coordinate i
            units = np.eye(self.width, dtype=int).tolist()
            self.forms = [list(zip(*(codec._product(u, g) for u in units)))
                          for g in self.dirs]
            self.gen_max = max(map(abs, chain(*self.dirs)), default=1)
            # the distinct rows of |coefficients|, which bound the products
            self.abs_rows = {tuple(map(abs, coefs)) for form in self.forms
                             for coefs in form}
            self.form_max = max(map(sum, self.abs_rows), default=0)
        # per level: the (direction, parent index) links of its states
        self.links = [None]
        self.states = 1
        self.traces = {}      # trace key -> (level, index of its state)
        self.max_level = 0

    def _kind(self, kind, frontier):
        """The kind of the next level: the first of int64, two-limb and
        Python-int levels, not before ``kind``, whose guard holds.

        Coordinate i of x*g is the form sum_k c_k x_k of row i of g's
        matrix.  With F_k bounding the frontier's column k, let
        T = max sum_k |c_k| * F_k over the rows of every direction's matrix.
        Then every coordinate of a product, and every partial sum of its
        form, is at most T, a lead 2u + v at most 3T and a trace a + d at
        most 2T.  So int64 levels need T < 2**61.  Two-limb levels need
        K < 2**32, K the largest sum of |c_k| over a row, and T < 2**91: as
        0 <= lo < 2**31 and |hi_k| <= F_k / 2**31 + 1 for the frontier, a
        sum of c_k * lo_k is below K * 2**31 < 2**63, a sum of c_k * hi_k at
        most T / 2**31 + K, and |hi| < 2**60 + 2**33 after the carry adds
        lo >> 31, all inside int64.  The carried pairs are canonical, later
        forms of them (2u + v, a + d) have coefficient sums of at most 3, a
        sign multiplies both limbs by -1, 0 or 1, and the Atkin-Lehner p
        divides a generator entry, so p <= G < 2**30 for G the largest
        generator entry, and dividing carried limbs by p stays below 2**61.
        """
        if kind is _PY:
            return _PY
        limbs = frontier.shape[1] != self.width
        high = np.abs(frontier[:, 0::2] if limbs else frontier)

        def per_column(top):
            # T for frontier columns bounded by top (hi limbs on two limbs)
            top = [(h + 1) << _LIMB_BITS if limbs else h for h in top]
            return max((sum(c * f for c, f in zip(row, top))
                        for row in self.abs_rows), default=0)
        # T <= F*K for F the largest entry, so the column maxima are read
        # only when F*K does not fit the current kind
        bound = per_column([int(high.max())] * high.shape[1])
        if bound >= (_INT64_GUARD if kind is _INT64 else _WIDE_GUARD):
            bound = per_column(high.max(axis=0).tolist())
        if kind is _INT64 and bound < _INT64_GUARD:
            return _INT64
        if (self.gen_max < _WIDE_FACTOR and self.form_max < _WIDE_FORM
                and bound < _WIDE_GUARD):
            return _WIDE
        return _PY

    def run(self, max_len: int) -> None:
        codec = self.codec
        frontier, last = [codec.ident], [-1]
        if isinstance(codec, _ExactCodec):
            kind = _PY
        else:
            kind = _INT64
            frontier = np.array(frontier, dtype=np.int64)
            last = np.array(last, dtype=np.int16)
        older = frontier[:0]    # level L-2, in the form of the frontier
        for level in range(1, max_len + 1):
            step = self._kind(kind, frontier)
            if step is _WIDE and kind is _INT64:
                frontier, older = _widen(frontier), _widen(older)
            elif step is _PY and kind is not _PY:
                frontier = _py_rows(frontier, self.width)
                older = _py_rows(older, self.width)
                last = last.tolist()
            kind = step
            if kind is _PY:
                rows, links = self._py_level(frontier, last, older)
                new = len(rows)
            else:
                rows, links, new = self._np_level(frontier, last, older,
                                                  level == max_len)
            older = frontier
            if not new:
                break
            self.links.append(links)
            self._record(rows, level)
            frontier, last = rows, links[0]
            self.states += new
            self.max_level = level
            if self.states > self.cap:
                raise StateExplosion(
                    f"state count {self.states} exceeds cap {self.cap}")

    def _candidates(self, frontier, last):
        # per direction j, the columns of the canonical products x*dirs[j]
        # over the frontier rows x not reached by the inverse step; each
        # masked copy has contiguous columns and dies with np_mul; the
        # transpose of a column-major level is a view, not a copy
        block = np.ascontiguousarray(frontier.T)
        for j, (gen, form) in enumerate(zip(self.dirs, self.forms)):
            keep = last != self.inv_idx[j]
            if keep.any():
                yield j, keep, self.codec.np_mul(
                    _columns(np.compress(keep, block, axis=1).T, self.width),
                    gen, form)

    def _np_level(self, frontier, last, older, final=False):
        """The level after ``frontier`` on numpy rows, as (rows, links,
        number of new states): its new rows in generation order, and per
        row the direction that reached it first and the index of its parent
        in the frontier.  The ``final`` level is never a frontier, so only
        its in-bound rows, which may witness a trace, are returned.

        Numpy levels are column-major, so that each column is contiguous.
        The rows of the two old levels and then each direction's candidates
        are copied once into one array, with their hashes.  ``_first_rows``
        marks the first occurrence of each row.  The two old levels come
        first and are disjoint and deduplicated, so the marked candidates
        are the new states, each at the least direction j that reaches it;
        its parent is the frontier row x with x*dirs[j] the row, unique
        since rows are canonical.
        """
        n_old = len(older) + len(frontier)
        # every frontier row but the identity was reached by one direction
        # and skips the one step back, its inverse
        n = (n_old + len(self.dirs) * len(frontier)
             - int(np.count_nonzero(last >= 0)))
        if n == n_old:
            return frontier[:0], (last[:0], np.arange(0)), 0
        rows = np.empty((n, frontier.shape[1]), dtype=np.int64, order="F")
        hashes = np.empty(n, dtype=np.uint64)
        in_bound = np.empty(n - n_old, dtype=bool) if final else None
        # per direction: its frontier rows, as a mask, and its span
        sources = []
        at = 0
        for part in (older, frontier):
            end = at + len(part)
            rows[at:end] = part
            hashes[at:end] = _row_hash(rows[at:end])
            at = end
        for j, src, cols in self._candidates(frontier, last):
            flat = _flat(cols)
            end = at + len(flat[0])
            for k, col in enumerate(flat):
                rows[at:end, k] = col
            hashes[at:end] = _row_hash(rows[at:end])
            if final:
                in_bound[at - n_old:end - n_old] = self.codec.np_in_bound(
                    _linear(cols, self.codec.trace_form))
            sources.append((j, src, at, end))
            at = end
            del cols, flat      # before the next direction's products
        assert at == n
        keep = _first_rows(rows, hashes)
        del hashes
        keep[:n_old] = False
        new = int(np.count_nonzero(keep))
        if final:
            keep[n_old:] &= in_bound
        out = np.compress(keep, rows.T, axis=1).T
        del rows
        parents = [np.flatnonzero(src)[keep[at:end]]
                   for _, src, at, end in sources]
        dirs = np.repeat(np.array([j for j, *_ in sources], dtype=np.int16),
                         list(map(len, parents)))
        return out, (dirs, np.concatenate(parents)), new

    def _py_level(self, frontier, last, older):
        # the rule of _np_level on lists, as (rows, links): the first
        # occurrence of each row among the two old levels and then the
        # candidates, kept only if it is new, in generation order
        mul, inv_idx = self.codec.mul, self.inv_idx
        seen = set(older)
        seen.update(frontier)
        rows, dirs, parents = [], [], []
        for j, gen in enumerate(self.dirs):
            for x, (state, ld) in enumerate(zip(frontier, last)):
                if ld != inv_idx[j]:
                    row = mul(state, gen)
                    if row not in seen:
                        seen.add(row)
                        rows.append(row)
                        dirs.append(j)
                        parents.append(x)
        return rows, (dirs, parents)

    def _record(self, rows, level):
        """Record every trace key first met in a level, with the index of
        its witness there: the least row, in numeric order, that has it."""
        if isinstance(rows, np.ndarray):
            # trace_key reads only the trace columns, so the least in-bound
            # row of each distinct tuple of them is the least row of its key
            traces = _linear(_columns(rows, self.width), self.codec.trace_form)
            idx = np.flatnonzero(self.codec.np_in_bound(traces))
            # one group per distinct tuple, numbered one column at a time
            group = np.zeros(len(idx), dtype=np.int64)
            for col in _flat(traces):
                values, at = np.unique(col[idx], return_inverse=True)
                ids, group = np.unique(group * len(values) + at,
                                       return_inverse=True)
            # the least row of each group, one column at a time; level rows
            # are distinct, so one row per group is left
            for col in rows.T:
                if len(idx) == len(ids):
                    break
                least = np.full(len(ids), np.iinfo(np.int64).max)
                np.minimum.at(least, group, col[idx])
                keep = col[idx] == least[group]
                idx, group = idx[keep], group[keep]
            rows = zip(_py_rows(rows[idx], self.width), idx.tolist())
        else:
            rows = zip(rows, range(len(rows)))
        for row, i in sorted(rows):
            key = self.codec.trace_key(row)
            if key is not None and key not in self.traces:
                self.traces[key] = (level, i)

    def witness(self, level, i) -> str:
        """The word to state i of a level, read back along the links: at
        each step, the first direction that reaches the state from the
        level before."""
        word = []
        for lvl in range(level, 0, -1):
            dirs, parents = self.links[lvl]
            word.append(self.labels[dirs[i]])
            i = parents[i]
        return "*".join(reversed(word))

    def result(self) -> EnumerationResult:
        out = {}
        for key, (level, i) in sorted(self.traces.items()):
            out[self.codec.to_qv(key)] = self.witness(level, i)
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
