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
coordinate.  A frontier row skips the directions that can only repeat
another candidate: the inverse of the direction that reached it, and the
earlier directions that commute with that one (see ``_Search``).  Every
level keeps the first occurrence of each new row in generation order:
Python-int and exact levels by a set, numpy levels by dropping the rows
that repeat an earlier one, which only the runs of equal hash in the
sorted row hashes can hold (``_repeats``).  So each state's link names the
first direction that reaches it from the level before, and each trace is
witnessed by the least state, in numeric row order, that has it.  A numpy
level makes no candidate rows: their hashes, and on the last level their
trace columns, are linear forms mod 2**64 in the frontier rows.  Exact
rows are made only for the candidates whose hash another row shares and
for the new ones; the last level is never a frontier, so of its new
candidates only those that may be in bound are made.  A row hash reads
coordinate values, so an int64 row and its two limbs hash alike; each
level's hashes are made once, with the level.
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


def _mix64(x):
    """The splitmix64 finalizer, a bijection of 64-bit words, elementwise
    and in place on a uint64 array."""
    x ^= x >> 30
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> 27
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> 31
    return x


# one fixed odd multiplier C_k per coordinate, at most eight; unrelated
# constants, since a row hash that is linear in its coordinates collides on
# rows x, y with sum((x - y) * C) = 0 mod 2**64
_HASH_MULS = (_mix64(np.arange(1, 9, dtype=np.uint64)
                     * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)).tolist()


def _wrapped(cols, form):
    """The int64 columns sum_k form[i][k] * cols[k] mod 2**64, one per row i
    of the form, for int64 or limb columns and coefficients of any size:
    ``_linear`` on int64 columns wraps, and a limb column counts as
    hi * 2**31 + lo."""
    if isinstance(cols[0], _Limbs):
        cols = _flat(cols)
        form = [[c << s for c in coefs for s in (_LIMB_BITS, 0)]
                for coefs in form]
    return _linear(cols, [[(c + (1 << 63)) % (1 << 64) - (1 << 63)
                           for c in coefs] for coefs in form])


def _compose(rows, form):
    """The forms in x of rows applied to the outputs of form: sum_i
    row[i] * form[i][k] for each column k.  A row longer than the form has
    outputs reads none past them."""
    return [[sum(t * f[k] for t, f in zip(row, form))
             for k in range(len(form[0]))] for row in rows]


def _scale_bits(col):
    # the int64 scale column e of a normalizer row: 0 or 1
    return col.lo if isinstance(col, _Limbs) else col


def _fold_mix(s, e=None, times_p=None, p=None):
    """The row hash from the sums s of _row_hash (overwritten): s times p
    where times_p holds, folded to min(s, -s mod 2**64), C_4 * e added,
    then ``_mix64``."""
    if times_p is not None:
        np.multiply(s, np.uint64(p), out=s, where=times_p)
    np.minimum(s, np.negative(s), out=s)
    if e is not None:
        np.add(s, np.uint64(_HASH_MULS[4]), out=s, where=e != 0)
    return _mix64(s)


def _row_hash(cols, p=None):
    """A uint64 hash of each row, given as its int64 or limb columns.

    The sum s = sum_k C_k * y_k mod 2**64 is folded to min(s, -s), so a row
    and its negation hash alike, and then mixed by ``_mix64``, so that the
    top bits depend on every bit of the row.  A limb column contributes its
    value mod 2**64, so a row hashes alike on int64 and on two limbs.  With
    a radicand p the sum runs over a, b, c and d only and is multiplied by
    p^(1 - e) before the fold, and C_4 * e is added after it: a product of
    two scaled states then hashes as its undivided form times 1, which
    ``_product_hash`` reads without dividing.  Equal rows hash equal;
    callers compare rows that share a hash exactly."""
    if p is None:
        return _fold_mix(_wrapped(cols, [_HASH_MULS])[0].view(np.uint64))
    e = _scale_bits(cols[4])
    s = _wrapped(cols[:4], [_HASH_MULS])[0].view(np.uint64)
    return _fold_mix(s, e, e == 0, p)


def _product_hash(cols, gen, hash_form, p=None):
    """``_row_hash`` of the canonical products x*gen, read off the int64 or
    limb columns of the rows x without making the products.

    ``hash_form``, the constants C_k composed with gen's matrix, gives the
    sum s = C . M of the undivided product M.  The canonical product is
    +-M, and the fold hides the sign.  With a radicand p it is +-M / p, of
    scale 0, where x and gen are both scaled: its sum +-s / p times p is
    s.  Where gen is unscaled the product keeps x's scale e, and its sum
    is +-s, multiplied by p where e is 0."""
    s = _wrapped(cols, [hash_form])[0].view(np.uint64)
    if p is None:
        return _fold_mix(s)
    e = _scale_bits(cols[4])
    if gen[4]:
        return _fold_mix(s, e ^ 1)
    return _fold_mix(s, e, e == 0, p)


# keys per chunk of the passes over a level's sort keys
_CHUNK = 1 << 16


def _repeats(hashes, gather):
    """The sorted positions of the rows, given their ``_row_hash`` values,
    that repeat a row at an earlier position.  The hashes are overwritten.
    ``gather(pos)`` yields the int64 columns of the rows at the positions
    pos, one column at a time.

    One in-place ``np.sort`` of the hashes, with the row positions packed
    into their low bits, puts rows that share the top bits of their hash
    next to each other, each run in position order.  Only the members of
    the runs of two or more are read, and neighbours among them compared
    exactly: in a run whose rows are all equal every member but the first
    repeats; a run that holds two different rows is resolved with a Python
    set over that run only.  The passes over the keys go in chunks of
    ``_CHUNK`` keys, so that besides the keys no array is n long: each
    holds one entry per member or per repeat.
    """
    n = len(hashes)
    mask = np.uint64((1 << (n - 1).bit_length()) - 1)
    key = hashes        # sorted in place
    key &= ~mask
    for i in range(0, n, _CHUNK):
        key[i:i + _CHUNK] |= np.arange(i, min(i + _CHUNK, n), dtype=np.uint64)
    key.sort()
    # in hash order: the keys whose top bits equal those of the key before
    tail = np.concatenate([np.arange(0)] + [
        np.flatnonzero(key[i:end] ^ key[i - 1:end - 1] <= mask) + i
        for i, end in ((i, min(i + _CHUNK, n)) for i in range(1, n, _CHUNK))])
    if not len(tail):
        return tail
    # the members: each stretch of consecutive tail keys, its head inserted
    # before it; where in them each run starts, and their end
    at = np.flatnonzero(np.diff(tail, prepend=-2) != 1)
    members = np.insert(tail, at, tail[at] - 1)
    heads = np.append(at + np.arange(len(at)), len(members))
    del tail, at
    pos = key[members].view(np.int64)
    del members
    pos &= int(mask)
    differs = np.zeros(len(pos) - 1, dtype=bool)
    for col in gather(pos):
        differs |= col[1:] != col[:-1]
    repeat = np.ones(len(pos), dtype=bool)
    repeat[heads[:-1]] = False
    # neighbours in one run whose rows differ
    bad = np.flatnonzero(differs & repeat[1:])
    for r in np.unique(np.searchsorted(heads, bad, side="right") - 1).tolist():
        run = slice(*heads[r:r + 2].tolist())
        seen = set()
        for k, row in enumerate(zip(*(col.tolist() for col in gather(
                pos[run]))), run.start):
            repeat[k] = row in seen
            seen.add(row)
    out = pos[repeat]
    out.sort()
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

    def _scale(self, prod, e, gen):
        # the columns prod of the products x*gen, divided by p where x and
        # gen are both scaled, then the products' scale column; e is x's,
        # 0 or 1
        if gen[4]:
            div = 1 + (self.p - 1) * _sign(e)
            prod = [v // div for v in prod]
            e = _Limbs(e.hi, e.lo ^ 1) if isinstance(e, _Limbs) else e ^ 1
        return prod + [e]

    def np_mul(self, cols, gen, form):
        # the int64 or limb columns of the canonical rows x*gen, by form
        prod = _linear(cols, form)
        if self.p is not None:
            prod = self._scale(prod, cols[4], gen)
        # the first nonzero entry of (c, a, b, d) becomes positive
        leads = lambda c: iter((c[2], c[0], c[1], c[3]))
        return _make_positive(prod[:4], leads) + prod[4:]

    def np_in_bound(self, traces):
        if self.p is None:
            return _within(traces[0], self.bound_floor)
        return np.where(_sign(traces[1]) > 0,
                        _within(traces[0], self.rad_floor * self.p),
                        _within(traces[0], self.bound_floor))

    def np_maybe_in_bound(self, cols, gen, traces):
        """A mask over the products x*gen of the rows cols that holds where
        the product's trace is in bound, and maybe elsewhere.  traces are
        the trace columns of the undivided products, wrapped to int64.  A
        trace in bound below 2**63 wraps to itself, and where a limit
        reaches 2**63 every int64 passes; the floor division by p of a
        wrapped trace is exact, or bounded by 2**63 / p where the limit is
        at least that."""
        if self.p is not None:
            traces = self._scale(traces[:1], cols[4], gen)
        return self.np_in_bound(traces)

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

    p = None        # no scale column

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

    def np_maybe_in_bound(self, cols, gen, traces):
        # as for _IntCodec: a trace in bound wraps to itself, or the limit
        # passes every int64
        return self.np_in_bound(traces)

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
    """Level-synchronous frontier search over the words in a generator set.

    The candidates of a level are the products x*g_j of the frontier rows x
    with each direction g_j, except where ``skip[j][l]`` holds for the
    direction l that first reached x: l is the inverse of j, so x*g_j is
    x's parent, or l < j and g_l*g_j = g_j*g_l, so x*g_j repeats a product
    that an earlier direction may reach.  The table is read off the codec's
    own product once per search.  Skipping keeps every new state and its
    link.  Let c be a new state of level L+1, j* the least direction with
    p* = c*g_{j*}^-1 in level L, so that (j*, p*) is c's first occurrence
    in generation order, and let p* have been reached first by direction a
    from q in level L-1.  If a is the inverse of j*, c = q is old.  If
    a < j* and g_a commutes with g_{j*}, then c*g_a^-1 = q*g_{j*} lies in
    level L, against the choice of j*, or lower, and then c is old.  So
    (j*, p*) is never skipped: the first occurrence of each new state, and
    with it its link and the count of new states, stay as they were.
    """

    def __init__(self, codec, gens, cap: int):
        self.codec = codec
        dirs, self.labels, inv_idx = _directions(gens)
        self.dirs = [self.codec.entries(g) for g in dirs]
        self.width = len(codec.ident)    # coordinates per integer row
        self.cap = cap
        # column len(dirs) stands for the identity's last direction, -1
        self.skip = np.zeros((len(dirs), len(dirs) + 1), dtype=bool)
        for j, g in enumerate(self.dirs):
            self.skip[j, inv_idx[j]] = True
            for l, h in enumerate(self.dirs[:j]):
                if codec.mul(h, g) == codec.mul(g, h):
                    self.skip[j, l] = True
        if not isinstance(codec, _ExactCodec):
            # x*g as linear forms in the row x: row i of g's matrix, read off
            # the codec's own product of the unit rows with g, is coordinate i
            units = np.eye(self.width, dtype=int).tolist()
            self.forms = [list(zip(*(codec._product(u, g) for u in units)))
                          for g in self.dirs]
            # forms in x of the undivided x*g: its hash sum and its trace
            # columns (see _np_level)
            self.hash_forms = [_compose([_HASH_MULS], form)[0]
                               for form in self.forms]
            self.trace_forms = [_compose(codec.trace_form, form)
                                for form in self.forms]
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
        high = frontier[:, 0::2] if limbs else frontier

        def per_column(top):
            # T for frontier columns bounded by top (hi limbs on two limbs)
            top = [(h + 1) << _LIMB_BITS if limbs else h for h in top]
            return max((sum(c * f for c, f in zip(row, top))
                        for row in self.abs_rows), default=0)
        # T <= F*K for F the largest entry, so the column maxima are read
        # only when F*K does not fit the current kind
        bound = per_column([max(int(high.max()), -int(high.min()))]
                           * high.shape[1])
        if bound >= (_INT64_GUARD if kind is _INT64 else _WIDE_GUARD):
            bound = per_column(map(max, high.max(axis=0).tolist(),
                                   (-high.min(axis=0)).tolist()))
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
            # the row hashes of older and of the frontier
            hashes = [self._hash(frontier[:0]), self._hash(frontier)]
        older = frontier[:0]    # level L-2
        for level in range(1, max_len + 1):
            step = self._kind(kind, frontier)
            if step is _PY and kind is not _PY:
                frontier = _py_rows(frontier, self.width)
                older = _py_rows(older, self.width)
                last = last.tolist()
            kind = step
            if kind is _PY:
                rows, links = self._py_level(frontier, last, older)
                new = len(rows)
            else:
                rows, row_hashes, links, new = self._np_level(
                    frontier, last, older, hashes, kind, level == max_len)
                hashes = [hashes[1], row_hashes]
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

    def _keeps(self, last):
        # per direction j, the mask of the frontier rows x that j does not
        # skip: the last direction of x is none that skip[j] marks
        keeps = []
        for marks in self.skip:
            keep = np.ones(len(last), dtype=bool)
            for l in np.flatnonzero(marks).tolist():
                keep &= last != l
            keeps.append(keep)
        return keeps

    def _hash(self, rows):
        return _row_hash(_columns(rows, self.width), self.codec.p)

    def _widened(self, rows, wide):
        # numpy rows, on two limbs when the level is wide
        return _widen(rows) if wide and rows.shape[1] == self.width else rows

    def _exact(self, rows, j, wide):
        # the columns of the canonical products x*dirs[j] of numpy rows x,
        # on two limbs when the level is wide
        return self.codec.np_mul(_columns(self._widened(rows, wide),
                                          self.width),
                                 self.dirs[j], self.forms[j])

    def _np_level(self, frontier, last, older, hashes, kind, final):
        """The level after ``frontier`` on numpy rows of the given kind, as
        (rows, hashes, links, number of new states): its new rows in
        generation order with their row hashes, and per row the direction
        that reached it first and the index of its parent in the frontier.
        ``hashes`` holds the row hashes of ``older`` and of the frontier.
        The last level (``final``) is never a frontier: it keeps only its
        new rows that may be in bound, which may witness a trace, with
        their links, and no hashes.

        The hashes of the two old levels, then of each direction's
        candidates, go into one array, and ``_repeats`` finds the positions
        of the rows that repeat an earlier one.  A candidate x*g_j is hashed
        off the frontier row x by ``hash_forms[j]`` (``_product_hash``), in
        blocks of ``_CHUNK`` rows, and only the hashes are compressed by the
        skip table's mask.  The two old levels come first and are disjoint
        and deduplicated, so every repeat is a candidate, and the others,
        each direction's span of the array less its repeats, are the new
        states, each at the least direction j that reaches it; its parent
        is the frontier row x with x*g_j the row, unique since rows are
        canonical.  Exact rows, on int64 or on two limbs as the kind says,
        are made only for the candidates that share a hash with another
        row, from their links inside ``_repeats`` (``_gather``), and for the
        new ones, of which the last level makes only those that pass the
        codec's ``np_maybe_in_bound`` on the forms ``trace_forms[j]``
        wrapped to int64; ``_record`` tests them exactly.  The level's rows
        are column-major, so that each column is contiguous.
        """
        wide = kind is _WIDE
        n_old = len(older) + len(frontier)
        keeps = self._keeps(last)
        key = np.empty(n_old + sum(map(int, map(np.count_nonzero, keeps))),
                       dtype=np.uint64)
        key[:len(older)], key[len(older):n_old] = hashes
        cols = _columns(frontier, self.width)
        codec = self.codec
        # per direction with candidates: j, its span in key, and on the last
        # level the offsets there of the candidates that may be in bound
        parts = []
        at = n_old
        for j, (gen, keep) in enumerate(zip(self.dirs, keeps)):
            start, offsets = at, []
            for i in range(0, len(frontier) if keep.any() else 0, _CHUNK):
                block = [_take(col, slice(i, i + _CHUNK)) for col in cols]
                kept = keep[i:i + _CHUNK]
                end = at + int(np.count_nonzero(kept))
                np.compress(kept, _product_hash(
                    block, gen, self.hash_forms[j], codec.p), out=key[at:end])
                if final:
                    traces = _wrapped(block, self.trace_forms[j])
                    maybe = codec.np_maybe_in_bound(block, gen, traces)
                    offsets.append(np.flatnonzero(maybe[kept]) + (at - start))
                at = end
            if at > start:
                parts.append((j, start, at,
                              np.concatenate(offsets) if final else None))
        if not parts:
            return frontier[:0], None, (last[:0], np.arange(0)), 0
        starts = np.array([0, len(older)] + [start for _, start, *_ in parts])
        sources = [older, frontier] + [j for j, *_ in parts]
        repeats = _repeats(key, lambda pos: self._gather(
            pos, starts, sources, frontier, keeps, wide))
        new = len(key) - n_old - len(repeats)
        del key
        # per direction: j and the frontier rows x whose x*g_j is kept
        picks = []
        for j, start, end, offsets in parts:
            lo, hi = np.searchsorted(repeats, (start, end)).tolist()
            drop = repeats[lo:hi] - start
            if final and len(drop):
                # the offsets that may be in bound, less the dropped ones
                hit = drop.take(np.searchsorted(drop, offsets), mode="clip")
                offsets = offsets[hit != offsets]
            x = np.flatnonzero(keeps[j])
            picks.append((j, x[offsets] if final else np.delete(x, drop)))
        sizes = [len(x) for _, x in picks]
        rows = np.empty((sum(sizes), (1 + wide) * self.width),
                        dtype=np.int64, order="F")
        at = 0
        for (j, x), size in zip(picks, sizes):
            for k, col in enumerate(_flat(self._exact(frontier[x], j, wide))):
                rows[at:at + size, k] = col
            at += size
        dirs = np.repeat(np.array([j for j, _ in picks], dtype=np.int16),
                         sizes)
        parents = np.concatenate([x for _, x in picks])
        return (rows, None if final else self._hash(rows), (dirs, parents),
                new)

    def _gather(self, pos, starts, sources, frontier, keeps, wide):
        """The int64 columns of the rows at positions pos of a level's hash
        array, yielded one column at a time, on two limbs when the level is
        wide: the rows that ``_repeats`` compares, the members of the runs
        of equal hash.  The array holds, from each of ``starts`` on, the
        rows of ``sources``: an old level, whose rows are widened where the
        level is wide and they are not, or a direction j, whose candidates
        are rebuilt from their links, one batch per direction."""
        part = np.searchsorted(starts, pos, side="right") - 1
        batches = []        # (where in pos, the columns of its rows)
        for s in np.unique(part).tolist():
            where = np.flatnonzero(part == s)
            idx = pos[where] - starts[s]
            source = sources[s]
            if isinstance(source, int):
                x = np.flatnonzero(keeps[source])[idx]
                cols = _flat(self._exact(frontier[x], source, wide))
            else:
                cols = self._widened(source[idx], wide).T
            batches.append((where, cols))
        for k in range(len(batches[0][1])):
            col = np.empty(len(pos), dtype=np.int64)
            for where, cols in batches:
                col[where] = cols[k]
            yield col

    def _py_level(self, frontier, last, older):
        # the rule of _np_level on lists, as (rows, links): the first
        # occurrence of each row among the two old levels and then the
        # candidates, kept only if it is new, in generation order
        mul = self.codec.mul
        seen = set(older)
        seen.update(frontier)
        rows, dirs, parents = [], [], []
        for j, gen in enumerate(self.dirs):
            skip = self.skip[j].tolist()
            for x, (state, ld) in enumerate(zip(frontier, last)):
                if not skip[ld]:
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
        if isinstance(rows, np.ndarray) and len(rows):
            # trace_key reads only the trace columns, so the least in-bound
            # row of each distinct tuple of them is the least row of its key;
            # they are made in blocks of _CHUNK rows and kept where in bound
            idx, parts = [], []
            for i in range(0, len(rows), _CHUNK):
                traces = _linear(_columns(rows[i:i + _CHUNK], self.width),
                                 self.codec.trace_form)
                ok = self.codec.np_in_bound(traces)
                idx.append(np.flatnonzero(ok) + i)
                parts.append([half[ok] for half in _flat(traces)])
            idx = np.concatenate(idx)
            # one group per distinct tuple, numbered one column at a time
            group = np.zeros(len(idx), dtype=np.int64)
            for col in map(np.concatenate, zip(*parts)):
                values, at = np.unique(col, return_inverse=True)
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
