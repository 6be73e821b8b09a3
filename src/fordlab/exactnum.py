"""Exact arithmetic over Q and Q(sqrt(m)), with certified sign determination.

Every value here is immutable and every operation is exact.  The one
escape hatch is the adaptive-precision interval evaluator used for sign
queries on expressions with more than two radicals; it either certifies
a nonzero sign or raises ``PrecisionExhausted`` -- it never guesses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

_INTERVAL_START_BITS = 64
_INTERVAL_MAX_BITS = 2 ** 16
_SQUAREFREE_TRIAL_LIMIT = 10 ** 6


class MixedRadicand(ValueError):
    """Two irrational values from different quadratic rings were combined."""


class NotReal(ValueError):
    """A real-only comparison was attempted on a non-real value."""


class NotComplexModulus(ValueError):
    """Squared modulus is undefined for irrational real-quadratic values."""


class PrecisionExhausted(ArithmeticError):
    """Certified interval still straddles zero at the precision cap.

    This almost always signals an exact zero that should be handled
    symbolically by the caller.
    """


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def square_free_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s*q`` with q square-free; return (s, q).

    Uses trial division, so it is only meant for the moderate integers that
    occur as radicands and squared radii in domain constructions.
    """
    if n < 0:
        raise ValueError("square_free_decompose expects n >= 0")
    if n == 0:
        return 0, 0
    s, q = 1, 1
    m = n
    # strip perfect-square part of the small prime factors
    p = 2
    while p * p * p <= m and p <= _SQUAREFREE_TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                q *= p
        p += 1 if p == 2 else 2
    if m > 1:
        # every prime factor of m is at least p, since the loop divided out
        # all smaller ones, and three such factors make m >= p**3; so an
        # m < p**3 is a prime, a product of two primes (square-free unless
        # they are equal) or a square.  The loop stops at p**3 > m, or past
        # the trial limit, after which a larger m is refused
        r = isqrt(m)
        if r * r == m:
            s *= r
        elif m < p * p * p:
            q *= m
        else:
            raise ValueError(f"residual factor {m} too large to certify square-free")
    return s, q


def _sqrt_interval(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Outward-rounded rational enclosure of sqrt(q), q >= 0."""
    if q < 0:
        raise NotReal("negative radicand in real interval evaluation")
    if q == 0:
        return Fraction(0), Fraction(0)
    n, d = q.numerator, q.denominator
    big = n * d << (2 * bits)
    root = isqrt(big)
    denom = d << bits
    lo = Fraction(root, denom)
    hi = Fraction(root + 1, denom)
    return lo, hi


def _sign_one_radical(a: Fraction, b: Fraction, q: Fraction) -> int:
    """Exact sign of a + b*sqrt(q) with q >= 0 rational."""
    if b == 0 or q == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    sa, sb = _sign(a), _sign(b)
    if sa == sb:
        return sa
    t = _sign(a * a - b * b * q)
    if t == 0:
        return 0
    return sa if t > 0 else sb


def _sign_two_radicals(a: Fraction, b: Fraction, q: Fraction,
                       c: Fraction, r: Fraction) -> int:
    """Exact sign of a + b*sqrt(q) + c*sqrt(r), all radicands >= 0."""
    if q == r:
        return _sign_one_radical(a, b + c, q)
    if b == 0 or q == 0:
        return _sign_one_radical(a, c, r)
    if c == 0 or r == 0:
        return _sign_one_radical(a, b, q)
    # sign of L = b*sqrt(q) + c*sqrt(r)
    sb, sc = _sign(b), _sign(c)
    if sb == sc:
        s_l = sb
    else:
        t = _sign(b * b * q - c * c * r)
        s_l = sb if t > 0 else (sc if t < 0 else 0)
    if a == 0:
        return s_l
    if s_l == 0:
        return _sign(a)
    sa = _sign(a)
    if sa == s_l:
        return sa
    # opposite signs: compare |L|^2 = b^2 q + c^2 r + 2bc*sqrt(qr) with a^2
    t = _sign_one_radical(b * b * q + c * c * r - a * a, 2 * b * c, q * r)
    if t == 0:
        return 0
    return s_l if t > 0 else sa


class RadicalExpr:
    """A real number of the form base + sum(c_i * sqrt(q_i)), q_i >= 0 rational.

    Signs are decided exactly for up to two distinct radicands (the only
    shape the geometry ever produces); longer expressions fall back to
    certified interval evaluation.
    """

    __slots__ = ("base", "terms")

    def __init__(self, base=0, terms=()):
        self.base = _frac(base)
        merged: dict[Fraction, Fraction] = {}
        extra = Fraction(0)
        for coeff, rad in terms:
            coeff, rad = _frac(coeff), _frac(rad)
            if rad < 0:
                raise NotReal("RadicalExpr radicands must be nonnegative")
            if coeff == 0 or rad == 0:
                continue
            rn, rd = rad.numerator, rad.denominator
            sn, sd = isqrt(rn), isqrt(rd)
            if sn * sn == rn and sd * sd == rd:
                extra += coeff * Fraction(sn, sd)
                continue
            merged[rad] = merged.get(rad, Fraction(0)) + coeff
        self.base += extra
        self.terms = tuple(sorted(
            ((c, r) for r, c in merged.items() if c != 0),
            key=lambda t: (t[1], t[0]),
        ))

    def __repr__(self):
        parts = [str(self.base)] + [f"{c}*sqrt({r})" for c, r in self.terms]
        return "RadicalExpr(" + " + ".join(parts) + ")"

    def __neg__(self) -> RadicalExpr:
        return RadicalExpr(-self.base, tuple((-c, r) for c, r in self.terms))

    def __add__(self, other) -> RadicalExpr:
        if isinstance(other, RadicalExpr):
            return RadicalExpr(self.base + other.base, self.terms + other.terms)
        return RadicalExpr(self.base + _frac(other), self.terms)

    def __sub__(self, other) -> RadicalExpr:
        return self + (-other if isinstance(other, RadicalExpr)
                       else RadicalExpr(-_frac(other)))

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        lo, hi = self.base, self.base
        for coeff, rad in self.terms:
            slo, shi = _sqrt_interval(rad, bits)
            if coeff >= 0:
                lo += coeff * slo
                hi += coeff * shi
            else:
                lo += coeff * shi
                hi += coeff * slo
        return lo, hi

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        n = len(self.terms)
        if n == 0:
            return _sign(self.base)
        if n == 1:
            (c, q), = self.terms
            return _sign_one_radical(self.base, c, q)
        if n == 2:
            (c1, q1), (c2, q2) = self.terms
            return _sign_two_radicals(self.base, c1, q1, c2, q2)
        bits = _INTERVAL_START_BITS
        while bits <= _INTERVAL_MAX_BITS:
            lo, hi = self.interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise PrecisionExhausted(
            f"sign of {self!r} undecided at {_INTERVAL_MAX_BITS} bits")

    def to_quadvalue(self) -> QuadValue:
        """Convert to a QuadValue when at most one radical survives."""
        if not self.terms:
            return QuadValue(self.base)
        if len(self.terms) == 1:
            (c, q), = self.terms
            root = sqrt_qv(q)
            return QuadValue(self.base, c * root.b, root.m)
        raise ValueError("expression carries two independent radicals")


class QuadValue:
    """An exact element a + b*sqrt(m) of Q or a quadratic field Q(sqrt(m)).

    ``m`` is a square-free integer (negative for imaginary quadratic
    fields, with sqrt(m) = i*sqrt(|m|)) or 0 for plain rationals.  Values
    with b = 0 are stored with m = 0 and mix freely with any ring.

    The value is held as four ints, (p + q*sqrt(m))/n with n > 0 and
    gcd(p, q, n) = 1, so each value has exactly one representation; ``a``
    and ``b`` are p/n and q/n.
    """

    __slots__ = ("_p", "_q", "_n", "m")

    def __init__(self, a=0, b=0, m=0):
        pa, da = _ratio(a)
        pb, db = _ratio(b)
        if not isinstance(m, int):
            raise TypeError("radicand must be an int")
        if m == 0:
            pb = 0
        elif pb != 0 and m != 1:
            s, r = square_free_decompose(abs(m))
            pb *= s
            m = r if m > 0 else -r
        p, q, n = pa * db, pb * da, da * db
        if m == 1:
            p, q = p + q, 0
        _init(self, p, q, n, m)

    def __setattr__(self, *args):
        raise AttributeError("QuadValue is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._n)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._n)

    def ints(self) -> tuple[int, int, int]:
        """The integers (p, q, n) of the value (p + q*sqrt(m))/n, with
        n > 0 and gcd(p, q, n) = 1: a = p/n and b = q/n, with no Fraction
        built."""
        return self._p, self._q, self._n

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    @property
    def is_real(self) -> bool:
        return self._q == 0 or self.m > 0

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    # -- ring structure ------------------------------------------------

    def _coerce(self, other) -> QuadValue:
        if isinstance(other, QuadValue):
            return other
        p, n = _ratio(other)
        return _make(p, 0, n, 0)

    def _join_ring(self, other: QuadValue) -> int:
        if self._q == 0:
            return other.m
        if other._q == 0:
            return self.m
        if self.m != other.m:
            raise MixedRadicand(f"cannot combine sqrt({self.m}) with sqrt({other.m})")
        return self.m

    def __add__(self, other):
        o = self._coerce(other)
        m = self._join_ring(o)
        n1, n2 = self._n, o._n
        if n1 == n2:
            return _make(self._p + o._p, self._q + o._q, n1, m)
        return _make(self._p * n2 + o._p * n1, self._q * n2 + o._q * n1,
                     n1 * n2, m)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._n, self.m)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        m = self._join_ring(o)
        p1, q1, p2, q2 = self._p, self._q, o._p, o._q
        return _make(p1 * p2 + q1 * q2 * m, p1 * q2 + q1 * p2,
                     self._n * o._n, m)

    __rmul__ = __mul__

    def inverse(self) -> QuadValue:
        p, q, m = self._p, self._q, self.m
        if p == 0 and q == 0:
            raise ZeroDivisionError("inverse of zero")
        norm = p * p - q * q * m
        if norm == 0:
            raise ZeroDivisionError("zero divisor (non-square-free radicand?)")
        return _make(self._n * p, -self._n * q, norm, m)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def conj(self) -> QuadValue:
        """Radical conjugate a - b*sqrt(m); the complex conjugate when m < 0."""
        return _make(self._p, -self._q, self._n, self.m)

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, QuadValue):
            return NotImplemented
        return (self._p == other._p and self._q == other._q
                and self._n == other._n and self.m == other.m)

    def __hash__(self):
        return hash((self._p, self._q, self._n, self.m))

    # -- real comparisons ------------------------------------------------

    def sign_real(self) -> int:
        if not self.is_real:
            raise NotReal(f"{self} is not real")
        return _sign_one_radical(self._p, self._q, self.m)

    def cmp_real(self, other) -> int:
        o = self._coerce(other)
        if not self.is_real or not o.is_real:
            raise NotReal("ordering is defined for real values only")
        if self._q and o._q and self.m != o.m:
            return RadicalExpr(self.a - o.a, ((self.b, Fraction(self.m)),
                                              (-o.b, Fraction(o.m)))).sign()
        n1, n2 = self._n, o._n
        return _sign_one_radical(self._p * n2 - o._p * n1,
                                 self._q * n2 - o._q * n1, self.m or o.m)

    def __lt__(self, other):
        return self.cmp_real(other) < 0

    def __le__(self, other):
        return self.cmp_real(other) <= 0

    def __gt__(self, other):
        return self.cmp_real(other) > 0

    def __ge__(self, other):
        return self.cmp_real(other) >= 0

    def __abs__(self):
        return -self if self.sign_real() < 0 else self

    def abs2(self) -> Fraction:
        """|x|^2 for complex (m <= 0) or rational values, always a Fraction."""
        if self.m > 0:
            raise NotComplexModulus(
                "squared modulus is not rational for real-quadratic irrationals")
        p, q = self._p, self._q
        return Fraction(p * p - self.m * q * q, self._n * self._n)

    def to_fraction(self) -> Fraction:
        if self._q != 0:
            raise ValueError(f"{self} is not rational")
        return self.a

    def to_radical(self) -> RadicalExpr:
        if not self.is_real:
            raise NotReal("only real values convert to RadicalExpr")
        return RadicalExpr(self.a, ((self.b, Fraction(self.m)),))

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return qv_format(self)

    def __repr__(self):
        return f"QuadValue({self.a!r}, {self.b!r}, {self.m!r})"


_set_p = QuadValue._p.__set__
_set_q = QuadValue._q.__set__
_set_n = QuadValue._n.__set__
_set_m = QuadValue.m.__set__
_new = object.__new__


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational given as int, Fraction or str."""
    if isinstance(x, int):
        return x, 1
    x = _frac(x)
    return x.numerator, x.denominator


def _init(v: QuadValue, p: int, q: int, n: int, m: int) -> None:
    """Store (p + q*sqrt(m))/n in canonical form, for n != 0 and m
    square-free and not 1 (m is dropped when q = 0)."""
    if n < 0:
        p, q, n = -p, -q, -n
    if q == 0:
        m = 0
    g = gcd(p, q, n)
    if g != 1:
        p, q, n = p // g, q // g, n // g
    _set_p(v, p)
    _set_q(v, q)
    _set_n(v, n)
    _set_m(v, m)


def _make(p: int, q: int, n: int, m: int) -> QuadValue:
    """The QuadValue (p + q*sqrt(m))/n, on the terms of :func:`_init`."""
    v = _new(QuadValue)
    _init(v, p, q, n, m)
    return v


def qv(x) -> QuadValue:
    """Coerce an int, Fraction, or QuadValue to a QuadValue."""
    if isinstance(x, QuadValue):
        return x
    return QuadValue(x)


def sqrt_qv(q) -> QuadValue:
    """Exact sqrt of a nonnegative rational as a QuadValue b*sqrt(m)."""
    q = _frac(q)
    if q < 0:
        raise NotReal("sqrt_qv expects a nonnegative rational")
    if q == 0:
        return QuadValue(0)
    n, d = q.numerator, q.denominator
    s, m = square_free_decompose(n * d)
    return _make(s, 0, d, 0) if m == 1 else _make(0, s, d, m)


_RAT = r"[+-]?\d+(?:/\d+)?"
_QV_FULL_RE = re.compile(
    rf"^(?P<a>{_RAT})(?P<b>[+-]\d+(?:/\d+)?)\*sqrt\((?P<m>-?\d+)\)$")
_QV_RADICAL_RE = re.compile(rf"^(?P<b>{_RAT})\*sqrt\((?P<m>-?\d+)\)$")
_QV_PLAIN_RE = re.compile(rf"^(?P<a>{_RAT})$")


def qv_format(v: QuadValue) -> str:
    """Canonical text form: ``p/q`` or ``p/q+r/s*sqrt(m)``, no whitespace."""
    v = qv(v)
    if v.b == 0:
        return str(v.a)
    rad = f"{v.b}*sqrt({v.m})" if v.b < 0 else f"+{v.b}*sqrt({v.m})"
    if v.a == 0:
        return rad.lstrip("+")
    return f"{v.a}{rad}"


def qv_parse(text: str) -> QuadValue:
    """Parse the QuadValue text form; inverse of :func:`qv_format`."""
    s = text.strip()
    match = _QV_FULL_RE.match(s)
    if match:
        return QuadValue(Fraction(match.group("a")), Fraction(match.group("b")),
                         int(match.group("m")))
    match = _QV_RADICAL_RE.match(s)
    if match:
        return QuadValue(0, Fraction(match.group("b")), int(match.group("m")))
    match = _QV_PLAIN_RE.match(s)
    if match:
        return QuadValue(Fraction(match.group("a")))
    raise ValueError(f"malformed QuadValue text: {text!r}")
