"""PSL2 elements over quadratic rings: arithmetic, traces, classification.

Elements are determinant-1 matrices stored sign-normalized, so structural
equality is equality in PSL2 and the values can key sets and dicts during
word enumeration.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction

from fordlab.exactnum import (
    MixedRadicand,
    NotReal,
    QuadValue,
    qv,
    qv_format,
    qv_parse,
)


class NotIntegral(ValueError):
    """Congruence predicates need rational-integer entries."""


class ElementClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    LOXODROMIC = "loxodromic"


def _canonically_positive(v: QuadValue) -> bool:
    p, q, _ = v.ints()
    return p > 0 or (p == 0 and q > 0)


class MoebiusElement:
    """A 2x2 determinant-1 matrix over one quadratic ring, up to sign.

    Sign normalization: the first nonzero entry among (c, a, b, d) is made
    canonically positive (rational part > 0, or rational part 0 and radical
    coefficient > 0).  The identity is already canonical.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = qv(a), qv(b), qv(c), qv(d)
        ring = 0
        for v in (a, b, c, d):
            if not v.is_rational:
                if ring and v.m != ring:
                    raise MixedRadicand("matrix entries span two quadratic rings")
                ring = v.m
        det = a * d - b * c
        if det != QuadValue(1):
            raise ValueError(f"determinant is {det}, not 1")
        for v in (c, a, b, d):
            if not v.is_zero():
                if not _canonically_positive(v):
                    a, b, c, d = -a, -b, -c, -d
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("MoebiusElement is immutable")

    # -- group operations ------------------------------------------------

    def __mul__(self, other: MoebiusElement) -> MoebiusElement:
        return MoebiusElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> MoebiusElement:
        return MoebiusElement(self.d, -self.b, -self.c, self.a)

    def __pow__(self, k: int) -> MoebiusElement:
        if k < 0:
            return self.inv() ** (-k)
        result = identity()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate_by(self, g: MoebiusElement) -> MoebiusElement:
        return g * self * g.inv()

    # -- traces and classification ----------------------------------------

    def trace(self) -> QuadValue:
        return self.a + self.d

    def canonical_trace(self) -> QuadValue:
        return canonicalize_trace(self.trace())

    def is_identity(self) -> bool:
        return (self.b.is_zero() and self.c.is_zero()
                and self.a == QuadValue(1) and self.d == QuadValue(1))

    def classify(self) -> ElementClass:
        if self.is_identity():
            return ElementClass.IDENTITY
        t = self.trace()
        if not t.is_real:
            return ElementClass.LOXODROMIC
        c = abs(t).cmp_real(QuadValue(2))
        if c < 0:
            return ElementClass.ELLIPTIC
        if c == 0:
            return ElementClass.PARABOLIC
        return ElementClass.HYPERBOLIC

    # -- upper half-plane action (real entries) ----------------------------

    def apply_to_point(self, x: QuadValue, y: QuadValue) -> tuple[QuadValue, QuadValue]:
        """Exact image of z = x + iy under the fractional-linear action."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if not all(v.is_real for v in (a, b, c, d)):
            raise NotReal("half-plane action needs real entries")
        num_re = (a * x + b) * (c * x + d) + a * c * y * y
        den = (c * x + d) * (c * x + d) + c * c * y * y
        return num_re / den, y / den

    def apply_to_boundary(self, z: QuadValue) -> QuadValue:
        """Image of a boundary point z in C (must not be the pole -d/c)."""
        den = self.c * z + self.d
        if den.is_zero():
            raise ZeroDivisionError("z is the pole of the transformation")
        return (self.a * z + self.b) / den

    # -- structural identity ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MoebiusElement):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def key(self):
        v = []
        for e in (self.a, self.b, self.c, self.d):
            v.extend((e.a, e.b, e.m))
        return tuple(v)

    def __str__(self):
        return mm_format(self)

    def __repr__(self):
        return f"MoebiusElement({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def identity() -> MoebiusElement:
    return MoebiusElement(1, 0, 0, 1)


def from_ints(a: int, b: int, c: int, d: int) -> MoebiusElement:
    return MoebiusElement(a, b, c, d)


def canonicalize_trace(t: QuadValue) -> QuadValue:
    """Pick the representative of {t, -t} with positive rational part.

    Ties (rational part zero) go to nonnegative radical coefficient, which
    totalizes the plus-minus identification for set semantics.
    """
    t = qv(t)
    p, q, _ = t.ints()
    if p < 0 or (p == 0 and q < 0):
        return -t
    return t


# -- congruence predicates ----------------------------------------------------


def integer_entries(x: MoebiusElement) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of x as ints; NotIntegral unless every entry
    is a rational integer."""
    out = []
    for v in (x.a, x.b, x.c, x.d):
        p, q, n = v.ints()
        if q or n != 1:
            raise NotIntegral(f"entry {v} is not a rational integer")
        out.append(p)
    return tuple(out)


def in_pslz(x: MoebiusElement) -> bool:
    try:
        integer_entries(x)
    except NotIntegral:
        return False
    return True


def in_gamma0(x: MoebiusElement, n: int) -> bool:
    """Membership in the mod-n upper-triangular congruence subgroup."""
    if n < 1:
        raise ValueError("modulus must be positive")
    _, _, c, _ = integer_entries(x)
    return c % n == 0


def in_principal(x: MoebiusElement, n: int) -> bool:
    """Membership in the mod-n principal congruence subgroup (either sign lift)."""
    if n < 1:
        raise ValueError("modulus must be positive")
    a, b, c, d = integer_entries(x)
    for s in (1, -1):
        if ((s * a - 1) % n == 0 and (s * b) % n == 0
                and (s * c) % n == 0 and (s * d - 1) % n == 0):
            return True
    return False


def bianchi_omega(d: int) -> QuadValue:
    """Ring generator of the integers of Q(sqrt(-d)): sqrt(-d), or its
    half-integer variant when d = 3 mod 4."""
    if d < 1:
        raise ValueError("d must be a positive square-free integer")
    if d % 4 == 3:
        return QuadValue(Fraction(1, 2), Fraction(1, 2), -d)
    return QuadValue(0, 1, -d)


def omega_coords(v: QuadValue, d: int) -> tuple[Fraction, Fraction]:
    """Coordinates (u, v) of a value u + v*omega in the ring basis (1, omega)."""
    if v.b != 0 and v.m != -d:
        raise MixedRadicand(f"value {v} is not in Q(sqrt(-{d}))")
    if d % 4 == 3:
        return v.a - v.b, 2 * v.b
    return v.a, v.b


def in_bianchi(x: MoebiusElement, d: int) -> bool:
    """Entries lie in the ring of integers of Q(sqrt(-d))."""
    for v in (x.a, x.b, x.c, x.d):
        try:
            u, w = omega_coords(v, d)
        except MixedRadicand:
            return False
        if u.denominator != 1 or w.denominator != 1:
            return False
    return True


def in_normalizer(x: MoebiusElement, p: int) -> bool:
    """Membership in the normalizer of the level-p congruence group.

    Elements either lie in the level-p group itself or have the shape
    [[a*sqrt(p), b/sqrt(p)], [c*sqrt(p), d*sqrt(p)]] with integer a, b, c, d.
    """
    try:
        return in_gamma0(x, p)
    except NotIntegral:
        pass
    coeffs = []
    for v in (x.a, x.b, x.c, x.d):
        if v.a != 0 or (v.b != 0 and v.m != p):
            return False
        coeffs.append(v.b)
    a, b, c, d = coeffs
    return (a.denominator == 1 and c.denominator == 1 and d.denominator == 1
            and (b * p).denominator == 1)


# -- text format ---------------------------------------------------------------


_MATRIX_RE = re.compile(r"^\[\[([^,\[\]]+),([^,\[\]]+)\],\[([^,\[\]]+),([^,\[\]]+)\]\]$")


def mm_format(x: MoebiusElement) -> str:
    return (f"[[{qv_format(x.a)},{qv_format(x.b)}],"
            f"[{qv_format(x.c)},{qv_format(x.d)}]]")


def mm_parse(text: str) -> MoebiusElement:
    match = _MATRIX_RE.match(text.strip())
    if not match:
        raise ValueError(f"malformed matrix text: {text!r}")
    a, b, c, d = (qv_parse(g) for g in match.groups())
    return MoebiusElement(a, b, c, d)


def parse_generator_file(text: str) -> list[MoebiusElement]:
    """Parse one matrix per line; '#' starts a comment.

    Raises ValueError with a 1-based line number on the first bad line.
    """
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            gens.append(mm_parse(line))
        except (ValueError, MixedRadicand) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return gens
