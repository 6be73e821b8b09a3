"""Isometric circles and spheres, Ford domains, and exact separation checks.

Everything here decides geometry by exact sign computations on rational or
one/two-radical expressions; no check is ever settled by floating point.
Tangency counts as failure for every disjointness predicate, since the
combination arguments need closed sets to be disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import isqrt

from fordlab.exactnum import (
    MixedRadicand,
    NotComplexModulus,
    NotReal,
    PrecisionExhausted,
    QuadValue,
    RadicalExpr,
    qv,
    sqrt_qv,
)
from fordlab.moebius import (
    MoebiusElement,
    omega_ints,
    omega_norm4,
    omega_value,
)


class FixesInfinity(ValueError):
    """Isometric circles exist only for elements with c != 0."""


class LemmaViolation(Exception):
    """The two-generator Ford criterion failed; carries the failed inequality."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class Disjointness(Enum):
    DISJOINT = "disjoint"
    TANGENT = "tangent"
    OVERLAP = "overlap"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str                      # "pass" | "fail" | "undecided"
    margin: QuadValue | None = None
    witnesses: dict = field(default_factory=dict)


def _real_sq(v: QuadValue) -> Fraction:
    """|v|^2 as a rational, for complex values or real values with a*b = 0."""
    v = qv(v)
    if v.m <= 0:
        return v.abs2()
    if v.a == 0:
        return v.b * v.b * v.m
    if v.b == 0:
        return v.a * v.a
    raise NotComplexModulus(f"|{v}|^2 is irrational")


@dataclass(frozen=True)
class IsometricDisk:
    """Isometric circle/sphere of an element: center -d/c, radius 1/|c|."""

    center: QuadValue
    radius_sq: Fraction

    def same_circle(self, other: IsometricDisk) -> bool:
        return self.center == other.center and self.radius_sq == other.radius_sq


def isometric_disk(g: MoebiusElement) -> IsometricDisk:
    if g.c.is_zero():
        raise FixesInfinity(f"{g} fixes infinity")
    center = -g.d / g.c
    return IsometricDisk(center, Fraction(1) / _real_sq(g.c))


def _center_gap_sq(u: IsometricDisk, v: IsometricDisk) -> QuadValue:
    """|center(u) - center(v)|^2 as a real QuadValue."""
    delta = u.center - v.center
    if delta.is_real:
        return delta * delta
    return QuadValue(delta.abs2())


def _separation_expr(u: IsometricDisk, v: IsometricDisk) -> RadicalExpr:
    """|Dcenter|^2 - (r_u + r_v)^2 as a radical expression."""
    gap = _center_gap_sq(u, v)
    rhs = RadicalExpr(u.radius_sq + v.radius_sq,
                      ((2, u.radius_sq * v.radius_sq),))
    return gap.to_radical() - rhs


def disks_disjoint(u: IsometricDisk, v: IsometricDisk) -> Disjointness:
    s = _separation_expr(u, v).sign()
    if s > 0:
        return Disjointness.DISJOINT
    if s == 0:
        return Disjointness.TANGENT
    return Disjointness.OVERLAP


def separation_margin(u: IsometricDisk, v: IsometricDisk) -> QuadValue:
    """Margin witness |Dcenter| - r_u - r_v, or its squared form.

    Returns a QuadValue whenever the quantities combine into one ring,
    falling back to the squared margin |Dcenter|^2 - (r_u + r_v)^2.  Either
    form is positive exactly when disks_disjoint finds the disks disjoint.
    """
    gap2 = _center_gap_sq(u, v)
    try:
        if gap2.is_rational:
            dist = sqrt_qv(gap2.to_fraction())
        else:
            dist = abs(u.center - v.center)
        return dist - sqrt_qv(u.radius_sq) - sqrt_qv(v.radius_sq)
    except MixedRadicand:
        return _separation_expr(u, v).to_quadvalue()


# -- strip domains (upper half-plane) ------------------------------------------


class StripDomain:
    """Vertical strip minus finitely many excluded disks, with side pairings."""

    def __init__(self, center: QuadValue, halfwidth: QuadValue,
                 translation: MoebiusElement,
                 excluded: list[tuple[IsometricDisk, MoebiusElement]],
                 variant: str | None = None):
        center, halfwidth = qv(center), qv(halfwidth)
        if not (center.is_real and halfwidth.is_real):
            raise NotReal("strip data must be real")
        if halfwidth.sign_real() <= 0:
            raise ValueError("halfwidth must be positive")
        period = translation.b
        if not translation.a == QuadValue(1) or not translation.c.is_zero():
            raise ValueError("translation must be parabolic fixing infinity")
        if period.sign_real() < 0:
            translation = translation.inv()
            period = translation.b
        if period.sign_real() == 0:
            raise ValueError("translation has zero period")
        self.center = center
        self.halfwidth = halfwidth
        self.translation = translation
        self.excluded = list(excluded)
        self.variant = variant
        for disk, _ in self.excluded:
            if not disk.center.is_real:
                raise NotReal("strip domains need real disk centers")
            # invariant: each excluded disk meets the strip closure
            reach = (RadicalExpr(0, ((1, disk.radius_sq),))
                     + (halfwidth - abs(disk.center - center)).to_radical())
            if reach.sign() < 0:
                raise ValueError(f"excluded disk at {disk.center} misses the strip")

    @property
    def ambient(self) -> int:
        return 2

    def left(self) -> QuadValue:
        return self.center - self.halfwidth

    def right(self) -> QuadValue:
        return self.center + self.halfwidth

    def __repr__(self):
        return (f"StripDomain(center={self.center}, halfwidth={self.halfwidth}, "
                f"disks={len(self.excluded)})")


def _shadow(disk: IsometricDisk) -> tuple[QuadValue, QuadValue]:
    """The disk's real shadow (center - r, center + r)."""
    r = sqrt_qv(disk.radius_sq)
    return disk.center - r, disk.center + r


def disk_within_interval(disk: IsometricDisk, x: QuadValue, y: QuadValue) -> bool:
    """The disk's shadow lies strictly inside (x, y)."""
    lo, hi = _shadow(disk)
    return lo.cmp_real(x) > 0 and hi.cmp_real(y) < 0


def build_ford_two_gen(m, g2: MoebiusElement) -> StripDomain:
    """Two-generator Ford domain for <translation by m, g2>.

    Certifies either the classic inequalities (|a+d|/|c| < |m|/2 and
    |m| > 4/|c|) or the sharp period-fit test (union extent of the two
    isometric disks strictly under the period).  The returned domain
    records which variant fired.
    """
    m = qv(m)
    if not m.is_real:
        raise NotReal("translation length must be real")
    if m.sign_real() == 0:
        raise ValueError("translation length must be nonzero")
    if g2.c.is_zero():
        raise FixesInfinity("second generator must not fix infinity")
    for v in (g2.a, g2.b, g2.c, g2.d):
        if not v.is_real:
            raise NotReal("two-generator strips are a half-plane construction")
    am = abs(m)
    disk = isometric_disk(g2)
    disk_inv = isometric_disk(g2.inv())
    trace = g2.trace()
    involution = trace.is_zero()

    c2 = (g2.c * g2.c)          # |c|^2 as a real value
    t2 = trace * trace
    m2 = m * m
    # classic: 4*(a+d)^2 < m^2 c^2  and  m^2 c^2 > 16
    classic_sep = (4 * t2).cmp_real(m2 * c2) < 0
    classic_size = (m2 * c2).cmp_real(QuadValue(16)) > 0
    # sharp: (|a+d| + 2)^2 < m^2 c^2  (union extent strictly under the period)
    ext = abs(trace) + QuadValue(2)
    sharp_fit = (ext * ext).cmp_real(m2 * c2) < 0

    if classic_sep and classic_size:
        variant = "classic"
    elif sharp_fit:
        variant = "sharp"
    else:
        raise LemmaViolation(
            f"center gap check {'holds' if classic_sep else 'fails'} "
            f"(4(a+d)^2 vs m^2c^2 = {qv(4 * t2)} vs {m2 * c2}), "
            f"size check {'holds' if classic_size else 'fails'} "
            f"(m^2c^2 = {m2 * c2} vs 16), sharp period fit fails "
            f"((|a+d|+2)^2 = {ext * ext} vs m^2c^2 = {m2 * c2})")

    center = (g2.a - g2.d) / (2 * g2.c)
    excluded = [(disk, g2)]
    if not (involution and disk.same_circle(disk_inv)):
        excluded.append((disk_inv, g2.inv()))
    translation = MoebiusElement(1, am, 0, 1)
    return StripDomain(center, am / 2, translation, excluded, variant=variant)


# -- membership by Ford reduction ----------------------------------------------


# Ford reduction steps before membership_reduce gives up as undecided
REDUCE_CAP = 10000


class Membership(Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    UNDECIDED = "undecided"


@dataclass
class ReduceResult:
    status: Membership
    word: list[MoebiusElement]
    iterations: int


def _rational_upper_sqrt(x: Fraction) -> Fraction:
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d) + 1, d)


def _rational_point_in(lo: QuadValue, hi: QuadValue) -> Fraction:
    """Some rational strictly between two real values."""
    bits = 32
    while True:
        llo, lhi = lo.to_radical().interval(bits)
        hlo, hhi = hi.to_radical().interval(bits)
        if lhi < hlo:
            mid = (lhi + hlo) / 2
            if lo.cmp_real(QuadValue(mid)) < 0 and hi.cmp_real(QuadValue(mid)) > 0:
                return mid
        bits *= 2
        if bits > 2 ** 14:
            raise PrecisionExhausted("could not separate interval endpoints")


def domain_basepoint(domain: StripDomain) -> tuple[QuadValue, QuadValue]:
    """A rational interior point: near the strip center, above every disk."""
    if domain.center.is_rational:
        x0 = domain.center.a
    else:
        x0 = _rational_point_in(domain.center - domain.halfwidth / 2,
                                domain.center + domain.halfwidth / 2)
    top = Fraction(1)
    for disk, _ in domain.excluded:
        top = max(top, _rational_upper_sqrt(disk.radius_sq))
    y0 = 2 * top
    x = QuadValue(x0)
    for disk, _ in domain.excluded:
        # boundary collision is impossible for y0 above every disk, but a
        # deterministic nudge keeps the choice safe under refactors
        if ((x - disk.center) * (x - disk.center) + QuadValue(y0 * y0)) \
                .cmp_real(QuadValue(disk.radius_sq)) == 0:
            x = x + QuadValue(Fraction(1, 7))
    return x, QuadValue(y0)


def _point_in_open_disk(x: QuadValue, y: QuadValue, disk: IsometricDisk) -> int:
    """Sign of r^2 - |z - center|^2: >0 inside, 0 on boundary, <0 outside."""
    dx = x - disk.center
    return QuadValue(disk.radius_sq).cmp_real(dx * dx + y * y)


def membership_reduce(domain: StripDomain, target: MoebiusElement) -> ReduceResult:
    """Decide membership of target in the group with this Ford domain.

    Tracks the image of a rational interior basepoint under target and
    reduces it into the domain with strip translations and disk pairings.
    Member exactly when the accumulated word composed with target is the
    identity in PSL2.
    """
    x0, y0 = domain_basepoint(domain)
    x, y = target.apply_to_point(x0, y0)
    word: list[MoebiusElement] = []
    composed = None
    trans = domain.translation
    iterations = 0
    while iterations < REDUCE_CAP:
        offset = x - domain.center
        if offset.cmp_real(domain.halfwidth) > 0:
            step = trans.inv()
        elif (-offset).cmp_real(domain.halfwidth) > 0:
            step = trans
        else:
            step = None
            for disk, pairing in domain.excluded:
                if _point_in_open_disk(x, y, disk) > 0:
                    step = pairing
                    break
        if step is None:
            break
        x, y = step.apply_to_point(x, y)
        word.append(step)
        composed = step if composed is None else step * composed
        iterations += 1
    else:
        return ReduceResult(Membership.UNDECIDED, word, iterations)

    total = target if composed is None else composed * target
    if total.is_identity():
        return ReduceResult(Membership.MEMBER, word, iterations)
    # interior landing with a nontrivial composition proves non-membership
    strict_strip = (abs(x - domain.center)).cmp_real(domain.halfwidth) < 0
    off_disks = all(_point_in_open_disk(x, y, disk) < 0
                    for disk, _ in domain.excluded)
    if strict_strip and off_disks:
        return ReduceResult(Membership.NON_MEMBER, word, iterations)
    return ReduceResult(Membership.UNDECIDED, word, iterations)


def infinite_area_height(domain) -> QuadValue:
    """Exact height above which the domain contains a full sub-strip/prism.

    Any such height certifies infinite area (volume): the strip or prism has
    positive width and every excluded disk or sphere stays below it.
    """
    best = Fraction(0)
    for disk, _ in domain.excluded:
        best = max(best, disk.radius_sq)
    return sqrt_qv(best)


# -- power sphere scans -----------------------------------------------------------


@dataclass
class ScanResult:
    entries: list            # (n, disk of g^n, disk of g^-n), deduplicated
    norms: list              # (n, |c(g^n)|^2) for every scanned exponent
    skipped: list            # exponents with c(g^n) = 0
    growing: bool


def power_sphere_scan(g: MoebiusElement, horizon: int) -> ScanResult:
    entries, norms, skipped = [], [], []
    seen = set()
    power = g
    for n in range(1, horizon + 1):
        if n > 1:
            power = power * g
        if power.c.is_zero():
            skipped.append(n)
            continue
        disk = isometric_disk(power)
        disk_inv = isometric_disk(power.inv())
        norms.append((n, _real_sq(power.c)))
        key = (disk.center, disk.radius_sq, disk_inv.center)
        if key not in seen:
            seen.add(key)
            entries.append((n, disk, disk_inv))
    window = [v for _, v in norms][-max(1, len(norms) // 2):]
    growing = len(window) >= 2 and all(a < b for a, b in zip(window, window[1:]))
    return ScanResult(entries, norms, skipped, growing)


# -- fixed point containment -------------------------------------------------------


def _fixed_point_poly(g: MoebiusElement):
    # fixed points solve c z^2 + (d - a) z - b = 0
    return g.c, g.d - g.a, -g.b


def disk_contains_fixed_point(g: MoebiusElement, disk: IsometricDisk) -> bool:
    """Exact test that the closed disk contains a fixed point of g."""
    t = g.trace()
    if t.is_real and all(v.is_rational for v in (g.a, g.b, g.c, g.d)):
        return _real_fixed_point_in(g, disk)
    return _complex_fixed_point_in(g, disk)


def _real_fixed_point_in(g: MoebiusElement, disk: IsometricDisk) -> bool:
    A, B, C = _fixed_point_poly(g)
    A, B, C = A.to_fraction(), B.to_fraction(), C.to_fraction()
    x0 = disk.center
    r2 = disk.radius_sq
    # p evaluated at center +- r, normalized by the leading coefficient
    base = A * (x0.to_fraction() ** 2) + A * r2 + B * x0.to_fraction() + C
    lin = 2 * A * x0.to_fraction() + B
    plo = RadicalExpr(A * base, ((-A * lin, r2),)).sign()
    phi = RadicalExpr(A * base, ((A * lin, r2),)).sign()
    if plo <= 0 and phi <= 0:
        return plo == 0 or phi == 0
    if plo * phi <= 0:
        return True
    # both endpoint values outside the root pair: roots inside iff the
    # vertex -B/2A lies within the closed interval
    vertex = Fraction(-B, 2 * A)
    lo_ok = RadicalExpr(vertex - x0.to_fraction(), ((1, r2),)).sign() >= 0
    hi_ok = RadicalExpr(x0.to_fraction() + 0 - vertex, ((1, r2),)).sign() >= 0
    disc = B * B - 4 * A * C
    return disc >= 0 and lo_ok and hi_ok


def _complex_fixed_point_in(g: MoebiusElement, disk: IsometricDisk) -> bool:
    # symmetric functions of the fixed points: s = sum, q = product
    s = (g.a - g.d) / g.c
    q_prod = -g.b / g.c
    z0 = disk.center
    rho = disk.radius_sq
    # N = |z0 - p+|^2 |z0 - p-|^2 = |z0^2 - s z0 + q|^2
    N = (z0 * z0 - s * z0 + q_prod).abs2()
    # T = |z0-p+|^2 + |z0-p-|^2 = 2|z0|^2 - 2Re(conj(z0) s) + X,
    # X = (|s|^2 + |s^2 - 4q|)/2
    re_zs = ((z0.conj() * s) + (z0 * s.conj())).a / 2
    R = (s * s - 4 * q_prod).abs2()
    T0 = 2 * z0.abs2() - 2 * re_zs + Fraction(s.abs2(), 2)
    # T = T0 + (1/2) sqrt(R); containment iff T <= 2 rho or N - rho T + rho^2 <= 0
    if RadicalExpr(T0 - 2 * rho, ((Fraction(1, 2), R),)).sign() <= 0:
        return True
    expr = RadicalExpr(N + rho * rho - rho * T0, ((-rho / 2, R),))
    return expr.sign() <= 0


# -- prisms (upper half-space) -------------------------------------------------------


class PrismDomain:
    """Chimney over a fundamental parallelogram of the lattice <3, 3*omega>."""

    def __init__(self, d: int, anchor: QuadValue,
                 excluded: list[tuple[IsometricDisk, MoebiusElement]]):
        self.d = d
        self.anchor = qv(anchor)
        self.excluded = list(excluded)
        self.anchor_ints = omega_ints(self.anchor, d)

    @property
    def ambient(self) -> int:
        return 3

    def __repr__(self):
        return f"PrismDomain(d={self.d}, anchor={self.anchor}, spheres={len(self.excluded)})"


def cell_coords(prism: PrismDomain, u: int, v: int, n: int) -> tuple[int, int, int]:
    """Integers (x, y, s) for the point (u + v*omega) / n: its ring
    coordinates from the prism's anchor, over the denominator m = n * A of
    the point and the anchor, in which the base cell is 0 <= x, y <= s =
    3m."""
    au, av, a_den = prism.anchor_ints
    return u * a_den - au * n, v * a_den - av * n, 3 * n * a_den


# the edges of the base cell, each a corner w0 and a vector e in units of
# its side s: bottom, right, top and left; and the walls in the order of
# their margins, bottom, top, left and right
_EDGES = ((0, 0, 1, 0), (1, 0, 0, 1), (1, 1, -1, 0), (0, 1, 0, -1))
_WALLS = (_EDGES[0], _EDGES[2], _EDGES[3], _EDGES[1])


def _edge_norm4s(x: int, y: int, s: int, d: int, edges,
                 clamp: bool = True) -> list[Fraction]:
    """4 m^2 times the squared distances from the point (x, y) of
    ``cell_coords`` to the given edges of the base cell, or to their lines
    without ``clamp``, m = s/3 the factor of the ring coordinates."""
    return [_segment_norm4(x - x0 * s, y - y0 * s, eu * s, ev * s, d, clamp)
            for x0, y0, eu, ev in edges]


def _wall_dist_sq(x: int, y: int, s: int, d: int) -> list[Fraction]:
    """Squared distances from the point (x, y) of ``cell_coords`` to the
    lines of the walls, in the order of ``_WALLS``."""
    scale = 4 * (s // 3) ** 2
    return [q / scale for q in _edge_norm4s(x, y, s, d, _WALLS, clamp=False)]


def ball_strictly_in_prism(disk: IsometricDisk, prism: PrismDomain) -> tuple[bool, Fraction]:
    """Closed ball strictly inside the prism; returns (ok, min squared margin)."""
    x, y, s = cell_coords(prism, *omega_ints(disk.center, prism.d))
    if not (0 < x < s and 0 < y < s):
        return False, Fraction(-1)
    worst = None
    for dist2 in _wall_dist_sq(x, y, s, prism.d):
        margin = dist2 - disk.radius_sq
        if margin <= 0:
            return False, margin
        worst = margin if worst is None else min(worst, margin)
    return True, worst


# -- separation verification (half-plane) ----------------------------------------------


def verify_separation(items, ambient_check,
                      ambient_name: str = "ambient") -> list[CheckRecord]:
    """Exact verification of the conjugated-combination hypotheses.

    items: sequence of (domain, conjugator, (x, y) interval) triples.
    Checks: pairwise-disjoint intervals, conjugator disks strictly inside
    their interval, intervals inside the domain's real trace minus disk
    shadows, non-membership of each conjugator in its subgroup, the ambient
    predicate, and pairwise disjointness of all conjugator disks.
    """
    checks: list[CheckRecord] = []
    disks = []
    for idx, (domain, alpha, interval) in enumerate(items):
        x, y = qv(interval[0]), qv(interval[1])
        label = f"[{idx}]"
        if alpha.c.is_zero():
            checks.append(CheckRecord(f"conjugator_disks{label}", "fail",
                                      witnesses={"error": "FixesInfinity"}))
            continue
        da = isometric_disk(alpha)
        dai = isometric_disk(alpha.inv())
        disks.append((idx, [da] if da.same_circle(dai) else [da, dai]))

        ok = (disk_within_interval(da, x, y) and disk_within_interval(dai, x, y))
        margin = _interval_margin(da, dai, x, y)
        checks.append(CheckRecord(f"conjugator_disks_in_interval{label}",
                                  "pass" if ok else "fail", margin=margin,
                                  witnesses={"interval": (str(x), str(y)),
                                             "disk_center": str(da.center)}))

        in_strip = (x.cmp_real(domain.left()) >= 0
                    and y.cmp_real(domain.right()) <= 0
                    and x.cmp_real(y) < 0)
        # (x, y) meets no excluded disk's open shadow (lo, hi)
        shadow_ok = all(x.cmp_real(hi) >= 0 or lo.cmp_real(y) >= 0
                        for lo, hi in (_shadow(disk)
                                       for disk, _ in domain.excluded))
        checks.append(CheckRecord(f"interval_in_domain{label}",
                                  "pass" if (in_strip and shadow_ok) else "fail",
                                  witnesses={"interval": (str(x), str(y))}))

        reduce_result = membership_reduce(domain, alpha)
        if reduce_result.status == Membership.NON_MEMBER:
            status = "pass"
        elif reduce_result.status == Membership.MEMBER:
            status = "fail"
        else:
            status = "undecided"
        checks.append(CheckRecord(f"conjugator_not_in_subgroup{label}", status,
                                  witnesses={"iterations": reduce_result.iterations}))

        checks.append(CheckRecord(
            f"conjugator_in_{ambient_name}{label}",
            "pass" if ambient_check(alpha) else "fail"))

    intervals = [(qv(it[2][0]), qv(it[2][1])) for it in items]
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            xi, yi = intervals[i]
            xj, yj = intervals[j]
            ok = yi.cmp_real(xj) <= 0 or yj.cmp_real(xi) <= 0
            checks.append(CheckRecord(f"intervals_disjoint[{i},{j}]",
                                      "pass" if ok else "fail"))
    return checks + _disjoint_pairs("conjugator_disks_disjoint", disks)


def _apart(name: str, left, right) -> CheckRecord:
    """The check that every disk of ``left`` clears every disk of
    ``right``, with margin the least separation_margin over their pairs:
    it passes only when that margin is positive, so tangency (margin 0)
    fails."""
    worst = min(separation_margin(u, v) for u in left for v in right)
    return CheckRecord(name, "pass" if worst.sign_real() > 0 else "fail",
                       margin=worst)


def _disjoint_pairs(name: str, groups) -> list[CheckRecord]:
    """One ``_apart`` check per pair of the (index, disks) groups."""
    return [_apart(f"{name}[{i},{j}]", left, right)
            for (i, left), (j, right) in combinations(groups, 2)]


def _interval_margin(da, dai, x, y):
    try:
        return min(v for lo, hi in map(_shadow, (da, dai))
                   for v in (lo - x, y - hi))
    except MixedRadicand:
        return None


# -- separation verification (half-space) -----------------------------------------


def _prism_dist_sq(prism: PrismDomain, u: int, v: int, n: int) -> Fraction:
    """Squared distance from (u + v*omega) / n to the prism's base cell."""
    x, y, s = cell_coords(prism, u, v, n)
    if 0 <= x <= s and 0 <= y <= s:
        return Fraction(0)
    return min(_edge_norm4s(x, y, s, prism.d, _EDGES)) / (4 * (s // 3) ** 2)


def _segment_norm4(wu: int, wv: int, eu: int, ev: int, d: int,
                   clamp: bool = True) -> Fraction:
    """The least 4|w - t*e|^2 over t in [0, 1], or over every real t
    without ``clamp``, in ring coordinates: at t = B(w, e) / B(e, e),
    clamped to [0, 1], B the bilinear form of |.|^2."""
    qw, qe = omega_norm4(wu, wv, d), omega_norm4(eu, ev, d)
    b2 = omega_norm4(wu + eu, wv + ev, d) - qw - qe      # 8 * B(w, e)
    if clamp and b2 <= 0:
        return Fraction(qw)
    if clamp and b2 >= 2 * qe:
        return Fraction(omega_norm4(wu - eu, wv - ev, d))
    return Fraction(4 * qw * qe - b2 * b2, 4 * qe)


_WIDE_OFFSETS = [(j, k) for j in range(-2, 3) for k in range(-2, 3)]


def _lattice_translates(prism: PrismDomain, z: QuadValue) -> list[tuple]:
    """The translates of z's canonical representative by j*t1 + k*t2,
    |j|, |k| <= 2, in ``_WIDE_OFFSETS`` order, as ``omega_ints``."""
    u, v, n = omega_ints(z, prism.d)
    x, y, s = cell_coords(prism, u, v, n)
    js, jt = x // s, y // s
    return [(u + 3 * n * (j - js), v + 3 * n * (k - jt), n)
            for j, k in _WIDE_OFFSETS]


def sphere_translates_meeting_prism(prism: PrismDomain, base: QuadValue):
    """Lattice translates of base whose unit spheres meet the prism."""
    centers = [omega_value(u, v, n, prism.d)
               for u, v, n in _lattice_translates(prism, qv(base))
               if _prism_dist_sq(prism, u, v, n) <= 1]
    centers.sort(key=lambda c: (c.a, c.b))
    return centers


def _spheres_apart(sa, sb, d: int) -> int:
    """The sign of |c_a - c_b| - r_a - r_b for spheres (u, v, n, r^2) with
    centers (u + v*omega) / n.  With X = |c_a - c_b|^2 - r_a^2 - r_b^2 it is
    -1 if X < 0, else the sign of X^2 - 4 r_a^2 r_b^2; both are decided on
    integers, all terms times 4 (n_a n_b)^2 and the denominators of r^2."""
    (ua, va, na, ra), (ub, vb, nb, rb) = sa, sb
    scale = 4 * (na * nb) ** 2
    a = ra.numerator * rb.denominator * scale
    b = rb.numerator * ra.denominator * scale
    x = (omega_norm4(ua * nb - ub * na, va * nb - vb * na, d)
         * ra.denominator * rb.denominator - a - b)
    if x < 0:
        return -1
    t = x * x - 4 * a * b
    return (t > 0) - (t < 0)


def bianchi_separation_check(items, horizon: int = 50) -> list[CheckRecord]:
    """Exact combination hypotheses for the half-space construction.

    items: sequence of (domain, gens, conjugator-or-None), the domain the
    coset subgroup's PrismDomain and its coset generator [[x, -1], [1, 0]]
    the first of gens that does not fix infinity.  Each conjugator must be
    an involution whose sphere sits strictly inside the prism, away from
    every unit sphere of its subgroup's domain, away from scanned power
    spheres where those arise, and away from the other conjugator spheres.
    When a scan's growth flag is set, the remaining tail is accepted under
    a recorded monotone-growth assumption with an exact final margin;
    otherwise the tail check is left undecided.
    """
    checks: list[CheckRecord] = []
    delta_disks = []
    for idx, (domain, gens, delta) in enumerate(items):
        d = domain.d
        label = f"[{idx}]"
        gamma = next((g for g in gens if not g.c.is_zero()), None)
        scan = None
        if gamma is not None:
            x = gamma.a
            if not gamma.trace().is_real and x.abs2() <= 4:
                scan = power_sphere_scan(gamma, horizon)
                bad = [n for n, dk, dki in scan.entries if dk.radius_sq > 1]
                checks.append(CheckRecord(
                    f"scan_radius_bound{label}", "pass" if not bad else "fail",
                    witnesses={"exponents": bad, "scanned": len(scan.entries),
                               "growing": scan.growing}))
        if delta is None:
            continue

        trace_zero = delta.canonical_trace().is_zero()
        checks.append(CheckRecord(f"delta_involution{label}",
                                  "pass" if trace_zero else "fail",
                                  witnesses={"trace": str(delta.canonical_trace())}))
        if delta.c.is_zero():
            checks.append(CheckRecord(f"delta_sphere{label}", "fail",
                                      witnesses={"error": "FixesInfinity"}))
            continue
        ddisk = isometric_disk(delta)
        delta_disks.append((idx, [ddisk]))

        ok, margin2 = ball_strictly_in_prism(ddisk, domain)
        checks.append(CheckRecord(f"delta_in_prism{label}",
                                  "pass" if ok else "fail",
                                  margin=QuadValue(margin2),
                                  witnesses={"kind": "squared"}))

        # with delta's ball inside the cell, a unit sphere meeting it has its
        # centre within 1 of the cell: one of the domain's excluded spheres
        checks.append(_apart(f"delta_clears_unit_spheres{label}", [ddisk],
                             [disk for disk, _ in domain.excluded]))

        if scan is not None:
            sphere = (*omega_ints(ddisk.center, d), ddisk.radius_sq)
            scan_ok = all(
                _spheres_apart(sphere, (*c, disk.radius_sq), d) > 0
                for n, dk, dki in scan.entries
                for disk in ((dk,) if dk.same_circle(dki) else (dk, dki))
                for c in _lattice_translates(domain, disk.center))
            checks.append(CheckRecord(f"delta_clears_power_spheres{label}",
                                      "pass" if scan_ok else "fail",
                                      witnesses={"scanned": len(scan.entries)}))
            if scan.growing:
                # per centre: True if clear, False if not, None if undecided
                clears = []
                cap_norm = scan.norms[-1][1]
                for base in (QuadValue(0), x):
                    for c in _lattice_translates(domain, base):
                        dist2 = (ddisk.center - omega_value(*c, d)).abs2()
                        # need sqrt(dist2) > 1 + r_delta + 2/sqrt(cap_norm)
                        expr = RadicalExpr(-1, ((1, dist2),
                                                (-1, ddisk.radius_sq),
                                                (-2, Fraction(1) / cap_norm)))
                        try:
                            clears.append(expr.sign() > 0)
                        except PrecisionExhausted:
                            clears.append(None)
                status = ("fail" if False in clears
                          else "undecided" if None in clears else "pass")
                checks.append(CheckRecord(
                    f"power_tail{label}", status,
                    witnesses={"assumption": "monotone growth of |c(g^n)|^2",
                               "final_norm_sq": str(cap_norm)}))
            else:
                checks.append(CheckRecord(
                    f"power_tail{label}", "undecided",
                    witnesses={"reason": "growth flag not set at horizon",
                               "horizon": horizon}))

    return checks + _disjoint_pairs("delta_spheres_disjoint", delta_disks)
