"""Builders for the explicit subgroup constructions and their certification.

Each target, a TraceSetModel (modular, gamma0:n, principal:n, normalizer:p,
bianchi:d), materializes exact generator sets, Ford domains and
conjugators; certify discharges every hypothesis on that data exactly, and
verify_construction adds the trace enumeration and assembles a Certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from fordlab.exactnum import QuadValue, qv, sqrt_qv
from fordlab.geometry import (
    CheckRecord,
    LemmaViolation,
    PrismDomain,
    StripDomain,
    _rational_point_in,
    _shadow,
    bianchi_separation_check,
    build_ford_two_gen,
    cell_coords,
    infinite_area_height,
    isometric_disk,
    sphere_translates_meeting_prism,
    verify_separation,
)
from fordlab.moebius import (
    MoebiusElement,
    NotIntegral,
    bianchi_omega,
    from_ints,
    in_bianchi,
    in_gamma0,
    in_normalizer,
    in_principal,
    in_pslz,
    omega_ints,
    omega_value,
)
from fordlab.tracesets import (
    Coverage,
    StateExplosion,
    TraceSetModel,
    UnsupportedParameter,
    coverage_report,
    enumerate_traces,
    expected_set,
    model_contains,
    trace_sort_key,
)


class SearchExhausted(RuntimeError):
    """No conjugator was found within the search budget."""


CROSS_CHECK_LEN = 4
# conjugator search budgets: fixed-point candidates whose powers are tried,
# and the largest lower-left entry of an involution
POWER_CANDIDATES = 400
INVOLUTION_HEIGHT = 40000


@dataclass
class Subgroup:
    label: str
    gens: list
    domain: object                  # StripDomain | PrismDomain


@dataclass
class Construction:
    model: TraceSetModel            # the target
    subgroups: list
    conjugators: list               # aligned with subgroups; None = unconjugated
    intervals: list                 # aligned; None where not applicable
    combined_gens: list
    notes: list = field(default_factory=list)

    def ambient_check(self, g: MoebiusElement) -> bool:
        kind, n = self.model.kind, self.model.param
        try:
            if kind == "modular":
                return in_pslz(g)
            if kind == "gamma0":
                return in_gamma0(g, n)
            if kind == "principal":
                return in_principal(g, n)
            if kind == "normalizer":
                return in_normalizer(g, n)
            return in_bianchi(g, n)
        except NotIntegral:
            return False


@dataclass
class Certificate:
    construction: Construction
    checks: list                    # CheckRecords, in report order
    coverage: Coverage | None
    coverage_note: str | None
    witnesses: dict                 # trace -> "label:word", empty if cut short
    verdict: str
    reasons: list


def _two_gen_domain(gens) -> StripDomain:
    """The two-generator Ford domain of a translation and one other
    generator; LemmaViolation when the criterion fails."""
    trans = [g for g in gens if g.c.is_zero()]
    other = [g for g in gens if not g.c.is_zero()]
    if len(trans) != 1 or len(other) != 1:
        raise ValueError("expected one parabolic fixing infinity and one other")
    return build_ford_two_gen(abs(trans[0].b), other[0])


# -- explicit matrix data ----------------------------------------------------------


def modular_subgroup_generators():
    T5 = from_ints(1, 5, 0, 1)
    return [
        [from_ints(0, -1, 1, 0), T5],
        [from_ints(1, -1, 1, 0), T5],
        [from_ints(2, -1, 1, 0), T5],
    ]


def modular_conjugators():
    return [from_ints(142, -545, 37, -142),
            from_ints(17, -58, 5, -17),
            from_ints(117, -370, 37, -117)]


def gamma0_unit_pairs(n: int):
    """Representatives (a, d, b) of unit classes mod +-1 with minimal |a+d|."""
    out = []
    seen = set()
    for a in range(1, n):
        if gcd(a, n) != 1 or a in seen or (n - a) % n in seen:
            continue
        seen.add(a)
        dinv = pow(a, -1, n)
        candidates = [dinv, dinv - n]
        d = min(candidates, key=lambda x: (abs(a + x), x))
        out.append((a, d, (a * d - 1) // n))
    return out


def gamma0_special_generators(n: int):
    if n == 2:
        return [[from_ints(1, 3, 0, 1), from_ints(1, 0, 2, 1)],
                [from_ints(1, 3, 0, 1), from_ints(1, -1, 2, -1)]]
    if n == 3:
        return [[from_ints(1, 2, 0, 1), from_ints(1, 0, 3, 1)],
                [from_ints(1, 2, 0, 1), from_ints(2, -1, 3, -1)]]
    if n == 4:
        return [[from_ints(1, 2, 0, 1), from_ints(1, 0, 4, 1)]]
    raise UnsupportedParameter(f"no special generator set for n={n}")


def principal_generators(n: int, naive: bool = False):
    if n == 2 and not naive:
        return [from_ints(1, 4, 0, 1), from_ints(1, 0, 2, 1)]
    return [from_ints(1, n, 0, 1), from_ints(1, 0, n, 1)]


def sqrt_p_generators(p: int):
    """The root-p subgroups adjoined for the normalizer targets."""
    rp = QuadValue(0, 1, p)
    inv_rp = QuadValue(0, Fraction(-1, p), p)
    w0 = MoebiusElement(0, inv_rp, rp, 0)
    if p >= 5:
        return [[w0, from_ints(1, 1, 0, 1)]]
    t3 = from_ints(1, 3, 0, 1)
    w1 = MoebiusElement(rp, inv_rp, rp, 0)
    return [[w0, t3], [w1, t3]]


def bianchi_x_values(d: int):
    om = bianchi_omega(d)
    return [QuadValue(0), QuadValue(1), om, QuadValue(1) + om, QuadValue(2) + om]


def bianchi_deltas(d: int):
    """The four conjugating involutions, keyed by their coset point.

    For the half-integer rings the x = 1+omega involution is stored via its
    sqrt(-d) form, the unique reading of those coefficients with
    determinant one and integral entries.
    """
    om = bianchi_omega(d)
    one = QuadValue(1)
    if d in (1, 2):
        delta1 = MoebiusElement(38 + 85 * om, 85 * d - 17 - 76 * om,
                                85, -38 - 85 * om)
        return {str(one): delta1,
                str(om): from_ints(43, -50, 37, -43),
                str(one + om): from_ints(68, -125, 37, -68),
                str(QuadValue(2) + om): from_ints(91, -101, 82, -91)}
    if d == 3:
        delta1 = MoebiusElement(-2 + (3 + 4 * d) * om,
                                1 + 4 * om - 7 * om * om - 4 * d * om * om,
                                4 * d - 1, 2 - (3 + 4 * d) * om)
        return {str(one): delta1,
                str(om): from_ints(43, -50, 37, -43),
                str(one + om): MoebiusElement(68 - 37 * om, 99 * om - 88,
                                              37, 37 * om - 68),
                str(QuadValue(2) + om): from_ints(68, -125, 37, -68)}
    if d % 4 == 3:
        delta1 = MoebiusElement(-2 + (3 + 4 * d) * om,
                                1 + 4 * om - 7 * om * om - 4 * d * om * om,
                                4 * d - 1, 2 - (3 + 4 * d) * om)
        root = 2 * om - 1           # sqrt(-d) in ring coordinates
        delta1w = MoebiusElement(7 - 5 * root, 5 * d - 10 + 14 * root,
                                 5, 5 * root - 7)
        return {str(one): delta1,
                str(om): from_ints(7, -10, 5, -7),
                str(one + om): delta1w,
                str(QuadValue(2) + om): from_ints(43, -50, 37, -43)}
    delta1 = MoebiusElement(38 + 85 * om, 85 * d - 17 - 76 * om,
                            85, -38 - 85 * om)
    return {str(one): delta1,
            str(om): from_ints(7, -10, 5, -7),
            str(one + om): from_ints(68, -125, 37, -68),
            str(QuadValue(2) + om): from_ints(43, -50, 37, -43)}


# -- interval planning -------------------------------------------------------------


def free_segments(domain: StripDomain):
    """Maximal open segments of the strip's real trace off all disk shadows."""
    shadows = sorted((_shadow(disk) for disk, _ in domain.excluded),
                     key=lambda s: s[0])
    merged = []
    for lo, hi in shadows:
        if merged and lo.cmp_real(merged[-1][1]) <= 0:
            if hi.cmp_real(merged[-1][1]) > 0:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    segments = []
    cursor = domain.left()
    for lo, hi in merged:
        if lo.cmp_real(cursor) > 0:
            segments.append((cursor, lo))
        if hi.cmp_real(cursor) > 0:
            cursor = hi
    if domain.right().cmp_real(cursor) > 0:
        segments.append((cursor, domain.right()))
    return segments


def pad_intervals(domains, conjugators):
    """Clipped symmetric padding around given conjugator disks.

    Each interval extends the disk pair by up to one radius per side, clipped
    to half the gap toward the neighboring items and to the free-segment
    boundaries of its own domain, so the intervals stay pairwise disjoint.
    """
    extents = []
    for domain, alpha in zip(domains, conjugators):
        da = isometric_disk(alpha)
        lo, hi = _shadow(da)
        inv_lo, inv_hi = _shadow(isometric_disk(alpha.inv()))
        if inv_lo.cmp_real(lo) < 0:
            lo = inv_lo
        if inv_hi.cmp_real(hi) > 0:
            hi = inv_hi
        extents.append((lo, hi, sqrt_qv(da.radius_sq), domain))
    order = sorted(range(len(extents)), key=lambda i: extents[i][0])
    results = [None] * len(extents)
    for pos, i in enumerate(order):
        lo, hi, r, domain = extents[i]
        window_lo, window_hi = _containing_segment(domain, lo, hi)
        pads_left = [r, (lo - window_lo)]
        pads_right = [r, (window_hi - hi)]
        if pos > 0:
            prev_hi = extents[order[pos - 1]][1]
            pads_left.append((lo - prev_hi) / 2)
        if pos + 1 < len(order):
            next_lo = extents[order[pos + 1]][0]
            pads_right.append((next_lo - hi) / 2)
        pad_l = min(pads_left)
        pad_r = min(pads_right)
        if pad_l.sign_real() <= 0 or pad_r.sign_real() <= 0:
            raise SearchExhausted("no room to separate conjugator disks")
        results[i] = (lo - pad_l, hi + pad_r)
    return results


def _containing_segment(domain, lo, hi):
    for seg_lo, seg_hi in free_segments(domain):
        if seg_lo.cmp_real(lo) <= 0 and seg_hi.cmp_real(hi) >= 0:
            return seg_lo, seg_hi
    raise SearchExhausted("conjugator disks are not inside one free segment")


def plan_intervals(domains):
    """Greedy widest-first assignment of disjoint rational intervals.

    Picks one free segment per domain, pairwise disjoint across domains,
    then shrinks to rational endpoints; raises SearchExhausted when the
    segments cannot be separated.
    """
    candidates = []
    for idx, domain in enumerate(domains):
        for seg in free_segments(domain):
            width = seg[1] - seg[0]
            candidates.append((width, idx, seg))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2][0]))
    chosen: dict[int, tuple] = {}
    taken: list[tuple] = []
    for width, idx, seg in candidates:
        if idx in chosen:
            continue
        if any(not (seg[1].cmp_real(t[0]) <= 0 or t[1].cmp_real(seg[0]) <= 0)
               for t in taken):
            continue
        chosen[idx] = seg
        taken.append(seg)
    if len(chosen) != len(domains):
        raise SearchExhausted("could not assign disjoint intervals to all subgroups")
    out = []
    for idx in range(len(domains)):
        lo, hi = chosen[idx]
        width = hi - lo
        lo_r = _rational_point_in(lo, lo + width / 8)
        hi_r = _rational_point_in(hi - width / 8, hi)
        out.append((QuadValue(lo_r), QuadValue(hi_r)))
    return out


# -- conjugator search ---------------------------------------------------------------


def _int_disks_fit(a: int, b: int, c: int, d: int,
                   xn: int, xd: int, yn: int, yd: int) -> bool:
    """Both isometric disks of an integer matrix strictly inside (x, y), for
    x = xn/xd and y = yn/yd with xd, yd > 0.

    The disks span min(-d/c, a/c) - 1/|c| to max(-d/c, a/c) + 1/|c|; the
    bounds are compared multiplied by |c|*xd and |c|*yd."""
    if c == 0:
        return False
    ac = abs(c)
    if c < 0:
        a, d = -a, -d
    lo, hi = min(-d, a) - 1, max(-d, a) + 1
    return xn * ac < lo * xd and hi * yd < yn * ac


def _interval_ints(interval) -> tuple[int, int, int, int]:
    """(xn, xd, yn, yd) of a rational interval (x, y) = (xn/xd, yn/yd)."""
    x, y = qv(interval[0]).to_fraction(), qv(interval[1]).to_fraction()
    return x.numerator, x.denominator, y.numerator, y.denominator


def find_power_conjugator(c_modulus: int, interval, max_height: int = 120,
                          max_power: int = 24) -> MoebiusElement:
    """Search for a power of a hyperbolic element whose disks fit the interval.

    Scans integer matrices with lower-left entry divisible by c_modulus and
    entries bounded by max_height for a hyperbolic element with both fixed
    points inside (x, y), decided by exact sign evaluations; returns the
    least power whose isometric disk pair fits strictly inside.  The number
    of fixed-point candidates whose powers are ground out is capped at
    POWER_CANDIDATES to keep the search budget predictable.
    """
    xn, xd, yn, yd = _interval_ints(interval)
    if not xn * yd < yn * xd:
        raise ValueError("empty interval")
    tried = 0
    for c in range(c_modulus, max_height + 1, c_modulus):
        for a in range(-max_height, max_height + 1):
            if gcd(a, c) != 1:
                continue
            d0 = pow(a, -1, c)
            d_start = d0 - ((d0 + max_height) // c) * c
            for d in range(d_start, max_height + 1, c):
                t = a + d
                if t * t <= 4:
                    continue
                b = (a * d - 1) // c
                if abs(b) > max_height:
                    continue
                # both fixed points of cz^2 + (d-a)z - b inside (x, y):
                # 2cx < a - d < 2cy, and c*(cz^2 + (d-a)z - b) > 0 at z = x
                # and z = y, each multiplied by a positive square denominator
                vertex_num = a - d
                if not (2 * c * xn < vertex_num * xd
                        and vertex_num * yd < 2 * c * yn):
                    continue
                px = c * xn * xn + (d - a) * xn * xd - b * xd * xd
                py = c * yn * yn + (d - a) * yn * yd - b * yd * yd
                if not (c * px > 0 and c * py > 0):
                    continue
                tried += 1
                pa, pb, pc, pd = a, b, c, d
                for k in range(1, max_power + 1):
                    if k > 1:
                        pa, pb, pc, pd = (pa * a + pb * c, pa * b + pb * d,
                                          pc * a + pd * c, pc * b + pd * d)
                    if pc != 0 and _int_disks_fit(pa, pb, pc, pd, xn, xd, yn, yd):
                        return from_ints(pa, pb, pc, pd)
                if tried >= POWER_CANDIDATES:
                    raise SearchExhausted(
                        f"no fitting power among the first {POWER_CANDIDATES} "
                        "fixed-point candidates")
    raise SearchExhausted(
        f"no hyperbolic power conjugator within height {max_height}")


def find_involution_conjugator(c_modulus: int, interval) -> MoebiusElement:
    """Search for a trace-zero element whose single disk fits the interval,
    with lower-left entry up to INVOLUTION_HEIGHT."""
    xn, xd, yn, yd = _interval_ints(interval)
    for c in range(c_modulus, INVOLUTION_HEIGHT + 1, c_modulus):
        # a runs over the integers from floor(x*c) to y*c
        a = xn * c // xd
        while a * yd <= yn * c:
            if (a * a + 1) % c == 0 and _int_disks_fit(a, -(a * a + 1) // c,
                                                       c, -a, xn, xd, yn, yd):
                return from_ints(a, -(a * a + 1) // c, c, -a)
            a += 1
    raise SearchExhausted(
        f"no involution conjugator within height {INVOLUTION_HEIGHT}")


def _search_conjugator(c_modulus, interval, notes, label):
    try:
        return find_power_conjugator(c_modulus, interval)
    except SearchExhausted:
        pass
    try:
        alpha = find_involution_conjugator(c_modulus, interval)
        notes.append(f"{label}: hyperbolic-power search exhausted; "
                     "involution conjugator used instead")
        return alpha
    except SearchExhausted:
        return None


# -- builders ----------------------------------------------------------------------


def build(target: str, param: int | None = None, *,
          naive: bool = False) -> Construction:
    """Materialize a named construction with exact matrices and domains.

    The target's kind and parameter rules are TraceSetModel's; build adds
    only its own: modular takes no parameter and every other kind needs
    one, principal needs n >= 2, and gamma0:1 is the modular construction.
    """
    if target == "modular":
        if param is not None:
            raise UnsupportedParameter("target 'modular' takes no parameter")
        return _build_modular()
    if param is None:
        raise UnsupportedParameter(f"target {target!r} needs a parameter")
    if target == "principal" and param < 2:
        raise UnsupportedParameter("principal level must be >= 2")
    model = TraceSetModel(target, param)
    if model.kind == "gamma0" and param == 1:
        c = _build_modular()
        c.notes.append("level 1 is the full modular group; "
                       "using the modular construction")
        return c
    if model.kind == "principal":
        return _build_principal(model, naive=naive)
    return {"gamma0": _build_gamma0, "normalizer": _build_normalizer,
            "bianchi": _build_bianchi}[model.kind](model)


def _modular_strip(gens):
    """The two-generator domain of gens, re-centred on the strip from -1
    to 4."""
    domain = _two_gen_domain(gens)
    return StripDomain(Fraction(3, 2), Fraction(5, 2), domain.translation,
                       domain.excluded)


def _build_modular() -> Construction:
    gen_sets = modular_subgroup_generators()
    subgroups = [Subgroup(f"G{i}", gens, _modular_strip(gens))
                 for i, gens in enumerate(gen_sets)]
    conjugators = modular_conjugators()
    intervals = pad_intervals([s.domain for s in subgroups], conjugators)
    return Construction(TraceSetModel("modular"), subgroups, conjugators,
                        intervals, _conjugated(subgroups, conjugators))


def _two_gen_subgroups(gen_sets, labels):
    return [Subgroup(label, gens, _two_gen_domain(gens))
            for label, gens in zip(labels, gen_sets)]


def _conjugated(subgroups, conjugators):
    """The combined generators: each subgroup's generators conjugated by
    its conjugator, or as they are where it has none."""
    combined = []
    for sub, alpha in zip(subgroups, conjugators):
        if alpha is None:
            combined.extend(sub.gens)
        else:
            inv = alpha.inv()
            combined.extend(alpha * g * inv for g in sub.gens)
    return combined


def _attach_conjugators(construction) -> Construction:
    """Plan intervals, search conjugators whose lower-left entry is a
    multiple of the model's parameter, and fill combined generators."""
    subs, c_modulus = construction.subgroups, construction.model.param
    try:
        intervals = plan_intervals([s.domain for s in subs])
    except SearchExhausted as exc:
        construction.conjugators = [None] * len(subs)
        construction.intervals = [None] * len(subs)
        construction.notes.append(f"SearchExhausted: {exc}")
    else:
        construction.intervals = intervals
        construction.conjugators = [
            _search_conjugator(c_modulus, interval, construction.notes, sub.label)
            for sub, interval in zip(subs, intervals)]
        construction.notes.extend(
            f"SearchExhausted: no conjugator for {sub.label}"
            for sub, alpha in zip(subs, construction.conjugators) if alpha is None)
    construction.combined_gens = _conjugated(subs, construction.conjugators)
    return construction


def _gamma0_subgroups(n: int) -> list[Subgroup]:
    """The two-generator subgroups whose combination gives Gamma0(n)."""
    if n in (2, 3, 4):
        gen_sets = gamma0_special_generators(n)
        labels = [f"G{i + 1}" for i in range(len(gen_sets))]
    else:
        gen_sets = []
        labels = []
        for a, d, b in gamma0_unit_pairs(n):
            if 2 * abs(a + d) == n:
                # strictness of the center-gap inequality fails; split the
                # residue class over a doubled translation period
                for dd in (d, d + n):
                    bb = (a * dd - 1) // n
                    gen_sets.append([from_ints(1, 2, 0, 1),
                                     from_ints(a, bb, n, dd)])
                    labels.append(f"G(a={a},d={dd})")
            else:
                gen_sets.append([from_ints(1, 1, 0, 1), from_ints(a, b, n, d)])
                labels.append(f"G(a={a},d={d})")
    return _two_gen_subgroups(gen_sets, labels)


def _build_gamma0(model: TraceSetModel) -> Construction:
    return _attach_conjugators(
        Construction(model, _gamma0_subgroups(model.param), [], [], []))


def _build_principal(model: TraceSetModel, naive: bool) -> Construction:
    n = model.param
    gens = principal_generators(n, naive=naive)
    label = "H'" if (n == 2 and not naive) else "H"
    notes = []
    try:
        domain = _two_gen_domain(gens)
    except LemmaViolation as exc:
        # kept so the verifier can report the failure instead of crashing
        domain = None
        notes.append(f"LemmaViolation: {exc.detail}")
    sub = Subgroup(label, gens, domain)
    return Construction(model, [sub], [None], [None], list(gens), notes=notes)


def _build_normalizer(model: TraceSetModel) -> Construction:
    p = model.param
    gen_sets = sqrt_p_generators(p)
    subs = _gamma0_subgroups(p) + _two_gen_subgroups(
        gen_sets, [f"W{i}" for i in range(len(gen_sets))])
    return _attach_conjugators(Construction(model, subs, [], [], []))


def prism_anchor(d: int) -> QuadValue:
    """Base corner -1 - (3/4)omega of the translation cell.

    Chosen so every conjugating sphere, after lattice canonicalization,
    sits strictly inside with margin exceeding its radius; the real offset
    -1 is forced by the radius-1/5 sphere at -3/5 + omega in the half-ring
    family together with the sphere near the imaginary axis in the d = 3
    set.
    """
    return QuadValue(-1) + Fraction(-3, 4) * bianchi_omega(d)


def bianchi_prism(d: int, x: QuadValue) -> PrismDomain:
    """Prism domain of the coset subgroup: unit spheres over the base cell."""
    anchor = prism_anchor(d)
    prism = PrismDomain(d, anchor, [])
    gamma = MoebiusElement(x, -1, 1, 0)
    excluded = []
    seen = set()
    for base, from_zero in ((QuadValue(0), True), (x, False)):
        for center in sphere_translates_meeting_prism(prism, base):
            key = (center.a, center.b)
            if key in seen:
                continue
            seen.add(key)
            shift = center - base if from_zero else center - x
            tau = MoebiusElement(1, shift, 0, 1)
            owner = tau * gamma * tau.inv()
            if not from_zero:
                owner = owner.inv()
            disk = isometric_disk(owner)
            if disk.center != center:
                raise AssertionError("sphere pairing misplaced")
            excluded.append((disk, owner))
    return PrismDomain(d, anchor, excluded)


def _build_bianchi(model: TraceSetModel) -> Construction:
    d = model.param
    om = bianchi_omega(d)
    xs = bianchi_x_values(d)
    deltas_by_x = bianchi_deltas(d)
    t3 = from_ints(1, 3, 0, 1)
    t3w = MoebiusElement(1, 3 * om, 0, 1)
    subgroups = [Subgroup(f"P[{x}]", [MoebiusElement(x, -1, 1, 0), t3, t3w],
                          bianchi_prism(d, x)) for x in xs]
    prism0 = subgroups[0].domain        # the coset x = 0
    conjugators = [None]
    notes = []
    for x in xs[1:]:
        delta = deltas_by_x[str(x)]
        # the lattice shift (js, jt) that moves delta's sphere into the cell
        cx, cy, side = cell_coords(prism0,
                                   *omega_ints(isometric_disk(delta).center, d))
        js, jt = -(cx // side), -(cy // side)
        if (js, jt) != (0, 0):
            tau = MoebiusElement(1, omega_value(3 * js, 3 * jt, 1, d), 0, 1)
            delta = tau * delta * tau.inv()
            notes.append(f"delta[{x}] translated by lattice shift ({js},{jt}) "
                         "into the base prism")
        conjugators.append(delta)
    return Construction(model, subgroups, conjugators, [None] * len(subgroups),
                        _conjugated(subgroups, conjugators), notes=notes)


def coset_cover_check(subgroups) -> CheckRecord:
    """The +-coset points x of the subgroups, read off their coset
    generators [[x, -1], [1, 0]], must cover all nine residues mod the
    3-lattice."""
    residues = set()
    for sub in subgroups:
        for sign in (1, -1):
            u, v, n = omega_ints(sign * sub.gens[0].a, sub.domain.d)
            residues.add((u // n % 3, v // n % 3))
    ok = len(residues) == 9
    return CheckRecord("coset_cover_mod_3", "pass" if ok else "fail",
                       witnesses={"residues": sorted(residues)})


# -- verification pipeline ------------------------------------------------------------


def certify(construction: Construction) -> list[CheckRecord]:
    """Every exact check of a construction's data, in report order.

    Subgroups with a PrismDomain get the half-space checks, the others the
    half-plane ones; nothing is enumerated.
    """
    subs, conjugators = construction.subgroups, construction.conjugators
    checks: list[CheckRecord] = []
    for sub in subs:
        if isinstance(sub.domain, PrismDomain):
            checks.append(CheckRecord(
                f"prism_domain[{sub.label}]", "pass",
                witnesses={"spheres": len(sub.domain.excluded)}))
            continue
        # built again from the generators, so the lemma is proved for them
        # whatever domain is stored
        try:
            fresh = _two_gen_domain(sub.gens)
            checks.append(CheckRecord(
                f"two_gen_domain[{sub.label}]", "pass",
                witnesses={"variant": fresh.variant}))
        except LemmaViolation as exc:
            checks.append(CheckRecord(
                f"two_gen_domain[{sub.label}]", "fail",
                witnesses={"inequality": exc.detail}))

    if isinstance(subs[0].domain, PrismDomain):
        checks.append(coset_cover_check(subs))
        checks += bianchi_separation_check(
            [(sub.domain, sub.gens, alpha)
             for sub, alpha in zip(subs, conjugators)])
    elif all(alpha is not None for alpha in conjugators):
        items = [(sub.domain, alpha, interval) for sub, alpha, interval
                 in zip(subs, conjugators, construction.intervals)]
        checks += verify_separation(items, construction.ambient_check,
                                    construction.model.group)
    elif len(subs) == 1:
        # one subgroup, left unconjugated
        checks.append(CheckRecord("combination_not_required", "pass",
                                  witnesses={"subgroups": 1}))
    else:
        checks.append(CheckRecord(
            "conjugator_search", "undecided",
            witnesses={"reason": "SearchExhausted",
                       "notes": list(construction.notes)}))

    checks.extend(CheckRecord(f"infinite_area_height[{sub.label}]", "pass",
                              margin=infinite_area_height(sub.domain))
                  for sub in subs if sub.domain is not None)

    for idx, g in enumerate(construction.combined_gens):
        ok = construction.ambient_check(g)
        checks.append(CheckRecord(f"ambient_membership[{idx}]",
                                  "pass" if ok else "fail"))
        t = g.canonical_trace()
        checks.append(CheckRecord(
            f"generator_trace_in_model[{idx}]",
            "pass" if model_contains(construction.model, t) else "fail",
            witnesses={"trace": str(t)}))
    stored = iter(construction.combined_gens)
    for sub, alpha in zip(subs, conjugators):
        for j, g in enumerate(sub.gens):
            expect = g if alpha is None else alpha * g * alpha.inv()
            checks.append(CheckRecord(
                f"conjugate_roundtrip[{sub.label}:{j}]",
                "pass" if next(stored, None) == expect else "fail"))
    return checks


def verify_construction(construction: Construction, bound, max_word_len: int,
                        state_cap: int | None = None) -> Certificate:
    """Certify a construction, enumerate its traces up to the bound and
    word length, compare them with the model, and give the verdict."""
    checks = certify(construction)
    reasons = [f"LemmaViolation{c.name.removeprefix('two_gen_domain')}: "
               f"{c.witnesses['inequality']}" for c in checks
               if c.name.startswith("two_gen_domain") and c.status == "fail"]

    coverage = None
    coverage_note = None
    witnesses = {}
    try:
        union = {}
        for sub in construction.subgroups:
            result = enumerate_traces(sub.gens, max_word_len, bound,
                                      state_cap=state_cap)
            for t, w in result.traces.items():
                union.setdefault(t, f"{sub.label}:{w}")
        cross_len = min(max_word_len, CROSS_CHECK_LEN)
        cross = enumerate_traces(construction.combined_gens, cross_len, bound,
                                 state_cap=state_cap)
        for t, w in cross.traces.items():
            union.setdefault(t, f"H:{w}")
        expected = expected_set(construction.model, bound)
        coverage = coverage_report(expected, set(union))
        witnesses = {str(t): union[t] for t in
                     sorted(union, key=trace_sort_key)}
    except StateExplosion as exc:
        coverage_note = f"StateExplosion: {exc}"

    failed = [c.name for c in checks if c.status == "fail"]
    undecided = [c.name for c in checks if c.status == "undecided"]

    if coverage is not None and (coverage.missing or coverage.extra):
        reasons.append(f"coverage missing={len(coverage.missing)} "
                       f"extra={len(coverage.extra)}")
        verdict = "Failed"
    elif failed:
        reasons.extend(failed)
        verdict = "Failed"
    elif coverage_note or undecided:
        reasons.extend(undecided)
        if coverage_note:
            reasons.append(coverage_note)
        verdict = "Undecided"
    else:
        verdict = "Verified"
    return Certificate(construction, checks, coverage, coverage_note,
                       witnesses, verdict, reasons)
