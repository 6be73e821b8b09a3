import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fordlab.geometry
from fordlab.exactnum import (
    PrecisionExhausted,
    QuadValue,
    RadicalExpr,
    qv,
    sqrt_qv,
)
from fordlab.geometry import (
    CheckRecord,
    Disjointness,
    FixesInfinity,
    IsometricDisk,
    LemmaViolation,
    Membership,
    StripDomain,
    ball_strictly_in_prism,
    bianchi_separation_check,
    build_ford_two_gen,
    disk_contains_fixed_point,
    disk_within_interval,
    disks_disjoint,
    domain_basepoint,
    infinite_area_height,
    isometric_disk,
    membership_reduce,
    power_sphere_scan,
    separation_margin,
    sphere_translates_meeting_prism,
    verify_separation,
    PrismDomain,
    _interval_margin,
    _lattice_translates,
    _prism_dist_sq,
    _separation_expr,
    _spheres_apart,
    cell_coords,
)
from fordlab.moebius import (
    MoebiusElement,
    bianchi_omega,
    from_ints,
    in_pslz,
    omega_ints,
    omega_value,
)

S = from_ints(0, -1, 1, 0)
T5 = from_ints(1, 5, 0, 1)
G1 = from_ints(1, -1, 1, 0)
G2 = from_ints(2, -1, 1, 0)
ALPHA0 = from_ints(142, -545, 37, -142)
ALPHA1 = from_ints(17, -58, 5, -17)
ALPHA2 = from_ints(117, -370, 37, -117)


def unit_disk(center) -> IsometricDisk:
    """Radius-1 disk at an integer point, owned by a translate of the order-2
    rotation."""
    tau = MoebiusElement(1, center, 0, 1)
    owner = tau * S * tau.inv()
    return isometric_disk(owner)


def test_isometric_disk_examples():
    d = isometric_disk(S)
    assert d.center == QuadValue(0) and d.radius_sq == 1
    d = isometric_disk(ALPHA1)
    assert d.center == QuadValue(Fraction(17, 5))
    assert d.radius_sq == Fraction(1, 25)
    om = bianchi_omega(1)
    g = MoebiusElement(om, -1, 1, 0)
    assert isometric_disk(g).center == QuadValue(0)
    assert isometric_disk(g).radius_sq == 1
    assert isometric_disk(g.inv()).center == om


def test_isometric_disk_rejects_upper_triangular():
    with pytest.raises(FixesInfinity):
        isometric_disk(T5)


def test_disks_disjoint_trichotomy():
    assert disks_disjoint(unit_disk(0), unit_disk(3)) == Disjointness.DISJOINT
    assert disks_disjoint(unit_disk(0), unit_disk(2)) == Disjointness.TANGENT
    assert disks_disjoint(unit_disk(0), unit_disk(1)) == Disjointness.OVERLAP


def test_disjointness_margin_example():
    # the two half-ring conjugator spheres: edges 6/5 vs 44/37, margin 2/185
    d_om = isometric_disk(from_ints(7, -10, 5, -7))
    d_2om = isometric_disk(from_ints(43, -50, 37, -43))
    assert disks_disjoint(d_om, d_2om) == Disjointness.DISJOINT
    assert separation_margin(d_om, d_2om) == QuadValue(Fraction(2, 185))


def test_involution_circles_coincide():
    for g in (S, ALPHA0, ALPHA1, ALPHA2, from_ints(7, -10, 5, -7)):
        assert g.canonical_trace() == QuadValue(0)
        assert isometric_disk(g).same_circle(isometric_disk(g.inv()))


def modular_strip(g2):
    excluded = [(isometric_disk(g2), g2)]
    inv_disk = isometric_disk(g2.inv())
    if not excluded[0][0].same_circle(inv_disk):
        excluded.append((inv_disk, g2.inv()))
    return StripDomain(Fraction(3, 2), Fraction(5, 2), T5, excluded)


def _disk_in_domain(u, dom):
    """The disk strictly inside the strip and off every excluded disk."""
    return (disk_within_interval(u, dom.left(), dom.right())
            and all(disks_disjoint(u, other) == Disjointness.DISJOINT
                    for other, _ in dom.excluded))


def test_disk_in_domain():
    dom = modular_strip(G1)
    assert _disk_in_domain(isometric_disk(ALPHA1), dom)
    assert not _disk_in_domain(isometric_disk(G1), dom)   # an excluded disk
    assert not _disk_in_domain(unit_disk(-5), dom)        # outside the strip


def test_build_ford_two_gen_examples():
    dom = build_ford_two_gen(5, S)
    assert dom.center == QuadValue(0)
    assert dom.halfwidth == QuadValue(Fraction(5, 2))
    assert len(dom.excluded) == 1 and dom.variant == "classic"

    dom = build_ford_two_gen(4, from_ints(1, 0, 2, 1))
    assert dom.variant == "classic"

    with pytest.raises(LemmaViolation):
        build_ford_two_gen(2, from_ints(1, 0, 2, 1))


def test_build_ford_sharp_variant_for_root_p():
    for p in (5, 7):
        w = MoebiusElement(0, QuadValue(0, Fraction(-1, p), p),
                           QuadValue(0, 1, p), 0)
        dom = build_ford_two_gen(1, w)
        assert dom.variant == "sharp"
        assert dom.excluded[0][0].radius_sq == Fraction(1, p)


def test_membership_examples():
    dom = build_ford_two_gen(5, S)
    assert membership_reduce(dom, T5).status == Membership.MEMBER
    assert len(membership_reduce(dom, T5).word) == 1
    assert membership_reduce(dom, S * T5 * S).status == Membership.MEMBER
    dom1 = build_ford_two_gen(5, G1)
    assert membership_reduce(dom1, ALPHA1).status == Membership.NON_MEMBER


def test_membership_agrees_with_word_table():
    dom = build_ford_two_gen(5, S)
    gens = [S, T5, T5.inv()]
    level = [S, T5, T5.inv()]
    seen = {g.key(): g for g in level}
    for _ in range(4):
        nxt = []
        for w in level:
            for g in gens:
                e = w * g
                if e.key() not in seen:
                    seen[e.key()] = e
                    nxt.append(e)
        level = nxt
    for elem in seen.values():
        if elem.is_identity():
            continue
        assert membership_reduce(dom, elem).status == Membership.MEMBER
    # twenty pseudorandom ambient elements: reductions agree with the table
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        g = from_ints(1, 0, 0, 1)
        for _ in range(rng.randint(2, 6)):
            g = g * rng.choice([S, from_ints(1, 1, 0, 1)])
        if g.is_identity():
            continue
        result = membership_reduce(dom, g)
        if result.status == Membership.MEMBER:
            assert g.key() in seen
        elif result.status == Membership.NON_MEMBER:
            assert g.key() not in seen
        checked += 1


def test_basepoint_is_interior_and_rational():
    dom = build_ford_two_gen(5, S)
    x, y = domain_basepoint(dom)
    assert x.is_rational and y.is_rational
    assert abs(x - dom.center).cmp_real(dom.halfwidth) < 0
    assert y.sign_real() > 0


def test_infinite_area_height():
    assert infinite_area_height(build_ford_two_gen(5, S)) == QuadValue(1)
    empty = StripDomain(0, Fraction(5, 2), T5, [])
    assert infinite_area_height(empty) == QuadValue(0)


def test_power_sphere_scan_examples():
    scan = power_sphere_scan(from_ints(2, -1, 1, 0), 10)
    assert [v for _, v in scan.norms] == [n * n for n in range(1, 11)]
    assert scan.growing
    scan = power_sphere_scan(S, 10)
    assert len(scan.entries) == 1 and not scan.growing
    assert scan.skipped == [2, 4, 6, 8, 10]
    om = bianchi_omega(1)
    scan = power_sphere_scan(MoebiusElement(om, -1, 1, 0), 10)
    assert scan.growing


def test_fixed_point_containment_real():
    g = from_ints(3, -1, 1, 0)     # hyperbolic, fixed points (3 +- sqrt5)/2
    for n in (1, 2, 3, 4):
        power = g ** n
        assert disk_contains_fixed_point(g, isometric_disk(power))
        assert disk_contains_fixed_point(g, isometric_disk(power.inv()))
    # a far-away disk contains no fixed point
    assert not disk_contains_fixed_point(g, unit_disk(9))


def test_fixed_point_containment_complex():
    om = bianchi_omega(1)
    g = MoebiusElement(om, -1, 1, 0)
    for n in (1, 2, 3, 5, 8):
        power = g ** n
        if power.c.is_zero():
            continue
        assert disk_contains_fixed_point(g, isometric_disk(power))
        assert disk_contains_fixed_point(g, isometric_disk(power.inv()))
    far = IsometricDisk(QuadValue(9), Fraction(1))
    assert not disk_contains_fixed_point(g, far)


def _unpassed(checks):
    """The names of the checks that do not pass."""
    return [c.name for c in checks if c.status != "pass"]


def test_verify_separation_modular_data():
    domains = [modular_strip(S), modular_strip(G1), modular_strip(G2)]
    conjugators = [ALPHA0, ALPHA1, ALPHA2]
    from fordlab.constructions import pad_intervals
    intervals = pad_intervals(domains, conjugators)
    items = list(zip(domains, conjugators, intervals))
    checks = verify_separation(items, in_pslz, "PSL2(Z)")
    assert not _unpassed(checks)


def test_verify_separation_degenerate_conjugator():
    domains = [modular_strip(S)]
    items = [(domains[0], from_ints(1, 1, 0, 1), (QuadValue(3), QuadValue(4)))]
    checks = verify_separation(items, in_pslz)
    assert _unpassed(checks)
    assert any("conjugator_disks" in c.name and c.status == "fail"
               for c in checks)


def test_verify_separation_equal_intervals_fail():
    domains = [modular_strip(S), modular_strip(G1)]
    iv = (QuadValue(3), QuadValue(4))
    items = [(domains[0], ALPHA0, iv), (domains[1], ALPHA1, iv)]
    checks = verify_separation(items, in_pslz)
    assert any(c.name.startswith("intervals_disjoint") and c.status == "fail"
               for c in checks)


@pytest.mark.parametrize("alpha1, margin", [
    (from_ints(5, -26, 1, -5), 0),    # unit disks at 3 and 5 touch at 4
    (from_ints(4, -17, 1, -4), -1),   # unit disks at 3 and 4 overlap
], ids=["tangent", "overlap"])
def test_conjugator_disks_disjoint_status_is_margin_sign(alpha1, margin):
    # tangency, margin exactly 0, fails like an overlap
    alpha0 = from_ints(3, -10, 1, -3)
    domain = modular_strip(S)
    items = [(domain, alpha0, (QuadValue(2), QuadValue(4))),
             (domain, alpha1, (QuadValue(4), QuadValue(6)))]
    checks = {c.name: c for c in verify_separation(items, in_pslz)}
    check = checks["conjugator_disks_disjoint[0,1]"]
    assert check.status == "fail"
    assert check.margin == QuadValue(margin)


def _prism(d):
    from fordlab.constructions import bianchi_prism
    return bianchi_prism(d, QuadValue(0))


def test_prism_geometry():
    prism = _prism(5)
    om = bianchi_omega(5)
    assert _prism_dist_sq(prism, *omega_ints(QuadValue(1) + om, 5)) == 0
    far = QuadValue(20) + om * 9
    assert _prism_dist_sq(prism, *omega_ints(far, 5)) > 0
    centers = sphere_translates_meeting_prism(prism, QuadValue(0))
    assert QuadValue(0) in centers and QuadValue(3) in centers


def test_delta_sphere_inside_prism_for_d5():
    om = bianchi_omega(5)
    delta1 = MoebiusElement(38 + 85 * om, 85 * 5 - 17 - 76 * om, 85, -38 - 85 * om)
    disk = isometric_disk(delta1)
    assert disk.center == QuadValue(Fraction(38, 85)) + om
    assert disk.radius_sq == Fraction(1, 85 * 85)
    ok, margin = ball_strictly_in_prism(disk, _prism(5))
    assert ok and margin > 0
    from fordlab.constructions import bianchi_prism
    # both cosets' prisms share the cell; the ball clears each one's spheres
    for base in (QuadValue(0), QuadValue(1)):
        assert all(disks_disjoint(disk, other) == Disjointness.DISJOINT
                   for other, _ in bianchi_prism(5, base).excluded)


def _bianchi_items(c):
    return [(sub.domain, sub.gens, alpha)
            for sub, alpha in zip(c.subgroups, c.conjugators)]


def test_bianchi_separation_d5_passes():
    from fordlab.constructions import build
    checks = bianchi_separation_check(_bianchi_items(build("bianchi", 5)),
                                      horizon=30)
    assert not _unpassed(checks)


def test_bianchi_separation_d3_family_set_diagnostic():
    # running d=3 with the half-ring family deltas (not its special set)
    # must complete and record a failing check rather than crash
    from fordlab.constructions import build
    c = build("bianchi", 3)
    om = bianchi_omega(3)
    root = 2 * om - 1
    family = {
        str(QuadValue(1)): MoebiusElement(-2 + 15 * om, 1 + 4 * om - 19 * om * om,
                                          11, 2 - 15 * om),
        str(om): from_ints(7, -10, 5, -7),
        str(QuadValue(1) + om): MoebiusElement(7 - 5 * root, 5 * 3 - 10 + 14 * root,
                                               5, 5 * root - 7),
        str(QuadValue(2) + om): from_ints(43, -50, 37, -43),
    }
    items = []
    for sub in c.subgroups:
        x = sub.gens[0].a
        delta = None if x.is_zero() else family[str(x)]
        items.append((sub.domain, sub.gens, delta))
    checks = bianchi_separation_check(items, horizon=20)
    assert isinstance(checks[0], CheckRecord)
    assert _unpassed(checks)


def test_delta_clears_the_unit_spheres_of_its_own_domain():
    # a unit sphere added to P[1]'s domain, meeting delta[1]'s sphere, fails
    # that coset's check and no other
    from fordlab.constructions import build
    c = build("bianchi", 19)
    name = "delta_clears_unit_spheres[{}]"
    before = {ch.name: ch.status for ch in bianchi_separation_check(
        _bianchi_items(c), horizon=2)}
    assert [before[name.format(i)] for i in (1, 2, 3, 4)] == ["pass"] * 4
    tau = MoebiusElement(1, isometric_disk(c.conjugators[1]).center + 1, 0, 1)
    owner = tau * S * tau.inv()
    c.subgroups[1].domain.excluded.append((isometric_disk(owner), owner))
    after = {ch.name: ch.status for ch in bianchi_separation_check(
        _bianchi_items(c), horizon=2)}
    assert [after[name.format(i)] for i in (1, 2, 3, 4)] == [
        "fail", "pass", "pass", "pass"]


# square-free d up to 23, and 26, 29, 30, 31, 35, 43 and 67
_BIANCHI_SWEEP = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23,
                  26, 29, 30, 31, 35, 43, 67)


@pytest.mark.parametrize("d", _BIANCHI_SWEEP)
def test_unit_sphere_margin_is_least_over_wide_translates(d):
    """Each delta_clears_unit_spheres margin, read from the domain's
    excluded spheres, is the least |c - tau| - r - 1 over the 25 lattice
    translates tau of 0 and the 25 of the coset point x."""
    from fordlab.constructions import build
    c = build("bianchi", d)
    checks = {ch.name: ch for ch in bianchi_separation_check(
        _bianchi_items(c), horizon=2)}
    for idx, (sub, delta) in enumerate(zip(c.subgroups, c.conjugators)):
        if delta is None:
            continue
        disk = isometric_disk(delta)
        want = min(sqrt_qv((disk.center - tau).abs2())
                   - sqrt_qv(disk.radius_sq) - 1
                   for base in (QuadValue(0), sub.gens[0].a)
                   for tau in _seed_translates(sub.domain, base))
        assert checks[f"delta_clears_unit_spheres[{idx}]"].margin == want


def test_degenerate_delta_with_nonzero_trace_fails():
    from fordlab.constructions import build
    c = build("bianchi", 5)
    om = bianchi_omega(5)
    items = []
    for sub in c.subgroups:
        delta = None if sub.gens[0].a.is_zero() else from_ints(2, -1, 1, 0)
        items.append((sub.domain, sub.gens, delta))
    checks = bianchi_separation_check(items, horizon=10)
    assert any(c_.name.startswith("delta_involution") and c_.status == "fail"
               for c_ in checks)


def test_power_tail_fails_when_any_centre_fails(monkeypatch):
    """A definite tail failure on one centre decides power_tail even when a
    later centre's sign raises PrecisionExhausted; a check whose centres
    only raise is undecided."""
    from fordlab.constructions import build
    items = _bianchi_items(build("bianchi", 1))
    before = {ch.name: ch.status for ch in bianchi_separation_check(
        items, horizon=10)}
    assert [before["power_tail[2]"], before["power_tail[3]"]] == ["pass"] * 2
    signs = []

    class TailExpr(RadicalExpr):
        # the tail test sqrt(dist2) - 1 - r_delta - 2/sqrt(cap_norm) is the
        # only expression built from -1 and three radicals; its first sign
        # fails and every later one raises
        def __init__(self, base=0, terms=()):
            super().__init__(base, terms)
            self.tail = base == -1 and len(terms) == 3

        def sign(self):
            if not self.tail:
                return super().sign()
            signs.append(self)
            if len(signs) == 1:
                return -1
            raise PrecisionExhausted("forced")

    monkeypatch.setattr(fordlab.geometry, "RadicalExpr", TailExpr)
    after = {ch.name: ch.status for ch in bianchi_separation_check(
        items, horizon=10)}
    assert len(signs) > 2
    assert [after["power_tail[2]"], after["power_tail[3]"]] == [
        "fail", "undecided"]


def test_circle_mapping_identity_random():
    rng = random.Random(404)
    T = from_ints(1, 1, 0, 1)
    count = 0
    while count < 100:
        g = from_ints(1, 0, 0, 1)
        for _ in range(rng.randint(2, 8)):
            g = g * rng.choice([S, T, T.inv()])
        if g.c.is_zero():
            continue
        disk = isometric_disk(g)
        r = sqrt_qv(disk.radius_sq)
        assert r.is_rational
        target = isometric_disk(g.inv())
        for t in (0, 1, -1, 2, Fraction(1, 3)):
            t = Fraction(t)
            den = 1 + t * t
            x = disk.center + r * QuadValue(Fraction(1 - t * t) / den)
            y = r * QuadValue(2 * t / den)
            if y.sign_real() == 0:
                gz = g.apply_to_boundary(x)
                dist2 = (gz - target.center) * (gz - target.center)
            else:
                gx, gy = g.apply_to_point(x, abs(y))
                dist2 = (gx - target.center) * (gx - target.center) + gy * gy
            assert dist2 == QuadValue(disk.radius_sq)
        count += 1


def test_bianchi_radius_bound_random():
    rng = random.Random(405)
    for _ in range(1000):
        d = rng.choice([1, 2, 3, 5, 6, 7, 11, 15, 19])
        om = bianchi_omega(d)
        g = from_ints(1, 0, 0, 1)
        gens = [MoebiusElement(om, -1, 1, 0), from_ints(1, 1, 0, 1),
                MoebiusElement(1, om, 0, 1), S]
        for _ in range(rng.randint(1, 6)):
            g = g * rng.choice(gens)
        if g.c.is_zero():
            continue
        assert isometric_disk(g).radius_sq <= 1


def test_no_overlap_of_interior_points():
    rng = random.Random(406)
    for gens in ([S, T5], [G1, T5], [G2, T5],
                 [from_ints(1, 0, 3, 1), from_ints(1, 2, 0, 1)]):
        trans = [g for g in gens if g.c.is_zero()][0]
        other = [g for g in gens if not g.c.is_zero()][0]
        dom = build_ford_two_gen(abs(trans.b), other)
        words = _reduced_words([trans, other], 4)
        pts = _interior_points(dom, rng, 50)
        for x, y in pts:
            for w in words:
                if w.is_identity():
                    continue
                wx, wy = w.apply_to_point(x, y)
                assert not _strict_interior(dom, wx, wy)


def _interior_points(dom, rng, count):
    pts = []
    while len(pts) < count:
        x = dom.center + QuadValue(Fraction(rng.randint(-99, 99), 100)) * dom.halfwidth
        y = QuadValue(Fraction(rng.randint(1, 300), 100))
        if _strict_interior(dom, x, y):
            pts.append((x, y))
    return pts


def _strict_interior(dom, x, y):
    if abs(x - dom.center).cmp_real(dom.halfwidth) >= 0:
        return False
    for disk, _ in dom.excluded:
        dx = x - disk.center
        if (dx * dx + y * y).cmp_real(QuadValue(disk.radius_sq)) <= 0:
            return False
    return True


def _reduced_words(gens, max_len):
    frontier = {from_ints(1, 0, 0, 1).key(): from_ints(1, 0, 0, 1)}
    out = dict(frontier)
    dirs = []
    for g in gens:
        dirs.extend([g, g.inv()])
    level = list(frontier.values())
    for _ in range(max_len):
        nxt = []
        for w in level:
            for g in dirs:
                e = w * g
                if e.key() not in out:
                    out[e.key()] = e
                    nxt.append(e)
        level = nxt
    return list(out.values())


def test_margins_fall_back_only_on_mixed_radicands(monkeypatch):
    # radii sqrt(2)/2 and sqrt(3)/3 do not combine into one ring with the
    # centre gap, so each margin falls back, and only for that reason
    u = IsometricDisk(QuadValue(0), Fraction(1, 2))
    v = IsometricDisk(QuadValue(5), Fraction(1, 3))
    root2 = QuadValue(0, 1, 2)
    alpha = MoebiusElement(root2, QuadValue(0, Fraction(-1, 2), 2), root2, 0)
    da, dai = isometric_disk(alpha), isometric_disk(alpha.inv())
    x, y = QuadValue(0, -1, 5), QuadValue(0, 1, 5)
    calls = [
        lambda: separation_margin(u, v),
        lambda: _interval_margin(da, dai, x, y),
    ]
    assert [call() for call in calls] == [
        _separation_expr(u, v).to_quadvalue(), None]

    def broken(q):
        raise RuntimeError("broken sqrt")

    monkeypatch.setattr(fordlab.geometry, "sqrt_qv", broken)
    for call in calls:
        with pytest.raises(RuntimeError):
            call()


# -- integer sphere and prism predicates against their QuadValue formulas ------

# d = 1 and 13 (1 mod 4), 2 and 6 (2 mod 4), 3, 7 and 19 (3 mod 4)
_RINGS = [1, 2, 3, 6, 7, 13, 19]
_HUGE = 1 << 70
_NUMS = st.integers(-6, 6) | st.integers(-_HUGE, _HUGE)
_DENS = st.integers(1, 6) | st.integers(1, _HUGE)
_RATS = st.builds(Fraction, _NUMS, _DENS)
_RADII_SQ = st.builds(Fraction, st.integers(1, 6) | st.integers(1, _HUGE), _DENS)


def _radical_sign(ca, r2a, cb, r2b):
    """sign(|c_a - c_b| - r_a - r_b) by the RadicalExpr formula
    |c_a - c_b|^2 - r_a^2 - r_b^2 - 2*sqrt(r_a^2 r_b^2)."""
    gap = (ca - cb).abs2()
    return RadicalExpr(gap - r2a - r2b, ((-2, r2a * r2b),)).sign()


def _int_sign(ca, r2a, cb, r2b, d):
    return _spheres_apart((*omega_ints(ca, d), r2a),
                          (*omega_ints(cb, d), r2b), d)


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(_RINGS), a=_RATS, b=_RATS, shift_a=_RATS,
       shift_b=_RATS, r2a=_RADII_SQ, r2b=_RADII_SQ)
@example(d=3, a=Fraction(1, 2), b=Fraction(1, 2), shift_a=Fraction(0),
         shift_b=Fraction(0), r2a=Fraction(1), r2b=Fraction(1, 4))
def test_sphere_sign_on_integers_matches_radical_formula(d, a, b, shift_a,
                                                         shift_b, r2a, r2b):
    ca, cb = QuadValue(a, b, -d), QuadValue(a + shift_a, b + shift_b, -d)
    assert omega_value(*omega_ints(ca, d), d) == ca
    want = _radical_sign(ca, r2a, cb, r2b)
    assert _int_sign(ca, r2a, cb, r2b, d) == want
    assert _int_sign(cb, r2b, ca, r2a, d) == want
    # equal centres always overlap
    assert _int_sign(ca, r2a, ca, r2b, d) == _radical_sign(ca, r2a, ca, r2b) == -1


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from(_RINGS), a=_RATS, b=_RATS,
       length=st.builds(Fraction, st.integers(1, _HUGE), _DENS),
       part=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
       imaginary=st.booleans(), nudge=st.sampled_from([-1, 0, 1]))
def test_sphere_sign_on_integers_at_tangency(d, a, b, length, part, imaginary,
                                             nudge):
    """Spheres with r_a + r_b = |c_a - c_b| are tangent (sign 0), and a
    nudge of r_b^2 by a tiny fraction of it moves the sign the other way:
    along a real shift by L with radii s*L and (1 - s)*L, or along an
    imaginary shift by L*sqrt(-d) with radii s*L*sqrt(d) and (1 - s)*L*sqrt(d),
    whose squares are not squares of rationals."""
    ca = QuadValue(a, b, -d)
    cb = ca + (QuadValue(0, length, -d) if imaginary else QuadValue(length))
    scale = d if imaginary else 1
    r2a = (part * length) ** 2 * scale
    r2b = ((1 - part) * length) ** 2 * scale
    r2b += nudge * r2b / (1 << 80)
    want = _radical_sign(ca, r2a, cb, r2b)
    assert want == -nudge
    assert _int_sign(ca, r2a, cb, r2b, d) == want


# The former QuadValue and Fraction forms of the prism predicates: the cell
# spanned by t1 = 3 and t2 = 3*omega from the anchor, lattice coordinates
# in that basis, and the squared distances to the wall lines.

def _seed_cell(prism):
    return QuadValue(3), 3 * bianchi_omega(prism.d)


def _seed_lattice_coords(prism, z):
    w = qv(z) - prism.anchor
    if prism.d % 4 == 3:
        u, v = w.a - w.b, 2 * w.b
    else:
        u, v = w.a, w.b
    return u / 3, v / 3


def _seed_canonicalize(prism, z):
    """Translate z by the lattice into the base cell; return (point, shift)."""
    s, t = _seed_lattice_coords(prism, z)
    js, jt = s.numerator // s.denominator, t.numerator // t.denominator
    t1, t2 = _seed_cell(prism)
    return qv(z) - t1 * js - t2 * jt, (-js, -jt)


def _seed_wall_distance_sq(prism, z):
    """Squared distances from z to the four wall planes."""
    t1, t2 = _seed_cell(prism)
    out = []
    for p, u in ((prism.anchor, t1), (prism.anchor + t2, t1),
                 (prism.anchor, t2), (prism.anchor + t1, t2)):
        w = (z - p) * u.conj()
        out.append(w.b * w.b * prism.d / u.abs2())
    return out


def _seed_ball_strictly_in_prism(disk, prism):
    s, t = _seed_lattice_coords(prism, disk.center)
    if not (0 < s < 1 and 0 < t < 1):
        return False, Fraction(-1)
    worst = None
    for dist2 in _seed_wall_distance_sq(prism, disk.center):
        margin = dist2 - disk.radius_sq
        if margin <= 0:
            return False, margin
        worst = margin if worst is None else min(worst, margin)
    return True, worst


def _seed_point_prism_dist_sq(z, prism):
    """The QuadValue form of _prism_dist_sq: the nearest point of each
    edge by a clamped projection."""
    s, t = _seed_lattice_coords(prism, z)
    if 0 <= s <= 1 and 0 <= t <= 1:
        return Fraction(0)
    t1, t2 = _seed_cell(prism)
    corners = [prism.anchor, prism.anchor + t1, prism.anchor + t1 + t2,
               prism.anchor + t2]
    best = None
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        u, w = b - a, z - a
        t = ((w * u.conj() + u * w.conj()).a / 2) / u.abs2()
        t = min(max(t, Fraction(0)), Fraction(1))
        d2 = (z - (a + u * t)).abs2()
        best = d2 if best is None else min(best, d2)
    return best


def _seed_translates(prism, z):
    base0, _ = _seed_canonicalize(prism, z)
    t1, t2 = _seed_cell(prism)
    return [base0 + t1 * j + t2 * k for j in range(-2, 3) for k in range(-2, 3)]


def _seed_translates_meeting_prism(prism, base):
    # deduplicated, so that equal results show the 25 translates distinct
    centers, seen = [], set()
    for z in _seed_translates(prism, base):
        if (z.a, z.b) not in seen:
            seen.add((z.a, z.b))
            if _seed_point_prism_dist_sq(z, prism) <= 1:
                centers.append(z)
    centers.sort(key=lambda c: (c.a, c.b))
    return centers


# cell coordinates: walls and corners at 0 and 1, and points off the cell
_CELL = (st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1),
                          Fraction(2), Fraction(-1, 3), Fraction(4, 3)])
         | st.fractions(min_value=-3, max_value=4, max_denominator=50))


def _prism_for(d, anchor):
    from fordlab.constructions import prism_anchor
    return PrismDomain(d, prism_anchor(d) if anchor is None else anchor, [])


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from(_RINGS),
       anchor=st.none() | st.tuples(_RATS, _RATS), points=st.lists(
           st.tuples(_CELL, _CELL), min_size=1, max_size=4))
def test_prism_predicates_on_integers_match_quadvalue_forms(d, anchor, points):
    if anchor is not None:
        anchor = QuadValue(anchor[0], anchor[1], -d)
    prism = _prism_for(d, anchor)
    t1, t2 = _seed_cell(prism)
    zs = [prism.anchor + t1 * s + t2 * t for s, t in points]
    for z in zs:
        assert (_prism_dist_sq(prism, *omega_ints(z, d))
                == _seed_point_prism_dist_sq(z, prism))
        assert [omega_value(*c, d) for c in _lattice_translates(prism, z)] \
            == _seed_translates(prism, z)
        got = sphere_translates_meeting_prism(prism, z)
        want = _seed_translates_meeting_prism(prism, z)
        assert got == want
        assert [(c.a, c.b) for c in got] == [(c.a, c.b) for c in want]


# mostly inside the cell, where several walls may fail and the first
# one's margin is reported
_IN_CELL = st.fractions(min_value=0, max_value=1, max_denominator=50) | _CELL


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(_RINGS), anchor=st.none() | st.tuples(_RATS, _RATS),
       point=st.tuples(_IN_CELL, _IN_CELL),
       wall=st.sampled_from([None, 0, 1, 2, 3]),
       radius_sq=st.sampled_from([Fraction(1, 10 ** 6), Fraction(1, 9),
                                  Fraction(1), Fraction(7, 2), Fraction(9)]),
       nudge=st.sampled_from([-1, 0, 1]))
@example(d=3, anchor=None, point=(Fraction(1, 2), Fraction(0)), wall=None,
         radius_sq=Fraction(1, 9), nudge=0)
@example(d=7, anchor=None, point=(Fraction(1, 2), Fraction(1, 2)), wall=None,
         radius_sq=Fraction(1, 9), nudge=0)
@example(d=1, anchor=None, point=(Fraction(3, 10), Fraction(1, 5)), wall=None,
         radius_sq=Fraction(9), nudge=0)
def test_ball_in_prism_on_integers_matches_wall_formula(d, anchor, point, wall,
                                                        radius_sq, nudge):
    """ok and margin of ball_strictly_in_prism agree with the
    lattice-coordinate and wall-plane formulas: for centres on walls and
    corners and outside the cell, and for radii equal to a wall distance
    (margin 0) or nudged off it."""
    if anchor is not None:
        anchor = QuadValue(anchor[0], anchor[1], -d)
    prism = _prism_for(d, anchor)
    t1, t2 = _seed_cell(prism)
    z = prism.anchor + t1 * point[0] + t2 * point[1]
    if wall is not None:
        radius_sq = _seed_wall_distance_sq(prism, z)[wall] or radius_sq
        radius_sq += nudge * radius_sq / (1 << 40)
    disk = IsometricDisk(z, radius_sq)
    got = ball_strictly_in_prism(disk, prism)
    assert got == _seed_ball_strictly_in_prism(disk, prism)


@given(d=st.sampled_from(_RINGS), anchor=st.none() | st.tuples(_RATS, _RATS),
       point=st.tuples(_CELL, _CELL))
def test_cell_shift_matches_canonicalize(d, anchor, point):
    """The lattice shift read off cell_coords, as _build_bianchi reads it,
    is the one the former canonicalize returned."""
    if anchor is not None:
        anchor = QuadValue(anchor[0], anchor[1], -d)
    prism = _prism_for(d, anchor)
    t1, t2 = _seed_cell(prism)
    z = prism.anchor + t1 * point[0] + t2 * point[1]
    x, y, side = cell_coords(prism, *omega_ints(z, d))
    base, shift = _seed_canonicalize(prism, z)
    assert (-(x // side), -(y // side)) == shift
    assert z + t1 * shift[0] + t2 * shift[1] == base


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 10, 19])
def test_bianchi_conjugators_shifted_as_by_canonicalize(d):
    from fordlab.constructions import bianchi_deltas, bianchi_x_values, build
    c = build("bianchi", d)
    prism = c.subgroups[0].domain
    t1, t2 = _seed_cell(prism)
    want = [None]
    for x in bianchi_x_values(d)[1:]:
        delta = bianchi_deltas(d)[str(x)]
        _, (js, jt) = _seed_canonicalize(prism, isometric_disk(delta).center)
        tau = MoebiusElement(1, t1 * js + t2 * jt, 0, 1)
        want.append(tau * delta * tau.inv())
    assert c.conjugators == want


_SMALL_RATS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
# squared radii of isometric disks, 1/|c|^2: m*s^2/t^2 for a small
# square-free m, as for c = t/(s*sqrt(m))
_DISK_RADII_SQ = st.builds(lambda m, s, t: Fraction(m * s * s, t * t),
                           st.sampled_from([1, 2, 3, 5, 7, 19]),
                           st.integers(1, 6) | st.integers(1, 1 << 30),
                           st.integers(1, 6) | st.integers(1, 1 << 30))


@settings(max_examples=300, deadline=None)
@given(c=_SMALL_RATS | _RATS, r2=_DISK_RADII_SQ, x=_SMALL_RATS | _RATS,
       y=_SMALL_RATS | _RATS)
# tangent at x, tangent at y, and strictly inside (-2, 2)
@example(c=Fraction(0), r2=Fraction(1), x=Fraction(-1), y=Fraction(3))
@example(c=Fraction(1, 2), r2=Fraction(1, 4), x=Fraction(-1), y=Fraction(1))
@example(c=Fraction(0), r2=Fraction(1), x=Fraction(-2), y=Fraction(2))
def test_disk_within_interval_on_rational_squares(c, r2, x, y):
    """The shadow (c - r, c + r) lies strictly inside (x, y) exactly when
    c - x and y - c are positive with squares above r^2: a tangent shadow
    is not inside."""
    want = (c > x and (c - x) ** 2 > r2) and (y > c and (y - c) ** 2 > r2)
    disk = IsometricDisk(QuadValue(c), r2)
    assert disk_within_interval(disk, QuadValue(x), QuadValue(y)) == want
