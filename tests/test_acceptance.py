"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criterion 3 asserts trace bound 130 with no missing and no extra traces at
every level 2..8.  The word length is set per level, as criterion 2 does:
over the generators built for levels 2 and 3 (free of rank 2) the shortest
words realizing traces 102 and 106 (level 2) and 115 (level 3) have length
14, so those two levels enumerate to length 14 and the test checks that
their witnesses really are that long; levels 4..8 need length 12.
"""

import random
import time
from fractions import Fraction

import pytest

from fordlab.cli import certificate_report, dump_report
from fordlab.constructions import (
    bianchi_deltas,
    build,
    sqrt_p_generators,
    verify_construction,
)
from fordlab.exactnum import QuadValue, sqrt_qv
from fordlab.geometry import (
    Disjointness,
    Membership,
    build_ford_two_gen,
    disk_contains_fixed_point,
    disks_disjoint,
    isometric_disk,
    membership_reduce,
    power_sphere_scan,
    separation_margin,
)
from fordlab.moebius import MoebiusElement, bianchi_omega, from_ints

S = from_ints(0, -1, 1, 0)
T = from_ints(1, 1, 0, 1)
T5 = from_ints(1, 5, 0, 1)


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} ({label}): {status}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_modular_certificate():
    failures = []
    started = time.monotonic()
    construction = build("modular")
    cert = verify_construction(construction, 50, 12)
    elapsed = time.monotonic() - started

    if cert.verdict != "Verified":
        failures.append(f"verdict {cert.verdict}: {cert.reasons}")

    # (a) determinants of every built-in matrix
    matrices = [g for sub in construction.subgroups for g in sub.gens]
    matrices += construction.conjugators + construction.combined_gens
    if len({g.key() for g in matrices}) < 12:
        failures.append("fewer than 12 distinct built-in matrices")
    for g in matrices:
        if g.a * g.d - g.b * g.c != QuadValue(1):
            failures.append(f"determinant of {g} is not 1")

    # (b) combined generators equal the conjugates, up to sign
    pos = 0
    for sub, alpha in zip(construction.subgroups, construction.conjugators):
        for gen in sub.gens:
            if construction.combined_gens[pos] != alpha * gen * alpha.inv():
                failures.append(f"combined generator {pos} is not a conjugate")
            pos += 1

    # (c) conjugator disks: centers, radii, pairwise disjoint, inside (3, 4)
    disks = [isometric_disk(a) for a in construction.conjugators]
    got = {(str(d.center), str(d.radius_sq)) for d in disks}
    want = {("142/37", "1/1369"), ("17/5", "1/25"), ("117/37", "1/1369")}
    if got != want:
        failures.append(f"conjugator disk data {got} != {want}")
    three, four = QuadValue(3), QuadValue(4)
    for d in disks:
        r = sqrt_qv(d.radius_sq)
        if not ((d.center - r) > three and (d.center + r) < four):
            failures.append(f"disk at {d.center} not inside (3,4)")
    for i in range(3):
        for j in range(i + 1, 3):
            if disks_disjoint(disks[i], disks[j]) != Disjointness.DISJOINT:
                failures.append(f"conjugator disks {i},{j} not disjoint")
            margin = separation_margin(disks[i], disks[j])
            if margin.sign_real() <= 0:
                failures.append(f"margin {i},{j} not positive")

    # (d) non-membership of each conjugator in its subgroup
    for sub, alpha in zip(construction.subgroups, construction.conjugators):
        if membership_reduce(sub.domain, alpha).status != Membership.NON_MEMBER:
            failures.append(f"conjugator for {sub.label} not proven outside")

    # (e) enumerated traces cover 0..50 exactly
    if cert.coverage is None or cert.coverage.missing or cert.coverage.extra:
        failures.append(f"coverage incomplete: {cert.coverage}")

    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(1, "modular certificate", failures)


GAMMA0_WORD_LEN = {2: 11, 3: 11, 4: 8, 5: 13, 6: 9, 7: 10, 8: 8,
                   9: 7, 10: 7, 11: 7, 12: 7}


def test_criterion_2_gamma0_family():
    failures = []
    started = time.monotonic()
    for n in range(2, 13):
        cert = verify_construction(build("gamma0", n), 60, GAMMA0_WORD_LEN[n])
        for check in cert.checks:
            if (check.name.startswith("two_gen_domain[")
                    and check.status != "pass"):
                failures.append(f"n={n}: {check.name} {check.status}")
        if cert.coverage is None:
            failures.append(f"n={n}: no coverage ({cert.coverage_note})")
            continue
        if cert.coverage.extra:
            failures.append(f"n={n}: extra traces {cert.coverage.extra[:4]}")
        if cert.coverage.missing:
            failures.append(f"n={n}: missing {[str(t) for t in cert.coverage.missing]}")
        if n in (5, 6, 7):
            if cert.verdict != "Verified":
                failures.append(f"n={n}: combination step not verified "
                                f"({cert.verdict}: {cert.reasons[:3]})")
        else:
            if cert.verdict not in ("Verified", "Undecided"):
                failures.append(f"n={n}: verdict {cert.verdict}")
            if cert.verdict == "Undecided" and not any(
                    "SearchExhausted" in r or "conjugator" in r
                    for r in cert.reasons):
                failures.append(f"n={n}: Undecided without a reported search "
                                f"exhaustion: {cert.reasons}")
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(2, "congruence levels 2..12", failures)


PRINCIPAL_WORD_LEN = {2: 14, 3: 14, 4: 12, 5: 12, 6: 12, 7: 12, 8: 12}
# a free group of rank 2 has 1 + 2*(3**14 - 1) = 9,565,937 words up to
# length 14, above the default state cap
PRINCIPAL_STATE_CAP = {2: 10_000_000, 3: 10_000_000}
# traces whose shortest words have exactly 14 letters
PRINCIPAL_DEEP_TRACES = {2: ("102", "106"), 3: ("115",)}


@pytest.mark.parametrize("n", range(2, 9))
def test_criterion_3_principal_coverage(n):
    failures = []
    started = time.monotonic()
    cert = verify_construction(build("principal", n), 130,
                               PRINCIPAL_WORD_LEN[n],
                               state_cap=PRINCIPAL_STATE_CAP.get(n))
    if cert.coverage is None:
        failures.append(f"no coverage: {cert.coverage_note}")
    else:
        if cert.coverage.missing:
            failures.append(
                f"missing {[str(t) for t in cert.coverage.missing]} at word "
                f"length {PRINCIPAL_WORD_LEN[n]}")
        if cert.coverage.extra:
            failures.append(f"extra {[str(t) for t in cert.coverage.extra]}")
        witnesses = cert.enumeration_stats.get("witnesses", {})
        for t in PRINCIPAL_DEEP_TRACES.get(n, ()):
            word = witnesses.get(t, "").rpartition(":")[2]
            letters = len(word.split("*")) if word else 0
            if letters != 14:
                failures.append(f"witness for {t} has {letters} letters, "
                                "expected 14")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(3, f"principal level {n} coverage", failures)


def test_criterion_3_lemma_special_cases():
    failures = []
    naive = verify_construction(build("principal", 2, naive=True), 20, 6)
    if naive.verdict != "Failed" or not any("LemmaViolation" in r
                                            for r in naive.reasons):
        failures.append("naive level-2 subgroup did not raise a lemma violation")
    standard = verify_construction(build("principal", 2), 20, 6)
    lemma = [c for c in standard.checks if c.name.startswith("two_gen_domain[")]
    if not lemma or not all(c.status == "pass" for c in lemma):
        failures.append("standard level-2 subgroup failed the lemma check")
    _report(3, "level-2 lemma special case", failures)


NORMALIZER_BOUND = {2: 15, 3: 18, 5: 23, 7: 27}
NORMALIZER_WORD_LEN = {2: 8, 3: 8, 5: 11, 7: 11}


def test_criterion_4_normalizers():
    failures = []
    started = time.monotonic()
    for p in (2, 3, 5, 7):
        construction = build("normalizer", p)
        cert = verify_construction(construction, NORMALIZER_BOUND[p],
                                   NORMALIZER_WORD_LEN[p])
        for sub in construction.subgroups:
            if not sub.label.startswith("W"):
                continue
            if p in (5, 7) and sub.domain.variant != "sharp":
                failures.append(f"p={p}: {sub.label} certified by "
                                f"{sub.domain.variant}, expected sharp")
            if sub.domain.variant not in ("classic", "sharp"):
                failures.append(f"p={p}: {sub.label} lacks a certificate")
        witnesses = cert.enumeration_stats.get("witnesses", {})
        for m in range(1, 11):
            if f"{m}*sqrt({p})" not in witnesses:
                failures.append(f"p={p}: trace {m}*sqrt({p}) not enumerated")
        if cert.coverage is None or cert.coverage.extra:
            failures.append(f"p={p}: integer traces escape the model "
                            f"({cert.coverage.extra[:4] if cert.coverage else None})")
        if cert.coverage and cert.coverage.missing:
            failures.append(f"p={p}: missing "
                            f"{[str(t) for t in cert.coverage.missing]}")
        if cert.verdict not in ("Verified", "Undecided"):
            failures.append(f"p={p}: verdict {cert.verdict} ({cert.reasons[:3]})")
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(4, "normalizer primes 2,3,5,7", failures)


BIANCHI_REQUIRED = (1, 2, 3, 5, 6, 15, 19)
BIANCHI_FULLY_VERIFIED = (1, 2, 5, 6, 15, 19)


@pytest.mark.slow
def test_criterion_5_bianchi():
    failures = []
    started = time.monotonic()
    for d in BIANCHI_REQUIRED:
        cert = verify_construction(build("bianchi", d), 40, 8)
        checks = {c.name: c for c in cert.checks}
        for name, check in checks.items():
            if name.startswith("delta_involution") and check.status != "pass":
                failures.append(f"d={d}: {name} {check.status}")
            if name.startswith("delta_in_prism"):
                if check.status != "pass":
                    failures.append(f"d={d}: {name} {check.status}")
                elif check.margin is None or check.margin.sign_real() <= 0:
                    failures.append(f"d={d}: {name} margin not positive")
            if name.startswith("delta_spheres_disjoint") and check.status != "pass":
                failures.append(f"d={d}: {name} {check.status}")
        if checks["coset_cover_mod_3"].status != "pass":
            failures.append(f"d={d}: coset cover failed")
        if cert.coverage is None or cert.coverage.missing:
            failures.append(f"d={d}: coverage missing "
                            f"{[str(t) for t in (cert.coverage.missing if cert.coverage else [])][:5]}")
        if d in BIANCHI_FULLY_VERIFIED and cert.verdict != "Verified":
            failures.append(f"d={d}: verdict {cert.verdict} ({cert.reasons[:3]})")
        if d == 3:
            bad = [c.name for c in cert.checks if c.status != "pass"]
            if not all(name.startswith("delta_clears_power_spheres")
                       for name in bad):
                failures.append(f"d=3: unexpected failing checks {bad}")
    for d in (7, 11):
        try:
            cert = verify_construction(build("bianchi", d), 40, 8)
        except Exception as exc:
            failures.append(f"d={d}: pipeline crashed: {exc!r}")
            continue
        if cert.verdict not in ("Verified", "Undecided"):
            failures.append(f"d={d}: verdict {cert.verdict} ({cert.reasons[:3]})")
    elapsed = time.monotonic() - started
    if elapsed >= 180:
        failures.append(f"runtime {elapsed:.1f}s exceeds 180s")
    _report(5, "imaginary quadratic lattices", failures)


def _random_pslz(rng, length):
    g = from_ints(1, 0, 0, 1)
    for _ in range(length):
        g = g * rng.choice([S, T, T.inv()])
    return g


def _circle_mapping_failures():
    rng = random.Random(20240819)
    out = []
    count = 0
    while count < 100:
        g = _random_pslz(rng, rng.randint(2, 9))
        if g.c.is_zero():
            continue
        disk = isometric_disk(g)
        target = isometric_disk(g.inv())
        r = sqrt_qv(disk.radius_sq)
        for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                  Fraction(1, 3)):
            den = 1 + t * t
            x = disk.center + r * QuadValue((1 - t * t) / den)
            y = r * QuadValue(2 * t / den)
            if y.sign_real() == 0:
                image = g.apply_to_boundary(x)
                dist2 = (image - target.center) * (image - target.center)
            else:
                gx, gy = g.apply_to_point(x, abs(y))
                dist2 = (gx - target.center) * (gx - target.center) + gy * gy
            if dist2 != QuadValue(disk.radius_sq):
                out.append(f"circle mapping broke for {g}")
        count += 1
    return out


def _trace_zero_elements():
    from fordlab.constructions import gamma0_special_generators, gamma0_unit_pairs
    elems = list(build("modular").conjugators)
    elems.append(S)
    for n in (2, 3, 4):
        for gens in gamma0_special_generators(n):
            elems.extend(g for g in gens if not g.c.is_zero())
    for n in (5, 10, 12):
        for a, d, b in gamma0_unit_pairs(n):
            elems.append(from_ints(a, b, n, d))
    for p in (2, 3, 5, 7):
        for gens in sqrt_p_generators(p):
            elems.extend(g for g in gens if not g.c.is_zero())
    for d in (1, 2, 3, 5, 6, 7, 11, 15, 19):
        elems.extend(bianchi_deltas(d).values())
    return [g for g in elems if g.canonical_trace() == QuadValue(0)]


@pytest.mark.slow
def test_criterion_6_geometry_properties():
    failures = []
    failures.extend(_circle_mapping_failures())

    for g in _trace_zero_elements():
        if not isometric_disk(g).same_circle(isometric_disk(g.inv())):
            failures.append(f"involution circles differ for {g}")

    rng = random.Random(20240820)
    checked = 0
    while checked < 1000:
        d = rng.choice([1, 2, 3, 5, 6, 7, 11, 15, 19])
        om = bianchi_omega(d)
        gens = [MoebiusElement(om, -1, 1, 0), T, MoebiusElement(1, om, 0, 1), S]
        g = from_ints(1, 0, 0, 1)
        for _ in range(rng.randint(1, 7)):
            g = g * rng.choice(gens)
        if g.c.is_zero():
            continue
        if isometric_disk(g).radius_sq > 1:
            failures.append(f"radius bound broken for {g} in ring {d}")
        checked += 1

    domains = []
    for gens in ([S, T5], [from_ints(1, -1, 1, 0), T5],
                 [from_ints(2, -1, 1, 0), T5]):
        domains.append((gens, build_ford_two_gen(5, gens[0])))
    for target, params in (("gamma0", range(2, 13)), ("principal", range(2, 9))):
        for n in params:
            for sub in build(target, n).subgroups:
                if sub.domain is not None and sub.domain.ambient == 2:
                    domains.append((sub.gens, sub.domain))
    for p in (2, 3, 5, 7):
        for gens in sqrt_p_generators(p):
            trans = next(g for g in gens if g.c.is_zero())
            other = next(g for g in gens if not g.c.is_zero())
            domains.append((gens, build_ford_two_gen(abs(trans.b), other)))
    rng = random.Random(20240821)
    for gens, dom in domains:
        words = _words_up_to(gens, 4)
        points = _interior_points(dom, rng, 50)
        for x, y in points:
            for w in words:
                if w.is_identity():
                    continue
                wx, wy = w.apply_to_point(x, y)
                if _strict_interior(dom, wx, wy):
                    failures.append(f"word {w} moved an interior point inside "
                                    f"the domain of {gens}")

    scan_cases = [from_ints(3, -1, 1, 0), from_ints(3, 1, 2, 1)]
    for d in (1, 2, 3, 7, 11, 15):
        scan_cases.append(MoebiusElement(bianchi_omega(d), -1, 1, 0))
    for g in scan_cases:
        scan = power_sphere_scan(g, 12)
        for n, disk, disk_inv in scan.entries:
            if not disk_contains_fixed_point(g, disk):
                failures.append(f"power disk {n} of {g} misses both fixed points")
            if not disk_contains_fixed_point(g, disk_inv):
                failures.append(f"inverse power disk {n} of {g} misses both")
    _report(6, "geometry property suites", failures)


def _words_up_to(gens, max_len):
    dirs = []
    for g in gens:
        dirs.extend([g, g.inv()])
    out = {from_ints(1, 0, 0, 1).key(): from_ints(1, 0, 0, 1)}
    level = list(out.values())
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


def test_criterion_7_oracle_consistency():
    failures = []

    # byte-identical reports from two runs
    texts = []
    for _ in range(2):
        cert = verify_construction(build("gamma0", 7), 30, 8)
        report = certificate_report(cert, 30, 0.0, normalize_timings=True)
        texts.append(dump_report(report))
    if texts[0] != texts[1]:
        failures.append("reports differ between two runs")

    # membership oracle vs the full word table of length <= 5
    dom = build_ford_two_gen(5, S)
    table = {g.key(): g for g in _words_up_to([S, T5], 5)}
    for g in table.values():
        if g.is_identity():
            continue
        if membership_reduce(dom, g).status != Membership.MEMBER:
            failures.append(f"word-table element {g} not recognized")
    alpha1 = from_ints(17, -58, 5, -17)
    dom1 = build_ford_two_gen(5, from_ints(1, -1, 1, 0))
    if membership_reduce(dom1, alpha1).status != Membership.NON_MEMBER:
        failures.append("frozen conjugator not rejected from its subgroup")
    rng = random.Random(20240822)
    checked = 0
    while checked < 20:
        g = _random_pslz(rng, rng.randint(3, 8))
        if g.is_identity():
            continue
        result = membership_reduce(dom, g)
        if result.status == Membership.MEMBER and g.key() not in table:
            # member with a longer word is fine; re-multiply the reduction
            word = result.word
            total = g
            for step in word:
                total = step * total
            if not total.is_identity():
                failures.append(f"member reduction inconsistent for {g}")
        elif result.status == Membership.NON_MEMBER and g.key() in table:
            failures.append(f"table element {g} misclassified")
        checked += 1
    _report(7, "oracle consistency", failures)
