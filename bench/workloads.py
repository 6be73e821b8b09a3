"""The inputs each benchmark workload feeds to fordlab, and the exact checks
on the geometry workload's outputs.

Verify workloads run ``fordlab verify`` on built-in targets with the
acceptance-suite parameters; their short configurations (used by the
self-test and by the traced run's probe) run the same targets at small
bounds.  The geometry workload is a seeded batch of small exact operations
with no enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from fordlab.constructions import build, sqrt_p_generators
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
from fordlab.moebius import MoebiusElement, bianchi_omega, from_ints, identity

# (target, bound, max word length) per verify workload
VERIFY = {
    "verify-int": {
        "full": [("modular", 50, 12), ("gamma0:5", 60, 13),
                 ("principal:7", 130, 12)],
        "short": [("modular", 20, 8), ("gamma0:5", 20, 8),
                  ("principal:7", 60, 8)],
    },
    "verify-bianchi": {
        "full": [("bianchi:19", 40, 8), ("bianchi:3", 40, 8)],
        "short": [("bianchi:19", 10, 3), ("bianchi:3", 10, 3)],
    },
    "verify-normalizer": {
        "full": [("normalizer:7", 27, 11)],
        "short": [("normalizer:7", 5, 3)],
    },
}
GEOMETRY = "geometry"
WORKLOADS = [*VERIFY, GEOMETRY]

# ops of each kind in one pass of the geometry workload; fixed counts keep
# the op mix, and so the latency percentiles, the same for every seed
GEOMETRY_MIX = {
    "full": {"membership_reduce": 200, "circle_map": 125,
             "power_sphere_scan": 50, "disks_disjoint": 125},
    "short": {"membership_reduce": 40, "circle_map": 25,
              "power_sphere_scan": 10, "disks_disjoint": 25},
}
GEOMETRY_TARGETS = [("gamma0", 5), ("gamma0", 6), ("gamma0", 7)]
SQRT_P_PRIMES = (5, 7)
BIANCHI_RINGS = (1, 2, 3, 7, 11, 19)
POWER_HORIZON = 6

S = from_ints(0, -1, 1, 0)
T = from_ints(1, 1, 0, 1)


def parse_target(text: str):
    kind, _, param = text.partition(":")
    return kind, (int(param) if param else None)


def verify_targets(workload: str, config: str):
    return VERIFY[workload][config]


def verify_argv(target: str, bound: int, max_word: int, report_path) -> list[str]:
    """The ``fordlab verify`` arguments of one verify op."""
    return ["verify", "--target", target, "--bound", str(bound),
            "--max-word", str(max_word), "--normalize-timings",
            "--report", str(report_path)]


# -- geometry inputs ------------------------------------------------------------


@dataclass
class GeometryOp:
    kind: str
    args: tuple
    expect_member: bool = False


def _int_entries(g: MoebiusElement):
    entries = []
    for v in (g.a, g.b, g.c, g.d):
        if v.b != 0 or v.a.denominator != 1:
            return None
        entries.append(v.a.numerator)
    return tuple(entries)


def random_word(rng: random.Random, gens, length: int) -> MoebiusElement:
    """A random word in gens and their inverses, multiplied out."""
    rows = [_int_entries(g) for g in gens]
    if any(r is None for r in rows):
        g = identity()
        for _ in range(length):
            h = rng.choice(gens)
            g = g * (h if rng.random() < 0.5 else h.inv())
        return g
    # integer matrices: multiply plain ints, so input generation stays cheap
    a, b, c, d = 1, 0, 0, 1
    for _ in range(length):
        p, q, r, s = rng.choice(rows)
        if rng.random() >= 0.5:
            p, q, r, s = s, -q, -r, p
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return from_ints(a, b, c, d)


def _random_psl2z(rng: random.Random, lo: int, hi: int) -> MoebiusElement:
    while True:
        g = random_word(rng, [S, T], rng.randint(lo, hi))
        if not g.c.is_zero():
            return g


def geometry_domains():
    """Two-generator strip domains: Gamma0(5..7) subgroups and the sqrt-p subgroups."""
    domains = []
    for kind, param in GEOMETRY_TARGETS:
        for sub in build(kind, param).subgroups:
            domains.append((sub.gens, sub.domain))
    for p in SQRT_P_PRIMES:
        for gens in sqrt_p_generators(p):
            trans = next(g for g in gens if g.c.is_zero())
            other = next(g for g in gens if not g.c.is_zero())
            domains.append((gens, build_ford_two_gen(abs(trans.b), other)))
    return domains


def _bianchi_disk_owner(rng: random.Random, d: int) -> MoebiusElement:
    # c is a rational integer, so the radius 1/|c| is rational and the
    # separation margin stays in one quadratic ring
    z = QuadValue(rng.randint(-3, 3)) + bianchi_omega(d) * rng.randint(-2, 2)
    c = rng.randint(1, 5)
    return MoebiusElement(1, z, c, c * z + 1)    # [[1,0],[c,1]] * [[1,z],[0,1]]


def _cycle(options, i: int):
    return options[i % len(options)]


def geometry_ops(seed: int, config: str, domains) -> list[GeometryOp]:
    """The seeded batch of one geometry pass, in a seeded order.

    Domains, Bianchi rings, word lengths and trace offsets are taken in
    turn, not drawn, so every seed gives the same mix of the inputs that set
    an op's cost; the seed draws the letters of each word and the order.
    """
    rng = random.Random(seed)
    mix = GEOMETRY_MIX[config]
    ops = []
    for i in range(mix["membership_reduce"]):
        gens, domain = _cycle(domains, i // 2)
        if i % 2 == 0:
            target = random_word(rng, gens, _cycle(range(1, 7), i // 2))
            ops.append(GeometryOp("membership_reduce", (domain, target), True))
        else:
            target = random_word(rng, [S, T], _cycle(range(1, 9), i // 2))
            ops.append(GeometryOp("membership_reduce", (domain, target)))
    for i in range(mix["circle_map"]):
        length = _cycle(range(2, 10), i)
        g = _random_psl2z(rng, length, length)
        t = _cycle((Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3),
                   Fraction(1, 2)), i)
        ops.append(GeometryOp("circle_map", (g, t)))
    for i in range(mix["power_sphere_scan"]):
        d = _cycle(BIANCHI_RINGS, i)
        offset = _cycle(range(-4, 5), i // len(BIANCHI_RINGS))
        g = MoebiusElement(bianchi_omega(d) + offset, -1, 1, 0)
        ops.append(GeometryOp("power_sphere_scan", (g,)))
    for i in range(mix["disks_disjoint"]):
        if i % 2 == 0:
            length = _cycle(range(2, 9), i // 2)
            owners = (_random_psl2z(rng, length, length),
                      _random_psl2z(rng, length, length))
        else:
            d = _cycle(BIANCHI_RINGS, i // 2)
            owners = (_bianchi_disk_owner(rng, d), _bianchi_disk_owner(rng, d))
        ops.append(GeometryOp("disks_disjoint",
                              tuple(isometric_disk(g) for g in owners)))
    rng.shuffle(ops)
    return ops


# -- geometry execution and checks ------------------------------------------------


def run_geometry_op(op: GeometryOp):
    """The timed library calls of one op; returns what check_geometry_op needs."""
    if op.kind == "membership_reduce":
        domain, target = op.args
        return membership_reduce(domain, target)
    if op.kind == "circle_map":
        g, t = op.args
        disk = isometric_disk(g)
        image_disk = isometric_disk(g.inv())
        r = sqrt_qv(disk.radius_sq)
        den = 1 + t * t
        x = disk.center + r * QuadValue((1 - t * t) / den)
        y = r * QuadValue(2 * t / den)
        return disk, image_disk, g.apply_to_point(x, y)
    if op.kind == "power_sphere_scan":
        (g,) = op.args
        scan = power_sphere_scan(g, POWER_HORIZON)
        return [(disk_contains_fixed_point(g, disk),
                 disk_contains_fixed_point(g, disk_inv))
                for _, disk, disk_inv in scan.entries]
    if op.kind == "disks_disjoint":
        u, v = op.args
        return disks_disjoint(u, v), separation_margin(u, v)
    raise ValueError(f"unknown geometry op {op.kind!r}")


_SIGN_OF = {Disjointness.DISJOINT: 1, Disjointness.TANGENT: 0,
            Disjointness.OVERLAP: -1}


def check_geometry_op(op: GeometryOp, out) -> str | None:
    """An exact identity the op's output must satisfy; a message if it fails."""
    if op.kind == "membership_reduce":
        domain, target = op.args
        if out.status == Membership.MEMBER:
            total = target
            for step in out.word:
                total = step * total
            if not total.is_identity():
                return "MEMBER word does not recompose to the identity"
        elif op.expect_member and out.status == Membership.NON_MEMBER:
            return "a word in the domain's own generators reported NON_MEMBER"
        return None
    if op.kind == "circle_map":
        disk, image_disk, (gx, gy) = out
        dist2 = (gx - image_disk.center) * (gx - image_disk.center) + gy * gy
        if dist2 != QuadValue(disk.radius_sq):
            return "circle point not mapped onto the inverse's circle"
        return None
    if op.kind == "power_sphere_scan":
        if not out or not all(a and b for a, b in out):
            return "a power disk misses both fixed points"
        return None
    if op.kind == "disks_disjoint":
        verdict, margin = out
        if margin.sign_real() != _SIGN_OF[verdict]:
            return f"separation margin sign disagrees with {verdict.name}"
        return None
    return f"unknown geometry op {op.kind!r}"
