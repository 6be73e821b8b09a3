"""Microbenchmarks of the exact-arithmetic layers.

Operands are seeded and drawn from the rings the workloads use: Q, Z[sqrt 7]
(normalizer:7), O_19 and O_3 (the Bianchi targets).  Each benchmark warms
up on its operand pool, times whole passes over it and reports the median
pass, per operation.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

from fordlab.constructions import build
from fordlab.exactnum import QuadValue, RadicalExpr
from fordlab.moebius import MoebiusElement, bianchi_omega

import workloads

POOL = 200
REPEATS = 7


def _time_per_op(fn, pool) -> float:
    """Median seconds per call of fn over the pool."""
    for args in pool:
        fn(*args)
    passes = []
    for _ in range(REPEATS):
        start = perf_counter()
        for args in pool:
            fn(*args)
        passes.append(perf_counter() - start)
    return statistics.median(passes) / len(pool)


def _rational(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 40))


def _real(rng):
    return QuadValue(_rational(rng), _rational(rng) or 1, 7)


def _imag_pair(rng):
    d = rng.choice((19, 3))
    om = bianchi_omega(d)
    return tuple(QuadValue(rng.randint(-9, 9)) + om * rng.randint(1, 9)
                 for _ in range(2))


def _radical_expr(rng, radicals: int) -> RadicalExpr:
    # distinct square-free radicands, so no two terms merge
    radicands = rng.sample((2, 3, 5, 6, 7, 10, 11, 13), radicals)
    return RadicalExpr(_rational(rng), tuple((_rational(rng) or 1, q)
                                             for q in radicands))


def _element_pairs(rng, gens, count, lo, hi):
    return [tuple(workloads.random_word(rng, gens, rng.randint(lo, hi))
                  for _ in range(2)) for _ in range(count)]


def exact_arith_micro(seed: int) -> dict[str, float]:
    """The exactnum.*_us and moebius.mul_us.* metrics, in microseconds."""
    rng = random.Random(seed)
    rational = [(QuadValue(_rational(rng)), QuadValue(_rational(rng)))
                for _ in range(POOL)]
    real = [(_real(rng), _real(rng)) for _ in range(POOL)]
    imag = [_imag_pair(rng) for _ in range(POOL)]
    radicals = {k: [(_radical_expr(rng, k),) for _ in range(POOL)]
                for k in (1, 2, 3)}
    # Bianchi words stay inside one ring and short, as entries grow fast
    elements = {
        "z": _element_pairs(rng, [workloads.S, workloads.T], POOL, 3, 7),
        "real": _element_pairs(rng, build("normalizer", 7).combined_gens,
                               POOL, 3, 7),
        "imag": (_element_pairs(rng, build("bianchi", 19).combined_gens,
                                POOL // 2, 1, 3)
                 + _element_pairs(rng, build("bianchi", 3).combined_gens,
                                  POOL // 2, 1, 3)),
    }
    us = 1e6
    out = {
        "exactnum.qv_mul_us.rational": _time_per_op(QuadValue.__mul__, rational) * us,
        "exactnum.qv_mul_us.real": _time_per_op(QuadValue.__mul__, real) * us,
        "exactnum.qv_mul_us.imag": _time_per_op(QuadValue.__mul__, imag) * us,
        "exactnum.qv_add_us.real": _time_per_op(QuadValue.__add__, real) * us,
        "exactnum.cmp_real_us.real": _time_per_op(QuadValue.cmp_real, real) * us,
    }
    for k, pool in radicals.items():
        out[f"exactnum.radical_sign_us.{k}"] = _time_per_op(RadicalExpr.sign, pool) * us
    for ring, pool in elements.items():
        out[f"moebius.mul_us.{ring}"] = _time_per_op(MoebiusElement.__mul__, pool) * us
    return out
