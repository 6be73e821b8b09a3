"""Expected trace-set models, word enumeration, and coverage reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from fordlab.exactnum import MixedRadicand, QuadValue, qv
from fordlab.moebius import (
    canonicalize_trace,
    omega_ints,
    omega_norm4,
    omega_value,
)

__all__ = [
    "EnumerationResult",
    "NotHyperbolic",
    "StateExplosion",
    "TraceSetModel",
    "UnsupportedParameter",
    "coverage_report",
    "enumerate_traces",
    "expected_set",
    "model_contains",
    "trace_sort_key",
    "trace_to_length",
    "unit_residue_traces",
]

DEFAULT_STATE_CAP = 5_000_000


class StateExplosion(RuntimeError):
    """The enumeration hit the configured state cap before finishing."""


class EnumerationResult:
    """Traces found by the search, with shortest witness words and stats."""

    __slots__ = ("traces", "states_explored", "max_len_reached")

    def __init__(self, traces, states_explored, max_len_reached):
        self.traces = traces            # dict[QuadValue -> witness word str]
        self.states_explored = states_explored
        self.max_len_reached = max_len_reached


class NotHyperbolic(ValueError):
    """Geodesic length is defined for real traces of absolute value > 2."""


# each target kind and its ambient group's name, {} standing for the parameter
KINDS = {"modular": "PSL2(Z)", "gamma0": "Gamma0({})", "principal": "Gamma({})",
         "normalizer": "N(Gamma0({}))", "bianchi": "PSL2(O_{})"}


class UnsupportedParameter(ValueError):
    """The target parameter is outside the constructible range."""


@dataclass(frozen=True)
class TraceSetModel:
    """A target and the closed-form model of its expected trace set.

    kind is one of KINDS; param is the level n, the prime p, or the field
    discriminant parameter d, and 0 for modular.
    """

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedParameter(f"unknown target {self.kind!r}")
        if self.kind in ("gamma0", "principal") and self.param < 1:
            raise UnsupportedParameter(f"{self.kind} level must be >= 1")
        if self.kind == "normalizer" and not _is_prime(self.param):
            raise UnsupportedParameter("normalizer parameter must be prime")
        if self.kind == "bianchi" and not _is_square_free(self.param):
            raise UnsupportedParameter(
                "bianchi parameter must be square-free >= 1")

    @property
    def target(self) -> str:
        """The target as the command line names it: kind or kind:param."""
        return f"{self.kind}:{self.param}" if self.param else self.kind

    @property
    def group(self) -> str:
        """The name of the ambient group."""
        return KINDS[self.kind].format(self.param)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def _is_square_free(d: int) -> bool:
    return d >= 1 and all(d % (q * q) for q in range(2, isqrt(d) + 1))


def unit_residue_traces(n: int) -> set[int]:
    """Residues a + a^{-1} mod n over units a; the mod-n trace classes."""
    out = set()
    for a in range(1, n + 1):
        if gcd(a, n) == 1:
            out.add((a + pow(a, -1, n)) % n)
    if n == 1:
        out.add(0)
    return out


def _integer_classes(model: TraceSetModel) -> tuple[int, set[int]]:
    """The model's rational-integer traces as (N, R): the k >= 0 with
    k mod N in R."""
    n = model.param
    if model.kind == "modular":
        return 1, {0}
    if model.kind == "principal":
        return n * n, {2 % (n * n), -2 % (n * n)}
    return n, unit_residue_traces(n)


def expected_set(model: TraceSetModel, bound) -> set[QuadValue]:
    """Finite truncation of the model's trace set.

    For Fuchsian models the bound caps |t|; for the imaginary-quadratic
    model it caps |t|^2, matching the complex-case enumeration bound.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    kind, n = model.kind, model.param
    num, den = bound.numerator, bound.denominator
    if kind == "bianchi":
        # every canonical ring integer u + v*omega with |t|^2 <= bound; the
        # grid holds them all, as d*v^2 <= 4|t|^2 and |u| <= |t| + |v|/2
        out = set()
        vmax = isqrt(4 * num // (n * den))
        for v in range(-vmax, vmax + 1):
            umax = isqrt(num // den) + 1 + abs(v)
            for u in range(-umax, umax + 1):
                if omega_norm4(u, v, n) * den <= 4 * num:
                    out.add(canonicalize_trace(omega_value(u, v, 1, n)))
        return out
    modulus, residues = _integer_classes(model)
    out = {QuadValue(k) for k in range(num // den + 1)
           if k % modulus in residues}
    if kind == "normalizer":
        # m*sqrt(p) for m >= 0 with m^2 p <= bound^2
        mmax = isqrt(num * num // (n * den * den))
        out.update(QuadValue(0, m, n) for m in range(mmax + 1))
    return out


def model_contains(model: TraceSetModel, t: QuadValue) -> bool:
    """Exact membership of a canonical trace in the untruncated model."""
    t = canonicalize_trace(qv(t))
    kind, n = model.kind, model.param
    if kind == "bianchi":
        try:
            u, v, den = omega_ints(t, n)
        except MixedRadicand:
            return False
        return u % den == 0 and v % den == 0
    if kind == "normalizer" and t.a == 0 and (t.is_rational or t.m == n):
        # m*sqrt(p), zero included: the traces of the adjoined involutions
        return t.b.denominator == 1
    if not (t.is_rational and t.a.denominator == 1):
        return False
    modulus, residues = _integer_classes(model)
    return t.a.numerator % modulus in residues


def enumerate_traces(gens, max_word_len: int, trace_bound,
                     state_cap: int | None = None,
                     parallelism: int = 1) -> EnumerationResult:
    """Breadth-first trace collection over words in the generators.

    States are deduplicated by sign-normalized matrix; the result, witness
    words included, is deterministic.  ``parallelism`` is accepted for
    compatibility and has no effect.
    """
    # the search is the only numpy user: importing it here keeps numpy out
    # of every command that does not enumerate
    from fordlab._bfs import bfs_enumerate

    cap = DEFAULT_STATE_CAP if state_cap is None else state_cap
    return bfs_enumerate(list(gens), max_word_len, Fraction(trace_bound),
                         state_cap=cap)


@dataclass(frozen=True)
class Coverage:
    missing: tuple
    extra: tuple


def trace_sort_key(t: QuadValue):
    return (t.a, t.b)


def coverage_report(expected: set, enumerated: set) -> Coverage:
    """Set differences between a model truncation and an enumeration.

    A nonempty ``extra`` is always a hard failure: an enumerated trace
    outside the model contradicts the containment direction.
    """
    missing = sorted(expected - enumerated, key=trace_sort_key)
    extra = sorted(enumerated - expected, key=trace_sort_key)
    return Coverage(tuple(missing), tuple(extra))


def trace_to_length(t) -> float:
    """Geodesic length 2*arccosh(|t|/2); the library's only float output."""
    t = qv(t)
    if not t.is_real:
        raise NotHyperbolic(f"trace {t} is not real")
    at = abs(t)
    if at.cmp_real(QuadValue(2)) <= 0:
        raise NotHyperbolic(f"|trace| = {at} is not > 2")
    if at.is_rational:
        x = float(at.a)
    else:
        x = float(at.a) + float(at.b) * math.sqrt(at.m)
    return 2.0 * math.acosh(x / 2.0)
