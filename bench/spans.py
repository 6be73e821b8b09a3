"""In-memory spans and call counters around fordlab's public boundaries.

Nothing in fordlab is edited: ``instrumented`` rebinds the names that
``fordlab.cli`` and ``fordlab.constructions`` call, and a few exact-
arithmetic methods, to wrappers that record a span or bump a counter, and
restores the originals on exit.  The enumeration with the most states is
also remembered as a ``replay`` record, so that enum_memory.py can measure
its memory in a fresh process.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import fordlab.cli
import fordlab.constructions
from fordlab.exactnum import QuadValue, RadicalExpr
from fordlab.moebius import MoebiusElement


class Tracer:
    """Spans (name, start, end, parent, trace id) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.trace_id: str | None = None
        self.replay: dict | None = None
        self._stack: list[dict] = []
        self._construction = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "trace": self.trace_id, "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def ring_of(gens) -> str:
    """Ring of the generator entries: z, real (Z[sqrt p]-type) or imag (O_d)."""
    ring = "z"
    for g in gens:
        for v in (g.a, g.b, g.c, g.d):
            if v.m < 0:
                return "imag"
            if v.m > 0:
                ring = "real"
    return ring


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _verify_span(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(construction, *args, **kwargs):
        tracer._construction = construction
        with tracer.span("constructions.verify_construction"):
            return fn(construction, *args, **kwargs)
    return wrapper


def _enumerate_span(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(gens, max_word_len, trace_bound, state_cap=None, parallelism=1):
        construction = tracer._construction
        cross = gens is construction.combined_gens
        with tracer.span("tracesets.enumerate_traces", ring=ring_of(gens),
                         cross_check=cross) as rec:
            result = fn(gens, max_word_len, trace_bound, state_cap=state_cap,
                        parallelism=parallelism)
            rec["attrs"]["states"] = result.states_explored
        if tracer.replay is None or result.states_explored > tracer.replay["states"]:
            subgroup = None if cross else next(
                i for i, sub in enumerate(construction.subgroups) if sub.gens is gens)
            # enough to rebuild the call: the target string is the trace id
            tracer.replay = {
                "target": tracer.trace_id, "subgroup": subgroup,
                "max_word_len": max_word_len, "trace_bound": str(trace_bound),
                "state_cap": state_cap, "parallelism": parallelism,
                "states": result.states_explored}
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Route fordlab's layer boundaries through the tracer while active."""
    cli, cons = fordlab.cli, fordlab.constructions
    patches = [
        (cli, "build", _spanned(tracer, "constructions.build", cli.build)),
        (cli, "verify_construction", _verify_span(tracer, cli.verify_construction)),
        (cli, "certificate_report",
         _spanned(tracer, "cli.certificate_report", cli.certificate_report)),
        (cli, "dump_report", _spanned(tracer, "cli.dump_report", cli.dump_report)),
        (cons, "build_ford_two_gen",
         _spanned(tracer, "geometry.build_ford_two_gen", cons.build_ford_two_gen)),
        (cons, "verify_separation",
         _spanned(tracer, "geometry.verify_separation", cons.verify_separation)),
        (cons, "bianchi_separation_check",
         _spanned(tracer, "geometry.bianchi_separation_check",
                  cons.bianchi_separation_check)),
        (cons, "enumerate_traces", _enumerate_span(tracer, cons.enumerate_traces)),
        (cons, "expected_set",
         _spanned(tracer, "tracesets.expected_set", cons.expected_set)),
        (cons, "coverage_report",
         _spanned(tracer, "tracesets.coverage_report", cons.coverage_report)),
        (QuadValue, "__mul__",
         _counted(tracer, "exactnum.qv_mul_calls", QuadValue.__mul__)),
        (QuadValue, "__rmul__",
         _counted(tracer, "exactnum.qv_mul_calls", QuadValue.__rmul__)),
        (RadicalExpr, "sign",
         _counted(tracer, "exactnum.radical_sign_calls", RadicalExpr.sign)),
        (RadicalExpr, "interval",
         _counted(tracer, "exactnum.interval_calls", RadicalExpr.interval)),
        (MoebiusElement, "__mul__",
         _counted(tracer, "moebius.mul_calls", MoebiusElement.__mul__)),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
