"""One benchmark run of one workload, in a fresh process started by run.py.

Prints one JSON line: the run's set-up time, the wall time of each pass,
op latencies, peak RSS, ops attempted and failed, and (traced runs) the
per-layer metrics.  Passes repeat until about ``--seconds`` have elapsed; a
pass runs the workload's whole input once.  A traced run first makes exactly one
traced pass, so its spans and counts are those of one pass of the input,
whatever the host's speed.

fordlab, and the benchmark modules that import it, are imported inside
functions: ``src`` joins ``sys.path`` only in ``main``, and the import is
part of the timed set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
RINGS = ("z", "imag", "real")
MIN_GEOMETRY_OPS = 1000


class Pass(NamedTuple):
    """One pass over a workload's input."""
    wall: float
    latencies: dict        # op kind -> seconds per op
    problems: list         # one entry per op: None, or what was wrong
    membership: dict | None = None   # membership_reduce iterations, undecided


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


class Run:
    """Set-up state of one run: built targets, geometry inputs, golden records."""

    def __init__(self, workload: str, seed: int, report_dir: Path,
                 config: str = "full"):
        import oracle
        import workloads
        from fordlab.constructions import build

        self.workload = workload
        self.seed = seed
        self.config = config
        self.report_dir = report_dir
        self.golden = oracle.load_golden()
        self.constructions = {}
        self.ops = []
        start = time.perf_counter()
        if workload == workloads.GEOMETRY:
            self.ops = workloads.geometry_ops(seed, config,
                                              workloads.geometry_domains())
        else:
            for target, _, _ in workloads.verify_targets(workload, config):
                self.constructions[target] = build(*workloads.parse_target(target))
        self.build_s = time.perf_counter() - start

    # -- one pass -----------------------------------------------------------

    def verify_pass(self, targets, tracer=None) -> Pass:
        """Run cli verify on each target."""
        import fordlab.cli
        import workloads

        outputs, latencies = [], []
        pass_start = time.perf_counter()
        for target, bound, max_word in targets:
            path = self.report_dir / f"{target.replace(':', '-')}.json"
            argv = workloads.verify_argv(target, bound, max_word, path)
            span = contextlib.nullcontext({"attrs": {}})
            if tracer is not None:
                tracer.trace_id = target
                span = tracer.span("cli.main", target=target)
            start = time.perf_counter()
            try:
                with span as rec, contextlib.redirect_stdout(io.StringIO()):
                    code = fordlab.cli.main(argv)
                    text = path.read_text(encoding="utf-8")
                    rec["attrs"]["report_bytes"] = len(text.encode())
            except Exception as exc:   # an op that raises is a failed op
                code, text = None, repr(exc)
            latencies.append(time.perf_counter() - start)
            outputs.append((target, bound, max_word, code, text))
        wall = time.perf_counter() - pass_start
        problems = [self.check_verify(*out) for out in outputs]
        return Pass(wall, {"verify": latencies}, problems)

    def check_verify(self, target, bound, max_word, code, text) -> str | None:
        import oracle
        import workloads
        from fordlab.constructions import build

        if code is None:
            return f"{target}: raised {text}"
        golden = self.golden.get(oracle.golden_key(target, bound, max_word))
        if golden is None:
            return f"{target}: no golden record for bound={bound} max_word={max_word}"
        if target not in self.constructions:
            self.constructions[target] = build(*workloads.parse_target(target))
        report = json.loads(text)
        problems = oracle.report_problems(report, code, golden,
                                          self.constructions[target], max_word)
        return f"{target}: {'; '.join(problems)}" if problems else None

    def geometry_pass(self, ops, tracer=None) -> Pass:
        import workloads
        from fordlab.geometry import Membership

        outputs, latencies = [], {}
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.trace_id = f"op{index}"
                span = tracer.span(f"geometry.{op.kind}")
            start = time.perf_counter()
            try:
                with span:
                    out = workloads.run_geometry_op(op)
            except Exception as exc:   # an op that raises is a failed op
                out = exc
            latencies.setdefault(op.kind, []).append(time.perf_counter() - start)
            outputs.append(out)
        wall = time.perf_counter() - pass_start
        problems = []
        membership = {"iterations": 0, "undecided": 0}
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                problems.append(f"{op.kind}: raised {out!r}")
                continue
            problems.append(workloads.check_geometry_op(op, out))
            if op.kind == "membership_reduce":
                membership["iterations"] += out.iterations
                membership["undecided"] += out.status == Membership.UNDECIDED
        return Pass(wall, latencies, problems, membership)

    def one_pass(self, tracer=None) -> Pass:
        import workloads

        if self.workload == workloads.GEOMETRY:
            return self.geometry_pass(self.ops, tracer)
        return self.verify_pass(
            workloads.verify_targets(self.workload, self.config), tracer)

    def measure(self, seconds: float) -> dict:
        """Whole passes, as many as bring the measured time closest to
        ``seconds`` (at least one): a verify pass longer than ``seconds``
        runs once, and no second pass doubles the run.

        The geometry workload also runs at least MIN_GEOMETRY_OPS ops, so
        that ten latency samples lie beyond its p99.
        """
        import workloads

        min_ops = MIN_GEOMETRY_OPS if self.workload == workloads.GEOMETRY else 1
        walls, latencies, problems = [], {}, []
        start = time.perf_counter()
        while True:
            one = self.one_pass()
            walls.append(one.wall)
            for kind, ts in one.latencies.items():
                latencies.setdefault(kind, []).extend(ts)
            problems.extend(one.problems)
            elapsed = time.perf_counter() - start
            if (elapsed + statistics.mean(walls) / 2 >= seconds
                    and len(problems) >= min_ops):
                break
        return {"walls": walls, "latencies": latencies,
                "attempted": len(problems),
                "problems": [p for p in problems if p is not None]}


# -- per-layer metrics ------------------------------------------------------------


def span_metrics(tracer) -> dict:
    """Layer metrics derived from the spans of one pass; a layer no span
    reached is absent."""
    own = tracer.self_times()

    def dur(span):
        return span["end"] - span["start"]

    def named(*names):
        return [s for s in tracer.spans if s["name"] in names]

    out = {}
    enum = named("tracesets.enumerate_traces")
    for ring in RINGS:
        calls = [s for s in enum if s["attrs"]["ring"] == ring]
        if calls:
            seconds = sum(dur(s) for s in calls)
            states = sum(s["attrs"]["states"] for s in calls)
            out[f"tracesets.enum_s.{ring}"] = seconds
            out[f"tracesets.states.{ring}"] = states
            out[f"tracesets.states_per_s.{ring}"] = states / seconds
    cross = [s for s in enum if s["attrs"]["cross_check"]]
    if cross:
        out["tracesets.cross_check_s"] = sum(dur(s) for s in cross)
        out["tracesets.cross_check_states"] = sum(s["attrs"]["states"] for s in cross)
    for name, key in (("tracesets.expected_set", "tracesets.expected_set_s"),
                      ("tracesets.coverage_report", "tracesets.coverage_report_s")):
        if named(name):
            out[key] = sum(dur(s) for s in named(name))
    verify = named("constructions.verify_construction")
    if verify:
        out["constructions.verify.self_s"] = sum(own[s["id"]] for s in verify)
    verify_ids = {s["id"] for s in verify}
    # half-space targets build no strip domain inside verify
    two_gen = [s for s in named("geometry.build_ford_two_gen")
               if s["parent"] in verify_ids]
    if two_gen:
        out["geometry.two_gen_domain_s"] = sum(dur(s) for s in two_gen)
    separation = named("geometry.verify_separation",
                       "geometry.bianchi_separation_check")
    if separation:
        out["geometry.separation_s"] = sum(dur(s) for s in separation)
    if named("cli.main"):
        out["cli.report_s"] = sum(
            dur(s) for s in named("cli.certificate_report", "cli.dump_report"))
        out["cli.report_bytes"] = sum(s["attrs"].get("report_bytes", 0)
                                      for s in named("cli.main"))
    return out


COUNTERS = ("exactnum.qv_mul_calls", "exactnum.radical_sign_calls",
            "exactnum.interval_calls", "moebius.mul_calls")


def geometry_layers(latencies: dict, membership: dict) -> dict:
    """Per-kind median latency of geometry ops, and membership_reduce's
    iteration and undecided counts over one pass."""
    out = {f"geometry.{kind}.p50_ms": statistics.median(ts) * 1e3
           for kind, ts in latencies.items()}
    out["geometry.membership_reduce.iterations"] = membership["iterations"]
    out["geometry.membership_reduce.undecided"] = membership["undecided"]
    return out


def top_self_spans(tracer, limit: int = 5) -> list[dict]:
    own = tracer.self_times()
    ranked = sorted(tracer.spans, key=lambda s: own[s["id"]], reverse=True)
    return [{"name": s["name"], "trace": s["trace"], "attrs": s["attrs"],
             "self_s": own[s["id"]]} for s in ranked[:limit]]


def write_spans(path: Path, tracers: dict) -> None:
    doc = {}
    for label, tracer in tracers.items():
        own = tracer.self_times()
        doc[label] = [dict(s, self_s=own[s["id"]]) for s in tracer.spans]
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def traced(run: Run) -> dict:
    """The traced half of a --trace 1 run: spans, counts and microbenchmarks.

    Spans and counts come from exactly one traced pass.  The enumeration
    with the most states is written out as a replay record, for run.py to
    measure its memory in a fresh process.
    """
    import micro
    import workloads
    from spans import Tracer, instrumented

    tracer = Tracer()
    with instrumented(tracer):
        traced_pass = run.one_pass(tracer)
    problems = list(traced_pass.problems)
    # layers the workload does not reach are measured on the short verify
    # configurations, the same probe for every workload
    probe = Tracer()
    with instrumented(probe):
        for name in workloads.VERIFY:
            problems += run.verify_pass(workloads.verify_targets(name, "short"),
                                        probe).problems
    own_metrics = span_metrics(tracer)
    layers = {**span_metrics(probe), **own_metrics}
    from_probe = sorted(set(layers) - set(own_metrics))
    replay = tracer.replay
    if replay is None:
        replay = probe.replay
        from_probe.append("tracesets.bytes_per_state")
    for key in COUNTERS:
        layers[key] = tracer.counts[key]
    layers.update(micro.exact_arith_micro(run.seed))
    if run.workload != workloads.GEOMETRY:
        # the geometry workload's own latencies are taken from its untraced
        # passes; the others time a short batch after one warm-up pass
        ops = workloads.geometry_ops(run.seed, "short", workloads.geometry_domains())
        problems += run.geometry_pass(ops).problems
        batch = run.geometry_pass(ops)
        problems += batch.problems
        layers.update(geometry_layers(batch.latencies, batch.membership))
        from_probe.append("geometry.*")
    layers["constructions.build_s"] = run.build_s
    spans_path = OUT_DIR / f"spans-{run.workload}-seed{run.seed}.json"
    write_spans(spans_path, {"workload": tracer, "probe": probe})
    replay_path = OUT_DIR / f"replay-{run.workload}-seed{run.seed}.json"
    replay_path.write_text(json.dumps(replay) + "\n", encoding="utf-8")
    return {"layers": layers, "from_probe": from_probe, "traced_pass": traced_pass,
            "top_self_spans": top_self_spans(tracer),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "replay_file": str(replay_path.relative_to(ROOT)),
            "attempted": len(problems),
            "problems": [p for p in problems if p]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--config", choices=("full", "short"), default="full",
                        help="short: the self-test's small inputs")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import fordlab.cli
    import_s = time.perf_counter() - import_start
    if not Path(fordlab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported fordlab from {fordlab.cli.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    report_dir = OUT_DIR / f"reports-{args.workload}-{args.seed}-{args.config}"
    report_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, report_dir, args.config)
        setup_s = time.monotonic() - args.spawned_at
        out = {"setup_s": setup_s, "import_s": import_s, "build_s": run.build_s}
        if not args.setup_only:
            extra = traced(run) if args.trace else None
            result = run.measure(args.seconds)
            lat = [t for ts in result["latencies"].values() for t in ts]
            out.update(walls=result["walls"], op_count=len(lat),
                       op_p50_s=percentile(lat, 0.50),
                       op_p99_s=percentile(lat, 0.99),
                       attempted=result["attempted"],
                       problems=result["problems"])
            if extra is not None:
                traced_pass = extra.pop("traced_pass")
                layers = extra["layers"]
                layers["cli.import_s"] = import_s
                layers["bench.trace_overhead_ratio"] = (
                    traced_pass.wall / statistics.median(result["walls"]))
                if traced_pass.membership is not None:
                    layers.update(geometry_layers(result["latencies"],
                                                  traced_pass.membership))
                out.update(extra, attempted=result["attempted"] + extra["attempted"],
                           problems=result["problems"] + extra["problems"])
            out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024)
    finally:
        shutil.rmtree(report_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
