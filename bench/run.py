"""fordlab benchmark: end-to-end and per-layer metrics for four workloads.

Run from the repository root:

    python3 bench/run.py --workload verify-int --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones; ``--workload all`` runs every workload both ways.  Each
metric is printed as ``name value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans of a
traced run are written to ``.bench_out/``.

Every run is a fresh child process (bench/child.py), one at a time, with
``FORDLAB_STATE_CAP`` unset, default ``--parallelism`` and single-threaded
numpy.  Each workload is a closed loop with one caller: an op starts when
the previous one returns.  Set-up time is the median over SETUP_RUNS fresh
processes.  A traced run's tracesets.bytes_per_state is measured in one more
fresh process (bench/enum_memory.py) that makes only the traced pass's
largest enumeration.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
ENUM_MEMORY = Path(__file__).resolve().parent / "enum_memory.py"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["verify-int", "verify-bianchi", "verify-normalizer", "geometry"]
SETUP_RUNS = 9
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FORDLAB_STATE_CAP", None)
    env.pop("PYTHONPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_script(argv: list[str], what: str, deadline: float) -> dict:
    """Run one Python child to completion and return its last JSON line."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{what} exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed no result")
    return json.loads(lines[-1])


def spawn(workload: str, seed: int, seconds: float, trace: int, config: str,
          setup_only: bool, deadline: float) -> dict:
    """Run one workload child and return its result."""
    argv = [str(CHILD), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--config", config]
    if setup_only:
        argv.append("--setup-only")
    # the child's set-up time counts from here, so it includes process start
    argv += ["--spawned-at", repr(time.monotonic())]
    return run_script(argv, f"{workload} child", deadline)


def bytes_per_state(replay_file: str, deadline: float) -> float:
    """Peak-memory growth per state of the replayed enumeration."""
    path = ROOT / replay_file
    try:
        replay = json.loads(path.read_text(encoding="utf-8"))
        got = run_script([str(ENUM_MEMORY), str(path)], "enum_memory.py", deadline)
    finally:
        path.unlink(missing_ok=True)
    if got["states"] != replay["states"]:
        raise BenchError(f"replayed enumeration of {replay['target']} explored "
                         f"{got['states']} states, the traced one {replay['states']}")
    return got["maxrss_growth_kb"] * 1024 / got["states"]


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 config: str = "full") -> dict:
    """One benchmark run: the result object and detail lines for humans.

    config "short" runs the self-test's small inputs instead of the workload's.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = load_spec()
    # set-up-only children run before and after the measured one, so the
    # set-up samples spread over the run instead of one burst of machine load
    extra_setups = 0 if trace else SETUP_RUNS - 1

    def setup_only():
        return spawn(workload, seed, seconds, trace, config, True,
                     deadline)["setup_s"]

    setups = [setup_only() for _ in range(extra_setups // 2)]
    out = spawn(workload, seed, seconds, trace, config, False, deadline)
    setups.append(out["setup_s"])
    setups += [setup_only() for _ in range(extra_setups - extra_setups // 2)]
    if trace:
        values = out["layers"]
        values["tracesets.bytes_per_state"] = bytes_per_state(out["replay_file"],
                                                              deadline)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(out["walls"]),
            "peak_rss_mb": out["peak_rss_mb"],
            "op_p50_ms": out["op_p50_s"] * 1e3,
            "op_p99_ms": out["op_p99_s"] * 1e3,
        }
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise BenchError(f"metrics {sorted(set(values) ^ set(names))} do not "
                         "match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    failed = len(out["problems"])
    details = [f"# {workload} seed={seed} trace={trace}: {out['attempted']} ops, "
               f"{failed} failed (failed_ratio {failed / out['attempted']:.4g}), "
               f"{len(out['walls'])} passes, {out['op_count']} timed ops"]
    details += [f"# problem: {p}" for p in out["problems"][:20]]
    if trace:
        details.append(f"# spans: {out['spans_file']}; measured on the short "
                       f"configurations: {', '.join(out['from_probe']) or 'none'}")
        for s in out["top_self_spans"]:
            details.append(f"# top self time {s['self_s']:.4f} s  {s['name']} "
                           f"[{s['trace']}] {json.dumps(s['attrs'], sort_keys=True)}")
    else:
        details.append(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}; "
                       f"pass walls: {', '.join(f'{w:.4f}' for w in out['walls'])}")
    return {"result": {"correct": failed == 0, "attempted": out["attempted"],
                       "failed": failed, "metrics": metrics},
            "details": details}


def print_metrics(metrics: dict, prefix: str = "") -> None:
    for name, m in metrics.items():
        print(f"{prefix}{name} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the fordlab benchmark.",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fordlab" / "__init__.py").is_file():
        print(f"error: no fordlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2

    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)]
            if args.workload == "all" else [(args.workload, args.trace)])
    results = {}
    try:
        for workload, trace in runs:
            run = run_workload(workload, args.seed, args.seconds, trace)
            for line in run["details"]:
                print(line)
            prefix = f"{workload}/" if args.workload == "all" else ""
            print_metrics(run["result"]["metrics"], prefix)
            results[(workload, trace)] = run["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[runs[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for (w, _), r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
