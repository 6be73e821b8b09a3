"""Self-tests of the benchmark, run from the repository root:

    python3 bench/selftest.py

Checks that a short configuration of every workload runs green in both
trace modes and prints exactly the metrics BENCHMARK.json declares; that a
traced run's counts repeat with another seed and a longer run; that the
oracle flags a report with one trace removed, a flipped verdict, swapped
witness words and a wrong geometry output, and counts each as a failed op;
and that bench/layer_map.json covers every per-layer metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fordlab.cli  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fordlab.exactnum import QuadValue  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def short_runs_green(spec: dict) -> dict:
    """Runs each workload's short configuration; returns the traced results."""
    traced = {}
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run_workload(workload, 7, 1, trace, config="short")["result"]
            if trace:
                traced[workload] = result
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"short {workload} trace={trace} runs green")
            printed = list(result["metrics"])
            declared = [m["name"] for m in spec[key]]
            check(printed == declared,
                  f"short {workload} trace={trace} prints the {key} metrics")
            check(all(isinstance(m["value"], (int, float)) for m in
                      result["metrics"].values()),
                  f"short {workload} trace={trace} values are numbers")
    return traced


def counts_repeat(spec: dict, first: dict) -> None:
    """A traced run's counts are those of one pass: another seed and a longer
    run give the same counts.  The geometry batch of a verify workload is
    seeded, so its counts are left out."""
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and not m["name"].startswith("geometry.")]
    again = run.run_workload("verify-int", 8, 3, 1, config="short")["result"]
    same = [name for name in counts if first["metrics"][name] == again["metrics"][name]]
    check(same == counts, "short verify-int counts repeat with another seed and "
          f"a longer run (differ: {sorted(set(counts) - set(same))})")


def oracle_flags_tampering() -> None:
    report_dir = child.OUT_DIR / "selftest"
    report_dir.mkdir(parents=True, exist_ok=True)
    bench_run = child.Run("verify-int", 7, report_dir, "short")
    target, bound, max_word = workloads.verify_targets("verify-int", "short")[0]
    path = report_dir / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = fordlab.cli.main(workloads.verify_argv(target, bound, max_word, path))
    report = json.loads(path.read_text(encoding="utf-8"))
    shutil.rmtree(report_dir)
    removed = json.loads(json.dumps(report))
    removed["coverage"]["witness_words"].pop(next(iter(removed["coverage"]["witness_words"])))
    flipped = dict(report, verdict="Failed" if report["verdict"] == "Verified" else "Verified")
    swapped = json.loads(json.dumps(report))
    words = swapped["coverage"]["witness_words"]
    first, last = list(words)[0], list(words)[-1]
    words[first], words[last] = words[last], words[first]
    outcomes = [bench_run.check_verify(target, bound, max_word, code, json.dumps(r))
                for r in (report, removed, flipped, swapped)]
    check(outcomes[0] is None, "oracle accepts the genuine report")
    check(outcomes[1] is not None and "trace set differs" in outcomes[1],
          "oracle flags a report with one trace removed")
    check(outcomes[2] is not None and "verdict" in outcomes[2],
          "oracle flags a report with a flipped verdict")
    check(outcomes[3] is not None and "multiplies to trace" in outcomes[3],
          "oracle flags witness words swapped between two traces")
    failed = sum(o is not None for o in outcomes)
    check(failed == 3, f"every tampered report counts as a failed op ({failed}/4)")

    op = next(op for op in workloads.geometry_ops(7, "short",
                                                  workloads.geometry_domains())
              if op.kind == "circle_map")
    disk, image_disk, (gx, gy) = workloads.run_geometry_op(op)
    check(workloads.check_geometry_op(op, (disk, image_disk, (gx, gy))) is None,
          "geometry oracle accepts a genuine circle mapping")
    check(workloads.check_geometry_op(op, (disk, image_disk, (gx + QuadValue(1), gy)))
          is not None, "geometry oracle flags a moved circle point")


def layer_map_complete(spec: dict) -> None:
    doc = json.loads((Path(__file__).parent / "layer_map.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    check(list(doc["layers"]) == per_layer,
          "layer_map.json lists every per-layer metric of BENCHMARK.json")
    e2e = {m["name"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    refs_ok = all(m["metric"] in e2e and m["workload"] in names
                  for entry in doc["layers"].values() for m in entry["moves"])
    refs_ok &= all(w in names for entry in doc["layers"].values()
                   for w in entry["no_change"])
    check(refs_ok, "layer_map.json names only declared metrics and workloads")
    check(names == run.WORKLOADS == workloads.WORKLOADS,
          "BENCHMARK.json, run.py and workloads.py agree on the workloads")


def main() -> int:
    spec = run.load_spec()
    oracle_flags_tampering()
    layer_map_complete(spec)
    traced = short_runs_green(spec)
    counts_repeat(spec, traced["verify-int"])
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
