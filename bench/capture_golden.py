"""Write bench/golden.json from the current code's normalized reports.

Run once when the benchmark is defined, from the repository root:

    python3 bench/capture_golden.py

Re-capturing is only right when a change is meant to alter verdicts,
checks, margins or trace sets, and then the change has to say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fordlab.cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "golden-capture.json"
    records = {}
    for name in workloads.VERIFY:
        for config in ("full", "short"):
            for target, bound, max_word in workloads.verify_targets(name, config):
                argv = workloads.verify_argv(target, bound, max_word, path)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = fordlab.cli.main(argv)
                report = json.loads(path.read_text(encoding="utf-8"))
                key = oracle.golden_key(target, bound, max_word)
                records[key] = oracle.golden_record(report, code)
                print(f"{key}: {report['verdict']} (exit {code}), "
                      f"{len(records[key]['traces'])} traces", file=sys.stderr)
    path.unlink()
    oracle.GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
