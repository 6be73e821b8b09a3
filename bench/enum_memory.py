"""Peak-memory growth of one enumerate_traces call, in a fresh process.

    python3 bench/enum_memory.py CALL.json

CALL.json is the ``replay`` record of a traced benchmark run: the target,
which generator set (a subgroup index, or null for the combined
generators), the call's arguments and the states it explored.  This process
imports fordlab, builds the target and then makes only that call, so its
``ru_maxrss`` growth is the call's own peak above the resident set, not the
part above an earlier call's peak.  Prints one JSON line with the states
explored and the growth in KiB.
"""

from __future__ import annotations

import json
import resource
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    call = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from fordlab.constructions import build
    from fordlab.tracesets import enumerate_traces

    import workloads

    construction = build(*workloads.parse_target(call["target"]))
    gens = (construction.combined_gens if call["subgroup"] is None
            else construction.subgroups[call["subgroup"]].gens)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = enumerate_traces(gens, call["max_word_len"],
                              Fraction(call["trace_bound"]),
                              state_cap=call["state_cap"],
                              parallelism=call["parallelism"])
    growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    print(json.dumps({"states": result.states_explored, "maxrss_growth_kb": growth}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
