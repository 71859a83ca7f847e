"""Write ``reference.json``: key summary numbers of each workload at the default seed.

Run from the root of a checkout, only when the filter's answer is meant to
change (the gate's tolerance already admits rounding-level changes):

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    bench = run.load_bench()
    if bench is None:
        return 2
    entries = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in bench.WORKLOADS.items():
            call = bench.cli_call(workload, bench.DEFAULT_SEED, Path(tmp) / name)
            if call.code != 0:
                print(f"error: {name} exited with {call.code}", file=sys.stderr)
                return 1
            entries[name] = {
                "argv": workload.argv(bench.DEFAULT_SEED),
                "numbers": bench.gate.key_numbers(call.summary_dict),
            }
    reference = {
        "seed": bench.DEFAULT_SEED,
        "rel_tol": bench.gate.REL_TOL,
        "workloads": entries,
    }
    bench.gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
