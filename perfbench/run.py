"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ex2_track --seed 11 --seconds 30 --trace 0

The library is imported from the checkout's ``src`` directory, never from
an installed copy. BLAS and OpenMP pools are pinned to one thread and
``SKF_THREADS`` is removed before numpy is imported, so every run is
serial and in one process. The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it describe the environment, the gate and the sample counts.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_serial_environment() -> None:
    """One BLAS thread and no trial worker pool, for this process and its children."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SKF_THREADS", None)


def load_bench():
    """Import the benchmark against this checkout's sources, or None if there are none."""
    if not (ROOT / "src" / "skf" / "__init__.py").is_file():
        print(f"error: no skf sources under {ROOT / 'src'}", file=sys.stderr)
        return None
    pin_serial_environment()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import bench

    return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_bench()
    if bench is None:
        return 2
    if args.workload not in bench.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return bench.main(
        bench.WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_root=ROOT / ".perfbench_out",
    )


if __name__ == "__main__":
    sys.exit(main())
