#!/usr/bin/env python3
"""Run one benchmark workload against the moyalmetric sources of this checkout.

Usage (from the checkout root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A summary goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    # Before numpy loads: one BLAS thread keeps the small matrix work steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[0:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "moyalmetric" / "__init__.py").is_file():
        print(f"error: no moyalmetric sources under {SRC}", file=sys.stderr)
        return 2
    import moyalmetric
    if Path(moyalmetric.__file__).resolve().parent != SRC / "moyalmetric":
        print(f"error: imported moyalmetric from {moyalmetric.__file__}", file=sys.stderr)
        return 2

    from perfbench import harness

    def report(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         SRC, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
