#!/usr/bin/env python3
"""vlpkg benchmark: set-up time, training and evaluation throughput and peak
memory on synthetic workloads, with per-module timings from a traced run.

    python3 perfbench/run.py --workload rand5k-vlp --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload
    python3 perfbench/run.py --workload comp-vlp --quick   # toy sizes

Run from anywhere; the package is imported from the ``src`` directory next
to this one and from nowhere else. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The exit code is non-zero when
an operation or an output check failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Pinned before numpy is imported, so that threads = 2 means two busy
# threads and not two times the BLAS pool.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("rand5k-vlp", "rand5k-hlp", "comp-vlp")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time, split between training and eval")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy graph sizes and step budgets (smoke test)")
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own process: ru_maxrss never drops in one."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        sys.stdout.flush()
        status |= subprocess.run(cmd, check=False).returncode
    return 1 if status else 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "vlpkg" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'vlpkg'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vlpkg

    if SRC not in Path(vlpkg.__file__).resolve().parents:
        print(f"error: imported vlpkg from {vlpkg.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import runner

    return runner.run(args, root=ROOT, blas_vars=BLAS_VARS)


if __name__ == "__main__":
    sys.exit(main())
