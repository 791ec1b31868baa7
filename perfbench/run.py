"""arrayvad benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: the matrices are small, and on a shared 2-vCPU host two
# spinning OpenBLAS threads made request times noisier, not shorter.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description="arrayvad benchmark")
    parser.add_argument("--workload", required=True,
                        help="infer_long, maskeval_short or train")
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; selects input set seed mod 16")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    # Internal: one set-up in a fresh process, started by the timed run.
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    parser.add_argument("--warmup", type=int, default=1, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bootstrap():
    """Pin the BLAS threads and put ``src/`` first on the import path.

    Returns (BLAS threads, usable CPUs), or None when the checkout holds no
    package sources. Must run before numpy is imported.
    """
    if not (ROOT / "src" / "arrayvad" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'arrayvad'}; run "
              "the benchmark from a checkout of the repository", file=sys.stderr)
        return None
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return threads, nproc


def main(argv=None):
    args = parse_args(argv)
    booted = bootstrap()
    if booted is None:
        return 2
    from perfbench import harness
    return harness.main(args, ROOT, *booted)


if __name__ == "__main__":
    sys.exit(main())
