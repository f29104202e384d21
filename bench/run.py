"""lpjt benchmark: fit and predict wall time, accuracy, set-up time and
memory on one workload, with output checks; or, with --trace 1, the
per-layer figures of a traced pass.

    python3 bench/run.py --workload rotated-small --seed 0 --seconds 20 --trace 0

One client in one process calls `pipeline.fit`, then `pipeline.predict`,
on each of the workload's problems in turn (a closed loop), then cycles
through them again until --seconds have passed. The BLAS thread count is
pinned to 1 before numpy is imported. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every output check passed. See bench/README.md.
"""

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # pin BLAS threads before numpy is first imported; never above nproc
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        lpjt = importlib.import_module("lpjt")
        if not Path(lpjt.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"lpjt was found at {lpjt.__file__}, outside {ROOT / 'src'}")
        client = importlib.import_module("client")
        workloads = importlib.import_module("workloads")
    except ImportError as exc:
        print(f"error: cannot import the library from this checkout: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print(f"# machine {json.dumps(client.machine_facts())}")
    result, report = client.run(wl, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
