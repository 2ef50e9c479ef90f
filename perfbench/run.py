"""Benchmark entry point: one run of one workload, or of each in turn.

    python3 perfbench/run.py --workload train_gap --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run it from the repository root. It starts ``bench.py`` in a child process
with every BLAS/OpenMP thread-count variable set to 1 (the matrices are
24x32, so threads only add contention) and ``src`` on the import path,
relays the child's output and exits with the child's code. The last line
of a workload's output is its result JSON. Files the run writes go under
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
WORKLOADS = ("train_gap", "eval_gap", "ablate_cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_workload(workload: str, args: argparse.Namespace, src: Path) -> int:
    env = dict(os.environ)
    caller_threads = {k: env.get(k) for k in THREAD_VARS}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "bench.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(ROOT / ".perfbench_work"),
           "--caller-threads", json.dumps(caller_threads)]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        sys.stderr.write(out.decode(errors="replace") if isinstance(out, bytes) else out)
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        sys.stderr.write(child.stdout)
        print(f"benchmark child exited {child.returncode}", file=sys.stderr)
        return child.returncode
    sys.stdout.write(child.stdout)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="one benchmark run of one workload, or of each")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "maf" / "__init__.py").is_file():
        print(f"no maf sources under {src}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rc = run_workload(workload, args, src)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
