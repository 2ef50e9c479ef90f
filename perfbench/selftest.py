"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 3] [--seed 7]

For each workload it makes one untraced and two traced runs at one seed
and checks that

* every run is correct;
* all three produce bit-identical outputs (step losses on train_gap,
  decoded token ids and scores on eval_gap, the metric JSON files on
  ablate_cli);
* every count metric repeats exactly between the two traced runs.

It prints the tracing overhead (traced minus untraced median operation
time) and each traced run's unattributed root self time. Last, it checks
that the benchmark fails, without a result, in a directory holding only
``BENCHMARK.json`` and ``perfbench/``. Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS

WORK = ROOT / ".perfbench_work"


def bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = bench(workload, seed, seconds, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((WORK / workload / f"result_trace{trace}.json").read_text(encoding="utf-8"))
    return {"summary": summary, "result": result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    args = ap.parse_args()

    failures: list[str] = []
    for workload in args.workloads:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = [run_once(workload, args.seed, args.seconds, 1) for _ in range(2)]
        runs = [plain, *traced]
        for i, r in enumerate(runs):
            if not r["summary"]["correct"]:
                failures.append(f"{workload} run {i}: not correct: {r['result']['problems']}")
        digests = {tuple(r["result"]["digest"]) for r in runs}
        if len(digests) != 1:
            failures.append(f"{workload}: traced and untraced outputs differ: {sorted(digests)}")
        a, b = (t["summary"]["metrics"] for t in traced)
        for name, m in a.items():
            if m["unit"] == "count" and m["value"] != b[name]["value"]:
                failures.append(f"{workload}: count {name} {m['value']} then {b[name]['value']}")
        base = plain["result"]["op_ms_p50"]
        over = traced[0]["result"]["op_ms_p50"] - base
        print(f"{workload}: outputs {'identical' if len(digests) == 1 else 'DIFFER'}; "
              f"op p50 untraced {base:.1f} ms, traced {base + over:.1f} ms, "
              f"tracing overhead {over:+.1f} ms ({100 * over / base:+.1f} %); "
              f"unattributed root self time "
              f"{100 * a['trace.unattributed_share']['value']:.3f} % of traced time")

    stripped = WORK / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    proc = bench(WORKLOADS[0], args.seed, 1, 0, cwd=stripped)
    shutil.rmtree(stripped)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"stripped directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    else:
        print(f"stripped directory: exit {proc.returncode}, no result")

    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
