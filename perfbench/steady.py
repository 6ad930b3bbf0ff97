"""Steadiness check: two sets of benchmark runs of the same tree, each metric against its bound.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--neighbours K]

Set k runs every workload RUNS times with seeds k*1000 + 1, k*1000 + 2, ...
For each end-to-end metric it prints each set's median and quartiles, the
spread (Q3 - Q1) / median against the bound in BENCHMARK.json, and the move of
the second set's median from the first's, either way.  Wall time is printed
beside them as a reference, with no bound.  Every run must report
``correct: true`` and exactly its workload's expected share of failed
operations.  ``--neighbours K`` runs one set beside K CPU-bound processes,
to show which metrics hold on a busy machine.  The exit code is 1 when any
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

RUNS = 10
SETS = 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    walls = json.loads(Path(record).read_text(encoding="utf-8"))["machine"]["round_wall_s"]
    result["wall_s"] = statistics.median(walls)
    return result


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--neighbours", type=int, default=0)
    args = ap.parse_args()

    neighbours = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
                  for _ in range(args.neighbours)]
    try:
        sets = []
        for k in range(1, (1 if args.neighbours else SETS) + 1):
            runs = {}
            for workload in names:
                runs[workload] = []
                for i in range(1, RUNS + 1):
                    res = one_run(bench, workload, 1000 * k + i)
                    runs[workload].append(res)
                    print(f"set {k} {workload} seed {1000 * k + i}: "
                          + " ".join(f"{m}={v['value']:.4f}" for m, v in res["metrics"].items())
                          + f" wall_s={res['wall_s']:.3f} failed={res['failed']}/{res['attempted']}"
                          + f" correct={res['correct']}", flush=True)
            sets.append(runs)
    finally:
        for proc in neighbours:
            proc.kill()
            proc.wait()

    ok = True
    metrics = [(m["name"], m["bound"]) for m in bench["end_to_end"]] + [("wall_s", None)]
    print(f"\n{'workload':<11} {'metric':<12} {'set':>3} {'median':>10} {'Q1':>10} {'Q3':>10} "
          f"{'spread':>7} {'bound':>6} {'move':>7}  failed share")
    for workload in names:
        expected = workloads.WORKLOADS[workload].failed_share
        for name, bound in metrics:
            first = None
            for k, runs in enumerate(sets, 1):
                rows = runs[workload]
                values = [r["wall_s"] if name == "wall_s" else r["metrics"][name]["value"] for r in rows]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                first = med if first is None else first
                move = (med - first) / first
                share = f"{sum(r['failed'] for r in rows)}/{sum(r['attempted'] for r in rows)}"
                flag = ""
                if not all(r["correct"] and Fraction(r["failed"], r["attempted"]) == expected
                           for r in rows):
                    flag, ok = f"  WRONG: a run is incorrect or its failed share is not {expected}", False
                elif bound is not None:
                    if (name != "setup_s" and spread > bound) or abs(move) > bound:
                        flag, ok = "  OUT OF BOUND", False
                    elif name != "setup_s" and spread > bound / 3:
                        flag = "  above a third of the bound"
                print(f"{workload:<11} {name:<12} {k:>3} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                      f"{spread:>7.2%} {'-' if bound is None else f'{bound:.2f}':>6} {move:>+7.2%}  "
                      f"{share}{flag}")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
