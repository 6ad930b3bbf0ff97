"""Benchmark of the skelsig CLI: CPU time, set-up time and peak memory per workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload plane-100 --seed 1 --seconds 10 --trace 0

Each round runs the workload's CLI commands in one child interpreter
(``perfbench/child.py``), one child at a time, and its outputs are then
checked against ``perfbench/oracle.py``.  Rounds repeat until ``--seconds``
have passed.  The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
round with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

CHILD_CAP_S = 150.0  # wall-clock cap on all rounds of one run; a child past it is killed
SETUP_LAUNCHES = 9  # set-up-only children per run, on top of one per round
OUT_ROOT = Path("perfbench-runs")

def machine_facts() -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "gil": True if gil is None else gil(),
        "loadavg_start": os.getloadavg(),
    }


def launch(plan: dict, work_dir: Path, cap_s: float) -> dict:
    """Run one child to its end, or kill it at ``cap_s``; return its report and wait4 figures."""
    plan_path = work_dir / "plan.json"
    plan = {**plan, "report": str(work_dir / "report.json"), "spans": str(work_dir / "spans.tsv")}
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    Path(plan["report"]).unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": "0"}
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(plan_path)], env=env,
                            stdout=subprocess.DEVNULL)
    dnf = False
    try:
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - start > cap_s:
                dnf = True
                proc.kill()
                pid, status, ru = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()  # never leave a child behind, whatever stopped the wait
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    # a child that did not finish wrote no report: its figures are raw, set-up included
    cpu = ru.ru_utime + ru.ru_stime
    result = {"wall_s": wall, "cpu_total_s": cpu, "dnf": dnf, "exit": proc.returncode,
              "cpu_s": cpu, "cpu_raw_s": cpu, "peak_rss_mb": ru.ru_maxrss / 1024.0}
    if not dnf and proc.returncode == 0:
        report = json.loads(Path(plan["report"]).read_text(encoding="utf-8"))
        result.update(report, cpu_s=report["commands_s"], cpu_raw_s=report["commands_raw_s"],
                      peak_rss_mb=report["peak_rss_kb"] / 1024.0)
    return result


def layer_metrics(trace: dict, bytes_out: int) -> dict:
    calls, sizes, statuses = trace["calls"], trace["sizes"], trace["statuses"]
    pf_calls = calls.get("rh.period_feasible", 0)
    out = {f"{layer}.self_s": secs for layer, secs in trace["self_s"].items()}
    out.update({
        "rh.period_feasible.calls": pf_calls,
        "rh.period_feasible.exists_ratio":
            statuses.get("rh.period_feasible:exists", 0) / pf_calls if pf_calls else 0.0,
        "geometry.regions": calls.get("geometry.triangle", 0) + calls.get("geometry.gap", 0),
        "geometry.lattice_points": sizes.get("geometry.TriangleRegion.integer_points", 0)
        + sizes.get("geometry.GapRegion.integer_points_raw", 0),
        "groups.tables_built": calls.get("groups.GroupTable.from_table", 0),
        "genvec.search.calls": calls.get("genvec.search", 0),
        "genvec.realizable.calls": calls.get("genvec.realizable", 0),
        "genvec.search.unknown": statuses.get("genvec.search:unknown", 0),
        "genvec.search.max_s": trace["max_s"].get("genvec.search", 0.0),
        "kspace.admissible_map.calls": calls.get("kspace.admissible_map", 0),
        "cli.bytes_out": bytes_out,
    })
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/skelsig/cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of a skelsig checkout (src/skelsig/cli.py or "
              "BENCHMARK.json not found)",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    facts = machine_facts()
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    commands = wl.commands(out_dir)
    run_start = time.monotonic()

    launch({"commands": [], "trace": False}, run_dir, 60.0)  # compiles .pyc; not timed

    plain, traced = [], []
    outcome = workloads.Outcome()
    stop = False
    while not stop:
        for trace in (False, True) if args.trace else (False,):
            for old in out_dir.iterdir():
                old.unlink()
            left = CHILD_CAP_S - (time.monotonic() - run_start)
            res = launch({"commands": commands, "trace": trace}, run_dir, max(left, 1.0))
            res["bytes_out"] = sum(p.stat().st_size for p in out_dir.iterdir())
            if "codes" in res:
                done = wl.check(out_dir, res["codes"])
            else:
                ops = wl.operations()
                done = workloads.Outcome(attempted=ops, failed=ops)
                done.notes.append("did-not-finish" if res["dnf"] else f"child exit {res['exit']}")
                stop = True
            outcome.add(done)
            (traced if trace else plain).append(res)
            print(f"round {len(plain)}{' traced' if trace else ''}: wall_s={res['wall_s']:.3f} "
                  f"cpu_s={res['cpu_s']:.3f} (raw {res['cpu_raw_s']:.3f}) "
                  f"setup_s={res.get('setup_s', float('nan')):.3f} "
                  f"peak_rss_mb={res['peak_rss_mb']:.1f} attempted={done.attempted} "
                  f"failed={done.failed + done.wrong}{' DNF' if res['dnf'] else ''}", flush=True)
            for note in done.notes[:5]:
                print(f"  {note}")
            if stop:
                break
        stop = stop or time.monotonic() - run_start >= args.seconds

    setups = [r["setup_s"] for r in plain + traced if "setup_s" in r]
    for _ in range(SETUP_LAUNCHES):
        res = launch({"commands": [], "trace": False}, run_dir, 30.0)
        if "setup_s" in res:
            setups.append(res["setup_s"])

    facts["wall_s"] = time.monotonic() - run_start
    facts["round_wall_s"] = [r["wall_s"] for r in plain]
    if args.trace:
        done = [r for r in traced if "trace" in r]
        if not done:
            print("error: no traced round finished", file=sys.stderr)
            return 1
        per_round = [layer_metrics(r["trace"], r["bytes_out"]) for r in done]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        # the commands alone: writing the spans out is not part of the overhead
        metrics["trace.overhead_s"] = (statistics.median(r["cpu_s"] for r in done)
                                       - statistics.median(r["cpu_s"] for r in plain))
        facts["spans"] = [r["trace"]["spans"] for r in done]
    else:
        if not setups:
            print("error: the child never reached the first command", file=sys.stderr)
            return 1
        metrics = {
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    correct = outcome.wrong == 0
    print(f"machine: python {facts['python']}, nproc {facts['nproc']}, gil {facts['gil']}, "
          f"loadavg at start {facts['loadavg_start'][0]:.2f}, run wall {facts['wall_s']:.1f} s")
    print(f"{args.workload} seed {args.seed}: attempted {outcome.attempted}, "
          f"failed {outcome.failed + outcome.wrong}, correct {correct}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
        if name == "cpu_s":
            # unscaled, for reference: a gap that moves between commits shows the probe moving
            raw = statistics.median(r["cpu_raw_s"] for r in plain)
            print(f"  cpu_raw_s = {raw:.6g} s (unscaled, no bound)")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed + outcome.wrong,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "machine": facts,
              "rounds": plain, "traced_rounds": traced, "notes": outcome.notes}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    shutil.rmtree(out_dir)
    print(f"record: {run_dir / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
