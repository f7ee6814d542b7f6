#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and agreement between two sets of runs.

usage:
  python3 perfbench/spread.py --workload W --seeds 1 2 3 ... [--seconds S] [--trace 0|1]
                              [--out FILE] [--compare FILE]

Runs run.py once per seed, one run at a time, and prints for every metric
the median, the quartiles and the spread (interquartile distance as a share
of the median, by `statistics.quantiles(values, n=4)`), next to the metric's
bound from spec.py.  --out writes the set (environment, per-seed metrics,
guards and fingerprints) as JSON, merged by workload into FILE if it exists.
--compare checks this set against one written earlier: every median within
its bound, and guards and fingerprints equal seed by seed.  baseline.json is
the set written at the commit that added the benchmark (seeds 1-10).
Repeating one seed (--seeds 4 4 4 4 4) runs the same work every time, so
its spread is the host's run-to-run noise alone.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "seed": seed,
        "wall_s": time.monotonic() - started,
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in record.get("metrics", {}).items()},
        "guards": record.get("guards", {}),
        "fingerprint_sha256": record.get("fingerprint_sha256"),
        "environment": record["environment"],
    }


def summarize(runs: list[dict]) -> dict:
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs if r["metrics"].get(name) is not None]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "bound": bounds.get(name), "runs": len(values)}
    return summary


def compare(current: dict, earlier: dict) -> list[str]:
    problems = []
    better = {m.name: m.better for m in spec.END_TO_END}
    for name, now in current["summary"].items():
        before = earlier["summary"].get(name)
        if before is None or now["bound"] is None:
            continue
        change = now["median"] / before["median"] - 1
        worse = change > now["bound"] if better[name] == "lower" else -change > now["bound"]
        print(f"compare {name}: {before['median']:.6g} -> {now['median']:.6g} "
              f"({change:+.2%}, bound {now['bound']:.0%}){'  WORSE' if worse else ''}")
        if worse:
            problems.append(name)
    earlier_runs = {r["seed"]: r for r in earlier["runs"]}
    for run in current["runs"]:
        old = earlier_runs.get(run["seed"])
        if old is None:
            continue
        for key in ("fingerprint_sha256", "guards"):
            if run[key] != old[key]:
                problems.append(f"seed {run['seed']}: {key} differs")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path)
    args = p.parse_args()

    runs = []
    for seed in args.seeds:
        run = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(run)
        shown = " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items() if v is not None)
        print(f"seed {seed}: correct={run['correct']} failed={run['failed']}/{run['attempted']} "
              f"wall={run['wall_s']:.1f}s {shown}", flush=True)
    current = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "environment": runs[0]["environment"], "runs": runs, "summary": summarize(runs)}
    for name, s in current["summary"].items():
        bound = f"bound {s['bound']:.0%}" if s["bound"] is not None else "no bound"
        spread = f"{s['spread']:.2%}" if s["spread"] is not None else "n/a"
        print(f"spread {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {spread} ({bound}, {s['runs']} runs)")
    ok = all(r["correct"] for r in runs)
    if args.compare:
        problems = compare(current, json.loads(args.compare.read_text())[args.workload])
        for problem in problems:
            print(f"mismatch {problem}")
        ok = ok and not problems
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = current
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
