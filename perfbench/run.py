#!/usr/bin/env python3
"""The portchain benchmark.

usage:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --write-benchmark-json

Workloads, metrics and bounds are in spec.py.  A run builds its inputs from
--seed, runs a fixed number of operations sized so that the run measures
about --seconds on a 2 vCPU host (the same seed always does the same work,
however fast the host is), checks every output, and prints each metric by
name with its unit and sample count.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are spec.END_TO_END over the operations that passed
their gates: medians for set-up and RSS, totals for times and rates.  With --trace 1 they are spec.PER_LAYER: about a third
as many operations each run twice, untraced and traced (tracer.py), which
also gives the overhead ratio.  Operations that fail their gates, or that
the run deadline kills or leaves unstarted, count as failed, and the result
then reads correct: false.  Without the program's sources, or when no
operation passes, the command prints no result and exits non-zero.

Every operation runs in its own fresh interpreter (sample.py), one at a
time: the program's caches are process-global, and the host has 2 vCPU.
Scenario and chain files go to a temporary directory under
.perfbench_out/, which is removed at exit; the run's record (environment,
metrics, sample spreads, guards, fingerprint) is written to
.perfbench_out/<workload>-seed<N>-trace<T>.json and the traced run's spans
to .perfbench_out/spans/<workload>/.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# wall seconds of one sample (set-up, operation, gates) at the seed commit on
# a 2 vCPU host with CPython 3.11; sizes the fixed operation count
NOMINAL_SAMPLE_S = {"faulty-net": 2.8, "tx-heavy": 2.6, "audit": 4.0}
# faulty-net cycles latency_max over three values; runs hold whole cycles
OP_CYCLE = {"faulty-net": 3, "tx-heavy": 1, "audit": 1}
SIM_PHASE = {"faulty-net": "sim", "tx-heavy": "sim", "audit": "cli_run"}
OPS_PER_SAMPLE = {"faulty-net": 1, "tx-heavy": 1, "audit": 3}
# every run does all of its operations; one still running at MAX_RUN_S is
# killed, and it and every operation not started by then count as failed,
# which keeps runs under 180 s without ever reporting a smaller run as correct
MAX_RUN_S = 165.0


def op_count(workload: str, seconds: int, trace: bool) -> int:
    """Operations in a run: whole cycles, about `seconds` long.  A traced op
    runs twice, untraced and traced, and costs about three untraced ones."""
    cycle = OP_CYCLE[workload]
    per_op_s = NOMINAL_SAMPLE_S[workload] * (3 if trace else 1)
    return cycle * max(1, round(seconds / (cycle * per_op_s)))


def run_sample(workload, seed, op, trace, tmp, spans_file, deadline) -> tuple[dict, float]:
    argv = [sys.executable, str(HERE / "sample.py"), workload, str(seed), str(op),
            "1" if trace else "0", str(tmp)]
    if spans_file is not None:
        argv.append(str(spans_file))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"op": op, "error": "sample timed out"}, spawned
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"op": op, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return result, spawned


def failed_ops(workload: str, result: dict) -> int:
    if "error" in result or result.get("leaks"):
        return OPS_PER_SAMPLE[workload]
    return sum(1 for f in result["failures"].values() if f)


def spread_of(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(workload: str, samples: list[dict]) -> tuple[dict, dict]:
    """Every end-to-end metric as (run value, per-sample series), and pooled
    guards.  Set-up and peak RSS repeat the same work in every sample, so
    they take the median.  Times and rates are totals over the run (seconds
    per operation, counts per second): the samples' configs differ, and a
    total averages out the host's sample-to-sample noise where a median
    across unlike configs moves with the mix."""
    phase = SIM_PHASE[workload]

    def median(values):
        return statistics.median(values), values

    def per_op(phase=None):
        walls = [sum(s["walls"].values()) if phase is None else s["walls"][phase] for s in samples]
        return sum(walls) / len(walls), walls

    def rate(count, phase):
        return (sum(s[count] for s in samples) / sum(s["walls"][phase] for s in samples),
                [s[count] / s["walls"][phase] for s in samples])

    metrics = {
        "setup_s": median([s["setup_s"] for s in samples]),
        "peak_rss_mb": median([s["rss_mb"] for s in samples]),
        "op_s": per_op(),
        "sim_heights_per_s": rate("heights", phase),
    }
    guards = {}
    if workload == "audit":
        metrics["cli_run_s"] = per_op("cli_run")
        metrics["import_blocks_per_s"] = rate("import_blocks", "import")
        metrics["chi_square_draws_per_s"] = rate("draws", "chi_square")
    else:
        if workload == "tx-heavy":
            metrics["txs_committed_per_s"] = rate("txs", "sim")
        latencies = sorted(x for s in samples for x in s["latencies"])
        if latencies:
            guards["commit_latency_ticks.p50"] = percentile(latencies, 0.50)
            guards["commit_latency_ticks.p99"] = percentile(latencies, 0.99)
            guards["latency_samples"] = len(latencies)
        guards["heights"] = sum(s["heights"] for s in samples)
        guards["msgs_per_height"] = sum(s["msgs_sent"] for s in samples) / guards["heights"]
    return metrics, guards


def _merge(summaries: list[dict]) -> dict:
    total: dict = {"spans": {}}
    for summary in summaries:
        for key, value in summary.items():
            if key == "spans":
                for name, row in value.items():
                    acc = total["spans"].setdefault(name, [0, 0.0, 0.0])
                    for i in range(3):
                        acc[i] += row[i]
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(summaries: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the tracer sums of every traced sample."""
    t = _merge(summaries)
    spans = t["spans"]

    def ratio(num, den):
        return num / den if den else None

    def calls(name):
        return spans.get(name, [0])[0]

    def us(name):
        row = spans.get(name)
        return row[1] / row[0] * 1e6 if row and row[0] else None

    def self_s(prefix):
        return sum(row[2] for name, row in spans.items()
                   if name == prefix or name.startswith(prefix + "."))

    handle_calls = sum(calls(f"engine.handle.{k}") for k in spec.HANDLE_KINDS)
    return {
        "netsim.self_s": self_s("netsim"),
        "netsim.deliveries_per_height": ratio(t["msgs_delivered"], t["heights"]),
        "netsim.drop_ratio": ratio(t["msgs_dropped"], t["msgs_sent"]),
        **{f"engine.handle_calls.{k}": calls(f"engine.handle.{k}") for k in spec.HANDLE_KINDS},
        **{f"engine.handle_us.{k}": us(f"engine.handle.{k}") for k in spec.HANDLE_KINDS},
        "engine.handle.self_s": self_s("engine.handle"),
        "engine.handle_calls_per_height": ratio(handle_calls, t["heights"]),
        "engine.assemble_calls_per_proposal": ratio(t["assemble_in_sim"], t["proposals"]),
        "engine.assemble_us": us("engine.assemble_block"),
        "engine.assemble.self_s": self_s("engine.assemble_block"),
        "engine.validate_calls": calls("engine.validate"),
        "engine.validate_memo_hit_ratio": 1 - t["validate_distinct"] / calls("engine.validate")
        if calls("engine.validate") else None,
        "selection.select_calls": calls("selection.select_assignment"),
        "selection.select_us": us("selection.select_assignment"),
        "selection.descend_calls": calls("selection.weighted_descend"),
        "selection.descend_us": us("selection.weighted_descend"),
        "selection.self_s": self_s("selection"),
        "ledger.apply_tx_calls": calls("ledger.apply_transaction"),
        "ledger.apply_tx_us": us("ledger.apply_transaction"),
        "ledger.apply_tx_accepted_ratio": ratio(t["apply_tx_accepted"], calls("ledger.apply_transaction")),
        "ledger.refund_calls": calls("ledger.refund_reward"),
        "ledger.self_s": self_s("ledger"),
        "trie.upsert_calls": calls("trie.upsert_account"),
        "trie.upsert_us": us("trie.upsert_account"),
        "trie.get_calls": calls("trie.get_account"),
        "trie.root_calls": calls("trie.root_commitment"),
        "trie.root_us": us("trie.root_commitment"),
        "trie.self_s": self_s("trie"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.verify_distinct_ratio": ratio(t["verify_distinct"], calls("crypto.verify")),
        "crypto.verify_us": us("crypto.verify"),
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.sign_us": us("crypto.sign"),
        "crypto.self_s": self_s("crypto"),
        "core.block_digest_calls": calls("core.block_digest"),
        "core.decode_chain_us_per_block": ratio(t["decode_s"] * 1e6, t["decode_blocks"]),
        "core.encode_chain_us_per_block": ratio(t["encode_s"] * 1e6, t["encode_blocks"]),
        "analysis.replay_calls_per_cli_run": ratio(t["replay_in_cli_run"], t["cli_runs"]),
        "analysis.replay_blocks_per_s": ratio(t["replay_blocks"], t["replay_s"]),
        "analysis.fairness_us_per_draw": ratio(t["fairness_s"] * 1e6, t["fairness_draws"]),
        "analysis.self_s": self_s("analysis"),
        "cli.build_context_calls_per_run": ratio(t["build_context_in_cli_run"], t["cli_runs"]),
        "cli.self_s": self_s("cli"),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }


def environment() -> dict:
    try:
        # the ceiling keeps git from searching above the checkout
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="render BENCHMARK.json from spec.py and exit")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    return args


def run_operations(workload, seed, ops, trace, deadline):
    """Run the operations one sample at a time; with `trace`, each op runs
    untraced and then traced.  Returns the passing samples (and their traced
    twins), the attempted and failed operation counts and the failure notes."""
    spans_dir = OUT / "spans" / workload
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    samples, traced, attempted, failed, errors = [], [], 0, 0, []
    try:
        for op in range(ops):
            results = []
            for traced_sample in ([False, True] if trace else [False]):
                if time.monotonic() >= deadline:
                    attempted += OPS_PER_SAMPLE[workload]
                    failed += OPS_PER_SAMPLE[workload]
                    errors.append(json.dumps({"op": op, "traced": traced_sample,
                                              "error": "not started before the run deadline"}))
                    results.append({"op": op, "error": "not started"})
                    continue
                spans_file = spans_dir / f"op{op}.spans.gz" if traced_sample else None
                result, spawned = run_sample(workload, seed, op, traced_sample, tmp, spans_file, deadline)
                if "ready" in result:
                    result["setup_s"] = result["ready"] - spawned
                results.append(result)
                attempted += OPS_PER_SAMPLE[workload]
                bad = failed_ops(workload, result)
                failed += bad
                if bad:
                    errors.append(json.dumps({"op": op, "traced": traced_sample,
                                              "error": result.get("error"),
                                              "failures": result.get("failures"),
                                              "leaks": result.get("leaks")}))
            if all(failed_ops(workload, r) == 0 for r in results):
                samples.append(results[0])
                traced.extend(results[1:])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return samples, traced, attempted, failed, errors


def report_end_to_end(workload: str, samples: list[dict], record: dict) -> dict:
    metrics, guards = end_to_end(workload, samples)
    record["guards"] = guards
    record["series"] = {name: series for name, (_, series) in metrics.items()}
    record["metrics"] = {}
    for m in spec.END_TO_END + spec.WORKLOAD_METRICS[workload]:
        if m.name not in metrics:
            continue
        value, series = metrics[m.name]
        spread = spread_of(series)
        how = "median" if m.name in ("setup_s", "peak_rss_mb") else "total"
        record["metrics"][m.name] = {"value": value, "unit": m.unit, "samples": len(series),
                                     "sample_spread": spread}
        shown = f", sample spread {spread:.1%}" if spread is not None else ""
        print(f"metric {m.name} = {value:.6g} {m.unit} ({how} over {len(series)} samples{shown}, "
              f"better {m.better})")
    for m in spec.WORKLOAD_METRICS[workload]:
        if m.name in guards:
            pooled = guards["heights" if m.name == "msgs_per_height" else "latency_samples"]
            print(f"guard {m.name} = {guards[m.name]:.6g} {m.unit} "
                  f"(pooled over {pooled} heights, deterministic)")
    return {m.name: {"value": metrics[m.name][0], "unit": m.unit} for m in spec.END_TO_END}


def report_layers(workload: str, samples: list[dict], traced: list[dict], record: dict) -> dict:
    layer = layer_metrics([s["trace"] for s in traced],
                          sum(sum(s["walls"].values()) for s in samples),
                          sum(sum(s["walls"].values()) for s in traced))
    record["metrics"] = {}
    for m in spec.PER_LAYER + spec.WORKLOAD_LAYER_METRICS[workload]:
        value = layer[m.name]
        if value is None:
            print(f"layer {m.name} = n/a {m.unit} (no calls on this workload)")
            continue
        record["metrics"][m.name] = {"value": value, "unit": m.unit, "samples": len(traced)}
        print(f"layer {m.name} = {value:.6g} {m.unit} (over {len(traced)} traced samples)")
    return {m.name: {"value": layer[m.name], "unit": m.unit} for m in spec.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    if not (ROOT / "src" / "portchain" / "__init__.py").is_file():
        print(f"error: no portchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    ops = op_count(workload, args.seconds, trace)
    deadline = time.monotonic() + MAX_RUN_S
    compileall.compile_dir(ROOT / "src", quiet=1)
    OUT.mkdir(exist_ok=True)
    samples, traced, attempted, failed, errors = run_operations(workload, seed, ops, trace, deadline)

    print(f"workload={workload} seed={seed} seconds={args.seconds} trace={int(trace)} "
          f"operations={attempted} failed={failed}")
    for line in errors:
        print(f"failure {line}")
    record = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": int(trace),
              "environment": environment(), "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted if attempted else None, "failures": errors}
    metrics = {}
    if samples:
        if trace:
            metrics = report_layers(workload, samples, traced, record)
        else:
            metrics = report_end_to_end(workload, samples, record)
        fingerprint = [{"op": s["op"], **s["fingerprint"]} for s in samples]
        record["fingerprint"] = fingerprint
        record["fingerprint_sha256"] = hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()
        print(f"fingerprint {record['fingerprint_sha256']} over {len(fingerprint)} operations")
    if attempted:
        print(f"metric failed_ratio = {record['failed_ratio']:.6g} ratio "
              f"({failed} of {attempted} operations)")
    print("environment " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    record_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record {record_path.relative_to(ROOT)}")
    if not samples or any(v["value"] is None for v in metrics.values()):
        print("error: no passing operation measured every metric", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
