"""Workloads and metrics of the portchain benchmark.

This is the single source of BENCHMARK.json: `run.py --write-benchmark-json`
renders it from the tables below, and the self-test checks that the
committed file still matches.

The lists BENCHMARK.json carries (END_TO_END, PER_LAYER) hold only metrics
that every workload measures.  Metrics that exist on some workloads only
are printed by the same command on the workloads where they apply
(WORKLOAD_METRICS, WORKLOAD_LAYER_METRICS) and recorded in the result file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = {
    "faulty-net": (
        "netsim.run on criterion-3-recipe configs (up to 32 nodes, drops, crashes): "
        "event queue, Node.handle passes, vote verify and selection do the work"
    ),
    "tx-heavy": (
        "netsim.run at 4 txs per 3 ticks, below block capacity: same engine code as "
        "faulty-net but assembly, ledger and trie carry the load"
    ),
    "audit": (
        "portchain run + import on the README scenario without its faults, then a "
        "chi-square draw batch: "
        "replays, chain decoding and exact-Fraction fairness, no netsim in two phases"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# On the 2 vCPU reference host the speed of the whole machine drifts: five
# runs of one seed (the same work) spread by 7-9 %, ten seeds by 7-19 %,
# and between two sets of ten runs the medians moved by up to 27 %.  So
# every timing gets the largest bound a BENCHMARK.json may set (0.25).
# Peak RSS does not drift.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("op_s", "s", "lower", 0.25),
    Metric("sim_heights_per_s", "1/s", "higher", 0.25),
]

# end-to-end metrics printed only on the workloads they apply to
WORKLOAD_METRICS = {
    "faulty-net": [
        Metric("commit_latency_ticks.p50", "ticks", "lower"),
        Metric("commit_latency_ticks.p99", "ticks", "lower"),
        Metric("msgs_per_height", "count", "lower"),
    ],
    "tx-heavy": [
        Metric("txs_committed_per_s", "1/s", "higher"),
        Metric("commit_latency_ticks.p50", "ticks", "lower"),
        Metric("commit_latency_ticks.p99", "ticks", "lower"),
        Metric("msgs_per_height", "count", "lower"),
    ],
    "audit": [
        Metric("cli_run_s", "s", "lower"),
        Metric("import_blocks_per_s", "1/s", "higher"),
        Metric("chi_square_draws_per_s", "1/s", "higher"),
    ],
}

HANDLE_KINDS = ("block", "vote", "tx", "sync_req", "sync_resp", "wake")

PER_LAYER = [
    Metric("netsim.self_s", "s", "lower"),
    Metric("netsim.deliveries_per_height", "count", "lower"),
    Metric("netsim.drop_ratio", "ratio", "lower"),
    *(Metric(f"engine.handle_calls.{k}", "count", "lower") for k in HANDLE_KINDS),
    # sync messages do not occur on tx-heavy or audit, so their mean call time is
    # printed only where they do (see WORKLOAD_LAYER_METRICS)
    *(Metric(f"engine.handle_us.{k}", "us", "lower") for k in ("block", "vote", "tx", "wake")),
    Metric("engine.handle.self_s", "s", "lower"),
    Metric("engine.handle_calls_per_height", "count", "lower"),
    Metric("engine.assemble_calls_per_proposal", "count", "lower"),
    Metric("engine.assemble_us", "us", "lower"),
    Metric("engine.assemble.self_s", "s", "lower"),
    Metric("engine.validate_calls", "count", "lower"),
    Metric("engine.validate_memo_hit_ratio", "ratio", "higher"),
    Metric("selection.select_calls", "count", "lower"),
    Metric("selection.select_us", "us", "lower"),
    Metric("selection.descend_calls", "count", "lower"),
    Metric("selection.descend_us", "us", "lower"),
    Metric("selection.self_s", "s", "lower"),
    Metric("ledger.apply_tx_calls", "count", "lower"),
    Metric("ledger.apply_tx_us", "us", "lower"),
    Metric("ledger.apply_tx_accepted_ratio", "ratio", "higher"),
    Metric("ledger.refund_calls", "count", "lower"),
    Metric("ledger.self_s", "s", "lower"),
    Metric("trie.upsert_calls", "count", "lower"),
    Metric("trie.upsert_us", "us", "lower"),
    Metric("trie.get_calls", "count", "lower"),
    Metric("trie.root_calls", "count", "lower"),
    Metric("trie.root_us", "us", "lower"),
    Metric("trie.self_s", "s", "lower"),
    Metric("crypto.verify_calls", "count", "lower"),
    Metric("crypto.verify_distinct_ratio", "ratio", "higher"),
    Metric("crypto.verify_us", "us", "lower"),
    Metric("crypto.sign_calls", "count", "lower"),
    Metric("crypto.sign_us", "us", "lower"),
    Metric("crypto.self_s", "s", "lower"),
    Metric("core.block_digest_calls", "count", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
]

# per-layer metrics that only some workloads exercise; printed there
_SYNC_US = [Metric(f"engine.handle_us.{k}", "us", "lower") for k in ("sync_req", "sync_resp")]
WORKLOAD_LAYER_METRICS = {
    "faulty-net": _SYNC_US,
    "tx-heavy": [],
    # the audit scenario has no faults, so it sends no sync messages
    "audit": [
        Metric("core.decode_chain_us_per_block", "us", "lower"),
        Metric("core.encode_chain_us_per_block", "us", "lower"),
        Metric("analysis.replay_calls_per_cli_run", "count", "lower"),
        Metric("analysis.replay_blocks_per_s", "1/s", "higher"),
        Metric("analysis.fairness_us_per_draw", "us", "lower"),
        Metric("analysis.self_s", "s", "lower"),
        Metric("cli.build_context_calls_per_run", "count", "lower"),
        Metric("cli.self_s", "s", "lower"),
    ],
}


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
