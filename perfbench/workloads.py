"""Seeded inputs, timed phases, correctness gates and fingerprints.

One operation of a workload runs in one fresh interpreter (see sample.py).
Inputs are a pure function of (workload, seed, op index), drawn with
string-seeded `random.Random`, which does not depend on hash randomization.

The timed phases reach the program only through four entry points:
`netsim.run(SimConfig)`, `cli.main(argv)`, `selection.weighted_descend` and
`analysis.fairness_from_draws`.  Building their inputs needs the argument
types (`SimConfig`, `AdversarySpec`, `StateTrie`, `AccountState`); the gates
use the audit functions the acceptance tests use.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

CHI_SQUARE_DRAWS = 5_000
FAIRNESS_ACCOUNTS = 50
README_CHECKS = ["single_chain", "schedule", "conservation", "fairness", "liveness"]


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# simulation workloads


def faulty_net_config(netsim, seed: int, op: int):
    """The criterion-3 recipe, drawn from the seed.

    The discrete factors that set most of a config's cost are stratified
    over the op index instead of drawn, so every run holds the same mix and
    its medians repeat from seed to seed: latency_max (about 60 heights/s at
    3 against 100 at 1) cycles over 1..3 with period 3, and over 12 ops each
    voter count meets each latency once, each drop rate three times and
    each crash count four times.  Node count, crash placement and the
    simulation seed are drawn.
    """
    rng = _rng("faulty-net", seed, op)
    row, col = op % 3, (op // 3) % 4
    v = 5 + col
    n = rng.randint(3 * (v + 2), 32)
    advs = []
    for _ in range((row + col) % 3):
        start = rng.randint(0, 600)
        advs.append(netsim.AdversarySpec(
            kind="crash",
            node=rng.randrange(n),
            start_tick=start,
            recover_tick=start + rng.randint(50, 300),
        ))
    return netsim.SimConfig(
        seed=rng.getrandbits(32),
        node_count=n,
        voter_count=v,
        creator_redundancy=2,
        latency_min=1,
        latency_max=1 + row,
        drop_probability=(0.0, 0.02, 0.05, 0.1)[(row + col) % 4],
        run_height=200,
        tx_interval=40,
        txs_per_interval=1,
        adversaries=tuple(advs),
    )


def tx_heavy_config(netsim, seed: int, op: int):
    """4 txs every 3 ticks on the simulated clock (an open loop), below
    the block capacity of 16 txs, so the mempool stays bounded."""
    return netsim.SimConfig(
        seed=_rng("tx-heavy", seed, op).getrandbits(32),
        node_count=16,
        voter_count=3,
        creator_redundancy=2,
        latency_min=1,
        latency_max=2,
        drop_probability=0.0,
        run_height=200,
        tx_interval=3,
        txs_per_interval=4,
        max_txs=16,
    )


def commit_latencies(events) -> list[int]:
    """Ticks from the first `propose` of each height to its first `commit`."""
    proposed: dict[int, int] = {}
    committed: dict[int, int] = {}
    for tick, _node, kind, info in events:
        if kind in ("propose", "commit"):
            h = int(info.split(":", 1)[0])
            first = proposed if kind == "propose" else committed
            first.setdefault(h, tick)
    return [committed[h] - proposed[h] for h in sorted(committed) if h in proposed]


class SimOp:
    """One `netsim.run` of a seeded config."""

    def __init__(self, netsim, config):
        self.netsim = netsim
        self.config = config
        self.transcript = None

    def phases(self):
        return [("sim", self._run)]

    def _run(self):
        self.transcript = self.netsim.run(self.config)

    def check(self) -> dict[str, list[str]]:
        from portchain import analysis

        t, cfg = self.transcript, self.config
        failures = []
        ok, violation = analysis.assert_single_chain(t)
        if not ok:
            failures.append(f"fork: {violation}")
        ctx = self.netsim.build_context(cfg)
        violations = analysis.schedule_audit(t.chain, ctx.genesis_assignments)
        if violations:
            failures.append(f"schedule: {violations[:3]}")
        drift = analysis.conservation_audit(t, ctx)["drift"]
        if drift != 0:
            failures.append(f"conservation drift {drift}")
        if t.stalled:
            failures.append("stalled")
        if self.head() < cfg.run_height:
            failures.append(f"head {self.head()} below run_height {cfg.run_height}")
        return {"sim": failures}

    def head(self) -> int:
        return max(b.header.height for b in self.transcript.chain)

    def record(self) -> dict:
        t = self.transcript
        return {
            "heights": self.head(),
            "txs": sum(len(b.transactions) for b in t.chain),
            "msgs_sent": t.counters["msgs_sent"],
            "latencies": commit_latencies(t.events),
            "fingerprint": {"transcript_digest": t.digest_hex()},
        }


# ---------------------------------------------------------------------------
# audit workload


def audit_scenario(seed: int, op: int) -> dict:
    """The README scenario without its faults, with the seed inside
    `config`: `import` has no --seed flag and rebuilds genesis from the
    file alone.

    The README's faults (crash of node 3 from tick 100 to 400, a
    `vote_withhold` voter, 5 % drops) can deadlock the chain.  A creator
    that was offline or missed votes proposes its sibling late; voters
    whose vote patience ran out lock onto the first sibling and the rest
    onto the late one, and with no unlock neither reaches quorum.  With
    a withholding voter the quorum of four needs every honest vote, so
    any split stalls: 4 of 60 README configs stalled.  Without the
    withholding voter 1 of 450 still did (config seeds 12345 + 7919 * i).
    An audit run has about eight operations and is repeated many times,
    so either rate makes runs fail.  Without faults every sibling lands
    within the latency spread, well inside the vote patience.
    """
    return {
        "config": {
            "seed": _rng("audit", seed, op).getrandbits(32),
            "node_count": 21,
            "voter_count": 5,
            "creator_redundancy": 2,
            "run_height": 200,
            "latency_min": 1,
            "latency_max": 3,
            "drop_probability": 0.0,
            "adversaries": [],
        },
        "checks": README_CHECKS,
        "allow_stall": False,
    }


def fairness_inputs(trie_mod, seed: int, op: int):
    """A criterion-7-style 50-account trie and the batch's selection numbers."""
    rng = _rng("audit-draws", seed, op)
    trie = trie_mod.StateTrie()
    weights = {}
    for i in range(FAIRNESS_ACCOUNTS):
        addr = hashlib.sha256(f"addr/fair{i}".encode()).digest()[:20]
        tax = rng.randint(0, 200)
        trie = trie.upsert_account(addr, trie_mod.AccountState(balance=1, tax=tax))
        weights[addr] = tax + 1
    total = sum(weights.values())
    numbers = [rng.randrange(total) for _ in range(CHI_SQUARE_DRAWS)]
    return trie, weights, numbers


def exact_chi_square(weights: dict, observed: dict, draws: int) -> Fraction:
    """Pearson chi-square of fixed-weight draws, recomputed from counts alone."""
    total = sum(weights.values())
    chi = Fraction(0)
    for addr, w in weights.items():
        expected = Fraction(draws * w, total)
        chi += (observed.get(addr, 0) - expected) ** 2 / expected
    return chi


def _report_summary(report: str) -> dict:
    """The JSON summary block that ends a `portchain run` report."""
    return json.loads(report[report.index("\n{") + 1:])


class AuditOp:
    """`portchain run` with all five checks and --export-chain, `portchain
    import` of that file, then one chi-square draw batch."""

    def __init__(self, cli, selection, analysis, trie_mod, seed: int, op: int, tmp: Path):
        self.cli, self.selection, self.analysis = cli, selection, analysis
        self.scenario_path = tmp / f"scenario-{op}.json"
        self.chain_path = tmp / f"chain-{op}.bin"
        self.scenario_path.write_text(json.dumps(audit_scenario(seed, op)))
        self.trie, self.weights, self.numbers = fairness_inputs(trie_mod, seed, op)
        self.outputs: dict[str, tuple[int, str]] = {}
        self.fairness = None
        self.summary: dict = {}

    def phases(self):
        run_argv = ["run", "--config", str(self.scenario_path), "--export-chain", str(self.chain_path)]
        import_argv = ["import", "--chain", str(self.chain_path), "--config", str(self.scenario_path)]
        return [
            ("cli_run", lambda: self._cli("cli_run", run_argv)),
            ("import", lambda: self._cli("import", import_argv)),
            ("chi_square", self._chi_square),
        ]

    def _cli(self, phase: str, argv: list[str]) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        self.outputs[phase] = (code, out.getvalue())

    def _chi_square(self) -> None:
        descend, weights, trie = self.selection.weighted_descend, self.weights, self.trie
        records = [(weights, descend(trie, h, set(), 0)) for h in self.numbers]
        self.fairness = self.analysis.fairness_from_draws(records)

    def check(self) -> dict[str, list[str]]:
        failures: dict[str, list[str]] = {"cli_run": [], "import": [], "chi_square": []}
        code, report = self.outputs["cli_run"]
        summary = self.summary = _report_summary(report)
        if code != 0:
            failures["cli_run"].append(f"run exited {code}")
        if sorted(summary["checks"]) != sorted(README_CHECKS) or not all(summary["checks"].values()):
            failures["cli_run"].append(f"checks {summary['checks']}")
        head = summary["committed_head"]
        code, message = self.outputs["import"]
        expected = f"verified {head + 1} blocks up to height {head}"
        if code != 0 or message.strip() != expected:
            failures["import"].append(f"import exited {code}: {message.strip()!r}")
        fr = self.fairness
        if fr.degrees_of_freedom != FAIRNESS_ACCOUNTS - 1:
            failures["chi_square"].append(f"dof {fr.degrees_of_freedom}")
        if fr.draws != CHI_SQUARE_DRAWS:
            failures["chi_square"].append(f"draws {fr.draws}")
        exact = exact_chi_square(self.weights, fr.observed_count, CHI_SQUARE_DRAWS)
        if abs(Fraction(fr.chi_square) - exact) > Fraction(1, 10**9) * exact:
            failures["chi_square"].append(f"chi-square {fr.chi_square} != exact {float(exact)}")
        return failures

    def record(self) -> dict:
        """Called after check(), which parsed the report summary."""
        summary = self.summary
        return {
            "heights": summary["committed_head"],
            "import_blocks": summary["committed_head"] + 1,
            "draws": CHI_SQUARE_DRAWS,
            "fingerprint": {
                "transcript_digest": summary["transcript_digest"],
                "report_sha256": hashlib.sha256(self.outputs["cli_run"][1].encode()).hexdigest(),
                "import": self.outputs["import"][1].strip(),
                "chi_square": repr(self.fairness.chi_square),
            },
        }


def prepare(workload: str, seed: int, op: int, tmp: Path):
    """Import what the workload's timed phases need and build its inputs:
    this is the set-up that `setup_s` times, after interpreter start."""
    if workload == "audit":
        from portchain import analysis, cli, selection, trie

        return AuditOp(cli, selection, analysis, trie, seed, op, tmp)
    from portchain import netsim

    if workload == "faulty-net":
        return SimOp(netsim, faulty_net_config(netsim, seed, op))
    if workload == "tx-heavy":
        return SimOp(netsim, tx_heavy_config(netsim, seed, op))
    raise ValueError(f"unknown workload {workload!r}")
