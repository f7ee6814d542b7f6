"""End-to-end acceptance checks.

Each test prints one live PASS/FAIL line so a full run reads as a
checklist.  The timing budgets of criteria 1 and 2 use wall-clock time
on a shared host and are therefore the only checks with any
environmental sensitivity.  Criterion 3's budget counts the wake events
the simulation delivered, so it is deterministic; every other assertion
is exact.
"""
import math
import random
import time
from fractions import Fraction

import pytest

from portchain.analysis import (
    assert_single_chain,
    byzantine_tail,
    conservation_audit,
    fairness_from_draws,
    render_fraction,
    schedule_audit,
)
from portchain.analysis import chi_square_critical
from portchain.ledger import LedgerConfig
from portchain.netsim import AdversarySpec, SimConfig, build_context, run
from portchain.selection import _exclusion_sums, weighted_descend
from portchain.trie import AccountState, StateTrie

from conftest import (
    addr_of,
    criterion_9_config,
    eligible_total_weight,
    flat_oracle,
    replay_check,
    replayed_steps,
)


def announce(capsys, ok, label, detail=""):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _random_trie(rng, max_accounts=50, max_weight=10_000):
    n = rng.randint(2, max_accounts)
    # keep total effective weight (tax + 1 each) within the cap
    budget = max_weight - n
    trie = StateTrie()
    addrs = []
    for i in range(n):
        tax = rng.randint(0, max(0, budget // max(1, n - i)))
        budget -= tax
        addr = addr_of(f"{rng.random()}-{i}")
        addrs.append(addr)
        trie = trie.upsert_account(addr, AccountState(balance=1, tax=tax))
    return trie, addrs


def test_criterion_1_exact_proportionality(capsys):
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(20):
        trie, addrs = _random_trie(rng)
        counts = {}
        total = eligible_total_weight(trie, set(), 0)
        for h in range(total):
            chosen = weighted_descend(trie, h, set(), 0)
            counts[chosen] = counts.get(chosen, 0) + 1
        for addr in addrs:
            assert counts.get(addr, 0) == trie.get_account(addr).tax + 1
    elapsed = time.perf_counter() - t0
    announce(capsys, elapsed < 5.0, "criterion 1: exact selection proportionality",
             f"20 tries swept, {elapsed:.2f}s")


def test_criterion_2_descend_oracle_equivalence(capsys):
    rng = random.Random(202)
    t0 = time.perf_counter()
    cases = 0
    while cases < 100_000:
        trie, addrs = _random_trie(rng)
        entries = list(trie.accounts())
        for _ in range(1000):
            # exclusion sizes mirror protocol use: at most two service
            # sets plus in-progress picks
            k = rng.randint(0, min(15, len(addrs) - 1))
            exclusions = set(rng.sample(addrs, k))
            height = rng.randint(0, 10)
            sums = _exclusion_sums(trie, exclusions, height)
            total = trie.eligible_weight(sums)
            if total < 1:
                continue
            h = rng.randrange(total)
            assert weighted_descend(
                trie, h, exclusions, height, _sums=sums
            ) == flat_oracle(entries, h, exclusions, height)
            cases += 1
            if cases >= 100_000:
                break
    elapsed = time.perf_counter() - t0
    announce(capsys, elapsed < 10.0, "criterion 2: descent equals flat oracle",
             f"{cases} cases, 0 mismatches, {elapsed:.2f}s")


def _forklessness_configs():
    rng = random.Random(303)
    configs = []
    for i in range(50):
        v = rng.choice([5, 6, 7, 8])
        n = rng.randint(3 * (v + 2), 32)
        advs = []
        for _ in range(rng.randint(0, 2)):
            start = rng.randint(0, 600)
            advs.append(AdversarySpec(
                kind="crash",
                node=rng.randrange(n),
                start_tick=start,
                recover_tick=start + rng.randint(50, 300),
            ))
        configs.append(SimConfig(
            seed=1000 + i,
            node_count=n,
            voter_count=v,
            creator_redundancy=2,
            latency_min=1,
            latency_max=rng.randint(1, 3),
            drop_probability=rng.choice([0.0, 0.02, 0.05, 0.1]),
            run_height=200,
            tx_interval=40,
            txs_per_interval=1,
            adversaries=tuple(advs),
        ))
    return configs


@pytest.fixture(scope="module")
def forklessness_runs():
    out = []
    for cfg in _forklessness_configs():
        t0 = time.perf_counter()
        t = run(cfg)
        out.append((cfg, t, time.perf_counter() - t0))
    return out


def _wake_budget(cfg, t):
    """The most wakes the engine's timers allow a run.  Per node: one
    periodic sync wake every sync_interval from tick 0, and one
    vote-patience and one proposal-delay wake per level up to head + 3.
    Each recovery adds the wake the simulation delivers on it."""
    periodic = math.ceil(t.ticks / cfg.sync_interval) + 1
    levels = sum(2 * (head + 3) for head in t.heads)
    recoveries = sum(1 for adv in cfg.adversaries if adv.recover_tick is not None)
    return cfg.node_count * periodic + levels + recoveries


def test_criterion_3_forklessness(capsys, forklessness_runs):
    elapsed = sum(dt for _, _, dt in forklessness_runs)
    over_budget = []
    wakes = node_heights = 0
    for cfg, t, _ in forklessness_runs:
        ok, violation = assert_single_chain(t)
        assert ok, f"seed {cfg.seed}: {violation}"
        delivered, budget = t.counters["wakes_delivered"], _wake_budget(cfg, t)
        if delivered > budget:
            over_budget.append(f"seed {cfg.seed}: {delivered} > {budget}")
        wakes += delivered
        node_heights += sum(t.heads)
    announce(capsys, not over_budget,
             "criterion 3: fork-lessness across 50 faulty-network runs",
             f"50/50 single-chain, {wakes / node_heights:.2f} wakes per node-height, "
             f"{elapsed:.1f}s simulated wall time"
             + (f"; {len(over_budget)} runs over the wake budget: {', '.join(over_budget[:3])}"
                if over_budget else ""))


def test_criterion_4_byzantine_safety_boundary(capsys):
    v, c = 5, 2
    n = 3 * (v + c)
    f = math.ceil(v / 3)  # 2: smallest voter set that can block quorum
    committed = stalled = 0
    for seed in range(20):
        # f-1 adversarial voter slots, mixing withholding and disapproval
        kinds = ["vote_withhold", "vote_disapprove_all"]
        advs = tuple(
            AdversarySpec(kind=kinds[(seed + s) % 2], voter_slot=s) for s in range(f - 1)
        )
        cfg = SimConfig(seed=4000 + seed, node_count=n, voter_count=v,
                        creator_redundancy=c, run_height=200, latency_min=1,
                        latency_max=2, tx_interval=40, txs_per_interval=1,
                        adversaries=advs)
        t = run(cfg)
        ok, violation = assert_single_chain(t)
        assert ok, f"safety-side seed {seed}: {violation}"
        head = max(b.header.height for b in t.chain)
        assert not t.stalled and head >= 200, f"seed {seed} only reached {head}"
        committed += 1
    for seed in range(20):
        advs = tuple(AdversarySpec(kind="vote_withhold", voter_slot=s) for s in range(f))
        cfg = SimConfig(seed=4100 + seed, node_count=n, voter_count=v,
                        creator_redundancy=c, run_height=200, latency_min=1,
                        latency_max=2, tx_interval=40, txs_per_interval=1,
                        stall_patience=250, max_ticks=4000, adversaries=advs)
        t = run(cfg)
        assert t.stalled, f"stall-side seed {seed} unexpectedly made progress"
        ok, violation = assert_single_chain(t)
        assert ok, f"stall-side seed {seed}: {violation}"
        stalled += 1
    announce(capsys, committed == 20 and stalled == 20,
             "criterion 4: byzantine safety boundary",
             f"{committed}/20 commit under f-1 faults, {stalled}/20 stall cleanly at f")


def test_criterion_5_schedule_audit(capsys, forklessness_runs):
    checked = 0
    for cfg, t, _ in forklessness_runs:
        ctx = build_context(cfg)
        violations = schedule_audit(t.chain, ctx.genesis_assignments)
        assert violations == [], f"seed {cfg.seed}: {violations[:3]}"
        checked += 1
    announce(capsys, checked == 50, "criterion 5: jump-step schedule audit",
             f"0 violations across {checked} transcripts")


def test_criterion_6_conservation(capsys, forklessness_runs):
    checked = 0
    for cfg, t, _ in forklessness_runs:
        ctx = build_context(cfg)
        audit = conservation_audit(t, ctx)
        assert audit["drift"] == 0, f"seed {cfg.seed}: drift {audit['drift']}"
        checked += 1
    announce(capsys, checked == 50, "criterion 6: exact tax conservation",
             f"0 drift across {checked} runs")


def test_criterion_7_statistical_fairness(capsys):
    # fixed heterogeneous weights over 50 accounts
    rng = random.Random(707)
    trie = StateTrie()
    addrs = []
    for i in range(50):
        addr = addr_of(f"fair{i}")
        addrs.append(addr)
        trie = trie.upsert_account(addr, AccountState(balance=1, tax=rng.randint(0, 200)))
    weights = {a: trie.get_account(a).tax + 1 for a in addrs}
    total = eligible_total_weight(trie, set(), 0)
    critical = 74.9
    passing = 0
    chis = []
    for seed in range(20):
        srng = random.Random(seed)
        records = []
        for _ in range(100_000):
            h = srng.randrange(total)
            records.append((weights, weighted_descend(trie, h, set(), 0)))
        rep = fairness_from_draws(records)
        assert rep.degrees_of_freedom == 49
        chis.append(rep.chi_square)
        if rep.chi_square < critical:
            passing += 1
    announce(capsys, passing >= 19, "criterion 7: statistical selection fairness",
             f"{passing}/20 seeds under chi-square {critical} at 49 dof, "
             f"median {sorted(chis)[10]:.1f}")


def _tail_histogram(n):
    """Exhaustive 2**n enumeration: outcome counts by number of successes."""
    hist = [0] * (n + 1)
    for mask in range(2**n):
        hist[mask.bit_count()] += 1
    return hist


def test_criterion_8_byzantine_tail_oracle(capsys):
    for n in range(1, 21):
        hist = _tail_histogram(n)
        for p in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            q = 1 - p
            for m in range(0, n + 1):
                enum = sum(hist[k] * p**k * q ** (n - k) for k in range(m, n + 1))
                assert byzantine_tail(n, p, m).exact == enum
    r = byzantine_tail(300, Fraction(1, 3), 100)
    claimed = "5.2e-53"
    with capsys.disabled():
        print(f"\n  quorum-failure tail, n=300 p=1/3 m=100:")
        print(f"    exact binomial tail    = {render_fraction(r.exact)}")
        print(f"    coefficient-free sum   = {render_fraction(r.coefficient_free)}")
        print(f"    commonly quoted figure  = {claimed} (not reproduced by either form)")
    announce(capsys, True, "criterion 8: exhaustive tail enumeration oracle",
             "n<=20 exact; n=300 report printed above")


def test_criterion_9_determinism(capsys):
    for cfg in map(criterion_9_config, range(10)):
        assert replay_check(cfg, run(cfg)), f"seed {cfg.seed} not replayable"
    announce(capsys, True, "criterion 9: byte-identical deterministic replay",
             "10/10 scenarios")


def test_criterion_10_refund_damping(capsys):
    cfg = SimConfig(seed=10_000, node_count=16, voter_count=3, creator_redundancy=2,
                    run_height=500, latency_min=1, latency_max=2,
                    tx_interval=5, txs_per_interval=2, max_ticks=120_000)
    ctx = build_context(cfg)
    t = run(cfg)
    assert not t.stalled
    steps = replayed_steps(t.chain, ctx)
    ledger: LedgerConfig = ctx.engine_cfg.ledger
    taxes_paid = {}
    refunds = {}
    decrements = {}
    clamp_issued = {}
    duties = 0
    for i, step in enumerate(steps[1:], start=1):
        prev = steps[i - 1].block
        # refunds land before the block's transactions, in creator-then-
        # voter order, so track the running tax within the block
        running = {}

        def tax_of(addr):
            if addr not in running:
                running[addr] = steps[i - 1].post_trie.get_account(addr).tax
            return running[addr]

        recipients = []
        if prev.header.height >= 1:
            recipients.append((prev.header.creator, ledger.creator_reward))
            recipients.extend(
                (v, ledger.voter_reward) for v in prev.header.prev_certificate.voters()
            )
        for addr, reward in recipients:
            before = tax_of(addr)
            dec = min(reward, before)
            running[addr] = before - dec
            decrements[addr] = decrements.get(addr, 0) + dec
            refunds[addr] = refunds.get(addr, 0) + reward
            clamp_issued[addr] = clamp_issued.get(addr, 0) + (reward - dec)
            duties += 1
            # each completed duty strips exactly the reward, clamped at zero
            assert dec == reward or running[addr] == 0
        for tx in step.block.transactions:
            amount = ledger.tax_amount(tx.value)
            taxes_paid[tx.sender] = taxes_paid.get(tx.sender, 0) + amount
            taxes_paid[tx.receiver] = taxes_paid.get(tx.receiver, 0) + amount
    # cross-check the per-duty fold against the replay's issuance log
    assert sum(clamp_issued.values()) == sum(s.issued for s in steps)
    for addr, total_refund in refunds.items():
        bound = taxes_paid.get(addr, 0) + clamp_issued.get(addr, 0) \
            + ctx.genesis_trie.get_account(addr).tax
        assert total_refund <= bound, (
            f"account {addr.hex()} refunded {total_refund} > taxes {bound}"
        )
        assert total_refund == decrements[addr] + clamp_issued[addr]
    announce(capsys, True, "criterion 10: refund damping and bounds",
             f"{duties} duties over 500 heights, refunds within taxed amounts")
