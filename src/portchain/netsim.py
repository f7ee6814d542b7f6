"""Deterministic discrete-event network simulation.

Every source of nondeterminism is derived from a counter-based PRNG
keyed off the config seed, and events at one tick run in the order they
were scheduled, so a run is a pure function of its config.  Transcripts
render to text so two runs can be compared byte for byte.

The event queue keeps tick buckets, after Brown's calendar queue: one
FIFO list per tick and a heap that holds only the distinct ticks.
Nothing is ever scheduled before the current tick, so appending to a
bucket gives the order of one heap keyed by (tick, insertion sequence).
"""
from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field

from . import core, engine
from .core import Block, MaintainerAssignment, Transaction, block_digest, encode_chain
from .crypto import address_from_public, digest, keypair_from_seed, sign
from .engine import (
    BlockExecutor,
    EngineConfig,
    HONEST,
    Node,
)
from .ledger import LedgerConfig
from .trie import AccountState, empty_trie, maintainer_bits


class SimConfigError(ValueError):
    pass


class CounterRng:
    """Stateless keyed randomness: each draw hashes seed + key, so the
    stream does not depend on draw order."""

    def __init__(self, seed: int):
        self._seed = seed.to_bytes(8, "big", signed=False)

    def _raw(self, key: str) -> int:
        h = hashlib.sha256(self._seed + key.encode()).digest()
        return int.from_bytes(h, "big")

    def randint(self, lo: int, hi: int, key: str) -> int:
        """Uniform integer in [lo, hi]."""
        span = hi - lo + 1
        return lo + self._raw(key) % span


@dataclass(frozen=True)
class AdversarySpec:
    """One fault to inject.

    kind 'crash' needs node (recover_tick None means permanent).
    kinds 'vote_withhold'/'vote_disapprove_all' target either a fixed
    node or a voter slot index (whoever holds that slot each height).
    kinds 'equivocate_creator'/'forge_assignment' need node.
    """

    kind: str
    node: int | None = None
    voter_slot: int | None = None
    start_tick: int = 0
    recover_tick: int | None = None


NODE_BEHAVIOR_KINDS = {
    "vote_withhold": engine.VOTE_WITHHOLD,
    "vote_disapprove_all": engine.VOTE_DISAPPROVE_ALL,
    "equivocate_creator": engine.EQUIVOCATE_CREATOR,
    "forge_assignment": engine.FORGE_ASSIGNMENT,
}


# inclusive bounds of single integer fields (None: no upper bound)
_INT_BOUNDS = {
    "run_height": (1, None),
    # the seed is hashed as 8 unsigned big-endian bytes
    "seed": (0, 2**64 - 1),
    "tx_interval": (1, None),
    # the periodic sync wake re-arms sync_interval ticks ahead
    "sync_interval": (1, None),
    "tax_rate_numerator": (0, None),
    "tax_rate_denominator": (1, None),
    # transfer values are signed as 8 unsigned bytes
    "tx_value_min": (0, None),
    "tx_value_max": (0, 2**64 - 1),
    "genesis_balance": (0, None),
    "genesis_tax_min": (0, None),
    "creator_reward": (0, 2**32),
    "voter_reward": (0, 2**32),
    "reporter_reward": (0, 2**32),
    "blacklist_duration": (0, 2**32),
    # zero transactions per block or per interval is a run without them
    "max_txs": (0, None),
    "txs_per_interval": (0, None),
    # null picks the default delay derived from latency_max
    "proposal_delay": (0, None),
    # zero would stop every run before its first commit
    "max_ticks": (1, None),
    "stall_patience": (1, None),
}


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    node_count: int = 16
    voter_count: int = 3
    creator_redundancy: int = 2
    latency_min: int = 1
    latency_max: int = 3
    drop_probability: float = 0.0
    run_height: int = 20
    max_ticks: int = 40000
    tx_interval: int = 7
    txs_per_interval: int = 2
    tx_value_min: int = 1
    tx_value_max: int = 500
    genesis_balance: int = 1_000_000
    genesis_tax_min: int = 0
    genesis_tax_max: int = 0
    tax_rate_numerator: int = 1
    tax_rate_denominator: int = 100
    creator_reward: int = 10
    voter_reward: int = 10
    reporter_reward: int = 5
    blacklist_duration: int = 50
    max_txs: int = 16
    proposal_delay: int | None = None
    sync_interval: int = 25
    stall_patience: int = 600
    adversaries: tuple = ()

    def ledger(self) -> LedgerConfig:
        return LedgerConfig(
            tax_rate_numerator=self.tax_rate_numerator,
            tax_rate_denominator=self.tax_rate_denominator,
            creator_reward=self.creator_reward,
            voter_reward=self.voter_reward,
            reporter_reward=self.reporter_reward,
            blacklist_duration=self.blacklist_duration,
        )

    def validate(self) -> None:
        m = self.voter_count + self.creator_redundancy
        if self.creator_redundancy < 1 or self.voter_count < 1:
            raise SimConfigError("need at least one creator and one voter slot")
        # selecting height h+2 excludes two full disjoint service sets plus
        # the m-1 slots already picked, so 3m funded accounts must exist
        if self.node_count < 3 * m:
            raise SimConfigError(
                f"node_count {self.node_count} cannot sustain consecutive-service "
                f"exclusion with {m} maintainer slots (need >= {3 * m})"
            )
        if self.latency_min < 0 or self.latency_max < self.latency_min:
            raise SimConfigError("bad latency window")
        if not 0.0 <= self.drop_probability < 1.0:
            raise SimConfigError("drop_probability out of range")
        for name, (lo, hi) in _INT_BOUNDS.items():
            value = getattr(self, name)
            if value is not None and (value < lo or (hi is not None and value > hi)):
                raise SimConfigError(f"{name} {value} outside [{lo}, {hi or 'inf'}]")
        if self.tx_value_max < self.tx_value_min:
            raise SimConfigError("tx_value_max below tx_value_min")
        if self.genesis_tax_max < self.genesis_tax_min:
            raise SimConfigError("genesis_tax_max below genesis_tax_min")
        if self.tax_rate_numerator > self.tax_rate_denominator:
            # the receiver's tax is withheld from the amount transferred
            raise SimConfigError("tax_rate_numerator above tax_rate_denominator")
        # balances, taxes and the selection weight total (AccountState.weight
        # per account) are encoded as 8 unsigned bytes; none exceeds the money
        # supply plus node_count, and a genesis supply below 2**63 leaves
        # the other half for rewards, each at most 2**32 per payment
        supply = self.node_count * (self.genesis_balance + self.genesis_tax_max + 1)
        if supply >= 2**63:
            raise SimConfigError(
                "genesis_balance/genesis_tax_max: genesis money supply "
                f"node_count * (genesis_balance + genesis_tax_max + 1) = {supply} >= 2**63"
            )
        for adv in self.adversaries:
            if adv.kind == "crash":
                if adv.node is None:
                    raise SimConfigError("crash adversary needs a node")
                # recovering first would leave the node down for good while
                # the run still waits for it to reach run_height
                if adv.recover_tick is not None and adv.recover_tick < adv.start_tick:
                    raise SimConfigError("crash adversary recover_tick before start_tick")
            elif adv.kind in NODE_BEHAVIOR_KINDS:
                if adv.node is None and adv.voter_slot is None:
                    raise SimConfigError(f"{adv.kind} needs a node or voter slot")
                if adv.voter_slot is not None and adv.kind not in (
                    "vote_withhold",
                    "vote_disapprove_all",
                ):
                    raise SimConfigError(f"{adv.kind} cannot be slot-scoped")
            else:
                raise SimConfigError(f"unknown adversary kind {adv.kind!r}")
            if adv.node is not None and not 0 <= adv.node < self.node_count:
                raise SimConfigError(
                    f"{adv.kind} adversary node {adv.node} outside [0, {self.node_count})"
                )
            if adv.voter_slot is not None and not 0 <= adv.voter_slot < self.voter_count:
                raise SimConfigError(
                    f"{adv.kind} adversary voter_slot {adv.voter_slot} "
                    f"outside [0, {self.voter_count})"
                )

    def digest_hex(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class SimContext:
    config: SimConfig
    engine_cfg: EngineConfig
    keys: list
    addresses: list
    genesis_block: Block
    genesis_trie: object
    genesis_assignments: dict


def build_context(config: SimConfig) -> SimContext:
    config.validate()
    rng = CounterRng(config.seed)
    keys = [
        keypair_from_seed(digest(config.seed.to_bytes(8, "big") + b"node" + i.to_bytes(4, "big")))
        for i in range(config.node_count)
    ]
    addresses = [address_from_public(k.public) for k in keys]
    public_keys = {a: k.public for a, k in zip(addresses, keys)}
    ordered = sorted(addresses)
    c, v = config.creator_redundancy, config.voter_count
    m = c + v
    a1 = MaintainerAssignment(block_height=1, creators=tuple(ordered[:c]), voters=tuple(ordered[c:m]))
    a2 = MaintainerAssignment(block_height=2, creators=tuple(ordered[m : m + c]), voters=tuple(ordered[m + c : 2 * m]))

    trie = empty_trie()
    initial = {}
    for rank, addr in enumerate(ordered):
        tax = rng.randint(config.genesis_tax_min, config.genesis_tax_max, f"gtax/{rank}")
        initial[addr] = tax
        trie = trie.upsert_account(addr, AccountState(balance=config.genesis_balance, tax=tax))
    for asg in (a1, a2):
        for slot, addr in enumerate(asg.members()):
            st = trie.get_account(addr)
            bits = maintainer_bits(True, slot >= c, asg.block_height)
            trie = trie.upsert_account(addr, dataclasses.replace(st, maintainer_bits=bits))

    header = core.BlockHeader(
        height=0,
        prev_hash=core.ZERO_HASH,
        creator=core.ZERO_ADDRESS,
        creator_index=0,
        state_root=trie.root_commitment(),
        tx_root=core.tx_merkle_root(()),
        prev_certificate=core.EMPTY_CERTIFICATE,
        timestamp=0,
        assignment_digest=core.assignment_digest(a2),
    )
    genesis = Block(header=header, transactions=(), assignment=a2, fraud_reports=())

    # by first-quorum + 2*latency + 1 every vote still in flight has
    # landed, so both redundant creators resolve the same parent
    delay = (
        2 * config.latency_max + 1 if config.proposal_delay is None else config.proposal_delay
    )
    engine_cfg = EngineConfig(
        voter_count=config.voter_count,
        creator_redundancy=config.creator_redundancy,
        max_txs=config.max_txs,
        ledger=config.ledger(),
        public_keys=public_keys,
        proposal_delay=delay,
        sync_interval=config.sync_interval,
        vote_patience=delay + 2 * config.latency_max + 2,
    )
    return SimContext(
        config=config,
        engine_cfg=engine_cfg,
        keys=keys,
        addresses=addresses,
        genesis_block=genesis,
        genesis_trie=trie,
        genesis_assignments={1: a1, 2: a2},
    )


@dataclass
class SimTranscript:
    config_digest: str
    ticks: int
    stalled: bool
    heads: tuple
    commits: tuple  # per node: tuple of (height, digest hex)
    events: tuple  # (tick, node, kind, info)
    counters: dict
    chain: tuple  # canonical committed blocks, genesis first

    def text(self) -> str:
        lines = [f"config={self.config_digest}", f"ticks={self.ticks}", f"stalled={int(self.stalled)}"]
        lines.append("heads=" + ",".join(str(h) for h in self.heads))
        for i, com in enumerate(self.commits):
            lines.append(f"node{i}=" + ";".join(f"{h}:{d}" for h, d in com))
        for tick, node, kind, info in self.events:
            lines.append(f"{tick} n{node} {kind} {info}")
        for k in sorted(self.counters):
            lines.append(f"{k}={self.counters[k]}")
        lines.append("chain=" + ",".join(block_digest(b.header).hex()[:16] for b in self.chain))
        return "\n".join(lines) + "\n"

    def digest_hex(self) -> str:
        return hashlib.sha256(self.text().encode() + encode_chain(self.chain)).hexdigest()


def below(getrandbits, n: int, bits: int) -> int:
    """Uniform integer in [0, n) from `bits` = n.bit_length() random bits,
    redrawn while out of range.  These are the generator bits that
    `random.Random.randint(lo, lo + n - 1) - lo` consumes in CPython 3.11,
    so a run replays the latency stream of a `randint` draw exactly."""
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def run(config: SimConfig) -> SimTranscript:
    ctx = build_context(config)
    cfg = ctx.config
    rng = CounterRng(cfg.seed)
    # per-delivery latency/drop draws happen in deterministic event order,
    # so a fast sequential generator replays identically
    net_rng = random.Random(digest(cfg.seed.to_bytes(8, "big", signed=True) + b"net"))

    node_behavior = {i: HONEST for i in range(cfg.node_count)}
    slot_behaviors: dict[int, str] = {}
    crash_events = []
    for adv in cfg.adversaries:
        if adv.kind == "crash":
            crash_events.append(adv)
        elif adv.voter_slot is not None:
            slot_behaviors[adv.voter_slot] = NODE_BEHAVIOR_KINDS[adv.kind]
        else:
            node_behavior[adv.node] = NODE_BEHAVIOR_KINDS[adv.kind]

    executor = BlockExecutor(ctx.engine_cfg)
    n = cfg.node_count
    nodes = [
        Node(
            i,
            ctx.keys[i],
            ctx.engine_cfg,
            executor,
            ctx.genesis_block,
            ctx.genesis_trie,
            ctx.genesis_assignments,
            behavior=node_behavior[i],
            slot_behaviors=slot_behaviors,
        )
        for i in range(n)
    ]

    crashed = [False] * n
    crashed_forever = [False] * n
    # events are (target node or -1, kind, payload), one FIFO list per tick
    buckets: dict[int, list] = {}
    ticks: list[int] = []  # heap of the ticks that hold a bucket

    def push(tick, target, kind, payload):
        bucket = buckets.get(tick)
        if bucket is None:
            buckets[tick] = [(target, kind, payload)]
            heapq.heappush(ticks, tick)
        else:
            bucket.append((target, kind, payload))

    msgs_sent = msgs_dropped = msgs_delivered = wakes_delivered = txs_injected = 0
    drop_p = cfg.drop_probability
    net_random = net_rng.random
    getrandbits = net_rng.getrandbits
    lat_min = cfg.latency_min
    lat_span = cfg.latency_max - lat_min + 1
    lat_bits = lat_span.bit_length()

    def send(tick, targets, message):
        """Deliver message to each target after a drop and a latency draw."""
        nonlocal msgs_sent, msgs_dropped
        kind, payload = message
        msgs_sent += len(targets)
        for j in targets:
            if drop_p and net_random() < drop_p:
                msgs_dropped += 1
                continue
            push(tick + lat_min + below(getrandbits, lat_span, lat_bits), j, kind, payload)

    # recipient lists: a broadcast reaches every other node (the workload,
    # sender -1, reaches all), gossip the next few nodes on the ring, and a
    # multicast the listed addresses that are nodes, in list order
    everyone = tuple(range(n))
    others = [tuple(j for j in everyone if j != i) for i in everyone]
    gossip_fanout = min(4, n - 1)
    ring = [tuple((i + step) % n for step in range(1, gossip_fanout + 1)) for i in everyone]
    addr_index = {a: i for i, a in enumerate(ctx.addresses)}
    multicast_targets: dict[tuple, tuple] = {}

    events: list = []
    commits: list = [[] for _ in range(n)]
    last_commit_tick = 0
    commit_events = 0
    pending_recoveries = 0

    # bootstrap: initial wakes, workload, fault schedule
    for i in everyone:
        push(0, i, "wake", None)
    if cfg.txs_per_interval > 0:
        push(cfg.tx_interval, -1, "workload", 0)
    for adv in crash_events:
        push(adv.start_tick, -1, "crash", adv.node)
        if adv.recover_tick is not None:
            push(adv.recover_tick, -1, "recover", adv.node)
            pending_recoveries += 1
        else:
            crashed_forever[adv.node] = True

    required = [i for i in everyone if node_behavior[i] == HONEST and not crashed_forever[i]]
    nonces = [0] * n
    stalled = False
    final_tick = 0
    commits_seen = 0
    max_ticks = cfg.max_ticks
    stall_patience = cfg.stall_patience

    while ticks:
        tick = heapq.heappop(ticks)
        final_tick = tick
        if tick > max_ticks:
            stalled = True
            break
        # pushes during the tick land at it or later (latency >= 0, timers
        # ahead, the recovery wake now), so appending to this bucket keeps
        # the order of one heap keyed by (tick, insertion sequence)
        for i, kind, payload in buckets[tick]:
            if commit_events != commits_seen:
                commits_seen = commit_events
                if all(nodes[r].head >= cfg.run_height for r in required):
                    break
            if tick - last_commit_tick > stall_patience and pending_recoveries == 0:
                stalled = True
                break
            if i >= 0:
                if crashed[i]:
                    continue
                if kind == "wake":
                    wakes_delivered += 1
                else:
                    msgs_delivered += 1
                for act in nodes[i].handle(kind, payload, tick):
                    op = act[0]
                    if op == "multicast":
                        key = (act[1], i)
                        targets = multicast_targets.get(key)
                        if targets is None:
                            targets = multicast_targets[key] = tuple(
                                j for j in map(addr_index.get, act[1]) if j is not None and j != i
                            )
                        send(tick, targets, act[2])
                    elif op == "wake":
                        push(act[1], i, "wake", None)
                    elif op == "broadcast":
                        send(tick, others[i], act[1])
                    elif op == "gossip":
                        send(tick, ring[i], act[1])
                    elif op == "send":
                        send(tick, (act[1],), act[2])
                    elif op == "log":
                        _, lkind, info = act
                        if lkind == "commit":
                            h, d = info.split(":")
                            commits[i].append((int(h), d))
                            last_commit_tick = tick
                            commit_events += 1
                        events.append((tick, i, lkind, info))
            elif kind == "crash":
                crashed[payload] = True
            elif kind == "recover":
                crashed[payload] = False
                pending_recoveries -= 1
                push(tick, payload, "wake", None)
                send(tick, others[payload], ("sync_req", (payload, nodes[payload].head)))
            elif kind == "workload":
                counter = payload
                for j in range(cfg.txs_per_interval):
                    key = f"tx/{counter}/{j}"
                    s = rng.randint(0, n - 1, key + "/s")
                    r = rng.randint(0, n - 2, key + "/r")
                    if r >= s:
                        r += 1
                    value = rng.randint(cfg.tx_value_min, cfg.tx_value_max, key + "/v")
                    nonces[s] += 1
                    tx_body = Transaction(
                        sender=ctx.addresses[s],
                        receiver=ctx.addresses[r],
                        value=value,
                        nonce=nonces[s],
                        signature=b"",
                    )
                    tx = dataclasses.replace(
                        tx_body, signature=sign(ctx.keys[s], tx_body.signing_bytes())
                    )
                    txs_injected += 1
                    send(tick, everyone, ("tx", tx))
                push(tick + cfg.tx_interval, -1, "workload", counter + 1)
        else:
            del buckets[tick]
            continue
        break
    else:
        stalled = True

    if stalled:
        events.append((final_tick, -1, "stall", f"last_commit={last_commit_tick}"))

    counters = {
        "msgs_sent": msgs_sent,
        "msgs_dropped": msgs_dropped,
        "msgs_delivered": msgs_delivered,
        "wakes_delivered": wakes_delivered,
        "txs_injected": txs_injected,
    }
    for node in nodes:
        for k, v in node.counters.items():
            counters[k] = counters.get(k, 0) + v

    best = max(range(n), key=lambda i: (nodes[i].head, -i))
    chain = tuple(nodes[best].committed[h] for h in range(nodes[best].head + 1))
    return SimTranscript(
        config_digest=cfg.digest_hex(),
        ticks=final_tick,
        stalled=stalled,
        heads=tuple(node.head for node in nodes),
        commits=tuple(tuple(c) for c in commits),
        events=tuple(events),
        counters=counters,
        chain=chain,
    )


def replay_check(config: SimConfig, transcript: SimTranscript) -> bool:
    """Re-run the config and require a byte-identical transcript."""
    again = run(config)
    return again.text() == transcript.text() and encode_chain(again.chain) == encode_chain(
        transcript.chain
    )
