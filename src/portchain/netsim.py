"""Deterministic discrete-event network simulation.

Every source of nondeterminism is derived from a counter-based PRNG
keyed off the config seed, and events at one tick run in the order they
were scheduled, so a run is a pure function of its config.  Transcripts
render to text so two runs can be compared byte for byte.

Each rule of a run has one owner: `build_context` the keys and genesis
that its nodes are built from and its transcript keeps, `Network` the
links, `_Faults` the crashes and what hangs on them (stall patience, the
executor's window, the finish line), `_workload_txs` the signed
transfers, and `run` the event queue (`_Calendar`), the bootstrap, each
event's dispatch and the transcript.

Live state follows the window of live heights, not the length of the
run: each node keeps one `engine.Level` record per live height, and the
nodes share one `BlockExecutor`, which forgets every height that each
node still able to handle events has committed.  A node hands each
event to the run as data, and the transcript keeps it once, as one flat
record that shares the block digest with every other node's record of
the same block; its lines and events render those records, its digest
hashes the lines and then the chain, and the single-chain audit reads
the records' full digests.  What still grows with the run is its output
(the chain and the records) and the process-wide memo of `crypto.verify`,
one entry per signature that `crypto.sign` made; a run verifies natively
only the signatures it did not make.
"""
from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from itertools import islice

from . import core
from .adversary import KINDS, ByzantineNode
from .core import Block, MaintainerAssignment, Transaction, block_digest, encode_chain
from .crypto import address_from_public, digest, keypair_from_seed, sign
from .engine import BlockExecutor, EngineConfig, Node, maintainer_records
from .ledger import LedgerConfig
from .trie import AccountState, StateTrie


class SimConfigError(ValueError):
    pass


class CounterRng:
    """Stateless keyed randomness: each draw hashes seed + key, so the
    stream does not depend on draw order."""

    def __init__(self, seed: int):
        self._seed = seed.to_bytes(8, "big")

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

    kind 'crash' needs node and takes the ticks (recover_tick None means
    permanent).  Crash specs on one node nest: the node runs again only
    once no crash spec covers it, so a permanent one keeps it down for good.
    The other kinds are the Byzantine ones of `adversary.KINDS`, which
    names the scopes each allows: a fixed node, or for the vote kinds also
    a voter slot index (whoever holds that slot each height), not both.
    They hold for the whole run, so they take no ticks, and one node or
    voter slot has at most one of them.
    """

    kind: str
    node: int | None = None
    voter_slot: int | None = None
    start_tick: int = 0
    recover_tick: int | None = None


# inclusive bounds of single integer fields (None: no upper bound)
_INT_BOUNDS = {
    # build_context derives one Ed25519 key per node before the first tick
    # and every broadcast goes to node_count - 1 nodes, so an unbounded
    # count exhausts memory instead of running; 1024 still holds the 771
    # nodes that the largest creator_redundancy (256, one voter) needs
    "node_count": (1, 1024),
    # a height takes at least a tick (see SimConfig.validate), so no run
    # reaches a height above the bound of max_ticks
    "run_height": (1, 2**20),
    # a header encodes its creator_index in one byte
    "creator_redundancy": (1, 256),
    "voter_count": (1, None),
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
    # one workload interval signs this many transfers and broadcasts each
    # to every node within a tick; no scenario needs more than a few
    "txs_per_interval": (0, 1024),
    # null picks the default delay derived from latency_max
    "proposal_delay": (0, None),
    # zero would stop every run before its first commit; the bound caps
    # how many ticks a run handles, not the work of one tick
    "max_ticks": (1, 2**20),
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

    def __post_init__(self):
        # a config that exists is valid: a scenario file, a direct
        # SimConfig(...) and dataclasses.replace are each checked here, once
        self.validate()

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
        # A height takes at least a tick: its creator waits proposal_delay
        # ticks after it holds a quorum on the parent, and each of those
        # votes left a voter latency_min or more ticks after the parent
        # reached it (the parent's creator, its voters and the next creator
        # are distinct accounts).  With both zero a whole run could fit in
        # one tick, which neither max_ticks nor stall_patience would end.
        if self.latency_min == 0 and self.proposal_delay == 0:
            raise SimConfigError("proposal_delay 0 with latency_min 0 lets a height take no tick")
        # A run handles no tick past max_ticks, so it builds no block above
        # height max_ticks.  A block issues at most the refunds of its
        # parent's creator and certificate voters and one reporter reward
        # per accused account other than its creator (a verdict's term
        # covers the accused's other offenses in the block).  Balances,
        # taxes and the selection weight total (AccountState.weight per
        # account) are encoded as 8 unsigned bytes, and none exceeds the
        # genesis supply plus node_count plus what the run issues.
        supply = self.node_count * (self.genesis_balance + self.genesis_tax_max + 1)
        per_block = (self.creator_reward + self.voter_count * self.voter_reward
                     + (self.node_count - 1) * self.reporter_reward)
        if supply + self.max_ticks * per_block >= 2**64:
            raise SimConfigError(
                "genesis_balance/genesis_tax_max/max_ticks/rewards: genesis money supply "
                f"node_count * (genesis_balance + genesis_tax_max + 1) = {supply} plus "
                f"max_ticks * {per_block} issued per block reaches 2**64"
            )
        behavior_targets = set()
        for adv in self.adversaries:
            if adv.kind == "crash":
                if adv.node is None or adv.voter_slot is not None:
                    raise SimConfigError("crash adversary needs a node and no voter_slot")
                if adv.start_tick < 0:
                    raise SimConfigError(f"crash adversary start_tick {adv.start_tick} is negative")
                # recovering first would leave the node down for good while
                # the run still waits for it to reach run_height
                if adv.recover_tick is not None and adv.recover_tick < adv.start_tick:
                    raise SimConfigError("crash adversary recover_tick before start_tick")
            elif adv.kind in KINDS:
                if adv.start_tick != 0 or adv.recover_tick is not None:
                    raise SimConfigError(
                        f"{adv.kind} holds for the whole run and takes no start_tick "
                        "or recover_tick"
                    )
                if (adv.node is None) == (adv.voter_slot is None):
                    raise SimConfigError(f"{adv.kind} needs a node or a voter_slot, not both")
                scope = "node" if adv.voter_slot is None else "voter_slot"
                if scope not in KINDS[adv.kind].scopes:
                    raise SimConfigError(f"{adv.kind} cannot target a {scope}")
                # a run keeps one behavior per node and one per voter slot
                target = (scope, getattr(adv, scope))
                if target in behavior_targets:
                    raise SimConfigError(f"two behaviors on {target[0]} {target[1]}")
                behavior_targets.add(target)
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

    trie = StateTrie()
    for rank, addr in enumerate(ordered):
        tax = rng.randint(config.genesis_tax_min, config.genesis_tax_max, f"gtax/{rank}")
        trie = trie.upsert_account(addr, AccountState(balance=config.genesis_balance, tax=tax))
    trie = trie.update({**maintainer_records(trie, a1), **maintainer_records(trie, a2)})

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
        max_txs=config.max_txs,
        ledger=config.ledger(),
        public_keys=public_keys,
        proposal_delay=delay,
        sync_interval=config.sync_interval,
        vote_patience=delay + 2 * config.latency_max + 2,
    )
    return SimContext(config=config, engine_cfg=engine_cfg, keys=keys, addresses=addresses,
                      genesis_block=genesis, genesis_trie=trie, genesis_assignments={1: a1, 2: a2})


def _short(d: bytes) -> str:
    return d.hex()[:16]


def _info(kind: str, *fields) -> str:
    """The text of one record's event; with `_short`, the only code that
    renders an event or cuts a digest to 16 hex digits."""
    if kind == "commit" or kind == "propose":
        return f"{fields[0]}:{_short(fields[1])}"
    if kind == "halt":
        return "cannot-propose@{}:{}".format(*fields)
    if kind == "violation":
        rule, height, detail = fields
        return f"{rule}@{height}" if detail is None else f"{rule}@{height}:{detail}"
    return "last_commit={}".format(*fields)  # stall


# lines of transcript text per hash update in `SimTranscript.digest_hex`
_DIGEST_CHUNK = 1024


@dataclass
class SimTranscript:
    config_digest: str
    ticks: int
    stalled: bool
    heads: tuple  # each node's head when the run ended
    # (tick, node, *event) in event order: a Node's commit, propose, halt
    # or violation, and last, if the run stalled, node -1's ("stall", tick
    # of the last commit)
    records: tuple
    counters: dict
    chain: tuple  # canonical committed blocks, genesis first
    context: SimContext | None = field(compare=False, repr=False)  # the run's own, for audits

    @property
    def events(self) -> tuple:
        """(tick, node, kind, info) per record."""
        return tuple((tick, node, kind, _info(kind, *rest))
                     for tick, node, kind, *rest in self.records)

    def lines(self):
        """The text, one newline-terminated line at a time."""
        yield f"config={self.config_digest}\n"
        yield f"ticks={self.ticks}\n"
        yield f"stalled={int(self.stalled)}\n"
        yield "heads=" + ",".join(str(h) for h in self.heads) + "\n"
        # each record's text is rendered once; a commit's also goes into
        # its node's line
        texts = [_info(kind, *rest) for _, _, kind, *rest in self.records]
        per_node = [[] for _ in self.heads]
        for (_, node, kind, *_), text in zip(self.records, texts):
            if kind == "commit":
                per_node[node].append(text)
        for i, node_texts in enumerate(per_node):
            yield f"node{i}=" + ";".join(node_texts) + "\n"
        for (tick, node, kind, *_), text in zip(self.records, texts):
            yield f"{tick} n{node} {kind} {text}\n"
        for k in sorted(self.counters):
            yield f"{k}={self.counters[k]}\n"
        yield "chain=" + ",".join(_short(block_digest(b.header)) for b in self.chain) + "\n"

    def digest_hex(self) -> str:
        # the text reaches the hash _DIGEST_CHUNK lines at a time, never
        # whole; no line is empty, so an empty chunk ends it
        h = hashlib.sha256()
        lines = self.lines()
        while chunk := "".join(islice(lines, _DIGEST_CHUNK)):
            h.update(chunk.encode())
        h.update(encode_chain(self.chain))
        return h.hexdigest()


def below(getrandbits, n: int, bits: int) -> int:
    """Uniform integer in [0, n) from `bits` = n.bit_length() random bits,
    redrawn while out of range.  These are the generator bits that
    `random.Random.randint(lo, lo + n - 1) - lo` consumes in CPython 3.11,
    so a run replays the latency stream of a `randint` draw exactly."""
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


class _Calendar:
    """The event queue keeps tick buckets, after Brown's calendar queue:
    one FIFO list of (target node or -1, kind, payload) per tick and a
    heap that holds only the distinct ticks.  Nothing is ever scheduled
    before the current tick, so appending to a bucket gives the order of
    one heap keyed by (tick, insertion sequence)."""

    def __init__(self):
        self._buckets: dict[int, list] = {}
        self._ticks: list[int] = []

    def push(self, tick, target, kind, payload):
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [(target, kind, payload)]
            heapq.heappush(self._ticks, tick)
        else:
            bucket.append((target, kind, payload))

    def drain(self):
        """Yield (tick, bucket) in tick order; a push at the tick being read appends to it."""
        while self._ticks:
            tick = heapq.heappop(self._ticks)
            yield tick, self._buckets[tick]
            del self._buckets[tick]


class Network:
    """The link model.  A broadcast reaches every node but its sender (so
    the workload, sender -1, reaches all), gossip the next four on the
    ring (all others when fewer), and a multicast the listed addresses
    that are nodes other than the sender, in list order.  Each target
    takes a drop draw (none at drop_probability 0), then a latency draw;
    draws follow event order, so a fast sequential generator replays them."""

    def __init__(self, cfg: SimConfig, addresses, push):
        net_rng = random.Random(digest(cfg.seed.to_bytes(8, "big") + b"net"))
        self._random, self._getrandbits = net_rng.random, net_rng.getrandbits
        self._push = push
        self._drop_p = cfg.drop_probability
        self._lat_min = cfg.latency_min
        self._lat_span = cfg.latency_max - cfg.latency_min + 1
        self._lat_bits = self._lat_span.bit_length()
        n = len(addresses)
        # one row per sender; the last, others[-1], is the workload's
        self._others = [tuple(j for j in range(n) if j != i) for i in (*range(n), -1)]
        self._ring = [tuple((i + step) % n for step in range(1, min(5, n))) for i in range(n)]
        self._addr_index = {a: i for i, a in enumerate(addresses)}
        self.sent = self.dropped = 0

    def route(self, tick, i, act) -> bool:
        """Deliver the message of sender i's action, if it is a routing
        action, to each of its targets after a drop and a latency draw."""
        op = act[0]
        if op == "broadcast":
            targets, (kind, payload) = self._others[i], act[1]
        elif op == "gossip":
            targets, (kind, payload) = self._ring[i], act[1]
        elif op == "multicast":
            targets = [j for j in map(self._addr_index.get, act[1]) if j is not None and j != i]
            kind, payload = act[2]
        elif op == "send":
            targets, (kind, payload) = (act[1],), act[2]
        else:
            return False
        self.sent += len(targets)
        drop_p, net_random, push = self._drop_p, self._random, self._push
        getrandbits, lat_span, lat_bits = self._getrandbits, self._lat_span, self._lat_bits
        tick += self._lat_min
        for j in targets:
            if drop_p and net_random() < drop_p:
                self.dropped += 1
                continue
            push(tick + below(getrandbits, lat_span, lat_bits), j, kind, payload)
        return True


class _Faults:
    """A node is down while any crash spec covers it: crash specs nest.  A
    run is called stalled once no recovery is still to come and
    `stall_patience` ticks have passed since `patience_from`, the later of
    the last commit and the last tick at which a crashed node came back
    up, so the patience starts again when a node comes back.  The run is
    `done` on the commit that takes the last node it waits for, one with
    no node-scoped Byzantine kind and not down for good, to `run_height`;
    a run that waits for no node is never done."""

    def __init__(self, nodes, adversaries, executor, push, run_height):
        n = len(nodes)
        self.down = [0] * n  # crash specs that cover each node now
        # recoveries still to come per node: down with none left is for good
        self.recoveries_left = [0] * n
        # the nodes the run waits for that are still below run_height
        self._below = set(range(n))
        for adv in adversaries:
            if adv.kind == "crash":
                push(adv.start_tick, -1, "crash", adv.node)
                if adv.recover_tick is None:
                    self._below.discard(adv.node)
                else:
                    push(adv.recover_tick, -1, "recover", adv.node)
                    self.recoveries_left[adv.node] += 1
            elif adv.voter_slot is None:
                self._below.discard(adv.node)
        self._run_height = run_height
        self.done = False
        self.patience_from = 0
        # the lowest head over the nodes that can still handle events (not
        # one down for good), and their count per head; every executor
        # lookup is for a header above its caller's head, so the executor
        # forgets each height once the lowest head reaches it
        self._nodes, self._executor = nodes, executor
        self._at_head = [n]
        self._lowest = 0

    def committed(self, tick, i, h):
        """Running node i, so a live one, reached head h."""
        self.patience_from = tick
        if h == self._run_height and i in self._below:
            self._below.remove(i)
            self.done = not self._below
        if h == len(self._at_head):
            self._at_head.append(0)
        self._at_head[h] += 1
        self._head_left(h - 1)

    def crash(self, i):
        # a running node with no recovery left is down for good
        if not self.down[i] and not self.recoveries_left[i]:
            self._head_left(self._nodes[i].head)
        self.down[i] += 1

    def recover(self, tick, i) -> bool:
        """One crash spec on node i ended; whether the node runs again."""
        self.down[i] -= 1
        self.recoveries_left[i] -= 1
        if not self.down[i]:
            self.patience_from = tick
            return True
        if not self.recoveries_left[i]:
            # another crash spec still covers it, and none ends
            self._head_left(self._nodes[i].head)
        return False

    def _head_left(self, h):
        """One live node left head h; advance the window past the heights
        no live node holds."""
        at_head = self._at_head
        at_head[h] -= 1
        if h == self._lowest and not at_head[h]:
            while self._lowest < len(at_head) - 1 and not at_head[self._lowest]:
                self._lowest += 1
            self._executor.forget_below(self._lowest + 1)


def _workload_txs(cfg: SimConfig, ctx: SimContext, nonces, counter):
    """Sign the transfers of workload interval `counter`, each between two
    distinct nodes drawn from the keyed stream."""
    rng = CounterRng(cfg.seed)
    for j in range(cfg.txs_per_interval):
        key = f"tx/{counter}/{j}"
        s = rng.randint(0, cfg.node_count - 1, key + "/s")
        r = rng.randint(0, cfg.node_count - 2, key + "/r")
        if r >= s:
            r += 1
        value = rng.randint(cfg.tx_value_min, cfg.tx_value_max, key + "/v")
        nonces[s] += 1
        body = Transaction(sender=ctx.addresses[s], receiver=ctx.addresses[r],
                           value=value, nonce=nonces[s], signature=b"")
        yield dataclasses.replace(body, signature=sign(ctx.keys[s], body.signing_bytes()))


def run(cfg: SimConfig) -> SimTranscript:
    ctx = build_context(cfg)
    n = cfg.node_count
    node_kinds = {adv.node: adv.kind for adv in cfg.adversaries
                  if adv.kind != "crash" and adv.voter_slot is None}
    slot_kinds = {adv.voter_slot: adv.kind for adv in cfg.adversaries
                  if adv.voter_slot is not None}
    executor = BlockExecutor(ctx.engine_cfg)
    nodes = [ByzantineNode(i, ctx, executor, kind=node_kinds.get(i), slot_kinds=slot_kinds)
             if i in node_kinds or slot_kinds else Node(i, ctx, executor) for i in range(n)]

    # bootstrap: initial wakes, workload, fault schedule
    queue = _Calendar()
    push = queue.push
    net = Network(cfg, ctx.addresses, push)
    route = net.route
    for i in range(n):
        push(0, i, "wake", None)
    if cfg.txs_per_interval > 0:
        push(cfg.tx_interval, -1, "workload", 0)
    faults = _Faults(nodes, cfg.adversaries, executor, push, cfg.run_height)
    down, recoveries_left = faults.down, faults.recoveries_left

    nonces = [0] * n
    records: list = []
    msgs_delivered = wakes_delivered = 0
    stalled = False
    stall_patience = cfg.stall_patience

    for tick, events in queue.drain():
        if tick > cfg.max_ticks:
            stalled = True
            break
        for i, kind, payload in events:
            # the run ends at the event after the commit that completed it
            if faults.done:
                break
            if tick - faults.patience_from > stall_patience and not any(recoveries_left):
                stalled = True
                break
            if i >= 0:
                if down[i]:
                    continue
                if kind == "wake":
                    wakes_delivered += 1
                else:
                    msgs_delivered += 1
                actions = nodes[i].handle(kind, payload, tick)
            elif kind == "crash":
                faults.crash(payload)
                continue
            elif kind == "workload":
                for tx in _workload_txs(cfg, ctx, nonces, payload):
                    route(tick, -1, ("broadcast", ("tx", tx)))
                push(tick + cfg.tx_interval, -1, "workload", payload + 1)
                continue
            elif faults.recover(tick, payload):  # a recover event: node payload is back up
                i = payload
                actions = nodes[i].recover(tick)
            else:
                continue  # another crash spec still covers node payload
            for act in actions:
                if act[0] == "wake":
                    push(act[1], i, "wake", None)
                elif not route(tick, i, act):  # an event: commit, propose, halt or violation
                    records.append((tick, i, *act))
                    if act[0] == "commit":
                        faults.committed(tick, i, act[1])
        else:
            continue
        break
    else:
        stalled = True  # the queue ran dry

    # `tick` is the last tick popped: the wakes at 0 keep the queue from starting empty
    if stalled:
        last_commit = next((rec[0] for rec in reversed(records) if rec[2] == "commit"), 0)
        records.append((tick, -1, "stall", last_commit))
    # each transfer takes its sender's next nonce
    counters = {"msgs_sent": net.sent, "msgs_dropped": net.dropped,
                "msgs_delivered": msgs_delivered, "wakes_delivered": wakes_delivered,
                "txs_injected": sum(nonces)}
    for node in nodes:
        for k, v in node.counters.items():
            counters[k] = counters.get(k, 0) + v

    best = max(range(n), key=lambda i: (nodes[i].head, -i))
    return SimTranscript(
        config_digest=cfg.digest_hex(), ticks=tick, stalled=stalled,
        heads=tuple(node.head for node in nodes), records=tuple(records),
        counters=counters, chain=tuple(nodes[best].committed), context=ctx,
    )
