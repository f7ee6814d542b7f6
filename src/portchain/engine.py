"""Per-node consensus state machine.

Scheduling follows the jump-step rule: the creators and voters serving
height h are recorded in block h-2 (`core.schedule_for`), voters active
at height h validate the candidates at h-1, and the certificate they
produce is embedded in block h.  Redundant creators produce sibling
candidates; a successor links to the qualified sibling with the largest
re-hash of its digest.

A new assignment takes the shape (the creator and voter slot counts) of
the schedule serving its block, so the shape cannot drift: every
schedule is either a genesis assignment or the recorded assignment of a
block that passed validation, and validation recomputed that assignment
from its own serving schedule.  A node validates a grandparent before
it uses its assignment (`_post_state_of`, `_propose`).

Commit point: a block is final once a certified grandchild exists, i.e.
accepting a candidate at height k whose embedded certificate commits a
candidate t at k-1 finalizes t's parent at k-2.  Finalizing the
certificate's own target directly would be unsound here because both
redundant siblings can legitimately be certified; the extra level lets
the voters' parent-choice (which honest voters lock per height) arbitrate,
and two certified candidates naming different parents then require at
least a third of the voter slots to be faulty.

Nodes are deterministic event machines: all inputs arrive as events, all
outputs leave as actions, and every internal iteration is over sorted
keys, so a simulation transcript is a pure function of its config.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import core
from .core import (
    Block,
    BlockHeader,
    FraudReport,
    MaintainerAssignment,
    Transaction,
    Vote,
    VoteCertificate,
    block_digest,
    build_certificate,
    duty_ended,
    schedule_for,
    verify_certificate,
)
from .crypto import Address, Hash, digest
# bound here for the aliases that perfbench's tracer wraps; the engine
# itself signs and verifies through `Vote`
from .crypto import sign, verify  # noqa: F401
from .ledger import (
    LedgerError,
    TxRejected,
    apply_fraud_verdict,
    apply_transaction,
    offense_punished,
    refund_reward,
)
from .selection import NoCandidatesError, select_assignment
from .trie import EMPTY_ACCOUNT, StateTrie, WriteSet, maintainer_bits


class BlockInvalid(ValueError):
    """A block body breaks a rule; the message names it."""


def quorum_threshold(n: int) -> int:
    """PBFT-style two-thirds rule: smallest integer >= 2n/3."""
    return -(-2 * n // 3)


def commit_rule(cert: VoteCertificate, voters, public_keys) -> bool:
    """True iff cert verifies and carries approvals from at least 2/3 of
    the assigned voters."""
    if len(cert.votes) < quorum_threshold(len(voters)):
        return False
    return verify_certificate(cert, voters, public_keys)


@lru_cache(maxsize=16)
def rehash_value(block_hash: Hash) -> int:
    """Re-hash of a block digest, compared as a big-endian integer.

    Cached: the sibling rankings of a height ask again and again for the
    digests of its few candidates, so a small bound answers almost every
    call, and the digests of committed heights leave the cache."""
    return int.from_bytes(digest(b"rehash" + block_hash), "big")


def sibling_order(block_hash: Hash) -> tuple:
    """Rank of a block digest among redundant siblings: the largest
    re-hash wins, and a tie goes to the smaller digest."""
    return rehash_value(block_hash), -int.from_bytes(block_hash, "big")


@dataclass
class ExecResult:
    """One block's execution.  A valid block comes with its post-state,
    the issuance it minted and, on the creator path, the transactions
    left out and why; an invalid one with the reason alone, and no
    post-state."""

    block: Block | None
    post_trie: StateTrie | None
    issued: int = 0
    reason: str = ""
    rejected: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.post_trie is not None


def maintainer_records(trie: StateTrie, assignment: MaintainerAssignment) -> dict:
    """Each member of assignment with its state in trie carrying the record
    of the slot it was picked for: creator or voter, and the parity of the
    height it serves."""
    voters_from = len(assignment.creators)
    return {
        addr: trie.get_account(addr).changed(
            maintainer_bits=maintainer_bits(slot >= voters_from, assignment.block_height)
        )
        for slot, addr in enumerate(assignment.members())
    }


def assemble_block(
    executor: BlockExecutor,
    prev_block: Block,
    cert: VoteCertificate,
    creator: Address,
    creator_index: int,
    timestamp: int,
    schedule: MaintainerAssignment,  # serving the new block's height
    clear_members,  # maintainers of height-1, duty complete
    pre_trie: StateTrie,
    txs=None,
    mempool=None,
    reports=(),
) -> ExecResult:
    """Deterministically compute the child of prev_block and its post-state.

    The child's height is the parent's plus one and its backward link the
    parent's digest.  Creator path: pass mempool (txs=None) and valid
    transactions are picked in canonical order up to max_txs, and the
    fraud reports that `apply_fraud_verdict` accepts are kept in order.
    Validation path: pass the candidate's exact transaction list; any
    rejected transaction or report raises BlockInvalid so a voter rejects
    the block rather than silently repairing it.  The ledger rules run on
    every call; what follows them comes from `executor.settle`.
    """
    cfg, public_keys = executor.context.config, executor.context.public_keys
    creating = txs is None
    height = prev_block.header.height + 1
    # every account write of the block collects in one write set and lands
    # in the trie as one batch before the selection
    writes = WriteSet(pre_trie)
    issued = 0
    rejected: list = []

    # refunds for the previous height's maintainers who completed duty:
    # the linked creator plus every voter whose approval is in the cert
    if prev_block.header.height >= 1:
        issued += refund_reward(writes, prev_block.header.creator, cfg.creator_reward)
        for voter in prev_block.header.prev_certificate.voters():
            issued += refund_reward(writes, voter, cfg.voter_reward)

    if creating:
        chosen = []
        # permanently unpayable entries must not make proposals rescan the
        # whole pool forever, so attempts are capped alongside successes
        attempts_left = 4 * cfg.max_txs
        for key in sorted(mempool or {}):
            if len(chosen) >= cfg.max_txs or attempts_left <= 0:
                break
            attempts_left -= 1
            tx = mempool[key]
            # a node drops a transaction from its mempool only when the
            # block holding it commits, so the next creators still see it;
            # its nonce is then used up and apply_transaction would say so
            sender = writes.get_account(tx.sender)
            if sender is not None and tx.nonce <= sender.nonce:
                rejected.append((tx, "bad nonce"))
                continue
            # a rejection is raised before any write, so it leaves none
            try:
                apply_transaction(writes, tx, cfg, height, public_keys)
            except TxRejected as exc:
                rejected.append((tx, str(exc)))
                continue
            chosen.append(tx)
        txs = tuple(chosen)
    else:
        if len(txs) > cfg.max_txs:
            raise BlockInvalid("transaction cap exceeded")
        for tx in txs:
            try:
                apply_transaction(writes, tx, cfg, height, public_keys)
            except TxRejected as exc:
                raise BlockInvalid(f"invalid transaction: {exc}")

    kept = []
    for report in reports:
        try:
            issued += apply_fraud_verdict(writes, report, height, creator, cfg)
        except LedgerError as exc:
            if creating:
                continue
            raise BlockInvalid(f"bad fraud report: {exc}")
        kept.append(report)

    # duty of height-1 maintainers is complete: clear their selection bits
    for addr in clear_members:
        account = writes.get_account(addr)
        if account is not None and account.maintainer_bits:
            writes.upsert_account(addr, account.changed(maintainer_bits=0))
    trie, assignment = executor.settle(writes, prev_block, schedule, height)

    header = BlockHeader(
        height=height,
        prev_hash=block_digest(prev_block.header),
        creator=creator,
        creator_index=creator_index,
        state_root=trie.root_commitment(),
        tx_root=core.tx_merkle_root(txs),
        prev_certificate=cert,
        timestamp=timestamp,
        assignment_digest=core.assignment_digest(assignment),
    )
    block = Block(header=header, transactions=tuple(txs), assignment=assignment, fraud_reports=tuple(kept))
    return ExecResult(block, trie, issued, rejected=rejected)


class BlockExecutor:
    """Deterministic block validation, memoized by block digest.

    Validation re-derives the whole block from its declared inputs and
    compares headers.  The computation is a pure function of the block
    (its digest covers the pre-state chain), so one executor's results
    are shared by every simulated node.  A creator seeds the memo with
    its own assembly through `record`, which runs the same header checks
    as validation, so no node assembles that block a second time.  The
    replay audit (`analysis.replay_chain`) uses an executor of its own,
    re-derives each committed block once, and forgets each height as
    soon as the next one has validated, so that executor holds no more
    than the height it validates and its parent.

    The backward-link proof a header carries is memoized the same way,
    per (header digest, voter tuple) in `certifies_parent`: the digest
    fixes the certificate and the parent it must name, and the voters it
    is judged against are the only other input, so validation and every
    node's commit and vote passes share one check per header and
    committee.

    The header commits to the body only through the roots and digests
    that validation recomputes, so a memo entry keeps the block it judged
    and answers only for that same body; another body under the same
    header is validated on its own and leaves the entry as it was.

    The part of an assembly that follows the ledger rules is memoized
    too, in `settle`, per block height: sibling creators on one parent
    usually hold the same transactions, so the second of them, and a
    validator that re-derives a block its creator did not record (an
    equivocation twin, a forgery), lands the same writes on the same
    pre-state and finds the post-state and assignment already made.  The
    replay audit's own executor shares none of them with the run.

    All three memos are kept per header height, and `forget_below` drops
    whole heights.  Every lookup a node makes is for a header above its own
    head: `_commit` validates head+1, `_commit_pass` checks the
    certificate of a head+3 header, `_resolution_matches` those from
    head+2 up, `_post_state_of` (also a vote's last test) stops its
    descent at the head, and `record` sees a proposal at most at head+3.  `_add_candidate` refuses every height at or below the
    head, sync responses included, so no older header reaches these
    paths.  A caller that forgets every height at or below the lowest
    head of the nodes that can still handle events (`netsim.run`)
    therefore never asks for a forgotten entry: no block is assembled
    twice, every answer is the one the full memo would give, and the
    memo holds the live heights only, not every block of the run with
    its post-state.
    """

    def __init__(self, context):
        self.context = context
        # header height -> digest -> (judged block, result)
        self._memo: dict[int, dict[Hash, tuple[Block, ExecResult]]] = {}
        # header height -> (digest, voters) -> certifies_parent answer
        self._certs: dict[int, dict[tuple, bool]] = {}
        # block height -> settle's inputs -> (post-state, assignment)
        self._bodies: dict[int, dict[tuple, tuple[StateTrie, MaintainerAssignment]]] = {}
        # every height below this one has been forgotten
        self._floor = 0

    def validate(
        self,
        candidate: Block,
        prev_block: Block,
        pre_trie: StateTrie,
        schedule,  # MaintainerAssignment for candidate's height
        clear_members,
    ) -> ExecResult:
        d = block_digest(candidate.header)
        result = self._memo_hit(d, candidate)
        if result is None:
            result = self._validate(candidate, prev_block, pre_trie, schedule, clear_members)
            self._remember(d, candidate, result)
        return result

    def _memo_hit(self, d: Hash, block: Block) -> ExecResult | None:
        """The memoized result under digest d if it was reached for this
        same body, else None."""
        level = self._memo.get(block.header.height)
        hit = level.get(d) if level is not None else None
        if hit is not None and (hit[0] is block or hit[0] == block):
            return hit[1]
        return None

    def _remember(self, d: Hash, block: Block, result: ExecResult) -> None:
        """Memoize result for block unless digest d already has an entry."""
        self._memo.setdefault(block.header.height, {}).setdefault(d, (block, result))

    def forget_below(self, height: int) -> None:
        """Drop the memo, certificate and body entries of blocks below height."""
        for h in range(self._floor, height):
            self._memo.pop(h, None)
            self._certs.pop(h, None)
            self._bodies.pop(h, None)
        self._floor = max(self._floor, height)

    def settle(self, writes: WriteSet, prev_block: Block, schedule, height: int):
        """The post-state and assignment of the block at height that makes
        writes over its pre-state (`writes.base`) on prev_block: the writes
        land as one batch, the maintainers of height+2 are drawn on that
        state, and their records land.  A pure function of the pre-state
        object, the writes in order, the parent's digest and assignment and
        the serving schedule, so it is memoized per height on exactly
        those; the key holds the pre-state itself, so no id is reused."""
        prev_digest = block_digest(prev_block.header)
        prev_members = prev_block.assignment.members()
        key = (writes.base, tuple(writes.writes.items()), prev_digest, schedule, prev_members)
        level = self._bodies.setdefault(height, {})
        body = level.get(key)
        if body is None:
            trie = writes.commit()
            # forward link: pick the maintainers of height+2 on the
            # post-block state, excluding both adjacent service sets so
            # nobody serves twice in a row
            assignment = select_assignment(trie, prev_digest, schedule, height,
                                           extra_exclusions=prev_members)
            body = level[key] = (trie.update(maintainer_records(trie, assignment)), assignment)
        return body

    def record(self, built: ExecResult, prev_block: Block, schedule) -> ExecResult:
        """Memoize a creator's own assembly as its block's validation.

        The creator's assembly is the computation `validate` would repeat
        on the same inputs, so after the same header checks its post-state
        is the validation result.  Only for blocks broadcast unaltered:
        a creator records its block before it broadcasts it, so the memo
        does not yet hold that digest.
        """
        reason = self._header_fault(built.block.header, prev_block, schedule)
        result = ExecResult(None, None, reason=reason) if reason else built
        self._remember(block_digest(built.block.header), built.block, result)
        return result

    def certifies_parent(self, hdr: BlockHeader, voters: tuple) -> bool:
        """Does the header's certificate target its named parent and pass
        `commit_rule` against the voters?  Memoized per (digest, voters)."""
        key = (block_digest(hdr), voters)
        level = self._certs.get(hdr.height)
        ok = level.get(key) if level is not None else None
        if ok is None:
            cert = hdr.prev_certificate
            ok = cert.target_hash == hdr.prev_hash and commit_rule(
                cert, voters, self.context.public_keys
            )
            self._certs.setdefault(hdr.height, {})[key] = ok
        return ok

    def _header_fault(self, hdr: BlockHeader, prev_block: Block, schedule) -> str:
        """Why the header's creator slot, backward link or certificate is
        invalid, or "" if they hold."""
        if hdr.creator_index >= len(schedule.creators):
            return "creator index out of range"
        if schedule.creators[hdr.creator_index] != hdr.creator:
            return "creator not assigned to slot"
        if hdr.prev_hash != block_digest(prev_block.header):
            return "backward link mismatch"
        if not self.certifies_parent(hdr, schedule.voters):
            if hdr.prev_certificate.target_hash != hdr.prev_hash:
                return "certificate targets wrong block"
            return "previous-block certificate fails 2/3 rule"
        return ""

    def _validate(self, candidate, prev_block, pre_trie, schedule, clear_members) -> ExecResult:
        hdr = candidate.header
        reason = self._header_fault(hdr, prev_block, schedule)
        if reason:
            return ExecResult(None, None, reason=reason)
        try:
            built = assemble_block(
                self,
                prev_block,
                hdr.prev_certificate,
                hdr.creator,
                hdr.creator_index,
                hdr.timestamp,
                schedule,
                clear_members,
                pre_trie,
                txs=candidate.transactions,
                reports=candidate.fraud_reports,
            )
        except (BlockInvalid, NoCandidatesError) as exc:
            return ExecResult(None, None, reason=str(exc))
        # the header commits to the assignment's digest, so a forged
        # schedule would also fail the header comparison; check it first
        # to name the fault
        if built.block.assignment != candidate.assignment:
            return ExecResult(None, None, reason="assignment mismatch")
        if built.block.header != hdr:
            return ExecResult(None, None, reason="recomputed header mismatch")
        return built


def equivocation_evidence(height: int, creator: Address, digests) -> Hash:
    pair = b"".join(sorted(digests)[:2])
    return digest(b"equiv" + height.to_bytes(8, "big") + creator + pair)


class Level:
    """What one node knows about one height above its head.  A record can
    exist before its first block, made to hold the creator flag."""

    __slots__ = ("blocks", "unvoted", "by_creator", "first_seen",
                 "locked_parent", "quorum_tick", "creator", "proposed")

    def __init__(self):
        self.blocks: dict[Hash, Block] = {}
        # digests still awaiting this node's vote decision; a digest leaves
        # once its parent is known
        self.unvoted: set[Hash] = set()
        # digests per creator, in arrival order; two make equivocation
        self.by_creator: dict[Address, list[Hash]] = {}
        self.first_seen: int | None = None  # tick of the first block
        self.locked_parent: Hash | None = None
        self.quorum_tick: int | None = None
        # this node is a creator here on some branch: set from the assignment
        # of each candidate two heights below, and fixed by the committed
        # block's assignment once that height commits
        self.creator = False
        self.proposed = False


class Tally:
    """What one node knows about one candidate digest.  A vote can arrive
    before its block, so `height` is None until the block does."""

    __slots__ = ("height", "votes", "qualified")

    def __init__(self, height: int | None = None):
        self.height = height
        self.votes: dict[Address, Vote] = {}  # approvals by voter
        # the approvals were found to hold a quorum; that is monotone, and
        # `_is_qualified` is asked only at or above the head
        self.qualified = False


class Node:
    """One consensus participant; fed events, emits actions.  It reads the
    run's context (`netsim.SimContext`) by attribute: its key pair and
    address at `index`, the config and its derived values, and the genesis.

    Actions: ("broadcast", message) to every other node; ("send",
    node_index, message) to one node; ("multicast", recipients, message)
    to the listed addresses other than its own, which is how a vote
    reaches the maintainers that consume it; ("gossip", message) to the
    next nodes on the ring, one hop on a block's first receipt; ("wake",
    tick); and, as data for the simulation to record, ("commit", height,
    digest), ("propose", height, digest), ("halt", height, reason) and
    ("violation", rule, height, detail or None).
    Messages are (kind, payload) tuples routed by the network simulation.
    A disapproval vote is verified (a bad one counts in `bad_messages`)
    but never tallied.

    Each height above the head has one `Level` record in `levels`, which
    a commit drops whole.  Only `equivocations` outlives it, since fraud
    reports cite a creator's two digests after their height commits.  A
    proposal offers a report of every equivocation the node holds by
    another creator; `assemble_block` keeps those the ledger's one fraud
    rule accepts, so an offense punished on the branch is dropped, and a
    commit drops one the head punishes (`ledger.offense_punished`).
    Each candidate digest has one `Tally` record in `tallies`, which a
    commit drops for the losing siblings and for the block two below.
    `_blocks` answers for the head with the committed block, so only the
    two vote rules that hold at the head alone special-case it.

    A node decides in two places, which `adversary.ByzantineNode`
    overrides: `_cast_vote` sends its judgement of a candidate, and
    `_proposals` the blocks it makes of its assembled proposal.
    """

    def __init__(self, index: int, context, executor: BlockExecutor):
        self.index = index
        self.keys = context.keys[index]
        self.addr = context.addresses[index]
        self.context = context
        self.executor = executor

        genesis_block = context.genesis_block
        gd = block_digest(genesis_block.header)
        # the committed chain, indexed by height; with the genesis
        # assignments it is the only record of who serves a height
        self.committed: list[Block] = [genesis_block]
        self.genesis_assignments = context.genesis_assignments
        self.head = 0
        self.head_digest = gd
        self.head_trie = context.genesis_trie
        self.levels: dict[int, Level] = {}
        for k, a in self.genesis_assignments.items():
            if self.addr in a.creators:
                self._level(k).creator = True
        self._genesis_voted = False
        self.tallies: dict[Hash, Tally] = {gd: Tally(0)}
        self.mempool: dict[tuple, Transaction] = {}
        # (height, creator) -> that level's digests from the creator, kept
        # once there are two and for good
        self.equivocations: dict[tuple, list[Hash]] = {}
        self.last_head_change = 0
        self.counters = {"rejected_txs": 0, "bad_messages": 0, "frauds_detected": 0}
        self._sync_attempts = 0
        # one periodic sync timer: the first wake at or after this tick runs
        # the sync check and re-arms it; other wakes never arm a second one
        self._next_sync = 0
        # ticks of this node's consensus timers (vote patience, proposal
        # delay), apart from the periodic sync wake; one at or before the
        # current wake's tick is due, also if it fell due while the node
        # was down and its own wake was lost.  A wake is pending exactly
        # at these ticks and at `_next_sync`, so a timer asked for on every
        # pass until it is due is delivered once
        self._timers: set[int] = set()
        # progress passes run only when something that can unblock a
        # consensus step arrived (new candidate, quorum crossing, sync) or
        # a timer fell due; any other wake skips the pass
        self._dirty = True

    # -- event entry point ------------------------------------------------

    def handle(self, kind: str, payload, tick: int) -> list:
        actions: list = []
        if kind == "block":
            level = self.levels.get(payload.header.height)
            if level is not None and block_digest(payload.header) in level.blocks:
                # a block already held adds nothing; only a pass that the
                # last event left due still runs
                if not self._dirty:
                    return actions
            elif self._add_candidate(payload, tick):
                # one hop of ring gossip heals per-link drops
                actions.append(("gossip", ("block", payload)))
        elif kind == "vote":
            self._add_vote(payload)
        elif kind == "tx":
            # mempool additions cannot unblock consensus steps on their own
            self.mempool[(payload.sender, payload.nonce)] = payload
            return actions
        elif kind == "sync_req":
            requester, req_head = payload
            if requester != self.index:
                actions.append(("send", requester, ("sync_resp", self._sync_payload(req_head))))
        elif kind == "sync_resp":
            blocks, votes = payload
            for blk in blocks:
                self._add_candidate(blk, tick)
            for v in votes:
                self._add_vote(v)
        elif kind == "wake":
            # a wake past a missed periodic tick (the node was down) takes
            # over as the periodic one, so the timer restarts on recovery
            if tick >= self._next_sync:
                if tick - self.last_head_change >= 2 * self.context.config.sync_interval:
                    # ask one rotating peer per interval, not everyone, to
                    # bound sync traffic
                    n = len(self.context.public_keys)
                    peer = (self.index + 1 + self._sync_attempts) % n
                    if peer == self.index:
                        peer = (peer + 1) % n
                    self._sync_attempts += 1
                    actions.append(("send", peer, ("sync_req", (self.index, self.head))))
                self._next_sync = tick + self.context.config.sync_interval
                if self._next_sync not in self._timers:
                    actions.append(("wake", self._next_sync))
            # every timed condition (vote patience, proposal delay) arms a
            # timer, so a wake with no timer due finds nothing to do
            if any(t <= tick for t in self._timers):
                self._timers = {t for t in self._timers if t > tick}
                self._dirty = True
        if self._dirty:
            self._dirty = False
            self._progress(tick, actions)
        return actions

    def recover(self, tick: int) -> list:
        """Actions of a node back up at tick: a wake, and a sync request
        to every other node for the blocks above its head."""
        return [("wake", tick), ("broadcast", ("sync_req", (self.index, self.head)))]

    def _schedule_timer(self, at: int, actions: list) -> None:
        if at not in self._timers and at != self._next_sync:
            actions.append(("wake", at))
        self._timers.add(at)

    # -- ingestion ---------------------------------------------------------

    def _add_candidate(self, blk: Block, tick: int) -> bool:
        h = blk.header.height
        if h <= self.head:
            return False
        d = block_digest(blk.header)
        level = self._level(h)
        if d in level.blocks:
            return False
        if not level.blocks:
            level.first_seen = tick
        level.blocks[d] = blk
        level.unvoted.add(d)
        self.tallies.setdefault(d, Tally()).height = h
        if blk.assignment.block_height == h + 2 and self.addr in blk.assignment.creators:
            self._level(h + 2).creator = True
        self._dirty = True
        seen = level.by_creator.setdefault(blk.header.creator, [])
        seen.append(d)
        if len(seen) == 2:
            self.equivocations[(h, blk.header.creator)] = seen
            self.counters["frauds_detected"] += 1
        return True

    def _level(self, h: int) -> Level:
        level = self.levels.get(h)
        if level is None:
            level = self.levels[h] = Level()
        return level

    def _blocks(self, h: int) -> dict[Hash, Block]:
        """The blocks this node holds at height h by digest: the committed
        block at the head, the candidates above it, none below it."""
        if h == self.head:
            return {self.head_digest: self.committed[-1]}
        level = self.levels.get(h)
        return level.blocks if level is not None else {}

    def _add_vote(self, v: Vote) -> None:
        tally = self.tallies.get(v.target_hash)
        if tally is not None and tally.height is not None and tally.height < self.head:
            return
        if not v.signed_by(self.context.public_keys.get(v.voter, b"")):
            self.counters["bad_messages"] += 1
            return
        if v.approve:
            if tally is None:
                tally = self.tallies[v.target_hash] = Tally()
            tally.votes[v.voter] = v
            # a quorum can only form at or past the raw-count threshold
            if not tally.qualified and len(tally.votes) >= self.context.quorum:
                self._dirty = True

    def _sync_payload(self, req_head: int):
        """The committed blocks above req_head, then the candidates by
        height and digest; and the approvals by digest and voter."""
        blocks = self.committed[req_head + 1 :]
        for h, level in sorted(self.levels.items()):
            if h > req_head:
                blocks.extend(level.blocks[d] for d in sorted(level.blocks))
        votes = []
        for d, tally in sorted(self.tallies.items()):
            if tally.height is None or tally.height >= req_head:
                votes.extend(tally.votes[a] for a in sorted(tally.votes))
        return (tuple(blocks), tuple(votes))

    # -- core progression ---------------------------------------------------

    def _progress(self, tick: int, actions: list) -> None:
        while self._commit_pass(tick, actions):
            pass
        self._vote_pass(tick, actions)
        self._propose_pass(tick, actions)

    def _commit_pass(self, tick: int, actions: list) -> bool:
        k = self.head + 3
        level = self.levels.get(k)
        if level is None or not level.blocks:
            return False
        for _, bk in sorted(level.blocks.items()):
            t = self._blocks(k - 1).get(bk.header.prev_hash)
            if t is None:
                continue
            x = self._blocks(k - 2).get(t.header.prev_hash)
            if x is None:
                continue
            if x.header.prev_hash != self.head_digest:
                actions.append(("violation", "fork-ancestry", k - 2, None))
                continue
            # voters of height k are recorded in block k-2 on this branch
            if not self.executor.certifies_parent(bk.header, x.assignment.voters):
                continue
            self._commit(x, tick, actions)
            return True
        return False

    def _commit(self, blk: Block, tick: int, actions: list) -> None:
        j = self.head + 1
        d = block_digest(blk.header)
        result = self.executor.validate(blk, self.committed[-1], self.head_trie, self._schedule(j),
                                        duty_ended(self.committed, self.genesis_assignments, j))
        if not result.valid:
            actions.append(("violation", "committed-invalid", j, result.reason))
            return
        self.committed.append(blk)
        self.head_digest = d
        self.head_trie = result.post_trie
        self._level(j + 2).creator = self.addr in blk.assignment.creators
        self.head = j
        self.last_head_change = tick
        for tx in blk.transactions:
            self.mempool.pop((tx.sender, tx.nonce), None)
        for sd in self.levels.pop(j).blocks:
            if sd != d:  # certificates over the head may still be needed
                self.tallies.pop(sd, None)
        # approvals are only needed to build certificates near the tip
        if j >= 2:
            self.tallies.pop(block_digest(self.committed[j - 2].header), None)
        # a blacklist term only grows along a branch, so every candidate's
        # ledger refuses a report of an offense the head state covers, and
        # its record is no longer needed
        self.equivocations = {
            (h, accused): seen for (h, accused), seen in self.equivocations.items()
            if not offense_punished(self.head_trie.get_account(accused) or EMPTY_ACCOUNT, h,
                                    self.context.config)
        }
        actions.append(("commit", j, d))

    def _schedule(self, h: int) -> MaintainerAssignment | None:
        """The committed assignment serving height h (`core.schedule_for`),
        known up to head+2; None past that, where it depends on the branch."""
        return schedule_for(self.committed, self.genesis_assignments, h)

    # -- voting --------------------------------------------------------------

    def _vote_pass(self, tick: int, actions: list) -> None:
        if self.head == 0 and not self._genesis_voted:
            # the voters of height 1 judge the genesis block
            self._genesis_voted = True
            sched = self._schedule(1)
            if self.addr in sched.voters:
                self._cast_vote(sched, self.head_digest, True, None, actions)
        for k in (self.head + 1, self.head + 2):
            level = self.levels.get(k)
            if level is None or not level.unvoted:
                continue
            # wait for the full sibling set (or a patience timeout) so the
            # first approval, which locks this node's parent choice, is
            # made with the same evidence everywhere
            if len(level.by_creator) < len(self._schedule(k).creators):
                due = level.first_seen + self.context.vote_patience
                if tick < due:
                    self._schedule_timer(due, actions)
                    continue
            for d in sorted(level.unvoted):
                self._consider_vote(k, level, d, actions)

    def _consider_vote(self, k: int, level: Level, d: Hash, actions: list) -> None:
        blk = level.blocks[d]
        # the voters for height k+1 (who judge candidates at k) are the
        # assignment recorded in the parent block: at k = head+1 the head,
        # so a block that links elsewhere is disapproved by
        # `_resolution_matches`, not deferred for good
        voter_schedule = self._branch_schedule(k + 1, blk)
        if voter_schedule is None:
            return  # defer until the parent candidate arrives
        # the decision is made now: membership is fixed once the parent is
        # known, and every path below casts its vote or none
        level.unvoted.discard(d)
        if voter_schedule.block_height != k + 1 or self.addr not in voter_schedule.voters:
            return
        # blk and its branch validate down to the head: judged last, as the
        # costliest test
        approve = (
            len(level.by_creator[blk.header.creator]) < 2  # no equivocation
            and self._resolution_matches(k, level, blk)
            and level.locked_parent in (None, blk.header.prev_hash)
            and self._reports_substantiated(blk)
            and self._post_state_of(blk) is not None
        )
        self._cast_vote(voter_schedule, d, approve, level, actions)

    def _cast_vote(self, voter_schedule, target: Hash, approve: bool, level, actions: list) -> None:
        """Decision point: cast this node's judgement of target under
        voter_schedule.  An approval locks the level's parent (the genesis
        vote has no level); the vote is tallied here and sent to the
        schedule's members, the next height's maintainers.  `Vote.deferred`
        signs it under this node's keys only when first read, in practice
        when a certificate carrying it is digested, so about half of all
        votes, which no certificate carries, are never signed."""
        if approve and level is not None and level.locked_parent is None:
            level.locked_parent = level.blocks[target].header.prev_hash
        vote = Vote.deferred(self.addr, target, approve, self.keys)
        self._add_vote(vote)
        actions.append(("multicast", voter_schedule.members(), ("vote", vote)))

    def _is_qualified(self, d: Hash, voters) -> bool:
        tally = self.tallies[d]
        if not tally.qualified:
            tally.qualified = sum(1 for a in tally.votes if a in voters) >= self.context.quorum
        return tally.qualified

    def _resolution_matches(self, k: int, level: Level, blk: Block) -> bool:
        """Backward link must name the largest-rehash parent among those
        proven qualified by sibling certificates this node has seen.
        Certificate evidence, unlike raw vote tallies, is identical for
        every node holding the same candidate set, so honest locks agree."""
        if k == self.head + 1:
            # the committed head wins whatever its rank
            return blk.header.prev_hash == self.head_digest
        parents = {blk.header.prev_hash}  # proven by blk's own certificate
        # k is head+2, so block k-2 is the head and records k's voters
        voters = self._schedule(k).voters
        for sib in level.blocks.values():
            if sib is not blk and self.executor.certifies_parent(sib.header, voters):
                parents.add(sib.header.prev_hash)
        return max(parents, key=sibling_order) == blk.header.prev_hash

    def _reports_substantiated(self, blk: Block) -> bool:
        for report in blk.fraud_reports:
            seen = self.equivocations.get((report.height_of_offense, report.accused))
            if seen is None or report.evidence_hash != equivocation_evidence(
                report.height_of_offense, report.accused, seen
            ):
                return False
        return True

    # -- proposing -------------------------------------------------------------

    def _propose_pass(self, tick: int, actions: list) -> None:
        # commits trail candidates by two heights, so duty can reach head+3
        # (its schedule then lives in a candidate at head+1, per branch)
        for k in (self.head + 1, self.head + 2, self.head + 3):
            # could this node be a creator at k on any branch?
            level = self.levels.get(k)
            if level is None or level.proposed or not level.creator:
                continue
            resolved = self._resolve_parent(k)
            if resolved is None:
                continue
            block, sched = resolved
            if self.addr not in sched.creators:
                continue
            ci = sched.creators.index(self.addr)
            if level.quorum_tick is None:
                level.quorum_tick = tick
            due = level.quorum_tick + self.context.proposal_wait
            if tick < due:
                self._schedule_timer(due, actions)
                continue
            level.proposed = True
            self._propose(k, ci, block, sched, tick, actions)

    def _branch_schedule(self, k: int, parent: Block):
        """Assignment governing height k on parent's branch, i.e. the one
        recorded in block k-2 (parent sits at k-1)."""
        if k - 2 <= self.head:
            return self._schedule(k)
        gp = self._blocks(k - 2).get(parent.header.prev_hash)
        return gp.assignment if gp is not None else None

    def _resolve_parent(self, k: int):
        """Largest-rehash candidate at k-1 holding a 2/3 approval tally,
        together with the schedule for height k on its branch."""
        qualified = []
        for pd, blk in self._blocks(k - 1).items():
            sched = self._branch_schedule(k, blk)
            if sched is not None and sched.block_height == k and self._is_qualified(pd, sched.voters):
                qualified.append((pd, blk, sched))
        if not qualified:
            return None
        _, winner, sched = max(qualified, key=lambda q: sibling_order(q[0]))
        return winner, sched

    def _propose(self, k: int, ci: int, resolved: Block, sched, tick: int, actions: list) -> None:
        prev_digest = block_digest(resolved.header)
        voters = set(sched.voters)
        approvals = self.tallies[prev_digest].votes
        try:
            cert = build_certificate([v for a, v in approvals.items() if a in voters])
        except core.CertificateError:
            return
        pre_trie = self._post_state_of(resolved)
        if pre_trie is None:
            return
        try:
            built = assemble_block(
                self.executor,
                resolved,
                cert,
                self.addr,
                ci,
                tick,
                sched,
                duty_ended(self.committed, self.genesis_assignments, k),
                pre_trie,
                mempool=self.mempool,
                reports=self._eligible_reports(),
            )
        except NoCandidatesError as exc:
            actions.append(("halt", k, str(exc)))
            return
        self.counters["rejected_txs"] += len(built.rejected)
        for blk in self._proposals(built.block, pre_trie):
            if blk is built.block:
                self.executor.record(built, resolved, sched)
            self._add_candidate(blk, tick)
            actions.append(("broadcast", ("block", blk)))
            actions.append(("propose", k, block_digest(blk.header)))

    def _proposals(self, block: Block, pre_trie: StateTrie) -> list:
        """Decision point: the blocks to broadcast for the proposal this
        node assembled on pre_trie; an honest node sends just that one."""
        return [block]

    def _post_state_of(self, blk: Block) -> StateTrie | None:
        """The state after blk (at most head+2, so its schedule is
        committed), validated down to the head along its branch, or None
        if a block of the branch is missing or invalid."""
        h = blk.header.height
        if h == self.head:
            return self.head_trie
        parent = self._blocks(h - 1).get(blk.header.prev_hash)
        if parent is None:
            return None
        pre = self._post_state_of(parent)
        if pre is None:
            return None
        result = self.executor.validate(blk, parent, pre, self._schedule(h),
                                        duty_ended(self.committed, self.genesis_assignments, h))
        return result.post_trie if result.valid else None

    def _eligible_reports(self):
        """Reports of every equivocation this node holds by another creator."""
        return tuple(
            FraudReport(
                reporter=self.addr,
                accused=accused,
                evidence_hash=equivocation_evidence(offense_height, accused, seen),
                height_of_offense=offense_height,
            )
            for (offense_height, accused), seen in sorted(self.equivocations.items())
            if accused != self.addr
        )
