"""Per-node consensus state machine.

Scheduling follows the jump-step rule: the creators and voters serving
height h are recorded in block h-2, voters active at height h validate
the candidates at h-1, and the certificate they produce is embedded in
block h.  Redundant creators produce sibling candidates; a successor
links to the qualified sibling with the largest re-hash of its digest.

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

from dataclasses import dataclass, field, replace

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
    verify_certificate,
)
from .crypto import Address, Hash, KeyPair, address_from_public, digest, sign, verify
from .ledger import (
    LedgerConfig,
    TxRejected,
    apply_fraud_verdict,
    apply_transaction,
    refund_reward,
)
from .selection import NoCandidatesError, SelectionConfig, select_assignment
from .trie import AccountState, StateTrie, maintainer_bits


class BlockInvalid(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def quorum_threshold(n: int) -> int:
    """PBFT-style two-thirds rule: smallest integer >= 2n/3."""
    return -(-2 * n // 3)


def commit_rule(cert: VoteCertificate, voters, public_keys) -> bool:
    """True iff cert verifies and carries approvals from at least 2/3 of
    the assigned voters."""
    if len(cert.votes) < quorum_threshold(len(voters)):
        return False
    return verify_certificate(cert, voters, public_keys)


def rehash_value(block_hash: Hash) -> int:
    """Re-hash of a block digest, compared as a big-endian integer."""
    return int.from_bytes(digest(b"rehash" + block_hash), "big")


def sibling_order(block_hash: Hash) -> tuple:
    """Rank of a block digest among redundant siblings: the largest
    re-hash wins, and a tie goes to the smaller digest."""
    return rehash_value(block_hash), bytes(255 - b for b in block_hash)


def resolve_redundant(candidates) -> Block:
    """Pick the qualified sibling block whose digest ranks first by
    `sibling_order`."""
    best = max(candidates, key=lambda blk: sibling_order(block_digest(blk.header)), default=None)
    if best is None:
        raise NoCandidatesError("no qualified candidate to resolve")
    return best


@dataclass(frozen=True)
class EngineConfig:
    voter_count: int
    creator_redundancy: int
    max_txs: int
    ledger: LedgerConfig
    public_keys: dict  # address -> public key bytes
    proposal_delay: int = 0
    sync_interval: int = 20
    # how long a voter waits for missing sibling candidates at a height
    # before judging on what arrived
    vote_patience: int = 10

    @property
    def selection(self) -> SelectionConfig:
        return SelectionConfig(
            creator_redundancy=self.creator_redundancy, voter_count=self.voter_count
        )

    @property
    def quorum(self) -> int:
        return quorum_threshold(self.voter_count)


@dataclass
class BlockResult:
    block: Block
    post_trie: StateTrie
    issued: int
    confiscated: int
    rejected: list = field(default_factory=list)


def assemble_block(
    cfg: EngineConfig,
    height: int,
    prev_block: Block,
    prev_digest: Hash,
    cert: VoteCertificate,
    creator: Address,
    creator_index: int,
    timestamp: int,
    current_maintainers,  # ordered (address, seq) for schedule(height)
    clear_members,  # maintainers of height-1, duty complete
    pre_trie: StateTrie,
    txs=None,
    mempool=None,
    reports=(),
) -> BlockResult:
    """Deterministically compute a block and its post-state.

    Creator path: pass mempool (txs=None) and valid transactions are
    picked in canonical order up to max_txs.  Validation path: pass the
    candidate's exact transaction list; any rejection raises BlockInvalid
    so a voter rejects the block rather than silently repairing it.
    """
    trie = pre_trie
    issued = 0
    confiscated = 0
    rejected: list = []

    # refunds for the previous height's maintainers who completed duty:
    # the linked creator plus every voter whose approval is in the cert
    if prev_block.header.height >= 1:
        trie, extra = refund_reward(trie, prev_block.header.creator, cfg.ledger.creator_reward)
        issued += extra
        for voter in prev_block.header.prev_certificate.voters():
            trie, extra = refund_reward(trie, voter, cfg.ledger.voter_reward)
            issued += extra

    if txs is None:
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
            sender = trie.get_account(tx.sender)
            if sender is not None and tx.nonce <= sender.nonce:
                rejected.append((tx, "bad nonce"))
                continue
            try:
                trie = apply_transaction(trie, tx, cfg.ledger, height, cfg.public_keys)
            except TxRejected as exc:
                rejected.append((tx, exc.reason))
                continue
            chosen.append(tx)
        txs = tuple(chosen)
    else:
        if len(txs) > cfg.max_txs:
            raise BlockInvalid("transaction cap exceeded")
        for tx in txs:
            try:
                trie = apply_transaction(trie, tx, cfg.ledger, height, cfg.public_keys)
            except TxRejected as exc:
                raise BlockInvalid(f"invalid transaction: {exc.reason}")

    for report in reports:
        if report.reporter == report.accused:
            raise BlockInvalid("self-accusation")
        try:
            trie, extra, taken = apply_fraud_verdict(trie, report, True, height, cfg.ledger)
        except ValueError as exc:
            raise BlockInvalid(f"bad fraud report: {exc}")
        issued += extra
        confiscated += taken

    # duty of height-1 maintainers is complete: clear their selection bits
    for addr in sorted(set(clear_members)):
        state = trie.get_account(addr)
        if state is not None and state.maintainer_bits:
            trie = trie.upsert_account(addr, replace(state, maintainer_bits=0))

    # forward link: pick the maintainers of height+2 on the post-block
    # state, excluding both adjacent service sets so nobody serves twice
    # in a row
    assignment = select_assignment(
        trie,
        prev_digest,
        current_maintainers,
        cfg.selection,
        height,
        extra_exclusions=prev_block.assignment.members(),
    )
    for slot, addr in enumerate(assignment.members()):
        state = trie.get_account(addr)
        bits = maintainer_bits(True, slot >= cfg.creator_redundancy, height + 2)
        trie = trie.upsert_account(addr, replace(state, maintainer_bits=bits))

    header = BlockHeader(
        height=height,
        prev_hash=prev_digest,
        creator=creator,
        creator_index=creator_index,
        state_root=trie.root_commitment(),
        tx_root=core.tx_merkle_root(txs),
        prev_certificate=cert,
        timestamp=timestamp,
        assignment_digest=core.assignment_digest(assignment),
    )
    block = Block(header=header, transactions=tuple(txs), assignment=assignment, fraud_reports=tuple(reports))
    return BlockResult(block=block, post_trie=trie, issued=issued, confiscated=confiscated, rejected=rejected)


@dataclass
class ExecResult:
    valid: bool
    reason: str
    post_trie: StateTrie | None
    issued: int = 0
    confiscated: int = 0


class BlockExecutor:
    """Deterministic block validation, memoized by block digest.

    Validation re-derives the whole block from its declared inputs and
    compares headers.  The computation is a pure function of the block
    (its digest covers the pre-state chain), so one executor's results
    are shared by every simulated node.  A creator seeds the memo with
    its own assembly through `record`, which runs the same header checks
    as validation, so no node assembles that block a second time.  The
    replay audit (`analysis.replay_chain`) uses an executor of its own
    and re-derives every committed block.

    The backward-link proof a header carries is memoized the same way,
    per (header digest, voter tuple) in `certifies_parent`: the digest
    fixes the certificate and the parent it must name, and the voters it
    is judged against are the only other input, so validation and every
    node's commit and vote passes share one check per header and
    committee.
    """

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        self._memo: dict[Hash, ExecResult] = {}
        self._certs: dict[tuple, bool] = {}

    def validate(
        self,
        candidate: Block,
        prev_block: Block,
        pre_trie: StateTrie,
        schedule,  # MaintainerAssignment for candidate's height
        clear_members,
    ) -> ExecResult:
        d = block_digest(candidate.header)
        hit = self._memo.get(d)
        if hit is not None:
            return hit
        result = self._validate(candidate, prev_block, pre_trie, schedule, clear_members)
        self._memo[d] = result
        return result

    def record(self, built: BlockResult, prev_block: Block, schedule) -> ExecResult:
        """Memoize a creator's own assembly as its block's validation.

        The creator's assembly is the computation `validate` would repeat
        on the same inputs, so after the same header checks its post-state
        is the validation result.  Only for blocks broadcast unaltered.
        """
        reason = self._header_fault(built.block.header, prev_block, schedule)
        if reason:
            result = ExecResult(False, reason, None)
        else:
            result = ExecResult(True, "", built.post_trie, built.issued, built.confiscated)
        return self._memo.setdefault(block_digest(built.block.header), result)

    def certifies_parent(self, hdr: BlockHeader, voters: tuple) -> bool:
        """Does the header's certificate target its named parent and pass
        `commit_rule` against the voters?  Memoized per (digest, voters)."""
        key = (block_digest(hdr), voters)
        ok = self._certs.get(key)
        if ok is None:
            cert = hdr.prev_certificate
            ok = self._certs[key] = cert.target_hash == hdr.prev_hash and commit_rule(
                cert, voters, self.cfg.public_keys
            )
        return ok

    def _header_fault(self, hdr: BlockHeader, prev_block: Block, schedule) -> str:
        """Why the header's creator slot, backward link or certificate is
        invalid, or "" if they hold."""
        cfg = self.cfg
        if hdr.creator_index >= cfg.creator_redundancy:
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
            return ExecResult(False, reason, None)
        current_maintainers = [(a, i) for i, a in enumerate(schedule.members())]
        try:
            built = assemble_block(
                self.cfg,
                hdr.height,
                prev_block,
                hdr.prev_hash,
                hdr.prev_certificate,
                hdr.creator,
                hdr.creator_index,
                hdr.timestamp,
                current_maintainers,
                clear_members,
                pre_trie,
                txs=candidate.transactions,
                reports=candidate.fraud_reports,
            )
        except (BlockInvalid, NoCandidatesError) as exc:
            return ExecResult(False, str(exc), None)
        # the header commits to the assignment's digest, so a forged
        # schedule would also fail the header comparison; check it first
        # to name the fault
        if built.block.assignment != candidate.assignment:
            return ExecResult(False, "assignment mismatch", None)
        if built.block.header != hdr:
            return ExecResult(False, "recomputed header mismatch", None)
        return ExecResult(True, "", built.post_trie, built.issued, built.confiscated)


# node behaviors (Byzantine / fault injection); honest nodes use HONEST
HONEST = "honest"
VOTE_WITHHOLD = "vote_withhold"
VOTE_DISAPPROVE_ALL = "vote_disapprove_all"
EQUIVOCATE_CREATOR = "equivocate_creator"
FORGE_ASSIGNMENT = "forge_assignment"


def equivocation_evidence(height: int, creator: Address, digests) -> Hash:
    pair = b"".join(sorted(digests)[:2])
    return digest(b"equiv" + height.to_bytes(8, "big") + creator + pair)


class Node:
    """One consensus participant; fed events, emits actions.

    Actions: ("broadcast", message), ("send", node_index, message),
    ("wake", tick), ("log", kind, info).  Messages are (kind, payload)
    tuples routed by the network simulation.
    """

    def __init__(
        self,
        index: int,
        keys: KeyPair,
        cfg: EngineConfig,
        executor: BlockExecutor,
        genesis_block: Block,
        genesis_trie: StateTrie,
        genesis_assignments: dict,
        behavior: str = HONEST,
        slot_behaviors: dict | None = None,
    ):
        self.index = index
        self.keys = keys
        self.addr = address_from_public(keys.public)
        self.cfg = cfg
        self.executor = executor
        self.behavior = behavior
        self.slot_behaviors = slot_behaviors or {}

        gd = block_digest(genesis_block.header)
        self.committed: dict[int, Block] = {0: genesis_block}
        self.committed_digest: dict[int, Hash] = {0: gd}
        self.tries: dict[int, StateTrie] = {0: genesis_trie}
        self.head = 0
        self.schedules: dict[int, MaintainerAssignment] = dict(genesis_assignments)
        self.candidates: dict[int, dict[Hash, Block]] = {}
        self.cand_height: dict[Hash, int] = {gd: 0}
        self.approvals: dict[Hash, dict[Address, Vote]] = {}
        self.disapprovals: dict[Hash, set] = {}
        self.voted: set[Hash] = set()
        # candidates per height still awaiting this node's vote decision;
        # the vote pass skips a height whose count is zero (every
        # candidate there was voted on or found to need no vote)
        self._unvoted: dict[int, int] = {}
        self.locked_parent: dict[int, Hash] = {}
        self.proposed: set[int] = set()
        self.quorum_tick: dict[int, int] = {}
        self.mempool: dict[tuple, Transaction] = {}
        self.fraud_seen: dict[tuple, list[Hash]] = {}
        self.first_seen: dict[int, int] = {}
        self.level_creators: dict[int, set] = {}
        # heights at which this node is a creator on some branch: set from
        # the assignment of each candidate two heights below, and fixed by
        # the committed block's assignment once that height commits
        self._creator_heights: set[int] = {
            k for k, a in genesis_assignments.items() if self.addr in a.creators
        }
        self.reported: set[tuple] = set()
        self.last_head_change = 0
        self.counters = {"rejected_txs": 0, "bad_messages": 0, "frauds_detected": 0}
        # quorum status per candidate digest; qualification is monotone so
        # True is sticky and False is rechecked only after new approvals
        self._qual: dict[Hash, bool] = {}
        self._qual_len: dict[Hash, int] = {}
        self._sync_attempts = 0
        # one periodic sync timer: the first wake at or after this tick runs
        # the sync check and re-arms it; other wakes never arm a second one
        self._next_sync = 0
        # pending wake ticks of every kind; deduped so a timer asked for on
        # every pass until it is due is delivered once
        self._wakes: set[int] = set()
        # ticks of this node's consensus timers (vote patience, proposal
        # delay), apart from the periodic sync wake; one at or before the
        # current wake's tick is due, also if it fell due while the node
        # was down and its own wake was lost
        self._timers: set[int] = set()
        # progress passes run only when something that can unblock a
        # consensus step arrived (new candidate, quorum crossing, sync) or
        # a timer fell due; any other wake skips the pass
        self._dirty = True

    # -- event entry point ------------------------------------------------

    def handle(self, kind: str, payload, tick: int) -> list:
        actions: list = []
        if kind == "block":
            if self._add_candidate(payload, tick):
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
            blocks, cands, votes = payload
            for blk in blocks:
                self._add_candidate(blk, tick)
            for blk in cands:
                self._add_candidate(blk, tick)
            for v in votes:
                self._add_vote(v)
        elif kind == "wake":
            self._wakes.discard(tick)
            # a wake past a missed periodic tick (the node was down) takes
            # over as the periodic one, so the timer restarts on recovery
            if tick >= self._next_sync:
                if tick - self.last_head_change >= 2 * self.cfg.sync_interval:
                    # ask one rotating peer per interval, not everyone, to
                    # bound sync traffic
                    n = len(self.cfg.public_keys)
                    peer = (self.index + 1 + self._sync_attempts) % n
                    if peer == self.index:
                        peer = (peer + 1) % n
                    self._sync_attempts += 1
                    actions.append(("send", peer, ("sync_req", (self.index, self.head))))
                self._next_sync = tick + self.cfg.sync_interval
                self._schedule_wake(self._next_sync, actions)
            # every timed condition (vote patience, proposal delay) arms a
            # timer, so a wake with no timer due finds nothing to do
            if any(t <= tick for t in self._timers):
                self._timers = {t for t in self._timers if t > tick}
                self._dirty = True
        if self._dirty:
            self._dirty = False
            self._progress(tick, actions)
        return actions

    def _schedule_wake(self, at: int, actions: list) -> None:
        if at not in self._wakes:
            self._wakes.add(at)
            actions.append(("wake", at))

    def _schedule_timer(self, at: int, actions: list) -> None:
        self._timers.add(at)
        self._schedule_wake(at, actions)

    # -- ingestion ---------------------------------------------------------

    def _add_candidate(self, blk: Block, tick: int) -> bool:
        h = blk.header.height
        if h <= self.head or h < 1:
            return False
        d = block_digest(blk.header)
        level = self.candidates.get(h)
        if level is None:
            level = self.candidates[h] = {}
        elif d in level:
            return False
        level[d] = blk
        self.cand_height[d] = h
        self._unvoted[h] = self._unvoted.get(h, 0) + 1
        self.first_seen.setdefault(h, tick)
        self.level_creators.setdefault(h, set()).add(blk.header.creator)
        if blk.assignment.block_height == h + 2 and self.addr in blk.assignment.creators:
            self._creator_heights.add(h + 2)
        self._dirty = True
        key = (h, blk.header.creator)
        seen = self.fraud_seen.setdefault(key, [])
        seen.append(d)
        if len(seen) == 2:
            self.counters["frauds_detected"] += 1
        return True

    def _add_vote(self, v: Vote) -> None:
        h = self.cand_height.get(v.target_hash)
        if h is not None and h < self.head:
            return
        if not verify(self.cfg.public_keys.get(v.voter, b""), v.signing_bytes(), v.signature):
            self.counters["bad_messages"] += 1
            return
        if v.approve:
            bucket = self.approvals.setdefault(v.target_hash, {})
            bucket[v.voter] = v
            # a quorum can only form at or past the raw-count threshold
            if v.target_hash not in self._qual and len(bucket) >= self.cfg.quorum:
                self._dirty = True
        else:
            self.disapprovals.setdefault(v.target_hash, set()).add(v.voter)

    def _sync_payload(self, req_head: int):
        blocks = [self.committed[j] for j in range(req_head + 1, self.head + 1)]
        cands = []
        for h in sorted(self.candidates):
            if h > req_head:
                cands.extend(self.candidates[h][d] for d in sorted(self.candidates[h]))
        votes = []
        for d in sorted(self.approvals):
            dh = self.cand_height.get(d)
            if dh is None or dh >= req_head:
                votes.extend(self.approvals[d][a] for a in sorted(self.approvals[d]))
        return (tuple(blocks), tuple(cands), tuple(votes))

    # -- core progression ---------------------------------------------------

    def _progress(self, tick: int, actions: list) -> None:
        while self._commit_pass(tick, actions):
            pass
        self._vote_pass(tick, actions)
        self._propose_pass(tick, actions)

    def _commit_pass(self, tick: int, actions: list) -> bool:
        k = self.head + 3
        level = self.candidates.get(k)
        if not level:
            return False
        for d in sorted(level):
            bk = level[d]
            t = self.candidates.get(k - 1, {}).get(bk.header.prev_hash)
            if t is None:
                continue
            x = self.candidates.get(k - 2, {}).get(t.header.prev_hash)
            if x is None:
                continue
            if x.header.prev_hash != self.committed_digest[self.head]:
                actions.append(("log", "violation", f"fork-ancestry@{k - 2}"))
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
        result = self.executor.validate(
            blk,
            self.committed[self.head],
            self.tries[self.head],
            self.schedules[j],
            self._clear_members(j),
        )
        if not result.valid:
            actions.append(("log", "violation", f"committed-invalid@{j}:{result.reason}"))
            return
        self.committed[j] = blk
        self.committed_digest[j] = d
        self.tries[j] = result.post_trie
        self.schedules[j + 2] = blk.assignment
        if self.addr in blk.assignment.creators:
            self._creator_heights.add(j + 2)
        else:
            self._creator_heights.discard(j + 2)
        self._creator_heights.discard(j)
        self.head = j
        self.last_head_change = tick
        for tx in blk.transactions:
            self.mempool.pop((tx.sender, tx.nonce), None)
        stale = self.candidates.pop(j, None)
        if stale:
            for sd in stale:
                if sd == d:
                    continue  # certificates over the head may still be needed
                self.cand_height.pop(sd, None)
                self.approvals.pop(sd, None)
                self.disapprovals.pop(sd, None)
                self.voted.discard(sd)
        self.locked_parent.pop(j, None)
        self._unvoted.pop(j, None)
        self.quorum_tick.pop(j, None)
        self.first_seen.pop(j, None)
        self.level_creators.pop(j, None)
        # approvals are only needed to build certificates near the tip
        old = self.committed_digest.get(j - 2)
        if old is not None:
            self.approvals.pop(old, None)
            self.cand_height.pop(old, None)
        # settled single-candidate heights cannot become fraud evidence
        for key in [k for k in self.fraud_seen if k[0] <= j - 2 and len(self.fraud_seen[k]) < 2]:
            del self.fraud_seen[key]
        actions.append(("log", "commit", f"{j}:{d.hex()[:16]}"))

    def _mark_voted(self, d: Hash) -> None:
        self.voted.add(d)
        h = self.cand_height.get(d)
        if h is not None:
            self._unvoted[h] = self._unvoted.get(h, 0) - 1

    def _clear_members(self, height: int):
        sched = self.schedules.get(height - 1)
        return sched.members() if sched is not None else ()

    # -- voting --------------------------------------------------------------

    def _vote_pass(self, tick: int, actions: list) -> None:
        if self.head == 0:
            self._maybe_vote_genesis(actions)
        for k in (self.head + 1, self.head + 2):
            level = self.candidates.get(k)
            if not level or not self._unvoted.get(k):
                continue
            # wait for the full sibling set (or a patience timeout) so the
            # first approval, which locks this node's parent choice, is
            # made with the same evidence everywhere
            if len(self.level_creators.get(k, ())) < self.cfg.creator_redundancy:
                due = self.first_seen.get(k, tick) + self.cfg.vote_patience
                if tick < due:
                    self._schedule_timer(due, actions)
                    continue
            for d in sorted(level):
                if d in self.voted:
                    continue
                self._consider_vote(k, d, level[d], actions)

    def _maybe_vote_genesis(self, actions: list) -> None:
        gd = self.committed_digest[0]
        if gd in self.voted:
            return
        sched = self.schedules[1]
        if self.addr not in sched.voters:
            return
        behavior = self._voter_behavior(sched)
        if behavior == VOTE_WITHHOLD:
            self.voted.add(gd)
            return
        self._emit_vote(gd, behavior != VOTE_DISAPPROVE_ALL, sched.members(), actions)

    def _voter_behavior(self, voter_schedule) -> str:
        if self.behavior in (VOTE_WITHHOLD, VOTE_DISAPPROVE_ALL):
            return self.behavior
        try:
            slot = voter_schedule.voters.index(self.addr)
        except ValueError:
            return HONEST
        return self.slot_behaviors.get(slot, HONEST)

    def _consider_vote(self, k: int, d: Hash, blk: Block, actions: list) -> None:
        if k == self.head + 1:
            parent = self.committed[self.head]
        else:
            parent = self.candidates.get(k - 1, {}).get(blk.header.prev_hash)
            if parent is None:
                return  # defer until the parent candidate arrives
        # the voters for height k+1 (who judge candidates at k) are the
        # assignment recorded in the parent block
        voter_schedule = parent.assignment
        if voter_schedule.block_height != k + 1 or self.addr not in voter_schedule.voters:
            self._mark_voted(d)  # membership is fixed once the parent is known
            return
        behavior = self._voter_behavior(voter_schedule)
        if behavior == VOTE_WITHHOLD:
            self._mark_voted(d)
            return
        parent_trie = self._post_state_of(parent)
        approve = parent_trie is not None
        if approve and len(self.fraud_seen.get((k, blk.header.creator), ())) > 1:
            approve = False  # equivocating creator
        if approve and not self._resolution_matches(k, blk):
            approve = False
        if approve:
            lock = self.locked_parent.get(k)
            if lock is not None and lock != blk.header.prev_hash:
                approve = False
        if approve and not self._reports_substantiated(blk):
            approve = False
        if approve:
            result = self.executor.validate(
                blk, parent, parent_trie, self.schedules[k], self._clear_members(k)
            )
            approve = result.valid
        if behavior == VOTE_DISAPPROVE_ALL:
            approve = False
        if approve and k not in self.locked_parent:
            self.locked_parent[k] = blk.header.prev_hash
        self._emit_vote(d, approve, voter_schedule.members(), actions)

    def _is_qualified(self, d: Hash, voters) -> bool:
        if self._qual.get(d):
            return True
        approvers = self.approvals.get(d)
        if not approvers:
            return False
        n = len(approvers)
        if self._qual_len.get(d) == n:
            return False
        self._qual_len[d] = n
        if sum(1 for a in approvers if a in voters) >= self.cfg.quorum:
            self._qual[d] = True
            return True
        return False

    def _resolution_matches(self, k: int, blk: Block) -> bool:
        """Backward link must name the largest-rehash parent among those
        proven qualified by sibling certificates this node has seen.
        Certificate evidence, unlike raw vote tallies, is identical for
        every node holding the same candidate set, so honest locks agree."""
        if k == self.head + 1:
            return blk.header.prev_hash == self.committed_digest[self.head]
        parents = {blk.header.prev_hash}  # proven by blk's own certificate
        sched = self.schedules.get(k)
        if sched is not None:
            for sib in self.candidates.get(k, {}).values():
                if sib is not blk and self.executor.certifies_parent(sib.header, sched.voters):
                    parents.add(sib.header.prev_hash)
        return max(parents, key=sibling_order) == blk.header.prev_hash

    def _reports_substantiated(self, blk: Block) -> bool:
        for report in blk.fraud_reports:
            key = (report.height_of_offense, report.accused)
            seen = self.fraud_seen.get(key, ())
            if len(seen) < 2:
                return False
            if report.evidence_hash != equivocation_evidence(
                report.height_of_offense, report.accused, seen
            ):
                return False
        return True

    def _emit_vote(self, target: Hash, approve: bool, recipients, actions: list) -> None:
        vote = Vote(
            voter=self.addr,
            target_hash=target,
            approve=approve,
            signature=sign(self.keys, core.vote_signing_bytes(target, approve)),
        )
        self._mark_voted(target)
        self._add_vote(vote)
        # only the next height's maintainers consume votes directly
        actions.append(("multicast", tuple(recipients), ("vote", vote)))

    # -- proposing -------------------------------------------------------------

    def _propose_pass(self, tick: int, actions: list) -> None:
        # commits trail candidates by two heights, so duty can reach head+3
        # (its schedule then lives in a candidate at head+1, per branch)
        for k in (self.head + 1, self.head + 2, self.head + 3):
            # could this node be a creator at k on any branch?
            if k in self.proposed or k not in self._creator_heights:
                continue
            resolved = self._resolve_parent(k)
            if resolved is None:
                continue
            block, sched = resolved
            if self.addr not in sched.creators:
                continue
            ci = sched.creators.index(self.addr)
            first = self.quorum_tick.setdefault(k, tick)
            due = first + self.cfg.proposal_delay
            if tick < due:
                self._schedule_timer(due, actions)
                continue
            self._propose(k, ci, block, sched, tick, actions)

    def _branch_schedule(self, k: int, parent: Block):
        """Assignment governing height k on parent's branch, i.e. the one
        recorded in block k-2 (parent sits at k-1)."""
        if k - 2 <= self.head:
            return self.schedules.get(k)
        gp = self.candidates.get(k - 2, {}).get(parent.header.prev_hash)
        return gp.assignment if gp is not None else None

    def _resolve_parent(self, k: int):
        """Largest-rehash candidate at k-1 holding a 2/3 approval tally,
        together with the schedule for height k on its branch."""
        if k - 1 == self.head:
            pool = {self.committed_digest[self.head]: self.committed[self.head]}
        elif k - 1 < self.head:
            return None
        else:
            pool = self.candidates.get(k - 1, {})
        qualified = []
        for pd in sorted(pool):
            blk = pool[pd]
            sched = self._branch_schedule(k, blk)
            if sched is None or sched.block_height != k:
                continue
            if self._is_qualified(pd, sched.voters):
                qualified.append(blk)
        if not qualified:
            return None
        winner = resolve_redundant(qualified)
        return winner, self._branch_schedule(k, winner)

    def _propose(self, k: int, ci: int, resolved: Block, sched, tick: int, actions: list) -> None:
        self.proposed.add(k)
        prev_digest = block_digest(resolved.header)
        votes = [
            self.approvals[prev_digest][a]
            for a in sorted(self.approvals.get(prev_digest, {}))
            if a in set(sched.voters)
        ]
        try:
            cert = build_certificate(votes)
        except core.CertificateError:
            return
        pre_trie = self._post_state_of(resolved)
        if pre_trie is None:
            return
        reports = self._eligible_reports(k, pre_trie)
        current_maintainers = [(a, i) for i, a in enumerate(sched.members())]
        try:
            built = assemble_block(
                self.cfg,
                k,
                resolved,
                prev_digest,
                cert,
                self.addr,
                ci,
                tick,
                current_maintainers,
                self._clear_members(k),
                pre_trie,
                mempool=self.mempool,
                reports=reports,
            )
        except (BlockInvalid, NoCandidatesError) as exc:
            actions.append(("log", "halt", f"cannot-propose@{k}:{exc}"))
            return
        self.counters["rejected_txs"] += len(built.rejected)
        blocks = [built.block]
        if self.behavior == EQUIVOCATE_CREATOR:
            twin = assemble_block(
                self.cfg, k, resolved, prev_digest, cert, self.addr, ci, tick + 1,
                current_maintainers, self._clear_members(k), pre_trie,
                txs=built.block.transactions, reports=reports,
            )
            blocks.append(twin.block)
        elif self.behavior == FORGE_ASSIGNMENT:
            blocks = [self._forge(built.block, pre_trie)]
        for blk in blocks:
            if blk is built.block:
                self.executor.record(built, resolved, sched)
            self._add_candidate(blk, tick)
            actions.append(("broadcast", ("block", blk)))
            actions.append(("log", "propose", f"{k}:{block_digest(blk.header).hex()[:16]}"))

    def _post_state_of(self, blk: Block) -> StateTrie | None:
        h = blk.header.height
        if h <= self.head:
            return self.tries.get(h)
        if h - 1 == self.head:
            parent = self.committed[self.head]
            if blk.header.prev_hash != self.committed_digest[self.head]:
                return None
        else:
            parent = self.candidates.get(h - 1, {}).get(blk.header.prev_hash)
            if parent is None:
                return None
        pre = self._post_state_of(parent)
        sched = self._branch_schedule(h, parent)
        if pre is None or sched is None:
            return None
        result = self.executor.validate(blk, parent, pre, sched, self._clear_members(h))
        return result.post_trie if result.valid else None

    def _eligible_reports(self, height: int, trie: StateTrie):
        reports = []
        for key in sorted(self.fraud_seen):
            offense_height, accused = key
            seen = self.fraud_seen[key]
            if len(seen) < 2 or key in self.reported or accused == self.addr:
                continue
            state = trie.get_account(accused)
            if state is None or state.blacklist_until > height:
                continue
            self.reported.add(key)
            reports.append(
                FraudReport(
                    reporter=self.addr,
                    accused=accused,
                    evidence_hash=equivocation_evidence(offense_height, accused, seen),
                    height_of_offense=offense_height,
                )
            )
        return tuple(reports)

    def _forge(self, blk: Block, pre_trie: StateTrie) -> Block:
        """Replace the last assigned voter with a crony; the header keeps
        the forged assignment digest so the forgery is internally
        consistent but fails independent re-selection."""
        members = set(blk.assignment.members())
        crony = None
        for addr, _state in pre_trie.accounts():
            if addr not in members and addr != self.addr:
                crony = addr
                break
        if crony is None:
            return blk
        forged = MaintainerAssignment(
            block_height=blk.assignment.block_height,
            creators=blk.assignment.creators,
            voters=blk.assignment.voters[:-1] + (crony,),
        )
        header = replace(blk.header, assignment_digest=core.assignment_digest(forged))
        return Block(header=header, transactions=blk.transactions,
                     assignment=forged, fraud_reports=blk.fraud_reports)
