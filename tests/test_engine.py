"""Quorum arithmetic, redundant-creator resolution, and block validation."""
import dataclasses
import inspect

import pytest

from portchain import engine
from portchain.core import (
    Transaction,
    Vote,
    VoteCertificate,
    block_digest,
    build_certificate,
    vote_signing_bytes,
)
from portchain.crypto import digest, sign
from portchain.engine import (
    BlockExecutor,
    Node,
    assemble_block,
    commit_rule,
    equivocation_evidence,
    quorum_threshold,
    rehash_value,
    resolve_redundant,
)
from portchain.netsim import SimConfig, build_context, run
from portchain.selection import NoCandidatesError

from conftest import adversary_config, make_keys


def test_quorum_threshold_values():
    assert quorum_threshold(300) == 200
    assert quorum_threshold(3) == 2
    assert quorum_threshold(4) == 3
    assert quorum_threshold(6) == 4
    assert quorum_threshold(1) == 1
    # always the least integer at or above two thirds
    for n in range(1, 200):
        q = quorum_threshold(n)
        assert 3 * q >= 2 * n > 3 * (q - 1)


def _cert_over(pairs, target, count):
    votes = []
    for addr, kp in pairs[:count]:
        sig = sign(kp, vote_signing_bytes(target, True))
        votes.append(Vote(addr, target, True, sig))
    return build_certificate(votes)


def test_commit_rule_exact_boundary():
    pairs = make_keys(30)
    pubkeys = {a: k.public for a, k in pairs}
    voters = [a for a, _ in pairs]
    target = digest(b"boundary")
    q = quorum_threshold(30)
    assert commit_rule(_cert_over(pairs, target, q), voters, pubkeys)
    assert not commit_rule(_cert_over(pairs, target, q - 1), voters, pubkeys)


def test_commit_rule_small_committee():
    pairs = make_keys(3)
    pubkeys = {a: k.public for a, k in pairs}
    voters = [a for a, _ in pairs]
    target = digest(b"t")
    assert commit_rule(_cert_over(pairs, target, 2), voters, pubkeys)
    assert not commit_rule(_cert_over(pairs, target, 1), voters, pubkeys)


def test_commit_rule_rejects_duplicate_voter():
    pairs = make_keys(3)
    pubkeys = {a: k.public for a, k in pairs}
    voters = [a for a, _ in pairs]
    target = digest(b"t")
    addr, kp = pairs[0]
    v = Vote(addr, target, True, sign(kp, vote_signing_bytes(target, True)))
    padded = VoteCertificate(target_hash=target, votes=(v, v))
    assert not commit_rule(padded, voters, pubkeys)


def test_commit_rule_monotone_in_votes():
    pairs = make_keys(9)
    pubkeys = {a: k.public for a, k in pairs}
    voters = [a for a, _ in pairs]
    target = digest(b"mono")
    prev = False
    for count in range(1, 10):
        now = commit_rule(_cert_over(pairs, target, count), voters, pubkeys)
        assert now >= prev
        prev = now
    assert prev


def _fake_block(tag: bytes):
    from portchain.core import Block, BlockHeader, EMPTY_CERTIFICATE, MaintainerAssignment

    header = BlockHeader(
        height=3,
        prev_hash=digest(tag),
        creator=tag.ljust(20, b"\x00")[:20],
        creator_index=0,
        state_root=digest(b"s" + tag),
        tx_root=digest(b"x" + tag),
        prev_certificate=EMPTY_CERTIFICATE,
        timestamp=1,
        assignment_digest=digest(b"a" + tag),
    )
    return Block(header, (), MaintainerAssignment(5, (), ()), ())


def test_resolve_redundant_matches_oracle():
    blocks = [_fake_block(bytes([i])) for i in range(12)]
    # independent restatement of the rule: max re-hash, tie to smaller digest
    def oracle(cands):
        best = None
        for b in cands:
            d = block_digest(b.header)
            r = int.from_bytes(digest(b"rehash" + d), "big")
            if best is None or (r, [-x for x in d]) > (best[0], [-x for x in best[1]]):
                best = (r, d, b)
        return best[2]

    for size in (1, 2, 5, 12):
        cands = blocks[:size]
        assert resolve_redundant(cands) == oracle(cands)
        assert resolve_redundant(list(reversed(cands))) == oracle(cands)
    with pytest.raises(NoCandidatesError):
        resolve_redundant([])


def test_rehash_value_stable():
    d = digest(b"block")
    assert rehash_value(d) == int.from_bytes(digest(b"rehash" + d), "big")


def test_equivocation_evidence_order_independent():
    d1, d2 = digest(b"one"), digest(b"two")
    e = equivocation_evidence(4, b"\x01" * 20, [d1, d2])
    assert e == equivocation_evidence(4, b"\x01" * 20, [d2, d1])
    assert e != equivocation_evidence(5, b"\x01" * 20, [d1, d2])


# --- block assembly and validation -----------------------------------------


def _context():
    return build_context(SimConfig(seed=11, node_count=18, voter_count=3, creator_redundancy=2))


def _certificate(ctx, target, voters):
    key_of = dict(zip(ctx.addresses, ctx.keys))
    return build_certificate(
        Vote(v, target, True, sign(key_of[v], vote_signing_bytes(target, True))) for v in voters
    )


def _block_one(ctx, timestamp=5):
    a1 = ctx.genesis_assignments[1]
    gdigest = block_digest(ctx.genesis_block.header)
    cert = _certificate(ctx, gdigest, a1.voters)
    current = [(a, i) for i, a in enumerate(a1.members())]
    return assemble_block(
        ctx.engine_cfg,
        1,
        ctx.genesis_block,
        gdigest,
        cert,
        a1.creators[0],
        0,
        timestamp,
        current,
        (),
        ctx.genesis_trie,
        txs=(),
    )


def test_stale_mempool_entries_are_rejected_before_apply(monkeypatch):
    ctx = _context()
    key_of = dict(zip(ctx.addresses, ctx.keys))
    a1 = ctx.genesis_assignments[1]
    sender, receiver = ctx.addresses[0], ctx.addresses[1]
    # the pre-state has already applied the sender's first five transfers
    state = ctx.genesis_trie.get_account(sender)
    pre_trie = ctx.genesis_trie.upsert_account(sender, dataclasses.replace(state, nonce=5))

    def tx(nonce):
        body = Transaction(sender=sender, receiver=receiver, value=7, nonce=nonce, signature=b"")
        return dataclasses.replace(body, signature=sign(key_of[sender], body.signing_bytes()))

    mempool = {(sender, n): tx(n) for n in (4, 5, 6, 8)}
    applied = []
    real_apply = engine.apply_transaction

    def apply(trie, t, *args):
        applied.append(t.nonce)
        return real_apply(trie, t, *args)

    monkeypatch.setattr(engine, "apply_transaction", apply)
    gdigest = block_digest(ctx.genesis_block.header)
    cert = _certificate(ctx, gdigest, a1.voters)

    def assemble(cfg):
        return assemble_block(
            cfg, 1, ctx.genesis_block, gdigest, cert, a1.creators[0], 0, 5,
            [(a, i) for i, a in enumerate(a1.members())], (), pre_trie, mempool=mempool,
        )

    built = assemble(ctx.engine_cfg)
    assert [t.nonce for t in built.block.transactions] == [6]
    assert [(t.nonce, reason) for t, reason in built.rejected] == [
        (4, "bad nonce"), (5, "bad nonce"), (8, "bad nonce")
    ]
    # stale entries never reach apply_transaction; the out-of-order one does
    assert applied == [6, 8]
    # stale entries still spend the attempt budget: 4 attempts for max_txs 1
    applied.clear()
    mempool.update({(sender, n): tx(n) for n in (1, 2, 3)})
    built = assemble(dataclasses.replace(ctx.engine_cfg, max_txs=1))
    assert built.block.transactions == ()
    assert [t.nonce for t, _ in built.rejected] == [1, 2, 3, 4]
    assert applied == []


def test_assemble_block_links_and_assignment():
    ctx = _context()
    built = _block_one(ctx)
    blk = built.block
    assert blk.header.height == 1
    assert blk.header.prev_hash == block_digest(ctx.genesis_block.header)
    assert blk.assignment.block_height == 3
    members = blk.assignment.members()
    assert len(set(members)) == len(members)
    # nobody serving at heights 1 or 2 is allowed to serve height 3
    busy = set(ctx.genesis_assignments[1].members())
    busy |= set(ctx.genesis_assignments[2].members())
    assert not set(members) & busy
    assert blk.header.state_root == built.post_trie.root_commitment()


def test_executor_accepts_honest_block():
    ctx = _context()
    built = _block_one(ctx)
    ex = BlockExecutor(ctx.engine_cfg)
    result = ex.validate(
        built.block, ctx.genesis_block, ctx.genesis_trie, ctx.genesis_assignments[1], ()
    )
    assert result.valid, result.reason
    assert result.post_trie.root_commitment() == built.block.header.state_root


def test_executor_rejects_tampering():
    ctx = _context()
    built = _block_one(ctx)
    sched = ctx.genesis_assignments[1]
    good = built.block

    def check(blk, expect_reason=None):
        # a fresh executor each time: the memo is keyed by the header
        # digest, which a body-only change leaves as it is
        r = BlockExecutor(ctx.engine_cfg).validate(blk, ctx.genesis_block, ctx.genesis_trie, sched, ())
        assert not r.valid
        if expect_reason:
            assert expect_reason in r.reason

    # wrong creator slot
    check(
        dataclasses.replace(
            good, header=dataclasses.replace(good.header, creator_index=1)
        ),
        "creator not assigned",
    )
    check(
        dataclasses.replace(
            good, header=dataclasses.replace(good.header, creator_index=9)
        ),
        "creator index",
    )
    # broken backward link
    check(
        dataclasses.replace(
            good, header=dataclasses.replace(good.header, prev_hash=digest(b"no"))
        ),
        "backward link",
    )
    # doctored state root
    check(
        dataclasses.replace(
            good, header=dataclasses.replace(good.header, state_root=digest(b"no"))
        ),
        "recomputed header mismatch",
    )
    # swapped forward assignment
    fake_asg = dataclasses.replace(
        good.assignment, voters=tuple(reversed(good.assignment.voters))
    )
    check(dataclasses.replace(good, assignment=fake_asg), "assignment mismatch")
    # creators and voters trade roles
    asg = good.assignment
    swapped = dataclasses.replace(asg, creators=asg.voters[:2], voters=asg.creators + asg.voters[2:])
    check(dataclasses.replace(good, assignment=swapped), "assignment mismatch")
    # one voter substituted by an account the selection did not draw
    intruder = next(a for a in ctx.addresses if a not in asg.members())
    substituted = dataclasses.replace(asg, voters=(intruder,) + asg.voters[1:])
    check(dataclasses.replace(good, assignment=substituted), "assignment mismatch")
    # insufficient certificate
    thin = VoteCertificate(
        target_hash=good.header.prev_certificate.target_hash,
        votes=good.header.prev_certificate.votes[:1],
    )
    check(
        dataclasses.replace(
            good, header=dataclasses.replace(good.header, prev_certificate=thin)
        ),
        "2/3 rule",
    )


def test_executor_timestamp_changes_digest_only():
    ctx = _context()
    b1 = _block_one(ctx, timestamp=5).block
    b2 = _block_one(ctx, timestamp=6).block
    assert block_digest(b1.header) != block_digest(b2.header)
    assert b1.header.state_root == b2.header.state_root
    assert b1.assignment == b2.assignment


# --- node timers -------------------------------------------------------------


def _wake_ticks(actions):
    return [a[1] for a in actions if a[0] == "wake"]


def _sync_requests(actions):
    return [a for a in actions if a[0] == "send" and a[2][0] == "sync_req"]


def _bystander(ctx):
    """A node serving neither height 1 nor 2: it asks for no consensus
    timers."""
    busy = set(ctx.genesis_assignments[1].members())
    busy |= set(ctx.genesis_assignments[2].members())
    i = next(i for i, a in enumerate(ctx.addresses) if a not in busy)
    return Node(i, ctx.keys[i], ctx.engine_cfg, BlockExecutor(ctx.engine_cfg),
                ctx.genesis_block, ctx.genesis_trie, ctx.genesis_assignments)


def test_node_keeps_one_periodic_sync_wake():
    ctx = _context()
    node = _bystander(ctx)
    si = ctx.engine_cfg.sync_interval
    assert _wake_ticks(node.handle("wake", None, 0)) == [si]
    # a timer wake between periodic ticks must not arm a second periodic wake
    assert _wake_ticks(node.handle("wake", None, 7)) == []
    # the wake at si was missed (the node was down): the next wake re-arms
    # exactly one, and the stale head asks one peer for sync
    late = 2 * si + 10
    actions = node.handle("wake", None, late)
    assert _wake_ticks(actions) == [late + si]
    assert len(_sync_requests(actions)) == 1
    # until that tick, further wakes neither re-arm nor ask again
    actions = node.handle("wake", None, late + 3)
    assert _wake_ticks(actions) == [] and _sync_requests(actions) == []
    assert _wake_ticks(node.handle("wake", None, late + si)) == [late + 2 * si]


def _spy_passes(monkeypatch, node):
    """Ticks of the node's progress passes, from now on."""
    ticks = []
    real = node._progress

    def spy(tick, actions):
        ticks.append(tick)
        real(tick, actions)

    monkeypatch.setattr(node, "_progress", spy)
    return ticks


def test_idle_periodic_wake_skips_the_progress_pass(monkeypatch):
    ctx = _context()
    node = _bystander(ctx)
    passes = _spy_passes(monkeypatch, node)
    si = ctx.engine_cfg.sync_interval
    node.handle("wake", None, 0)  # a fresh node runs its first pass
    assert passes == [0]
    # nothing arrived and no timer is due: only the periodic wake re-arms
    assert node.handle("wake", None, si) == [("wake", 2 * si)]
    assert passes == [0]


def _voter_at_height_one(ctx):
    # candidates at height 1 are judged by the voters recorded in genesis
    addr = ctx.genesis_block.assignment.voters[0]
    i = ctx.addresses.index(addr)
    return Node(i, ctx.keys[i], ctx.engine_cfg, BlockExecutor(ctx.engine_cfg),
                ctx.genesis_block, ctx.genesis_trie, ctx.genesis_assignments)


def _votes(actions):
    return [a[2][1] for a in actions if a[0] == "multicast" and a[2][0] == "vote"]


def test_voter_disapproves_a_child_of_an_invalid_parent():
    ctx = _context()
    built = _block_one(ctx)
    a1, a2 = ctx.genesis_assignments[1], ctx.genesis_assignments[2]
    # the same height-1 block with a wrong state root fails validation
    bad_parent = dataclasses.replace(
        built.block, header=dataclasses.replace(built.block.header, state_root=digest(b"no"))
    )
    for parent, approve in [(built.block, True), (bad_parent, False)]:
        pd = block_digest(parent.header)
        # a height-2 child assembled on the parent's claimed post-state
        child = assemble_block(
            ctx.engine_cfg, 2, parent, pd, _certificate(ctx, pd, a2.voters), a2.creators[0], 0, 6,
            [(a, i) for i, a in enumerate(a2.members())], a1.members(), built.post_trie, txs=(),
        ).block
        # candidates at height 2 are judged by the voters the parent records
        i = ctx.addresses.index(parent.assignment.voters[0])
        node = Node(i, ctx.keys[i], ctx.engine_cfg, BlockExecutor(ctx.engine_cfg),
                    ctx.genesis_block, ctx.genesis_trie, ctx.genesis_assignments)
        node.handle("block", parent, 1)
        node.handle("block", child, 2)
        # one creator of two arrived: the vote waits out the patience timer
        actions = node.handle("wake", None, 2 + ctx.engine_cfg.vote_patience)
        [vote] = [v for v in _votes(actions) if v.target_hash == block_digest(child.header)]
        assert vote.approve == approve


def test_timer_missed_while_down_runs_the_pass_on_the_next_wake(monkeypatch):
    ctx = _context()
    node = _voter_at_height_one(ctx)
    passes = _spy_passes(monkeypatch, node)
    si = ctx.engine_cfg.sync_interval
    node.handle("wake", None, 0)
    # one of two redundant candidates arrives: the voter waits out its
    # vote patience before judging
    blk = _block_one(ctx).block
    actions = node.handle("block", blk, 2)
    due = 2 + ctx.engine_cfg.vote_patience
    assert due < si and _wake_ticks(actions) == [due] and _votes(actions) == []
    # the wake at `due` is lost (the node was down); the periodic wake
    # finds the timer overdue, runs the pass and casts the vote
    passes.clear()
    actions = node.handle("wake", None, si)
    assert passes == [si]
    [vote] = _votes(actions)
    assert vote.target_hash == block_digest(blk.header) and vote.approve
    # the overdue timer is spent: the next idle wake skips the pass
    node.handle("wake", None, 2 * si)
    assert passes == [si]


# --- build once ----------------------------------------------------------------


def _spy_assemble(monkeypatch):
    """Heights of all assemble_block calls, from now on."""
    heights = []
    real = engine.assemble_block

    def spy(*args, **kwargs):
        heights.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "assemble_block", spy)
    return heights


def _creator_at_height_one(ctx, behavior="honest"):
    """A height-1 creator fed the genesis quorum and woken past its
    proposal delay; returns the node and the actions of its proposal."""
    a1 = ctx.genesis_assignments[1]
    i = ctx.addresses.index(a1.creators[0])
    node = Node(i, ctx.keys[i], ctx.engine_cfg, BlockExecutor(ctx.engine_cfg),
                ctx.genesis_block, ctx.genesis_trie, ctx.genesis_assignments,
                behavior=behavior)
    gdigest = block_digest(ctx.genesis_block.header)
    key_of = dict(zip(ctx.addresses, ctx.keys))
    for v in a1.voters:
        node.handle("vote", Vote(v, gdigest, True, sign(key_of[v], vote_signing_bytes(gdigest, True))), 1)
    return node, node.handle("wake", None, 1 + ctx.engine_cfg.proposal_delay)


def _broadcast_blocks(actions):
    return [a[1][1] for a in actions if a[0] == "broadcast" and a[1][0] == "block"]


def test_forged_assignment_is_validated_independently(monkeypatch):
    ctx = _context()
    node, actions = _creator_at_height_one(ctx, behavior="forge_assignment")
    [forged] = _broadcast_blocks(actions)
    honest = _block_one(ctx, timestamp=forged.header.timestamp).block
    assert forged.assignment != honest.assignment
    calls = _spy_assemble(monkeypatch)
    result = node.executor.validate(forged, ctx.genesis_block, ctx.genesis_trie,
                                    ctx.genesis_assignments[1], ())
    # the creator's honest assembly was not recorded for the forgery: the
    # executor re-derives the block and names the forged schedule
    assert calls == [1]
    assert not result.valid and result.reason == "assignment mismatch"


def test_record_runs_the_validation_header_checks():
    ctx = _context()
    built = _block_one(ctx)
    a1, a2 = ctx.genesis_assignments[1], ctx.genesis_assignments[2]
    wrong_parent = dataclasses.replace(
        ctx.genesis_block, header=dataclasses.replace(ctx.genesis_block.header, timestamp=1)
    )
    for prev_block, schedule, reason in [
        (ctx.genesis_block, a2, "creator not assigned to slot"),
        (wrong_parent, a1, "backward link mismatch"),
    ]:
        recorded = BlockExecutor(ctx.engine_cfg).record(built, prev_block, schedule)
        fresh = BlockExecutor(ctx.engine_cfg).validate(
            built.block, prev_block, ctx.genesis_trie, schedule, ()
        )
        assert (recorded.valid, recorded.reason) == (fresh.valid, fresh.reason) == (False, reason)
    ex = BlockExecutor(ctx.engine_cfg)
    assert ex.record(built, ctx.genesis_block, a1).valid
    # the memo now answers for the block
    assert ex.validate(built.block, ctx.genesis_block, ctx.genesis_trie, a1, ()).post_trie is built.post_trie


def test_creator_block_is_assembled_once(monkeypatch):
    calls = _spy_assemble(monkeypatch)
    t = run(SimConfig(seed=3, node_count=16, run_height=12, tx_interval=3))
    proposals = [e for e in t.events if e[2] == "propose"]
    assert len(proposals) > 12 and len(calls) == len(proposals)


def test_recorded_assembly_equals_fresh_validation(monkeypatch):
    # equivocation puts fraud reports on the chain
    cfg = adversary_config("equivocate_creator")
    inputs = {}
    real_assemble = engine.assemble_block
    signature = inspect.signature(real_assemble)

    def assemble(*args, **kwargs):
        built = real_assemble(*args, **kwargs)
        inputs[id(built)] = signature.bind(*args, **kwargs).arguments
        return built

    recorded = []
    real_record = BlockExecutor.record

    def record(self, built, prev_block, schedule):
        result = real_record(self, built, prev_block, schedule)
        args = inputs[id(built)]
        recorded.append((built.block, prev_block, args["pre_trie"], schedule,
                         args["clear_members"], result))
        return result

    monkeypatch.setattr(engine, "assemble_block", assemble)
    monkeypatch.setattr(BlockExecutor, "record", record)
    run(cfg)
    monkeypatch.undo()
    ctx = build_context(cfg)
    assert recorded
    for blk, prev_block, pre_trie, schedule, clear_members, result in recorded:
        fresh = BlockExecutor(ctx.engine_cfg).validate(blk, prev_block, pre_trie, schedule, clear_members)
        assert fresh.valid and result.valid
        assert result.post_trie.root_commitment() == fresh.post_trie.root_commitment()
        assert (result.issued, result.confiscated) == (fresh.issued, fresh.confiscated)
    # refunds and the reporter's reward are issued; nothing is confiscated
    # unless the ledger is configured to strip an accused creator
    assert any(r[-1].issued for r in recorded)
    assert any(r[0].fraud_reports for r in recorded)
