"""Quorum arithmetic, redundant-creator resolution, and block validation."""
import dataclasses
import inspect

import pytest

from portchain import crypto, engine, netsim
from portchain.adversary import ByzantineNode
from portchain.analysis import replay_chain
from portchain.core import (
    FraudReport,
    Transaction,
    Vote,
    VoteCertificate,
    block_digest,
    build_certificate,
    duty_ended,
    schedule_for,
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
    sibling_order,
)
from portchain.netsim import AdversarySpec, SimConfig, build_context, run
from portchain.selection import NoCandidatesError
from portchain.trie import MAINTAINER_ODD, MAINTAINER_SELECTED, MAINTAINER_VOTER

from conftest import adversary_config, make_keys, replayed_steps


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

    def rank(blk):
        return sibling_order(block_digest(blk.header))

    for size in (1, 2, 5, 12):
        cands = blocks[:size]
        assert max(cands, key=rank) == oracle(cands)
        assert max(reversed(cands), key=rank) == oracle(cands)


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


def _block_one(ctx, timestamp=5, slot=0):
    a1 = ctx.genesis_assignments[1]
    gdigest = block_digest(ctx.genesis_block.header)
    cert = _certificate(ctx, gdigest, a1.voters)
    return assemble_block(
        BlockExecutor(ctx),
        ctx.genesis_block,
        cert,
        a1.creators[slot],
        slot,
        timestamp,
        a1,
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
    pre_trie = ctx.genesis_trie.upsert_account(sender, state.changed(nonce=5))

    def tx(nonce):
        body = Transaction(sender=sender, receiver=receiver, value=7, nonce=nonce, signature=b"")
        return dataclasses.replace(body, signature=sign(key_of[sender], body.signing_bytes()))

    mempool = {(sender, n): tx(n) for n in (4, 5, 6, 8)}
    applied = []
    real_apply = engine.apply_transaction

    def apply(writes, t, *args):
        applied.append(t.nonce)
        real_apply(writes, t, *args)

    monkeypatch.setattr(engine, "apply_transaction", apply)
    gdigest = block_digest(ctx.genesis_block.header)
    cert = _certificate(ctx, gdigest, a1.voters)

    def assemble(context):
        return assemble_block(
            BlockExecutor(context), ctx.genesis_block, cert, a1.creators[0], 0, 5, a1, (), pre_trie,
            mempool=mempool,
        )

    built = assemble(ctx)
    assert [t.nonce for t in built.block.transactions] == [6]
    assert [(t.nonce, reason) for t, reason in built.rejected] == [
        (4, "bad nonce"), (5, "bad nonce"), (8, "bad nonce")
    ]
    # stale entries never reach apply_transaction; the out-of-order one does
    assert applied == [6, 8]
    # stale entries still spend the attempt budget: 4 attempts for max_txs 1
    applied.clear()
    mempool.update({(sender, n): tx(n) for n in (1, 2, 3)})
    built = assemble(dataclasses.replace(ctx, config=dataclasses.replace(ctx.config, max_txs=1)))
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


@pytest.mark.parametrize("cfg", [
    SimConfig(seed=3, node_count=16, run_height=40),
    adversary_config("equivocate_creator"),
    SimConfig(seed=7, node_count=21, voter_count=5, run_height=60, drop_probability=0.05),
], ids=["plain", "equivocation", "drops"])
def test_maintainer_record_marks_the_three_serving_schedules(cfg):
    # after block h, the accounts with a record are the members of the
    # schedules serving h, h+1 and h+2, each set once, and each record
    # holds its slot's role and its served height's parity
    chain, ctx = run(cfg).chain, build_context(cfg)
    steps = replayed_steps(chain, ctx)
    assert len(steps) == cfg.run_height + 1
    for h, step in enumerate(steps):
        expected = {}
        for served in (h, h + 1, h + 2):
            sched = schedule_for(chain, ctx.genesis_assignments, served)
            if sched is None:  # genesis serves no height
                continue
            for slot, addr in enumerate(sched.members()):
                assert addr not in expected
                expected[addr] = (MAINTAINER_SELECTED
                                  | (MAINTAINER_VOTER if slot >= len(sched.creators) else 0)
                                  | (MAINTAINER_ODD if served % 2 else 0))
        records = {a: s.maintainer_bits for a, s in step.post_trie.accounts() if s.maintainer_bits}
        assert records == expected


def test_executor_accepts_honest_block():
    ctx = _context()
    built = _block_one(ctx)
    ex = BlockExecutor(ctx)
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

    # one executor that has already judged the honest block: a memo entry
    # must not answer for another body under the same header
    ex = BlockExecutor(ctx)
    assert ex.validate(good, ctx.genesis_block, ctx.genesis_trie, sched, ()).valid

    def check(blk, expect_reason=None):
        r = ex.validate(blk, ctx.genesis_block, ctx.genesis_trie, sched, ())
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
    # a height other than the parent's plus one
    check(
        dataclasses.replace(good, header=dataclasses.replace(good.header, height=2)),
        "recomputed header mismatch",
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
    # a certificate over another block
    elsewhere = dataclasses.replace(good.header.prev_certificate, target_hash=digest(b"no"))
    check(
        dataclasses.replace(
            good, header=dataclasses.replace(good.header, prev_certificate=elsewhere)
        ),
        "certificate targets wrong block",
    )
    # transaction lists the block may not carry: one past the cap, and an
    # unsigned transfer
    unsigned = Transaction(sender=ctx.addresses[0], receiver=ctx.addresses[1], value=7,
                           nonce=1, signature=b"")
    check(dataclasses.replace(good, transactions=(unsigned,) * (ctx.config.max_txs + 1)),
          "transaction cap exceeded")
    check(dataclasses.replace(good, transactions=(unsigned,)),
          "invalid transaction: bad signature")


def test_fraud_reports_follow_the_ledger_rule():
    ctx = _context()
    a1 = ctx.genesis_assignments[1]
    creator = a1.creators[0]
    accused = next(a for a in ctx.addresses if a not in a1.members())
    gdigest = block_digest(ctx.genesis_block.header)
    cert = _certificate(ctx, gdigest, a1.voters)
    duration = ctx.config.blacklist_duration

    def report(offense=1, by=creator, against=accused):
        return FraudReport(reporter=by, accused=against, evidence_hash=digest(b"e"),
                           height_of_offense=offense)

    def assemble(reports, pre_trie=ctx.genesis_trie, txs=None):
        return assemble_block(BlockExecutor(ctx), ctx.genesis_block, cert, creator, 0, 5,
                              a1, (), pre_trie, txs=txs, mempool={}, reports=reports)

    # the accused already serves a term that began at height 1
    state = ctx.genesis_trie.get_account(accused)
    punished = ctx.genesis_trie.upsert_account(accused, state.changed(blacklist_until=1 + duration))
    refused = [
        (report(by=accused, against=accused), ctx.genesis_trie, "self-accusation"),
        (report(by=a1.creators[1]), ctx.genesis_trie, "reporter is not the block's creator"),
        (report(offense=2), ctx.genesis_trie, "offense above the block height"),
        (report(against=digest(b"nobody")[:20]), ctx.genesis_trie,
         "accused account does not exist"),
        (report(), punished, "offense already punished"),
    ]
    good = report()
    honest = assemble((good,))
    assert honest.block.fraud_reports == (good,)
    for bad, pre_trie, named in refused:
        # the creator drops a refused report and still proposes
        built = assemble((bad, good), pre_trie)
        expected = () if pre_trie is punished else (good,)
        assert built.block.fraud_reports == expected
        assert built.post_trie.root_commitment() == assemble(expected, pre_trie).post_trie.root_commitment()
        # a validator refuses a block that carries it
        with pytest.raises(engine.BlockInvalid, match=f"bad fraud report: {named}"):
            assemble((bad,), pre_trie, txs=())
    # a second report of one offense, or of another offense at or below
    # the block by the same accused, in one block: the first term covers it
    other = report(offense=0)
    assert assemble((good, good, other)).block.fraud_reports == (good,)
    for twice in [(good, good), (good, other)]:
        with pytest.raises(engine.BlockInvalid, match="bad fraud report: offense already punished"):
            assemble(twice, txs=())
    # the executor names the fault of a block that re-reports a covered offense
    blk = dataclasses.replace(honest.block, fraud_reports=(good, good))
    result = BlockExecutor(ctx).validate(blk, ctx.genesis_block, ctx.genesis_trie, a1, ())
    assert not result.valid and result.reason == "bad fraud report: offense already punished"


def test_executor_memo_answers_only_for_the_validated_body():
    ctx = _context()
    sched = ctx.genesis_assignments[1]
    good = _block_one(ctx).block
    asg = good.assignment
    intruder = next(a for a in ctx.addresses if a not in asg.members())
    # the same header over a substituted last voter
    forged = dataclasses.replace(
        good, assignment=dataclasses.replace(asg, voters=asg.voters[:-1] + (intruder,))
    )
    assert block_digest(forged.header) == block_digest(good.header)

    def validate(ex, blk):
        return ex.validate(blk, ctx.genesis_block, ctx.genesis_trie, sched, ())

    ex = BlockExecutor(ctx)
    first = validate(ex, good)
    assert first.valid
    r = validate(ex, forged)
    assert not r.valid and r.reason == "assignment mismatch"
    # the forged body left the entry alone, and an equal copy of the
    # honest body is answered from it
    assert validate(ex, good) is first
    assert validate(ex, dataclasses.replace(good)) is first
    # the other order: the forged body is judged first
    ex = BlockExecutor(ctx)
    assert validate(ex, forged).reason == "assignment mismatch"
    assert validate(ex, good).valid
    assert validate(ex, forged).reason == "assignment mismatch"


def test_rejected_transaction_leaves_no_write():
    ctx = _context()
    key_of = dict(zip(ctx.addresses, ctx.keys))
    a1 = ctx.genesis_assignments[1]
    gdigest = block_digest(ctx.genesis_block.header)
    cert = _certificate(ctx, gdigest, a1.voters)
    payer, rich, receiver = ctx.addresses[:3]

    def tx(sender, value):
        body = Transaction(sender=sender, receiver=receiver, value=value, nonce=1, signature=b"")
        return dataclasses.replace(body, signature=sign(key_of[sender], body.signing_bytes()))

    def assemble(mempool):
        return assemble_block(
            BlockExecutor(ctx), ctx.genesis_block, cert, a1.creators[0], 0, 5, a1, (),
            ctx.genesis_trie, mempool=mempool,
        )

    balance = ctx.genesis_trie.get_account(rich).balance
    paid = tx(payer, 7)
    overdrawn = tx(rich, balance)  # the tax on top makes it unpayable
    built = assemble({(payer, 1): paid, (rich, 1): overdrawn})
    assert built.block.transactions == (paid,)
    assert built.rejected == [(overdrawn, "insufficient balance")]
    alone = assemble({(payer, 1): paid})
    assert built.post_trie.root_commitment() == alone.post_trie.root_commitment()
    assert built.post_trie.get_account(rich) == ctx.genesis_trie.get_account(rich)


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


def _node_of(ctx, addr):
    """A fresh honest node holding addr's key, at genesis."""
    i = ctx.addresses.index(addr)
    return Node(i, ctx, BlockExecutor(ctx))


def _bystander(ctx):
    """A node serving neither height 1 nor 2: it asks for no consensus
    timers."""
    busy = set(ctx.genesis_assignments[1].members())
    busy |= set(ctx.genesis_assignments[2].members())
    return _node_of(ctx, next(a for a in ctx.addresses if a not in busy))


def test_node_keeps_one_periodic_sync_wake():
    ctx = _context()
    node = _bystander(ctx)
    si = ctx.config.sync_interval
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
    si = ctx.config.sync_interval
    node.handle("wake", None, 0)  # a fresh node runs its first pass
    assert passes == [0]
    # nothing arrived and no timer is due: only the periodic wake re-arms
    assert node.handle("wake", None, si) == [("wake", 2 * si)]
    assert passes == [0]


def _voter_at_height_one(ctx):
    # candidates at height 1 are judged by the voters recorded in genesis
    return _node_of(ctx, ctx.genesis_block.assignment.voters[0])


def _votes(actions):
    return [a[2][1] for a in actions if a[0] == "multicast" and a[2][0] == "vote"]


def test_vote_wait_counts_distinct_creators():
    ctx = _context()
    patience = ctx.vote_patience
    # two candidates from one creator fill no second sibling slot: the
    # voter waits out its patience before judging either
    node = _voter_at_height_one(ctx)
    node.handle("wake", None, 0)
    node.handle("block", _block_one(ctx, timestamp=5).block, 1)
    assert _votes(node.handle("block", _block_one(ctx, timestamp=6).block, 2)) == []
    assert _votes(node.handle("wake", None, patience)) == []
    assert len(_votes(node.handle("wake", None, 1 + patience))) == 2
    # one candidate from each genesis creator ends the wait at once
    node = _voter_at_height_one(ctx)
    node.handle("wake", None, 0)
    assert _votes(node.handle("block", _block_one(ctx, slot=0).block, 1)) == []
    assert len(_votes(node.handle("block", _block_one(ctx, slot=1).block, 2))) == 2


def test_forged_votes_count_as_bad_messages():
    ctx = _context()
    node = _bystander(ctx)
    node.handle("wake", None, 0)
    (voter, other), target = ctx.genesis_assignments[1].voters[:2], digest(b"target")
    key_of = dict(zip(ctx.addresses, ctx.keys))
    message = vote_signing_bytes(target, True)
    sig = sign(key_of[voter], message)
    forged = [
        Vote(voter, target, True, signature) for signature in [
            sign(key_of[other], message),  # another voter's key
            bytes([sig[0] ^ 1]) + sig[1:],  # tampered
            sign(key_of[voter], vote_signing_bytes(target, False)),  # other message
        ]
    ] + [
        # another voter's key on a vote cast by a node, judged before signing
        Vote.deferred(voter, target, True, key_of[other])
    ]
    for i, vote in enumerate(forged, 1):
        node.handle("vote", vote, i)
        assert node.counters["bad_messages"] == i
    assert target not in node.tallies
    node.handle("vote", Vote(voter, target, True, sig), 9)
    node.handle("vote", Vote.deferred(other, target, True, key_of[other]), 10)
    assert node.counters["bad_messages"] == len(forged)
    assert set(node.tallies[target].votes) == {voter, other}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="junk votes: any key holder's approval of any digest opens a "
                   "Tally that nothing bounds or drops (ROADMAP item 21)")
def test_junk_approvals_stay_bounded_and_count_as_bad_messages():
    # a node outside every genesis voter set approves 1,000 random digests
    cfg = SimConfig(seed=1, node_count=16)
    ctx = build_context(cfg)
    node = Node(0, ctx, BlockExecutor(ctx))
    node.handle("wake", None, 0)
    voters = {v for a in ctx.genesis_assignments.values() for v in a.voters}
    junk = next(i for i, a in enumerate(ctx.addresses) if a not in voters and i != 0)
    for k in range(1000):
        target = digest(b"junk" + k.to_bytes(4, "big"))
        node.handle("vote", Vote.deferred(ctx.addresses[junk], target, True, ctx.keys[junk]), 1)
    assert len(node.tallies) <= 4 * cfg.voter_count * cfg.creator_redundancy
    assert node.counters["bad_messages"] == 1000


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="relayed heights: a block of any height above the head opens a "
                   "Level, so a relay can make a node hold any number (ROADMAP item 2)")
def test_relayed_blocks_far_above_the_head_open_no_level():
    # a relay re-sends one committed block 200 times, each far above the head
    t = run(SimConfig(seed=1, node_count=16, run_height=3))
    node = Node(0, t.context, BlockExecutor(t.context))
    blk = t.chain[1]
    for k in range(200):
        header = dataclasses.replace(blk.header, height=10**6 + k)
        node.handle("block", dataclasses.replace(blk, header=header), 1)
    assert all(h <= node.head + 3 for h in node.levels)


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
            BlockExecutor(ctx), parent, _certificate(ctx, pd, a2.voters), a2.creators[0],
            0, 6, a2, a1.members(), built.post_trie, txs=(),
        ).block
        # candidates at height 2 are judged by the voters the parent records
        node = _node_of(ctx, parent.assignment.voters[0])
        node.handle("block", parent, 1)
        node.handle("block", child, 2)
        # one creator of two arrived: the vote waits out the patience timer
        actions = node.handle("wake", None, 2 + ctx.vote_patience)
        [vote] = [v for v in _votes(actions) if v.target_hash == block_digest(child.header)]
        assert vote.approve == approve


# blocks 1-3 of this run, delivered to a fresh node out of order
_SMALL_RUN = SimConfig(seed=11, node_count=18, voter_count=3, creator_redundancy=2, run_height=4)


def test_vote_on_a_head_plus_two_candidate_waits_for_its_parent():
    chain, ctx = run(_SMALL_RUN).chain, build_context(_SMALL_RUN)
    patience = ctx.vote_patience
    # candidates at height 2 are judged by the voters block 1 records
    node = _node_of(ctx, chain[1].assignment.voters[0])
    d2 = block_digest(chain[2].header)
    node.handle("wake", None, 0)
    node.handle("block", chain[2], 1)
    # past the patience wait the vote still waits for the parent, and the
    # candidate stays to be judged
    assert _votes(node.handle("wake", None, 1 + patience)) == []
    assert d2 in node.levels[2].unvoted
    votes = _votes(node.handle("block", chain[1], 2 + patience))
    assert [(v.target_hash, v.approve) for v in votes] == [(d2, True)]


@pytest.mark.parametrize("held", [2, 1], ids=["parent", "grandparent"])
def test_commit_waits_for_the_ancestors_of_a_head_plus_three_block(held):
    chain, ctx = run(_SMALL_RUN).chain, build_context(_SMALL_RUN)
    node = _bystander(ctx)

    def commits(actions):
        return [a[1:] for a in actions if a[0] == "commit"]

    for tick, h in enumerate([h for h in (3, 2, 1) if h != held], 1):
        assert commits(node.handle("block", chain[h], tick)) == []
    assert node.head == 0
    assert commits(node.handle("block", chain[held], 9)) == [(1, block_digest(chain[1].header))]


def test_commit_waits_for_a_head_plus_three_block_whose_certificate_holds():
    chain, ctx = run(_SMALL_RUN).chain, build_context(_SMALL_RUN)
    node = _bystander(ctx)
    # a copy of block 3 whose certificate on block 2 is one vote short of quorum
    cert = chain[3].header.prev_certificate
    short = dataclasses.replace(cert, votes=cert.votes[:ctx.quorum - 1])
    forged = dataclasses.replace(chain[3], header=dataclasses.replace(chain[3].header,
                                                                      prev_certificate=short))
    for tick, blk in enumerate([chain[1], chain[2], forged], 1):
        assert [a for a in node.handle("block", blk, tick) if a[0] == "commit"] == []
    assert node.head == 0
    commits = [a[1:] for a in node.handle("block", chain[3], 9) if a[0] == "commit"]
    assert commits == [(1, block_digest(chain[1].header))]


def test_timer_missed_while_down_runs_the_pass_on_the_next_wake(monkeypatch):
    ctx = _context()
    node = _voter_at_height_one(ctx)
    passes = _spy_passes(monkeypatch, node)
    si = ctx.config.sync_interval
    node.handle("wake", None, 0)
    # one of two redundant candidates arrives: the voter waits out its
    # vote patience before judging
    blk = _block_one(ctx).block
    actions = node.handle("block", blk, 2)
    due = 2 + ctx.vote_patience
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
        heights.append(args[1].header.height + 1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "assemble_block", spy)
    return heights


def _creator_at_height_one(ctx, kind=None, equivocations=(), txs=()):
    """A height-1 creator, playing the given adversary kind if any and
    holding the given equivocation records and transactions, fed the
    genesis quorum and woken past its proposal delay; returns the node and
    the actions of its proposal."""
    a1 = ctx.genesis_assignments[1]
    i = ctx.addresses.index(a1.creators[0])
    args = (i, ctx, BlockExecutor(ctx))
    node = ByzantineNode(*args, kind=kind, slot_kinds={}) if kind else Node(*args)
    node.equivocations.update(equivocations)
    for tx in txs:
        node.handle("tx", tx, 1)
    gdigest = block_digest(ctx.genesis_block.header)
    key_of = dict(zip(ctx.addresses, ctx.keys))
    for v in a1.voters:
        node.handle("vote", Vote(v, gdigest, True, sign(key_of[v], vote_signing_bytes(gdigest, True))), 1)
    return node, node.handle("wake", None, 1 + ctx.proposal_wait)


def _broadcast_blocks(actions):
    return [a[1][1] for a in actions if a[0] == "broadcast" and a[1][0] == "block"]


def test_creator_proposes_without_the_reports_the_ledger_refuses():
    ctx = _context()
    a1 = ctx.genesis_assignments[1]
    other = next(a for a in ctx.addresses if a not in a1.members())
    twins = [digest(b"x"), digest(b"y")]
    # its own offense, one at the block's height and one above it
    node, actions = _creator_at_height_one(ctx, equivocations={
        (1, a1.creators[0]): twins, (1, other): twins, (2, other): twins,
    })
    [blk] = _broadcast_blocks(actions)
    assert [(r.height_of_offense, r.accused) for r in blk.fraud_reports] == [(1, other)]
    assert not [a for a in actions if a[0] == "halt"]


def test_voter_refuses_a_report_it_did_not_witness():
    ctx = _context()
    a1 = ctx.genesis_assignments[1]
    other = next(a for a in ctx.addresses if a not in a1.members())
    twins = {(1, other): [digest(b"x"), digest(b"y")]}
    _, actions = _creator_at_height_one(ctx, equivocations=twins)
    [reporting] = _broadcast_blocks(actions)
    assert [r.accused for r in reporting.fraud_reports] == [other]
    sibling = _block_one(ctx, slot=1).block
    # a voter that saw the equivocation approves both candidates; one that
    # did not disapproves the block whose report it cannot substantiate
    for witnessed, approve in [(twins, True), ({}, False)]:
        node = _voter_at_height_one(ctx)
        node.equivocations.update(witnessed)
        node.handle("wake", None, 0)
        node.handle("block", reporting, 1)
        votes = {v.target_hash: v.approve for v in _votes(node.handle("block", sibling, 2))}
        assert votes == {block_digest(reporting.header): approve, block_digest(sibling.header): True}


def test_equivocations_end_once_the_head_state_covers_them(monkeypatch):
    # node 3 equivocates; with every record kept for good, creators offer
    # 1,165 reports over the run's 244 proposals, and the ledger keeps 20
    cfg = SimConfig(seed=3, node_count=18, run_height=120, blacklist_duration=10,
                    adversaries=(AdversarySpec(kind="equivocate_creator", node=3),))
    offered, kept, covered = [], [], []
    real_assemble, real_commit = engine.assemble_block, Node._commit

    def assemble(*args, **kwargs):
        built = real_assemble(*args, **kwargs)
        if kwargs.get("mempool") is not None:  # the creator path
            offered.append(len(kwargs["reports"]))
            kept.append(len(built.block.fraud_reports))
        return built

    def commit(self, blk, tick, actions):
        real_commit(self, blk, tick, actions)
        covered.extend(
            (self.index, h, accused) for h, accused in self.equivocations
            if self.head_trie.get_account(accused).blacklist_until >= h + cfg.blacklist_duration
        )

    monkeypatch.setattr(engine, "assemble_block", assemble)
    monkeypatch.setattr(Node, "_commit", commit)
    t = run(cfg)
    assert not t.stalled and t.counters["frauds_detected"] > 0
    assert covered == []
    assert len(offered) == 244 and sum(kept) == 20 and sum(offered) < 100


def test_equivocation_twin_copies_the_proposal(monkeypatch):
    # the twin is the proposal under a header one tick later: the block a
    # fresh assembly from the same inputs gives, with a digest of its own,
    # and it costs no assembly of its own
    ctx = _context()
    a1 = ctx.genesis_assignments[1]
    other = next(a for a in ctx.addresses if a not in a1.members())
    sender, receiver = ctx.addresses[0], ctx.addresses[1]
    body = Transaction(sender=sender, receiver=receiver, value=7, nonce=1, signature=b"")
    tx = dataclasses.replace(body, signature=sign(ctx.keys[0], body.signing_bytes()))
    calls = _spy_assemble(monkeypatch)
    _, actions = _creator_at_height_one(ctx, kind="equivocate_creator", txs=(tx,),
                                        equivocations={(1, other): [digest(b"x"), digest(b"y")]})
    block, twin = _broadcast_blocks(actions)
    assert calls == [1]
    assert block.transactions == (tx,) and len(block.fraud_reports) == 1
    reference = assemble_block(
        BlockExecutor(ctx), ctx.genesis_block, block.header.prev_certificate,
        a1.creators[0], 0, block.header.timestamp + 1, a1, (), ctx.genesis_trie,
        txs=block.transactions, reports=block.fraud_reports,
    ).block
    assert twin == reference
    assert block_digest(block.header) != block_digest(twin.header) == block_digest(reference.header)
    assert [a[2] for a in actions if a[0] == "propose"] == [
        block_digest(block.header), block_digest(twin.header)
    ]
    # a header's cached digest does not survive `replace`
    assert "_cached_digest" in vars(block.header)
    copy = dataclasses.replace(block.header, timestamp=block.header.timestamp + 1)
    assert block_digest(copy) == block_digest(reference.header)


def _reference_resolve_parent(node, k):
    """`Node._resolve_parent` as written with a head case of its own."""
    if k - 1 == node.head:
        pool = {node.head_digest: node.committed[-1]}
    elif k - 1 < node.head:
        return None
    else:
        pool = node.levels[k - 1].blocks if k - 1 in node.levels else {}
    qualified = []
    for pd in sorted(pool):
        sched = node._branch_schedule(k, pool[pd])
        if sched is not None and sched.block_height == k and node._is_qualified(pd, sched.voters):
            qualified.append(pool[pd])
    if not qualified:
        return None
    winner = max(qualified, key=lambda blk: sibling_order(block_digest(blk.header)))
    return winner, node._branch_schedule(k, winner)


def _reference_post_state(node, blk):
    """`Node._post_state_of` as written with a head case of its own."""
    h = blk.header.height
    if h == node.head:
        return node.head_trie
    if h - 1 == node.head:
        parent = node.committed[-1]
        if blk.header.prev_hash != node.head_digest:
            return None
    else:
        level = node.levels.get(h - 1)
        parent = level.blocks.get(blk.header.prev_hash) if level is not None else None
        if parent is None:
            return None
    pre = _reference_post_state(node, parent)
    sched = node._branch_schedule(h, parent)
    if pre is None or sched is None:
        return None
    result = node.executor.validate(blk, parent, pre, sched,
                                    duty_ended(node.committed, node.genesis_assignments, h))
    return result.post_trie if result.valid else None


def test_head_is_looked_up_like_any_height(monkeypatch):
    # `_blocks` gives the committed block at the head, so parent resolution
    # and post-states look the head up like any height, with the answers of
    # a head case of their own
    real_resolve, real_post = Node._resolve_parent, Node._post_state_of
    heads = []

    def resolve(self, k):
        assert self._blocks(self.head) == {self.head_digest: self.committed[-1]}
        got = real_resolve(self, k)
        assert got == _reference_resolve_parent(self, k)
        if got is not None and k - 1 == self.head:
            heads.append(k)
        return got

    def post(self, blk):
        got = real_post(self, blk)
        reference = _reference_post_state(self, blk)
        assert (got is None) == (reference is None)
        assert got is None or got.root_commitment() == reference.root_commitment()
        return got

    monkeypatch.setattr(Node, "_resolve_parent", resolve)
    monkeypatch.setattr(Node, "_post_state_of", post)
    assert not run(adversary_config("equivocate_creator")).stalled
    assert heads


def _reference_vote(node, k, level, d):
    """The approval `Node._consider_vote` emits on candidate d at height
    k, as written with the parent's post-state and a validation of its
    own and with the vote rewrite of a Byzantine node applied last; None
    where it emits no vote."""
    blk = level.blocks[d]
    if k == node.head + 1:
        parent = node.committed[-1]
    else:
        parent = node._blocks(k - 1).get(blk.header.prev_hash)
        if parent is None:
            return None
    voter_schedule = parent.assignment
    if voter_schedule.block_height != k + 1 or node.addr not in voter_schedule.voters:
        return None
    rule = node._vote_rule(voter_schedule) if isinstance(node, ByzantineNode) else None
    parent_trie = node._post_state_of(parent)
    approve = (
        parent_trie is not None
        and len(level.by_creator[blk.header.creator]) < 2
        and node._resolution_matches(k, level, blk)
        and level.locked_parent in (None, blk.header.prev_hash)
        and node._reports_substantiated(blk)
        and node.executor.validate(
            blk, parent, parent_trie, node._schedule(k),
            duty_ended(node.committed, node.genesis_assignments, k),
        ).valid
    )
    return approve if rule is None else rule(approve)


@pytest.mark.parametrize("cfg", [
    adversary_config("equivocate_creator"),
    adversary_config("forge_assignment"),
    # crash recovery on a lossy network (test_golden's crash-drops case)
    SimConfig(seed=4, node_count=16, run_height=30, drop_probability=0.05,
              adversaries=(AdversarySpec(kind="crash", node=3, start_tick=10, recover_tick=120),
                           AdversarySpec(kind="crash", node=7, start_tick=40, recover_tick=200))),
    # with a voter-slot kind every node is a ByzantineNode, and whoever
    # holds slot 1 casts no vote
    dataclasses.replace(adversary_config("equivocate_creator"), adversaries=(
        AdversarySpec(kind="equivocate_creator", node=2),
        AdversarySpec(kind="vote_withhold", voter_slot=1))),
], ids=["equivocate", "forge", "crash-drops", "equivocate-withhold-slot"])
def test_vote_reads_validity_from_the_post_state(monkeypatch, cfg):
    # a voter approves a valid candidate through `_post_state_of(blk)`,
    # with the answer of validating it on its parent's post-state
    real_consider = Node._consider_vote
    decisions = []

    def consider(self, k, level, d, actions):
        expected = _reference_vote(self, k, level, d)
        start = len(actions)
        real_consider(self, k, level, d, actions)
        emitted = [a[2][1].approve for a in actions[start:] if a[0] == "multicast"]
        assert emitted == ([] if expected is None else [expected])
        decisions.append(expected)

    monkeypatch.setattr(Node, "_consider_vote", consider)
    run(cfg)
    assert True in decisions and False in decisions


def test_propose_and_halt_actions_are_data(monkeypatch):
    # a proposal names its raw height and digest, and a halt its height and
    # the selection's reason; the transcript renders their text
    ctx = _context()
    _, actions = _creator_at_height_one(ctx)
    [blk] = _broadcast_blocks(actions)
    assert [a for a in actions if a[0] == "propose"] == [("propose", 1, block_digest(blk.header))]

    def no_candidates(*args, **kwargs):
        raise NoCandidatesError("all candidates excluded")

    monkeypatch.setattr(engine, "select_assignment", no_candidates)
    _, actions = _creator_at_height_one(ctx)
    assert not _broadcast_blocks(actions)
    assert [a for a in actions if a[0] in ("propose", "halt")] == [
        ("halt", 1, "all candidates excluded")
    ]


def _spy_select(monkeypatch):
    """Heights of all select_assignment calls by the engine, from now on."""
    heights = []
    real = engine.select_assignment

    def spy(trie, prev_digest, schedule, height, **kwargs):
        heights.append(height)
        return real(trie, prev_digest, schedule, height, **kwargs)

    monkeypatch.setattr(engine, "select_assignment", spy)
    return heights


def test_forged_assignment_is_validated_independently(monkeypatch):
    ctx = _context()
    node, actions = _creator_at_height_one(ctx, kind="forge_assignment")
    [forged] = _broadcast_blocks(actions)
    honest = _block_one(ctx, timestamp=forged.header.timestamp).block
    assert forged.assignment != honest.assignment
    calls, selected = _spy_assemble(monkeypatch), _spy_select(monkeypatch)
    result = node.executor.validate(forged, ctx.genesis_block, ctx.genesis_trie,
                                    ctx.genesis_assignments[1], ())
    # the creator's honest assembly was not recorded for the forgery: the
    # executor re-derives the block and names the forged schedule, though
    # the honest body it compares with comes from the executor's memo
    assert calls == [1] and selected == []
    assert not result.valid and result.reason == "assignment mismatch"


def test_sibling_bodies_are_settled_once(monkeypatch):
    ctx = _context()
    a1 = ctx.genesis_assignments[1]
    cert = _certificate(ctx, block_digest(ctx.genesis_block.header), a1.voters)
    executor = BlockExecutor(ctx)
    selected = _spy_select(monkeypatch)

    def sibling(slot, ex=executor):
        return assemble_block(ex, ctx.genesis_block, cert, a1.creators[slot], slot, 5, a1, (),
                              ctx.genesis_trie, txs=())

    first, second = sibling(0), sibling(1)
    # the second creator lands the same writes on the same pre-state and
    # parent, and finds the post-state and assignment made
    assert selected == [1]
    assert second.post_trie is first.post_trie
    assert second.block.assignment == first.block.assignment
    # its block is the one an executor of its own makes
    assert second.block == sibling(1, BlockExecutor(ctx)).block
    assert selected == [1, 1]
    # the memo forgets its heights with the others
    executor.forget_below(2)
    assert sibling(1).block == second.block
    assert selected == [1, 1, 1]


def test_replay_settles_every_block_afresh(monkeypatch):
    cfg = SimConfig(seed=3, node_count=16, run_height=12, tx_interval=3)
    t = run(cfg)
    selected = _spy_select(monkeypatch)
    replay_chain(t.chain, build_context(cfg))
    # the run's memo lives in the run's executor: the audit draws again
    assert selected == list(range(1, len(t.chain)))


def test_a_vote_is_signed_only_when_a_certificate_carries_it(monkeypatch):
    made = []
    real_sign = crypto.sign

    def spy(key, message):
        made.append(message)
        return real_sign(key, message)

    monkeypatch.setattr(crypto, "sign", spy)
    monkeypatch.setattr(netsim, "sign", spy)
    proposed, cast = [], []
    real_proposals, real_cast = Node._proposals, Node._cast_vote

    def proposals(self, block, pre_trie):
        blocks = real_proposals(self, block, pre_trie)
        proposed.extend(blocks)
        return blocks

    def cast_vote(self, voter_schedule, target, *args):
        cast.append(target)
        real_cast(self, voter_schedule, target, *args)

    monkeypatch.setattr(Node, "_proposals", proposals)
    monkeypatch.setattr(Node, "_cast_vote", cast_vote)
    t = run(SimConfig(seed=3, node_count=16, run_height=12, tx_interval=3))
    carried = {(v.voter, v.target_hash)
               for blk in proposed for v in blk.header.prev_certificate.votes}
    # every transfer is signed, and of the votes only those a proposal carries
    assert not t.stalled and t.counters["txs_injected"] > 0
    assert len(made) == len(carried) + t.counters["txs_injected"]
    assert len(carried) < len(cast)


def test_a_held_block_runs_only_a_pass_already_due(monkeypatch):
    ctx = _context()
    node, actions = _creator_at_height_one(ctx)
    [blk] = _broadcast_blocks(actions)
    passes = _spy_passes(monkeypatch, node)
    tick = 2 + ctx.proposal_wait
    # the proposal left a pass due, and the echo of its block runs it
    node.handle("block", blk, tick)
    assert passes == [tick]
    # a second echo finds nothing due, and is answered with no action
    assert node.handle("block", blk, tick + 1) == [] and passes == [tick]


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
        recorded = BlockExecutor(ctx).record(built, prev_block, schedule)
        fresh = BlockExecutor(ctx).validate(
            built.block, prev_block, ctx.genesis_trie, schedule, ()
        )
        assert (recorded.valid, recorded.reason) == (fresh.valid, fresh.reason) == (False, reason)
    ex = BlockExecutor(ctx)
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
        fresh = BlockExecutor(ctx).validate(blk, prev_block, pre_trie, schedule, clear_members)
        assert fresh.valid and result.valid
        assert result.post_trie.root_commitment() == fresh.post_trie.root_commitment()
        assert result.issued == fresh.issued
    # refunds and the reporter's reward are issued
    assert any(r[-1].issued for r in recorded)
    assert any(r[0].fraud_reports for r in recorded)
