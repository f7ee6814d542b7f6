"""Transfer taxation, refunds, and fraud verdicts."""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portchain.core import FraudReport, Transaction
from portchain.crypto import digest, sign
from portchain.ledger import (
    LedgerError,
    TxRejected,
    apply_fraud_verdict,
    apply_transaction,
    refund_reward,
)
from portchain.netsim import SimConfig
from portchain.trie import AccountState, StateTrie, WriteSet

from conftest import addr_of, eligible_total_weight, make_keys

CFG = SimConfig()


def _setup(n=2, balance=100_000):
    pairs = make_keys(n)
    pubkeys = {a: k.public for a, k in pairs}
    trie = StateTrie()
    for a, _ in pairs:
        trie = trie.upsert_account(a, AccountState(balance=balance))
    return pairs, pubkeys, trie


def _tx(pairs, i, j, value, nonce=1):
    sender_addr, sender_key = pairs[i]
    tx = Transaction(sender_addr, pairs[j][0], value, nonce, b"")
    sig = sign(sender_key, tx.signing_bytes())
    return Transaction(sender_addr, pairs[j][0], value, nonce, sig)


def _applied(trie, tx, pubkeys, cfg=CFG, height=0):
    """The block write set after tx, on top of trie."""
    writes = WriteSet(trie)
    apply_transaction(writes, tx, cfg, height, pubkeys)
    return writes


def test_dual_sided_tax_arithmetic():
    pairs, pubkeys, trie = _setup()
    out = _applied(trie, _tx(pairs, 0, 1, 1000), pubkeys)
    s = out.get_account(pairs[0][0])
    r = out.get_account(pairs[1][0])
    # 1% of 1000 is 10 on each side
    assert s.balance == 100_000 - 1000 - 10
    assert s.tax == 10
    assert s.nonce == 1
    assert r.balance == 100_000 + 1000 - 10
    assert r.tax == 10
    assert r.nonce == 0


def test_zero_value_and_zero_rate():
    pairs, pubkeys, trie = _setup()
    out = _applied(trie, _tx(pairs, 0, 1, 0), pubkeys)
    assert out.get_account(pairs[0][0]).tax == 0
    free = replace(CFG, tax_rate_numerator=0)
    out = _applied(trie, _tx(pairs, 0, 1, 1000), pubkeys, free)
    assert out.get_account(pairs[0][0]).balance == 99_000
    assert out.get_account(pairs[1][0]).balance == 101_000


def test_tax_floor_rounding():
    # 1% of 150 floors to 1
    pairs, pubkeys, trie = _setup()
    out = _applied(trie, _tx(pairs, 0, 1, 150), pubkeys)
    assert out.get_account(pairs[0][0]).tax == 1
    assert out.get_account(pairs[1][0]).tax == 1


def test_self_transfer_merges_both_sides():
    pairs, pubkeys, trie = _setup()
    out = _applied(trie, _tx(pairs, 0, 0, 1000), pubkeys)
    s = out.get_account(pairs[0][0])
    assert s.balance == 100_000 - 20
    assert s.tax == 20
    assert s.nonce == 1


def test_rejections_leave_trie_untouched():
    pairs, pubkeys, trie = _setup(balance=500)
    blacklisted = {i: trie.update({pairs[i][0]: AccountState(balance=500, blacklist_until=50)})
                   for i in (0, 1)}
    cases = [
        (trie, Transaction(pairs[0][0], pairs[1][0], -1, 1, b""), "negative value"),
        (trie, _tx(make_keys(2, tag=b"x"), 0, 1, 1), "unknown sender"),
        (trie, Transaction(pairs[0][0], pairs[1][0], 10, 1, b"\x00" * 64), "bad signature"),
        (trie, _tx(pairs, 0, 1, 100, nonce=2), "bad nonce"),
        (blacklisted[0], _tx(pairs, 0, 1, 10), "sender blacklisted"),
        (blacklisted[1], _tx(pairs, 0, 1, 10), "receiver blacklisted"),
        (trie, _tx(pairs, 0, 1, 497), "insufficient balance"),  # 497 + 4 tax > 500
    ]
    for pre, tx, reason in cases:
        writes = WriteSet(pre)
        with pytest.raises(TxRejected) as e:
            apply_transaction(writes, tx, CFG, 10, pubkeys)
        assert str(e.value) == reason
        assert writes.writes == {}
    # refused refunds write nothing either
    for reward, target, named in [(-1, pairs[0][0], "negative reward"),
                                  (5, addr_of("nobody"), "does not exist")]:
        writes = WriteSet(trie)
        with pytest.raises(LedgerError, match=named):
            refund_reward(writes, target, reward)
        assert writes.writes == {}


def test_blacklisted_parties_rejected():
    pairs, pubkeys, trie = _setup()
    trie_bl = trie.upsert_account(
        pairs[0][0], AccountState(balance=100_000, blacklist_until=50)
    )
    with pytest.raises(TxRejected, match="sender blacklisted"):
        _applied(trie_bl, _tx(pairs, 0, 1, 10), pubkeys, height=10)
    # expired term is fine again
    _applied(trie_bl, _tx(pairs, 0, 1, 10), pubkeys, height=50)
    trie_bl = trie.upsert_account(
        pairs[1][0], AccountState(balance=100_000, blacklist_until=50)
    )
    with pytest.raises(TxRejected, match="receiver blacklisted"):
        _applied(trie_bl, _tx(pairs, 0, 1, 10), pubkeys, height=10)


@settings(max_examples=60)
@given(
    value=st.integers(min_value=0, max_value=50_000),
    rate=st.integers(min_value=0, max_value=10),
)
def test_transfer_conserves_money(value, rate):
    pairs, pubkeys, trie = _setup()
    cfg = replace(CFG, tax_rate_numerator=rate)
    before = sum(s.balance + s.tax for _, s in trie.accounts())
    out = _applied(trie, _tx(pairs, 0, 1, value), pubkeys, cfg).commit()
    after = sum(s.balance + s.tax for _, s in out.accounts())
    assert after == before


def test_refund_clamps_at_zero():
    addr = addr_of("m")
    trie = StateTrie().upsert_account(addr, AccountState(balance=100, tax=10))
    out = WriteSet(trie)
    assert refund_reward(out, addr, 20) == 10
    s = out.get_account(addr)
    assert s.balance == 120
    assert s.tax == 0
    # fully covered refund issues nothing
    out = WriteSet(trie)
    assert refund_reward(out, addr, 7) == 0
    assert out.get_account(addr).tax == 3
    # zero reward writes nothing
    out = WriteSet(trie)
    assert refund_reward(out, addr, 0) == 0
    assert out.writes == {}


def test_effective_weight():
    # lottery weight is the refundable tax plus one; a fraud verdict's
    # blacklist term makes selection count it as zero until the term ends
    assert AccountState(tax=5).weight == 6
    assert AccountState(tax=0).weight == 1
    accused, reporter = addr_of("bad"), addr_of("cop")
    trie = StateTrie().upsert_account(accused, AccountState(tax=5))
    trie = trie.upsert_account(reporter, AccountState())
    report = FraudReport(reporter=reporter, accused=accused,
                         evidence_hash=digest(b"e"), height_of_offense=4)
    assert eligible_total_weight(trie, (), 10) == 6 + 1
    writes = WriteSet(trie)
    apply_fraud_verdict(writes, report, 10, reporter, CFG)
    out = writes.commit()
    end = 10 + CFG.blacklist_duration
    assert eligible_total_weight(out, (), 10) == 1
    assert eligible_total_weight(out, (), end - 1) == 1
    assert eligible_total_weight(out, (), end) == 6 + 1


def test_fraud_verdict():
    accused, reporter = addr_of("bad"), addr_of("cop")
    trie = StateTrie()
    trie = trie.upsert_account(accused, AccountState(balance=777, tax=3))
    trie = trie.upsert_account(reporter, AccountState(balance=10))
    report = FraudReport(reporter=reporter, accused=accused,
                         evidence_hash=digest(b"e"), height_of_offense=4)
    out = WriteSet(trie)
    issued = apply_fraud_verdict(out, report, 20, reporter, CFG)
    a = out.get_account(accused)
    assert a.blacklist_until == 20 + CFG.blacklist_duration
    assert a.balance == 777
    assert issued == CFG.reporter_reward
    assert out.get_account(reporter).balance == 10 + CFG.reporter_reward


@pytest.mark.parametrize("duration", [0, 50])
def test_fraud_verdict_refusals_leave_no_write(duration):
    cfg = replace(CFG, blacklist_duration=duration)
    accused, reporter = addr_of("bad"), addr_of("cop")
    trie = StateTrie()
    trie = trie.upsert_account(accused, AccountState(balance=777))
    trie = trie.upsert_account(reporter, AccountState(balance=10))

    def report(offense=4, by=reporter, against=accused):
        return FraudReport(reporter=by, accused=against, evidence_hash=digest(b"e"),
                           height_of_offense=offense)

    # a term imposed at height 5 covers the offenses at or below 5, and
    # only those, whatever its length
    writes = WriteSet(trie)
    apply_fraud_verdict(writes, report(), 5, reporter, cfg)
    punished = writes.commit()
    for pre, bad, creator, named in [
        (trie, report(by=accused), accused, "self-accusation"),
        (trie, report(), addr_of("other"), "reporter is not the block's creator"),
        (trie, report(offense=21), reporter, "offense above the block height"),
        (trie, report(against=addr_of("nobody")), reporter, "accused account does not exist"),
        (punished, report(), reporter, "offense already punished"),
        (punished, report(offense=5), reporter, "offense already punished"),
    ]:
        writes = WriteSet(pre)
        with pytest.raises(LedgerError, match=named):
            apply_fraud_verdict(writes, bad, 20, creator, cfg)
        assert writes.writes == {}
    # an offense after the term began is punished again, at the block's height
    out = WriteSet(punished)
    apply_fraud_verdict(out, report(offense=6), 20, reporter, cfg)
    assert out.get_account(accused).blacklist_until == 20 + duration
