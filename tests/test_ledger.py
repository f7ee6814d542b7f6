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
from portchain.selection import eligible_total_weight
from portchain.trie import AccountState, StateTrie

from conftest import addr_of, make_keys

CFG = SimConfig().ledger()


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


def test_dual_sided_tax_arithmetic():
    pairs, pubkeys, trie = _setup()
    out = apply_transaction(trie, _tx(pairs, 0, 1, 1000), CFG, 0, pubkeys)
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
    out = apply_transaction(trie, _tx(pairs, 0, 1, 0), CFG, 0, pubkeys)
    assert out.get_account(pairs[0][0]).tax == 0
    free = replace(CFG, tax_rate_numerator=0)
    out = apply_transaction(trie, _tx(pairs, 0, 1, 1000), free, 0, pubkeys)
    assert out.get_account(pairs[0][0]).balance == 99_000
    assert out.get_account(pairs[1][0]).balance == 101_000


def test_tax_floor_rounding():
    # 1% of 150 floors to 1
    pairs, pubkeys, trie = _setup()
    out = apply_transaction(trie, _tx(pairs, 0, 1, 150), CFG, 0, pubkeys)
    assert out.get_account(pairs[0][0]).tax == 1
    assert out.get_account(pairs[1][0]).tax == 1


def test_self_transfer_merges_both_sides():
    pairs, pubkeys, trie = _setup()
    out = apply_transaction(trie, _tx(pairs, 0, 0, 1000), CFG, 0, pubkeys)
    s = out.get_account(pairs[0][0])
    assert s.balance == 100_000 - 20
    assert s.tax == 20
    assert s.nonce == 1


def test_rejections_leave_trie_untouched():
    pairs, pubkeys, trie = _setup(balance=500)
    cases = [
        (_tx(pairs, 0, 1, 497), "insufficient balance"),  # 497 + 4 tax > 500
        (_tx(pairs, 0, 1, 100, nonce=2), "bad nonce"),
        (
            Transaction(pairs[0][0], pairs[1][0], 10, 1, b"\x00" * 64),
            "bad signature",
        ),
    ]
    for tx, reason in cases:
        with pytest.raises(TxRejected) as e:
            apply_transaction(trie, tx, CFG, 0, pubkeys)
        assert e.value.reason == reason
    # unknown sender
    with pytest.raises(TxRejected):
        apply_transaction(trie, _tx(make_keys(2, tag=b"x"), 0, 1, 1), CFG, 0, pubkeys)


def test_blacklisted_parties_rejected():
    pairs, pubkeys, trie = _setup()
    trie_bl = trie.upsert_account(
        pairs[0][0], AccountState(balance=100_000, blacklist_until=50)
    )
    with pytest.raises(TxRejected, match="sender blacklisted"):
        apply_transaction(trie_bl, _tx(pairs, 0, 1, 10), CFG, 10, pubkeys)
    # expired term is fine again
    apply_transaction(trie_bl, _tx(pairs, 0, 1, 10), CFG, 50, pubkeys)
    trie_bl = trie.upsert_account(
        pairs[1][0], AccountState(balance=100_000, blacklist_until=50)
    )
    with pytest.raises(TxRejected, match="receiver blacklisted"):
        apply_transaction(trie_bl, _tx(pairs, 0, 1, 10), CFG, 10, pubkeys)


@settings(max_examples=60)
@given(
    value=st.integers(min_value=0, max_value=50_000),
    rate=st.integers(min_value=0, max_value=10),
)
def test_transfer_conserves_money(value, rate):
    pairs, pubkeys, trie = _setup()
    cfg = replace(CFG, tax_rate_numerator=rate)
    before = sum(s.balance + s.tax for _, s in trie.accounts())
    out = apply_transaction(trie, _tx(pairs, 0, 1, value), cfg, 0, pubkeys)
    after = sum(s.balance + s.tax for _, s in out.accounts())
    assert after == before


def test_refund_clamps_at_zero():
    addr = addr_of("m")
    trie = StateTrie().upsert_account(addr, AccountState(balance=100, tax=10))
    out, issued = refund_reward(trie, addr, 20)
    s = out.get_account(addr)
    assert s.balance == 120
    assert s.tax == 0
    assert issued == 10
    # fully covered refund issues nothing
    out, issued = refund_reward(trie, addr, 7)
    assert out.get_account(addr).tax == 3
    assert issued == 0
    # zero reward is the identity
    out, issued = refund_reward(trie, addr, 0)
    assert out.get_account(addr) == trie.get_account(addr)
    assert issued == 0
    with pytest.raises(LedgerError):
        refund_reward(trie, addr, -1)
    with pytest.raises(LedgerError):
        refund_reward(trie, addr_of("nobody"), 5)


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
    out, _, _ = apply_fraud_verdict(trie, report, 10, CFG)
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
    out, issued, confiscated = apply_fraud_verdict(trie, report, 20, CFG)
    a = out.get_account(accused)
    assert a.blacklist_until == 20 + CFG.blacklist_duration
    assert a.balance == 777  # confiscation off by default
    assert confiscated == 0
    assert issued == CFG.reporter_reward
    assert out.get_account(reporter).balance == 10 + CFG.reporter_reward
    # with confiscation enabled the balance is stripped
    strict = replace(CFG, confiscate_on_fraud=True)
    out, issued, confiscated = apply_fraud_verdict(trie, report, 20, strict)
    assert out.get_account(accused).balance == 0
    assert confiscated == 777
