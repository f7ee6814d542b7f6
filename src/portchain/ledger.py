"""State-transition rules: dual-sided transaction tax, reward refunds,
and fraud verdicts.

Both parties of a transfer pay ``floor(value * rate)`` into their own
refundable-tax pools; the receiver's share is withheld from the amount
transferred so a transaction is always self-funding.  Refunds clamp the
tax at zero - the clamped remainder plus reporter rewards are the only
money-creation paths, and both are returned explicitly so callers can
keep an exact conservation ledger.  The tax pool an account builds up
here sets its lottery weight (`AccountState.weight`); a fraud verdict's
blacklist term zeroes that weight for selection.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .core import FraudReport, Transaction
from .crypto import Address, verify
from .trie import EMPTY_ACCOUNT, StateTrie


class TxRejected(ValueError):
    """Transaction failed a precondition; recorded, never fatal."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class LedgerError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LedgerConfig:
    tax_rate_numerator: int = 1
    tax_rate_denominator: int = 100
    creator_reward: int = 10
    voter_reward: int = 10
    reporter_reward: int = 5
    blacklist_duration: int = 100
    confiscate_on_fraud: bool = False

    def tax_amount(self, value: int) -> int:
        return value * self.tax_rate_numerator // self.tax_rate_denominator


def apply_transaction(
    trie: StateTrie,
    tx: Transaction,
    cfg: LedgerConfig,
    current_height: int,
    public_keys,
) -> StateTrie:
    """Apply one transfer with dual-sided taxation; raises TxRejected on
    any precondition failure, leaving the trie untouched."""
    if tx.value < 0:
        raise TxRejected("negative value")
    sender = trie.get_account(tx.sender)
    if sender is None:
        raise TxRejected("unknown sender")
    pub = public_keys.get(tx.sender)
    if pub is None or not verify(pub, tx.signing_bytes(), tx.signature):
        raise TxRejected("bad signature")
    if tx.nonce != sender.nonce + 1:
        raise TxRejected("bad nonce")
    if sender.blacklist_until > current_height:
        raise TxRejected("sender blacklisted")
    receiver = trie.get_account(tx.receiver) or EMPTY_ACCOUNT
    if receiver.blacklist_until > current_height:
        raise TxRejected("receiver blacklisted")
    tax = cfg.tax_amount(tx.value)
    if sender.balance < tx.value + tax:
        raise TxRejected("insufficient balance")
    if tx.sender == tx.receiver:
        # self-transfer: both tax sides land on the same account
        merged = replace(sender, balance=sender.balance - 2 * tax,
                         nonce=sender.nonce + 1, tax=sender.tax + 2 * tax)
        return trie.upsert_account(tx.sender, merged)
    paid = replace(sender, balance=sender.balance - tx.value - tax,
                   nonce=sender.nonce + 1, tax=sender.tax + tax)
    received = replace(receiver, balance=receiver.balance + tx.value - tax, tax=receiver.tax + tax)
    return trie.upsert_account(tx.sender, paid).upsert_account(tx.receiver, received)


def refund_reward(trie: StateTrie, addr: Address, reward: int) -> tuple[StateTrie, int]:
    """Pay a duty reward and deduct it from the refundable tax, clamping
    at zero.  Returns (new trie, issued amount), where issued is the part
    of the reward not covered by accumulated tax (bootstrap issuance)."""
    if reward < 0:
        raise LedgerError("negative reward")
    state = trie.get_account(addr)
    if state is None:
        raise LedgerError("refund target account does not exist")
    if reward == 0:
        return trie, 0
    issued = max(0, reward - state.tax)
    trie = trie.upsert_account(
        addr, replace(state, balance=state.balance + reward, tax=max(0, state.tax - reward))
    )
    return trie, issued


def apply_fraud_verdict(
    trie: StateTrie,
    report: FraudReport,
    approved: bool,
    current_height: int,
    cfg: LedgerConfig,
) -> tuple[StateTrie, int, int]:
    """Apply an approved fraud verdict: blacklist (and optionally strip)
    the accused, reward the reporter.  Returns (trie, issued, confiscated);
    a rejected verdict is the identity."""
    if not approved:
        return trie, 0, 0
    accused = trie.get_account(report.accused)
    if accused is None:
        raise LedgerError("accused account does not exist")
    confiscated = 0
    balance = accused.balance
    if cfg.confiscate_on_fraud:
        confiscated = balance
        balance = 0
    trie = trie.upsert_account(
        report.accused,
        replace(accused, balance=balance, blacklist_until=current_height + cfg.blacklist_duration),
    )
    reporter = trie.get_account(report.reporter) or EMPTY_ACCOUNT
    trie = trie.upsert_account(
        report.reporter, replace(reporter, balance=reporter.balance + cfg.reporter_reward)
    )
    return trie, cfg.reporter_reward, confiscated
