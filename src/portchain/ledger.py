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

`apply_fraud_verdict` is the one fraud rule, applied alike by a block's
creator and by its validators: an offense is punished once, since a
blacklist term covers each offense up to its start (`offense_punished`).

Each rule reads and writes accounts through a block's `WriteSet`, and
raises before its first write, so a refused transaction, refund or
report leaves the block's writes as they were.  The rules read their
settings from the run's config (`netsim.SimConfig`, passed as `cfg`):
the tax rate, the three rewards and the blacklist duration.
"""
from __future__ import annotations

from .core import FraudReport, Transaction
from .crypto import Address, verify
from .trie import EMPTY_ACCOUNT, AccountState, WriteSet


class TxRejected(ValueError):
    """Transaction failed a precondition, named by the message; recorded,
    never fatal."""


class LedgerError(ValueError):
    pass


def tax_amount(cfg, value: int) -> int:
    """The tax each party of a transfer of value pays."""
    return value * cfg.tax_rate_numerator // cfg.tax_rate_denominator


def apply_transaction(
    writes: WriteSet,
    tx: Transaction,
    cfg,
    current_height: int,
    public_keys,
) -> None:
    """Apply one transfer with dual-sided taxation; raises TxRejected on
    any precondition failure, before any write."""
    if tx.value < 0:
        raise TxRejected("negative value")
    sender = writes.get_account(tx.sender)
    if sender is None:
        raise TxRejected("unknown sender")
    pub = public_keys.get(tx.sender)
    if pub is None or not verify(pub, tx.signing_bytes(), tx.signature):
        raise TxRejected("bad signature")
    if tx.nonce != sender.nonce + 1:
        raise TxRejected("bad nonce")
    if sender.blacklist_until > current_height:
        raise TxRejected("sender blacklisted")
    receiver = writes.get_account(tx.receiver) or EMPTY_ACCOUNT
    if receiver.blacklist_until > current_height:
        raise TxRejected("receiver blacklisted")
    tax = tax_amount(cfg, tx.value)
    if sender.balance < tx.value + tax:
        raise TxRejected("insufficient balance")
    if tx.sender == tx.receiver:
        # self-transfer: both tax sides land on the same account
        writes.upsert_account(tx.sender, sender.changed(
            balance=sender.balance - 2 * tax, nonce=sender.nonce + 1, tax=sender.tax + 2 * tax))
    else:
        writes.upsert_account(tx.sender, sender.changed(
            balance=sender.balance - tx.value - tax, nonce=sender.nonce + 1, tax=sender.tax + tax))
        writes.upsert_account(tx.receiver, receiver.changed(
            balance=receiver.balance + tx.value - tax, tax=receiver.tax + tax))


def refund_reward(writes: WriteSet, addr: Address, reward: int) -> int:
    """Pay a duty reward and deduct it from the refundable tax, clamping
    at zero.  Returns the issued amount: the part of the reward not
    covered by accumulated tax (bootstrap issuance)."""
    if reward < 0:
        raise LedgerError("negative reward")
    state = writes.get_account(addr)
    if state is None:
        raise LedgerError("refund target account does not exist")
    if reward == 0:
        return 0
    writes.upsert_account(
        addr, state.changed(balance=state.balance + reward, tax=max(0, state.tax - reward))
    )
    return max(0, reward - state.tax)


def offense_punished(accused: AccountState, height_of_offense: int, cfg) -> bool:
    """Whether accused's blacklist term covers an offense at that height:
    a term begun at height p ends at p + blacklist_duration."""
    return accused.blacklist_until >= height_of_offense + cfg.blacklist_duration


def apply_fraud_verdict(
    writes: WriteSet,
    report: FraudReport,
    current_height: int,
    creator: Address,
    cfg,
) -> int:
    """Blacklist the accused of a report in the block at current_height and
    reward the reporter.  Returns the issued amount; raises LedgerError unless
    creator reports another account's offense at or below the block that
    no blacklist term covers."""
    if report.reporter == report.accused:
        raise LedgerError("self-accusation")
    if report.reporter != creator:
        raise LedgerError("reporter is not the block's creator")
    if report.height_of_offense > current_height:
        raise LedgerError("offense above the block height")
    accused = writes.get_account(report.accused)
    if accused is None:
        raise LedgerError("accused account does not exist")
    if offense_punished(accused, report.height_of_offense, cfg):
        raise LedgerError("offense already punished")
    writes.upsert_account(
        report.accused, accused.changed(blacklist_until=current_height + cfg.blacklist_duration)
    )
    reporter = writes.get_account(report.reporter) or EMPTY_ACCOUNT
    writes.upsert_account(
        report.reporter, reporter.changed(balance=reporter.balance + cfg.reporter_reward)
    )
    return cfg.reporter_reward
