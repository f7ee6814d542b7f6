"""Shared helpers for the test suite."""
import random

import pytest
from hypothesis import settings

from portchain.analysis import replay_chain
from portchain.core import encode_chain
from portchain.crypto import digest, keypair_from_seed

# shared hosts show large wall-clock variance; per-example deadlines misfire
settings.register_profile("ci", deadline=None)
settings.load_profile("ci")
from portchain.netsim import AdversarySpec, SimConfig, run
from portchain.selection import _exclusion_sums
from portchain.trie import AccountState, StateTrie


def make_keys(n, tag=b"t"):
    """Deterministic key pairs with (address, keypair) in address order."""
    from portchain.crypto import address_from_public

    pairs = []
    for i in range(n):
        kp = keypair_from_seed(digest(tag + i.to_bytes(4, "big")))
        pairs.append((address_from_public(kp.public), kp))
    pairs.sort(key=lambda p: p[0])
    return pairs


def make_trie(entries):
    """Build a trie from {address: tax} or {address: AccountState}."""
    trie = StateTrie()
    for addr, val in entries.items():
        state = val if isinstance(val, AccountState) else AccountState(balance=10_000, tax=val)
        trie = trie.upsert_account(addr, state)
    return trie


def addr_of(label) -> bytes:
    if isinstance(label, str):
        label = label.encode()
    return digest(b"addr" + label)[:20]


@pytest.fixture
def rnd():
    return random.Random(0xC0FFEE)


def adversary_config(kind, node=2):
    """A 60-height run with one node (by default node 2, a creator) playing
    the given adversary."""
    return SimConfig(seed=1, node_count=24, voter_count=4, run_height=60,
                     adversaries=(AdversarySpec(kind=kind, node=node),))


def criterion_9_config(s):
    """Scenario s of criterion 9's ten (s in range(10)): varied sizes,
    latencies and drop rates, with a recovering crash for odd s."""
    return SimConfig(seed=s, node_count=15 + (s % 4), voter_count=3, creator_redundancy=2,
                     run_height=15, latency_min=1, latency_max=2 + (s % 2),
                     drop_probability=(s % 3) * 0.03,
                     adversaries=(
                         (AdversarySpec(kind="crash", node=s % 15, start_tick=20,
                                        recover_tick=120),)
                         if s % 2 else ()
                     ))


def transcript_text(transcript) -> str:
    """The whole text of a transcript, which its digest hashes line by line."""
    return "".join(transcript.lines())


def replay_check(config, transcript) -> bool:
    """Re-run the config and require a byte-identical transcript."""
    again = run(config)
    return (transcript_text(again) == transcript_text(transcript)
            and encode_chain(again.chain) == encode_chain(transcript.chain))


def replayed_steps(chain, context) -> list:
    """Every `engine.ExecResult` of a replay of chain, genesis first; the
    replay itself keeps only the parent of the height it validates."""
    steps = []

    def keep(step, parent):
        if not steps:
            steps.append(parent)
        steps.append(step)

    head = replay_chain(chain, context, keep)
    return steps or [head]


def eligible_total_weight(trie, exclusions, current_height) -> int:
    """Total lottery weight of the accounts neither excluded nor
    blacklisted at current_height, read from the trie's cached subtree
    weights as the selection descent reads them."""
    return trie.eligible_weight(_exclusion_sums(trie, exclusions, current_height))


def flat_oracle(entries, h, exclusions, height):
    """The account that selection number h picks: a prefix-sum walk of
    (address, state) entries in canonical trie order."""
    for addr, state in entries:
        if addr in exclusions or state.blacklist_until > height:
            continue
        w = state.tax + 1
        if h < w:
            return addr
        h -= w
    raise AssertionError("selection number out of range")


def pad_nested_blob(data: bytes, nested) -> bytes:
    """`data` with one zero byte appended to a nested length-prefixed blob.

    `nested` lists blob bodies from the outermost to the innermost, each
    inside the one before it; the padding goes at the end of the last one
    and every listed length prefix grows by one, so all outer framing
    stays consistent.
    """
    out = bytearray(data)
    end = 0
    for body in nested:
        at = data.index(len(body).to_bytes(4, "big") + body)
        out[at:at + 4] = (len(body) + 1).to_bytes(4, "big")
        end = at + 4 + len(body)
    out[end:end] = b"\x00"
    return bytes(out)
