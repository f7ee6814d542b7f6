"""Shared helpers for the test suite."""
import random

import pytest
from hypothesis import settings

from portchain.crypto import digest, keypair_from_seed

# shared hosts show large wall-clock variance; per-example deadlines misfire
settings.register_profile("ci", deadline=None)
settings.load_profile("ci")
from portchain.netsim import AdversarySpec, SimConfig
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


def adversary_config(kind):
    """A 60-height run with node 2 playing the given creator adversary."""
    return SimConfig(seed=1, node_count=24, voter_count=4, run_height=60,
                     adversaries=(AdversarySpec(kind=kind, node=2),))


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
