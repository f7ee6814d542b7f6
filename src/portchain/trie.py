"""Persistent hex-radix Patricia trie of account states.

Every internal node caches the total lottery weight (tax + 1 per account)
of its subtree, so the weighted selection descent runs in O(depth).
Updates copy only the touched path: earlier snapshots stay valid and
readable, which is what voters need to re-verify selection against the
exact post-block state.

Blacklist expiry is lazy: leaves cache the unconditional weight and the
trie keeps a small side map of blacklisted addresses, subtracted at read
time against the supplied current height.  This keeps the caches height
independent while blacklisted accounts still weigh zero.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .crypto import ZERO_HASH, Address, Hash, digest

__all__ = [
    "AccountState",
    "StateTrie",
    "empty_trie",
    "MAINTAINER_SELECTED",
    "MAINTAINER_VOTER",
    "MAINTAINER_ODD",
    "maintainer_bits",
]

# three-bit maintainer record: selected?, creator-or-voter, even-or-odd parity
MAINTAINER_SELECTED = 0b001
MAINTAINER_VOTER = 0b010
MAINTAINER_ODD = 0b100


def maintainer_bits(selected: bool, voter: bool, height: int) -> int:
    bits = 0
    if selected:
        bits |= MAINTAINER_SELECTED
        if voter:
            bits |= MAINTAINER_VOTER
        if height % 2:
            bits |= MAINTAINER_ODD
    return bits


@dataclass(frozen=True, slots=True)
class AccountState:
    balance: int = 0
    nonce: int = 0
    tax: int = 0
    maintainer_bits: int = 0
    blacklist_until: int = 0  # block height; 0 = not blacklisted

    def encode(self) -> bytes:
        return b"".join(
            x.to_bytes(8, "big")
            for x in (self.balance, self.nonce, self.tax, self.maintainer_bits, self.blacklist_until)
        )


EMPTY_ACCOUNT = AccountState()


@lru_cache(maxsize=4096)
def _nibbles(addr: Address) -> tuple[int, ...]:
    out = []
    for byte in addr:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return tuple(out)


class _Leaf:
    __slots__ = ("path", "addr", "state", "weight", "_hash")

    def __init__(self, path: tuple[int, ...], addr: Address, state: AccountState):
        self.path = path  # nibble suffix below the parent branch
        self.addr = addr
        self.state = state
        self.weight = state.tax + 1
        self._hash = None

    def node_hash(self) -> Hash:
        h = self._hash
        if h is None:
            h = digest(b"leaf" + bytes(self.path) + self.addr + self.state.encode())
            self._hash = h
        return h


class _Branch:
    __slots__ = ("prefix", "children", "weight", "_hash")

    def __init__(self, prefix: tuple[int, ...], children: dict, weight: int | None = None):
        self.prefix = prefix  # shared nibble run above the fan-out
        self.children = children  # nibble -> node
        # subtree weight; callers that replace one child pass it adjusted
        self.weight = sum(c.weight for c in children.values()) if weight is None else weight
        self._hash = None

    def node_hash(self) -> Hash:
        h = self._hash
        if h is None:
            parts = [b"branch", bytes(self.prefix)]
            for nib in sorted(self.children):
                parts.append(bytes((nib,)))
                parts.append(self.children[nib].node_hash())
            h = digest(b"".join(parts))
            self._hash = h
        return h


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _upsert(node, path: tuple[int, ...], addr: Address, state: AccountState):
    if node is None:
        return _Leaf(path, addr, state)
    if isinstance(node, _Leaf):
        if node.path == path:
            return _Leaf(path, addr, state)
        cp = _common_prefix(node.path, path)
        old = _Leaf(node.path[cp + 1 :], node.addr, node.state)
        new = _Leaf(path[cp + 1 :], addr, state)
        return _Branch(path[:cp], {node.path[cp]: old, path[cp]: new})
    cp = _common_prefix(node.prefix, path)
    if cp < len(node.prefix):
        # split the branch prefix at the divergence point
        lower = _Branch(node.prefix[cp + 1 :], node.children)
        new = _Leaf(path[cp + 1 :], addr, state)
        return _Branch(path[:cp], {node.prefix[cp]: lower, path[cp]: new})
    nib = path[len(node.prefix)]
    children = dict(node.children)
    old = children.get(nib)
    new = children[nib] = _upsert(old, path[len(node.prefix) + 1 :], addr, state)
    weight = node.weight - (old.weight if old is not None else 0) + new.weight
    return _Branch(node.prefix, children, weight)


def _get(node, path: tuple[int, ...]):
    while node is not None:
        if isinstance(node, _Leaf):
            return node.state if node.path == path else None
        plen = len(node.prefix)
        if path[:plen] != node.prefix:
            return None
        node = node.children.get(path[plen])
        path = path[plen + 1 :]
    return None


def _leaves(node):
    if node is None:
        return
    if isinstance(node, _Leaf):
        yield node
        return
    for nib in sorted(node.children):
        yield from _leaves(node.children[nib])


class StateTrie:
    """Immutable snapshot of all account states."""

    __slots__ = ("_root", "_blacklist")

    def __init__(self, root=None, blacklist: dict | None = None):
        self._root = root
        self._blacklist = blacklist or {}

    def upsert_account(self, addr: Address, state: AccountState) -> "StateTrie":
        root = _upsert(self._root, _nibbles(addr), addr, state)
        blacklist = self._blacklist
        if state.blacklist_until > 0:
            blacklist = dict(blacklist)
            blacklist[addr] = state.blacklist_until
        elif addr in blacklist:
            blacklist = dict(blacklist)
            del blacklist[addr]
        return StateTrie(root, blacklist)

    def get_account(self, addr: Address) -> AccountState | None:
        return _get(self._root, _nibbles(addr))

    def total_effective_weight(self, current_height: int = 0) -> int:
        if self._root is None:
            return 0
        total = self._root.weight
        for addr, until in self._blacklist.items():
            if until > current_height:
                state = self.get_account(addr)
                total -= state.tax + 1
        return total

    def active_blacklist(self, current_height: int) -> list[Address]:
        return [a for a, until in self._blacklist.items() if until > current_height]

    def root_commitment(self) -> Hash:
        if self._root is None:
            return ZERO_HASH
        return self._root.node_hash()

    def accounts(self):
        """All (address, state) pairs in canonical (lexicographic) order."""
        for leaf in _leaves(self._root):
            yield leaf.addr, leaf.state

    def __len__(self) -> int:
        return sum(1 for _ in self.accounts())

    # internal hooks for the selection descent
    @property
    def root_node(self):
        return self._root


def empty_trie() -> StateTrie:
    return StateTrie()
