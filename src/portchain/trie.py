"""Persistent hex-radix Patricia trie of account states.

Every internal node caches the total lottery weight (`AccountState.weight`
per account) of its subtree, so the weighted selection descent runs in
O(depth).  Updates copy only the touched paths: earlier snapshots stay
valid and readable, which is what voters need to re-verify selection
against the exact post-block state.  `StateTrie.update` lands a batch of
writes at once, copying each branch on a touched path once per batch,
and a `WriteSet` buffers the writes of a block in front of a snapshot so
they land as one batch.

An account's state is an `AccountState`, an immutable tuple-backed record
that snapshots share.  Nibble paths are bytes, one nibble per byte.
Every branch keeps its children in ascending nibble order: `_build`
makes them so and `_update` puts a new nibble in its place, so hashing,
listing the accounts and the selection descent walk the children as they
are stored, in canonical order, without sorting them.

Blacklist expiry is lazy: leaves cache the unconditional weight and the
trie keeps a small side map of blacklisted addresses, subtracted at read
time against the supplied current height (`selection.draw_exclusions`).
This keeps the caches height independent while blacklisted accounts still
weigh zero.

The trie owns every walk over its nodes, the selection draw's too: every
node on an excluded account's path records the excluded weight below it
(`StateTrie.exclude`), so a slot's descent subtracts one number per child.
"""
from __future__ import annotations

import struct
from functools import lru_cache
from typing import NamedTuple

from .crypto import ZERO_HASH, Address, Hash, digest

__all__ = [
    "AccountState",
    "StateTrie",
    "WriteSet",
    "MAINTAINER_SELECTED",
    "MAINTAINER_VOTER",
    "MAINTAINER_ODD",
    "maintainer_bits",
]

# three-bit maintainer record: selected?, creator-or-voter, even-or-odd parity
MAINTAINER_SELECTED = 0b001
MAINTAINER_VOTER = 0b010
MAINTAINER_ODD = 0b100


def maintainer_bits(voter: bool, height: int) -> int:
    """The record of an account selected to serve `height`."""
    bits = MAINTAINER_SELECTED
    if voter:
        bits |= MAINTAINER_VOTER
    if height % 2:
        bits |= MAINTAINER_ODD
    return bits


class AccountState(NamedTuple):
    """One account's state: an immutable record, so trie snapshots share
    it, built as one tuple."""

    balance: int = 0
    nonce: int = 0
    tax: int = 0
    maintainer_bits: int = 0
    blacklist_until: int = 0  # block height; 0 = not blacklisted

    @property
    def weight(self) -> int:
        """Lottery weight: a virtual tax of one unit on top of the
        refundable tax.  Selection counts it as zero while the account is
        blacklisted."""
        return self.tax + 1

    def changed(
        self,
        balance: int | None = None,
        nonce: int | None = None,
        tax: int | None = None,
        maintainer_bits: int | None = None,
        blacklist_until: int | None = None,
    ) -> AccountState:
        """This state with the given fields replaced."""
        # what the generated constructor does, without its extra call
        return _tuple_new(AccountState, (
            self.balance if balance is None else balance,
            self.nonce if nonce is None else nonce,
            self.tax if tax is None else tax,
            self.maintainer_bits if maintainer_bits is None else maintainer_bits,
            self.blacklist_until if blacklist_until is None else blacklist_until,
        ))

    def encode(self) -> bytes:
        return _ACCOUNT_ENCODING.pack(*self)


_tuple_new = tuple.__new__

# five big-endian unsigned 8-byte fields, in declaration order
_ACCOUNT_ENCODING = struct.Struct(">5Q")


EMPTY_ACCOUNT = AccountState()


@lru_cache(maxsize=4096)
def _nibbles(addr: Address) -> bytes:
    """The nibble path of addr, one nibble per byte."""
    out = bytearray()
    for byte in addr:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return bytes(out)


class _Leaf:
    __slots__ = ("head", "addr", "state", "weight", "_hash")

    def __init__(self, head: bytes, addr: Address, state: AccountState):
        # the hash input before the state: b"leaf", the nibble suffix
        # below the parent branch, and the address
        self.head = head
        self.addr = addr
        self.state = state
        self.weight = state.weight
        self._hash = None

    def node_hash(self) -> Hash:
        h = self._hash
        if h is None:
            h = digest(self.head + self.state.encode())
            self._hash = h
        return h


# the one-byte encoding of each nibble in a branch hash
_NIBBLE_BYTES = tuple(bytes((nib,)) for nib in range(16))


class _Branch:
    __slots__ = ("prefix", "children", "weight", "_hash")

    def __init__(self, prefix: bytes, children: dict, weight: int | None = None):
        self.prefix = prefix  # shared nibble run above the fan-out
        self.children = children  # nibble -> node, in ascending nibble order
        # subtree weight; callers that replace one child pass it adjusted
        self.weight = sum(c.weight for c in children.values()) if weight is None else weight
        self._hash = None

    def node_hash(self) -> Hash:
        h = self._hash
        if h is None:
            parts = [b"branch", self.prefix]
            for nib, child in self.children.items():
                parts.append(_NIBBLE_BYTES[nib])
                parts.append(child.node_hash())
            h = digest(b"".join(parts))
            self._hash = h
        return h


def _runs(items, at: int):
    """(nibble, run) for each run of the sorted items that shares the
    path nibble at index `at`; the items agree before `at`, so each
    nibble's items are contiguous."""
    i, n = 0, len(items)
    while i < n:
        nib = items[i][0][at]
        j = i + 1
        while j < n and items[j][0][at] == nib:
            j += 1
        yield nib, items[i:j]
        i = j


def _build(items, depth: int):
    """Subtree at nibble depth `depth` holding exactly `items`: (path,
    addr, state) triples with full nibble paths, sorted by path and
    agreeing before `depth`."""
    path, addr, state = items[0]
    if len(items) == 1:
        return _Leaf(b"leaf" + path[depth:] + addr, addr, state)
    # a sorted run's first and last paths share the run's common prefix
    last = items[-1][0]
    cp = depth
    while path[cp] == last[cp]:
        cp += 1
    return _Branch(path[depth:cp], {nib: _build(run, cp + 1) for nib, run in _runs(items, cp)})


def _update(node, items, depth: int):
    """Copy of the subtree `node` at nibble depth `depth` with `items` (as
    for `_build`) written into it; every branch on a written path is
    copied once, and keeps its children in ascending nibble order."""
    if node is None:
        return _build(items, depth)
    if isinstance(node, _Leaf):
        if all(a != node.addr for _, a, _ in items):
            items = sorted(items + [(_nibbles(node.addr), node.addr, node.state)])
        return _build(items, depth)
    prefix = node.prefix
    # as in _build, the first and last paths bound the whole sorted run
    first, last = items[0][0], items[-1][0]
    cp = depth
    for nib in prefix:
        if first[cp] != nib or last[cp] != nib:
            break
        cp += 1
    weight = node.weight
    keep = cp - depth
    if keep < len(prefix):
        # the writes diverge inside the branch prefix: split it there
        children = {prefix[keep]: _Branch(prefix[keep + 1 :], node.children, weight)}
    else:
        children = dict(node.children)
    held = len(children)
    for nib, run in _runs(items, cp):
        old = children.get(nib)
        if len(run) == 1 and isinstance(old, _Leaf) and old.addr == run[0][1]:
            # a rewrite keeps the leaf's place and path
            new = _Leaf(old.head, old.addr, run[0][2])
        else:
            new = _update(old, run, cp + 1)
        children[nib] = new
        weight += new.weight - (old.weight if old is not None else 0)
    if len(children) > held:
        # a new nibble went in last; put it in its place
        children = dict(sorted(children.items()))
    return _Branch(prefix[:keep], children, weight)


def _get(node, addr: Address):
    # only addr's own path can end at a leaf holding addr, so the walk
    # follows its nibbles by index without checking branch prefixes
    path = _nibbles(addr)
    at = 0
    while isinstance(node, _Branch):
        at += len(node.prefix)
        node = node.children.get(path[at])
        at += 1
    return node.state if node is not None and node.addr == addr else None


def _leaves(node):
    if node is None:
        return
    if isinstance(node, _Leaf):
        yield node
        return
    for child in node.children.values():
        yield from _leaves(child)


class StateTrie:
    """Immutable snapshot of all account states."""

    __slots__ = ("_root", "_blacklist")

    def __init__(self, root=None, blacklist: dict | None = None):
        self._root = root
        self._blacklist = blacklist or {}

    def update(self, changes: dict) -> "StateTrie":
        """New snapshot with every (address -> state) write in `changes`
        applied; equal to writing them one at a time."""
        if not changes:
            return self
        # paths are distinct, so the triples sort by path alone
        items = sorted((_nibbles(addr), addr, state) for addr, state in changes.items())
        blacklist = dict(self._blacklist)
        for addr, state in changes.items():
            if state.blacklist_until > 0:
                blacklist[addr] = state.blacklist_until
            else:
                blacklist.pop(addr, None)
        return StateTrie(_update(self._root, items, 0), blacklist)

    def upsert_account(self, addr: Address, state: AccountState) -> "StateTrie":
        return self.update({addr: state})

    def get_account(self, addr: Address) -> AccountState | None:
        return _get(self._root, addr)

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

    # the selection draw: `sums` maps a node to the excluded weight below it
    def exclude(self, sums: dict, addr: Address) -> None:
        """Add the weight of addr's leaf, if the trie holds one, to the
        excluded-weight sum of every node on its path, the leaf included."""
        path = _nibbles(addr)
        depth = 0
        node = self._root
        visited = []
        # as in _get, only addr's own path can end at a leaf holding addr
        while isinstance(node, _Branch):
            visited.append(node)
            depth += len(node.prefix)
            node = node.children.get(path[depth])
            depth += 1
        if node is not None and node.addr == addr:
            visited.append(node)
            w = node.weight
            for n in visited:
                sums[n] = sums.get(n, 0) + w

    def eligible_weight(self, sums: dict) -> int:
        """What the accounts weigh once the weight in sums weighs zero."""
        return 0 if self._root is None else self._root.weight - sums.get(self._root, 0)

    def descend(self, h: int, sums: dict) -> Address:
        """The account whose half-open interval of the eligible weight's prefix
        sum, in canonical order, holds h, for 0 <= h < `eligible_weight(sums)`."""
        node = self._root
        while not isinstance(node, _Leaf):
            # children are kept in ascending nibble order, the canonical order
            for child in node.children.values():
                w = child.weight - sums.get(child, 0)
                if h < w:
                    node = child
                    break
                h -= w
            else:
                raise AssertionError("descent exhausted children; weight caches corrupt")
        return node.addr


class WriteSet:
    """Account writes buffered in front of a trie snapshot.

    Reads see the buffered writes first.  `upsert_account` records a
    write, and `commit` lands every write in one `StateTrie.update`.  The
    snapshot itself is never changed.
    """

    __slots__ = ("base", "writes")

    def __init__(self, base: StateTrie):
        self.base = base
        self.writes: dict[Address, AccountState] = {}

    def get_account(self, addr: Address) -> AccountState | None:
        state = self.writes.get(addr)
        return self.base.get_account(addr) if state is None else state

    def upsert_account(self, addr: Address, state: AccountState) -> None:
        self.writes[addr] = state

    def commit(self) -> StateTrie:
        return self.base.update(self.writes)
