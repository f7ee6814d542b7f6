"""Verifiable weighted-random maintainer selection.

Each slot derives a pseudo-random number from public chain data (seed
hash, the serving maintainer's address and sequence number, and the
current total weight), then descends the state trie top-down by
left-sibling cumulative weights until a leaf is reached.  Exclusions are
handled by zeroing the excluded accounts' weights against a reduced
total, so proportionality among the remaining candidates is exact and
anyone can re-run the selection to verify it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import MaintainerAssignment
from .crypto import Address, Hash, digest
from .trie import StateTrie, _Leaf, _nibbles


class NoCandidatesError(RuntimeError):
    """No eligible account weight remains to select from."""


@dataclass(frozen=True, slots=True)
class SelectionConfig:
    creator_redundancy: int = 2
    voter_count: int = 3

    @property
    def slot_count(self) -> int:
        return self.creator_redundancy + self.voter_count


def selection_number(block_hash: Hash, maintainer_addr: Address, seq: int, total_weight: int) -> int:
    """Per-slot verifiable random number in [0, total_weight)."""
    if total_weight < 1:
        raise NoCandidatesError("total selection weight is zero")
    h = digest(block_hash + maintainer_addr + seq.to_bytes(8, "big") + total_weight.to_bytes(8, "big"))
    return int.from_bytes(h, "big") % total_weight


def _exclusion_weights(trie: StateTrie, exclusions, current_height: int) -> dict[Address, int]:
    """Weight carried by each excluded or actively blacklisted account."""
    widths: dict[Address, int] = {}
    for addr in exclusions:
        state = trie.get_account(addr)
        if state is not None and addr not in widths:
            widths[addr] = state.tax + 1
    for addr in trie.active_blacklist(current_height):
        if addr not in widths:
            widths[addr] = trie.get_account(addr).tax + 1
    return widths


def eligible_total_weight(trie: StateTrie, exclusions, current_height: int) -> int:
    root = trie.root_node
    if root is None:
        return 0
    excluded = _exclusion_weights(trie, exclusions, current_height)
    return root.weight - sum(excluded.values())


def weighted_descend(trie: StateTrie, h: int, exclusions, current_height: int, _widths=None) -> Address:
    """Resolve h to the unique leaf whose half-open interval of the
    exclusion-adjusted prefix sum (canonical trie order) contains it."""
    excluded = _exclusion_weights(trie, exclusions, current_height) if _widths is None else _widths
    root = trie.root_node
    if root is None:
        raise NoCandidatesError("empty trie")
    # weight adjustments (exclusions and active blacklist) all go through
    # `excluded`; the cached totals stay height independent
    reduced = root.weight - sum(excluded.values())
    if reduced < 1:
        raise NoCandidatesError("all candidates excluded")
    if not 0 <= h < reduced:
        raise ValueError(f"selection number {h} outside [0, {reduced})")
    # pair each excluded address with its absolute nibble path once
    pending = [(_nibbles(addr), w) for addr, w in excluded.items()]
    node = root
    depth = 0
    while True:
        if isinstance(node, _Leaf):
            return node.addr
        depth += len(node.prefix)
        # split the pending exclusions by their nibble at this level once
        by_nib: dict[int, list] = {}
        for path, w in pending:
            by_nib.setdefault(path[depth], []).append((path, w))
        for nib in sorted(node.children):
            child = node.children[nib]
            sub_excl = by_nib.get(nib, ())
            w = child.weight - sum(w for _, w in sub_excl) if sub_excl else child.weight
            if h < w:
                node = child
                pending = sub_excl
                depth += 1
                break
            h -= w
        else:
            raise AssertionError("descent exhausted children; weight caches corrupt")


def select_assignment(
    trie_after_block: StateTrie,
    block_hash: Hash,
    current_maintainers,
    cfg: SelectionConfig,
    current_height: int,
    extra_exclusions=(),
) -> MaintainerAssignment:
    """Fill every slot of the height+2 assignment.

    current_maintainers: ordered (address, seq) pairs of the maintainers
    serving the current block; slot k is seeded by pair k.  Exclusions
    cover the current maintainers, any extra exclusions supplied by the
    caller (the already-assigned maintainers of height+1, so no address
    serves two consecutive heights), and inheritors picked so far.
    """
    slots = cfg.slot_count
    if len(current_maintainers) < slots:
        raise NoCandidatesError(
            f"{len(current_maintainers)} current maintainers cannot seed {slots} slots"
        )
    excluded: set[Address] = {addr for addr, _ in current_maintainers}
    excluded.update(extra_exclusions)
    creators: list[Address] = []
    voters: list[Address] = []
    # weight carried by each excluded account, maintained incrementally so
    # the per-slot totals do not re-walk the trie for every exclusion
    widths = _exclusion_weights(trie_after_block, excluded, current_height)
    root = trie_after_block.root_node
    base = root.weight if root is not None else 0
    for k in range(slots):
        addr_k, seq_k = current_maintainers[k]
        total = base - sum(widths.values())
        if total < 1:
            raise NoCandidatesError(f"no eligible weight left for slot {k}")
        h = selection_number(block_hash, addr_k, seq_k, total)
        chosen = weighted_descend(trie_after_block, h, excluded, current_height, _widths=widths)
        if k < cfg.creator_redundancy:
            creators.append(chosen)
        else:
            voters.append(chosen)
        excluded.add(chosen)
        if chosen not in widths:
            widths[chosen] = trie_after_block.get_account(chosen).tax + 1
    return MaintainerAssignment(
        block_height=current_height + 2,
        creators=tuple(creators),
        voters=tuple(voters),
    )


def verify_assignment(
    trie_after_block: StateTrie,
    block_hash: Hash,
    current_maintainers,
    claimed: MaintainerAssignment,
    cfg: SelectionConfig,
    current_height: int,
    extra_exclusions=(),
) -> bool:
    """True iff claimed equals an independent rerun of the selection."""
    try:
        expected = select_assignment(
            trie_after_block, block_hash, current_maintainers, cfg, current_height, extra_exclusions
        )
    except NoCandidatesError:
        return False
    return expected == claimed
