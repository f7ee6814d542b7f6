"""Verifiable weighted-random maintainer selection.

Each slot derives a pseudo-random number from public chain data (seed
hash, the address of the maintainer serving the same slot at the current
height, the slot index as its sequence number, and the current total
weight), then descends the state trie top-down by left-sibling
cumulative weights until a leaf is reached.  Exclusions are handled by
zeroing the excluded accounts' weights against a reduced total, so
proportionality among the remaining candidates is exact and anyone can
re-run the selection to verify it.  An account weighs
`AccountState.weight`, and the eligible total is what the root weighs
once exclusions and active blacklist entries weigh zero.
"""
from __future__ import annotations

from .core import MaintainerAssignment
from .crypto import Address, Hash, digest
from .trie import StateTrie


class NoCandidatesError(RuntimeError):
    """No eligible account weight remains to select from."""


def selection_number(block_hash: Hash, maintainer_addr: Address, seq: int, total_weight: int) -> int:
    """Per-slot verifiable random number in [0, total_weight)."""
    if total_weight < 1:
        raise NoCandidatesError("total selection weight is zero")
    h = digest(block_hash + maintainer_addr + seq.to_bytes(8, "big") + total_weight.to_bytes(8, "big"))
    return int.from_bytes(h, "big") % total_weight


def draw_exclusions(trie: StateTrie, exclusions, current_height: int) -> set:
    """The accounts a draw at current_height gives no weight: the
    exclusions and the accounts blacklisted at that height."""
    return set(exclusions).union(trie.active_blacklist(current_height))


def _exclusion_sums(trie: StateTrie, exclusions, current_height: int) -> dict:
    """Excluded weight under each trie node, keyed by node: each account
    of `draw_exclusions` counts once."""
    sums: dict = {}
    for addr in draw_exclusions(trie, exclusions, current_height):
        trie.exclude(sums, addr)
    return sums


def weighted_descend(trie: StateTrie, h: int, exclusions, current_height: int, _sums=None) -> Address:
    """Resolve h to the unique leaf whose half-open interval of the
    exclusion-adjusted prefix sum (canonical trie order) contains it.

    Every node's cached weight less its excluded-weight sum is what the
    eligible accounts below it weigh, so the descent is O(depth);
    `select_assignment` passes the sums it keeps across slots as _sums,
    which then stand for the exclusions and the blacklist."""
    sums = _exclusion_sums(trie, exclusions, current_height) if _sums is None else _sums
    # weight adjustments (exclusions and active blacklist) all go through
    # the sums; the cached totals stay height independent
    reduced = trie.eligible_weight(sums)
    if reduced < 1:
        empty = next(trie.accounts(), None) is None
        raise NoCandidatesError("empty trie" if empty else "all candidates excluded")
    if not 0 <= h < reduced:
        raise ValueError(f"selection number {h} outside [0, {reduced})")
    return trie.descend(h, sums)


def select_assignment(
    trie_after_block: StateTrie,
    block_hash: Hash,
    schedule: MaintainerAssignment,
    current_height: int,
    extra_exclusions=(),
) -> MaintainerAssignment:
    """Fill every slot of the height+2 assignment.

    schedule is the assignment serving the current block, and the new
    one has its shape: as many creator and voter slots.  Slot k is seeded
    by `schedule.members()[k]` with sequence number k.  The draw excludes
    `draw_exclusions` of the current maintainers and the caller's extra
    exclusions (the already-assigned maintainers of height+1, so no
    address serves two consecutive heights), and each inheritor picked so
    far.
    """
    seeds = schedule.members()
    creator_slots = len(schedule.creators)
    picks: list[Address] = []
    # excluded weight per node, built once; each pick then adds its own path
    sums = _exclusion_sums(trie_after_block, seeds + tuple(extra_exclusions), current_height)
    for k, seed_addr in enumerate(seeds):
        total = trie_after_block.eligible_weight(sums)
        if total < 1:
            raise NoCandidatesError(f"no eligible weight left for slot {k}")
        h = selection_number(block_hash, seed_addr, k, total)
        chosen = weighted_descend(trie_after_block, h, (), current_height, _sums=sums)
        picks.append(chosen)
        trie_after_block.exclude(sums, chosen)
    return MaintainerAssignment(
        block_height=current_height + 2,
        creators=tuple(picks[:creator_slots]),
        voters=tuple(picks[creator_slots:]),
    )
