"""Weighted selection against a flat prefix-sum oracle."""
import random

import pytest

from portchain.core import MaintainerAssignment
from portchain.selection import (
    NoCandidatesError,
    select_assignment,
    selection_number,
    weighted_descend,
)
from portchain.trie import AccountState, StateTrie, _Leaf, _nibbles

from conftest import addr_of, eligible_total_weight, flat_oracle, make_trie


def test_three_account_mapping():
    a, b, c = addr_of("A"), addr_of("B"), addr_of("C")
    trie = make_trie({a: 5, b: 3, c: 2})
    # weights 6, 4, 3 (tax + 1) over total 13
    order = [addr for addr, _ in trie.accounts()]
    widths = {addr: trie.get_account(addr).tax + 1 for addr in order}
    edge = 0
    for addr in order:
        for h in (edge, edge + widths[addr] - 1):
            assert weighted_descend(trie, h, set(), 0) == addr
        edge += widths[addr]
    assert edge == 13
    with pytest.raises(ValueError):
        weighted_descend(trie, 13, set(), 0)


def test_exclusion_shrinks_interval():
    a, b, c = addr_of("A"), addr_of("B"), addr_of("C")
    trie = make_trie({a: 5, b: 3, c: 2})
    assert eligible_total_weight(trie, {a}, 0) == 7
    survivors = [addr for addr, _ in trie.accounts() if addr != a]
    widths = [trie.get_account(x).tax + 1 for x in survivors]
    assert weighted_descend(trie, 0, {a}, 0) == survivors[0]
    assert weighted_descend(trie, widths[0] - 1, {a}, 0) == survivors[0]
    assert weighted_descend(trie, widths[0], {a}, 0) == survivors[1]
    assert weighted_descend(trie, 6, {a}, 0) == survivors[1]
    with pytest.raises(ValueError):
        weighted_descend(trie, 7, {a}, 0)


def test_exhaustive_proportionality():
    trie = make_trie({addr_of(str(i)): i for i in range(12)})
    total = eligible_total_weight(trie, set(), 0)
    counts = {}
    for h in range(total):
        counts[weighted_descend(trie, h, set(), 0)] = counts.get(
            weighted_descend(trie, h, set(), 0), 0
        ) + 1
    for i in range(12):
        assert counts[addr_of(str(i))] == i + 1


def test_descend_matches_flat_oracle_randomized(rnd):
    for _ in range(300):
        n = rnd.randint(2, 40)
        addrs = [addr_of(f"r{rnd.randint(0, 10_000)}-{i}") for i in range(n)]
        trie = StateTrie()
        for addr in addrs:
            trie = trie.upsert_account(
                addr,
                AccountState(
                    balance=1,
                    tax=rnd.randint(0, 500),
                    blacklist_until=rnd.choice([0, 0, 0, 40]),
                ),
            )
        height = rnd.randint(0, 50)
        exclusions = set(rnd.sample(addrs, rnd.randint(0, n - 2)))
        total = eligible_total_weight(trie, exclusions, height)
        if total < 1:
            continue
        h = rnd.randrange(total)
        got = weighted_descend(trie, h, exclusions, height)
        assert got == flat_oracle(trie.accounts(), h, exclusions, height)
        assert got not in exclusions
        assert trie.get_account(got).blacklist_until <= height


def test_descent_errors_name_their_cause():
    a = addr_of("A")
    with pytest.raises(NoCandidatesError, match="^empty trie$"):
        weighted_descend(StateTrie(), 0, set(), 0)
    trie = make_trie({a: 2})
    with pytest.raises(NoCandidatesError, match="^all candidates excluded$"):
        weighted_descend(trie, 0, {a}, 0)
    with pytest.raises(ValueError, match=r"^selection number 3 outside \[0, 3\)$"):
        weighted_descend(trie, 3, set(), 0)


def test_selection_number_pinned():
    # frozen vector; the derivation must stay stable across releases
    n = selection_number(b"\xaa" * 32, b"\xbb" * 20, 3, 1000)
    assert n == 354
    assert selection_number(b"\xaa" * 32, b"\xbb" * 20, 3, 1) == 0
    with pytest.raises(NoCandidatesError):
        selection_number(b"\xaa" * 32, b"\xbb" * 20, 3, 0)


def _schedule(members, creators, height=10):
    members = tuple(members)
    return MaintainerAssignment(
        block_height=height, creators=members[:creators], voters=members[creators:]
    )


def _assignment_setup(n=20, tax=50, creators=2, voters=3):
    trie = make_trie({addr_of(f"m{i}"): tax + i for i in range(n)})
    schedule = _schedule((addr_of(f"m{i}") for i in range(creators + voters)), creators)
    return trie, schedule


def test_select_assignment_structure():
    trie, schedule = _assignment_setup()
    a = select_assignment(trie, b"\x07" * 32, schedule, 10)
    assert a.block_height == 12
    assert len(a.creators) == 2 and len(a.voters) == 3
    members = a.members()
    assert len(set(members)) == len(members)
    # nobody serving now is picked again for height + 2
    assert not set(members) & set(schedule.members())


def test_select_assignment_takes_the_serving_schedule_shape():
    trie, schedule = _assignment_setup(creators=1, voters=4)
    a = select_assignment(trie, b"\x07" * 32, schedule, 10)
    assert len(a.creators) == 1 and len(a.voters) == 4
    # the same seeds in the same slot order, whatever the split
    two_three = _schedule(schedule.members(), 2)
    assert select_assignment(trie, b"\x07" * 32, two_three, 10).members() == a.members()


def test_select_assignment_respects_extra_exclusions():
    trie, schedule = _assignment_setup()
    base = select_assignment(trie, b"\x07" * 32, schedule, 10)
    banned = base.members()
    redo = select_assignment(trie, b"\x07" * 32, schedule, 10, extra_exclusions=banned)
    assert not set(redo.members()) & set(banned)


def test_select_assignment_errors():
    trie, schedule = _assignment_setup(n=5)
    # every account excluded leaves no weight
    all_addrs = [a for a, _ in trie.accounts()]
    with pytest.raises(NoCandidatesError):
        select_assignment(trie, b"\x07" * 32, schedule, 10, extra_exclusions=all_addrs)


def test_incremental_widths_match_full_recompute(rnd):
    # the per-slot incremental exclusion map must equal a fresh recompute
    for _ in range(20):
        n = rnd.randint(16, 30)
        trie = make_trie({addr_of(f"w{rnd.random()}"): rnd.randint(0, 99) for _ in range(n)})
        addrs = [a for a, _ in trie.accounts()]
        schedule = _schedule(addrs[:5], 2)
        seed = bytes([rnd.randrange(256)] * 32)
        a1 = select_assignment(trie, seed, schedule, 0)
        # oracle: recompute each slot with plain weighted_descend
        excluded = set(schedule.members())
        picks = []
        for k, addr in enumerate(schedule.members()):
            total = eligible_total_weight(trie, excluded, 0)
            h = selection_number(seed, addr, k, total)
            chosen = weighted_descend(trie, h, set(excluded), 0)
            picks.append(chosen)
            excluded.add(chosen)
        assert list(a1.members()) == picks


# --- reference: the pending-split descent ------------------------------------
#
# The descent as it was before per-node exclusion sums: every level splits
# the excluded (path, weight) pairs by nibble and subtracts each child's
# share.  Kept here as the reference the descent must agree with.


def _reference_widths(trie, exclusions, height):
    widths = {}
    for addr in list(exclusions) + trie.active_blacklist(height):
        state = trie.get_account(addr)
        if state is not None and addr not in widths:
            widths[addr] = state.weight
    return widths


def _reference_descend(trie, h, widths):
    root = trie._root
    if root is None:
        raise NoCandidatesError("empty trie")
    reduced = root.weight - sum(widths.values())
    if reduced < 1:
        raise NoCandidatesError("all candidates excluded")
    if not 0 <= h < reduced:
        raise ValueError(f"selection number {h} outside [0, {reduced})")
    pending = [(_nibbles(addr), w) for addr, w in widths.items()]
    node, depth = root, 0
    while not isinstance(node, _Leaf):
        depth += len(node.prefix)
        by_nib = {}
        for path, w in pending:
            by_nib.setdefault(path[depth], []).append((path, w))
        for nib in sorted(node.children):
            child = node.children[nib]
            sub = by_nib.get(nib, ())
            w = child.weight - sum(w for _, w in sub)
            if h < w:
                node, pending, depth = child, sub, depth + 1
                break
            h -= w
    return node.addr


def _reference_select(trie, block_hash, seeds, height, extra=()):
    """Picks for the (address, sequence number) seeds, one slot each."""
    excluded = {a for a, _ in seeds} | set(extra)
    widths = _reference_widths(trie, excluded, height)
    picks = []
    for k, (addr, seq) in enumerate(seeds):
        total = trie._root.weight - sum(widths.values()) if trie._root else 0
        if total < 1:
            raise NoCandidatesError(f"no eligible weight left for slot {k}")
        h = selection_number(block_hash, addr, seq, total)
        chosen = _reference_descend(trie, h, widths)
        picks.append(chosen)
        widths[chosen] = trie.get_account(chosen).weight
    return picks


def _random_trie(rnd, n):
    trie = StateTrie()
    for i in range(n):
        # half the addresses share a two-byte prefix, so branches carry
        # prefixes and exclusions meet at inner nodes
        tag = addr_of(f"x{rnd.random()}")
        addr = (b"\x5a\x5a" + tag[2:]) if rnd.random() < 0.5 else tag
        trie = trie.upsert_account(addr, AccountState(
            balance=1,
            tax=rnd.randint(0, 60),
            blacklist_until=rnd.choice([0, 0, 0, 0, 20, 40]),
        ))
    return trie


def test_descent_matches_the_pending_split_reference(rnd):
    for _ in range(120):
        trie = _random_trie(rnd, rnd.randint(1, 64))
        addrs = [a for a, _ in trie.accounts()]
        height = rnd.choice([0, 10, 30, 50])
        exclusions = set(rnd.sample(addrs, rnd.randint(0, len(addrs))))
        # an address the trie does not hold excludes nothing
        exclusions.add(addr_of("absent"))
        widths = _reference_widths(trie, exclusions, height)
        total = eligible_total_weight(trie, exclusions, height)
        assert total == trie._root.weight - sum(widths.values())
        if total < 1:
            with pytest.raises(NoCandidatesError):
                weighted_descend(trie, 0, exclusions, height)
            continue
        for h in range(total):
            assert weighted_descend(trie, h, exclusions, height) == _reference_descend(trie, h, widths)
        with pytest.raises(ValueError):
            weighted_descend(trie, total, exclusions, height)


def test_select_assignment_matches_the_pending_split_reference(rnd):
    for _ in range(300):
        trie = _random_trie(rnd, rnd.randint(1, 64))
        addrs = [a for a, _ in trie.accounts()]
        height = rnd.choice([0, 10, 30, 50])
        creators, voters = rnd.randint(1, 3), rnd.randint(1, 4)
        slots = creators + voters
        members = rnd.sample(addrs, min(len(addrs), slots))
        members += [addr_of(f"seed{i}") for i in range(slots - len(members))]
        schedule = _schedule(members, creators, height)
        # slot k is seeded by the serving member of slot k, sequence number k
        seeds = [(a, k) for k, a in enumerate(members)]
        extra = rnd.sample(addrs, rnd.randint(0, min(len(addrs), 8)))
        block_hash = bytes([rnd.randrange(256)]) * 32
        try:
            expected = _reference_select(trie, block_hash, seeds, height, extra)
        except NoCandidatesError as exc:
            with pytest.raises(NoCandidatesError, match=str(exc)):
                select_assignment(trie, block_hash, schedule, height, extra_exclusions=extra)
            continue
        got = select_assignment(trie, block_hash, schedule, height, extra_exclusions=extra)
        assert list(got.members()) == expected
        assert len(got.creators) == creators and len(got.voters) == voters
