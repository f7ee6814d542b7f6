"""Weighted selection against a flat prefix-sum oracle."""
import random

import pytest

from portchain.selection import (
    NoCandidatesError,
    SelectionConfig,
    eligible_total_weight,
    select_assignment,
    selection_number,
    weighted_descend,
)
from portchain.trie import AccountState, StateTrie

from conftest import addr_of, make_trie


def _flat_oracle(trie, h, exclusions, height):
    """Prefix-sum walk of the accounts in canonical trie order."""
    entries = list(trie.accounts())  # already in trie order
    for addr, state in entries:
        if addr in exclusions or state.blacklist_until > height:
            continue
        w = state.tax + 1
        if h < w:
            return addr
        h -= w
    raise AssertionError("h out of range")


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
        assert got == _flat_oracle(trie, h, exclusions, height)
        assert got not in exclusions
        assert trie.get_account(got).blacklist_until <= height


def test_selection_number_pinned():
    # frozen vector; the derivation must stay stable across releases
    n = selection_number(b"\xaa" * 32, b"\xbb" * 20, 3, 1000)
    assert n == 354
    assert selection_number(b"\xaa" * 32, b"\xbb" * 20, 3, 1) == 0
    with pytest.raises(NoCandidatesError):
        selection_number(b"\xaa" * 32, b"\xbb" * 20, 3, 0)


def _assignment_setup(n=20, tax=50):
    trie = make_trie({addr_of(f"m{i}"): tax + i for i in range(n)})
    cfg = SelectionConfig(creator_redundancy=2, voter_count=3)
    current = [(addr_of(f"m{i}"), i) for i in range(cfg.slot_count)]
    return trie, cfg, current


def test_select_assignment_structure():
    trie, cfg, current = _assignment_setup()
    a = select_assignment(trie, b"\x07" * 32, current, cfg, 10)
    assert a.block_height == 12
    assert len(a.creators) == 2 and len(a.voters) == 3
    members = a.members()
    assert len(set(members)) == len(members)
    # nobody serving now is picked again for height + 2
    assert not set(members) & {addr for addr, _ in current}


def test_select_assignment_respects_extra_exclusions():
    trie, cfg, current = _assignment_setup()
    base = select_assignment(trie, b"\x07" * 32, current, cfg, 10)
    banned = base.members()
    redo = select_assignment(trie, b"\x07" * 32, current, cfg, 10, extra_exclusions=banned)
    assert not set(redo.members()) & set(banned)


def test_select_assignment_errors():
    trie, cfg, current = _assignment_setup(n=5)
    with pytest.raises(NoCandidatesError):
        select_assignment(trie, b"\x07" * 32, current[:3], cfg, 10)
    # every account excluded leaves no weight
    all_addrs = [a for a, _ in trie.accounts()]
    with pytest.raises(NoCandidatesError):
        select_assignment(trie, b"\x07" * 32, current, cfg, 10, extra_exclusions=all_addrs)


def test_incremental_widths_match_full_recompute(rnd):
    # the per-slot incremental exclusion map must equal a fresh recompute
    for _ in range(20):
        n = rnd.randint(16, 30)
        trie = make_trie({addr_of(f"w{rnd.random()}"): rnd.randint(0, 99) for _ in range(n)})
        cfg = SelectionConfig(creator_redundancy=2, voter_count=3)
        addrs = [a for a, _ in trie.accounts()]
        current = [(a, i) for i, a in enumerate(addrs[: cfg.slot_count])]
        seed = bytes([rnd.randrange(256)] * 32)
        a1 = select_assignment(trie, seed, current, cfg, 0)
        # oracle: recompute each slot with plain weighted_descend
        excluded = {addr for addr, _ in current}
        picks = []
        for k in range(cfg.slot_count):
            total = eligible_total_weight(trie, excluded, 0)
            h = selection_number(seed, current[k][0], current[k][1], total)
            chosen = weighted_descend(trie, h, set(excluded), 0)
            picks.append(chosen)
            excluded.add(chosen)
        assert list(a1.members()) == picks
