"""State trie behavior against a flat-dict oracle."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from portchain.selection import eligible_total_weight
from portchain.trie import AccountState, StateTrie, empty_trie

from conftest import addr_of, make_trie


def test_weight_simple_sum():
    t = make_trie({addr_of("a"): 5, addr_of("b"): 7})
    assert eligible_total_weight(t, (), 0) == (5 + 1) + (7 + 1)


def test_weight_excludes_blacklisted():
    t = StateTrie()
    t = t.upsert_account(addr_of("a"), AccountState(balance=1, tax=10))
    t = t.upsert_account(
        addr_of("b"), AccountState(balance=1, tax=20, blacklist_until=100)
    )
    assert eligible_total_weight(t, (), 50) == 11
    # once the term expires the account counts again
    assert eligible_total_weight(t, (), 100) == 11 + 21


def test_empty_trie():
    t = empty_trie()
    assert list(t.accounts()) == []
    assert eligible_total_weight(t, (), 0) == 0
    assert t.get_account(addr_of("a")) is None
    assert isinstance(t.root_commitment(), bytes)
    assert len(t.root_commitment()) == 32


def test_snapshot_isolation():
    t1 = make_trie({addr_of("a"): 5})
    t2 = t1.upsert_account(addr_of("a"), AccountState(balance=10_000, tax=9))
    assert t1.get_account(addr_of("a")).tax == 5
    assert t2.get_account(addr_of("a")).tax == 9
    assert t1.root_commitment() != t2.root_commitment()


def test_root_commitment_order_independent():
    entries = {addr_of(str(i)): AccountState(balance=i, tax=i * 3) for i in range(40)}
    items = list(entries.items())
    roots = set()
    for seed in range(5):
        random.Random(seed).shuffle(items)
        t = StateTrie()
        for addr, state in items:
            t = t.upsert_account(addr, state)
        roots.add(t.root_commitment())
    assert len(roots) == 1


def test_root_commitment_reflects_any_update():
    t = make_trie({addr_of(str(i)): i for i in range(20)})
    r0 = t.root_commitment()
    t2 = t.upsert_account(addr_of("7"), AccountState(balance=10_000, tax=7, nonce=1))
    assert t2.root_commitment() != r0


account_st = st.builds(
    AccountState,
    balance=st.integers(min_value=0, max_value=10**6),
    nonce=st.integers(min_value=0, max_value=1000),
    tax=st.integers(min_value=0, max_value=10**4),
    maintainer_bits=st.integers(min_value=0, max_value=7),
    blacklist_until=st.integers(min_value=0, max_value=300),
)


@settings(max_examples=60)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=200).map(lambda i: addr_of(str(i))),
        account_st,
        max_size=30,
    ),
    st.integers(min_value=0, max_value=300),
)
def test_weight_matches_flat_oracle(entries, height):
    t = StateTrie()
    for addr, state in entries.items():
        t = t.upsert_account(addr, state)
    oracle = sum(s.tax + 1 for s in entries.values() if s.blacklist_until <= height)
    assert eligible_total_weight(t, (), height) == oracle
    # stored accounts read back exactly and blacklist recall matches
    for addr, state in entries.items():
        assert t.get_account(addr) == state
    expect_bl = sorted(a for a, s in entries.items() if s.blacklist_until > height)
    assert sorted(t.active_blacklist(height)) == expect_bl


def test_accounts_iterates_all():
    entries = {addr_of(str(i)): i for i in range(25)}
    t = make_trie(entries)
    seen = dict(t.accounts())
    assert set(seen) == set(entries)
    assert all(seen[a].tax == v for a, v in entries.items())
    assert len(list(t.accounts())) == 25
