"""State trie behavior against a flat-dict oracle."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portchain.trie import AccountState, StateTrie, WriteSet, _Branch

from conftest import addr_of, eligible_total_weight, make_trie


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
    t = StateTrie()
    assert list(t.accounts()) == []
    assert eligible_total_weight(t, (), 0) == 0
    assert t.get_account(addr_of("a")) is None
    assert isinstance(t.root_commitment(), bytes)
    assert len(t.root_commitment()) == 32


def test_account_state_is_an_immutable_record():
    s = AccountState(balance=1, nonce=2, tax=3, maintainer_bits=4, blacklist_until=5)
    for name in ("balance", "nonce", "tax", "maintainer_bits", "blacklist_until", "weight"):
        with pytest.raises(AttributeError):
            setattr(s, name, 9)
    with pytest.raises(AttributeError):
        s.extra = 9
    assert s.weight == 4
    # `changed` replaces exactly the fields given, zero included
    assert s.changed() == s and type(s.changed()) is AccountState
    assert s.changed(nonce=7) == AccountState(1, 7, 3, 4, 5)
    assert s.changed(balance=0, tax=0, blacklist_until=0) == AccountState(0, 2, 0, 4, 0)
    assert s.changed(maintainer_bits=0).maintainer_bits == 0
    # five big-endian unsigned 8-byte fields, in declaration order
    assert s.encode() == b"".join(v.to_bytes(8, "big") for v in (1, 2, 3, 4, 5))
    assert AccountState().encode() == bytes(40)
    assert AccountState(balance=2**64 - 1).encode() == b"\xff" * 8 + bytes(32)


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


# addresses from a five-symbol alphabet over their first three bytes share
# prefixes of every length, so writes split branch prefixes and leaves
clustered_addr_st = st.lists(
    st.sampled_from([0x00, 0x01, 0x10, 0x11, 0xF0]), min_size=3, max_size=3
).map(lambda b: bytes(b) + bytes(17))
addr_st = st.one_of(
    clustered_addr_st, st.integers(min_value=0, max_value=40).map(lambda i: addr_of(str(i)))
)


def _snapshot(t, addrs, height):
    return (
        t.root_commitment(),
        list(t.accounts()),
        eligible_total_weight(t, (), height),
        sorted(t.active_blacklist(height)),
        [t.get_account(a) for a in addrs],
    )


def _at(*head):
    return bytes(head) + bytes(20 - len(head))


def _branches(node):
    if isinstance(node, _Branch):
        yield node
        for child in node.children.values():
            yield from _branches(child)


@settings(max_examples=150)
@given(
    st.lists(st.tuples(addr_st, account_st), max_size=25),
    st.lists(st.tuples(addr_st, account_st), min_size=1, max_size=25),
    st.integers(min_value=0, max_value=300),
)
# a batch whose last (then whose first) path leaves a branch prefix that
# the other end of the batch follows
@example([(_at(0, 0), AccountState()), (_at(0, 1), AccountState())],
         [(_at(0, 0), AccountState(tax=3)), (_at(1, 0), AccountState())], 0)
@example([(_at(1, 0), AccountState()), (_at(1, 1), AccountState())],
         [(_at(0, 0), AccountState()), (_at(1, 0), AccountState(tax=3))], 0)
def test_batched_update_equals_writes_one_at_a_time(base_writes, writes, height):
    base = StateTrie()
    for addr, state in base_writes:
        base = base.upsert_account(addr, state)
    probe = sorted({a for a, _ in base_writes} | {a for a, _ in writes})
    before = _snapshot(base, probe, height)
    one_by_one = base
    for addr, state in writes:
        one_by_one = one_by_one.upsert_account(addr, state)
    # a repeated address keeps its last write, as in one_by_one
    batched = base.update(dict(writes))
    assert _snapshot(batched, probe, height) == _snapshot(one_by_one, probe, height)
    # and both agree with a flat dict of the final states
    final = dict(base_writes) | dict(writes)
    assert list(batched.accounts()) == sorted(final.items())
    # an address one bit away from a written one follows its path to the
    # written leaf, and reads as absent unless it was written itself
    near = [a[:-1] + bytes([a[-1] ^ 1]) for a in probe]
    assert [batched.get_account(a) for a in near] == [final.get(a) for a in near]
    # and with a trie built from it in one batch
    assert batched.root_commitment() == StateTrie().update(final).root_commitment()
    # every branch keeps its children in ascending nibble order
    for t in (batched, one_by_one):
        for branch in _branches(t._root):
            assert list(branch.children) == sorted(branch.children)
    assert eligible_total_weight(batched, (), height) == sum(
        s.weight for s in final.values() if s.blacklist_until <= height
    )
    assert sorted(batched.active_blacklist(height)) == sorted(
        a for a, s in final.items() if s.blacklist_until > height
    )
    # so does a block's write set, which reads its own writes first
    ws = WriteSet(base)
    for addr, state in writes:
        ws.upsert_account(addr, state)
        assert ws.get_account(addr) == state
    assert _snapshot(ws.commit(), probe, height) == _snapshot(one_by_one, probe, height)
    # the snapshot written over stays as it was
    assert _snapshot(base, probe, height) == before

