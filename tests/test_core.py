"""Canonical encoding round trips and digest stability."""
import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portchain.core import (
    Block,
    BlockHeader,
    EMPTY_CERTIFICATE,
    FraudReport,
    MaintainerAssignment,
    Transaction,
    Vote,
    VoteCertificate,
    assignment_digest,
    block_digest,
    decode_assignment,
    decode_block,
    decode_chain,
    decode_transaction,
    decode_vote,
    encode_assignment,
    encode_block,
    encode_chain,
    encode_transaction,
    encode_certificate,
    encode_header,
    encode_vote,
    tx_merkle_root,
)
from portchain.crypto import ADDRESS_SIZE, HASH_SIZE
from portchain.netsim import SimConfig, run

from conftest import pad_nested_blob

addr_st = st.binary(min_size=20, max_size=20)
hash_st = st.binary(min_size=32, max_size=32)
sig_st = st.binary(min_size=64, max_size=64)
u64_st = st.integers(min_value=0, max_value=2**64 - 1)
u32_st = st.integers(min_value=0, max_value=2**32 - 1)

tx_st = st.builds(
    Transaction,
    sender=addr_st,
    receiver=addr_st,
    value=u64_st,
    nonce=u64_st,
    signature=sig_st,
)
vote_st = st.builds(
    Vote, voter=addr_st, target_hash=hash_st, approve=st.booleans(), signature=sig_st
)
assignment_st = st.builds(
    MaintainerAssignment,
    block_height=u32_st,
    creators=st.lists(addr_st, max_size=4).map(tuple),
    voters=st.lists(addr_st, max_size=6).map(tuple),
)
cert_st = st.one_of(
    st.just(EMPTY_CERTIFICATE),
    st.builds(
        VoteCertificate,
        target_hash=hash_st,
        votes=st.lists(vote_st, max_size=4).map(tuple),
    ),
)
fraud_st = st.builds(
    FraudReport,
    reporter=addr_st,
    accused=addr_st,
    evidence_hash=hash_st,
    height_of_offense=u32_st,
)
header_st = st.builds(
    BlockHeader,
    height=u32_st,
    prev_hash=hash_st,
    creator=addr_st,
    creator_index=st.integers(min_value=0, max_value=255),
    state_root=hash_st,
    tx_root=hash_st,
    prev_certificate=cert_st,
    timestamp=u64_st,
    assignment_digest=hash_st,
)
block_st = st.builds(
    Block,
    header=header_st,
    transactions=st.lists(tx_st, max_size=3).map(tuple),
    assignment=assignment_st,
    fraud_reports=st.lists(fraud_st, max_size=2).map(tuple),
)


@given(tx_st)
def test_transaction_round_trip(tx):
    assert decode_transaction(encode_transaction(tx)) == tx


@given(vote_st)
def test_vote_round_trip(v):
    assert decode_vote(encode_vote(v)) == v


@given(assignment_st)
def test_assignment_round_trip(a):
    assert decode_assignment(encode_assignment(a)) == a


@settings(max_examples=40)
@given(block_st)
def test_block_round_trip(b):
    assert decode_block(encode_block(b)) == b


@settings(max_examples=15)
@given(st.lists(block_st, max_size=4))
def test_chain_round_trip(blocks):
    assert decode_chain(encode_chain(blocks)) == blocks


def _fixed_header():
    return BlockHeader(
        height=7,
        prev_hash=b"\x11" * 32,
        creator=b"\x22" * 20,
        creator_index=1,
        state_root=b"\x33" * 32,
        tx_root=b"\x44" * 32,
        prev_certificate=EMPTY_CERTIFICATE,
        timestamp=99,
        assignment_digest=b"\x55" * 32,
    )


def test_block_digest_pinned():
    # frozen vector; any encoding change must be deliberate
    assert block_digest(_fixed_header()).hex() == (
        "9c78be301bd2b64774b6fe985843cf2996da2ed13337a9a0a6329bcb0e9c8e63"
    )


def test_block_digest_sensitive_to_fields():
    h = _fixed_header()
    d = block_digest(h)
    for field, val in (
        ("timestamp", 100),
        ("height", 8),
        ("prev_hash", b"\x12" * 32),
        ("creator_index", 0),
    ):
        assert block_digest(dataclasses.replace(h, **{field: val})) != d


def test_assignment_digest_distinguishes_roles():
    a = MaintainerAssignment(block_height=5, creators=(b"\x01" * 20,), voters=(b"\x02" * 20,))
    b = MaintainerAssignment(block_height=5, creators=(b"\x02" * 20,), voters=(b"\x01" * 20,))
    assert assignment_digest(a) != assignment_digest(b)
    assert assignment_digest(a) == assignment_digest(
        MaintainerAssignment(block_height=5, creators=(b"\x01" * 20,), voters=(b"\x02" * 20,))
    )


def test_tx_merkle_root_order_sensitive():
    t1 = Transaction(b"\x01" * 20, b"\x02" * 20, 1, 0, b"\x00" * 64)
    t2 = Transaction(b"\x03" * 20, b"\x04" * 20, 2, 0, b"\x00" * 64)
    assert tx_merkle_root((t1, t2)) != tx_merkle_root((t2, t1))
    assert tx_merkle_root(()) == tx_merkle_root(())
    assert tx_merkle_root((t1,)) != tx_merkle_root(())


@functools.cache
def _exported_chain() -> tuple:
    chain = run(SimConfig(seed=3, node_count=15, run_height=4, tx_interval=2)).chain
    return tuple(chain), encode_chain(chain)


def _vote_offsets(chain, data):
    """Offset in data of the approve byte of every certificate vote."""
    return [data.index(encode_vote(v)) + ADDRESS_SIZE + HASH_SIZE
            for b in chain for v in b.header.prev_certificate.votes]


_PARTS = ("header", "certificate", "transaction", "assignment")


def _nested(b, part):
    """The bodies that enclose `part` of block b, from the block inward,
    as pad_nested_blob takes them."""
    header = encode_header(b.header)
    return (encode_block(b), *{
        "header": (header,),
        "certificate": (header, encode_certificate(b.header.prev_certificate)),
        "transaction": (encode_transaction(b.transactions[0]),) if b.transactions else (),
        "assignment": (encode_assignment(b.assignment),),
    }[part])


@settings(max_examples=300)
@given(st.data())
def test_accepted_chain_bytes_re_encode_exactly(data):
    chain, encoded = _exported_chain()
    op = data.draw(st.sampled_from(["set", "insert", "delete", "approve", "pad"]))
    if op == "approve":
        at = data.draw(st.sampled_from(_vote_offsets(chain, encoded)))
        mutated = encoded[:at] + bytes([data.draw(st.integers(0, 255))]) + encoded[at + 1:]
    elif op == "pad":
        b = data.draw(st.sampled_from(chain))
        mutated = pad_nested_blob(encoded, _nested(b, data.draw(st.sampled_from(_PARTS))))
    else:
        at = data.draw(st.integers(0, len(encoded) - 1))
        byte = bytes([data.draw(st.integers(0, 255))])
        mutated = {
            "set": encoded[:at] + byte + encoded[at + 1:],
            "insert": encoded[:at] + byte + encoded[at:],
            "delete": encoded[:at] + encoded[at + 1:],
        }[op]
    try:
        decoded = decode_chain(mutated)
    except ValueError:
        return
    assert encode_chain(decoded) == mutated


@pytest.mark.parametrize("part", _PARTS)
def test_padded_nested_blob_is_rejected(part):
    chain, encoded = _exported_chain()
    b = next(b for b in chain if b.transactions and b.header.prev_certificate.votes)
    with pytest.raises(ValueError, match=f"trailing bytes in {part} encoding"):
        decode_chain(pad_nested_blob(encoded, _nested(b, part)))
