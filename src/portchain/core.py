"""Chain value types and their canonical binary encoding.

Blocks carry both links of the double-linked chain: the backward link is
the previous block's header digest (plus a vote certificate committing
it), the forward link is the recorded maintainer assignment that alone
authorizes the creators and voters of a future block.

The encoding is length-prefixed and field-ordered so digests are
bit-exact and language-neutral; ``decode_block`` and ``decode_chain``
invert ``encode_block`` and ``encode_chain``.
Decoding is strict: every nested blob is consumed exactly and a vote's
approve byte is 0 or 1, so anything decoded re-encodes to the same bytes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .crypto import (
    ADDRESS_SIZE,
    HASH_SIZE,
    ZERO_HASH,
    Address,
    Hash,
    digest,
    verify,
)

ZERO_ADDRESS = b"\x00" * ADDRESS_SIZE


class CertificateError(ValueError):
    """Raised when a vote certificate cannot be constructed."""


@dataclass(frozen=True, slots=True)
class Transaction:
    sender: Address
    receiver: Address
    value: int
    nonce: int
    signature: bytes

    def signing_bytes(self) -> bytes:
        return b"tx" + self.sender + self.receiver + _u64(self.value) + _u64(self.nonce)


@dataclass(frozen=True, slots=True)
class Vote:
    voter: Address
    target_hash: Hash
    approve: bool
    signature: bytes

    def signing_bytes(self) -> bytes:
        return vote_signing_bytes(self.target_hash, self.approve)


def vote_signing_bytes(target_hash: Hash, approve: bool) -> bytes:
    return b"vote" + target_hash + (b"\x01" if approve else b"\x00")


@dataclass(frozen=True, slots=True)
class VoteCertificate:
    target_hash: Hash
    votes: tuple[Vote, ...]  # sorted by voter address, distinct voters

    def voters(self) -> tuple[Address, ...]:
        return tuple(v.voter for v in self.votes)


# Sentinel certificate carried by the genesis header, which has no
# predecessor to commit.
EMPTY_CERTIFICATE = VoteCertificate(target_hash=ZERO_HASH, votes=())


# no slots: assignment_digest caches the encoded digest on the instance
@dataclass(frozen=True)
class MaintainerAssignment:
    block_height: int  # the future block these maintainers serve
    creators: tuple[Address, ...]
    voters: tuple[Address, ...]

    def members(self) -> tuple[Address, ...]:
        return self.creators + self.voters


@dataclass(frozen=True, slots=True)
class FraudReport:
    reporter: Address
    accused: Address
    evidence_hash: Hash
    height_of_offense: int


# no slots: block_digest caches the encoded digest on the instance
@dataclass(frozen=True)
class BlockHeader:
    height: int
    prev_hash: Hash
    creator: Address
    creator_index: int
    state_root: Hash
    tx_root: Hash
    prev_certificate: VoteCertificate
    timestamp: int  # logical simulation tick
    assignment_digest: Hash


@dataclass(frozen=True, slots=True)
class Block:
    header: BlockHeader
    transactions: tuple[Transaction, ...]
    assignment: MaintainerAssignment
    fraud_reports: tuple[FraudReport, ...]


# ---------------------------------------------------------------------------
# certificates


def build_certificate(votes) -> VoteCertificate:
    """Aggregate distinct approval votes over one target into a certificate."""
    votes = sorted(votes, key=lambda v: v.voter)
    if not votes:
        raise CertificateError("empty vote set")
    voters = [v.voter for v in votes]
    if len(set(voters)) != len(voters):
        raise CertificateError("duplicate voter")
    target = votes[0].target_hash
    if any(v.target_hash != target for v in votes):
        raise CertificateError("mixed target hashes")
    return VoteCertificate(target_hash=target, votes=tuple(votes))


def verify_certificate(cert: VoteCertificate, voter_set, public_keys) -> bool:
    """True iff every vote verifies, voters are distinct members of
    voter_set, and all votes approve cert.target_hash."""
    if not cert.votes:
        return False
    allowed = set(voter_set)
    seen = set()
    for v in cert.votes:
        if v.voter in seen or v.voter not in allowed:
            return False
        if not v.approve or v.target_hash != cert.target_hash:
            return False
        pub = public_keys.get(v.voter)
        if pub is None or not verify(pub, v.signing_bytes(), v.signature):
            return False
        seen.add(v.voter)
    return True


# ---------------------------------------------------------------------------
# canonical encoding

def _u8(x: int) -> bytes:
    return x.to_bytes(1, "big")


def _u32(x: int) -> bytes:
    return x.to_bytes(4, "big")


def _u64(x: int) -> bytes:
    return x.to_bytes(8, "big")


def _blob(b: bytes) -> bytes:
    return _u32(len(b)) + b


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated encoding")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> bool:
        return self.pos == len(self.data)


def _exact(data: bytes, read, what: str):
    """Decode data with read, which must consume every byte of it: a
    decoded value then re-encodes to exactly data."""
    r = _Reader(data)
    out = read(r)
    if not r.done():
        raise ValueError(f"trailing bytes in {what} encoding")
    return out


def encode_transaction(tx: Transaction) -> bytes:
    return tx.sender + tx.receiver + _u64(tx.value) + _u64(tx.nonce) + _blob(tx.signature)


def _read_transaction(r: _Reader) -> Transaction:
    return Transaction(
        sender=r.take(ADDRESS_SIZE),
        receiver=r.take(ADDRESS_SIZE),
        value=r.u64(),
        nonce=r.u64(),
        signature=r.blob(),
    )


def encode_vote(v: Vote) -> bytes:
    return v.voter + v.target_hash + _u8(int(v.approve)) + _blob(v.signature)


def _read_vote(r: _Reader) -> Vote:
    voter = r.take(ADDRESS_SIZE)
    target_hash = r.take(HASH_SIZE)
    approve = r.u8()
    if approve > 1:
        raise ValueError(f"vote approve byte {approve} is neither 0 nor 1")
    return Vote(voter=voter, target_hash=target_hash, approve=approve == 1, signature=r.blob())


def encode_certificate(cert: VoteCertificate) -> bytes:
    out = [cert.target_hash, _u32(len(cert.votes))]
    out.extend(encode_vote(v) for v in cert.votes)
    return b"".join(out)


def _read_certificate(r: _Reader) -> VoteCertificate:
    target = r.take(HASH_SIZE)
    votes = tuple(_read_vote(r) for _ in range(r.u32()))
    return VoteCertificate(target_hash=target, votes=votes)


def encode_assignment(a: MaintainerAssignment) -> bytes:
    out = [_u64(a.block_height), _u32(len(a.creators))]
    out.extend(a.creators)
    out.append(_u32(len(a.voters)))
    out.extend(a.voters)
    return b"".join(out)


def _read_assignment(r: _Reader) -> MaintainerAssignment:
    height = r.u64()
    creators = tuple(r.take(ADDRESS_SIZE) for _ in range(r.u32()))
    voters = tuple(r.take(ADDRESS_SIZE) for _ in range(r.u32()))
    return MaintainerAssignment(block_height=height, creators=creators, voters=voters)


def encode_fraud_report(fr: FraudReport) -> bytes:
    return fr.reporter + fr.accused + fr.evidence_hash + _u64(fr.height_of_offense)


def _read_fraud_report(r: _Reader) -> FraudReport:
    return FraudReport(
        reporter=r.take(ADDRESS_SIZE),
        accused=r.take(ADDRESS_SIZE),
        evidence_hash=r.take(HASH_SIZE),
        height_of_offense=r.u64(),
    )


def encode_header(h: BlockHeader) -> bytes:
    return b"".join(
        (
            _u64(h.height),
            h.prev_hash,
            h.creator,
            _u8(h.creator_index),
            h.state_root,
            h.tx_root,
            _blob(encode_certificate(h.prev_certificate)),
            _u64(h.timestamp),
            h.assignment_digest,
        )
    )


def _read_header(r: _Reader) -> BlockHeader:
    return BlockHeader(
        height=r.u64(),
        prev_hash=r.take(HASH_SIZE),
        creator=r.take(ADDRESS_SIZE),
        creator_index=r.u8(),
        state_root=r.take(HASH_SIZE),
        tx_root=r.take(HASH_SIZE),
        prev_certificate=_exact(r.blob(), _read_certificate, "certificate"),
        timestamp=r.u64(),
        assignment_digest=r.take(HASH_SIZE),
    )


def encode_block(b: Block) -> bytes:
    out = [_blob(encode_header(b.header)), _u32(len(b.transactions))]
    out.extend(_blob(encode_transaction(tx)) for tx in b.transactions)
    out.append(_blob(encode_assignment(b.assignment)))
    out.append(_u32(len(b.fraud_reports)))
    out.extend(encode_fraud_report(fr) for fr in b.fraud_reports)
    return b"".join(out)


def _read_block(r: _Reader) -> Block:
    header = _exact(r.blob(), _read_header, "header")
    txs = tuple(_exact(r.blob(), _read_transaction, "transaction") for _ in range(r.u32()))
    assignment = _exact(r.blob(), _read_assignment, "assignment")
    frauds = tuple(_read_fraud_report(r) for _ in range(r.u32()))
    return Block(header=header, transactions=txs, assignment=assignment, fraud_reports=frauds)


def decode_block(data: bytes) -> Block:
    return _exact(data, _read_block, "block")


# ---------------------------------------------------------------------------
# digests

# headers are immutable and re-hashed constantly (resolution, tallies,
# commit checks), so digests are cached on the value itself; the frozen
# dataclass blocks plain assignment, hence object.__setattr__


def block_digest(header: BlockHeader) -> Hash:
    d = getattr(header, "_cached_digest", None)
    if d is None:
        d = digest(b"hdr" + encode_header(header))
        object.__setattr__(header, "_cached_digest", d)
    return d


def assignment_digest(a: MaintainerAssignment) -> Hash:
    d = getattr(a, "_cached_digest", None)
    if d is None:
        d = digest(b"asgn" + encode_assignment(a))
        object.__setattr__(a, "_cached_digest", d)
    return d


def tx_merkle_root(transactions) -> Hash:
    """Binary Merkle root over transaction encodings; empty list maps to
    the zero hash, an unpaired node is promoted unchanged."""
    level = [digest(b"txleaf" + encode_transaction(tx)) for tx in transactions]
    if not level:
        return ZERO_HASH
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(digest(b"txnode" + level[i] + level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# ---------------------------------------------------------------------------
# chain export format: length-prefixed canonical block records in height order

def encode_chain(blocks) -> bytes:
    out = [_u32(len(blocks))]
    for b in blocks:
        out.append(_blob(encode_block(b)))
    return b"".join(out)


def decode_chain(data: bytes) -> list[Block]:
    r = _Reader(data)
    blocks = [decode_block(r.blob()) for _ in range(r.u32())]
    if not r.done():
        raise ValueError("trailing bytes in chain file")
    return blocks
