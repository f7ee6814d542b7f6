"""Hash and signature primitives against independent vectors."""
import dataclasses
import hashlib

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from portchain import crypto
from portchain.core import Vote, build_certificate, verify_certificate, vote_signing_bytes
from portchain.crypto import (
    DeferredSignature,
    KeyPair,
    address_from_public,
    digest,
    keypair_from_seed,
    sign,
    verify,
)

from conftest import make_keys


def test_digest_standard_vectors():
    # published SHA-256 vectors
    assert digest(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert digest(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    # agreement with the stdlib oracle on arbitrary data
    blob = bytes(range(256)) * 3
    assert digest(blob) == hashlib.sha256(blob).digest()


def test_digest_deterministic():
    assert digest(b"same") == digest(b"same")


def test_keypair_deterministic_and_address():
    k1 = keypair_from_seed(b"\x01" * 32)
    k2 = keypair_from_seed(b"\x01" * 32)
    assert k1 == k2
    assert address_from_public(k1.public) == digest(k1.public)[:20]
    assert len(address_from_public(k1.public)) == 20


def test_keypair_is_its_secret_alone():
    seed = b"\x09" * 32
    derived = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
    assert keypair_from_seed(seed).public == derived
    assert [f.name for f in dataclasses.fields(KeyPair)] == ["secret"]


def _verify_natively(public, message, signature):
    """`verify` with its memo emptied first, so OpenSSL gives the answer."""
    crypto._verify_cache.clear()
    return verify(public, message, signature)


def test_sign_verify_round_trip():
    kp = keypair_from_seed(b"\x02" * 32)
    sig = sign(kp, b"message")
    # signing recorded the answer, and it is the one OpenSSL gives
    assert (kp.public, sig, b"message") in crypto._verify_cache
    assert verify(kp.public, b"message", sig)
    assert _verify_natively(kp.public, b"message", sig)
    assert sign(kp, b"message") == sig  # deterministic signatures


def test_deferred_signature_is_the_eager_one():
    kp = keypair_from_seed(b"\x05" * 32)
    deferred = DeferredSignature(kp, b"message")
    assert deferred.public == kp.public
    assert deferred.make() == sign(kp, b"message")


def test_deferred_vote_is_signed_once_on_first_read(monkeypatch):
    kp, other = keypair_from_seed(b"\x07" * 32), keypair_from_seed(b"\x08" * 32)
    addr, target = address_from_public(kp.public), digest(b"target")
    message = vote_signing_bytes(target, True)
    eager = Vote(addr, target, True, sign(kp, message))
    made = []
    real_sign = crypto.sign
    monkeypatch.setattr(crypto, "sign", lambda *args: made.append(args) or real_sign(*args))
    vote = Vote.deferred(addr, target, True, kp)
    # judged without signing, as verify judges the eager vote
    assert vote.signed_by(kp.public) and not vote.signed_by(other.public)
    assert verify(kp.public, message, eager.signature)
    assert not verify(other.public, message, eager.signature)
    assert made == []
    # the first read signs, and the bytes are the eager ones
    assert vote.signature == eager.signature and vote == eager and hash(vote) == hash(eager)
    assert len(made) == 1
    # later reads and checks use those bytes
    assert vote.signature == eager.signature and len(made) == 1
    assert vote.signed_by(kp.public) and not vote.signed_by(other.public)


def test_verify_rejects_tampering():
    kp = keypair_from_seed(b"\x03" * 32)
    other = keypair_from_seed(b"\x04" * 32)
    sig = sign(kp, b"message")
    bad = bytes([sig[0] ^ 1]) + sig[1:]
    for public, message, signature in ((kp.public, b"messagf", sig),
                                       (other.public, b"message", sig),
                                       (kp.public, b"message", bad)):
        assert not verify(public, message, signature)
        assert not _verify_natively(public, message, signature)


def test_native_answers_are_not_stored():
    # a signature made outside `sign` is verified natively on every call,
    # and the memo keeps only what `sign` made
    seed = b"\x0a" * 32
    public = keypair_from_seed(seed).public
    sig = Ed25519PrivateKey.from_private_bytes(seed).sign(b"foreign")
    bad = bytes([sig[0] ^ 1]) + sig[1:]
    size = len(crypto._verify_cache)
    assert verify(public, b"foreign", sig) and verify(public, b"foreign", sig)
    assert not verify(public, b"foreign", bad)
    assert len(crypto._verify_cache) == size


def test_verify_malformed_inputs_return_false():
    assert not verify(b"", b"m", b"s")
    assert not verify(b"\x00" * 32, b"m", b"\x00" * 64)


def _votes(pairs, target, approve=True):
    out = []
    for addr, kp in pairs:
        sig = sign(kp, vote_signing_bytes(target, approve))
        out.append(Vote(voter=addr, target_hash=target, approve=approve, signature=sig))
    return out


def test_certificate_happy_path():
    pairs = make_keys(3)
    pubkeys = {a: k.public for a, k in pairs}
    target = digest(b"target")
    cert = build_certificate(_votes(pairs, target))
    assert verify_certificate(cert, [a for a, _ in pairs], pubkeys)


def test_certificate_rejects_outside_voter():
    pairs = make_keys(4)
    pubkeys = {a: k.public for a, k in pairs}
    target = digest(b"target")
    cert = build_certificate(_votes(pairs, target))
    # voter_set missing one signer
    assert not verify_certificate(cert, [a for a, _ in pairs[:3]], pubkeys)


def test_certificate_rejects_tampered_signature():
    pairs = make_keys(3)
    pubkeys = {a: k.public for a, k in pairs}
    target = digest(b"target")
    votes = _votes(pairs, target)
    bad = Vote(
        voter=votes[0].voter,
        target_hash=votes[0].target_hash,
        approve=True,
        signature=b"\x00" * 64,
    )
    cert = build_certificate([bad] + votes[1:])
    assert not verify_certificate(cert, [a for a, _ in pairs], pubkeys)


def test_certificate_rejects_disapproval_votes():
    pairs = make_keys(3)
    pubkeys = {a: k.public for a, k in pairs}
    target = digest(b"target")
    votes = _votes(pairs[:2], target) + _votes(pairs[2:], target, approve=False)
    cert = build_certificate(votes)
    assert not verify_certificate(cert, [a for a, _ in pairs], pubkeys)


def test_certificate_construction_errors():
    import pytest

    from portchain.core import CertificateError

    pairs = make_keys(2)
    target = digest(b"target")
    with pytest.raises(CertificateError):
        build_certificate([])
    v = _votes(pairs[:1], target)[0]
    with pytest.raises(CertificateError):
        build_certificate([v, v])
    other = _votes([pairs[1]], digest(b"other"))[0]
    with pytest.raises(CertificateError):
        build_certificate([v, other])
