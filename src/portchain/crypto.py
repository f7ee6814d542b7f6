"""Hashing and signature primitives.

Everything here is deterministic: SHA-256 digests and Ed25519 signatures
(which are deterministic by construction), so identical inputs produce
bit-identical outputs across runs and platforms.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

HASH_SIZE = 32
ZERO_HASH = b"\x00" * HASH_SIZE

# Hash / Address are plain bytes: 32-byte digests, 20-byte addresses.
Hash = bytes
Address = bytes

ADDRESS_SIZE = 20


def digest(data: bytes) -> Hash:
    """SHA-256 of data."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True, slots=True)
class KeyPair:
    """An Ed25519 key pair, held as its 32-byte secret seed alone: the
    public key is derived from it, so the two halves always agree."""

    secret: bytes

    @property
    def public(self) -> bytes:
        """The 32-byte Ed25519 public key, from the memo `sign` reads."""
        return _private_key(self.secret)[1]


def keypair_from_seed(seed: bytes) -> KeyPair:
    """The deterministic Ed25519 key pair of a 32-byte seed.  The key is
    loaded once, into the memo that `sign` and `KeyPair.public` read."""
    _private_key(seed)
    return KeyPair(secret=seed)


def address_from_public(public: bytes) -> Address:
    """Account address: first 20 bytes of the public key digest."""
    return digest(public)[:ADDRESS_SIZE]


# Loading key material is much slower than using it, so loaded key
# objects are memoized per raw byte string; a secret's entry also holds
# the public key derived from it.
_private_cache: dict[bytes, tuple[Ed25519PrivateKey, bytes]] = {}
_public_cache: dict[bytes, Ed25519PublicKey] = {}


def _private_key(secret: bytes) -> tuple[Ed25519PrivateKey, bytes]:
    entry = _private_cache.get(secret)
    if entry is None:
        sk = Ed25519PrivateKey.from_private_bytes(secret)
        entry = (sk, sk.public_key().public_bytes_raw())
        _private_cache[secret] = entry
    return entry


def sign(key: KeyPair, message: bytes) -> bytes:
    sk, public = _private_key(key.secret)
    signature = sk.sign(message)
    _verify_cache.add((public, signature, message))
    return signature


class DeferredSignature:
    """`sign(key, message)` for one key and one message, made when `make`
    is first called.  Its holder learns `public`, the key derived from the
    signing secret, and can make this one signature, but gets no key."""

    __slots__ = ("public", "make")

    def __init__(self, key: KeyPair, message: bytes):
        self.public = key.public
        self.make = lambda: sign(key, message)


# Signature checks dominate simulation time, and a signature is checked by
# every node that receives it, so `sign` records each (public, signature,
# message) triple it makes, for the whole process, and `verify` accepts a
# recorded triple without a native check.  That is the one rule; every
# other triple is verified natively each time, and its answer is not kept:
# - the recorded answer is the one OpenSSL would return: Ed25519
#   verification accepts every signature made by the matching secret
#   (RFC 8032 5.1.6-5.1.7), and none of the verifier's strictness checks
#   refuses it, since the derived public key is canonically encoded and
#   the signature's S is reduced below the group order;
# - the triple holds the public key derived from the secret that signed,
#   which is the only public key a `KeyPair` has;
# - every signature this process did not make is verified natively:
#   forged, tampered or mis-keyed votes and transactions, and every
#   signature in a chain file that another process wrote, so a standalone
#   `portchain import` verifies the whole file.
# A `DeferredSignature` not yet made is judged by the same rule, without
# signing: it verifies under a public key iff that key equals the one
# derived from its secret, which is the answer `verify` gives once `sign`
# has recorded it.  Ed25519 signing is deterministic (RFC 8032 5.1.6), so
# the bytes it makes later are those an eager `sign` would have made.
_verify_cache: set[tuple] = set()


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid; malformed inputs return False."""
    if (public, signature, message) in _verify_cache:
        return True
    try:
        pk = _public_cache.get(public)
        if pk is None:
            pk = Ed25519PublicKey.from_public_bytes(public)
            _public_cache[public] = pk
        pk.verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True
