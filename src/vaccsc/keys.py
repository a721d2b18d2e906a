"""Ed25519 signing identities and their ledger addresses.

An address is the first 20 bytes of SHA-256 over the raw public key.
Ed25519 signatures are deterministic, which keeps seeded simulation
runs byte-reproducible end to end.
"""

from __future__ import annotations

from hashlib import sha256
from random import Random

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

ADDRESS_SIZE = 20
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64


def address_from_public_key(public_key: bytes) -> bytes:
    """Derive the 20-byte ledger address for a raw 32-byte public key."""
    if len(public_key) != PUBLIC_KEY_SIZE:
        raise ValueError(f"public key must be {PUBLIC_KEY_SIZE} bytes")
    return sha256(public_key).digest()[:ADDRESS_SIZE]


class KeyPair:
    """A signing identity: private key, raw public key, derived address."""

    __slots__ = ("_private", "public_key", "address")

    def __init__(self, private_bytes: bytes):
        self._private = Ed25519PrivateKey.from_private_bytes(private_bytes)
        self.public_key = self._private.public_key().public_bytes_raw()
        self.address = address_from_public_key(self.public_key)

    @classmethod
    def generate(cls, rng: Random) -> "KeyPair":
        """New keypair drawn from a seeded ``random.Random``, so runs reproduce."""
        return cls(rng.randbytes(32))

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` over ``message`` verifies under the raw ``public_key``;
    False too for bytes that do not parse as a public key."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (ValueError, InvalidSignature):
        return False
