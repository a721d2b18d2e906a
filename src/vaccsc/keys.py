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

    __slots__ = ("_private", "public_key", "address", "_signatures")

    def __init__(self, private_bytes: bytes, signatures: dict[bytes, bytes] | None = None):
        self._private = Ed25519PrivateKey.from_private_bytes(private_bytes)
        self.public_key = self._private.public_key().public_bytes_raw()
        self.address = address_from_public_key(self.public_key)
        self._signatures = signatures

    @classmethod
    def generate(cls, rng: Random, shared: dict[bytes, KeyPair] | None = None) -> KeyPair:
        """New keypair drawn from a seeded ``random.Random``, so runs reproduce.

        ``shared`` maps the private bytes one world has drawn to their keypairs,
        which memoize their signatures (see ``sign``). The 32 bytes are drawn
        either way, so the generator's stream does not change.
        """
        private_bytes = rng.randbytes(32)
        if shared is None:
            return cls(private_bytes)
        if private_bytes not in shared:
            shared[private_bytes] = cls(private_bytes, {})
        return shared[private_bytes]

    def sign(self, message: bytes) -> bytes:
        """The signature of ``message``. A keypair from a ``shared`` map keeps it under
        the message's SHA-256 digest and gives it again: Ed25519 signing is deterministic."""
        if self._signatures is None:
            return self._private.sign(message)
        digest = sha256(message).digest()
        if digest not in self._signatures:
            self._signatures[digest] = self._private.sign(message)
        return self._signatures[digest]


def verify_signature(public_key: bytes, message: bytes, signature: bytes, verdicts: dict | None = None) -> bool:
    """True iff ``signature`` over ``message`` verifies under the raw ``public_key``;
    False too for bytes that do not parse as a public key. ``verdicts`` holds one
    world's verdicts under ``(public_key, signature, SHA-256 of message)``, three
    parts kept apart so that no other key and signature can share an entry."""
    if verdicts is not None:
        key = (public_key, signature, sha256(message).digest())
        if key not in verdicts:
            verdicts[key] = verify_signature(public_key, message, signature)
        return verdicts[key]
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (ValueError, InvalidSignature):
        return False
