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
SIGNED_SIZE = PUBLIC_KEY_SIZE + SIGNATURE_SIZE + 1  # a job's result: see ``KeyPair.job``


def address_from_public_key(public_key: bytes) -> bytes:
    """Derive the 20-byte ledger address for a raw 32-byte public key."""
    return sha256(public_key).digest()[:ADDRESS_SIZE]


class KeyPair:
    """A signing identity: 32 private bytes, the Ed25519 key they derive, its raw
    public key and the address it gives.

    The key is derived on first use. A public key derived in another process
    (``ahead.worked_ahead``'s helper) is adopted before that, and checked when
    this process derives the key itself. A keypair from a ``shared`` map (see
    ``generate``) remembers each job's result (see ``job``).
    """

    __slots__ = ("_private_bytes", "_private", "_public_key", "_address", "_results")

    def __init__(self, private_bytes: bytes, results: dict[bytes, bytes] | None = None):
        self._private_bytes = private_bytes
        self._private: Ed25519PrivateKey | None = None
        self._public_key: bytes | None = None
        self._address: bytes | None = None
        self._results = results

    @classmethod
    def generate(cls, rng: Random, shared: dict[bytes, KeyPair] | None = None) -> KeyPair:
        """New keypair drawn from a seeded ``random.Random``, so runs reproduce.

        ``shared`` maps the private bytes one world has drawn to their keypairs,
        which remember their jobs' results. The 32 bytes are drawn either way, so
        the generator's stream does not change.
        """
        private_bytes = rng.randbytes(32)
        if shared is None:
            return cls(private_bytes)
        if private_bytes not in shared:
            shared[private_bytes] = cls(private_bytes, {})
        return shared[private_bytes]

    def _key(self) -> Ed25519PrivateKey:
        if self._private is None:
            private = Ed25519PrivateKey.from_private_bytes(self._private_bytes)
            self.adopt(private.public_key().public_bytes_raw())
            self._private = private
        return self._private

    @property
    def public_key(self) -> bytes:
        if self._public_key is None:
            self._key()
        return self._public_key

    @property
    def address(self) -> bytes:
        if self._address is None:
            self._address = address_from_public_key(self.public_key)
        return self._address

    def adopt(self, public_key: bytes) -> None:
        """Take ``public_key`` as this key's, derived elsewhere; one that disagrees
        with the key this process derived, or derives later, raises ValueError."""
        if self._public_key is None:
            self._public_key = public_key
        elif public_key != self._public_key:
            raise ValueError("an adopted public key disagrees with the one its private bytes derive")

    def sign(self, message: bytes, signature: bytes | None = None) -> bytes:
        """The signature of ``message``. ``signature``, when given, is the one ``job``
        made of ``message`` with this key, and is the answer."""
        return self._key().sign(message) if signature is None else signature

    def job(self, message: bytes, result: bytes | None = None) -> bytes:
        """One Ed25519 job of a run: this key's public key, its signature of ``message``
        and a verdict byte (1 valid, 0 not) from ``verified``, SIGNED_SIZE bytes in all.

        ``result``, when given, is the job as another process did it: its public key
        is adopted, and it is the answer. A keypair from a ``shared`` map remembers
        each result under the message's SHA-256 and gives it again with no Ed25519
        work: Ed25519 signing is deterministic.
        """
        digest = None if self._results is None else sha256(message).digest()
        if result is not None:
            self.adopt(result[:PUBLIC_KEY_SIZE])
        elif digest is not None and digest in self._results:
            return self._results[digest]
        else:
            signature = self._key().sign(message)
            result = self.public_key + signature + bytes([verified(self.public_key, message, signature)])
        if digest is not None:
            self._results[digest] = result
        return result


def verified(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` over ``message`` verifies under the raw ``public_key``;
    False too for bytes that do not parse as a public key."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (ValueError, InvalidSignature):
        return False
