"""Hash-based commit/reveal primitives used to seal shot contents.

A committer seals a value by publishing ``SHA-256(nonce || content_byte)``
and later reveals the nonce and content so anyone can recheck the digest.
The 32-byte nonce makes the two-value content space infeasible to brute
force from the digest alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from hashlib import sha256
from random import Random

NONCE_SIZE = 32
DIGEST_SIZE = 32


class ShotContent(Enum):
    """What a shot actually contains, encoded on the wire as one byte."""

    PLACEBO = 0x00
    VACCINE = 0x01

    def encode(self) -> bytes:
        return bytes([self.value])

    @classmethod
    def from_name(cls, name: str) -> "ShotContent":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown shot content {name!r}") from None

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Opening:
    """Secret preimage of a shot commitment: the content plus its nonce."""

    content: ShotContent
    nonce: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.content, ShotContent):
            raise TypeError("content must be a ShotContent")
        if len(self.nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(self.nonce)}")

    def serialize(self) -> bytes:
        """Wire form: 32 nonce bytes followed by the single content byte."""
        return self.nonce + self.content.encode()


def commit(opening: Opening) -> bytes:
    """Produce the 32-byte commitment digest for an opening."""
    return sha256(opening.serialize()).digest()


def verify_raw_opening(commitment: bytes, nonce: bytes, content_byte: int) -> bool:
    """True iff ``nonce || content_byte`` hashes to the commitment.

    Malformed material (wrong nonce length, unknown content byte) is a
    plain mismatch, never an exception.
    """
    if len(commitment) != DIGEST_SIZE or len(nonce) != NONCE_SIZE:
        return False
    if content_byte not in (ShotContent.PLACEBO.value, ShotContent.VACCINE.value):
        return False
    return sha256(nonce + bytes([content_byte])).digest() == commitment


def generate_nonce(rng: Random) -> bytes:
    """A 32-byte nonce drawn from a seeded ``random.Random``, so runs reproduce."""
    return rng.randbytes(NONCE_SIZE)
