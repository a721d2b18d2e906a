"""Blum's coin flip by telephone: a committed contribution and the slot
two values select.

The patient commits to a private 64-bit contribution, the clinic answers
with a value in the clear, and the patient opens its commitment last. The
shared value is the XOR of the two, so one honest party with a uniform
value makes the selection uniform whatever the other plays. The contract's
``BindingSession`` keeps the commitment, the clinic's value and the reveal.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256

from .commitment import NONCE_SIZE

VALUE_SIZE = 8
U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RandomContribution:
    """One party's private random value plus the nonce sealing it."""

    value: int
    nonce: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.value <= U64_MAX:
            raise ValueError("contribution value must fit in 64 bits")
        if len(self.nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes")

    def serialize(self) -> bytes:
        """Wire form: 8-byte big-endian value followed by the 32-byte nonce."""
        return self.value.to_bytes(VALUE_SIZE, "big") + self.nonce


def commit_contribution(contribution: RandomContribution) -> bytes:
    """Commitment digest over the contribution's wire form."""
    return sha256(contribution.serialize()).digest()


def select_index(first: int, second: int, available_count: int) -> int:
    """The one of ``available_count`` slots two values select: their XOR,
    modulo the count.

    Plain modulo; the bias for counts far below 2**64 is negligible.
    """
    if available_count < 1:
        raise ValueError("no slots available to select from")
    return (first ^ second) % available_count
