"""Two-party committed coin flip yielding a shared 64-bit value.

Both parties commit to a private 64-bit contribution, then reveal.
The shared result is the XOR of the two values, so a single honest
party with a uniform contribution makes the result uniform no matter
what the other party plays. Reveals are only accepted once both
commitments exist, and a stalled session can be aborted after its
deadline so one silent party cannot wedge the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from hashlib import sha256

from .commitment import DIGEST_SIZE, NONCE_SIZE

VALUE_SIZE = 8
U64_MAX = 2**64 - 1


class Party(Enum):
    A = "a"  # initiator (the clinic in the binding flow)
    B = "b"  # responder (the patient)


class SessionPhase(Enum):
    AWAITING_COMMITS = "awaiting_commits"
    AWAITING_REVEALS = "awaiting_reveals"
    COMPLETE = "complete"
    ABORTED = "aborted"


class SessionError(Exception):
    """A session operation violated the commit-before-reveal ordering."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(detail or code)
        self.code = code


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


def select_index(result: int, available_count: int) -> int:
    """Map a shared 64-bit result onto one of ``available_count`` slots.

    Plain modulo; the bias for counts far below 2**64 is negligible.
    """
    if available_count < 1:
        raise ValueError("no slots available to select from")
    return result % available_count


@dataclass
class CoinFlipSession:
    """State of one two-party flip. Single-writer; callers serialize access."""

    deadline: int | None = None
    phase: SessionPhase = SessionPhase.AWAITING_COMMITS
    commit_a: bytes | None = None
    commit_b: bytes | None = None
    reveal_a: RandomContribution | None = None
    reveal_b: RandomContribution | None = None
    result: int | None = None

    def add_commit(self, party: Party, commitment: bytes) -> None:
        if self.phase is not SessionPhase.AWAITING_COMMITS:
            raise SessionError("CommitPhaseOver", "commit phase already closed")
        if len(commitment) != DIGEST_SIZE:
            raise SessionError("MalformedCommit", "commitment must be 32 bytes")
        slot = "commit_a" if party is Party.A else "commit_b"
        if getattr(self, slot) is not None:
            raise SessionError("DuplicateCommit", f"party {party.value} already committed")
        setattr(self, slot, commitment)
        if self.commit_a is not None and self.commit_b is not None:
            self.phase = SessionPhase.AWAITING_REVEALS

    def add_reveal(self, party: Party, contribution: RandomContribution) -> None:
        if self.phase is not SessionPhase.AWAITING_REVEALS:
            raise SessionError("RevealBeforeCommits", "both commits must exist before any reveal")
        slot = "reveal_a" if party is Party.A else "reveal_b"
        if getattr(self, slot) is not None:
            raise SessionError("DuplicateReveal", f"party {party.value} already revealed")
        expected = self.commit_a if party is Party.A else self.commit_b
        if commit_contribution(contribution) != expected:
            raise SessionError("RevealMismatch", "reveal does not match the stored commitment")
        setattr(self, slot, contribution)
        if self.reveal_a is not None and self.reveal_b is not None:
            self.result = self.reveal_a.value ^ self.reveal_b.value
            self.phase = SessionPhase.COMPLETE

    def abort(self, now: int) -> None:
        if self.phase in (SessionPhase.COMPLETE, SessionPhase.ABORTED):
            raise SessionError("AbortAfterComplete", "session already settled")
        if self.deadline is None or now <= self.deadline:
            raise SessionError("AbortBeforeDeadline", "deadline has not passed")
        self.phase = SessionPhase.ABORTED
