"""Simulated authenticated ledger.

A single-writer state machine: signed transactions are applied strictly
in submission order, each either mutating the contract atomically or
being rejected with a reason. Rejected transactions are kept in the
journal too; misbehavior must stay visible to auditors. Replaying a
journal from the same genesis reproduces the exact final state,
byte for byte.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass
from hashlib import sha256

from .contract import ContractError, VaccineTrial, canonical_json
from .keys import (
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
    KeyPair,
    address_from_public_key,
    load_public_key,
    verify_signature,
)

ACCEPTED = "accepted"
REJECTED = "rejected"

# Deepest array/object nesting a payload or genesis may have; valid ones
# nest at most 4 deep. Bounding it before parsing keeps a hostile document
# from driving the recursive JSON parser into RecursionError, whose depth
# would depend on the caller's stack.
MAX_JSON_DEPTH = 32

# A JSON string (an unterminated one runs to the end, so every byte is
# scanned once) or one bracket.
_JSON_TOKEN = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[\]{}]', re.DOTALL)


def too_deep(text: bytes) -> bool:
    """True if JSON ``text`` nests arrays/objects deeper than MAX_JSON_DEPTH.

    Brackets inside strings do not count. The scan is iterative and is
    skipped when the text holds too few opening brackets to be too deep.
    """
    if text.count(b"[") + text.count(b"{") <= MAX_JSON_DEPTH:
        return False
    depth = 0
    for match in _JSON_TOKEN.finditer(text):
        token = match.group()
        if token in (b"[", b"{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                return True
        elif token in (b"]", b"}"):
            depth -= 1
    return False


def signing_bytes(method: str, sequence_number: int, payload: bytes) -> bytes:
    """The exact bytes a sender signs: method (length-prefixed), sequence, payload."""
    method_utf8 = method.encode()
    if len(method_utf8) > 0xFFFF:
        raise ValueError("method name too long")
    return (
        len(method_utf8).to_bytes(2, "big")
        + method_utf8
        + sequence_number.to_bytes(8, "big")
        + payload
    )


@dataclass(frozen=True)
class SignedTransaction:
    sender: bytes
    public_key: bytes
    method: str
    payload: bytes
    sequence_number: int
    signature: bytes

    def signing_bytes(self) -> bytes:
        return signing_bytes(self.method, self.sequence_number, self.payload)

    def to_dict(self) -> dict:
        return {
            "sender": self.sender.hex(),
            "public_key": self.public_key.hex(),
            "method": self.method,
            "payload": self.payload.decode(),
            "sequence_number": self.sequence_number,
            "signature": self.signature.hex(),
        }


def make_transaction(
    keypair: KeyPair, method: str, params: dict, sequence_number: int
) -> SignedTransaction:
    payload = canonical_json(params)
    signature = keypair.sign(signing_bytes(method, sequence_number, payload))
    return SignedTransaction(
        sender=keypair.address,
        public_key=keypair.public_key,
        method=method,
        payload=payload,
        sequence_number=sequence_number,
        signature=signature,
    )


@dataclass(frozen=True)
class Event:
    """An emitted contract event; ordinals are global and gapless."""

    index: int
    name: str
    payload: dict
    cause: int  # journal position of the transaction that emitted it


@dataclass(frozen=True)
class Receipt:
    status: str
    code: str | None
    detail: str
    position: int  # journal position of this submission
    events: tuple[Event, ...]

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED


@dataclass(frozen=True)
class JournalEntry:
    """One journaled submission and its outcome: the record a log file holds.

    The fields are in the order ``--export-json`` writes them.
    """

    status: str
    code: str | None
    tx: SignedTransaction


class Ledger:
    """Owns the contract instance; all access flows through here."""

    def __init__(self, genesis: dict):
        self.genesis = genesis
        self.contract = VaccineTrial.from_genesis(genesis)
        self.journal: list[JournalEntry] = []
        self.events: list[Event] = []
        self.sequences: dict[bytes, int] = {}
        self._pubkeys: dict[bytes, object] = {}

    # -- submission ----------------------------------------------------

    def submit(self, tx: SignedTransaction) -> Receipt:
        position = len(self.journal)
        code, detail = self._authenticate(tx)
        if code is None:
            code, detail, events = self._execute(tx, position)
        else:
            events = ()
        status = ACCEPTED if code is None else REJECTED
        self.journal.append(JournalEntry(status=status, code=code, tx=tx))
        return Receipt(status=status, code=code, detail=detail, position=position, events=events)

    def _authenticate(self, tx: SignedTransaction) -> tuple[str | None, str]:
        if len(tx.public_key) != PUBLIC_KEY_SIZE or len(tx.signature) != SIGNATURE_SIZE:
            return "BadSignature", "malformed key or signature"
        if address_from_public_key(tx.public_key) != tx.sender:
            return "BadSignature", "sender address does not match the signing key"
        pub = self._pubkeys.get(tx.public_key)
        if pub is None:
            try:
                pub = load_public_key(tx.public_key)
            except ValueError:
                return "BadSignature", "invalid public key"
            self._pubkeys[tx.public_key] = pub
        if not verify_signature(pub, tx.signing_bytes(), tx.signature):
            return "BadSignature", "signature does not verify"
        expected = self.sequences.get(tx.sender, 0)
        if tx.sequence_number != expected:
            return "StaleSequence", f"expected sequence {expected}, got {tx.sequence_number}"
        return None, ""

    def _execute(self, tx: SignedTransaction, position: int) -> tuple[str | None, str, tuple[Event, ...]]:
        if too_deep(tx.payload):
            return "MalformedPayload", f"payload nests deeper than {MAX_JSON_DEPTH}", ()
        try:
            params = json.loads(tx.payload.decode())
        except ValueError:  # bad UTF-8, bad JSON, or an int too long to convert
            return "MalformedPayload", "payload is not valid JSON", ()
        if not isinstance(params, dict):
            return "MalformedPayload", "payload must be a JSON object", ()
        # Signed bytes that are not the canonical form (duplicate keys, extra
        # whitespace) could mean different things to different JSON parsers.
        if canonical_json(params) != tx.payload:
            return "NonCanonicalPayload", "payload is not canonical JSON", ()
        try:
            emitted = self.contract.dispatch(tx.sender, tx.method, params, position)
        except ContractError as exc:
            return exc.code, str(exc), ()
        # Sequence numbers advance only on acceptance, so a rejected call
        # can be corrected and resubmitted under the same number.
        self.sequences[tx.sender] = tx.sequence_number + 1
        events = []
        for name, payload in emitted:
            events.append(Event(index=len(self.events), name=name, payload=payload, cause=position))
            self.events.append(events[-1])
        return None, "", tuple(events)

    # -- queries ---------------------------------------------------------

    def query(self, view: str) -> object:
        return self.contract.view(view)

    def next_sequence(self, sender: bytes) -> int:
        return self.sequences.get(sender, 0)

    # -- digests ---------------------------------------------------------

    def state_digest(self) -> bytes:
        return sha256(self.contract.canonical_state()).digest()

    def events_digest(self) -> bytes:
        return sha256(canonical_json(self.events)).digest()

    # -- replay ------------------------------------------------------------

    @classmethod
    def replay(cls, genesis: dict, entries: Iterable[JournalEntry]) -> tuple["Ledger", list[int]]:
        """Re-run a journal from genesis.

        Returns the rebuilt ledger and the journal positions whose outcome
        (accepted/rejected + code) diverged from the recorded one. A clean
        replay returns an empty divergence list; final-state equality is
        then checked by digest comparison.
        """
        ledger = cls(genesis)
        divergent: list[int] = []
        for position, entry in enumerate(entries):
            receipt = ledger.submit(entry.tx)
            if receipt.status != entry.status or receipt.code != entry.code:
                divergent.append(position)
        return ledger, divergent
