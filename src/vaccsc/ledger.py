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
from collections.abc import Sequence
from dataclasses import dataclass
from hashlib import sha256

from .ahead import worked_ahead
from .contract import ContractError, VaccineTrial, canonical_json
from .keys import ADDRESS_SIZE, PUBLIC_KEY_SIZE, SIGNATURE_SIZE, address_from_public_key, verified

ACCEPTED = "accepted"
REJECTED = "rejected"

# Deepest array/object nesting a payload or genesis may have; valid ones
# nest at most 4 deep. Bounding it before parsing keeps a hostile document
# from driving the recursive JSON parser into RecursionError, whose depth
# would depend on the caller's stack.
MAX_JSON_DEPTH = 32

# A JSON string; an unterminated one runs to the end, so every byte is
# scanned once.
_JSON_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
_NOT_BRACKET = bytes(byte for byte in range(256) if byte not in b"[]{}")
_OPENING = frozenset(b"[{")


def too_deep(text: bytes) -> bool:
    """True if JSON ``text`` nests arrays/objects deeper than MAX_JSON_DEPTH.

    Brackets inside strings do not count: the strings are dropped, and only
    the brackets left are walked. The scan is skipped when the text holds
    too few opening brackets to be too deep.
    """
    if text.count(b"[") + text.count(b"{") <= MAX_JSON_DEPTH:
        return False
    depth = 0
    for bracket in _JSON_STRING.sub(b"", text).translate(None, _NOT_BRACKET):
        if bracket in _OPENING:
            depth += 1
            if depth > MAX_JSON_DEPTH:
                return True
        else:
            depth -= 1
    return False


def json_object(raw: bytes, what: str) -> dict:
    """``raw`` parsed, if it is a JSON object in canonical form: the gate every
    payload and a log's genesis pass. Raises ContractError (MalformedPayload or
    NonCanonicalPayload) with a detail naming ``what``."""
    if too_deep(raw):
        raise ContractError("MalformedPayload", f"{what} nests deeper than {MAX_JSON_DEPTH}")
    try:
        doc = json.loads(raw.decode())
    except ValueError:  # bad UTF-8, bad JSON, or an int too long to convert
        raise ContractError("MalformedPayload", f"{what} is not valid JSON") from None
    if not isinstance(doc, dict):
        raise ContractError("MalformedPayload", f"{what} must be a JSON object")
    # Signed bytes that are not the canonical form (duplicate keys, extra
    # whitespace) could mean different things to different JSON parsers.
    if canonical_json(doc) != raw:
        raise ContractError("NonCanonicalPayload", f"{what} is not canonical JSON")
    return doc


def signing_bytes(trial_id: bytes, method: str, sequence_number: int, payload: bytes) -> bytes:
    """The exact bytes a sender signs: the trial id, method (length-prefixed),
    sequence, payload. The trial id keeps a signature from verifying in
    any other trial."""
    method_utf8 = method.encode()
    return (
        trial_id
        + len(method_utf8).to_bytes(2, "big")
        + method_utf8
        + sequence_number.to_bytes(8, "big")
        + payload
    )


@dataclass(frozen=True)
class SignedTransaction:
    """A signed call, holding only what a log record can: building one whose sizes
    or ranges a record cannot hold raises ValueError."""

    sender: bytes
    public_key: bytes
    method: str
    payload: bytes
    sequence_number: int
    signature: bytes

    def __post_init__(self) -> None:
        sizes = len(self.sender), len(self.public_key), len(self.signature)
        if sizes != (ADDRESS_SIZE, PUBLIC_KEY_SIZE, SIGNATURE_SIZE):
            raise ValueError("sender, public key and signature must be 20, 32 and 64 bytes")
        _check_ranges(self.method, self.payload, self.sequence_number)

    def to_dict(self) -> dict:
        """The transaction as ``--export-json`` writes it; bytes of the payload that are not
        UTF-8 become lone surrogates, which ``encode("utf-8", "surrogateescape")`` undoes."""
        return {
            "sender": self.sender.hex(),
            "public_key": self.public_key.hex(),
            "method": self.method,
            "payload": self.payload.decode("utf-8", "surrogateescape"),
            "sequence_number": self.sequence_number,
            "signature": self.signature.hex(),
        }


def _check_ranges(method: str, payload: bytes, sequence_number: int) -> None:
    if not 0 <= sequence_number < 1 << 64:
        raise ValueError("sequence number must be in [0, 2**64)")
    if len(method.encode()) > 0xFFFF or len(payload) >= 1 << 32:
        raise ValueError("method over 65,535 UTF-8 bytes or payload of 2**32 bytes or more")


def unsigned(trial_id: bytes, method: str, params: dict, sequence_number: int) -> tuple[bytes, bytes]:
    """A call's payload and the bytes its sender signs; a size or range a log record
    cannot hold raises ValueError, before anything is signed."""
    payload = canonical_json(params)
    _check_ranges(method, payload, sequence_number)
    return payload, signing_bytes(trial_id, method, sequence_number, payload)


def verify_signature(tx: SignedTransaction, trial_id: bytes, verdict: bool | None = None) -> bool:
    """A ledger's one signature check of a record: ``verified`` over the bytes ``tx``'s
    sender signs in trial ``trial_id``, or ``verdict`` when the caller hands one over,
    the outcome of that check made ahead (see ``KeyPair.job`` and ``Ledger.submit_all``)."""
    if verdict is not None:
        return verdict
    return verified(tx.public_key, signing_bytes(trial_id, tx.method, tx.sequence_number, tx.payload), tx.signature)


@dataclass(frozen=True)
class JournalEntry:
    """One journaled submission and its outcome: the record a log file holds.

    The fields are in the order ``--export-json`` writes them.
    """

    status: str
    code: str | None
    tx: SignedTransaction

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED


class Ledger:
    """Deploys the contract from a genesis and derives the trial id; authenticates each
    submission, and keeps the journal of every one with its outcome and the digests."""

    def __init__(self, genesis: dict):
        self.genesis = genesis
        self.contract = VaccineTrial.from_genesis(genesis)
        # The trial id, the SHA-256 of the canonical genesis, fixes the contract
        # id, the config and every shot commitment; every signature covers it.
        self.trial_id = sha256(canonical_json(genesis)).digest()
        self.journal: list[JournalEntry] = []
        # The events are not kept: each transaction's events are hashed, as
        # one piece, into the canonical JSON list of all events when they are
        # emitted, and the list is closed with "]" on a copy of the hash when
        # a digest is asked for.
        self.event_count = 0
        self._events_hash = sha256(b"[")
        self.sequences: dict[bytes, int] = {}

    # -- submission ----------------------------------------------------

    def submit(self, tx: SignedTransaction, verdict: bool | None = None) -> JournalEntry:
        """Journal ``tx`` with its outcome and return that entry; ``verdict`` is the outcome of
        its one signature check made ahead, or None to make it here (see ``verify_signature``)."""
        code = self._authenticate(tx, verdict) or self._execute(tx, len(self.journal))
        entry = JournalEntry(ACCEPTED if code is None else REJECTED, code, tx)
        self.journal.append(entry)
        return entry

    def _authenticate(self, tx: SignedTransaction, verdict: bool | None) -> str | None:
        if address_from_public_key(tx.public_key) != tx.sender or not verify_signature(tx, self.trial_id, verdict):
            return "BadSignature"
        if tx.sequence_number != self.sequences.get(tx.sender, 0):
            return "StaleSequence"
        return None

    def _execute(self, tx: SignedTransaction, position: int) -> str | None:
        """Apply ``tx`` at journal ``position``: its rejection code, or None once its events are
        hashed. The reason is the text of the ContractError from ``json_object`` or ``dispatch``."""
        try:
            params = json_object(tx.payload, "payload")
            emitted = self.contract.dispatch(tx.sender, tx.method, params, position)
        except ContractError as exc:
            return exc.code
        # Sequence numbers advance only on acceptance, so a rejected call
        # can be corrected and resubmitted under the same number.
        self.sequences[tx.sender] = tx.sequence_number + 1
        if emitted:
            # Each event's record (docs/FORMATS.md, "Events") as a plain object,
            # so the encoder needs no callback; the list's brackets are stripped
            # and its body joins the running list.
            records = [
                {"cause": position, "index": index, "name": name, "payload": payload}
                for index, (name, payload) in enumerate(emitted, self.event_count)
            ]
            if self.event_count:
                self._events_hash.update(b",")
            self._events_hash.update(canonical_json(records)[1:-1])
            self.event_count += len(records)
        return None

    # -- queries ---------------------------------------------------------

    def query(self, view: str) -> object:
        return self.contract.view(view)

    def next_sequence(self, sender: bytes) -> int:
        return self.sequences.get(sender, 0)

    # -- digests ---------------------------------------------------------

    def state_digest(self) -> bytes:
        return sha256(self.contract.canonical_state()).digest()

    def events_digest(self) -> bytes:
        """SHA-256 of the canonical JSON list of every event emitted so far."""
        events_hash = self._events_hash.copy()
        events_hash.update(b"]")
        return events_hash.digest()

    def submit_all(self, txs: Sequence[SignedTransaction]) -> None:
        """Submit ``txs`` in order; the outcomes are read from ``journal``.

        Signatures are verified ahead by ``worked_ahead``'s helper, or by this
        process when it finds the helper busy. Each ``submit`` takes the verdict
        made ahead for its one signature check, or makes the check itself for a
        transaction left to it.
        """

        def job(position: int) -> bytes:
            tx = txs[position]
            message = signing_bytes(self.trial_id, tx.method, tx.sequence_number, tx.payload)
            return bytes([verified(tx.public_key, message, tx.signature)])

        with worked_ahead(len(txs), 1, job) as results:
            for tx, result in zip(txs, results):
                self.submit(tx, None if result is None else result == b"\1")

    # -- replay ------------------------------------------------------------

    @classmethod
    def replay(cls, genesis: dict, entries: Sequence[JournalEntry]) -> tuple[Ledger, list[int]]:
        """Re-run a journal on a new ``Ledger(genesis)`` with ``submit_all``.

        Returns the rebuilt ledger and the journal positions whose outcome
        (accepted/rejected + code) diverged from the recorded one. A clean
        replay returns an empty divergence list; final-state equality is
        then checked by digest comparison. Each reproduced outcome keeps the
        log's own entry, so the journal holds one entry per record, not two.
        """
        ledger = cls(genesis)
        ledger.submit_all([entry.tx for entry in entries])
        divergent: list[int] = []
        for position, (replayed, entry) in enumerate(zip(ledger.journal, entries)):
            if replayed.status == entry.status and replayed.code == entry.code:
                ledger.journal[position] = entry
            else:
                divergent.append(position)
        return ledger, divergent
