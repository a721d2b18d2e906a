"""Binary transaction-log files and their audit-by-replay reader.

Layout (all integers big-endian):

    magic 'VSCL' | version 0x01
    genesis: u32 length | canonical JSON bytes
    zero or more 'T' records:
        'T' | status u8 (0 accepted, 1 rejected) | code: u16 len | utf8
        | sender 20B | public_key 32B | sequence u64 | signature 64B
        | method: u16 len | utf8 | payload: u32 len | bytes
    trailer:
        'F' | record_count u64 | state_digest 32B | events_digest 32B
        | log_digest 32B

log_digest is SHA-256 over every preceding byte of the file, so any
mutation (a flipped payload bit, a deleted record, an edited trailer
count) is detectable before replay even starts. The replay itself then
catches semantic tampering that a consistent re-hash would hide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from .contract import VaccineTrial
from .keys import ADDRESS_SIZE, PUBLIC_KEY_SIZE, SIGNATURE_SIZE
from .ledger import (
    ACCEPTED,
    MAX_JSON_DEPTH,
    REJECTED,
    JournalEntry,
    Ledger,
    SignedTransaction,
    canonical_json,
    too_deep,
)

MAGIC = b"VSCL"
VERSION = 1

_STATUS_BYTE = {ACCEPTED: 0, REJECTED: 1}
_BYTE_STATUS = {0: ACCEPTED, 1: REJECTED}


class LogFormatError(Exception):
    """The file is not a well-formed transaction log."""


@dataclass(frozen=True)
class LogTrailer:
    record_count: int
    state_digest: bytes
    events_digest: bytes
    log_digest: bytes


@dataclass(frozen=True)
class LogFile:
    genesis: dict
    records: tuple[JournalEntry, ...]
    trailer: LogTrailer


# -- writing -----------------------------------------------------------------


def _encode_record(record: JournalEntry) -> bytes:
    tx = record.tx
    code = (record.code or "").encode()
    method = tx.method.encode()
    if len(tx.sender) != ADDRESS_SIZE:
        raise ValueError("sender must be a 20-byte address")
    if len(tx.public_key) != PUBLIC_KEY_SIZE or len(tx.signature) != SIGNATURE_SIZE:
        raise ValueError("malformed key or signature")
    return b"".join(
        (
            b"T",
            bytes([_STATUS_BYTE[record.status]]),
            len(code).to_bytes(2, "big"),
            code,
            tx.sender,
            tx.public_key,
            tx.sequence_number.to_bytes(8, "big"),
            tx.signature,
            len(method).to_bytes(2, "big"),
            method,
            len(tx.payload).to_bytes(4, "big"),
            tx.payload,
        )
    )


def write_log(
    path: str | Path,
    genesis: dict,
    records: list[JournalEntry],
    state_digest: bytes,
    events_digest: bytes,
) -> None:
    body = bytearray()
    body += MAGIC
    body.append(VERSION)
    genesis_bytes = canonical_json(genesis)
    body += len(genesis_bytes).to_bytes(4, "big")
    body += genesis_bytes
    for record in records:
        body += _encode_record(record)
    body += b"F"
    body += len(records).to_bytes(8, "big")
    body += state_digest
    body += events_digest
    body += sha256(bytes(body)).digest()
    Path(path).write_bytes(bytes(body))


def write_ledger_log(path: str | Path, ledger: Ledger) -> None:
    write_log(path, ledger.genesis, ledger.journal, ledger.state_digest(), ledger.events_digest())


# -- reading -----------------------------------------------------------------


class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise LogFormatError(f"truncated file while reading {what}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return int.from_bytes(self.take(2, what), "big")

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "big")

    def u64(self, what: str) -> int:
        return int.from_bytes(self.take(8, what), "big")


def read_log(path: str | Path) -> LogFile:
    data = Path(path).read_bytes()
    cur = _Cursor(data)
    if cur.take(4, "magic") != MAGIC:
        raise LogFormatError("bad magic; not a transaction log")
    if cur.u8("version") != VERSION:
        raise LogFormatError("unsupported log version")
    genesis_len = cur.u32("genesis length")
    genesis_bytes = cur.take(genesis_len, "genesis")
    if too_deep(genesis_bytes):
        raise LogFormatError(f"genesis nests deeper than {MAX_JSON_DEPTH}")
    try:
        genesis = json.loads(genesis_bytes.decode())
    except ValueError as exc:  # bad UTF-8, bad JSON, or an int too long to convert
        raise LogFormatError(f"genesis is not valid JSON: {exc}") from None
    if not isinstance(genesis, dict):
        raise LogFormatError("genesis must be a JSON object")
    if canonical_json(genesis) != genesis_bytes:
        raise LogFormatError("genesis is not canonical JSON")
    # The auditor trusts nothing in the file: a hostile genesis must be
    # rejected here, before any replay builds a contract from it.
    try:
        VaccineTrial.from_genesis(genesis)
    except ValueError as exc:
        raise LogFormatError(f"invalid genesis: {exc}") from None

    records: list[JournalEntry] = []
    while True:
        tag = cur.take(1, "record tag")
        if tag == b"F":
            break
        if tag != b"T":
            raise LogFormatError(f"unknown record tag {tag!r} at offset {cur.pos - 1}")
        status_byte = cur.u8("status")
        if status_byte not in _BYTE_STATUS:
            raise LogFormatError(f"unknown status byte {status_byte}")
        code_len = cur.u16("code length")
        code_raw = cur.take(code_len, "code")
        sender = cur.take(ADDRESS_SIZE, "sender")
        public_key = cur.take(PUBLIC_KEY_SIZE, "public key")
        sequence = cur.u64("sequence number")
        signature = cur.take(SIGNATURE_SIZE, "signature")
        method_len = cur.u16("method length")
        method_raw = cur.take(method_len, "method")
        payload_len = cur.u32("payload length")
        payload = cur.take(payload_len, "payload")
        try:
            code = code_raw.decode() or None
            method = method_raw.decode()
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"non-UTF-8 text field: {exc}") from None
        status = _BYTE_STATUS[status_byte]
        if (status == ACCEPTED) != (code is None):
            raise LogFormatError("status byte and error code disagree")
        records.append(
            JournalEntry(
                status=status,
                code=code,
                tx=SignedTransaction(
                    sender=sender,
                    public_key=public_key,
                    method=method,
                    payload=payload,
                    sequence_number=sequence,
                    signature=signature,
                ),
            )
        )

    record_count = cur.u64("record count")
    state_digest = cur.take(32, "state digest")
    events_digest = cur.take(32, "events digest")
    digest_offset = cur.pos
    log_digest = cur.take(32, "log digest")
    if cur.pos != len(data):
        raise LogFormatError(f"{len(data) - cur.pos} trailing bytes after trailer")
    if record_count != len(records):
        raise LogFormatError(
            f"trailer claims {record_count} records, file holds {len(records)}"
        )
    if sha256(data[:digest_offset]).digest() != log_digest:
        raise LogFormatError("log digest mismatch; file was modified")
    return LogFile(
        genesis=genesis,
        records=tuple(records),
        trailer=LogTrailer(
            record_count=record_count,
            state_digest=state_digest,
            events_digest=events_digest,
            log_digest=log_digest,
        ),
    )


# -- audit -------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    record_count: int
    divergent_positions: tuple[int, ...]
    state_match: bool
    events_match: bool
    detail: str


def audit_log(log: LogFile) -> tuple[AuditReport, Ledger]:
    """Replay every journaled transaction and compare outcomes and digests."""
    ledger, divergent = Ledger.replay(log.genesis, log.records)
    state_match = ledger.state_digest() == log.trailer.state_digest
    events_match = ledger.events_digest() == log.trailer.events_digest
    ok = not divergent and state_match and events_match
    if ok:
        detail = "replay reproduced the recorded state"
    else:
        problems = []
        if divergent:
            problems.append(f"{len(divergent)} transaction(s) diverged, first at {divergent[0]}")
        if not state_match:
            problems.append("final state digest mismatch")
        if not events_match:
            problems.append("event log digest mismatch")
        detail = "; ".join(problems)
    report = AuditReport(
        ok=ok,
        record_count=len(log.records),
        divergent_positions=tuple(divergent),
        state_match=state_match,
        events_match=events_match,
        detail=detail,
    )
    return report, ledger
