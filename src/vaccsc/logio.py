"""Binary transaction-log files and their audit-by-replay reader.

The layout is the struct formats below, in file order (drawn in
docs/FORMATS.md); all integers are big-endian. log_digest is SHA-256
over every preceding byte of the file, so any mutation (a flipped
payload bit, a deleted record, an edited trailer count) is detectable
before replay even starts. The replay itself then catches semantic
tampering that a consistent re-hash would hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from struct import Struct

from .contract import ContractError, VaccineTrial
from .keys import ADDRESS_SIZE, PUBLIC_KEY_SIZE, SIGNATURE_SIZE
from .ledger import (
    ACCEPTED,
    REJECTED,
    JournalEntry,
    Ledger,
    SignedTransaction,
    canonical_json,
    json_object,
)

MAGIC = b"VSCL"
VERSION = 1

# The layout, stated once for the writer and the reader. Between these come
# the genesis, each record's tag 'T', code, method and payload, and the tag 'F'.
_PREAMBLE = Struct(">4sBI")  # magic, version, genesis length
_RECORD_HEAD = Struct(">BH")  # status, code length
# sender, public key, sequence number, signature, method length
_RECORD_FIXED = Struct(f">{ADDRESS_SIZE}s{PUBLIC_KEY_SIZE}sQ{SIGNATURE_SIZE}sH")
_PAYLOAD_LENGTH = Struct(">I")
_TRAILER = Struct(">Q32s32s32s")  # record count, state digest, events digest, log digest

_STATUSES = (ACCEPTED, REJECTED)  # by status byte


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
    """What a log file holds, in the order ``--export-json`` writes it."""

    genesis: dict
    records: tuple[JournalEntry, ...]
    trailer: LogTrailer


# -- writing -----------------------------------------------------------------


def _encode_record(record: JournalEntry) -> bytes:
    tx = record.tx
    code = (record.code or "").encode()
    method = tx.method.encode()
    return b"".join(
        (
            b"T",
            _RECORD_HEAD.pack(_STATUSES.index(record.status), len(code)),
            code,
            _RECORD_FIXED.pack(tx.sender, tx.public_key, tx.sequence_number, tx.signature, len(method)),
            method,
            _PAYLOAD_LENGTH.pack(len(tx.payload)),
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
    """Write the log file; ``read_log`` reads it back."""
    genesis_bytes = canonical_json(genesis)
    body = bytearray(_PREAMBLE.pack(MAGIC, VERSION, len(genesis_bytes)))
    body += genesis_bytes
    for record in records:
        body += _encode_record(record)
    body += b"F"
    body += _TRAILER.pack(len(records), state_digest, events_digest, bytes(32))
    # The log digest covers every byte before it, so it is filled in last.
    body[-32:] = sha256(memoryview(body)[:-32]).digest()
    Path(path).write_bytes(body)


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

    def unpack(self, fmt: Struct, what: str) -> tuple:
        return fmt.unpack(self.take(fmt.size, what))


def read_log(path: str | Path) -> LogFile:
    data = Path(path).read_bytes()
    cur = _Cursor(data)
    magic, version, genesis_len = cur.unpack(_PREAMBLE, "magic, version and genesis length")
    if magic != MAGIC:
        raise LogFormatError("bad magic; not a transaction log")
    if version != VERSION:
        raise LogFormatError("unsupported log version")
    genesis_bytes = cur.take(genesis_len, "genesis")
    # The auditor trusts nothing in the file: a hostile genesis is rejected
    # here, by the gate every payload passes and by the contract that the
    # audit deploys from it.
    try:
        genesis = json_object(genesis_bytes, "genesis")
        VaccineTrial.from_genesis(genesis)
    except ContractError as exc:
        raise LogFormatError(str(exc)) from None
    except ValueError as exc:
        raise LogFormatError(f"invalid genesis: {exc}") from None

    records: list[JournalEntry] = []
    # One object per distinct method name: every record of a method shares it.
    methods: dict[bytes, str] = {}
    while True:
        tag = cur.take(1, "record tag")
        if tag == b"F":
            break
        if tag != b"T":
            raise LogFormatError(f"unknown record tag {tag!r} at offset {cur.pos - 1}")
        status_byte, code_len = cur.unpack(_RECORD_HEAD, "status and code length")
        if status_byte >= len(_STATUSES):
            raise LogFormatError(f"unknown status byte {status_byte}")
        code_raw = cur.take(code_len, "code")
        sender, public_key, sequence, signature, method_len = cur.unpack(
            _RECORD_FIXED, "sender, public key, sequence number, signature and method length"
        )
        method_raw = cur.take(method_len, "method")
        (payload_len,) = cur.unpack(_PAYLOAD_LENGTH, "payload length")
        payload = cur.take(payload_len, "payload")
        try:
            code = code_raw.decode() or None
            if method_raw not in methods:
                methods[method_raw] = method_raw.decode()
            method = methods[method_raw]
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"non-UTF-8 text field: {exc}") from None
        status = _STATUSES[status_byte]
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

    trailer = LogTrailer(*cur.unpack(_TRAILER, "trailer"))
    if cur.pos != len(data):
        raise LogFormatError(f"{len(data) - cur.pos} trailing bytes after trailer")
    if trailer.record_count != len(records):
        raise LogFormatError(
            f"trailer claims {trailer.record_count} records, file holds {len(records)}"
        )
    if sha256(memoryview(data)[:-32]).digest() != trailer.log_digest:
        raise LogFormatError("log digest mismatch; file was modified")
    return LogFile(genesis=genesis, records=tuple(records), trailer=trailer)


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
    """Replay every journaled transaction on a new ledger made from the log's genesis,
    verified from both ends (see ``Ledger.replay``), and compare outcomes and digests;
    no helper process outlives the call."""
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
