"""Output checks for the benchmark, written apart from the program.

Nothing here imports ``vaccsc``. The `.vscl` reader below follows
``docs/FORMATS.md`` on its own, and every check recomputes what it
needs from the bytes and reports the program wrote, or tests a property
the protocol must have. Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from hashlib import sha256

MAGIC = b"VSCL"
DIGEST = 32
_RECORD_FIXED = struct.Struct(">20s32sQ64s")  # sender, public key, sequence, signature


@dataclass(frozen=True)
class Record:
    status: int  # 0 accepted, 1 rejected
    method: str
    payload: bytes
    payload_offset: int


@dataclass(frozen=True)
class ParsedLog:
    genesis: dict
    genesis_offset: int  # offset of the u32 genesis length
    genesis_end: int
    records: tuple[Record, ...]
    state_digest: bytes
    events_digest: bytes
    log_digest: bytes


def parse_log(data: bytes) -> ParsedLog:
    """Split a `.vscl` file into its parts; raises ValueError on bad framing."""
    if data[:4] != MAGIC or data[4] != 1:
        raise ValueError("not a version-1 VSCL file")
    (genesis_len,) = struct.unpack_from(">I", data, 5)
    genesis_end = 9 + genesis_len
    genesis = json.loads(data[9:genesis_end])
    pos = genesis_end
    records = []
    while data[pos : pos + 1] == b"T":
        status = data[pos + 1]
        (code_len,) = struct.unpack_from(">H", data, pos + 2)
        pos += 4 + code_len + _RECORD_FIXED.size
        (method_len,) = struct.unpack_from(">H", data, pos)
        method = data[pos + 2 : pos + 2 + method_len].decode()
        pos += 2 + method_len
        (payload_len,) = struct.unpack_from(">I", data, pos)
        pos += 4
        records.append(Record(status, method, data[pos : pos + payload_len], pos))
        pos += payload_len
    if data[pos : pos + 1] != b"F":
        raise ValueError(f"no trailer at offset {pos}")
    (count,) = struct.unpack_from(">Q", data, pos + 1)
    pos += 9
    if count != len(records) or pos + 3 * DIGEST != len(data):
        raise ValueError("trailer does not match the records")
    return ParsedLog(
        genesis=genesis,
        genesis_offset=5,
        genesis_end=genesis_end,
        records=tuple(records),
        state_digest=data[pos : pos + DIGEST],
        events_digest=data[pos + DIGEST : pos + 2 * DIGEST],
        log_digest=data[pos + 2 * DIGEST :],
    )


def rehash(body: bytes) -> bytes:
    """Append a fresh whole-file digest, as anyone editing a log can."""
    return body + sha256(body).digest()


def flip_payload_byte(data: bytes) -> bytes:
    """A re-hashed copy with one payload byte of the middle record flipped."""
    log = parse_log(data)
    offset = log.records[len(log.records) // 2].payload_offset
    body = bytearray(data[:-DIGEST])
    body[offset] ^= 0x01
    return rehash(bytes(body))


def zero_participants_genesis(data: bytes) -> bytes:
    """A re-hashed copy whose genesis claims ``num_participants: 0``."""
    log = parse_log(data)
    genesis = json.loads(json.dumps(log.genesis))
    genesis["params"]["config"]["num_participants"] = 0
    encoded = json.dumps(genesis, sort_keys=True, separators=(",", ":")).encode()
    body = (
        data[: log.genesis_offset]
        + struct.pack(">I", len(encoded))
        + encoded
        + data[log.genesis_end : -DIGEST]
    )
    return rehash(body)


def digests(data: bytes) -> dict[str, str]:
    """The trailer's state and event digests and the whole-file digest, in hex."""
    log = parse_log(data)
    return {
        "state": log.state_digest.hex(),
        "events": log.events_digest.hex(),
        "log": log.log_digest.hex(),
    }


# -- checks ------------------------------------------------------------------


def check_file_digest(data: bytes) -> list[str]:
    if len(data) <= DIGEST or sha256(data[:-DIGEST]).digest() != data[-DIGEST:]:
        return ["last 32 bytes are not the SHA-256 of the bytes before them"]
    return []


def check_same_log(first: bytes, later: bytes) -> list[str]:
    if first != later:
        return ["two runs of one scenario and seed wrote different logs"]
    return []


def _efficiency(ar0: int, ar1: int) -> float | None:
    return None if ar0 == 0 else 100.0 * (ar0 - ar1) / ar0


def check_simulation(exit_code: int, report: dict, data: bytes, config: dict) -> list[str]:
    """One `simulate` of an honest scenario: its exit code, report and log."""
    problems = []
    if exit_code != 0:
        problems.append(f"simulate exited {exit_code}, expected 0")
    problems += check_file_digest(data)
    ledger = report["ledger"]
    outcome = ledger["outcome"] or {}
    ar0, ar1 = outcome.get("ar0"), outcome.get("ar1")
    table = report["assignment_table"] or []
    sick = [row for row in table if row["reported_sick"]]
    sick_placebo = sum(1 for row in sick if row["content"] == "placebo")
    sick_vaccine = sum(1 for row in sick if row["content"] == "vaccine")
    if (ar0, ar1) != (sick_placebo, sick_vaccine):
        problems.append(
            f"ledger ar0={ar0} ar1={ar1}, but the table has {sick_placebo} sick "
            f"placebo and {sick_vaccine} sick vaccine rows"
        )
    if isinstance(ar0, int) and isinstance(ar1, int):
        efficiency = _efficiency(ar0, ar1)
        recorded = outcome.get("efficiency")
        if efficiency is None or recorded is None or abs(efficiency - recorded) > 1e-9:
            problems.append(f"efficiency {recorded} is not 100*(ar0-ar1)/ar0 = {efficiency}")
        elif outcome.get("approved") != (efficiency >= config["target_efficiency"]):
            problems.append(f"approved={outcome.get('approved')} at efficiency {efficiency}")
    if ledger["infected"] != config["infected_threshold"]:
        problems.append(f"infected {ledger['infected']} != threshold {config['infected_threshold']}")

    n = config["num_participants"]
    commitments = {row["commitment"] for row in table}
    patients = {row["patient"] for row in table if row["patient"] is not None}
    if not len(table) == len(commitments) == len(patients) == n:
        problems.append(
            f"{len(patients)} distinct patients over {len(commitments)} commitments, expected {n} each"
        )

    try:
        log = parse_log(data)
    except (ValueError, IndexError, struct.error) as exc:
        return problems + [f"log does not parse: {exc}"]
    reveals = [r for r in log.records if r.method == "reveal_controls" and r.status == 0]
    if len(reveals) != 1:
        return problems + [f"{len(reveals)} accepted reveal_controls records, expected 1"]
    openings = json.loads(reveals[0].payload)["openings"]
    content = {row["commitment"]: row["content"] for row in table}
    for opening in openings:
        digest = sha256(bytes.fromhex(opening["nonce"]) + b"\x00").hexdigest()
        if digest != opening["commitment"]:
            problems.append(f"opening of {opening['commitment']} does not hash as placebo")
        if content.get(opening["commitment"]) != "placebo":
            problems.append(f"opened shot {opening['commitment']} is not a placebo")
    if len(openings) != ar0:
        problems.append(f"{len(openings)} openings for ar0={ar0}")
    return problems


def check_audit(kind: str, exit_code: int, stdout: str) -> list[str]:
    """An honest log must audit clean; each hostile copy must exit 3."""
    if kind == "honest":
        if exit_code != 0 or "audit ok" not in stdout:
            return [f"honest audit exited {exit_code} without 'audit ok'"]
        return []
    if exit_code != 3:
        return [f"{kind} audit exited {exit_code}, expected 3"]
    return []


OMIT, FORGE, COLLUDE = "omit_controls", "forge_controls", "collude_with_patient"


def check_grid_cell(cell: dict, threshold: int) -> list[str]:
    """One adversary-grid cell, given as the report's JSON form."""
    label = cell["label"]
    behaviors = {s["behavior"] for s in cell["strategies"]}
    outcome = cell["ledger"]["outcome"] or {}
    truth = cell["truth"]
    evidence = {item["kind"]: item for item in cell["evidence"]}
    problems = []
    if not cell["complete"] or cell["ledger"]["infected"] != threshold:
        problems.append(f"{label}: incomplete or infected != {threshold}")
    if outcome.get("ar0", 0) + outcome.get("ar1", 0) != threshold:
        problems.append(f"{label}: ar0+ar1 != {threshold}")
    ledger_eff, truth_eff = outcome.get("efficiency"), truth["efficiency"]
    below_truth = ledger_eff is not None and truth_eff is not None and ledger_eff < truth_eff
    if OMIT in behaviors:
        omitted = evidence.get("omission", {}).get("omitted", 0)
        if omitted < 1 or outcome.get("ar0") != truth["ar0"] - omitted:
            problems.append(f"{label}: ledger ar0 is not truth ar0 minus {omitted} omitted")
        if not below_truth:
            problems.append(f"{label}: omission did not push efficiency below truth")
    elif FORGE in behaviors:
        for kind in ("forged_content", "true_vaccine_opening"):
            item = evidence.get(kind, {})
            if not (item.get("rejected") and item.get("state_unchanged")):
                problems.append(f"{label}: {kind} reveal was not rejected with state unchanged")
        if not below_truth:
            problems.append(f"{label}: forging did not leave efficiency below truth")
    elif ledger_eff is None or ledger_eff != truth_eff:
        problems.append(f"{label}: ledger efficiency {ledger_eff} != truth {truth_eff}")
    if COLLUDE in behaviors and not evidence.get("collusion", {}).get("matched"):
        problems.append(f"{label}: colluding pair missed its index")
    return problems
