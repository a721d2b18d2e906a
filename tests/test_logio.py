"""Binary trial-log files: roundtrip, tamper detection, replay audit."""

import copy
import json
import re
from hashlib import sha256

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from vaccsc import cli
from vaccsc.contract import canonical_json, json_value
from vaccsc.ledger import ACCEPTED, REJECTED, JournalEntry, Ledger, SignedTransaction, signing_bytes
from vaccsc.logio import (
    MAGIC,
    VERSION,
    LogFormatError,
    audit_log,
    read_log,
    write_ledger_log,
    write_log,
)


def finished_world(world_cls):
    w = world_cls(num_shots=6, threshold=2)
    w.assign_all()
    w.bind_all()
    w.sicken_exact(1, 1)
    w.reveal_honest()
    return w


@pytest.fixture
def logged(world_cls, tmp_path):
    w = finished_world(world_cls)
    path = tmp_path / "trial.vscl"
    write_ledger_log(path, w.ledger)
    return w, path


# -- roundtrip -----------------------------------------------------------------


def test_roundtrip(logged):
    w, path = logged
    log = read_log(path)
    assert log.genesis == w.genesis
    assert log.records == tuple(w.ledger.journal)
    assert log.trailer.record_count == len(log.records)
    assert log.trailer.state_digest == w.ledger.state_digest()
    assert log.trailer.events_digest == w.ledger.events_digest()


def test_replay_takes_the_records_read_from_a_file(logged):
    w, path = logged
    log = read_log(path)
    replayed, divergent = Ledger.replay(log.genesis, log.records)
    assert divergent == []
    assert replayed.state_digest() == log.trailer.state_digest == w.ledger.state_digest()
    assert replayed.events_digest() == log.trailer.events_digest == w.ledger.events_digest()


def test_header_bytes(logged):
    _, path = logged
    data = path.read_bytes()
    assert data[:4] == MAGIC
    assert data[4] == VERSION


def test_empty_log_roundtrip(world_cls, tmp_path):
    w = world_cls(num_shots=4)
    path = tmp_path / "fresh.vscl"
    write_ledger_log(path, w.ledger)
    log = read_log(path)
    assert log.records == ()
    report, replayed = audit_log(log)
    assert report.ok and report.record_count == 0
    assert replayed.query("phase") == "deployed"


def test_json_export_shape(logged):
    _, path = logged
    log = read_log(path)
    blob = json_value(log)
    assert set(blob) == {"genesis", "records", "trailer"}
    assert len(blob["trailer"]["log_digest"]) == 64
    first = blob["records"][0]
    assert set(first) == {"status", "code", "tx"}
    assert set(first["tx"]) >= {"sender", "method", "payload", "sequence_number", "signature"}


# -- byte-level tamper is always detected ---------------------------------------


def mutate(path, offset, delta=0x01):
    data = bytearray(path.read_bytes())
    data[offset] ^= delta
    path.write_bytes(bytes(data))


def test_bad_magic(logged):
    _, path = logged
    mutate(path, 0)
    with pytest.raises(LogFormatError):
        read_log(path)


def test_bad_version(logged):
    _, path = logged
    mutate(path, 4)
    with pytest.raises(LogFormatError):
        read_log(path)


def test_flipped_genesis_byte(logged):
    _, path = logged
    mutate(path, 10)
    with pytest.raises(LogFormatError):
        read_log(path)


def test_flipped_signature_byte(logged):
    _, path = logged
    data = path.read_bytes()
    genesis_len = int.from_bytes(data[5:9], "big")
    first_record = 9 + genesis_len
    code_len = int.from_bytes(data[first_record + 2 : first_record + 4], "big")
    sig_offset = first_record + 4 + code_len + 20 + 32 + 8
    mutate(path, sig_offset)
    with pytest.raises(LogFormatError):
        read_log(path)


def test_flipped_record_tag(logged):
    _, path = logged
    data = path.read_bytes()
    genesis_len = int.from_bytes(data[5:9], "big")
    mutate(path, 9 + genesis_len)  # 'T' becomes something else
    with pytest.raises(LogFormatError):
        read_log(path)


def test_truncation(logged):
    _, path = logged
    data = path.read_bytes()
    for cut in (1, 50, 104, len(data) - 6):
        path.write_bytes(data[: len(data) - cut])
        with pytest.raises(LogFormatError):
            read_log(path)


def test_trailing_garbage(logged):
    _, path = logged
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(LogFormatError):
        read_log(path)


def test_record_count_mismatch(logged):
    _, path = logged
    data = path.read_bytes()
    body, trailer = data[:-105], data[-105:]
    count = int.from_bytes(trailer[1:9], "big")
    fake = body + b"F" + (count + 1).to_bytes(8, "big") + trailer[9:41] + trailer[41:73]
    path.write_bytes(fake + sha256(fake).digest())
    with pytest.raises(LogFormatError):
        read_log(path)


def test_status_code_disagreement(logged, tmp_path):
    w, _ = logged
    records = w.ledger.journal
    # an accepted record must not carry a rejection code, and vice versa
    bad_accept = JournalEntry(status=ACCEPTED, code="NotClinic", tx=records[0].tx)
    bad_reject = JournalEntry(status=REJECTED, code="", tx=records[0].tx)
    for bad in (bad_accept, bad_reject):
        path = tmp_path / "bad.vscl"
        write_log(
            path,
            w.genesis,
            [bad] + records[1:],
            w.ledger.state_digest(),
            w.ledger.events_digest(),
        )
        with pytest.raises(LogFormatError):
            read_log(path)


def framing_fields(data):
    """(offset, size) of every record's tag, status byte and three length
    fields, and of the trailer's record count, found by walking the layout."""
    pos = 9 + int.from_bytes(data[5:9], "big")
    found = []
    while data[pos : pos + 1] == b"T":
        code_len = int.from_bytes(data[pos + 2 : pos + 4], "big")
        method_at = pos + 4 + code_len + 20 + 32 + 8 + 64
        payload_at = method_at + 2 + int.from_bytes(data[method_at : method_at + 2], "big")
        found += [(pos, 1), (pos + 1, 1), (pos + 2, 2), (method_at, 2), (payload_at, 4)]
        pos = payload_at + 4 + int.from_bytes(data[payload_at : payload_at + 4], "big")
    assert data[pos : pos + 1] == b"F"
    return found + [(pos + 1, 8)]


def test_every_prefix_and_every_rehashed_framing_bit_flip_is_caught(logged):
    w, path = logged
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(LogFormatError):
            read_log(path)
    fields = framing_fields(data)
    assert len(fields) == 5 * len(w.ledger.journal) + 1
    for offset, size in fields:
        for bit in range(8 * size):
            flipped = bytearray(data[:-32])
            flipped[offset + bit // 8] ^= 0x80 >> bit % 8
            path.write_bytes(flipped + sha256(flipped).digest())
            try:
                report, _ = audit_log(read_log(path))
            except LogFormatError:
                continue
            assert not report.ok, (offset, bit)


# -- semantic tamper survives parsing but fails the replay audit ----------------


def test_fresh_log_audits_clean(logged):
    w, path = logged
    report, replayed = audit_log(read_log(path))
    assert report.ok
    assert report.divergent_positions == ()
    assert report.state_match and report.events_match
    assert report.record_count == len(w.ledger.journal)
    assert replayed.state_digest() == w.ledger.state_digest()
    assert replayed.query("phase") == "finalized"


def test_a_log_read_once_audits_clean_twice(logged):
    """The first audit replays onto the contract read_log deployed; a second
    audit of the same read deploys its own."""
    _, path = logged
    log = read_log(path)
    first, _ = audit_log(log)
    second, _ = audit_log(log)
    assert first.ok and second.ok


def test_deleted_record_with_consistent_digests(logged, tmp_path):
    w, _ = logged
    records = w.ledger.journal
    drop = next(i for i, r in enumerate(records) if r.tx.method == "patient_reveal")
    path = tmp_path / "edited.vscl"
    write_log(
        path,
        w.genesis,
        records[:drop] + records[drop + 1 :],
        w.ledger.state_digest(),
        w.ledger.events_digest(),
    )
    log = read_log(path)  # format is self-consistent, parsing succeeds
    report, _ = audit_log(log)
    assert not report.ok
    assert report.divergent_positions or not report.state_match


def test_flipped_status_with_consistent_digests(logged, tmp_path):
    w, _ = logged
    records = list(w.ledger.journal)
    flip = next(i for i, r in enumerate(records) if r.status == ACCEPTED)
    records[flip] = JournalEntry(
        status=REJECTED, code="NotClinic", tx=records[flip].tx
    )
    path = tmp_path / "flipped.vscl"
    write_log(path, w.genesis, records, w.ledger.state_digest(), w.ledger.events_digest())
    report, _ = audit_log(read_log(path))
    assert not report.ok
    assert flip in report.divergent_positions


def test_forged_state_digest_detected(logged, tmp_path):
    w, _ = logged
    path = tmp_path / "forged.vscl"
    write_log(
        path,
        w.genesis,
        w.ledger.journal,
        b"\x00" * 32,
        w.ledger.events_digest(),
    )
    report, _ = audit_log(read_log(path))
    assert not report.ok
    assert not report.state_match
    assert report.events_match
    assert report.divergent_positions == ()


# -- a hostile, re-hashed genesis is a format error, never a crash ---------------


def rehashed_with_genesis(w, path, genesis):
    """The world's journal under another genesis, with a valid file digest."""
    write_log(
        path, genesis, w.ledger.journal, w.ledger.state_digest(), w.ledger.events_digest()
    )
    return path


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(genesis):
        for step in path:
            genesis = genesis[step]
        genesis[key] = value(genesis) if callable(value) else value

    return mutate


HOSTILE_GENESES = {
    "vaccsc-1": (_set("contract", "vaccsc-1"), "unsupported contract id 'vaccsc-1'"),
    "vaccsc-2": (_set("contract", "vaccsc-2"), "unsupported contract id 'vaccsc-2'"),
    "vaccsc-3": (_set("contract", "vaccsc-3"), "unsupported contract id 'vaccsc-3'"),
    "vaccsc-4": (_set("contract", "vaccsc-4"), "unsupported contract id 'vaccsc-4'"),
    "vaccsc-5": (_set("contract", "vaccsc-5"), "unsupported contract id 'vaccsc-5'"),
    "zero participants": (
        _set("params", "config", "num_participants", 0),
        "num_participants must be positive",
    ),
    "bool participants": (
        _set("params", "config", "num_participants", True),
        "params.config.num_participants must be a JSON int",
    ),
    "float participants": (
        _set("params", "config", "num_participants", 2.5),
        "params.config.num_participants must be a JSON int",
    ),
    "int target efficiency": (
        _set("params", "config", "target_efficiency", 50),
        "params.config.target_efficiency must be a JSON float",
    ),
    "params deleted": (lambda genesis: genesis.pop("params"), "genesis.params is missing"),
    "commitment not hex": (_set("params", "commitments", 0, "zz" * 32), "params.commitments"),
    "duplicate commitments": (
        _set("params", "commitments", 1, lambda commitments: commitments[0]),
        "commitments must be pairwise distinct",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_GENESES))
def test_hostile_genesis_is_a_format_error(logged, tmp_path, case):
    w, _ = logged
    mutate, message = HOSTILE_GENESES[case]
    genesis = copy.deepcopy(w.genesis)
    mutate(genesis)
    path = rehashed_with_genesis(w, tmp_path / "hostile.vscl", genesis)
    with pytest.raises(LogFormatError, match=re.escape(message)):
        read_log(path)


def with_genesis_bytes(path, genesis_bytes):
    """Swap the genesis bytes of the log at ``path`` and re-hash the file."""
    data = path.read_bytes()
    old_len = int.from_bytes(data[5:9], "big")
    body = data[:5] + len(genesis_bytes).to_bytes(4, "big") + genesis_bytes + data[9 + old_len : -32]
    path.write_bytes(body + sha256(body).digest())


def test_non_canonical_genesis_bytes_are_a_format_error(logged):
    w, path = logged
    with_genesis_bytes(path, json.dumps(w.genesis).encode())  # same document, with whitespace
    with pytest.raises(LogFormatError, match="genesis is not canonical JSON"):
        read_log(path)


def signed_payload(w, payload: bytes) -> SignedTransaction:
    """The developer's next assign_shot_to_clinic, carrying ``payload`` as it is."""
    kp, method = w.developer, "assign_shot_to_clinic"
    sequence = w.ledger.next_sequence(kp.address)
    return SignedTransaction(
        sender=kp.address,
        public_key=kp.public_key,
        method=method,
        payload=payload,
        sequence_number=sequence,
        signature=kp.sign(signing_bytes(w.ledger.trial_id, method, sequence, payload)),
    )


@pytest.mark.parametrize(
    "raw, code, detail",
    [
        (b'{"a":"\xff"}', "MalformedPayload", "is not valid JSON"),
        (b'{"a":', "MalformedPayload", "is not valid JSON"),
        (b"[]", "MalformedPayload", "must be a JSON object"),
        (b'{"b":1,"a":2}', "NonCanonicalPayload", "is not canonical JSON"),
    ],
    ids=["not-utf8", "not-json", "json-list", "non-canonical"],
)
def test_the_genesis_passes_the_payload_gate(logged, raw, code, detail):
    w, path = logged
    receipt = w.ledger.submit(signed_payload(w, raw))
    assert (receipt.code, receipt.detail) == (code, f"payload {detail}")
    with_genesis_bytes(path, raw)
    with pytest.raises(LogFormatError, match=f"^genesis {detail}$"):
        read_log(path)


def nested(depth: int) -> bytes:
    return b'{"a":' + b"[" * depth + b"]" * depth + b"}"


@pytest.mark.parametrize("depth", [2_000, 100_000])
def test_deeply_nested_genesis_is_a_format_error(logged, depth):
    _, path = logged
    with_genesis_bytes(path, nested(depth))
    with pytest.raises(LogFormatError, match="genesis nests deeper than 32"):
        read_log(path)


@pytest.mark.parametrize("depth", [2_000, 100_000])
def test_deeply_nested_payload_is_malformed_live_and_in_replay(world_cls, tmp_path, capsys, depth):
    w = world_cls(num_shots=4)
    assert w.ledger.submit(signed_payload(w, nested(depth))).code == "MalformedPayload"
    w.assign_all()
    path = tmp_path / "deep.vscl"
    write_ledger_log(path, w.ledger)
    report, replayed = audit_log(read_log(path))
    assert report.ok
    outcomes = [(e.status, e.code) for e in w.ledger.journal]
    assert [(e.status, e.code) for e in replayed.journal] == outcomes
    assert outcomes[0] == (REJECTED, "MalformedPayload")
    assert cli.main(["audit", str(path)]) == 0
    assert "audit ok" in capsys.readouterr().out


def genesis_fields(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from genesis_fields(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


@given(data=st.data())
@settings(
    max_examples=150,
    deadline=None,
    # the fixture's world is only read, so sharing it across examples is safe
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_genesis_never_crashes_the_auditor(logged, tmp_path, data):
    w, _ = logged
    genesis = copy.deepcopy(w.genesis)
    *parents, key = data.draw(st.sampled_from(sorted(genesis_fields(genesis))))
    target = genesis
    for step in parents:
        target = target[step]
    value = data.draw(JSON_VALUES)
    assume(canonical_json(value) != canonical_json(target[key]))
    target[key] = value
    path = rehashed_with_genesis(w, tmp_path / "fuzzed.vscl", genesis)
    try:
        report, _ = audit_log(read_log(path))
    except LogFormatError:
        return
    assert not report.ok
