"""Binary trial-log files: roundtrip, tamper detection, replay audit, and the
forked helper that works a replay's verifies or a run's signing ahead of it."""

import copy
import dataclasses
import json
import mmap
import os
import re
import signal
import time
from hashlib import sha256

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from vaccsc import actors, ahead, cli, keys, ledger
from vaccsc.ahead import BUSY, DONE, HELPER_THRESHOLD, TAKEN
from vaccsc.actors import Behavior, GridCell, Role, Strategy, load_scenario, run_grid, run_scenario
from vaccsc.contract import ContractError, canonical_json, json_value
from vaccsc.ledger import (
    ACCEPTED,
    REJECTED,
    JournalEntry,
    Ledger,
    SignedTransaction,
    json_object,
    signing_bytes,
)
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
    """A read log is a value: the file's three fields, frozen, and equal to
    another read of the same file before and after both audits of it."""
    _, path = logged
    log, again = read_log(path), read_log(path)
    assert [f.name for f in dataclasses.fields(log)] == ["genesis", "records", "trailer"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.records = ()
    assert log == again
    first, _ = audit_log(log)
    second, _ = audit_log(log)
    assert first.ok and second.ok
    assert log == again


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
    "vaccsc-9": (_set("contract", "vaccsc-9"), "unsupported contract id 'vaccsc-9'"),
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
    "float target": (
        _set("params", "config", "target_efficiency_bp", 5000.0),
        "params.config.target_efficiency_bp must be a JSON int",
    ),
    "bool target": (
        _set("params", "config", "target_efficiency_bp", True),
        "params.config.target_efficiency_bp must be a JSON int",
    ),
    "negative target": (
        _set("params", "config", "target_efficiency_bp", -1),
        "target_efficiency_bp must be in [0, 10000]",
    ),
    "target over 100%": (
        _set("params", "config", "target_efficiency_bp", 10_001),
        "target_efficiency_bp must be in [0, 10000]",
    ),
    "leftover float target": (
        _set("params", "config", "target_efficiency", 50.0),
        "params.config.target_efficiency is unexpected",
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
    assert cli.main(["audit", str(path)]) == cli.EXIT_AUDIT


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
    assert w.ledger.submit(signed_payload(w, raw)).code == code
    with pytest.raises(ContractError, match=f"^payload {detail}$"):
        json_object(raw, "payload")
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


# -- the helper process of a replay and of a run's signing --------------------------


@pytest.fixture(scope="module")
def small_trial():
    """``honest_small`` at seed 2: its genesis, journal and final digests."""
    ran = run_scenario(load_scenario("honest_small"), 2, keep_table=False).ledger
    return ran.genesis, list(ran.journal), ran.state_digest(), ran.events_digest()


def flipped(entry: JournalEntry, field: str, index: int) -> JournalEntry:
    raw = bytearray(getattr(entry.tx, field))
    raw[index] ^= 0x01
    return dataclasses.replace(entry, tx=dataclasses.replace(entry.tx, **{field: bytes(raw)}))


def signature_flipped_at(position):
    def edit(records):
        records[position] = flipped(records[position], "signature", 7)
        return records

    return edit


def payload_flipped(records):
    middle = len(records) // 2
    records[middle] = flipped(records[middle], "payload", 5)
    return records


LOG_EDITS = {
    "clean": lambda records: records,
    "flipped payload": payload_flipped,
    "signature of the first record": signature_flipped_at(0),
    "signature of the last record": signature_flipped_at(-1),
    "64 records": lambda records: records[:HELPER_THRESHOLD],  # too few to fork a helper
    "65 records": lambda records: records[: HELPER_THRESHOLD + 1],  # the fewest that fork one
}


def edited_log(small_trial, tmp_path, edit):
    """A re-hashed log of ``small_trial`` with ``edit`` applied to its records."""
    genesis, records, state, events = small_trial
    path = tmp_path / "edited.vscl"
    write_log(path, genesis, edit(list(records)), state, events)
    return read_log(path)


def audited(log):
    """Everything an audit gives: the report, the replayed outcomes and the digests."""
    report, replayed = audit_log(log)
    outcomes = [(e.status, e.code) for e in replayed.journal]
    return report, outcomes, replayed.state_digest(), replayed.events_digest()


def audited_alone(log, monkeypatch):
    """``audited`` with no ``os.fork``, so the replay verifies every record itself."""
    with monkeypatch.context() as patched:
        patched.delattr(os, "fork")
        return audited(log)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("edit", LOG_EDITS.values(), ids=LOG_EDITS.keys())
def test_an_audit_is_the_same_with_the_helper_and_without(small_trial, tmp_path, monkeypatch, edit):
    log = edited_log(small_trial, tmp_path, edit)
    alone = audited_alone(log, monkeypatch)
    assert audited(log) == alone
    assert_no_child_left()
    assert alone[0].ok == (edit is LOG_EDITS["clean"])


def helper_meets_the_replay_at(monkeypatch, meeting):
    """Make the helper start at record ``meeting``, as if the replay had taken the
    records before it, and start the replay only once the helper has exited."""
    real_help, real_fork = ahead._help, os.fork

    def help_from_meeting(shared, count, width, work):
        shared[:meeting] = bytes([TAKEN]) * meeting
        real_help(shared, count, width, work)

    def fork_and_wait():
        pid = real_fork()
        if pid:  # waited for, not reaped: the replay still kills and reaps it
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return pid

    monkeypatch.setattr(ahead, "_help", help_from_meeting)
    monkeypatch.setattr(os, "fork", fork_and_wait)


def count_verifies(monkeypatch) -> list[bytes]:
    """The public keys of the Ed25519 verifies made in this process from now on."""
    real, verified = keys.Ed25519PublicKey, []

    class Public:
        @staticmethod
        def from_public_bytes(data):
            verified.append(data)
            return real.from_public_bytes(data)

    monkeypatch.setattr(keys, "Ed25519PublicKey", Public)
    return verified


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_an_audit_is_the_same_wherever_the_helper_meets_the_replay(small_trial, tmp_path, monkeypatch, where):
    log = edited_log(small_trial, tmp_path, signature_flipped_at(-1))
    alone = audited_alone(log, monkeypatch)
    meeting = {"first": 0, "middle": len(log.records) // 2, "last": len(log.records) - 1}[where]
    verified = count_verifies(monkeypatch)
    helper_meets_the_replay_at(monkeypatch, meeting)
    assert audited(log) == alone
    assert len(verified) == meeting  # the replay verified the records before the meeting point, and no other
    assert_no_child_left()


def test_the_replay_takes_the_helpers_verdicts(small_trial, tmp_path, monkeypatch):
    log = edited_log(small_trial, tmp_path, signature_flipped_at(-1))
    verified = count_verifies(monkeypatch)
    helper_meets_the_replay_at(monkeypatch, 0)  # the helper has the whole map first
    report, outcomes, _, _ = audited(log)
    assert verified == []  # every verify ran in the helper's process
    assert report.divergent_positions == (len(log.records) - 1,)
    assert outcomes[-1] == (REJECTED, "BadSignature")
    assert_no_child_left()


def cannot_fork():
    raise OSError("fork failed")


def too_many_open_files(*args):
    raise OSError(24, "Too many open files")


def exits_at_once(shared, count, width, work):
    os._exit(1)


def claims_nothing(shared, count, width, work):
    time.sleep(3600)  # alive until the caller kills it


def killed_while_busy(shared, count, width, work):
    shared[0] = shared[count // 2] = BUSY
    os.kill(os.getpid(), signal.SIGKILL)


class Reordered:
    """A helper's view of the map that stores each slot around the DONE that publishes
    it, with a pause after DONE, as a weakly ordered CPU may let the caller see them:
    the whole slot after DONE, or (``torn``) half of it before and half after."""

    def __init__(self, shared, torn: bool):
        self.shared, self.torn, self.pending = shared, torn, None

    def find(self, *args):
        return self.shared.find(*args)

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            half = len(value) // 2 if self.torn else 0
            self.shared[key.start : key.start + half] = value[:half]
            self.pending = slice(key.start + half, key.stop), value[half:]
            return
        self.shared[key] = value
        if value == DONE:
            time.sleep(0.0005)
            where, rest = self.pending
            self.shared[where] = rest


def reordered(real_help, torn: bool):
    """``real_help`` working on a ``Reordered`` view of the map."""
    return lambda shared, *args: real_help(Reordered(shared, torn), *args)


# Ways a helper can fail the caller, or be seen by it out of order, each set on a MonkeyPatch.
BROKEN_HELPERS = {
    "exits at once": lambda patched: patched.setattr(ahead, "_help", exits_at_once),
    "claims nothing": lambda patched: patched.setattr(ahead, "_help", claims_nothing),
    "killed while busy": lambda patched: patched.setattr(ahead, "_help", killed_while_busy),
    "no fork": lambda patched: patched.delattr(os, "fork"),
    "cannot start": lambda patched: patched.setattr(os, "fork", cannot_fork),
    "no map": lambda patched: patched.setattr(mmap, "mmap", too_many_open_files),
    "DONE before its slot": lambda patched: patched.setattr(ahead, "_help", reordered(ahead._help, torn=False)),
    "torn slot before DONE": lambda patched: patched.setattr(ahead, "_help", reordered(ahead._help, torn=True)),
}
RUN_HELPERS = {"helper": lambda patched: None, **BROKEN_HELPERS}


@pytest.fixture
def within_a_minute():
    """Fails a test still running after a minute, as one whose caller waits on a dead helper would be."""

    def hung(signum, frame):
        raise TimeoutError("still running after a minute")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_the_scheduler_gives_each_item_its_own_result_in_order(within_a_minute):
    """Work so small that the caller and the helper race for items all the way:
    each result is still its own item's, and none is lost or moved. The same
    holds with too few items to fork a helper and with each broken helper."""

    def work(item):
        return item.to_bytes(4, "big")

    cases = {name: (20_000, case) for name, case in RUN_HELPERS.items()}
    cases["no helper"] = HELPER_THRESHOLD, RUN_HELPERS["helper"]
    for name, (count, case) in cases.items():
        with pytest.MonkeyPatch.context() as patched:
            case(patched)
            with ahead.worked_ahead(count, 4, work) as results:
                given = list(results)
        assert given == [work(item) for item in range(count)], name
        assert_no_child_left()


@pytest.mark.parametrize("broken", BROKEN_HELPERS.values(), ids=BROKEN_HELPERS.keys())
def test_a_helper_that_fails_changes_nothing(small_trial, tmp_path, monkeypatch, within_a_minute, broken):
    log = edited_log(small_trial, tmp_path, payload_flipped)
    alone = audited_alone(log, monkeypatch)
    broken(monkeypatch)
    assert audited(log) == alone
    assert_no_child_left()


def test_a_replay_that_cannot_fork_closes_its_map(small_trial, tmp_path, monkeypatch):
    log = edited_log(small_trial, tmp_path, LOG_EDITS["clean"])
    opened, real_map = [], mmap.mmap

    def recorded_map(*args):
        opened.append(real_map(*args))
        return opened[-1]

    monkeypatch.setattr(mmap, "mmap", recorded_map)
    monkeypatch.setattr(os, "fork", cannot_fork)
    assert audit_log(log)[0].ok
    assert len(opened) == 1 and opened[0].closed


def test_the_replay_makes_one_verify_call_per_record(small_trial, tmp_path, monkeypatch):
    log = edited_log(small_trial, tmp_path, LOG_EDITS["clean"])
    calls = []
    real = ledger.verify_signature

    def counting(*args):
        calls.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(ledger, "verify_signature", counting)
    assert audit_log(log)[0].ok
    assert calls == [os.getpid()] * len(log.records)
    assert_no_child_left()


def test_no_helper_outlives_a_replay_that_raises(small_trial, tmp_path, monkeypatch):
    log = edited_log(small_trial, tmp_path, LOG_EDITS["clean"])
    real = Ledger.submit

    def failing(self, tx, *verdicts):
        if len(self.journal) == HELPER_THRESHOLD:
            raise RuntimeError("submit failed")
        return real(self, tx, *verdicts)

    monkeypatch.setattr(Ledger, "submit", failing)
    with pytest.raises(RuntimeError, match="submit failed"):
        audit_log(log)
    assert_no_child_left()


def test_no_helper_outlives_a_replay_that_raises_before_its_first_record(small_trial, tmp_path, monkeypatch):
    log = edited_log(small_trial, tmp_path, LOG_EDITS["clean"])

    def out_of_memory(self, tx, *verdicts):
        raise MemoryError("no memory for the first record")

    monkeypatch.setattr(Ledger, "submit", out_of_memory)
    with pytest.raises(MemoryError, match="first record"):
        audit_log(log)
    assert_no_child_left()


def shared_world_grid():
    """``honest_small`` at seed 2 as four cells of one world: an honest cell; a second
    one whose every Ed25519 job the first leaves remembered; a colluding one, which
    changes its first patient's reveal; and one of silent patients, whose draws shift
    every binding value, so that its batches of new jobs fork helpers."""
    cells = (
        GridCell("honest", ()),
        GridCell("again", ()),
        GridCell("collude", (Strategy(Role.CLINIC, Behavior.COLLUDE_WITH_PATIENT),)),
        GridCell("silent", (Strategy(Role.PATIENT, Behavior.NEVER_REPORT, 0.5),)),
    )
    return dataclasses.replace(load_scenario("honest_small"), seeds=(2,), grid=cells)


def written(report, tmp_path) -> tuple[str, bytes]:
    """A run's report JSON and log bytes."""
    write_ledger_log(tmp_path / "run.vscl", report.ledger)
    return json.dumps(report.to_json()), (tmp_path / "run.vscl").read_bytes()


def runs(tmp_path) -> list[tuple[str, bytes]]:
    """The report and log bytes of a lone ``honest_small`` run at seed 2 and of ``shared_world_grid``'s cells."""
    grid = run_grid(shared_world_grid())
    reports = [run_scenario(load_scenario("honest_small"), 2), *(report for cell in grid.values() for report in cell)]
    return [written(report, tmp_path) for report in reports]


@pytest.fixture(scope="module")
def runs_alone(tmp_path_factory):
    """``runs`` with no ``os.fork``, so all of its Ed25519 work is done in the run's own process."""
    with pytest.MonkeyPatch.context() as patched:
        patched.delattr(os, "fork")
        return runs(tmp_path_factory.mktemp("alone"))


@pytest.mark.parametrize("case", RUN_HELPERS.values(), ids=RUN_HELPERS.keys())
def test_a_run_is_the_same_with_the_helper_and_without(runs_alone, tmp_path, monkeypatch, within_a_minute, case):
    case(monkeypatch)
    assert runs(tmp_path) == runs_alone
    assert_no_child_left()


def counted_forks(monkeypatch) -> list[int]:
    """The pid of each helper forked from this process from now on."""
    forked, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def test_a_grid_cell_whose_jobs_are_all_remembered_forks_no_helper(tmp_path, monkeypatch):
    forked, per_cell, real_run = counted_forks(monkeypatch), [], actors.run_scenario

    def counted_run(*args):
        before = len(forked)
        report = real_run(*args)
        per_cell.append(len(forked) - before)
        return report

    monkeypatch.setattr(actors, "run_scenario", counted_run)
    spec = shared_world_grid()
    grid = run_grid(spec)
    honest, again, _, silent = per_cell
    assert honest > 0 and again == 0 and silent > 0
    before = len(forked)
    alone = real_run(spec, 2, (), "again", False)
    assert len(forked) > before  # with no world, the same cell's batches fork
    assert written(grid["again"][0], tmp_path) == written(alone, tmp_path)
    assert_no_child_left()


def test_no_helper_outlives_a_binding_phase_that_raises(monkeypatch):
    real = Ledger.submit

    def failing(self, tx, *verdicts):
        if len(self.journal) == 200:  # a reveal in the middle of the 404-record binding phase
            raise RuntimeError("submit failed")
        return real(self, tx, *verdicts)

    monkeypatch.setattr(Ledger, "submit", failing)
    with pytest.raises(RuntimeError, match="submit failed"):
        run_scenario(load_scenario("honest_small"), 2)
    assert_no_child_left()


def test_a_run_and_its_audit_build_each_record_s_signing_bytes_once_here(tmp_path, monkeypatch):
    """A ``submit`` handed a verdict builds no signing bytes. Counted in this process,
    with a helper that leaves the caller working ahead of a busy item: a run builds
    each record's once, to sign it, and so does its audit."""
    built, real = [], ledger.signing_bytes
    monkeypatch.setattr(ledger, "signing_bytes", lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(ahead, "_help", killed_while_busy)
    ran = run_scenario(load_scenario("honest_small"), 2, keep_table=False).ledger
    assert len(built) == len(ran.journal)
    write_ledger_log(tmp_path / "run.vscl", ran)
    built.clear()
    report, replayed = audit_log(read_log(tmp_path / "run.vscl"))
    assert report.ok and len(built) == len(replayed.journal)
    assert_no_child_left()
