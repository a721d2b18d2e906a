"""Keys, addresses, signed transactions, and the ledger's gatekeeping."""

import dataclasses
import json
import re
import tracemalloc
from enum import Enum
from hashlib import sha256
from importlib import resources
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import World, count_ed25519_work, make_transaction
from vaccsc import keys
from vaccsc.actors import Behavior, Role, Strategy, load_scenario, run_scenario
from vaccsc.commitment import ShotContent
from vaccsc.contract import CONTRACT_ID, TrialConfig, make_genesis
from vaccsc.keys import (
    ADDRESS_SIZE,
    SIGNED_SIZE,
    KeyPair,
    address_from_public_key,
    verified,
)
from vaccsc.ledger import (
    ACCEPTED,
    MAX_JSON_DEPTH,
    REJECTED,
    Ledger,
    SignedTransaction,
    canonical_json,
    signing_bytes,
    too_deep,
)
from vaccsc.logio import audit_log, read_log, write_ledger_log


def test_key_golden_vectors(vectors):
    for vec in vectors["key_vectors"]:
        kp = KeyPair(bytes.fromhex(vec["private"]))
        assert kp.public_key == bytes.fromhex(vec["public"])
        assert kp.address == bytes.fromhex(vec["address"])
        assert address_from_public_key(kp.public_key) == kp.address


def test_signature_golden_vector(vectors):
    for vec in vectors["signature_vectors"]:
        kp = KeyPair(bytes.fromhex(vec["private"]))
        message = bytes.fromhex(vec["message"])
        signature = bytes.fromhex(vec["signature"])
        assert kp.sign(message) == signature  # Ed25519 is deterministic
        assert verified(kp.public_key, message, signature)


def test_sign_verify_roundtrip_and_cross_key():
    a = KeyPair.generate(Random(1))
    b = KeyPair.generate(Random(2))
    message = b"attest"
    sig = a.sign(message)
    assert verified(a.public_key, message, sig)
    assert not verified(b.public_key, message, sig)
    assert not verified(a.public_key, b"attest!", sig)
    assert not verified(a.public_key, message, sig[:-1] + bytes([sig[-1] ^ 1]))
    # bytes that do not parse as a public key verify nothing
    assert not verified(a.public_key[:-1], message, sig)


def test_keypair_generate():
    rng = Random(3)
    a, b = KeyPair.generate(rng), KeyPair.generate(rng)
    assert a.address != b.address
    assert len(a.address) == ADDRESS_SIZE
    assert a.address == address_from_public_key(a.public_key)
    # seeded generation is reproducible
    assert KeyPair.generate(Random(7)).public_key == KeyPair.generate(Random(7)).public_key


def test_a_keypair_derives_its_key_once_on_first_use(vectors, monkeypatch):
    derived, real = [], keys.Ed25519PrivateKey

    class Private:
        @staticmethod
        def from_private_bytes(data):
            derived.append(data)
            return real.from_private_bytes(data)

    monkeypatch.setattr(keys, "Ed25519PrivateKey", Private)
    rng, stream = Random(5), Random(5)
    drawn = KeyPair.generate(rng)
    stream.randbytes(32)
    assert derived == [] and rng.getstate() == stream.getstate()  # 32 bytes drawn, nothing derived
    vec = vectors["key_vectors"][0]
    kp = KeyPair(bytes.fromhex(vec["private"]))
    assert derived == []
    assert kp.address == bytes.fromhex(vec["address"])
    kp.sign(b"message")
    assert derived == [bytes.fromhex(vec["private"])]
    drawn.sign(b"message")
    assert len(derived) == 2


def test_an_adopted_public_key_is_checked_against_the_derived_one(vectors):
    vec = vectors["key_vectors"][0]
    public, other = bytes.fromhex(vec["public"]), bytes.fromhex(vectors["key_vectors"][1]["public"])
    agreeing = KeyPair(bytes.fromhex(vec["private"]))
    agreeing.adopt(public)
    assert agreeing.sign(b"message") == KeyPair(bytes.fromhex(vec["private"])).sign(b"message")
    adopted_first = KeyPair(bytes.fromhex(vec["private"]))
    adopted_first.adopt(other)
    assert adopted_first.public_key == other  # taken as is until the key is derived here
    with pytest.raises(ValueError, match="adopted public key disagrees"):
        adopted_first.sign(b"message")
    derived_first = KeyPair(bytes.fromhex(vec["private"]))
    assert derived_first.public_key == public
    with pytest.raises(ValueError, match="adopted public key disagrees"):
        derived_first.adopt(other)


def test_signing_bytes_layout():
    trial_id = sha256(b"genesis").digest()
    raw = signing_bytes(trial_id, "report_sick", 5, b"{}")
    assert raw[:32] == trial_id
    raw = raw[32:]
    assert raw[:2] == (11).to_bytes(2, "big")
    assert raw[2:13] == b"report_sick"
    assert raw[13:21] == (5).to_bytes(8, "big")
    assert raw[21:] == b"{}"


def test_trial_id_is_the_digest_of_the_canonical_genesis(world_cls):
    w = world_cls()
    assert w.ledger.trial_id == sha256(canonical_json(w.genesis)).digest()


def test_canonical_json_is_sorted_and_tight():
    assert canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'


def test_valid_tx_accepted_then_stale(world_cls):
    w = world_cls()
    shot = w.shot_list()[0]
    kp = w.developer
    tx = make_transaction(
        kp,
        w.ledger.trial_id,
        "assign_shot_to_clinic",
        {"shots": [shot.hex()], "clinic": w.config.clinics[0].hex()},
        0,
    )
    first = w.ledger.submit(tx)
    assert first.accepted
    second = w.ledger.submit(tx)  # same sequence number again
    assert second.code == "StaleSequence"


def test_payload_tamper_breaks_signature(world_cls):
    w = world_cls()
    shot = w.shot_list()[0]
    tx = make_transaction(
        w.developer,
        w.ledger.trial_id,
        "assign_shot_to_clinic",
        {"shots": [shot.hex()], "clinic": w.config.clinics[0].hex()},
        0,
    )
    flipped = bytearray(tx.payload)
    flipped[10] ^= 0x01
    tampered = SignedTransaction(
        sender=tx.sender,
        public_key=tx.public_key,
        method=tx.method,
        payload=bytes(flipped),
        sequence_number=tx.sequence_number,
        signature=tx.signature,
    )
    receipt = w.ledger.submit(tampered)
    assert receipt.code == "BadSignature"


def test_a_record_signed_for_another_trial_is_bad_signature(world_cls):
    w = world_cls()
    other = world_cls(threshold=5)  # the same keys and shots, another genesis
    assert other.ledger.trial_id != w.ledger.trial_id
    params = {"shots": [w.shot_list()[0].hex()], "clinic": w.config.clinics[0].hex()}
    foreign = make_transaction(w.developer, other.ledger.trial_id, "assign_shot_to_clinic", params, 0)
    assert other.ledger.submit(foreign).accepted
    assert w.ledger.submit(foreign).code == "BadSignature"
    own = make_transaction(w.developer, w.ledger.trial_id, "assign_shot_to_clinic", params, 0)
    assert w.ledger.submit(own).accepted


def test_reports_of_another_trial_do_not_count():
    """Two trials whose runners draw the same keys: trial A's accepted sick
    reports, sent to trial B once its patients are bound, carry the right
    senders and sequence numbers, and none of them verifies there."""
    scenarios = resources.files("vaccsc") / "data" / "scenarios"
    spec_b = load_scenario(scenarios / "honest_small.json")
    spec_a = dataclasses.replace(
        spec_b,
        infected_threshold=60,
        vaccine_fraction=0.3,
        strategies=(Strategy(Role.PATIENT, Behavior.FALSE_SICK, knob=0.05),),
    )
    trial_a = run_scenario(spec_a, 101, keep_table=False).ledger
    trial_b = run_scenario(spec_b, 101, keep_table=False).ledger
    reporters_b = {entry.tx.sender for entry in trial_b.journal if entry.tx.method == "report_sick"}
    foreign = [
        entry.tx
        for entry in trial_a.journal
        if entry.status == ACCEPTED and entry.tx.method == "report_sick" and entry.tx.sender not in reporters_b
    ]
    assert len(foreign) == 40
    last_binding = max(i for i, entry in enumerate(trial_b.journal) if entry.tx.method == "patient_reveal")
    ledger = Ledger(trial_b.genesis)
    for entry in trial_b.journal[: last_binding + 1]:
        ledger.submit(entry.tx)
    for tx in foreign:
        assert tx.sequence_number == ledger.next_sequence(tx.sender)
        assert ledger.submit(tx).code == "BadSignature"
    assert ledger.query("phase") == "active"
    assert ledger.query("infected_count") == 0


def test_a_copy_of_a_transaction_with_one_part_changed_is_bad_signature(world_cls):
    w = world_cls()
    params = {"shots": [w.shot_list()[0].hex()], "clinic": w.config.clinics[0].hex()}
    tx = make_transaction(w.developer, w.ledger.trial_id, "assign_shot_to_clinic", params, 0)
    flipped = bytearray(tx.signature)
    flipped[5] ^= 0x10
    other_shot = canonical_json({**params, "shots": [w.shot_list()[1].hex()]})
    swapped = w.clinics[0]
    copies = (
        dataclasses.replace(tx, signature=bytes(flipped)),
        dataclasses.replace(tx, payload=other_shot),
        dataclasses.replace(tx, public_key=swapped.public_key, sender=swapped.address),
    )
    for copy in copies:
        assert w.ledger.submit(copy).code == "BadSignature"
    assert w.ledger.submit(tx).accepted


def work_done(work: dict[str, list]) -> dict[str, int]:
    return {kind: len(done) for kind, done in work.items()}


def test_a_shared_keypair_answers_a_repeated_job_with_no_ed25519_work(monkeypatch):
    work = count_ed25519_work(monkeypatch)
    shared: dict = {}
    keypair = KeyPair.generate(Random(1), shared)
    first = keypair.job(b"message")
    assert len(first) == SIGNED_SIZE and first[-1] == 1
    assert work_done(work) == {"derived": 1, "signed": 1, "verified": 1}
    assert KeyPair.generate(Random(1), shared) is keypair
    assert keypair.remembered(b"message") == first
    assert work_done(work) == {"derived": 1, "signed": 1, "verified": 1}
    assert first[:32] == keypair.public_key and verified(keypair.public_key, b"message", first[32:-1])


def test_a_new_message_or_another_keypair_does_ed25519_work(monkeypatch):
    work = count_ed25519_work(monkeypatch)
    shared: dict = {}
    keypair = KeyPair.generate(Random(1), shared)
    keypair.job(b"message")
    keypair.job(b"another message")
    assert work_done(work) == {"derived": 1, "signed": 2, "verified": 2}
    KeyPair.generate(Random(2), shared).job(b"message")
    assert work_done(work) == {"derived": 2, "signed": 3, "verified": 3}
    alone = KeyPair.generate(Random(1))  # the same private bytes, in no shared map: nothing is remembered
    assert alone.job(b"message") == alone.job(b"message") == keypair.remembered(b"message")
    assert alone.remembered(b"message") is None
    assert work_done(work) == {"derived": 3, "signed": 5, "verified": 5}


def test_a_taken_result_is_remembered_unless_its_public_key_disagrees(monkeypatch):
    shared: dict = {}
    keypair = KeyPair.generate(Random(1), shared)
    made_elsewhere = KeyPair.generate(Random(1)).job(b"message")
    foreign = KeyPair.generate(Random(2)).job(b"another message")
    work = count_ed25519_work(monkeypatch)
    assert keypair.job(b"message", made_elsewhere) == made_elsewhere  # its public key is adopted
    assert keypair.remembered(b"message") == made_elsewhere
    assert work_done(work) == {"derived": 0, "signed": 0, "verified": 0}
    with pytest.raises(ValueError, match="adopted public key disagrees"):
        keypair.job(b"another message", foreign)
    own = keypair.job(b"another message")
    assert own != foreign and own[:32] == keypair.public_key
    assert work_done(work) == {"derived": 1, "signed": 1, "verified": 1}


def test_sender_must_match_signer(world_cls):
    w = world_cls()
    tx = make_transaction(w.outsider, w.ledger.trial_id, "report_sick", {}, 0)
    spoofed = SignedTransaction(
        sender=w.developer.address,  # claims to be the developer
        public_key=tx.public_key,
        method=tx.method,
        payload=tx.payload,
        sequence_number=tx.sequence_number,
        signature=tx.signature,
    )
    receipt = w.ledger.submit(spoofed)
    assert receipt.code == "BadSignature"


def test_signature_fuzz_never_authenticates(world_cls):
    w = world_cls()
    rng = Random(99)
    tx = make_transaction(w.developer, w.ledger.trial_id, "report_sick", {}, 0)
    for _ in range(300):
        forged = SignedTransaction(
            sender=tx.sender,
            public_key=tx.public_key,
            method=tx.method,
            payload=tx.payload,
            sequence_number=tx.sequence_number,
            signature=rng.randbytes(64),
        )
        assert w.ledger.submit(forged).code == "BadSignature"


@pytest.mark.parametrize(
    "field, value",
    [
        ("sender", bytes(19)),
        ("sender", bytes(21)),
        ("public_key", bytes(31)),
        ("public_key", bytes(33)),
        ("signature", bytes(63)),
        ("signature", bytes(65)),
        ("sequence_number", -1),
        ("sequence_number", 2**64),
        ("method", "m" * 65_536),
    ],
    ids=["sender-19", "sender-21", "key-31", "key-33", "sig-63", "sig-65", "seq-minus-1", "seq-2**64", "method-65536"],
)
def test_a_transaction_a_record_cannot_hold_is_not_built(world_cls, field, value):
    w = world_cls()
    tx = make_transaction(w.developer, w.ledger.trial_id, "report_sick", {}, 0)
    with pytest.raises(ValueError):
        dataclasses.replace(tx, **{field: value})


@pytest.mark.parametrize(
    "method, sequence",
    [("report_sick", 2**64), ("report_sick", -1), ("m" * 70_000, 0)],
    ids=["seq-2**64", "seq-minus-1", "method-70000"],
)
def test_make_transaction_checks_a_record_s_ranges_before_signing(world_cls, monkeypatch, method, sequence):
    w = world_cls()

    def no_signing(self, message):
        raise AssertionError("signed a transaction that no record can hold")

    monkeypatch.setattr(KeyPair, "sign", no_signing)
    with pytest.raises(ValueError, match="sequence number must be|method over 65,535"):
        make_transaction(w.developer, w.ledger.trial_id, method, {}, sequence)


def test_a_journal_of_hostile_transactions_is_written_read_back_and_audited(world_cls, tmp_path):
    """Every transaction that can be built can be journaled and logged: a hostile
    one is a rejection in a log that audits clean, not a log that cannot be written."""
    w = world_cls()
    kp = w.developer

    def signed(method: str, payload: bytes, sequence: int) -> SignedTransaction:
        signature = kp.sign(signing_bytes(w.ledger.trial_id, method, sequence, payload))
        return SignedTransaction(kp.address, kp.public_key, method, payload, sequence, signature)

    params = {"shots": [w.shot_list()[0].hex()], "clinic": w.config.clinics[0].hex()}
    tx = make_transaction(kp, w.ledger.trial_id, "assign_shot_to_clinic", params, 0)
    flipped = bytearray(tx.signature)
    flipped[0] ^= 0x01
    hostile = [
        (dataclasses.replace(tx, signature=bytes(flipped)), "BadSignature"),
        (dataclasses.replace(tx, sender=w.clinics[0].address), "BadSignature"),
        (signed("report_sick", b"{}", 2**64 - 1), "StaleSequence"),  # the largest sequence a record holds
        (signed("m" * 0xFFFF, b"{}", 0), "UnknownMethod"),  # the longest method a record holds
        (signed("assign_shot_to_clinic", canonical_json(params).replace(b",", b", "), 0), "NonCanonicalPayload"),
    ]
    for bad, code in hostile:
        assert w.ledger.submit(bad).code == code
    assert w.ledger.submit(tx).accepted
    path = tmp_path / "hostile.vscl"
    write_ledger_log(path, w.ledger)
    log = read_log(path)
    assert log.records == tuple(w.ledger.journal)
    report, _ = audit_log(log)
    assert report.ok and report.divergent_positions == ()


def test_unknown_method_and_malformed_payload(world_cls):
    w = world_cls()
    receipt = w.call(w.developer, "mint_tokens", {})
    assert receipt.code == "UnknownMethod"
    kp = w.developer
    payload = b"[1, 2, 3]"  # valid JSON, wrong shape
    tx = SignedTransaction(
        sender=kp.address,
        public_key=kp.public_key,
        method="report_sick",
        payload=payload,
        sequence_number=w.ledger.next_sequence(kp.address),
        signature=kp.sign(signing_bytes(w.ledger.trial_id, "report_sick", w.ledger.next_sequence(kp.address), payload)),
    )
    assert w.ledger.submit(tx).code == "MalformedPayload"
    garbage = b"\xff\xfe not json"
    tx2 = SignedTransaction(
        sender=kp.address,
        public_key=kp.public_key,
        method="report_sick",
        payload=garbage,
        sequence_number=w.ledger.next_sequence(kp.address),
        signature=kp.sign(signing_bytes(w.ledger.trial_id, "report_sick", w.ledger.next_sequence(kp.address), garbage)),
    )
    assert w.ledger.submit(tx2).code == "MalformedPayload"
    huge = b'{"value":' + b"1" * 5000 + b"}"  # past Python's int-conversion limit
    assert w.ledger.submit(hand_signed(kp, w, "report_sick", huge)).code == "MalformedPayload"


def hand_signed(kp, w, method: str, payload: bytes) -> SignedTransaction:
    """A correctly signed transaction carrying exactly these payload bytes."""
    sequence = w.ledger.next_sequence(kp.address)
    return SignedTransaction(
        sender=kp.address,
        public_key=kp.public_key,
        method=method,
        payload=payload,
        sequence_number=sequence,
        signature=kp.sign(signing_bytes(w.ledger.trial_id, method, sequence, payload)),
    )


def test_non_canonical_payload_rejected(world_cls):
    w = world_cls()
    shot, clinic = w.shot_list()[0].hex(), w.config.clinics[0].hex()
    canonical = canonical_json({"clinic": clinic, "shots": [shot]})
    ambiguous = (
        # duplicate keys: a last-wins parser assigns the real shot
        f'{{ "shots" : ["{"00" * 32}"], "clinic": "{clinic}", "shots": ["{shot}"] }}'.encode(),
        canonical.replace(b",", b", "),
        f'{{"shots":["{shot}"],"clinic":"{clinic}"}}'.encode(),
    )
    before = w.ledger.state_digest()
    for payload in ambiguous:
        receipt = w.ledger.submit(hand_signed(w.developer, w, "assign_shot_to_clinic", payload))
        assert receipt.code == "NonCanonicalPayload"
    assert w.ledger.state_digest() == before
    assert w.ledger.submit(hand_signed(w.developer, w, "assign_shot_to_clinic", canonical)).accepted


def test_brackets_inside_strings_do_not_count_as_nesting(world_cls):
    w = world_cls()
    payload = canonical_json({"note": '"' + "[{" * 100})
    receipt = w.ledger.submit(hand_signed(w.patients[0], w, "report_sick", payload))
    # parsed and handed to the contract, whose schema has no "note" key
    assert receipt.code == "MalformedParams"


def test_rejection_leaves_state_untouched(world_cls):
    w = world_cls()
    w.assign_all()
    before = w.ledger.state_digest()
    w.call(w.outsider, "begin_binding", {"bindings": [w.binding(0, *w.contributions())]})
    w.call(w.developer, "assign_shot_to_clinic", {"shots": ["11" * 32], "clinic": w.config.clinics[0].hex()})
    assert w.ledger.state_digest() == before
    # and the rejections are journaled, not dropped
    assert [e.code for e in w.ledger.journal[-2:]] == ["NotClinic", "WrongPhase"]


def test_sequences_are_per_sender_and_not_consumed_on_reject(world_cls):
    w = world_cls()
    dev, clinic = w.developer, w.clinics[0]
    assert w.ledger.next_sequence(dev.address) == 0
    shot = w.shot_list()[0]
    w.ok(dev, "assign_shot_to_clinic", {"shots": [shot.hex()], "clinic": w.config.clinics[0].hex()})
    assert w.ledger.next_sequence(dev.address) == 1
    assert w.ledger.next_sequence(clinic.address) == 0
    w.call(dev, "assign_shot_to_clinic", {"shots": [shot.hex()], "clinic": w.config.clinics[0].hex()})
    assert w.ledger.next_sequence(dev.address) == 1  # AlreadyAssigned, seq kept


def test_event_ordinals_are_gapless(world_cls, events_of):
    w = world_cls(num_shots=6, threshold=2)
    w.assign_all()
    w.bind_all()
    w.sicken_exact(1, 1)
    w.reveal_honest()
    events = events_of(w.genesis, w.ledger.journal)
    assert len(events) == w.ledger.event_count
    indices = [e.index for e in events]
    assert indices == list(range(len(indices)))
    causes = [e.cause for e in events]
    assert causes == sorted(causes)
    names = {e.name for e in events}
    assert names == {
        "ShotAssigned",
        "BindingStarted",
        "BindingConfirmed",
        "PatientSick",
        "TrialFinished",
        "TrialFinalized",
    }


def test_replay_reproduces_state(world_cls):
    w = world_cls(num_shots=6, threshold=2)
    w.assign_all()
    w.bind_all()
    w.sicken_exact(1, 1)
    w.reveal_honest()
    entries = w.ledger.journal
    replayed, divergent = Ledger.replay(w.genesis, entries)
    assert divergent == []
    assert replayed.state_digest() == w.ledger.state_digest()
    assert replayed.events_digest() == w.ledger.events_digest()
    # deleting one record diverges
    replayed2, divergent2 = Ledger.replay(w.genesis, entries[:10] + entries[11:])
    assert divergent2 or replayed2.state_digest() != w.ledger.state_digest()


def test_replay_keeps_the_recorded_entries_it_reproduces(world_cls):
    w = world_cls(num_shots=4)
    w.assign_all()
    w.call(w.outsider, "report_sick", {})  # a rejection is journaled too
    entries = list(w.ledger.journal)
    misrecorded = dataclasses.replace(entries[0], status=REJECTED, code="WrongPhase")
    replayed, divergent = Ledger.replay(w.genesis, [misrecorded] + entries[1:])
    assert divergent == [0]
    assert replayed.journal[0] == entries[0]  # the outcome the replay reached
    assert all(kept is entry for kept, entry in zip(replayed.journal[1:], entries[1:], strict=True))


def test_replay_of_empty_journal_is_genesis(world_cls):
    w = world_cls()
    fresh, divergent = Ledger.replay(w.genesis, [])
    assert divergent == []
    assert fresh.state_digest() == w.ledger.state_digest()
    assert fresh.query("phase") == "deployed"


# -- streamed digests ------------------------------------------------------------


def generic_value(obj):
    """The generic encoding of the program's own types, kept here as an oracle:
    bytes as hex, an Enum as its value, a dataclass as every one of its fields."""
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


GENERIC_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=generic_value)


def one_shot_state(trial) -> bytes:
    """The canonical state as one generic encoding of the whole document, each
    session and shot row a dataclass: a field the contract's rows leave out
    makes it differ."""
    document = {
        "contract": CONTRACT_ID,
        "phase": trial.phase,
        "config": trial.config,
        "shots": {c.hex(): r for c, r in trial.shots.items()},
        "sessions": trial.sessions,
        "infected": trial.infected,
        "outcome": trial.outcome,
    }
    return GENERIC_JSON.encode(document).encode()


def random_call(w: World, rng: Random, sessions: dict) -> tuple[KeyPair, str, dict]:
    """One call of a random interleaving, mostly one that can be accepted now:
    ``sessions`` maps each session id this world may have opened to its patient,
    clinic and flip values."""
    contract = w.ledger.contract

    def mostly(fitting: list, every: list):
        return rng.choice(fitting if fitting and rng.random() < 0.9 else every)

    kind = rng.choice(("assign", "begin", "reveal", "abort", "sick", "controls", "junk"))
    if kind == "assign":
        unassigned = [shot for shot, record in contract.shots.items() if record.clinic is None]
        shots = {mostly(unassigned, w.shot_list()) for _ in range(rng.randint(1, 2))}
        clinic = rng.choice(w.config.clinics)
        return w.developer, "assign_shot_to_clinic", {"clinic": clinic.hex(), "shots": [s.hex() for s in shots]}
    indexes = range(len(w.patients))
    if kind == "begin":
        taken = contract.patient_shot.keys() | contract.pending_by_patient.keys()
        patient = mostly([i for i in indexes if w.patients[i].address not in taken], indexes)
        clinic = rng.randrange(len(w.clinics))
        r1, c2 = w.contributions()
        session = len(contract.sessions)  # its id, if this call is accepted
        sessions[session] = {"patient": patient, "clinic": clinic, "r1": r1, "c2": c2, "id": session}
        return w.clinics[clinic], "begin_binding", {"bindings": [w.binding(patient, r1, c2)]}
    if kind in ("reveal", "abort") and sessions:
        s = sessions[rng.choice(sorted(sessions))]
        patient = w.patients[s["patient"]]
        if kind == "abort":
            return rng.choice((patient, w.clinics[s["clinic"]])), "abort_binding", {"session": s["id"]}
        if contract.free_shots[w.config.clinics[s["clinic"]]]:
            return patient, "patient_reveal", w.patient_reveal(s["id"], s["clinic"], s["r1"], s["c2"])
    if kind == "sick":
        bound = [i for i in indexes if w.patients[i].address in contract.patient_shot]
        return w.patients[mostly(bound, indexes)], "report_sick", {}
    if kind == "controls":
        sick = [shot for shot, record in contract.shots.items() if record.got_sick]
        placebo = [shot for shot in sick if w.openings[shot].content is ShotContent.PLACEBO]
        return w.developer, "reveal_controls", {"openings": [w.opening_entry(shot) for shot in sorted(placebo)]}
    return rng.choice(w.patients), "report_sick", {"memo": rng.randrange(3)}


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_state_rows_and_event_hashing_cannot_drift_from_the_dataclasses(seed):
    """Over random interleavings of valid and rejected calls: the canonical state
    equals the generic encoding of the dataclasses, and the events digest equals
    the SHA-256 of one canonical_json call over every receipt's events."""
    rng = Random(seed)
    w = World(
        num_shots=rng.choice((4, 6)),
        num_clinics=rng.randint(1, 2),
        threshold=rng.randint(1, 3),
        seed=seed,
        binding_deadline=rng.randint(0, 3),
        extra_patients=2,
    )
    sessions: dict[int, dict] = {}
    events = []
    for _ in range(60):
        receipt = w.call(*random_call(w, rng, sessions))
        events.extend(receipt.events)
        assert w.ledger.contract.canonical_state() == one_shot_state(w.ledger.contract)
        assert w.ledger.events_digest() == sha256(canonical_json(events)).digest()


def opened_sessions(num_shots: int, num_sessions: int) -> Ledger:
    """A ledger whose one clinic holds every shot and has opened this many
    sessions, driven through the contract directly."""
    developer, clinic = b"\x01" * ADDRESS_SIZE, b"\x02" * ADDRESS_SIZE
    shots = [sha256(b"shot %d" % i).digest() for i in range(num_shots)]
    config = TrialConfig(
        num_participants=num_shots,
        infected_threshold=1,
        target_efficiency_bp=5000,
        clinics=(clinic,),
        developer=developer,
    )
    ledger = Ledger(make_genesis(config, shots))
    assign = {"clinic": clinic.hex(), "shots": [shot.hex() for shot in shots]}
    ledger.contract.dispatch(developer, "assign_shot_to_clinic", assign, 0)
    if num_sessions:
        bindings = [
            {
                "patient": sha256(b"patient %d" % i).digest()[:ADDRESS_SIZE].hex(),
                "clinic_value": int.from_bytes(sha256(b"flip %d" % i).digest()[:8], "big"),
                "patient_commitment": sha256(b"flop %d" % i).hexdigest(),
            }
            for i in range(num_sessions)
        ]
        ledger.contract.dispatch(clinic, "begin_binding", {"bindings": bindings}, 1)
    assert len(ledger.contract.sessions) == num_sessions
    return ledger


@pytest.mark.parametrize(
    "num_shots, num_sessions",
    [(2000, 0), (2000, 1), (2000, 256), (2000, 257), (2000, 2000), (1, 0), (256, 0), (257, 1)],
)
def test_sliced_state_is_the_one_shot_encoding(num_shots, num_sessions):
    trial = opened_sessions(num_shots, num_sessions).contract
    assert trial.canonical_state() == one_shot_state(trial)


def test_sliced_state_of_a_finished_trial_is_the_one_shot_encoding(world_cls):
    w = world_cls(num_shots=6, threshold=2)
    w.assign_all()
    w.bind_all()
    w.sicken_exact(1, 1)
    w.reveal_honest()
    assert w.ledger.contract.canonical_state() == one_shot_state(w.ledger.contract)


def bundled_spec(name: str):
    return load_scenario(resources.files("vaccsc") / "data" / "scenarios" / f"{name}.json")


@pytest.mark.parametrize("scenario, cell, seed", [("honest_small", None, 2), ("adversary_grid", "forge_1", 101)])
def test_events_digest_is_the_one_shot_digest_of_the_replayed_events(events_of, scenario, cell, seed):
    spec = bundled_spec(scenario)
    strategies = None if cell is None else next(c.strategies for c in spec.grid if c.label == cell)
    report = run_scenario(spec, seed, strategies=strategies, keep_table=False)
    ledger = report.ledger
    events = events_of(ledger.genesis, ledger.journal)
    assert len(events) == ledger.event_count == report.ledger_summary["events"]
    assert ledger.events_digest() == sha256(canonical_json(events)).digest()


def allocated_peak(call) -> int:
    """Peak bytes allocated while ``call()`` runs, above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_digests_take_bounded_memory():
    ledger = opened_sessions(2000, 2000)
    state = ledger.contract.canonical_state()
    assert len(state) > 900_000
    # The slices and their join; one whole-document encoding took 3x.
    assert allocated_peak(ledger.state_digest) < 2.5 * len(state)
    w_ledger = run_scenario(bundled_spec("honest_small"), 2, keep_table=False).ledger
    assert w_ledger.event_count > 1000
    assert allocated_peak(w_ledger.events_digest) < 1024


def token_scan_too_deep(text: bytes) -> bool:
    """The reference depth scan: every JSON string and bracket as a token."""
    depth = 0
    for match in re.finditer(rb'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[\]{}]', text, re.DOTALL):
        token = match.group()
        if token in (b"[", b"{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                return True
        elif token in (b"]", b"}"):
            depth -= 1
    return False


# Brackets, quotes, escapes and filler, so that strings open, close, escape
# their quotes and run unterminated to the end.
DEPTH_TEXT = st.lists(
    st.sampled_from(
        [b"[", b"]", b"{", b"}", b'"', b"\\", b'\\"', b"\\\\", b"a", b",", b":", b"\n", b"\xff"]
    ),
    max_size=120,
).map(b"".join)


@given(head=DEPTH_TEXT, depth=st.integers(16, 40), tail=DEPTH_TEXT)
@settings(max_examples=400, deadline=None)
def test_too_deep_matches_the_token_scan(head, depth, tail):
    # The nested run makes the texts that pass the opening-bracket count.
    text = head + b"[" * depth + tail + b"]" * depth
    assert too_deep(text) == token_scan_too_deep(text)


@pytest.mark.parametrize(
    "text, deep",
    [
        (b"[" * 33, True),
        (b"[" * 32 + b"]" * 32 + b"[" * 32, False),
        (b'["' + b"[" * 40 + b'"]', False),
        (b'["\\"' + b"[" * 40 + b'"]', False),
        (b'["\\\\"' + b"[" * 40, True),
        (b'"' + b"[" * 40, False),  # unterminated string runs to the end
    ],
)
def test_too_deep_examples(text, deep):
    assert too_deep(text) is deep
    assert token_scan_too_deep(text) is deep
