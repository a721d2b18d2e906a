"""Keys, addresses, signed transactions, and the ledger's gatekeeping."""

import json
from random import Random

import pytest

from vaccsc.keys import (
    ADDRESS_SIZE,
    KeyPair,
    address_from_public_key,
    load_public_key,
    verify_signature,
)
from vaccsc.ledger import SignedTransaction, canonical_json, make_transaction, signing_bytes


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
        assert verify_signature(load_public_key(kp.public_key), message, signature)


def test_sign_verify_roundtrip_and_cross_key():
    a = KeyPair.generate(Random(1))
    b = KeyPair.generate(Random(2))
    message = b"attest"
    sig = a.sign(message)
    a_pub, b_pub = load_public_key(a.public_key), load_public_key(b.public_key)
    assert verify_signature(a_pub, message, sig)
    assert not verify_signature(b_pub, message, sig)
    assert not verify_signature(a_pub, b"attest!", sig)
    assert not verify_signature(a_pub, message, sig[:-1] + bytes([sig[-1] ^ 1]))


def test_keypair_generate():
    rng = Random(3)
    a, b = KeyPair.generate(rng), KeyPair.generate(rng)
    assert a.address != b.address
    assert len(a.address) == ADDRESS_SIZE
    assert a.address == address_from_public_key(a.public_key)
    # seeded generation is reproducible
    assert KeyPair.generate(Random(7)).public_key == KeyPair.generate(Random(7)).public_key


def test_signing_bytes_layout():
    raw = signing_bytes("report_sick", 5, b"{}")
    assert raw[:2] == (11).to_bytes(2, "big")
    assert raw[2:13] == b"report_sick"
    assert raw[13:21] == (5).to_bytes(8, "big")
    assert raw[21:] == b"{}"


def test_canonical_json_is_sorted_and_tight():
    assert canonical_json({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'


def test_valid_tx_accepted_then_stale(world_cls):
    w = world_cls()
    shot = w.shot_list()[0]
    kp = w.developer
    tx = make_transaction(
        kp,
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


def test_sender_must_match_signer(world_cls):
    w = world_cls()
    tx = make_transaction(w.outsider, "report_sick", {}, 0)
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
    tx = make_transaction(w.developer, "report_sick", {}, 0)
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
        signature=kp.sign(signing_bytes("report_sick", w.ledger.next_sequence(kp.address), payload)),
    )
    assert w.ledger.submit(tx).code == "MalformedPayload"
    garbage = b"\xff\xfe not json"
    tx2 = SignedTransaction(
        sender=kp.address,
        public_key=kp.public_key,
        method="report_sick",
        payload=garbage,
        sequence_number=w.ledger.next_sequence(kp.address),
        signature=kp.sign(signing_bytes("report_sick", w.ledger.next_sequence(kp.address), garbage)),
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
        signature=kp.sign(signing_bytes(method, sequence, payload)),
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
    w.call(w.outsider, "begin_binding", {"bindings": [{"patient": w.patients[0].address.hex(), "commitment": "00" * 32}]})
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


def test_event_ordinals_are_gapless(world_cls):
    w = world_cls(num_shots=6, threshold=2)
    w.assign_all()
    w.bind_all()
    w.sicken_exact(1, 1)
    w.reveal_honest()
    indices = [e.index for e in w.ledger.events]
    assert indices == list(range(len(indices)))
    causes = [e.cause for e in w.ledger.events]
    assert causes == sorted(causes)
    names = {e.name for e in w.ledger.events}
    assert names == {
        "ShotAssigned",
        "BindingStarted",
        "BindingConfirmed",
        "PatientSick",
        "TrialFinished",
        "TrialFinalized",
    }


def test_replay_reproduces_state(world_cls):
    from vaccsc.ledger import Ledger

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


def test_replay_of_empty_journal_is_genesis(world_cls):
    from vaccsc.ledger import Ledger

    w = world_cls()
    fresh, divergent = Ledger.replay(w.genesis, [])
    assert divergent == []
    assert fresh.state_digest() == w.ledger.state_digest()
    assert fresh.query("phase") == "deployed"
