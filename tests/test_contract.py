"""Trial contract: lifecycle, access control, atomic reveal, views."""

import copy
import json
import re
from itertools import repeat
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vaccsc.actors import load_scenario, run_scenario
from vaccsc.commitment import Opening, ShotContent, commit, generate_nonce
from vaccsc.contract import (
    _METHOD_SCHEMA,
    CONTRACT_ID,
    BindingSession,
    TrialConfig,
    VaccineTrial,
    approves,
    canonical_json,
    efficiency_percent,
    json_value,
    risk_ratio_percent,
)
from vaccsc.logio import write_ledger_log


# -- deployment ---------------------------------------------------------------


def test_deploy_initial_state(world_cls):
    w = world_cls(num_shots=10, threshold=4)
    ledger = w.ledger
    assert ledger.query("phase") == "deployed"
    assert ledger.query("infected_count") == 0
    assert ledger.query("vaccine_status") == "Pending"
    for shot in w.shot_list():
        record = json_value(ledger.contract.shots[shot])
        assert record["clinic"] is None
        assert record["patient"] is None
        assert record["vaccine_type"] == "unknown"
        assert record["got_sick"] is False


def test_deploy_rejects_duplicates_and_bad_counts(world_cls):
    w = world_cls(num_shots=10)
    shots = w.shot_list()
    with pytest.raises(ValueError):
        VaccineTrial(w.config, shots[:9] + [shots[0]])
    with pytest.raises(ValueError):
        VaccineTrial(w.config, shots[:9])
    with pytest.raises(ValueError):
        TrialConfig(
            num_participants=10,
            infected_threshold=11,
            target_efficiency_bp=5000,
            clinics=w.config.clinics,
            developer=w.config.developer,
        )


def test_config_invariants():
    rng = Random(0)
    addr_a, addr_b = rng.randbytes(20), rng.randbytes(20)
    with pytest.raises(ValueError):  # developer inside clinic set
        TrialConfig(5, 2, 5000, clinics=(addr_a,), developer=addr_a)
    with pytest.raises(ValueError):  # no clinics
        TrialConfig(5, 2, 5000, clinics=(), developer=addr_a)
    with pytest.raises(ValueError):  # duplicate clinics
        TrialConfig(5, 2, 5000, clinics=(addr_b, addr_b), developer=addr_a)
    for target_bp in (-1, 10_001):  # target out of [0, 10000] hundredths of a percent
        with pytest.raises(ValueError, match="target_efficiency_bp must be in"):
            TrialConfig(5, 2, target_bp, clinics=(addr_b,), developer=addr_a)
    with pytest.raises(ValueError):  # zero participants
        TrialConfig(0, 0, 5000, clinics=(addr_b,), developer=addr_a)


@pytest.mark.parametrize("clinic_size, developer_size", [(19, 20), (21, 20), (20, 19), (20, 21)])
def test_config_addresses_are_20_bytes(clinic_size, developer_size):
    rng = Random(1)
    clinic, developer = rng.randbytes(clinic_size), rng.randbytes(developer_size)
    with pytest.raises(ValueError, match="must be 20 bytes"):
        TrialConfig(5, 2, 5000, clinics=(clinic,), developer=developer)


@pytest.mark.parametrize("size", [31, 33])
def test_deploy_rejects_a_commitment_that_is_not_32_bytes(world_cls, size):
    w = world_cls(num_shots=4)
    shots = w.shot_list()
    with pytest.raises(ValueError, match="32-byte digest"):
        VaccineTrial(w.config, shots[:3] + [bytes(size)])


def test_genesis_deployer_must_be_developer(world_cls):
    from vaccsc.ledger import Ledger

    w = world_cls()
    genesis = dict(w.genesis)
    genesis["deployer"] = w.outsider.address.hex()
    with pytest.raises(ValueError):
        Ledger(genesis)


# -- distribution -------------------------------------------------------------


def test_assignment_flow(world_cls):
    w = world_cls(num_shots=4, num_clinics=2)
    shots = w.shot_list()
    clinic0 = w.config.clinics[0].hex()
    receipt = w.ok(w.developer, "assign_shot_to_clinic", {"shots": [shots[0].hex()], "clinic": clinic0})
    assert receipt.events[0].name == "ShotAssigned"
    assert w.ledger.query("phase") == "distributing"
    assert len(w.ledger.contract.free_shots[w.config.clinics[0]]) == 1

    w.fail(w.clinics[0], "assign_shot_to_clinic", {"shots": [shots[1].hex()], "clinic": clinic0}, "NotDeveloper")
    w.fail(w.developer, "assign_shot_to_clinic", {"shots": [shots[0].hex()], "clinic": clinic0}, "AlreadyAssigned")
    w.fail(w.developer, "assign_shot_to_clinic", {"shots": ["aa" * 32], "clinic": clinic0}, "UnknownShot")
    w.fail(
        w.developer,
        "assign_shot_to_clinic",
        {"shots": [shots[1].hex()], "clinic": w.outsider.address.hex()},
        "UnknownClinic",
    )

    for shot in shots[1:]:
        w.ok(w.developer, "assign_shot_to_clinic", {"shots": [shot.hex()], "clinic": clinic0})
    assert w.ledger.query("phase") == "active"
    w.fail(w.developer, "assign_shot_to_clinic", {"shots": [shots[0].hex()], "clinic": clinic0}, "WrongPhase")


# Each case gives (sender, params, close_first) for a batch with one fault
# among valid shots; shots[:2] are already at clinic 0, and close_first
# assigns the rest before the call so distribution is closed.
ASSIGN_REJECTIONS = {
    "WrongPhase": lambda w, shots, clinic: (w.developer, {"clinic": clinic, "shots": shots[2:3]}, True),
    "NotDeveloper": lambda w, shots, clinic: (w.clinics[0], {"clinic": clinic, "shots": shots[2:4]}, False),
    "MalformedParams": lambda w, shots, clinic: (
        w.developer, {"clinic": clinic, "shots": shots[2:4] + ["zz" * 32]}, False
    ),
    "UnknownShot": lambda w, shots, clinic: (
        w.developer, {"clinic": clinic, "shots": shots[2:4] + ["aa" * 32]}, False
    ),
    "AlreadyAssigned": lambda w, shots, clinic: (
        w.developer, {"clinic": clinic, "shots": shots[2:4] + shots[1:2]}, False
    ),
    "UnknownClinic": lambda w, shots, clinic: (
        w.developer, {"clinic": w.outsider.address.hex(), "shots": shots[2:4]}, False
    ),
}


@pytest.mark.parametrize("code", sorted(ASSIGN_REJECTIONS))
def test_assign_batch_rejection_leaves_no_trace(world_cls, code):
    w = world_cls(num_shots=6, num_clinics=2)
    shots = [shot.hex() for shot in w.shot_list()]
    clinic0 = w.config.clinics[0].hex()
    w.ok(w.developer, "assign_shot_to_clinic", {"clinic": clinic0, "shots": shots[:2]})
    sender, params, close_first = ASSIGN_REJECTIONS[code](w, shots, clinic0)
    if close_first:
        w.ok(w.developer, "assign_shot_to_clinic", {"clinic": clinic0, "shots": shots[2:]})
    sequence = w.ledger.next_sequence(sender.address)
    w.fail(sender, "assign_shot_to_clinic", params, code)
    assert w.ledger.next_sequence(sender.address) == sequence


@pytest.mark.parametrize("bad", [[], "aa" * 32, None, [7]])
def test_assign_batch_shots_must_be_a_non_empty_hex_list(world_cls, bad):
    w = world_cls(num_shots=4, num_clinics=2)
    params = {"clinic": w.config.clinics[0].hex(), "shots": bad}
    w.fail(w.developer, "assign_shot_to_clinic", params, "MalformedParams")


@given(data=st.data())
@settings(
    max_examples=200,
    deadline=None,
    # world_cls only hands out the World class; each example builds its own
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_assign_batch_is_all_or_nothing(world_cls, data):
    w = world_cls(num_shots=6, num_clinics=2)
    contract = w.ledger.contract
    shots = w.shot_list()
    clinic0, clinic1 = w.config.clinics
    taken = data.draw(st.lists(st.sampled_from(shots), unique=True, max_size=len(shots)))
    if taken:
        w.ok(
            w.developer,
            "assign_shot_to_clinic",
            {"clinic": clinic1.hex(), "shots": [shot.hex() for shot in taken]},
        )
    entry = st.one_of(
        st.sampled_from(shots).map(bytes.hex),  # fresh, already assigned, or repeated
        st.just("aa" * 32),  # unknown
        st.sampled_from(["zz" * 32, "abcd", 7, None, ["aa" * 32]]),  # not a 32-byte hex string
    )
    batch = data.draw(st.lists(entry, max_size=5) | st.sampled_from([None, "aa" * 32, {}]))
    clinic = data.draw(st.sampled_from([clinic0, w.outsider.address]))
    sender = data.draw(st.sampled_from([w.developer, w.clinics[0], w.outsider]))
    params = {"clinic": clinic.hex()}
    if batch is not None:
        params["shots"] = batch
    fresh = {shot.hex() for shot in shots if shot not in taken}
    valid = (
        sender is w.developer
        and clinic == clinic0
        and len(taken) < len(shots)
        and isinstance(batch, list)
        and len(batch) > 0
        and all(isinstance(e, str) and e in fresh for e in batch)
        and len(set(batch)) == len(batch)
    )
    digest, sequence = w.ledger.state_digest(), w.ledger.next_sequence(sender.address)
    unassigned = contract.unassigned

    receipt = w.call(sender, "assign_shot_to_clinic", params)

    assert receipt.accepted == valid, receipt.code
    if not receipt.accepted:
        assert w.ledger.state_digest() == digest
        assert w.ledger.next_sequence(sender.address) == sequence
        return
    for shot in shots:
        expected = clinic0 if shot.hex() in batch else clinic1 if shot in taken else None
        assert contract.shots[shot].clinic == expected
    for address, free in contract.free_shots.items():
        assert free == sorted(s for s in shots if contract.shots[s].clinic == address)
    assert contract.unassigned == unassigned - len(batch)
    assert [(e.name, e.payload) for e in receipt.events] == [
        ("ShotAssigned", {"shot": shot, "clinic": clinic0.hex()}) for shot in batch
    ]


def upper_case(text: str) -> str:
    assert text.upper() != text
    return text.upper()


def spaced(text: str) -> str:
    return " ".join(text[i : i + 2] for i in range(0, len(text), 2))


@pytest.mark.parametrize("respell", [upper_case, spaced])
def test_assign_hex_has_one_spelling(world_cls, respell):
    w = world_cls(num_shots=4, num_clinics=2)
    shot, clinic = w.shot_list()[0].hex(), w.config.clinics[0].hex()
    sequence = w.ledger.next_sequence(w.developer.address)
    for params in (
        {"clinic": respell(clinic), "shots": [shot]},
        {"clinic": clinic, "shots": [respell(shot)]},
    ):
        w.fail(w.developer, "assign_shot_to_clinic", params, "MalformedParams")
        assert w.ledger.next_sequence(w.developer.address) == sequence
    w.ok(w.developer, "assign_shot_to_clinic", {"clinic": clinic, "shots": [shot]})


# -- binding ------------------------------------------------------------------


def test_binding_happy_path_sets_exactly_one_shot(world_cls):
    w = world_cls(num_shots=6, num_clinics=2)
    w.assign_all()
    shot = w.bind(0, clinic_index=0)
    record = json_value(w.ledger.contract.shots[shot])
    assert record["patient"] == w.patients[0].address.hex()
    assert set(record) == {"clinic", "patient", "got_sick", "vaccine_type"}
    owners = [s for s in w.shot_list() if w.ledger.contract.shots[s].patient is not None]
    assert owners == [shot]


def test_binding_preconditions(world_cls):
    w = world_cls(num_shots=4, num_clinics=2)

    def entry(i):
        return {"bindings": [w.binding(i, *w.contributions())]}

    w.fail(w.clinics[0], "begin_binding", entry(0), "WrongPhase")
    w.assign_all()
    w.fail(w.outsider, "begin_binding", entry(0), "NotClinic")
    w.bind(0, clinic_index=0)
    w.fail(w.clinics[1], "begin_binding", entry(0), "PatientAlreadyBound")
    # a patient with only a pending session counts as bound too
    w.begin(1, clinic_index=0)
    w.fail(w.clinics[1], "begin_binding", entry(1), "PatientAlreadyBound")


@pytest.mark.parametrize("respell", [upper_case, spaced])
def test_binding_hex_has_one_spelling(world_cls, respell):
    w = world_cls(num_shots=4, num_clinics=2)
    w.assign_all()
    entry = {"patient": w.patients[0].address.hex(), "clinic_value": 7, "patient_commitment": "cd" * 32}
    sequence = w.ledger.next_sequence(w.clinics[0].address)
    for key in ("patient", "patient_commitment"):
        params = {"bindings": [{**entry, key: respell(entry[key])}]}
        w.fail(w.clinics[0], "begin_binding", params, "MalformedParams")
        assert w.ledger.next_sequence(w.clinics[0].address) == sequence
    w.ok(w.clinics[0], "begin_binding", {"bindings": [entry]})


def test_binding_entry_has_exactly_patient_and_commitment(world_cls):
    w = world_cls(num_shots=4, num_clinics=2)
    w.assign_all()
    entry = {"patient": w.patients[0].address.hex(), "clinic_value": 7, "patient_commitment": "cd" * 32}
    sequence = w.ledger.next_sequence(w.clinics[0].address)
    missing = [{k: v for k, v in entry.items() if k != key} for key in entry]
    for bad in [{**entry, "memo": "x"}, {**entry, "commitment": "ab" * 32}, *missing]:
        w.fail(w.clinics[0], "begin_binding", {"bindings": [entry, bad]}, "MalformedParams")
        assert w.ledger.next_sequence(w.clinics[0].address) == sequence


@pytest.mark.parametrize("bad", [True, 7.0, "7", -1, 2**64], ids=["bool", "float", "string", "-1", "2**64"])
def test_clinic_value_is_an_unsigned_64_bit_int(world_cls, bad):
    w = world_cls(num_shots=4, num_clinics=2)
    w.assign_all()
    entry = w.binding(0, *w.contributions())
    w.fail(w.clinics[0], "begin_binding", {"bindings": [{**entry, "clinic_value": bad}]}, "MalformedParams")
    w.ok(w.clinics[0], "begin_binding", {"bindings": [{**entry, "clinic_value": 2**64 - 1}]})
    assert w.ledger.contract.sessions[0].clinic_value == 2**64 - 1


def test_a_binding_entry_with_the_clinic_commitment_is_malformed(world_cls):
    """The clinic plays its value in the clear: an entry still carrying a
    ``clinic_commitment``, beside ``clinic_value`` or in its place, or one
    missing ``clinic_value`` is MalformedParams."""
    w = world_cls(num_shots=4, num_clinics=2)
    w.assign_all()
    entry = w.binding(0, *w.contributions())
    without_value = {k: v for k, v in entry.items() if k != "clinic_value"}
    commitment = {"clinic_commitment": "ab" * 32}
    for bad in (without_value, {**without_value, **commitment}, {**entry, **commitment}):
        w.fail(w.clinics[0], "begin_binding", {"bindings": [bad]}, "MalformedParams")  # checks the digest
    w.ok(w.clinics[0], "begin_binding", {"bindings": [entry]})


def test_clinic_reveal_is_an_unknown_method(world_cls):
    w = world_cls(num_shots=4, num_clinics=2)
    w.assign_all()
    sid, r1, _ = w.begin(0)
    params = {"reveals": [{"session": sid, "value": r1, "nonce": "00" * 32}]}
    w.fail(w.clinics[0], "clinic_reveal", params, "UnknownMethod")


def _drain_clinic0(w):
    """Bind patients 0 and 1 at clinic 0, which holds two shots, leaving it none."""
    w.assign_all()
    w.bind(0, clinic_index=0)
    w.bind(1, clinic_index=0)


# Each case gives (sender, bindings) for a batch with one fault among valid
# entries for patients 2 and 3; ``prepare`` readies the world first.
BEGIN_REJECTIONS = {
    "WrongPhase": (lambda w: None, lambda w, ok: (w.clinics[0], ok)),
    "NotClinic": (lambda w: w.assign_all(), lambda w, ok: (w.developer, ok)),
    "MalformedParams": (
        lambda w: w.assign_all(),
        lambda w, ok: (w.clinics[0], ok + [{**ok[0], "patient_commitment": "zz" * 32}]),
    ),
    "PatientAlreadyBound": (lambda w: w.assign_all(), lambda w, ok: (w.clinics[0], ok + ok[:1])),
    "NoShotsAvailable": (_drain_clinic0, lambda w, ok: (w.clinics[0], ok)),
}


@pytest.mark.parametrize("code", sorted(BEGIN_REJECTIONS))
def test_begin_batch_rejection_leaves_no_trace(world_cls, code):
    w = world_cls(num_shots=4, num_clinics=2)
    prepare, make = BEGIN_REJECTIONS[code]
    prepare(w)
    ok = [w.binding(i, *w.contributions()) for i in (2, 3)]
    sender, bindings = make(w, ok)
    sequence = w.ledger.next_sequence(sender.address)
    sessions = len(w.ledger.contract.sessions)
    w.fail(sender, "begin_binding", {"bindings": bindings}, code)
    assert w.ledger.next_sequence(sender.address) == sequence
    assert len(w.ledger.contract.sessions) == sessions


@pytest.mark.parametrize("bad", [[], None, "aa" * 20, {}, [7], [None], [["aa" * 20, "ab" * 32]]])
def test_begin_batch_bindings_must_be_a_non_empty_list_of_objects(world_cls, bad):
    w = world_cls(num_shots=4, num_clinics=2)
    w.assign_all()
    params = {} if bad is None else {"bindings": bad}
    w.fail(w.clinics[0], "begin_binding", params, "MalformedParams")


@given(data=st.data())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_begin_batch_is_all_or_nothing(world_cls, data):
    w = world_cls(num_shots=4, num_clinics=2, extra_patients=4, binding_deadline=7)
    contract = w.ledger.contract
    w.assign_all()  # two shots per clinic
    bound = list(range(data.draw(st.integers(0, 2))))  # two drain clinic 0
    for i in bound:
        w.bind(i, clinic_index=0)
    pending = data.draw(st.lists(st.sampled_from(range(2, 8)), unique=True, max_size=2))
    for i in pending:
        w.begin(i, clinic_index=1)
    addresses = [p.address.hex() for p in w.patients]
    digest = st.binary(min_size=32, max_size=32).map(bytes.hex)
    good = st.builds(
        lambda i, r1, c2: {"patient": addresses[i], "clinic_value": r1, "patient_commitment": c2},
        st.integers(0, len(addresses) - 1),
        st.integers(0, 2**64 - 1),
        digest,
    )
    bad = st.one_of(
        st.sampled_from(["aa" * 20, 7, None, [], True]),  # not an object
        good.map(lambda e: {**e, "patient": "AB" + e["patient"][2:]}),  # upper-case hex
        good.map(lambda e: {**e, "patient_commitment": spaced(e["patient_commitment"])}),
        good.map(lambda e: {**e, "patient_commitment": "AB" + e["patient_commitment"][2:]}),
        good.map(lambda e: {**e, "clinic_value": float(e["clinic_value"])}),  # an int as a float
        st.sampled_from([True, -1, 2**64, "7"]).flatmap(  # not a u64
            lambda v: good.map(lambda e: {**e, "clinic_value": v})
        ),
        good.map(lambda e: {**e, "patient": e["patient"][:38]}),  # 19 bytes
        good.map(lambda e: {**e, "memo": "x"}),  # an extra key
        good.map(lambda e: {k: v for k, v in e.items() if k != "patient_commitment"}),  # a missing key
    )
    tagged = st.one_of(good.map(lambda e: (e, True)), bad.map(lambda e: (e, False)))
    drawn = data.draw(st.lists(tagged, max_size=4) | st.sampled_from([None, "x", {}]))
    entries = [e for e, _ in drawn] if isinstance(drawn, list) else drawn
    sender = data.draw(st.sampled_from([w.clinics[0], w.clinics[1], w.developer, w.outsider, w.patients[0]]))
    params = {} if entries is None else {"bindings": entries}

    taken = {addresses[i] for i in bound + pending}
    if not isinstance(drawn, list) or not drawn or not all(well_formed for _, well_formed in drawn):
        expected = "MalformedParams"
    elif sender not in w.clinics:
        expected = "NotClinic"
    elif any(e["patient"] in taken for e in entries) or len({e["patient"] for e in entries}) < len(entries):
        expected = "PatientAlreadyBound"
    elif not contract.free_shots[sender.address]:
        expected = "NoShotsAvailable"
    else:
        expected = None
    digest, sequence = w.ledger.state_digest(), w.ledger.next_sequence(sender.address)
    first = len(contract.sessions)

    receipt = w.call(sender, "begin_binding", params)

    assert receipt.code == expected, receipt.detail
    if not receipt.accepted:
        assert w.ledger.state_digest() == digest
        assert w.ledger.next_sequence(sender.address) == sequence
        assert len(contract.sessions) == first
        return
    ids = range(first, first + len(entries))
    assert len(contract.sessions) == ids.stop
    for session_id, entry in zip(ids, entries):
        session = contract.sessions[session_id]
        assert session.clinic == sender.address
        assert session.patient.hex() == entry["patient"]
        assert session.clinic_value == entry["clinic_value"]
        assert session.patient_commit.hex() == entry["patient_commitment"]
        assert session.patient_reveal is None
        assert session.deadline == receipt.position + 7 and not session.aborted
        assert contract.pending_by_patient[session.patient] == session_id
    assert [(e.name, e.payload) for e in receipt.events] == [
        ("BindingStarted", {"session": i, "clinic": sender.address.hex(), "patient": e["patient"]})
        for i, e in zip(ids, entries)
    ]


def test_clinic_out_of_shots(world_cls):
    w = world_cls(num_shots=2, num_clinics=2, threshold=1)  # one shot per clinic
    w.assign_all()
    w.bind(0, clinic_index=0)
    w.fail(w.clinics[0], "begin_binding", {"bindings": [w.binding(1, *w.contributions())]}, "NoShotsAvailable")


def test_completing_reveal_checks_stock_before_mutating(world_cls):
    w = world_cls(num_shots=2, num_clinics=2, threshold=1)
    w.assign_all()
    # two sessions race for clinic 0's single free shot
    s1, a1, b1 = w.begin(0, clinic_index=0)
    s2, a2, b2 = w.begin(1, clinic_index=0)
    shot = w.selected_shot(0, a1, b1)
    w.ok(w.patients[0], "patient_reveal", {"session": s1, "value": b1.value, "nonce": b1.nonce.hex(), "shot": shot.hex()})
    # session 2's completing reveal must reject atomically: no shot left
    w.fail(
        w.patients[1],
        "patient_reveal",
        {"session": s2, "value": b2.value, "nonce": b2.nonce.hex(), "shot": shot.hex()},
        "NoShotsAvailable",
    )
    session = w.ledger.contract.sessions[s2]
    assert session.patient_reveal is None  # reveal was not half-applied
    assert session.clinic_value == a2 and not session.aborted


def test_session_party_checks(world_cls):
    from vaccsc.coinflip import RandomContribution

    w = world_cls(num_shots=4)
    w.assign_all()
    sid, a1, b1 = w.begin(0, clinic_index=0)
    reveal = w.patient_reveal(sid, 0, a1, b1)
    w.fail(w.patients[1], "patient_reveal", reveal, "NotSessionPatient")
    w.fail(w.patients[0], "patient_reveal", {**reveal, "value": b1.value ^ 1}, "RevealMismatch")
    w.fail(w.patients[0], "patient_reveal", {**reveal, "session": 999}, "UnknownSession")
    # a JSON bool is not an integer, even though Python's bool is an int:
    # true must not stand for session 1, nor for a committed value of 1
    a2, _ = w.contributions()
    one = RandomContribution(value=1, nonce=bytes(32))
    receipt = w.ok(w.clinics[0], "begin_binding", {"bindings": [w.binding(1, a2, one)]})
    sid1 = receipt.events[0].payload["session"]
    assert sid1 == 1
    reveal = w.patient_reveal(sid1, 0, a2, one)
    w.fail(w.patients[1], "patient_reveal", {**reveal, "session": True}, "MalformedParams")
    w.fail(w.patients[1], "patient_reveal", {**reveal, "value": True}, "MalformedParams")
    w.ok(w.patients[1], "patient_reveal", reveal)


def test_binding_selection_follows_xor_over_sorted_digests(world_cls):
    w = world_cls(num_shots=6, num_clinics=1, seed=42)
    w.assign_all()
    free_sorted = sorted(w.shot_list())
    r1, r2 = 0x1111, 0x0101
    shot = w.bind(0, clinic_index=0, r1=r1, r2=r2)
    expected = free_sorted[(r1 ^ r2) % len(free_sorted)]
    assert shot == expected


def test_patient_reveal_must_name_the_selected_shot(world_cls):
    w = world_cls(num_shots=6, num_clinics=1)
    w.assign_all()
    sid, a, b = w.begin(0)
    patient = w.patients[0]
    right = w.selected_shot(0, a, b)
    other = next(s for s in w.ledger.contract.free_shots[w.config.clinics[0]] if s != right)
    reveal = {"session": sid, "value": b.value, "nonce": b.nonce.hex()}
    sequence = w.ledger.next_sequence(patient.address)
    # another free shot, or a digest that names no shot at all
    for wrong in (other, b"\xbb" * 32):
        w.fail(patient, "patient_reveal", {**reveal, "shot": wrong.hex()}, "WrongShot")
        assert w.ledger.next_sequence(patient.address) == sequence
    assert patient.address not in w.ledger.contract.patient_shot
    # the same sequence number carries the corrected reveal
    receipt = w.ok(patient, "patient_reveal", {**reveal, "shot": right.hex()})
    assert receipt.events[0].name == "BindingConfirmed"
    assert receipt.events[0].payload == {"shot": right.hex(), "patient": patient.address.hex()}
    assert w.ledger.next_sequence(patient.address) == sequence + 1
    assert w.ledger.contract.shots[right].patient == patient.address
    assert right not in w.ledger.contract.free_shots[w.config.clinics[0]]


def test_patient_reveal_waits_for_the_clinic(world_cls):
    """The clinic's value and the session arrive together in begin_binding:
    before it, the patient's reveal names no session."""
    w = world_cls(num_shots=4, num_clinics=1)
    w.assign_all()
    a, b = w.contributions()
    patient = w.patients[0]
    reveal = {"session": 0, "value": b.value, "nonce": b.nonce.hex(), "shot": w.selected_shot(0, a, b).hex()}
    w.fail(patient, "patient_reveal", reveal, "UnknownSession")
    w.ok(w.clinics[0], "begin_binding", {"bindings": [w.binding(0, a, b)]})
    w.ok(patient, "patient_reveal", reveal)


def test_abort_binding(world_cls):
    w = world_cls(num_shots=4, binding_deadline=5)
    w.assign_all()
    sid, _, _ = w.begin(0, clinic_index=0)
    w.fail(w.outsider, "abort_binding", {"session": sid}, "NotSessionParty")
    w.fail(w.patients[0], "abort_binding", {"session": sid}, "AbortBeforeDeadline")
    # burn logical time with rejected submissions until past the deadline
    for _ in range(6):
        w.call(w.outsider, "report_sick", {})
    w.ok(w.patients[0], "abort_binding", {"session": sid})
    # the patient is free again and can restart
    w.bind(0, clinic_index=0)


def test_abort_after_completion_rejected(world_cls):
    w = world_cls(num_shots=4, binding_deadline=0)
    w.assign_all()
    shot = w.bind(0, clinic_index=0)
    # session 0 completed and bound a shot; its deadline has long passed
    for party in (w.patients[0], w.clinics[0]):
        w.fail(party, "abort_binding", {"session": 0}, "SessionSettled")
    assert w.ledger.contract.patient_shot[w.patients[0].address] == shot


def test_begin_binding_sets_the_deadline_once(world_cls):
    """The deadline is ``binding_deadline`` after the begin, and nothing in
    the session moves it."""
    w = world_cls(num_shots=4, binding_deadline=5)
    w.assign_all()
    sid, r1, c2 = w.begin(0, clinic_index=0)
    session = w.ledger.contract.sessions[sid]
    deadline = session.deadline
    assert deadline == len(w.ledger.journal) - 1 + 5  # the begin's position + 5
    wrong = {**w.patient_reveal(sid, 0, r1, c2), "value": c2.value ^ 1}
    w.fail(w.patients[0], "patient_reveal", wrong, "RevealMismatch")
    # burn logical time with rejected submissions up to the deadline itself
    while len(w.ledger.journal) < deadline:
        w.call(w.outsider, "report_sick", {})
    w.fail(w.patients[0], "abort_binding", {"session": sid}, "AbortBeforeDeadline")
    assert session.deadline == deadline
    w.ok(w.clinics[0], "abort_binding", {"session": sid})


# -- sickness and threshold ---------------------------------------------------


def test_report_sick_requires_active_phase(world_cls):
    w = world_cls(num_shots=6, threshold=3)
    w.fail(w.patients[0], "report_sick", {}, "TrialNotActive")  # still deployed
    shots = w.shot_list()
    w.ok(
        w.developer,
        "assign_shot_to_clinic",
        {"shots": [shots[0].hex()], "clinic": w.config.clinics[0].hex()},
    )
    w.fail(w.patients[0], "report_sick", {}, "TrialNotActive")  # distributing


def test_report_sick_counters_and_threshold(world_cls):
    w = world_cls(num_shots=6, threshold=3)
    w.assign_all()
    w.bind_all()
    w.fail(w.outsider, "report_sick", {}, "NotBoundPatient")
    receipt = w.sicken(0)
    assert receipt.events[0].name == "PatientSick"
    assert receipt.events[0].payload["infected"] == 1
    assert w.ledger.query("infected_count") == 1
    w.fail(w.patients[0], "report_sick", {}, "AlreadySick")
    w.sicken(1)
    receipt = w.sicken(2)  # threshold
    assert [e.name for e in receipt.events] == ["PatientSick", "TrialFinished"]
    assert w.ledger.query("phase") == "reveal_pending"
    w.fail(w.patients[3], "report_sick", {}, "TrialNotActive")


def test_unconfirmed_patient_cannot_report(world_cls):
    w = world_cls(num_shots=4, threshold=2)
    w.assign_all()
    w.begin(0)  # an open session, no shot yet
    w.fail(w.patients[0], "report_sick", {}, "NotBoundPatient")


# -- reveal and outcome ---------------------------------------------------------


def finalized_world(world_cls, n_placebo_sick, n_vaccine_sick, num_shots=12, target_bp=5000):
    w = world_cls(
        num_shots=num_shots,
        threshold=n_placebo_sick + n_vaccine_sick,
        target_bp=target_bp,
        num_clinics=2,
    )
    w.assign_all()
    w.bind_all()
    w.sicken_exact(n_placebo_sick, n_vaccine_sick)
    return w


def test_reveal_by_elimination_and_conservation(world_cls):
    w = finalized_world(world_cls, 3, 1)
    receipt = w.reveal_honest()
    event = receipt.events[0]
    assert event.name == "TrialFinalized"
    assert event.payload["ar0"] == 3
    assert event.payload["ar1"] == 1
    assert event.payload["ar0"] + event.payload["ar1"] == w.config.infected_threshold
    assert w.ledger.query("phase") == "finalized"
    for index in w.sick:
        record = json_value(w.ledger.contract.shots[w.patient_shot[index]])
        expected = (
            "placebo" if w.arm(index) is ShotContent.PLACEBO else "vaccine_by_elimination"
        )
        assert record["vaccine_type"] == expected
    # non-sick shots stay sealed
    for index in set(w.patient_shot) - set(w.sick):
        record = json_value(w.ledger.contract.shots[w.patient_shot[index]])
        assert record["vaccine_type"] == "unknown"


def test_reveal_access_and_phase_guards(world_cls):
    w = world_cls(num_shots=6, threshold=2)
    w.assign_all()
    w.bind_all()
    w.fail(w.developer, "reveal_controls", {"openings": []}, "NotRevealPhase")
    w.sicken_exact(1, 1)
    w.fail(w.clinics[0], "reveal_controls", {"openings": []}, "NotDeveloper")
    payload = w.sick_control_openings()
    w.fail(w.outsider, "reveal_controls", {"openings": payload}, "NotDeveloper")


def test_forged_opening_rejects_whole_call(world_cls):
    w = finalized_world(world_cls, 3, 2)
    honest = w.sick_control_openings()
    vaccine_sick = [
        w.patient_shot[i] for i in w.sick if w.arm(i) is ShotContent.VACCINE
    ]
    # true nonce but content label flipped to placebo: digest mismatch
    forged = w.opening_entry(vaccine_sick[0], content_label="placebo")
    w.fail(w.developer, "reveal_controls", {"openings": honest + [forged]}, "BadOpening")
    # honest opening of a vaccine shot: fails the control check instead
    true_vaccine = w.opening_entry(vaccine_sick[0])
    w.fail(w.developer, "reveal_controls", {"openings": honest + [true_vaccine]}, "NotPlacebo")
    # a non-sick shot cannot appear at all
    unbound_sick = [s for s in w.shot_list() if s not in set(w.patient_shot.values())]
    healthy = [
        w.patient_shot[i]
        for i in w.patient_shot
        if i not in w.sick and w.arm(i) is ShotContent.PLACEBO
    ]
    outside = (healthy + unbound_sick)[0]
    w.fail(
        w.developer,
        "reveal_controls",
        {"openings": honest + [w.opening_entry(outside)]},
        "NotSickShot",
    )
    # random garbage opening
    garbage = {"commitment": honest[0]["commitment"], "nonce": "ee" * 32, "content": "placebo"}
    w.fail(w.developer, "reveal_controls", {"openings": [garbage]}, "BadOpening")
    # after all those rejections the honest reveal still lands
    receipt = w.reveal_honest()
    assert receipt.events[0].payload["ar0"] == 3


def test_duplicate_openings_in_one_call_are_deduped(world_cls):
    w = finalized_world(world_cls, 2, 1)
    payload = w.sick_control_openings()
    receipt = w.ok(
        w.developer, "reveal_controls", {"openings": payload + [payload[0]]}
    )
    assert receipt.events[0].payload["ar0"] == 2


def test_partial_reveal_lowers_efficiency(world_cls):
    w = finalized_world(world_cls, 4, 1, num_shots=14)
    partial = w.sick_control_openings()[:-1]  # withhold one true control
    receipt = w.ok(w.developer, "reveal_controls", {"openings": partial})
    assert receipt.events[0].payload == {"ar0": 3, "ar1": 2, "approved": False}
    truthful = efficiency_percent(4, 1)
    assert w.ledger.query("outcome")["efficiency"] < truthful


def test_efficiency_formula():
    assert efficiency_percent(120, 44) == pytest.approx(63.3333, abs=1e-3)
    assert efficiency_percent(7, 0) == 100.0
    assert efficiency_percent(9, 9) == 0.0
    assert efficiency_percent(0, 5) is None
    assert efficiency_percent(10, 25) == -150.0
    assert risk_ratio_percent(120, 44) == pytest.approx(36.6667, abs=1e-3)
    assert risk_ratio_percent(0, 3) is None
    assert not approves(0, 4, 0)  # with no control infection nothing is approved, even at a 0% target


def test_undefined_efficiency_world(world_cls):
    w = finalized_world(world_cls, 0, 2)
    receipt = w.ok(w.developer, "reveal_controls", {"openings": []})
    assert receipt.events[0].payload == {"ar0": 0, "ar1": 2, "approved": False}
    assert w.ledger.query("outcome")["efficiency"] is None
    assert w.ledger.query("vaccine_status") == "Rejected"
    assert w.ledger.query("risk_ratio") is None


def test_vaccine_status_targets(world_cls):
    # 6 placebo, 2 vaccine among sick: VE = 100*(6-2)/6 = 66.67%, approved
    # at a target of 50% and of 66.66%, rejected at 66.67% and 70%
    for target_bp, expected in ((5000, "Approved"), (6666, "Approved"), (6667, "Rejected"), (7000, "Rejected")):
        w = finalized_world(world_cls, 6, 2, num_shots=20, target_bp=target_bp)
        w.reveal_honest()
        assert w.ledger.query("vaccine_status") == expected
        assert w.ledger.query("outcome")["efficiency"] == pytest.approx(66.667, abs=1e-2)


def test_approval_independent_of_reveal_ordering(world_cls):
    results = []
    for flip in (False, True):
        w = finalized_world(world_cls, 3, 2, num_shots=12)
        payload = w.sick_control_openings()
        if flip:
            payload = list(reversed(payload))
        receipt = w.ok(w.developer, "reveal_controls", {"openings": payload})
        results.append(receipt.events[0].payload)
    assert results[0] == results[1]


# Every whole percent, and two-decimal targets whose float is not the decimal.
PINNED_TARGETS = [(float(p), 100 * p) for p in range(101)] + [
    (0.01, 1), (0.8, 80), (33.33, 3333), (66.67, 6667), (99.99, 9999)
]


def test_the_integer_decision_is_the_percent_rule():
    """At every threshold n up to 400, for every split ar0 + ar1 = n, the
    contract's integer decision equals ``efficiency_percent(ar0, ar1) >= t``."""
    for n in range(1, 401):
        ar1s = range(n + 1)
        ar0s = [n - ar1 for ar1 in ar1s]
        efficiencies = list(map(efficiency_percent, ar0s, ar1s))
        for target, target_bp in PINNED_TARGETS:
            decided = list(map(approves, ar0s, ar1s, repeat(target_bp)))
            expected = [e is not None and e >= target for e in efficiencies]
            assert decided == expected, (target, n)


def _no_float(text):
    raise AssertionError(f"float {text} in canonical bytes")


@pytest.mark.parametrize("scenario", ["honest_small", "honest_pfizer_like", "adversary_grid"])
def test_no_float_reaches_the_genesis_state_or_events(tmp_path, events_of, scenario):
    spec = load_scenario(scenario)
    ledger = run_scenario(spec, spec.seeds[0], keep_table=False).ledger
    path = tmp_path / "run.vscl"
    write_ledger_log(path, ledger)
    data = path.read_bytes()
    genesis_bytes = data[9 : 9 + int.from_bytes(data[5:9], "big")]
    genesis = json.loads(genesis_bytes, parse_float=_no_float)
    json.loads(ledger.contract.canonical_state(), parse_float=_no_float)
    events = events_of(genesis, ledger.journal)
    assert events[-1].name == "TrialFinalized"
    for event in events:
        json.loads(canonical_json(event), parse_float=_no_float)


# -- blindness ----------------------------------------------------------------


def test_state_is_blind_before_reveal(world_cls):
    w = world_cls(num_shots=8, threshold=3)
    w.assign_all()
    w.bind_all()
    w.sicken_exact(2, 1)
    state = w.ledger.contract.canonical_state().decode()
    assert '"placebo"' not in state
    assert '"vaccine_by_elimination"' not in state
    for opening in w.openings.values():
        assert opening.nonce.hex() not in state
    # journal payloads carry coin-flip nonces but never shot-opening nonces
    journal_blob = b"".join(e.tx.payload for e in w.ledger.journal).decode()
    for opening in w.openings.values():
        assert opening.nonce.hex() not in journal_blob


def test_vaccine_openings_never_published_even_after_reveal(world_cls):
    w = finalized_world(world_cls, 3, 2)
    w.reveal_honest()
    journal_blob = b"".join(e.tx.payload for e in w.ledger.journal).decode()
    for shot, opening in w.openings.items():
        if opening.content is ShotContent.VACCINE:
            assert opening.nonce.hex() not in journal_blob


# -- views --------------------------------------------------------------------


def test_views(world_cls):
    from vaccsc.contract import ContractError

    w = world_cls(num_shots=4)
    assert w.ledger.query("config")["num_participants"] == 4
    assert w.ledger.query("outcome") is None
    assert w.ledger.query("risk_ratio") is None
    with pytest.raises(ContractError):
        w.ledger.query("no_such_view")


# -- one signed spelling per call ---------------------------------------------


def respelling_world(world_cls):
    """One clinic and three placebo shots, so that the reveal has openings."""
    return world_cls(num_shots=3, num_clinics=1, threshold=2, vaccine_fraction=0.0, binding_deadline=0)


def honest_calls(w):
    """An accepted honest call of every method, in trial order. Yields
    ``(sender, method, params)``; the consumer sends each call before it
    asks for the next."""
    drawn = [w.contributions() for _ in range(3)]
    clinic = w.clinics[0]
    shots = [shot.hex() for shot in w.shot_list()]
    yield w.developer, "assign_shot_to_clinic", {"clinic": clinic.address.hex(), "shots": shots}
    yield clinic, "begin_binding", {"bindings": [w.binding(i, *c) for i, c in enumerate(drawn)]}
    reveal = w.patient_reveal(0, 0, *drawn[0])
    yield w.patients[0], "patient_reveal", reveal
    w.patient_shot[0] = bytes.fromhex(reveal["shot"])
    yield w.patients[2], "abort_binding", {"session": 2}  # a deadline of 0 has passed
    w.ok(w.patients[1], "patient_reveal", w.patient_reveal(1, 0, *drawn[1]))
    w.patient_shot[1] = w.ledger.contract.patient_shot[w.patients[1].address]
    yield w.patients[0], "report_sick", {}
    w.sick.append(0)
    w.sicken(1)
    yield w.developer, "reveal_controls", {"openings": w.sick_control_openings()}


def assert_malformed_then_honest(world_cls, method, respell):
    """Send ``respell`` of the honest ``method`` call, expecting MalformedParams
    with the state and the sender's sequence unchanged, then the honest call."""
    w = respelling_world(world_cls)
    for sender, name, params in honest_calls(w):
        if name == method:
            break
        w.ok(sender, name, params)
    else:
        pytest.fail(f"no honest {method} call")
    sequence = w.ledger.next_sequence(sender.address)
    w.fail(sender, method, respell(params), "MalformedParams")  # checks the state digest
    assert w.ledger.next_sequence(sender.address) == sequence
    w.ok(sender, method, params)


def fields(value, path=()):
    """(path, value) of every object and every scalar inside a JSON value."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from fields(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from fields(item, path + (i,))
    else:
        yield path, value


def replaced(params, path, new):
    """A copy of ``params`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    out = copy.deepcopy(params)
    target = out
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = new
    return out


def respellings(value, key):
    """Other spellings of the honest field ``value`` named ``key``."""
    if isinstance(value, dict):
        extra = st.text(min_size=1, max_size=6).filter(lambda k: k not in value)
        options = [extra.map(lambda k: {**value, k: "x"})]
        if value:
            options.append(st.sampled_from(sorted(value)).map(lambda k: {q: v for q, v in value.items() if q != k}))
    elif isinstance(value, int):
        options = [st.sampled_from([float(value), True, False])]
    elif key == "content":
        options = [st.sampled_from([value.upper(), value.title(), f" {value}", f"{value} ", f"  {value.upper()} "])]
    else:  # hex
        options = [st.integers(0, len(value)).map(lambda i: value[:i] + " " + value[i:])]
        if value.upper() != value:
            options.append(st.just(value.upper()))
    return st.one_of(options)


@given(data=st.data())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_respelling_of_an_honest_call_is_malformed(world_cls, data):
    def respell(params):
        path, value = data.draw(st.sampled_from(list(fields(params))))
        return replaced(params, path, data.draw(respellings(value, path[-1] if path else None)))

    assert_malformed_then_honest(world_cls, data.draw(st.sampled_from(sorted(_METHOD_SCHEMA))), respell)


def first_entry(key, edit):
    """Respell honest params by ``edit`` of the first entry of their list ``key``."""
    return lambda p: {key: [edit(p[key][0])] + p[key][1:]}


def first_opening(change):
    return first_entry("openings", lambda entry: {**entry, **change})


# One fixed respelling of each kind: (method, respell the honest params).
RESPELLINGS = {
    "upper-case hex": ("patient_reveal", lambda p: {**p, "shot": upper_case(p["shot"])}),
    "spaced hex": (
        "begin_binding",
        first_entry("bindings", lambda e: {**e, "patient_commitment": spaced(e["patient_commitment"])}),
    ),
    "an extra top-level key": ("assign_shot_to_clinic", lambda p: {**p, "memo": "x"}),
    "an extra key on an empty payload": ("report_sick", lambda p: {"memo": "x"}),
    "an extra entry key": ("reveal_controls", first_opening({"memo": "x"})),
    "an extra reveal key": ("patient_reveal", lambda p: {**p, "memo": "x"}),
    "a missing reveal key": ("patient_reveal", lambda p: {k: v for k, v in p.items() if k != "nonce"}),
    "a missing key": ("patient_reveal", lambda p: {k: v for k, v in p.items() if k != "shot"}),
    "a missing entry key": (
        "begin_binding",
        lambda p: {"bindings": p["bindings"][:1] + [{"patient": p["bindings"][1]["patient"]}]},
    ),
    "a padded upper-case label": ("reveal_controls", first_opening({"content": "  PLACEBO "})),
    "an upper-case label": ("reveal_controls", first_opening({"content": "PLACEBO"})),
    "an int as a float": (
        "begin_binding",
        first_entry("bindings", lambda e: {**e, "clinic_value": float(e["clinic_value"])}),
    ),
    "a session id as a float": ("abort_binding", lambda p: {"session": float(p["session"])}),
    "an int as a bool": ("patient_reveal", lambda p: {**p, "session": False}),
}


@pytest.mark.parametrize("kind", sorted(RESPELLINGS))
def test_each_respelling_is_malformed(world_cls, kind):
    method, respell = RESPELLINGS[kind]
    assert_malformed_then_honest(world_cls, method, respell)


def schema_keys(schema) -> set[str]:
    """Every object key in a schema, nested ones included."""
    if isinstance(schema, dict):
        return set(schema).union(*(schema_keys(item) for item in schema.values()))
    if isinstance(schema, list):
        return schema_keys(schema[0])
    return set()


FORMATS = Path(__file__).parents[1] / "docs" / "FORMATS.md"


def test_formats_method_table_names_exactly_the_schema_keys():
    text = FORMATS.read_text()
    rows = re.findall(r"^\| `(\w+)` \|[^|\n]*\|[^|\n]*\|([^|\n]*)\|$", text, re.M)
    documented = {method: set(re.findall(r"`(\w+)`", params)) for method, params in rows}
    assert documented == {method: schema_keys(schema) for method, schema in _METHOD_SCHEMA.items()}


def test_formats_shows_the_current_contract_id_and_session_layout():
    """A contract bump cannot leave the genesis and state examples, or the
    contract id rule, behind."""
    text = FORMATS.read_text()
    genesis, state = (
        json.loads(re.search(rf"^## {title}.*?^```json\n(.*?)^```", text, re.M | re.S).group(1))
        for title in ("Genesis document", "Canonical contract state")
    )
    assert genesis["contract"] == state["contract"] == CONTRACT_ID
    assert re.findall(r"A `contract` other than `([^`]+)`", text) == [CONTRACT_ID]
    assert state["sessions"][0].keys() == BindingSession.__dataclass_fields__.keys()
