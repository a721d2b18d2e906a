"""The coin flip: the patient's committed contribution, the slot two values
select, and the binding session the contract runs. The clinic opens a
session with the commitment it relays for the patient and its own value in
the clear, and the patient reveals last."""

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vaccsc.coinflip import (
    U64_MAX,
    RandomContribution,
    commit_contribution,
    select_index,
)
from vaccsc.commitment import generate_nonce


def make_contribution(value: int, seed: int = 0) -> RandomContribution:
    return RandomContribution(value=value, nonce=generate_nonce(Random(seed)))


def wrong(contribution: RandomContribution) -> RandomContribution:
    """A contribution that does not open ``contribution``'s commitment."""
    return RandomContribution(value=contribution.value ^ 1, nonce=contribution.nonce)


def session_world(world_cls, **kwargs):
    """One clinic holding six shots, with patient 0's session open at it."""
    w = world_cls(num_shots=6, num_clinics=1, **kwargs)
    w.assign_all()
    session, r1, c2 = w.begin(0)
    return w, session, r1, c2


def test_contribution_golden_vectors(vectors):
    for vec in vectors["contribution_vectors"]:
        contribution = RandomContribution(
            value=int(vec["value"], 16), nonce=bytes.fromhex(vec["nonce"])
        )
        assert commit_contribution(contribution) == bytes.fromhex(vec["commitment"])


def test_xor_identities():
    def xor(a: int, b: int) -> int:  # over 2**64 slots the selection is the XOR itself
        return select_index(a, b, 2**64)

    assert xor(0x0, U64_MAX) == U64_MAX
    assert xor(0xDEADBEEF, 0xDEADBEEF) == 0
    assert xor(0b1010, 0b0110) == 0b1100


def test_phase_transitions(world_cls):
    """Each step stores its own input in the session and nothing derived."""
    w, sid, r1, c2 = session_world(world_cls)
    session = w.ledger.contract.sessions[sid]
    patient = w.patients[0]
    assert session.clinic_value == r1
    assert session.patient_commit == commit_contribution(c2)
    assert session.patient_reveal is None
    reveal = w.patient_reveal(sid, 0, r1, c2)
    w.ok(patient, "patient_reveal", reveal)
    assert session.patient_reveal == c2 and not session.aborted
    assert w.ledger.contract.patient_shot[patient.address].hex() == reveal["shot"]
    w.fail(patient, "patient_reveal", reveal, "SessionSettled")


def test_duplicate_commit_rejected(world_cls):
    """Each party plays once: a second begin_binding for a patient with an
    open session is PatientAlreadyBound, and the session keeps the first
    value and commitment."""
    w, sid, r1, c2 = session_world(world_cls)
    w.fail(
        w.clinics[0], "begin_binding", {"bindings": [w.binding(0, r1 ^ 1, wrong(c2))]}, "PatientAlreadyBound"
    )
    session = w.ledger.contract.sessions[sid]
    assert (session.clinic_value, session.patient_commit) == (r1, commit_contribution(c2))


def test_commit_after_reveal_phase_rejected(world_cls):
    """The clinic's value is public from the session's start, so the patient
    knows which shot its reveal selects; no new commitment can be opened
    for it, and it cannot open another contribution."""
    w, sid, r1, c2 = session_world(world_cls)
    patient = w.patients[0]
    w.fail(w.clinics[0], "begin_binding", {"bindings": [w.binding(0, r1, wrong(c2))]}, "PatientAlreadyBound")
    w.fail(patient, "patient_reveal", w.patient_reveal(sid, 0, r1, wrong(c2)), "RevealMismatch")
    w.ok(patient, "patient_reveal", w.patient_reveal(sid, 0, r1, c2))


# -- the relayed commitment ------------------------------------------------------


@pytest.mark.parametrize("aborter", ["patient", "clinic"])
def test_a_wrongly_relayed_commitment_only_stalls_the_session(world_cls, aborter):
    """A clinic that relays a commitment the patient cannot open stalls the
    session and nothing more: the patient's reveal is RevealMismatch, either
    party may abort after the deadline, and the patient can be bound anew."""
    w = world_cls(num_shots=6, num_clinics=1, binding_deadline=5)
    w.assign_all()
    clinic, patient = w.clinics[0], w.patients[0]
    r1, c2 = w.contributions()
    sid = w.ok(clinic, "begin_binding", {"bindings": [w.binding(0, r1, wrong(c2))]})[0]["payload"]["session"]
    w.fail(patient, "patient_reveal", w.patient_reveal(sid, 0, r1, c2), "RevealMismatch")  # checks the state digest
    assert patient.address not in w.ledger.contract.patient_shot
    session = w.ledger.contract.sessions[sid]
    while len(w.ledger.journal) <= session.deadline:
        w.call(w.outsider, "report_sick", {})
    w.ok(patient if aborter == "patient" else clinic, "abort_binding", {"session": sid})
    assert session.aborted and patient.address not in w.ledger.contract.pending_by_patient
    shot = w.bind(0)
    assert w.ledger.contract.shots[shot].patient == patient.address


def test_a_clinic_that_can_open_the_relayed_commitment_cannot_complete(world_cls):
    """Only the session's patient completes it: the clinic, even holding the
    opening of the commitment it relayed, gets NotSessionPatient."""
    w, sid, r1, c2 = session_world(world_cls)
    clinic = w.clinics[0]
    w.fail(clinic, "patient_reveal", w.patient_reveal(sid, 0, r1, c2), "NotSessionPatient")
    assert w.ledger.contract.sessions[sid].patient_reveal is None
    w.ok(w.patients[0], "patient_reveal", w.patient_reveal(sid, 0, r1, c2))


def test_mismatched_reveal_rejected_session_recoverable(world_cls):
    w, sid, r1, c2 = session_world(world_cls)
    patient = w.patients[0]
    shots = sorted(w.shot_list())
    w.fail(patient, "patient_reveal", w.patient_reveal(sid, 0, r1, wrong(c2)), "RevealMismatch")
    # the honest reveal still goes through afterwards
    w.ok(patient, "patient_reveal", w.patient_reveal(sid, 0, r1, c2))
    assert w.ledger.contract.patient_shot[patient.address] == shots[select_index(r1, c2.value, len(shots))]


def test_abort_rules(world_cls):
    w, sid, r1, c2 = session_world(world_cls, binding_deadline=5)
    session = w.ledger.contract.sessions[sid]
    patient = w.patients[0]
    # burn logical time with rejected submissions up to the deadline itself
    while len(w.ledger.journal) < session.deadline:
        w.call(w.outsider, "report_sick", {})
    w.fail(patient, "abort_binding", {"session": sid}, "AbortBeforeDeadline")  # at the deadline is too early
    w.ok(w.clinics[0], "abort_binding", {"session": sid})
    assert session.aborted and session.patient_reveal is None
    w.fail(patient, "patient_reveal", w.patient_reveal(sid, 0, r1, c2), "SessionSettled")
    w.fail(patient, "abort_binding", {"session": sid}, "SessionSettled")
    assert patient.address not in w.ledger.contract.patient_shot


def test_select_index_examples():
    assert select_index(7, 0, 1) == 0
    assert select_index(12, 6, 3) == 1
    with pytest.raises(ValueError):
        select_index(5, 0, 0)


def _chi_square(counts: dict[int, int], total: int, cells: int) -> float:
    expected = total / cells
    return sum((counts.get(i, 0) - expected) ** 2 / expected for i in range(cells))


def test_uniformity_desk_scale():
    """Constant and commit-adaptive adversaries, playing in the clear, cannot bias the index."""
    from scipy.stats import chi2

    critical = chi2.ppf(0.99, 6)
    rng = Random(2024)
    for adversary in ("constant", "adaptive"):
        counts: dict[int, int] = {}
        draws = 14_000
        for _ in range(draws):
            honest = make_contribution(rng.getrandbits(64), rng.getrandbits(32))
            if adversary == "constant":
                adv_value = 0x1234567890ABCDEF
            else:
                # adversary picks after seeing the honest commitment digest
                adv_value = int.from_bytes(commit_contribution(honest)[:8], "big")
            index = select_index(adv_value, honest.value, 7)
            counts[index] = counts.get(index, 0) + 1
        stat = _chi_square(counts, draws, 7)
        assert stat < critical, f"{adversary}: chi2={stat:.2f} >= {critical:.2f}"


def test_contribution_validation():
    with pytest.raises(ValueError):
        RandomContribution(value=-1, nonce=bytes(32))
    with pytest.raises(ValueError):
        RandomContribution(value=U64_MAX + 1, nonce=bytes(32))
    with pytest.raises(ValueError):
        RandomContribution(value=0, nonce=bytes(8))


# "wait" is a rejected outsider call: it only moves logical time on, so
# that an abort can come after the deadline.
STEPS = ("patient_reveal", "abort_binding", "wait")


@given(data=st.data())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_ordering_safety(world_cls, data):
    """Any interleaving of one session's steps, each sent by its own party
    with a right or a wrong value: only the patient's right reveal binds a
    shot, and a rejected step changes no state."""
    w, sid, r1, c2 = session_world(world_cls, binding_deadline=6)
    clinic, patient = w.clinics[0], w.patients[0]
    steps = data.draw(st.lists(st.tuples(st.sampled_from(STEPS), st.booleans()), max_size=12))
    accepted: list[str] = []
    for step, right in steps:
        if step == "wait":
            w.call(w.outsider, "report_sick", {})
            continue
        if step == "patient_reveal":
            sender, params = patient, w.patient_reveal(sid, 0, r1, c2 if right else wrong(c2))
        else:  # either party may abort; the flag picks which
            sender, params = (patient if right else clinic), {"session": sid}
        before = w.ledger.state_digest()
        entry = w.call(sender, step, params)
        if not entry.accepted:
            assert w.ledger.state_digest() == before, f"rejected {step} ({entry.code}) changed state"
            continue
        if step == "patient_reveal":
            assert right
            assert w.ledger.contract.patient_shot[patient.address].hex() == params["shot"]
        accepted.append(step)
    assert (patient.address in w.ledger.contract.patient_shot) == ("patient_reveal" in accepted)
