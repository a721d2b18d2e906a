"""Shared fixtures and helpers: conformance vectors, signed transactions, a
count of the Ed25519 work done, the events a ledger emits, a hand-driven trial
world, and the acceptance-line reporter that reprints criterion results after
the run.
"""

from __future__ import annotations

import json
import time
from importlib import resources
from random import Random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from vaccsc import keys
from vaccsc.actors import Behavior, DiseaseModel, Role, ScenarioSpec, Strategy, run_scenario
from vaccsc.commitment import Opening, ShotContent, commit, generate_nonce
from vaccsc.coinflip import RandomContribution, commit_contribution, select_index
from vaccsc.contract import TrialConfig, make_genesis
from vaccsc.keys import KeyPair
from vaccsc.ledger import JournalEntry, Ledger, SignedTransaction, unsigned


def make_transaction(
    keypair: KeyPair, trial_id: bytes, method: str, params: dict, sequence_number: int
) -> SignedTransaction:
    """The signed call; a size or range a log record cannot hold raises ValueError before signing."""
    payload, message = unsigned(trial_id, method, params, sequence_number)
    return SignedTransaction(
        keypair.address, keypair.public_key, method, payload, sequence_number, keypair.sign(message)
    )


def count_ed25519_work(monkeypatch) -> dict[str, list]:
    """Stand-ins for the ``cryptography`` key classes that ``vaccsc.keys`` uses,
    recording each private key derived, each message signed and each verify."""
    work = {"derived": [], "signed": [], "verified": []}

    class Private:
        @staticmethod
        def from_private_bytes(data):
            work["derived"].append(data)
            real = Ed25519PrivateKey.from_private_bytes(data)

            class Key:
                public_key = real.public_key

                def sign(self, message):
                    work["signed"].append((data, message))
                    return real.sign(message)

            return Key()

    class Public:
        @staticmethod
        def from_public_bytes(data):
            real = Ed25519PublicKey.from_public_bytes(data)

            class Key:
                def verify(self, signature, message):
                    work["verified"].append((data, signature, message))
                    real.verify(signature, message)

            return Key()

    monkeypatch.setattr(keys, "Ed25519PrivateKey", Private)
    monkeypatch.setattr(keys, "Ed25519PublicKey", Public)
    return work


def record_events(ledger: Ledger) -> list[dict]:
    """The events a new ``ledger`` emits, each as docs/FORMATS.md's record:
    ``cause`` the journal position (the tick ``submit`` hands ``dispatch``) and
    ``index`` gapless from 0. They are taken from what ``dispatch`` returns,
    wrapped on the ledger's contract instance; the ledger itself keeps only
    their digest."""
    records: list[dict] = []
    dispatch = ledger.contract.dispatch

    def recorded(sender: bytes, method: str, params: dict, tick: int) -> list[tuple[str, dict]]:
        emitted = dispatch(sender, method, params, tick)
        records.extend(
            [
                {"cause": tick, "index": index, "name": name, "payload": payload}
                for index, (name, payload) in enumerate(emitted, len(records))
            ]
        )
        return emitted

    ledger.contract.dispatch = recorded
    return records


class World:
    """A trial driven operation by operation, with ground truth on the side.

    Unlike the scenario runner this gives tests exact control: who binds
    where, who gets sick in which order, what the developer reveals.
    """

    def __init__(
        self,
        num_shots: int = 10,
        num_clinics: int = 2,
        threshold: int = 4,
        target_bp: int = 5000,
        seed: int = 1234,
        vaccine_fraction: float = 0.5,
        binding_deadline: int = 100,
        extra_patients: int = 4,
    ):
        rng = Random(seed)
        self.rng = rng
        self.developer = KeyPair.generate(rng)
        self.clinics = [KeyPair.generate(rng) for _ in range(num_clinics)]
        self.patients = [KeyPair.generate(rng) for _ in range(num_shots + extra_patients)]
        self.outsider = KeyPair.generate(rng)
        n_vaccine = round(num_shots * vaccine_fraction)
        contents = [ShotContent.VACCINE] * n_vaccine
        contents += [ShotContent.PLACEBO] * (num_shots - n_vaccine)
        rng.shuffle(contents)
        self.openings: dict[bytes, Opening] = {}
        for content in contents:
            opening = Opening(content=content, nonce=generate_nonce(rng))
            self.openings[commit(opening)] = opening
        self.config = TrialConfig(
            num_participants=num_shots,
            infected_threshold=threshold,
            target_efficiency_bp=target_bp,
            clinics=tuple(k.address for k in self.clinics),
            developer=self.developer.address,
            binding_deadline=binding_deadline,
        )
        self.genesis = make_genesis(self.config, list(self.openings))
        self.ledger = Ledger(self.genesis)
        # every event emitted so far, and those of the latest call
        self.emitted = record_events(self.ledger)
        self.events: list[dict] = []
        self.patient_shot: dict[int, bytes] = {}
        self.sick: list[int] = []

    # -- submissions -----------------------------------------------------

    def call(self, keypair: KeyPair, method: str, params: dict) -> JournalEntry:
        """Sign and submit the call; its events are left in ``events``."""
        tx = make_transaction(
            keypair, self.ledger.trial_id, method, params, self.ledger.next_sequence(keypair.address)
        )
        start = len(self.emitted)
        entry = self.ledger.submit(tx)
        self.events = self.emitted[start:]
        return entry

    def ok(self, keypair: KeyPair, method: str, params: dict) -> list[dict]:
        """``call``, which must be accepted; returns its events."""
        entry = self.call(keypair, method, params)
        assert entry.accepted, f"{method} unexpectedly rejected: {entry.code}"
        return self.events

    def fail(self, keypair: KeyPair, method: str, params: dict, code: str) -> JournalEntry:
        before = self.ledger.state_digest()
        entry = self.call(keypair, method, params)
        assert not entry.accepted, f"{method} unexpectedly accepted"
        assert entry.code == code, f"expected {code}, got {entry.code}"
        assert self.ledger.state_digest() == before, f"{method} rejection mutated state"
        return entry

    # -- protocol steps ----------------------------------------------------

    def shot_list(self) -> list[bytes]:
        return list(self.openings)

    def assign_all(self) -> None:
        """Deal the shots round-robin, one assignment call per clinic."""
        shots = [shot.hex() for shot in self.openings]
        for i, clinic in enumerate(self.config.clinics[: len(shots)]):
            self.ok(
                self.developer,
                "assign_shot_to_clinic",
                {"clinic": clinic.hex(), "shots": shots[i :: len(self.clinics)]},
            )

    def contributions(self, r1: int | None = None, r2: int | None = None):
        """The clinic's value and the patient's coin-flip contribution, in draw order."""
        rng = self.rng
        r1 = rng.getrandbits(64) if r1 is None else r1
        c2 = RandomContribution(
            value=rng.getrandbits(64) if r2 is None else r2, nonce=generate_nonce(rng)
        )
        return r1, c2

    def binding(self, patient_index: int, r1: int, c2: RandomContribution) -> dict:
        """One ``begin_binding`` entry: the patient, the clinic's value in the
        clear and the patient's commitment that the clinic relays."""
        return {
            "patient": self.patients[patient_index].address.hex(),
            "clinic_value": r1,
            "patient_commitment": commit_contribution(c2).hex(),
        }

    def begin(
        self,
        patient_index: int,
        clinic_index: int = 0,
        r1: int | None = None,
        r2: int | None = None,
    ):
        """Open a session holding the clinic's value and the patient's
        commitment; returns driving state. A session's id is its index."""
        r1, c2 = self.contributions(r1, r2)
        session = len(self.ledger.contract.sessions)
        self.ok(
            self.clinics[clinic_index],
            "begin_binding",
            {"bindings": [self.binding(patient_index, r1, c2)]},
        )
        return session, r1, c2

    def selected_shot(self, clinic_index: int, r1: int, c2: RandomContribution) -> bytes:
        """The shot the flip of ``r1`` and ``c2`` selects from the clinic's free list now."""
        free = self.ledger.contract.free_shots[self.config.clinics[clinic_index]]
        return free[select_index(r1, c2.value, len(free))]

    def patient_reveal(self, session: int, clinic_index: int, r1, c2) -> dict:
        """The completing reveal's params, naming the shot the flip selects now."""
        shot = self.selected_shot(clinic_index, r1, c2)
        return {"session": session, "value": c2.value, "nonce": c2.nonce.hex(), "shot": shot.hex()}

    def complete(self, session: int, patient_index: int, clinic_index: int, r1, c2) -> bytes:
        """The patient's reveal naming its shot."""
        patient = self.patients[patient_index]
        reveal = self.patient_reveal(session, clinic_index, r1, c2)
        self.ok(patient, "patient_reveal", reveal)
        shot = bytes.fromhex(reveal["shot"])
        assert self.ledger.contract.patient_shot[patient.address] == shot
        self.patient_shot[patient_index] = shot
        return shot

    def bind(
        self,
        patient_index: int,
        clinic_index: int = 0,
        r1: int | None = None,
        r2: int | None = None,
    ) -> bytes:
        session, r1, c2 = self.begin(patient_index, clinic_index, r1, r2)
        return self.complete(session, patient_index, clinic_index, r1, c2)

    def bind_all(self) -> None:
        """Bind patient i at clinic i % C: one begin_binding per clinic, then
        the sessions complete in patient order."""
        count, num_clinics = self.config.num_participants, len(self.clinics)
        drawn = [self.contributions() for _ in range(count)]
        session_of: dict[int, int] = {}
        for c in range(min(num_clinics, count)):
            indexes = range(c, count, num_clinics)
            events = self.ok(
                self.clinics[c],
                "begin_binding",
                {"bindings": [self.binding(i, *drawn[i]) for i in indexes]},
            )
            for i, event in zip(indexes, events):
                session_of[i] = event["payload"]["session"]
        for i, (r1, c2) in enumerate(drawn):
            self.complete(session_of[i], i, i % num_clinics, r1, c2)

    def arm(self, patient_index: int) -> ShotContent:
        return self.openings[self.patient_shot[patient_index]].content

    def sicken(self, patient_index: int) -> list[dict]:
        events = self.ok(self.patients[patient_index], "report_sick", {})
        self.sick.append(patient_index)
        return events

    def sicken_exact(self, n_placebo: int, n_vaccine: int) -> None:
        """Make exactly these many bound patients sick, by true arm."""
        want = {ShotContent.PLACEBO: n_placebo, ShotContent.VACCINE: n_vaccine}
        for index in sorted(self.patient_shot):
            content = self.arm(index)
            if want[content] > 0:
                want[content] -= 1
                self.sicken(index)
        assert not any(want.values()), f"not enough bound patients per arm: {want}"

    def opening_entry(
        self, shot: bytes, content_label: str | None = None, nonce: bytes | None = None
    ) -> dict:
        opening = self.openings[shot]
        return {
            "commitment": shot.hex(),
            "nonce": (nonce if nonce is not None else opening.nonce).hex(),
            "content": content_label if content_label is not None else opening.content.label,
        }

    def sick_control_openings(self) -> list[dict]:
        shots = sorted(
            self.patient_shot[i]
            for i in self.sick
            if self.arm(i) is ShotContent.PLACEBO
        )
        return [self.opening_entry(shot) for shot in shots]

    def reveal_honest(self) -> list[dict]:
        return self.ok(
            self.developer, "reveal_controls", {"openings": self.sick_control_openings()}
        )


_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def vectors():
    data = resources.files("vaccsc") / "data" / "commitment_vectors.json"
    return json.loads(data.read_text())


@pytest.fixture
def world_cls():
    return World


def replayed_events(genesis: dict, journal) -> list[dict]:
    """Every event a journal emits, in order, as ``record_events`` numbers them
    in a replay: a ledger keeps only the running digest of its events."""
    ledger = Ledger(genesis)
    events = record_events(ledger)
    for entry in journal:
        ledger.submit(entry.tx)
    return events


@pytest.fixture
def events_of():
    return replayed_events


@pytest.fixture
def collusion_record():
    """The evidence a colluding clinic and its first patient leave when they
    steer their coin flip together, in a one-clinic world of 8 shots."""

    def record(seed: int) -> dict:
        spec = ScenarioSpec(
            name="collusion-probe",
            num_participants=8,
            infected_threshold=1,
            target_efficiency=50.0,
            num_clinics=1,
            disease=DiseaseModel(p_control=0.0, p_vaccine=0.0, epochs=1),
            seeds=(seed,),
        )
        report = run_scenario(
            spec,
            seed,
            strategies=(Strategy(Role.CLINIC, Behavior.COLLUDE_WITH_PATIENT),),
            keep_table=False,
        )
        return report.evidence[0]

    return record


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion; fails the test on FAIL."""

    def record(number: int, description: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"[ACCEPTANCE {number}] {status} - {description}"
        if detail:
            line += f" ({detail})"
        _ACCEPTANCE_LINES.append((number, line))
        print(line)
        assert ok, line

    return record


@pytest.fixture
def timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES, key=lambda item: item[0]):
            terminalreporter.write_line(line)
