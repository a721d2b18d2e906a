"""The Phase III trial contract: a deterministic access-controlled state machine.

Lifecycle: the developer deploys the contract with one commitment per
shot, distributes shots to clinics, clinics bind shots to patients
through committed coin flips, patients report illness, and once the
infected threshold is reached the developer reveals which sick patients
received the control. Everyone else sick is counted as vaccinated by
elimination, the efficiency is computed, and the approval decision is
published. Shot contents stay sealed behind their commitments the whole
time, so neither clinics nor patients can tell vaccine from placebo
before the reveal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass, replace
from enum import Enum

from .coinflip import (
    CoinFlipSession,
    Party,
    RandomContribution,
    SessionError,
    U64_MAX,
    select_index,
)
from .commitment import DIGEST_SIZE, NONCE_SIZE, ShotContent, verify_raw_opening
from .keys import ADDRESS_SIZE

CONTRACT_ID = "vaccsc-4"

DEFAULT_BINDING_DEADLINE = 100

# The exact keys of one ``begin_binding`` entry.
_BINDING_KEYS = {"patient", "commitment"}


def _json_default(obj):
    """Encode the program's own types: bytes as hex, an Enum as its value,
    an object with ``to_dict`` through it, a dataclass as its fields in
    declaration order."""
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, Enum):
        return obj.value
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if is_dataclass(obj):
        # The instance dict of a dataclass without slots holds exactly its
        # fields, in declaration order; it is twice as fast as fields().
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default).encode()


def json_value(obj):
    """``obj`` as plain JSON values (dicts, lists, str, numbers), keys in field order."""
    return json.loads(json.dumps(obj, default=_json_default))


class ContractError(Exception):
    """A rejected contract call. The transaction leaves no trace on state."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(detail or code)
        self.code = code


class TrialPhase(Enum):
    DEPLOYED = "deployed"
    DISTRIBUTING = "distributing"
    ACTIVE = "active"
    REVEAL_PENDING = "reveal_pending"
    FINALIZED = "finalized"


class VaccineType(Enum):
    """Resolved arm of a shot; Unknown until the control reveal."""

    UNKNOWN = "unknown"
    PLACEBO = "placebo"
    VACCINE_BY_ELIMINATION = "vaccine_by_elimination"


@dataclass(frozen=True)
class TrialConfig:
    """Deployment parameters fixed for the lifetime of the trial."""

    num_participants: int
    infected_threshold: int
    target_efficiency: float
    clinics: tuple[bytes, ...]
    developer: bytes
    binding_deadline: int = DEFAULT_BINDING_DEADLINE

    def __post_init__(self) -> None:
        if self.num_participants < 1:
            raise ValueError("num_participants must be positive")
        if not 1 <= self.infected_threshold <= self.num_participants:
            raise ValueError("infected_threshold must be in [1, num_participants]")
        if not 0.0 <= self.target_efficiency <= 100.0:
            raise ValueError("target_efficiency must be a percentage in [0, 100]")
        if not self.clinics:
            raise ValueError("at least one clinic is required")
        if len(set(self.clinics)) != len(self.clinics):
            raise ValueError("clinic addresses must be distinct")
        if any(len(c) != ADDRESS_SIZE for c in self.clinics):
            raise ValueError("clinic addresses must be 20 bytes")
        if len(self.developer) != ADDRESS_SIZE:
            raise ValueError("developer address must be 20 bytes")
        if self.developer in self.clinics:
            raise ValueError("developer cannot also be a clinic")
        if self.binding_deadline < 0:
            raise ValueError("binding_deadline must be non-negative")


@dataclass
class ShotRecord:
    """Per-shot row. Every field is set at most once, in lifecycle order."""

    clinic: bytes | None = None
    patient: bytes | None = None
    got_sick: bool = False
    vaccine_type: VaccineType = VaccineType.UNKNOWN


@dataclass(frozen=True)
class TrialOutcome:
    """Finalized counts and the approval decision derived from them."""

    ar0: int  # infected control recipients (revealed)
    ar1: int  # infected vaccine recipients (by elimination)
    efficiency: float | None  # signed percentage; None when ar0 = 0
    approved: bool


def efficiency_percent(ar0: int, ar1: int) -> float | None:
    """Percent risk reduction in the vaccinated arm: 100 * (ar0 - ar1) / ar0.

    Undefined (None) when no control infections were recorded. May be
    negative when the vaccinated arm fared worse than control.
    """
    if ar0 == 0:
        return None
    return 100.0 * (ar0 - ar1) / ar0


def risk_ratio_percent(ar0: int, ar1: int) -> float | None:
    """Vaccinated-to-control infection ratio as a percentage: 100 * ar1 / ar0.

    Secondary transparency view; None when ar0 = 0.
    """
    if ar0 == 0:
        return None
    return 100.0 * ar1 / ar0


def decide_outcome(ar0: int, ar1: int, target_efficiency: float) -> TrialOutcome:
    eff = efficiency_percent(ar0, ar1)
    approved = eff is not None and eff >= target_efficiency
    return TrialOutcome(ar0=ar0, ar1=ar1, efficiency=eff, approved=approved)


@dataclass
class BindingSession:
    """A clinic/patient coin flip; ``shot`` is set when the flip selects one."""

    clinic: bytes
    patient: bytes
    flip: CoinFlipSession
    shot: bytes | None = None


class VaccineTrial:
    """Contract instance. All mutation goes through ``dispatch``."""

    def __init__(self, config: TrialConfig, commitments: list[bytes]):
        if len(commitments) != config.num_participants:
            raise ValueError(
                f"expected {config.num_participants} commitments, got {len(commitments)}"
            )
        if any(len(c) != DIGEST_SIZE for c in commitments):
            raise ValueError("every commitment must be a 32-byte digest")
        if len(set(commitments)) != len(commitments):
            raise ValueError("commitments must be pairwise distinct")
        self.config = config
        self.shots: dict[bytes, ShotRecord] = {c: ShotRecord() for c in commitments}
        self.phase = TrialPhase.DEPLOYED
        self.infected = 0
        self.outcome: TrialOutcome | None = None
        self.unassigned = len(commitments)
        # free_shots: per clinic, patient-less shots sorted by digest. This
        # sorted order is the canonical order the coin flip indexes into.
        self.free_shots: dict[bytes, list[bytes]] = {c: [] for c in config.clinics}
        # A session's id is its index; sessions are never removed.
        self.sessions: list[BindingSession] = []
        # Lookup indexes derived from sessions; not part of the canonical state.
        self.pending_by_patient: dict[bytes, int] = {}
        self.patient_shot: dict[bytes, bytes] = {}

    # -- genesis -----------------------------------------------------------

    @classmethod
    def from_genesis(cls, genesis: dict) -> "VaccineTrial":
        """Deploy from a genesis document; raises ValueError naming the bad field."""
        contract = genesis.get("contract")
        if contract != CONTRACT_ID:
            raise ValueError(f"unsupported contract id {contract!r}")
        _check_json(genesis, _GENESIS_SCHEMA, "genesis")
        params = genesis["params"]
        raw = params["config"]
        config = TrialConfig(
            num_participants=raw["num_participants"],
            infected_threshold=raw["infected_threshold"],
            target_efficiency=raw["target_efficiency"],
            clinics=tuple(_strict_hex(c, "params.config.clinics") for c in raw["clinics"]),
            developer=_strict_hex(raw["developer"], "params.config.developer"),
            binding_deadline=raw["binding_deadline"],
        )
        if _strict_hex(genesis["deployer"], "deployer") != config.developer:
            raise ValueError("genesis deployer does not match the configured developer")
        commitments = [_strict_hex(c, "params.commitments") for c in params["commitments"]]
        return cls(config, commitments)

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, sender: bytes, method: str, params: dict, tick: int) -> list[tuple[str, dict]]:
        """Apply one call; returns emitted events or raises ContractError.

        Handlers validate everything before touching state so a raised
        ContractError always leaves the contract exactly as it was.
        """
        handler = _HANDLERS.get(method)
        if handler is None:
            raise ContractError("UnknownMethod", f"no such method {method!r}")
        return handler(self, sender, params, tick)

    # -- operations --------------------------------------------------------

    def _assign_shot(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        if self.phase not in (TrialPhase.DEPLOYED, TrialPhase.DISTRIBUTING):
            raise ContractError("WrongPhase", "distribution is closed")
        if sender != self.config.developer:
            raise ContractError("NotDeveloper", "only the developer distributes shots")
        entries = params.get("shots")
        if not isinstance(entries, list) or not entries:
            raise ContractError("MalformedParams", "shots must be a non-empty list")
        batch = [_as_digest(entry, "shots[]") for entry in entries]
        clinic = _address_param(params, "clinic")
        # Validate the whole batch before mutating anything: one bad entry
        # rejects the entire call.
        seen: set[bytes] = set()
        for shot in batch:
            record = self.shots.get(shot)
            if record is None:
                raise ContractError("UnknownShot", f"no shot commitment {shot.hex()}")
            if record.clinic is not None or shot in seen:
                raise ContractError("AlreadyAssigned", f"{shot.hex()} already has a clinic")
            seen.add(shot)
        if clinic not in self.free_shots:
            raise ContractError("UnknownClinic", "address is not a registered clinic")
        for shot in batch:
            self.shots[shot].clinic = clinic
        free = self.free_shots[clinic]
        free.extend(batch)
        free.sort()
        self.unassigned -= len(batch)
        self.phase = TrialPhase.ACTIVE if self.unassigned == 0 else TrialPhase.DISTRIBUTING
        clinic_hex = clinic.hex()
        return [("ShotAssigned", {"shot": shot.hex(), "clinic": clinic_hex}) for shot in batch]

    def _begin_binding(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        if self.phase is not TrialPhase.ACTIVE:
            raise ContractError("WrongPhase", "binding requires an active trial")
        if sender not in self.free_shots:
            raise ContractError("NotClinic", "only clinics start bindings")
        entries = params.get("bindings")
        if not isinstance(entries, list) or not entries:
            raise ContractError("MalformedParams", "bindings must be a non-empty list")
        batch = []
        for entry in entries:
            if type(entry) is not dict or entry.keys() != _BINDING_KEYS:
                raise ContractError("MalformedParams", "each binding must be {patient, commitment}")
            batch.append((_address_param(entry, "patient"), _digest_param(entry, "commitment")))
        # Validate the whole batch before mutating anything: one bad entry
        # rejects the entire call.
        seen: set[bytes] = set()
        for patient, _ in batch:
            if patient in self.patient_shot or patient in self.pending_by_patient or patient in seen:
                raise ContractError("PatientAlreadyBound", f"{patient.hex()} already has a shot or session")
            seen.add(patient)
        if not self.free_shots[sender]:
            raise ContractError("NoShotsAvailable", "clinic has no unassigned shots")
        deadline = tick + self.config.binding_deadline
        clinic_hex = sender.hex()
        events = []
        for patient, clinic_commit in batch:
            flip = CoinFlipSession(deadline=deadline)
            flip.add_commit(Party.A, clinic_commit)
            session_id = len(self.sessions)
            self.sessions.append(BindingSession(clinic=sender, patient=patient, flip=flip))
            self.pending_by_patient[patient] = session_id
            events.append(
                (
                    "BindingStarted",
                    {"session": session_id, "clinic": clinic_hex, "patient": patient.hex()},
                )
            )
        return events

    def _patient_commit(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        session = self._active_session(params)
        if sender != session.patient:
            raise ContractError("NotSessionPatient", "caller is not this session's patient")
        commitment = _digest_param(params, "commitment")
        _session_op(session.flip.add_commit, Party.B, commitment)
        return []

    def _clinic_reveal(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        session = self._active_session(params)
        if sender != session.clinic:
            raise ContractError("NotSessionClinic", "caller is not this session's clinic")
        _session_op(session.flip.add_reveal, Party.A, _contribution_param(params))
        return []

    def _patient_reveal(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        """The completing reveal: it selects the shot, which the patient has
        named in advance, and binds the patient to it in the same call."""
        session = self._active_session(params)
        if sender != session.patient:
            raise ContractError("NotSessionPatient", "caller is not this session's patient")
        contribution = _contribution_param(params)
        named = _digest_param(params, "shot")
        # Reveal on a copy of the flip, so that any later check can still
        # reject the call with the session untouched.
        flip = replace(session.flip)
        _session_op(flip.add_reveal, Party.B, contribution)
        if flip.result is None:
            raise ContractError("RevealOutOfOrder", "the clinic reveals before the patient")
        free = self.free_shots[session.clinic]
        if not free:
            raise ContractError("NoShotsAvailable", "clinic ran out of shots before completion")
        index = select_index(flip.result, len(free))
        shot = free[index]
        if shot != named:
            raise ContractError("WrongShot", f"the flip selects {shot.hex()}")
        del free[index]
        session.flip = flip
        session.shot = shot
        self.shots[shot].patient = sender
        self.patient_shot[sender] = shot
        del self.pending_by_patient[sender]
        return [("BindingConfirmed", {"shot": shot.hex(), "patient": sender.hex()})]

    def _report_sick(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        if self.phase is not TrialPhase.ACTIVE:
            raise ContractError("TrialNotActive", "sickness reports are closed")
        shot = self.patient_shot.get(sender)
        if shot is None:
            raise ContractError("NotBoundPatient", "caller has no shot")
        record = self.shots[shot]
        if record.got_sick:
            raise ContractError("AlreadySick", "sickness already reported")
        record.got_sick = True
        self.infected += 1
        events = [("PatientSick", {"patient": sender.hex(), "infected": self.infected})]
        if self.infected == self.config.infected_threshold:
            self.phase = TrialPhase.REVEAL_PENDING
            events.append(("TrialFinished", {"infected": self.infected}))
        return events

    def _reveal_controls(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        if self.phase is not TrialPhase.REVEAL_PENDING:
            raise ContractError("NotRevealPhase", "reveal requires the infected threshold")
        if sender != self.config.developer:
            raise ContractError("NotDeveloper", "only the developer reveals controls")
        openings = params.get("openings")
        if not isinstance(openings, list):
            raise ContractError("MalformedParams", "openings must be a list")
        # Validate the whole batch before mutating anything: one bad entry
        # rejects the entire call.
        revealed: set[bytes] = set()
        for entry in openings:
            if not isinstance(entry, dict):
                raise ContractError("MalformedParams", "each opening must be an object")
            shot = _digest_param(entry, "commitment")
            record = self.shots.get(shot)
            if record is None or not record.got_sick:
                raise ContractError("NotSickShot", f"{shot.hex()} is not a sick shot")
            nonce = _hex_param(entry, "nonce")
            try:
                content = ShotContent.from_name(str(entry.get("content", "")))
            except ValueError:
                raise ContractError("BadOpening", "unknown content label") from None
            if not verify_raw_opening(shot, nonce, content.value):
                raise ContractError("BadOpening", f"opening does not match {shot.hex()}")
            if content is not ShotContent.PLACEBO:
                raise ContractError("NotPlacebo", f"{shot.hex()} is not a control shot")
            revealed.add(shot)
        for shot in revealed:
            self.shots[shot].vaccine_type = VaccineType.PLACEBO
        for record in self.shots.values():
            if record.got_sick and record.vaccine_type is VaccineType.UNKNOWN:
                record.vaccine_type = VaccineType.VACCINE_BY_ELIMINATION
        ar0 = len(revealed)
        ar1 = self.infected - ar0
        self.outcome = decide_outcome(ar0, ar1, self.config.target_efficiency)
        self.phase = TrialPhase.FINALIZED
        return [
            (
                "TrialFinalized",
                {
                    "ar0": ar0,
                    "ar1": ar1,
                    "efficiency": self.outcome.efficiency,
                    "approved": self.outcome.approved,
                },
            )
        ]

    def _abort_binding(self, sender: bytes, params: dict, tick: int) -> list[tuple[str, dict]]:
        session = self._active_session(params)
        if sender not in (session.clinic, session.patient):
            raise ContractError("NotSessionParty", "caller is not part of this session")
        _session_op(session.flip.abort, tick)
        del self.pending_by_patient[session.patient]
        return []

    def _active_session(self, params: dict) -> BindingSession:
        if self.phase is not TrialPhase.ACTIVE:
            raise ContractError("WrongPhase", "session operations require an active trial")
        session = self._session(params)
        if session.shot is not None or session.flip.result is not None:
            raise ContractError("SessionSettled", "session already selected a shot")
        if session.flip.phase.value == "aborted":
            raise ContractError("SessionSettled", "session was aborted")
        return session

    def _session(self, params: dict) -> BindingSession:
        raw = params.get("session")
        if type(raw) is not int:  # a JSON bool is not a session id
            raise ContractError("MalformedParams", "session id must be an integer")
        if not 0 <= raw < len(self.sessions):
            raise ContractError("UnknownSession", f"no session {raw}")
        return self.sessions[raw]

    # -- views -------------------------------------------------------------

    def view(self, name: str, params: dict | None = None) -> object:
        params = params or {}
        if name == "phase":
            return self.phase.value
        if name == "infected_count":
            return self.infected
        if name == "vaccine_status":
            if self.outcome is None:
                return "Pending"
            return "Approved" if self.outcome.approved else "Rejected"
        if name == "efficiency":
            return self.outcome.efficiency if self.outcome else None
        if name == "risk_ratio":
            if self.outcome is None:
                return None
            return risk_ratio_percent(self.outcome.ar0, self.outcome.ar1)
        if name == "outcome":
            return json_value(self.outcome)
        if name == "config":
            return json_value(self.config)
        if name == "shot":
            record = self.shots.get(_digest_param(params, "commitment"))
            if record is None:
                raise ContractError("UnknownShot", "no such shot commitment")
            return json_value(record)
        if name == "patient_shot":
            shot = self.patient_shot.get(_address_param(params, "patient"))
            return shot.hex() if shot else None
        if name == "session":
            return json_value(self._session(params))
        if name == "shots_available":
            clinic = _address_param(params, "clinic")
            if clinic not in self.free_shots:
                raise ContractError("UnknownClinic", "address is not a registered clinic")
            return len(self.free_shots[clinic])
        raise ContractError("UnknownView", f"no view named {name!r}")

    # -- canonical state ---------------------------------------------------

    def canonical_state(self) -> bytes:
        """Deterministic byte form of the full state, for digests and replay."""
        return canonical_json(
            {
                "contract": CONTRACT_ID,
                "phase": self.phase,
                "config": self.config,
                "shots": {c.hex(): r for c, r in self.shots.items()},
                "sessions": self.sessions,
                "infected": self.infected,
                "outcome": self.outcome,
            }
        )


def make_genesis(config: TrialConfig, commitments) -> dict:
    """The genesis document deploying ``config`` with these shot commitments."""
    return json_value(
        {
            "contract": CONTRACT_ID,
            "deployer": config.developer,
            "params": {"config": config, "commitments": list(commitments)},
        }
    )


# Exact JSON shape of a genesis: an object's keys must match exactly, and a
# number must have one of the listed types, so a bool never passes as an int.
_GENESIS_SCHEMA = {
    "contract": str,
    "deployer": str,
    "params": {
        "config": {
            "num_participants": int,
            "infected_threshold": int,
            "target_efficiency": (int, float),
            "clinics": [str],
            "developer": str,
            "binding_deadline": int,
        },
        "commitments": [str],
    },
}


def _check_json(value, schema, path: str) -> None:
    if isinstance(schema, dict):
        if type(value) is not dict:
            raise ValueError(f"{path} must be an object")
        odd = sorted(schema.keys() ^ value.keys())
        if odd:
            key = odd[0]
            raise ValueError(f"{path}.{key} is {'missing' if key in schema else 'unexpected'}")
        for key, item_schema in schema.items():
            _check_json(value[key], item_schema, f"{path}.{key}")
    elif isinstance(schema, list):
        if type(value) is not list:
            raise ValueError(f"{path} must be a list")
        for item in value:
            _check_json(item, schema[0], f"{path}[]")
    else:
        kinds = schema if isinstance(schema, tuple) else (schema,)
        if type(value) not in kinds:
            raise ValueError(f"{path} must be a JSON {' or '.join(k.__name__ for k in kinds)}")


def _strict_hex(value, what: str) -> bytes:
    """Decode lower-case hex with no spaces, the one spelling of bytes in a
    genesis or a payload; raises ValueError naming ``what`` otherwise."""
    if type(value) is str:
        try:
            raw = bytes.fromhex(value)
        except ValueError:
            raw = None
        if raw is not None and raw.hex() == value:
            return raw
    raise ValueError(f"{what} must be lowercase hex without spaces")


def _session_op(op, *args) -> None:
    try:
        op(*args)
    except SessionError as exc:
        raise ContractError(exc.code, str(exc)) from None


def _as_hex(raw, what: str) -> bytes:
    try:
        return _strict_hex(raw, what)
    except ValueError as exc:
        raise ContractError("MalformedParams", str(exc)) from None


def _as_digest(raw, what: str) -> bytes:
    value = _as_hex(raw, what)
    if len(value) != DIGEST_SIZE:
        raise ContractError("MalformedParams", f"{what} must be 32 bytes")
    return value


def _hex_param(params: dict, key: str) -> bytes:
    return _as_hex(params.get(key), key)


def _digest_param(params: dict, key: str) -> bytes:
    return _as_digest(params.get(key), key)


def _address_param(params: dict, key: str) -> bytes:
    value = _hex_param(params, key)
    if len(value) != ADDRESS_SIZE:
        raise ContractError("MalformedParams", f"{key} must be a 20-byte address")
    return value


def _contribution_param(params: dict) -> RandomContribution:
    value = params.get("value")
    if type(value) is not int or not 0 <= value <= U64_MAX:
        raise ContractError("MalformedParams", "value must be an unsigned 64-bit integer")
    nonce = _hex_param(params, "nonce")
    if len(nonce) != NONCE_SIZE:
        raise ContractError("MalformedParams", "nonce must be 32 bytes")
    return RandomContribution(value=value, nonce=nonce)


_HANDLERS = {
    "assign_shot_to_clinic": VaccineTrial._assign_shot,
    "begin_binding": VaccineTrial._begin_binding,
    "patient_commit": VaccineTrial._patient_commit,
    "clinic_reveal": VaccineTrial._clinic_reveal,
    "patient_reveal": VaccineTrial._patient_reveal,
    "report_sick": VaccineTrial._report_sick,
    "reveal_controls": VaccineTrial._reveal_controls,
    "abort_binding": VaccineTrial._abort_binding,
}
