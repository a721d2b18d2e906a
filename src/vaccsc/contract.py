"""The Phase III trial contract: a deterministic access-controlled state machine.

Lifecycle: the developer deploys the contract with one commitment per
shot, distributes shots to clinics, clinics bind shots to patients
through committed coin flips, patients report illness, and once the
infected threshold is reached the developer reveals which sick patients
received the control. Everyone else sick is counted as vaccinated by
elimination, and the approval decision is made in integers and
published. Shot contents stay sealed behind their commitments the whole
time, so neither clinics nor patients can tell vaccine from placebo
before the reveal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass
from enum import Enum
from functools import partial
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import coinflip  # commit_contribution is called through it, where bench/layers.py counts it
from .coinflip import U64_MAX, RandomContribution, select_index
from .commitment import DIGEST_SIZE, NONCE_SIZE, ShotContent, verify_raw_opening
from .keys import ADDRESS_SIZE

CONTRACT_ID = "vaccsc-10"

DEFAULT_BINDING_DEADLINE = 100

# canonical_state encodes sessions and shots this many entries at a time.
_STATE_SLICE = 256


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


# One encoder for every call, built once. JSONEncoder.encode builds the C one
# again on every call; it is built here with its markers None, which drops only
# the check for circular references. No input here can need it: a payload or a
# genesis is parsed JSON, acyclic and at most ledger.MAX_JSON_DEPTH deep, and
# the program's own values are acyclic rows.
if c_make_encoder is None:  # no C accelerator: the pure-Python encoder
    _ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_default).iterencode
else:
    _ENCODE = c_make_encoder(None, _json_default, encode_basestring_ascii, None, ":", ",", True, False, True)


def canonical_json(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace, UTF-8."""
    return "".join(_ENCODE(obj, 0)).encode()  # 0: the C encoder's indent level, or iterencode's _one_shot


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
    target_efficiency_bp: int  # hundredths of a percent
    clinics: tuple[bytes, ...]
    developer: bytes
    binding_deadline: int = DEFAULT_BINDING_DEADLINE

    def __post_init__(self) -> None:
        check_numbers(self)
        if not 0 <= self.target_efficiency_bp <= 10_000:
            raise ValueError("target_efficiency_bp must be in [0, 10000] hundredths of a percent")
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


def check_numbers(trial) -> None:
    """The range checks of a trial's numeric parameters, run on a TrialConfig
    and on a scenario, which has the same fields, before it deploys one."""
    if trial.num_participants < 1:
        raise ValueError("num_participants must be positive")
    if not 1 <= trial.infected_threshold <= trial.num_participants:
        raise ValueError("infected_threshold must be in [1, num_participants]")
    if trial.binding_deadline < 0:
        raise ValueError("binding_deadline must be non-negative")


@dataclass
class ShotRecord:
    """Per-shot row. Every field is set at most once, in lifecycle order."""

    clinic: bytes | None = None
    patient: bytes | None = None
    got_sick: bool = False
    vaccine_type: VaccineType = VaccineType.UNKNOWN

    def row(self) -> dict:
        """The fields as plain JSON values, for ``canonical_state``."""
        return {
            "clinic": self.clinic and self.clinic.hex(),
            "patient": self.patient and self.patient.hex(),
            "got_sick": self.got_sick,
            "vaccine_type": self.vaccine_type.value,
        }


@dataclass(frozen=True)
class TrialOutcome:
    """Finalized counts and the approval decision derived from them."""

    ar0: int  # infected control recipients (revealed)
    ar1: int  # infected vaccine recipients (by elimination)
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


def approves(ar0: int, ar1: int, target_efficiency_bp: int) -> bool:
    """``efficiency_percent(ar0, ar1) >= target`` in integers, cross-multiplied by
    ar0; never true for ar0 = 0 once ar0 + ar1, the infected threshold, is at least 1."""
    return 10_000 * (ar0 - ar1) >= target_efficiency_bp * ar0


@dataclass
class BindingSession:
    """One clinic/patient coin flip, Blum's flip by telephone. The clinic
    opens the session with the commitment the patient handed it and its
    own value in the clear, and the patient reveals last. The session is
    settled once the patient has revealed, which binds the shot the flip
    selects, or once it is aborted."""

    clinic: bytes
    patient: bytes
    deadline: int  # set once, by begin_binding
    clinic_value: int
    patient_commit: bytes
    patient_reveal: RandomContribution | None = None
    aborted: bool = False

    def row(self) -> dict:
        """The fields as plain JSON values, for ``canonical_state``."""
        reveal = self.patient_reveal
        reveal = reveal and {"value": reveal.value, "nonce": reveal.nonce.hex()}
        return {
            "clinic": self.clinic.hex(),
            "patient": self.patient.hex(),
            "deadline": self.deadline,
            "clinic_value": self.clinic_value,
            "patient_commit": self.patient_commit.hex(),
            "patient_reveal": reveal,
            "aborted": self.aborted,
        }


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
        doc = _GENESIS(genesis)
        config = TrialConfig(**doc["params"]["config"])
        if doc["deployer"] != config.developer:
            raise ValueError("genesis deployer does not match the configured developer")
        return cls(config, doc["params"]["commitments"])

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, sender: bytes, method: str, params: dict, tick: int) -> list[tuple[str, dict]]:
        """Apply one call; returns emitted events or raises ContractError.

        ``params`` is decoded against the method's schema before its handler,
        ``_<method>``, runs, as ABI decoding does, and gets the decoded values.
        Handlers validate everything else before touching state, so a raised
        ContractError always leaves the contract exactly as it was.
        """
        decode = _METHODS.get(method)
        if decode is None:
            raise ContractError("UnknownMethod", f"no such method {method!r}")
        try:
            args = decode(params)
        except ValueError as exc:
            raise ContractError("MalformedParams", str(exc)) from None
        return getattr(self, f"_{method}")(sender, args, tick)

    # -- operations --------------------------------------------------------

    def _assign_shot_to_clinic(self, sender: bytes, args: dict, tick: int) -> list[tuple[str, dict]]:
        if self.phase not in (TrialPhase.DEPLOYED, TrialPhase.DISTRIBUTING):
            raise ContractError("WrongPhase", "distribution is closed")
        if sender != self.config.developer:
            raise ContractError("NotDeveloper", "only the developer distributes shots")
        batch, clinic = args["shots"], args["clinic"]
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

    def _begin_binding(self, sender: bytes, args: dict, tick: int) -> list[tuple[str, dict]]:
        if self.phase is not TrialPhase.ACTIVE:
            raise ContractError("WrongPhase", "binding requires an active trial")
        if sender not in self.free_shots:
            raise ContractError("NotClinic", "only clinics start bindings")
        # The clinic relays the patient's commitment, which only the patient
        # can open, and plays its own value in the clear in the same call.
        batch = [(e["patient"], e["clinic_value"], e["patient_commitment"]) for e in args["bindings"]]
        # Validate the whole batch before mutating anything: one bad entry
        # rejects the entire call.
        seen: set[bytes] = set()
        for patient, _, _ in batch:
            if patient in self.patient_shot or patient in self.pending_by_patient or patient in seen:
                raise ContractError("PatientAlreadyBound", f"{patient.hex()} already has a shot or session")
            seen.add(patient)
        if not self.free_shots[sender]:
            raise ContractError("NoShotsAvailable", "clinic has no unassigned shots")
        deadline = tick + self.config.binding_deadline
        clinic_hex = sender.hex()
        events = []
        for patient, clinic_value, patient_commit in batch:
            session_id = len(self.sessions)
            self.sessions.append(BindingSession(sender, patient, deadline, clinic_value, patient_commit))
            self.pending_by_patient[patient] = session_id
            events.append(
                (
                    "BindingStarted",
                    {"session": session_id, "clinic": clinic_hex, "patient": patient.hex()},
                )
            )
        return events

    def _patient_reveal(self, sender: bytes, args: dict, tick: int) -> list[tuple[str, dict]]:
        """The completing reveal: it selects the shot, which the patient has
        named in advance, and binds the patient to it in the same call."""
        session = self._active_session(args)
        if sender != session.patient:
            raise ContractError("NotSessionPatient", "caller is not this session's patient")
        contribution = RandomContribution(args["value"], args["nonce"])
        if coinflip.commit_contribution(contribution) != session.patient_commit:
            raise ContractError("RevealMismatch", "reveal does not match the patient's commitment")
        free = self.free_shots[session.clinic]
        if not free:
            raise ContractError("NoShotsAvailable", "clinic ran out of shots before completion")
        index = select_index(session.clinic_value, contribution.value, len(free))
        shot = free[index]
        if shot != args["shot"]:
            raise ContractError("WrongShot", f"the flip selects {shot.hex()}")
        del free[index]
        session.patient_reveal = contribution
        self.shots[shot].patient = sender
        self.patient_shot[sender] = shot
        del self.pending_by_patient[sender]
        return [("BindingConfirmed", {"shot": shot.hex(), "patient": sender.hex()})]

    def _report_sick(self, sender: bytes, args: dict, tick: int) -> list[tuple[str, dict]]:
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

    def _reveal_controls(self, sender: bytes, args: dict, tick: int) -> list[tuple[str, dict]]:
        if self.phase is not TrialPhase.REVEAL_PENDING:
            raise ContractError("NotRevealPhase", "reveal requires the infected threshold")
        if sender != self.config.developer:
            raise ContractError("NotDeveloper", "only the developer reveals controls")
        # Validate the whole batch before mutating anything: one bad entry
        # rejects the entire call.
        revealed: set[bytes] = set()
        for entry in args["openings"]:
            shot, content = entry["commitment"], entry["content"]
            record = self.shots.get(shot)
            if record is None or not record.got_sick:
                raise ContractError("NotSickShot", f"{shot.hex()} is not a sick shot")
            if not verify_raw_opening(shot, entry["nonce"], content.value):
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
        approved = approves(ar0, ar1, self.config.target_efficiency_bp)
        self.outcome = TrialOutcome(ar0, ar1, approved)
        self.phase = TrialPhase.FINALIZED
        return [("TrialFinalized", {"ar0": ar0, "ar1": ar1, "approved": approved})]

    def _abort_binding(self, sender: bytes, args: dict, tick: int) -> list[tuple[str, dict]]:
        session = self._active_session(args)
        if sender not in (session.clinic, session.patient):
            raise ContractError("NotSessionParty", "caller is not part of this session")
        if tick <= session.deadline:
            raise ContractError("AbortBeforeDeadline", "deadline has not passed")
        session.aborted = True
        del self.pending_by_patient[session.patient]
        return []

    def _active_session(self, args: dict) -> BindingSession:
        if self.phase is not TrialPhase.ACTIVE:
            raise ContractError("WrongPhase", "session operations require an active trial")
        session_id = args["session"]
        if not 0 <= session_id < len(self.sessions):
            raise ContractError("UnknownSession", f"no session {session_id}")
        session = self.sessions[session_id]
        if session.patient_reveal is not None or session.aborted:
            raise ContractError("SessionSettled", "session already bound a shot or was aborted")
        return session

    # -- views -------------------------------------------------------------

    def view(self, name: str) -> object:
        if name == "phase":
            return self.phase.value
        if name == "infected_count":
            return self.infected
        if name == "vaccine_status":
            if self.outcome is None:
                return "Pending"
            return "Approved" if self.outcome.approved else "Rejected"
        if self.outcome is None and name in ("risk_ratio", "outcome"):
            return None
        if name == "risk_ratio":
            return risk_ratio_percent(self.outcome.ar0, self.outcome.ar1)
        if name == "outcome":
            ar0, ar1, approved = self.outcome.ar0, self.outcome.ar1, self.outcome.approved
            return {"ar0": ar0, "ar1": ar1, "efficiency": efficiency_percent(ar0, ar1), "approved": approved}
        if name == "config":
            return json_value(self.config)
        raise ContractError("UnknownView", f"no view named {name!r}")

    # -- canonical state ---------------------------------------------------

    def canonical_state(self) -> bytes:
        """Deterministic byte form of the full state, for digests and replay.

        The bytes are the canonical JSON of the object with the keys below
        and ``sessions`` (the list) and ``shots`` (the rows keyed by
        commitment hex), each row its dataclass's fields by name. Those two
        grow with the trial, so their rows are built as plain values (``row``)
        ``_STATE_SLICE`` entries at a time, encoded, and only the slices are joined.
        """
        head = canonical_json(
            {
                "contract": CONTRACT_ID,
                "phase": self.phase,
                "config": self.config,
                "infected": self.infected,
                "outcome": self.outcome,
            }
        )
        # Sorted keys put "sessions" and then "shots" after every key of head;
        # commitments, all 32 bytes, sort as their lower-case hex does.
        return b"".join(
            [
                head[:-1],
                b',"sessions":[',
                *_sliced(self.sessions, lambda part: canonical_json([session.row() for session in part])),
                b'],"shots":{',
                *_sliced(sorted(self.shots), lambda part: canonical_json({c.hex(): self.shots[c].row() for c in part})),
                b"}}",
            ]
        )


def _sliced(entries: list, encode) -> list[bytes]:
    """The body of a JSON list or object: ``encode`` of each run of
    _STATE_SLICE entries, its brackets dropped, with a comma between runs."""
    pieces: list[bytes] = []
    for start in range(0, len(entries), _STATE_SLICE):
        if pieces:
            pieces.append(b",")
        pieces.append(encode(entries[start : start + _STATE_SLICE])[1:-1])
    return pieces


def make_genesis(config: TrialConfig, commitments) -> dict:
    """The genesis document deploying ``config`` with these shot commitments."""
    return json_value(
        {
            "contract": CONTRACT_ID,
            "deployer": config.developer,
            "params": {"config": config, "commitments": list(commitments)},
        }
    )


def _strict_hex(size: int):
    """A leaf of ``size`` bytes, spelled as lower-case hex with no spaces: the
    one spelling of bytes in a genesis or a payload."""

    def decode(value, path: str) -> bytes:
        if type(value) is str and len(value) == 2 * size:
            try:
                raw = bytes.fromhex(value)
            except ValueError:
                raw = None
            if raw is not None and raw.hex() == value:
                return raw
        raise ValueError(f"{path} must be {size} bytes of lowercase hex without spaces")

    return decode


def _label(members: dict):
    """A leaf that reads one of ``members``' keys, exactly as spelled, as its member."""

    def decode(value, path: str):
        if type(value) is not str or value not in members:
            raise ValueError(f"{path} must be {' or '.join(map(repr, members))}")
        return members[value]

    return decode


_ADDRESS = _strict_hex(ADDRESS_SIZE)
_DIGEST = _strict_hex(DIGEST_SIZE)
_NONCE = _strict_hex(NONCE_SIZE)
_CONTENT = _label({content.label: content for content in ShotContent})


def _u64(value, path: str) -> int:
    if type(value) is not int or not 0 <= value <= U64_MAX:
        raise ValueError(f"{path} must be an unsigned 64-bit integer")
    return value


# Exact JSON shapes, decoded by ``_compiled`` decoders: an object has exactly
# its keys; ``[item]`` is a list and ``[item, ...]`` a non-empty list of items,
# each decoded to a tuple; a JSON type matches only itself, so a bool is never
# an int and an int never a float; any other leaf decodes the value or raises
# ValueError. No genesis or payload leaf is a float, so their canonical bytes
# do not depend on how a language spells floats.
_GENESIS_SCHEMA = {
    "contract": str,
    "deployer": _ADDRESS,
    "params": {
        "config": {
            "num_participants": int,
            "infected_threshold": int,
            "target_efficiency_bp": int,
            "clinics": [_ADDRESS],
            "developer": _ADDRESS,
            "binding_deadline": int,
        },
        "commitments": [_DIGEST],
    },
}

# The params of each method. A session id is any JSON int; its range is
# the contract's check (UnknownSession).
_METHOD_SCHEMA = {
    "assign_shot_to_clinic": {"clinic": _ADDRESS, "shots": [_DIGEST, ...]},
    "begin_binding": {
        "bindings": [{"patient": _ADDRESS, "clinic_value": _u64, "patient_commitment": _DIGEST}, ...]
    },
    "patient_reveal": {"session": int, "value": _u64, "nonce": _NONCE, "shot": _DIGEST},
    "report_sick": {},
    "reveal_controls": {"openings": [{"commitment": _DIGEST, "nonce": _NONCE, "content": _CONTENT}]},
    "abort_binding": {"session": int},
}


def _compiled(schema, path: str):
    """A decoder of one value against ``schema``, its paths fixed here: it returns
    the decoded value or raises ValueError naming the first bad field."""
    if isinstance(schema, dict):
        keys, items = schema.keys(), [(key, _compiled(item, f"{path}.{key}")) for key, item in schema.items()]

        def decode_object(value):
            if type(value) is not dict:
                raise ValueError(f"{path} must be an object")
            if value.keys() != keys:
                key = min(keys ^ value.keys())
                raise ValueError(f"{path}.{key} is {'missing' if key in keys else 'unexpected'}")
            return {key: item(value[key]) for key, item in items}

        return decode_object
    if isinstance(schema, list):
        item, non_empty = _compiled(schema[0], f"{path}[]"), len(schema) > 1

        def decode_list(value):
            if type(value) is not list or (non_empty and not value):
                raise ValueError(f"{path} must be a {'non-empty ' if non_empty else ''}list")
            return tuple([item(entry) for entry in value])

        return decode_list
    if isinstance(schema, type):

        def decode_type(value):
            if type(value) is not schema:
                raise ValueError(f"{path} must be a JSON {schema.__name__}")
            return value

        return decode_type
    return partial(schema, path=path)


_GENESIS = _compiled(_GENESIS_SCHEMA, "genesis")
_METHODS = {method: _compiled(schema, "params") for method, schema in _METHOD_SCHEMA.items()}


def _decode(value, schema, path: str):
    """``value`` decoded against ``schema`` at ``path``, for a schema built at run time, such
    as a scenario's; the genesis and method params take the decoders compiled once above."""
    return _compiled(schema, path)(value)
