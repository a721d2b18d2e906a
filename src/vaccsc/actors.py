"""Scenario harness: honest and adversarial actors driving full trials.

The runner plays every role itself (developer, clinics, patients) against
a fresh ledger, under a single seeded generator, so a scenario is fully
reproducible from (scenario, seed). Ground truth about shot contents
lives only in the runner's memory and in the report it returns; the
ledger never sees anything but commitments until the reveal.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from enum import Enum
from importlib import resources
from operator import attrgetter
from pathlib import Path
from random import Random

from .commitment import Opening, ShotContent, commit, generate_nonce
from .coinflip import RandomContribution, commit_contribution, select_index
from .contract import (
    DEFAULT_BINDING_DEADLINE, TrialConfig, _decode, _label, check_numbers, efficiency_percent, json_value,
    make_genesis,
)
from .ahead import worked_ahead
from .keys import PUBLIC_KEY_SIZE, SIGNED_SIZE, KeyPair
from .ledger import MAX_JSON_DEPTH, JournalEntry, Ledger, SignedTransaction, too_deep, unsigned


class Role(Enum):
    DEVELOPER = "developer"
    CLINIC = "clinic"
    PATIENT = "patient"


class Behavior(Enum):
    HONEST = "honest"
    OMIT_CONTROLS = "omit_controls"
    FORGE_CONTROLS = "forge_controls"
    BIASED_DISTRIBUTION = "biased_distribution"
    COLLUDE_WITH_PATIENT = "collude_with_patient"
    FALSE_SICK = "false_sick"
    NEVER_REPORT = "never_report"


# Each behavior's role (None: any role) and its knob: the knob's name, its
# JSON type (matched exactly, so a bool is not a count) and its range, as
# text and as a check; None for a behavior that takes no knob. A strategy is
# spelled with exactly its behavior's knob, in a scenario file and in a report.
_PROBABILITY = ("probability", float, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_BEHAVIORS = {
    Behavior.HONEST: (None, None),
    Behavior.OMIT_CONTROLS: (Role.DEVELOPER, ("fraction", float, "in (0, 1]", lambda v: 0.0 < v <= 1.0)),
    Behavior.FORGE_CONTROLS: (Role.DEVELOPER, ("count", int, ">= 1", lambda v: v >= 1)),
    Behavior.BIASED_DISTRIBUTION: (Role.DEVELOPER, None),
    Behavior.COLLUDE_WITH_PATIENT: (Role.CLINIC, None),
    Behavior.FALSE_SICK: (Role.PATIENT, _PROBABILITY),
    Behavior.NEVER_REPORT: (Role.PATIENT, _PROBABILITY),
}


@dataclass(frozen=True)
class Strategy:
    """One role's behavior for a run, with that behavior's knob if it has one.

    omit_controls: fraction of the sick controls a developer withholds.
    forge_controls: count of forged openings per forged reveal attempt.
    false_sick, never_report: per-epoch false-report or per-patient silence chance.
    """

    role: Role
    behavior: Behavior = Behavior.HONEST
    knob: float | int | None = None

    def __post_init__(self) -> None:
        role, knob = _BEHAVIORS[self.behavior]
        if role not in (None, self.role):
            raise ValueError(f"{self.role.value} cannot use behavior {self.behavior.value}")
        if knob is None and self.knob is not None:
            raise ValueError(f"{self.behavior.value} takes no knob")
        if knob:
            name, kind, bounds, within = knob
            if type(self.knob) is not kind or not within(self.knob):
                raise ValueError(f"{self.behavior.value} needs a {name} of type {kind.__name__} {bounds}")

    def to_dict(self) -> dict:
        knob = _BEHAVIORS[self.behavior][1]
        spelled = {"role": self.role.value, "behavior": self.behavior.value}
        return {**spelled, knob[0]: self.knob} if knob else spelled


@dataclass(frozen=True)
class DiseaseModel:
    """Per-epoch independent infection chances, by arm, with an epoch cap.

    A trial that has not reached its threshold after `epochs` rounds is
    reported as incomplete rather than looping forever.
    """

    p_control: float
    p_vaccine: float
    epochs: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_control <= 1.0 or not 0.0 <= self.p_vaccine <= 1.0:
            raise ValueError("infection probabilities must be in [0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


@dataclass(frozen=True)
class GridCell:
    label: str
    strategies: tuple[Strategy, ...]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    num_participants: int
    infected_threshold: int
    target_efficiency: float
    num_clinics: int
    disease: DiseaseModel
    seeds: tuple[int, ...]
    vaccine_fraction: float = 0.5
    binding_deadline: int = DEFAULT_BINDING_DEADLINE
    strategies: tuple[Strategy, ...] = ()  # a role not listed is honest
    grid: tuple[GridCell, ...] = ()

    def __post_init__(self) -> None:
        if self.name in ("", ".", "..") or "/" in self.name or "\0" in self.name:  # it starts simulate's file names
            raise ValueError(f"scenario.name {self.name!r} must be a file name: not empty, . or .., no / or NUL")
        check_numbers(self)  # TrialConfig's checks, run at load so a bad scenario makes no output
        target = self.target_efficiency  # deployed as round(target * 100), the decimal as written
        if not 0.0 <= target <= 100.0 or round(target, 2) != target:
            raise ValueError("target_efficiency must be a percentage in [0, 100] with at most two decimals")
        if self.num_clinics < 1:
            raise ValueError("need at least one clinic")
        if not 0.0 <= self.vaccine_fraction <= 1.0:
            raise ValueError("vaccine_fraction must be in [0, 1]")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        _roles_once(self.strategies, "scenario.strategies")
        _distinct(self.grid, "label", "the label {}", "scenario.grid")
        for cell in self.grid:
            _roles_once(cell.strategies, "scenario.grid[].strategies")


def _distinct(items, key: str, name: str, path: str):
    """``items``, if no two share the ``key`` attribute; ``name`` spells a
    shared value in the ValueError raised otherwise."""
    for shared, count in Counter(map(attrgetter(key), items)).items():
        if count > 1:
            raise ValueError(f"{path} names {name.format(shared)} twice")
    return items


def _roles_once(strategies, path: str):
    return _distinct(strategies, "role.value", "the {} role", path)


_ROLE = _label({role.value: role for role in Role})
_BEHAVIOR = _label({behavior.value: behavior for behavior in Behavior})


def _into(cls, schema: dict):
    """A leaf that decodes an object against ``schema`` and builds ``cls`` from
    its fields; a value ``cls`` rejects raises ValueError naming the object."""

    def decode(value, path: str):
        fields = _decode(value, schema, path)
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    return decode


def _strategy(value, path: str) -> Strategy:
    """A strategy object: its role, its behavior and exactly that behavior's knob."""
    knob = None
    if type(value) is dict and "behavior" in value:
        knob = _BEHAVIORS[_BEHAVIOR(value["behavior"], f"{path}.behavior")][1]
    schema = {"role": _ROLE, "behavior": _BEHAVIOR} | ({knob[0]: knob[1]} if knob else {})
    return _into(lambda role, behavior, **given: Strategy(role, behavior, *given.values()), schema)(value, path)


# A scenario document, in the grammar of the contract's ``_decode``. Every
# key is required; the config keys are ScenarioSpec's flat fields.
_SCENARIO_SCHEMA = {
    "name": str,
    "config": {
        "num_participants": int,
        "infected_threshold": int,
        "target_efficiency": float,
        "num_clinics": int,
        "binding_deadline": int,
    },
    "disease": _into(DiseaseModel, {"p_control": float, "p_vaccine": float, "epochs": int}),
    "vaccine_fraction": float,
    "strategies": [_strategy],
    "grid": [_into(GridCell, {"label": str, "strategies": [_strategy]})],
    "seeds": [int],
}


def scenario_from_dict(raw) -> ScenarioSpec:
    """A parsed scenario document as a ScenarioSpec; raises ValueError naming the bad field."""
    doc = _decode(raw, _SCENARIO_SCHEMA, "scenario")
    return ScenarioSpec(**doc.pop("config"), **doc)


def load_scenario(ref: str | Path) -> ScenarioSpec:
    """The scenario in the file ``ref``, or else the bundled one of that name, as in
    ``load_scenario("honest_small")``; raises OSError or ValueError naming what is wrong."""
    root = resources.files("vaccsc") / "data" / "scenarios"
    bundled = {file.name.removesuffix(".json"): file for file in root.iterdir() if file.name.endswith(".json")}
    path = Path(ref) if Path(ref).is_file() else bundled.get(ref)
    if path is None:
        raise FileNotFoundError(
            f"scenario {ref!r} is neither a file nor a bundled name (bundled: {', '.join(sorted(bundled))})"
        )
    data = path.read_bytes()
    if too_deep(data):
        raise ValueError(f"scenario nests deeper than {MAX_JSON_DEPTH}")
    return scenario_from_dict(json.loads(data))


@dataclass
class TrialReport:
    """Everything one seeded run produced, ledger-side and ground-truth-side."""

    seed: int
    label: str
    complete: bool
    phase: str
    epochs_run: int
    config: dict
    disease: dict
    strategies: list[dict]
    ledger_summary: dict
    truth: dict
    divergence: dict
    evidence: list[dict]
    incomplete_reason: str | None
    assignment_table: list[dict] | None
    ledger: Ledger = field(repr=False, compare=False)

    def to_json(self) -> dict:
        """Every field but the ledger, in order; ``ledger_summary`` is spelled ``ledger``."""
        return {
            "ledger" if f.name == "ledger_summary" else f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "ledger"
        }


@dataclass
class _PatientState:
    keypair: KeyPair
    silent: bool = False
    truly_infected: bool = False


def _accepted(entry: JournalEntry) -> JournalEntry:
    """``entry``, the outcome of a step the run cannot go on without; a rejection raises."""
    if not entry.accepted:
        raise RuntimeError(f"{entry.tx.method} failed: {entry.code}")
    return entry


class _Runner:
    def __init__(self, spec: ScenarioSpec, strategies, seed: int, label: str, keep_table: bool, world=None):
        self.spec = spec
        self.keys = world
        self.strategies = {role: Strategy(role) for role in Role} | {s.role: s for s in strategies}
        self.seed = seed
        self.label = label
        self.keep_table = keep_table
        self.rng = Random(seed)
        self.evidence: list[dict] = []
        self.epochs_run = 0
        self.incomplete_reason: str | None = None

    # -- world construction --------------------------------------------

    def _build(self) -> None:
        spec, rng = self.spec, self.rng
        self.developer = KeyPair.generate(rng, self.keys)
        self.clinics = [KeyPair.generate(rng, self.keys) for _ in range(spec.num_clinics)]
        self.patients = [_PatientState(KeyPair.generate(rng, self.keys)) for _ in range(spec.num_participants)]
        self.config = TrialConfig(
            num_participants=spec.num_participants,
            infected_threshold=spec.infected_threshold,
            target_efficiency_bp=round(spec.target_efficiency * 100),
            clinics=tuple(kp.address for kp in self.clinics),
            developer=self.developer.address,
            binding_deadline=spec.binding_deadline,
        )
        n_vaccine = round(spec.num_participants * spec.vaccine_fraction)
        self.arm_sizes = {"vaccine_shots": n_vaccine, "placebo_shots": spec.num_participants - n_vaccine}
        contents = [ShotContent.VACCINE] * n_vaccine + [ShotContent.PLACEBO] * self.arm_sizes["placebo_shots"]
        rng.shuffle(contents)
        self.manifest: dict[bytes, Opening] = {}
        for content in contents:
            opening = Opening(content=content, nonce=generate_nonce(rng))
            self.manifest[commit(opening)] = opening
        if len(self.manifest) != spec.num_participants:
            raise RuntimeError("commitment collision in manifest")
        self.ledger = Ledger(make_genesis(self.config, self.manifest))
        patient_strategy = self.strategies[Role.PATIENT]
        if patient_strategy.behavior is Behavior.NEVER_REPORT:
            for p in self.patients:
                p.silent = rng.random() < patient_strategy.knob

    def _call(self, keypair: KeyPair, method: str, params: dict) -> JournalEntry:
        """``method`` signed by ``keypair`` with its next sequence number, and submitted."""
        call = self._unsigned(keypair, method, params, self.ledger.next_sequence(keypair.address))
        with self._signed([call]) as signed:
            return self.ledger.submit(*next(signed))

    def _must(self, keypair: KeyPair, method: str, params: dict) -> JournalEntry:
        """``_call`` for a step the run cannot go on without: a rejection raises."""
        return _accepted(self._call(keypair, method, params))

    def _distribute(self) -> None:
        shots = list(self.manifest)
        if self.strategies[Role.DEVELOPER].behavior is Behavior.BIASED_DISTRIBUTION:
            # all vaccine doses to the first clinics, controls to the rest
            shots.sort(key=lambda c: (self.manifest[c].content is not ShotContent.VACCINE, c))
        else:
            self.rng.shuffle(shots)
        # One call per clinic, dealing the shots round-robin; a clinic left
        # with no shot (fewer shots than clinics) gets no call.
        for i, clinic in enumerate(self.config.clinics[: len(shots)]):
            batch = [shot.hex() for shot in shots[i :: len(self.clinics)]]
            self._must(self.developer, "assign_shot_to_clinic", {"clinic": clinic.hex(), "shots": batch})

    def _unsigned(self, keypair: KeyPair, method: str, params: dict, sequence: int) -> tuple:
        """A call for ``_signed``: its signer, method, sequence number, payload and signing bytes."""
        return keypair, method, sequence, *unsigned(self.ledger.trial_id, method, params, sequence)

    @contextlib.contextmanager
    def _signed(self, calls: list[tuple]) -> Iterator[Iterator[tuple[SignedTransaction, bool]]]:
        """``calls`` from ``_unsigned`` as signed transactions, each with its verdict, in
        order, for ``submit``: the one way from a call of the run to the ledger.

        Each call is one Ed25519 job (``KeyPair.job``: derive the key if need be,
        sign, verify). Its result answers the call's one ``KeyPair.sign``, and its
        verdict the one signature check ``submit`` makes. The jobs a grid world's
        keypairs remember are looked up here, once, before any helper starts; only
        the new ones go to ``worked_ahead``, whose helper does them ahead for a
        batch of more than HELPER_THRESHOLD new jobs, or else this process does.
        """
        remembered = [keypair.remembered(message) for keypair, _, _, _, message in calls]
        new = [call for call, result in zip(calls, remembered) if result is None]

        def job(index: int) -> bytes:
            keypair, _, _, _, message = new[index]
            return keypair.job(message)

        def signed(results) -> Iterator[tuple[SignedTransaction, bool]]:
            for (keypair, method, sequence, payload, message), result in zip(calls, remembered):
                if result is None:
                    result = keypair.job(message, next(results))
                signature = keypair.sign(message, result[PUBLIC_KEY_SIZE:-1])
                tx = SignedTransaction(keypair.address, keypair.public_key, method, payload, sequence, signature)
                yield tx, result[-1] == 1

        with worked_ahead(len(new), SIGNED_SIZE, job) as results:
            yield signed(results)

    def _bind_all(self) -> None:
        """Bind each patient at clinic ``index % C``, which mirrors how the
        shots were dealt.

        Each clinic, in clinic order, binds its patients in chunks of at most
        ``max(1, binding_deadline)`` sessions: one ``begin_binding`` carrying
        each patient's commitment and the clinic's value in the clear, then
        each patient's reveal in patient order. A chunk that small keeps every
        reveal within its session's deadline, and since a clinic's free list
        changes only through its own patients' reveals, every patient gets
        the shot that binding them one at a time in patient order would give.

        No step waits on an outcome, so the whole phase is planned first:
        session ids count on from the contract's, each clinic's free list is a
        local copy of the contract's, popped as each reveal selects, and each
        reveal is a patient's first transaction. The reveals are signed ahead
        by ``_signed``, which derives the patients' keys; each chunk's
        ``begin_binding`` is built from its patients' addresses as their reveals
        come back, and submitted through ``_must`` before them. A reveal the
        ledger rejects raises too: a local list that drifted from the
        contract's would name a shot the flip does not select.
        """
        rng, ledger = self.rng, self.ledger
        colluding = self.strategies[Role.CLINIC].behavior is Behavior.COLLUDE_WITH_PATIENT
        num_clinics = len(self.clinics)
        plans = []
        for index, patient in enumerate(self.patients):
            r1 = rng.getrandbits(64)
            if colluding and index == 0:
                # both parties pick their values in advance; XOR lands on the
                # agreed index of the contract's public, digest-sorted free list
                clinic_address = self.config.clinics[index % num_clinics]
                target_index = rng.randrange(len(ledger.contract.free_shots[clinic_address]))
                r2 = r1 ^ target_index
            else:
                target_index = None
                r2 = rng.getrandbits(64)
            generate_nonce(rng)  # the clinic's nonce before vaccsc-9: drawn so each seed keeps its trial
            contrib2 = RandomContribution(value=r2, nonce=generate_nonce(rng))
            plans.append((patient.keypair, r1, contrib2, target_index))
        chunk_size = max(1, self.config.binding_deadline)
        session = len(ledger.contract.sessions)
        chunks, reveals = [], []
        for i, clinic in enumerate(self.clinics[: len(plans)]):
            free = list(ledger.contract.free_shots[clinic.address])
            mine = plans[i::num_clinics]
            for start in range(0, len(mine), chunk_size):
                chunk = mine[start : start + chunk_size]
                chunks.append((clinic, chunk))
                for patient, r1, contrib2, target_index in chunk:
                    # The completing reveal: the patient names the shot the
                    # flip selects from the clinic's public free list.
                    selected = select_index(r1, contrib2.value, len(free))
                    if target_index is not None:
                        self._collusion_evidence(free, target_index, selected)
                    params = {
                        "session": session,
                        "value": contrib2.value,
                        "nonce": contrib2.nonce.hex(),
                        "shot": free.pop(selected).hex(),
                    }
                    reveals.append(self._unsigned(patient, "patient_reveal", params, 0))
                    session += 1
        with self._signed(reveals) as signed:
            for clinic, chunk in chunks:
                signed_reveals = [next(signed) for _ in chunk]
                bindings = [
                    {
                        "patient": tx.sender.hex(),
                        "clinic_value": r1,
                        "patient_commitment": commit_contribution(contrib2).hex(),
                    }
                    for (tx, _), (_, r1, contrib2, _) in zip(signed_reveals, chunk)
                ]
                self._must(clinic, "begin_binding", {"bindings": bindings})
                for tx, verdict in signed_reveals:
                    _accepted(ledger.submit(tx, verdict))

    def _collusion_evidence(self, free: list[bytes], target_index: int, selected: int) -> None:
        self.evidence.append(
            {
                "kind": "collusion",
                "target_index": target_index,
                "selected_index": selected,
                "matched": selected == target_index,
                "content": self.manifest[free[selected]].content.label,
                "stock_vaccine": sum(1 for c in free if self.manifest[c].content is ShotContent.VACCINE),
                "stock_total": len(free),
            }
        )

    # -- epidemic --------------------------------------------------------

    def _run_epidemic(self) -> bool:
        spec = self.spec
        false_sick = self.strategies[Role.PATIENT]
        p_false = false_sick.knob if false_sick.behavior is Behavior.FALSE_SICK else 0.0
        rng, ledger = self.rng, self.ledger
        shots, patient_shot = ledger.contract.shots, ledger.contract.patient_shot
        for epoch in range(spec.disease.epochs):
            reporters: list[_PatientState] = []
            for patient in self.patients:
                shot = patient_shot[patient.keypair.address]
                if shots[shot].got_sick:
                    continue
                if not patient.truly_infected:
                    content = self.manifest[shot].content
                    p = (
                        spec.disease.p_control
                        if content is ShotContent.PLACEBO
                        else spec.disease.p_vaccine
                    )
                    if rng.random() < p:
                        patient.truly_infected = True
                if patient.truly_infected:
                    if not patient.silent:
                        reporters.append(patient)
                elif p_false and rng.random() < p_false:
                    reporters.append(patient)
            reports = [
                self._unsigned(p.keypair, "report_sick", {}, ledger.next_sequence(p.keypair.address)) for p in reporters
            ]
            with self._signed(reports) as signed:
                for tx, verdict in signed:
                    ledger.submit(tx, verdict)
            self.epochs_run = epoch + 1
            if ledger.query("phase") == "reveal_pending":
                return True
        self.incomplete_reason = (
            f"threshold {spec.infected_threshold} not reached after "
            f"{spec.disease.epochs} epochs ({ledger.query('infected_count')} infected)"
        )
        return False

    # -- reveal ------------------------------------------------------------

    def _sick_shots_by_arm(self) -> tuple[list[bytes], list[bytes]]:
        controls, vaccines = [], []
        for shot, record in self.ledger.contract.shots.items():
            if record.got_sick:
                arm = controls if self.manifest[shot].content is ShotContent.PLACEBO else vaccines
                arm.append(shot)
        return sorted(controls), sorted(vaccines)

    def _opening_entry(self, shot: bytes, content_label: str) -> dict:
        return {"commitment": shot.hex(), "nonce": self.manifest[shot].nonce.hex(), "content": content_label}

    def _reveal(self) -> None:
        developer = self.strategies[Role.DEVELOPER]
        controls, vaccines = self._sick_shots_by_arm()
        reveal_set = list(controls)
        if developer.behavior is Behavior.OMIT_CONTROLS and controls:
            k = max(1, round(developer.knob * len(controls)))
            k = min(k, len(controls))
            omitted = set(self.rng.sample(controls, k))
            reveal_set = [c for c in controls if c not in omitted]
            self.evidence.append(
                {"kind": "omission", "true_controls": len(controls), "omitted": k}
            )
        elif developer.behavior is Behavior.FORGE_CONTROLS:
            reveal_set = self._forge_attempts(controls, vaccines)
        openings = [self._opening_entry(shot, "placebo") for shot in reveal_set]
        self._must(self.developer, "reveal_controls", {"openings": openings})

    def _forge_attempts(self, controls: list[bytes], vaccines: list[bytes]) -> list[bytes]:
        """Try to pass vaccine shots off as controls; both ways must fail.

        Returns the reveal set for the honest retry: the true controls
        minus the ones the developer tried to swap out.
        """
        developer = self.strategies[Role.DEVELOPER]
        k = min(developer.knob, len(vaccines), max(len(controls) - 1, 0))
        if k == 0:
            return controls
        kept = controls[:-k]
        forged = vaccines[:k]
        for kind, entries in (
            # true nonce, lying content label: hash check must fail
            ("forged_content", [self._opening_entry(s, "placebo") for s in forged]),
            # honest opening of a vaccine shot: content check must fail
            ("true_vaccine_opening", [self._opening_entry(s, "vaccine") for s in forged]),
        ):
            payload = [self._opening_entry(s, "placebo") for s in kept] + entries
            before = self.ledger.state_digest()
            entry = self._call(self.developer, "reveal_controls", {"openings": payload})
            self.evidence.append(
                {
                    "kind": kind,
                    "forged": k,
                    "code": entry.code,
                    "rejected": not entry.accepted,
                    "state_unchanged": self.ledger.state_digest() == before,
                    "journal_position": len(self.ledger.journal) - 1,
                }
            )
        return kept

    # -- report ------------------------------------------------------------

    def run(self) -> TrialReport:
        self._build()
        self._distribute()
        self._bind_all()
        complete = self._run_epidemic()
        if complete:
            self._reveal()
        ledger = self.ledger
        controls, vaccines = self._sick_shots_by_arm()
        truth_ar0, truth_ar1 = len(controls), len(vaccines)
        truth_eff = efficiency_percent(truth_ar0, truth_ar1) if complete else None
        outcome = ledger.query("outcome")
        ledger_eff = outcome["efficiency"] if outcome else None
        gap = (
            ledger_eff - truth_eff
            if isinstance(ledger_eff, float) and isinstance(truth_eff, float)
            else None
        )
        rejections = Counter(entry.code for entry in ledger.journal if not entry.accepted)
        # A report is false when its patient was never truly infected.
        infected = {p.keypair.address for p in self.patients if p.truly_infected}
        reported = {record.patient for record in ledger.contract.shots.values() if record.got_sick}
        table = None
        if self.keep_table:
            index_of_clinic = {address: i for i, address in enumerate(self.config.clinics)}
            table = []
            for shot, opening in self.manifest.items():
                record = ledger.contract.shots[shot]
                table.append(
                    {
                        "commitment": shot.hex(),
                        "content": opening.content.label,
                        "clinic": index_of_clinic.get(record.clinic),
                        "patient": record.patient.hex() if record.patient else None,
                        "truly_infected": record.patient in infected,
                        "reported_sick": record.got_sick,
                        "false_report": record.got_sick and record.patient not in infected,
                    }
                )
        return TrialReport(
            seed=self.seed,
            label=self.label,
            complete=complete,
            phase=str(ledger.query("phase")),
            epochs_run=self.epochs_run,
            config=json_value(self.config),
            disease=json_value(self.spec.disease),
            strategies=[s.to_dict() for s in self.strategies.values()],
            ledger_summary={
                "infected": ledger.query("infected_count"),
                "outcome": outcome,
                "risk_ratio": ledger.query("risk_ratio"),
                "status": ledger.query("vaccine_status"),
                "accepted": len(ledger.journal) - rejections.total(),
                "rejected": rejections.total(),
                "rejections_by_code": dict(rejections),
                "events": ledger.event_count,
            },
            truth={
                "ar0": truth_ar0,
                "ar1": truth_ar1,
                "efficiency": truth_eff,
                **self.arm_sizes,
                "genuine_infections": len(infected),
                "false_reports": len(reported - infected),
            },
            divergence={"efficiency_gap": gap},
            evidence=self.evidence,
            incomplete_reason=self.incomplete_reason,
            assignment_table=table,
            ledger=ledger,
        )


def run_scenario(
    spec: ScenarioSpec,
    seed: int,
    strategies=None,
    label: str = "default",
    keep_table: bool = True,
    world: dict | None = None,
) -> TrialReport:
    """One full deterministic trial under the given seed and strategy set.

    ``world`` is the map of keypairs that ``run_grid`` shares among the cells
    of one seed (see ``KeyPair.generate``), or None for keypairs of this run alone.
    """
    chosen = spec.strategies if strategies is None else _roles_once(tuple(strategies), "strategies")
    return _Runner(spec, chosen, seed, label, keep_table, world).run()


def run_grid(spec: ScenarioSpec) -> dict[str, list[TrialReport]]:
    """Every grid cell across every seed, by label and then seed; falls back to the base strategies.

    The cells of one seed share one world: they draw the same keys, and sign
    and verify the same transactions until their strategies part. So each seed
    gets a fresh map of its keypairs, which its cells share and which is
    dropped once those cells are run. Each keypair remembers the result of each
    Ed25519 job (public key, signature and verdict) it has done or taken from a
    cell's helper, so a later cell finds the job there, in its own process,
    before any helper starts. A world's keys are derived on first use, as a
    lone run's are. Every call is still made, and each still has its signature
    checked once, by the verdict of an Ed25519 verify that this seed's cells
    made; only the repeated Ed25519 work is skipped.
    """
    cells = spec.grid or (GridCell(label="default", strategies=spec.strategies),)
    grid: dict[str, list[TrialReport]] = {cell.label: [] for cell in cells}
    for seed in spec.seeds:
        world: dict[bytes, KeyPair] = {}
        for cell in cells:
            grid[cell.label].append(run_scenario(spec, seed, cell.strategies, cell.label, False, world))
    return grid
