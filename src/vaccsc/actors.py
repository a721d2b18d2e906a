"""Scenario harness: honest and adversarial actors driving full trials.

The runner plays every role itself (developer, clinics, patients) against
a fresh ledger, under a single seeded generator, so a scenario is fully
reproducible from (scenario, seed). Ground truth about shot contents
lives only in the runner's memory and in the report it returns; the
ledger never sees anything but commitments until the reveal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from random import Random

from .commitment import Opening, ShotContent, commit, generate_nonce
from .coinflip import RandomContribution, commit_contribution, select_index
from .contract import TrialConfig, efficiency_percent, json_value, make_genesis
from .keys import KeyPair
from .ledger import ACCEPTED, Ledger, Receipt, make_transaction


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


_ROLE_BEHAVIORS = {
    Role.DEVELOPER: {
        Behavior.HONEST,
        Behavior.OMIT_CONTROLS,
        Behavior.FORGE_CONTROLS,
        Behavior.BIASED_DISTRIBUTION,
    },
    Role.CLINIC: {Behavior.HONEST, Behavior.COLLUDE_WITH_PATIENT},
    Role.PATIENT: {Behavior.HONEST, Behavior.FALSE_SICK, Behavior.NEVER_REPORT},
}


@dataclass(frozen=True)
class Strategy:
    """One role's behavior for a run, with its tuning knob when it has one.

    fraction: share of true sick controls a cheating developer withholds.
    count: forged entries per forged reveal attempt.
    probability: per-epoch false-report chance, or per-patient silence chance.
    """

    role: Role
    behavior: Behavior = Behavior.HONEST
    fraction: float = 0.0
    count: int = 0
    probability: float = 0.0

    def __post_init__(self) -> None:
        if self.behavior not in _ROLE_BEHAVIORS[self.role]:
            raise ValueError(f"{self.role.value} cannot use behavior {self.behavior.value}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.behavior is Behavior.OMIT_CONTROLS and self.fraction == 0.0:
            raise ValueError("omit_controls needs a positive fraction")
        if self.behavior is Behavior.FORGE_CONTROLS and self.count == 0:
            raise ValueError("forge_controls needs a positive count")

    def to_dict(self) -> dict:
        d: dict = {"role": self.role.value, "behavior": self.behavior.value}
        if self.behavior is Behavior.OMIT_CONTROLS:
            d["fraction"] = self.fraction
        if self.behavior is Behavior.FORGE_CONTROLS:
            d["count"] = self.count
        if self.behavior in (Behavior.FALSE_SICK, Behavior.NEVER_REPORT):
            d["probability"] = self.probability
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "Strategy":
        return cls(
            role=Role(raw["role"]),
            behavior=Behavior(raw.get("behavior", "honest")),
            fraction=float(raw.get("fraction", 0.0)),
            count=int(raw.get("count", 0)),
            probability=float(raw.get("probability", 0.0)),
        )


HONEST_STRATEGIES = (
    Strategy(Role.DEVELOPER),
    Strategy(Role.CLINIC),
    Strategy(Role.PATIENT),
)


def strategy_map(strategies) -> dict[Role, Strategy]:
    out = {role: Strategy(role) for role in Role}
    for strategy in strategies:
        out[strategy.role] = strategy
    return out


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

    @classmethod
    def from_dict(cls, raw: dict) -> "DiseaseModel":
        return cls(
            p_control=float(raw["p_control"]),
            p_vaccine=float(raw["p_vaccine"]),
            epochs=int(raw.get("epochs", 1000)),
        )


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
    binding_deadline: int = 100
    strategies: tuple[Strategy, ...] = HONEST_STRATEGIES
    grid: tuple[GridCell, ...] = ()

    def __post_init__(self) -> None:
        if self.num_clinics < 1:
            raise ValueError("need at least one clinic")
        if not 0.0 <= self.vaccine_fraction <= 1.0:
            raise ValueError("vaccine_fraction must be in [0, 1]")
        if not self.seeds:
            raise ValueError("at least one seed is required")


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    config = raw["config"]
    strategies = tuple(Strategy.from_dict(s) for s in raw.get("strategies", []))
    if not strategies:
        strategies = HONEST_STRATEGIES
    grid = tuple(
        GridCell(
            label=str(cell["label"]),
            strategies=tuple(Strategy.from_dict(s) for s in cell["strategies"]),
        )
        for cell in raw.get("grid", [])
    )
    return ScenarioSpec(
        name=str(raw.get("name", "scenario")),
        num_participants=int(config["num_participants"]),
        infected_threshold=int(config["infected_threshold"]),
        target_efficiency=float(config["target_efficiency"]),
        num_clinics=int(config["num_clinics"]),
        binding_deadline=int(config.get("binding_deadline", 100)),
        disease=DiseaseModel.from_dict(raw["disease"]),
        vaccine_fraction=float(raw.get("vaccine_fraction", 0.5)),
        strategies=strategies,
        grid=grid,
        seeds=tuple(int(s) for s in raw["seeds"]),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("scenario file must contain a JSON object")
    return scenario_from_dict(raw)


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
        return {
            "seed": self.seed,
            "label": self.label,
            "complete": self.complete,
            "phase": self.phase,
            "epochs_run": self.epochs_run,
            "config": self.config,
            "disease": self.disease,
            "strategies": self.strategies,
            "ledger": self.ledger_summary,
            "truth": self.truth,
            "divergence": self.divergence,
            "evidence": self.evidence,
            "incomplete_reason": self.incomplete_reason,
            "assignment_table": self.assignment_table,
        }


class _Actor:
    """A keyholder submitting transactions with its next sequence number."""

    __slots__ = ("keypair", "ledger")

    def __init__(self, keypair: KeyPair, ledger: Ledger):
        self.keypair = keypair
        self.ledger = ledger

    def call(self, method: str, params: dict) -> Receipt:
        tx = make_transaction(
            self.keypair, method, params, self.ledger.next_sequence(self.keypair.address)
        )
        return self.ledger.submit(tx)

    def must(self, method: str, params: dict) -> Receipt:
        """``call`` for a step the run cannot go on without: a rejection raises."""
        receipt = self.call(method, params)
        if not receipt.accepted:
            raise RuntimeError(f"{method} failed: {receipt.code}")
        return receipt


@dataclass
class _PatientState:
    index: int
    actor: _Actor
    address_hex: str
    shot: bytes | None = None
    silent: bool = False
    truly_infected: bool = False
    reported: bool = False
    false_report: bool = False


class _Runner:
    def __init__(self, spec: ScenarioSpec, strategies, seed: int, label: str, keep_table: bool):
        self.spec = spec
        self.strategies = strategy_map(strategies)
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
        dev_kp = KeyPair.generate(rng)
        clinic_kps = [KeyPair.generate(rng) for _ in range(spec.num_clinics)]
        patient_kps = [KeyPair.generate(rng) for _ in range(spec.num_participants)]
        self.config = TrialConfig(
            num_participants=spec.num_participants,
            infected_threshold=spec.infected_threshold,
            target_efficiency=spec.target_efficiency,
            clinics=tuple(kp.address for kp in clinic_kps),
            developer=dev_kp.address,
            binding_deadline=spec.binding_deadline,
        )
        n_vaccine = round(spec.num_participants * spec.vaccine_fraction)
        contents = [ShotContent.VACCINE] * n_vaccine + [ShotContent.PLACEBO] * (
            spec.num_participants - n_vaccine
        )
        rng.shuffle(contents)
        self.manifest: dict[bytes, Opening] = {}
        for content in contents:
            opening = Opening(content=content, nonce=generate_nonce(rng))
            self.manifest[commit(opening)] = opening
        if len(self.manifest) != spec.num_participants:
            raise RuntimeError("commitment collision in manifest")
        self.ledger = Ledger(make_genesis(self.config, self.manifest))
        self.developer = _Actor(dev_kp, self.ledger)
        self.clinics = [_Actor(kp, self.ledger) for kp in clinic_kps]
        self.patients = [
            _PatientState(index=i, actor=_Actor(kp, self.ledger), address_hex=kp.address.hex())
            for i, kp in enumerate(patient_kps)
        ]
        patient_strategy = self.strategies[Role.PATIENT]
        if patient_strategy.behavior is Behavior.NEVER_REPORT:
            for p in self.patients:
                p.silent = rng.random() < patient_strategy.probability

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
            self.developer.must("assign_shot_to_clinic", {"clinic": clinic.hex(), "shots": batch})

    def _bind_all(self) -> None:
        """Bind each patient at clinic ``index % C``, which mirrors how the
        shots were dealt.

        Each clinic opens all its sessions in one call; then the sessions
        complete one at a time, in patient order.
        """
        rng = self.rng
        colluding = self.strategies[Role.CLINIC].behavior is Behavior.COLLUDE_WITH_PATIENT
        num_clinics = len(self.clinics)
        plans = []
        for patient in self.patients:
            clinic_address = self.config.clinics[patient.index % num_clinics]
            r1 = rng.getrandbits(64)
            if colluding and patient.index == 0:
                # both parties pick values before committing; XOR lands on the
                # agreed index of the contract's public, digest-sorted free list
                free_sorted = list(self.ledger.contract.free_shots[clinic_address])
                target_index = rng.randrange(len(free_sorted))
                r2 = r1 ^ target_index
            else:
                free_sorted = target_index = None
                r2 = rng.getrandbits(64)
            contrib1 = RandomContribution(value=r1, nonce=generate_nonce(rng))
            contrib2 = RandomContribution(value=r2, nonce=generate_nonce(rng))
            plans.append((patient, contrib1, contrib2, free_sorted, target_index))
        session_of: dict[str, int] = {}
        for i, clinic in enumerate(self.clinics[: len(plans)]):
            bindings = [
                {"patient": patient.address_hex, "commitment": commit_contribution(contrib1).hex()}
                for patient, contrib1, _, _, _ in plans[i::num_clinics]
            ]
            receipt = clinic.must("begin_binding", {"bindings": bindings})
            for event in receipt.events:
                session_of[event.payload["patient"]] = event.payload["session"]
        for patient, contrib1, contrib2, free_sorted, target_index in plans:
            clinic = patient.index % num_clinics
            session = session_of[patient.address_hex]
            patient.actor.must(
                "patient_commit", {"session": session, "commitment": commit_contribution(contrib2).hex()}
            )
            self.clinics[clinic].must(
                "clinic_reveal", {"session": session, "value": contrib1.value, "nonce": contrib1.nonce.hex()}
            )
            # the patient names the shot the flip selects from the public free list
            free = self.ledger.contract.free_shots[self.config.clinics[clinic]]
            shot = free[select_index(contrib1.value ^ contrib2.value, len(free))]
            patient.actor.must(
                "patient_reveal",
                {"session": session, "value": contrib2.value, "nonce": contrib2.nonce.hex(), "shot": shot.hex()},
            )
            patient.shot = shot
            if free_sorted is not None:
                self.evidence.append(
                    {
                        "kind": "collusion",
                        "target_index": target_index,
                        "selected_index": free_sorted.index(shot),
                        "matched": shot == free_sorted[target_index],
                        "content": self.manifest[shot].content.label,
                        "stock_vaccine": sum(
                            1 for c in free_sorted if self.manifest[c].content is ShotContent.VACCINE
                        ),
                        "stock_total": len(free_sorted),
                    }
                )

    # -- epidemic --------------------------------------------------------

    def _run_epidemic(self) -> bool:
        spec = self.spec
        false_sick = self.strategies[Role.PATIENT]
        p_false = false_sick.probability if false_sick.behavior is Behavior.FALSE_SICK else 0.0
        rng = self.rng
        for epoch in range(spec.disease.epochs):
            reporters: list[_PatientState] = []
            for patient in self.patients:
                if patient.reported:
                    continue
                if not patient.truly_infected:
                    content = self.manifest[patient.shot].content
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
                    patient.false_report = True
                    reporters.append(patient)
            for patient in reporters:
                receipt = patient.actor.call("report_sick", {})
                if receipt.accepted:
                    patient.reported = True
                else:
                    patient.false_report = False
            self.epochs_run = epoch + 1
            if self.ledger.query("phase") == "reveal_pending":
                return True
        self.incomplete_reason = (
            f"threshold {spec.infected_threshold} not reached after "
            f"{spec.disease.epochs} epochs ({self.ledger.query('infected_count')} infected)"
        )
        return False

    # -- reveal ------------------------------------------------------------

    def _sick_shots_by_arm(self) -> tuple[list[bytes], list[bytes]]:
        controls, vaccines = [], []
        for patient in self.patients:
            if patient.reported:
                shot = patient.shot
                if self.manifest[shot].content is ShotContent.PLACEBO:
                    controls.append(shot)
                else:
                    vaccines.append(shot)
        return sorted(controls), sorted(vaccines)

    def _opening_entry(self, shot: bytes, content_label: str, nonce: bytes | None = None) -> dict:
        return {
            "commitment": shot.hex(),
            "nonce": (nonce if nonce is not None else self.manifest[shot].nonce).hex(),
            "content": content_label,
        }

    def _reveal(self) -> None:
        developer = self.strategies[Role.DEVELOPER]
        controls, vaccines = self._sick_shots_by_arm()
        reveal_set = list(controls)
        if developer.behavior is Behavior.OMIT_CONTROLS and controls:
            k = max(1, round(developer.fraction * len(controls)))
            k = min(k, len(controls))
            omitted = set(self.rng.sample(controls, k))
            reveal_set = [c for c in controls if c not in omitted]
            self.evidence.append(
                {"kind": "omission", "true_controls": len(controls), "omitted": k}
            )
        elif developer.behavior is Behavior.FORGE_CONTROLS:
            reveal_set = self._forge_attempts(controls, vaccines)
        openings = [self._opening_entry(shot, "placebo") for shot in reveal_set]
        self.developer.must("reveal_controls", {"openings": openings})

    def _forge_attempts(self, controls: list[bytes], vaccines: list[bytes]) -> list[bytes]:
        """Try to pass vaccine shots off as controls; both ways must fail.

        Returns the reveal set for the honest retry: the true controls
        minus the ones the developer tried to swap out.
        """
        developer = self.strategies[Role.DEVELOPER]
        k = min(developer.count, len(vaccines), max(len(controls) - 1, 0))
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
            receipt = self.developer.call("reveal_controls", {"openings": payload})
            self.evidence.append(
                {
                    "kind": kind,
                    "forged": k,
                    "code": receipt.code,
                    "rejected": not receipt.accepted,
                    "state_unchanged": self.ledger.state_digest() == before,
                    "journal_position": receipt.position,
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
        rejections: dict[str, int] = {}
        accepted = 0
        for entry in ledger.journal:
            if entry.status == ACCEPTED:
                accepted += 1
            else:
                rejections[entry.code] = rejections.get(entry.code, 0) + 1
        placebo_shots = sum(
            1 for o in self.manifest.values() if o.content is ShotContent.PLACEBO
        )
        table = None
        if self.keep_table:
            index_of_clinic = {address: i for i, address in enumerate(self.config.clinics)}
            patient_by_shot = {p.shot: p for p in self.patients if p.shot is not None}
            table = []
            for shot, opening in self.manifest.items():
                patient = patient_by_shot.get(shot)
                table.append(
                    {
                        "commitment": shot.hex(),
                        "content": opening.content.label,
                        "clinic": index_of_clinic.get(ledger.contract.shots[shot].clinic),
                        "patient": patient.address_hex if patient else None,
                        "truly_infected": patient.truly_infected if patient else False,
                        "reported_sick": patient.reported if patient else False,
                        "false_report": patient.false_report if patient else False,
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
                "accepted": accepted,
                "rejected": len(ledger.journal) - accepted,
                "rejections_by_code": rejections,
                "events": len(ledger.events),
            },
            truth={
                "ar0": truth_ar0,
                "ar1": truth_ar1,
                "efficiency": truth_eff,
                "vaccine_shots": len(self.manifest) - placebo_shots,
                "placebo_shots": placebo_shots,
                "genuine_infections": sum(1 for p in self.patients if p.truly_infected),
                "false_reports": sum(1 for p in self.patients if p.false_report),
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
) -> TrialReport:
    """One full deterministic trial under the given seed and strategy set."""
    chosen = spec.strategies if strategies is None else tuple(strategies)
    return _Runner(spec, chosen, seed, label, keep_table).run()


def run_many(spec: ScenarioSpec, strategies=None, label: str = "default", keep_tables: bool = False):
    """All of the scenario's seeds in order; reports without bulky tables by default."""
    return [
        run_scenario(spec, seed, strategies=strategies, label=label, keep_table=keep_tables)
        for seed in spec.seeds
    ]


def run_grid(spec: ScenarioSpec, keep_tables: bool = False) -> dict[str, list[TrialReport]]:
    """Every grid cell across every seed; falls back to the base strategies."""
    cells = spec.grid or (GridCell(label="default", strategies=spec.strategies),)
    return {
        cell.label: run_many(spec, strategies=cell.strategies, label=cell.label, keep_tables=keep_tables)
        for cell in cells
    }
