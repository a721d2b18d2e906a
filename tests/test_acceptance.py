"""End-to-end acceptance checks. Each test prints one pass/fail line.

The heavy ones (200-seed recovery, 10k-probe fuzz, 1000 interleavings)
are deterministic: fixed seeds, no wall-clock dependence in any assertion.
"""

import json
from importlib import resources
from random import Random
from statistics import fmean

import pytest
from scipy.stats import chi2

from vaccsc import cli
from vaccsc.actors import (
    Behavior,
    Role,
    Strategy,
    run_scenario,
    scenario_from_dict,
)
from vaccsc.coinflip import RandomContribution, commit_contribution, select_index
from vaccsc.commitment import Opening, ShotContent, commit, generate_nonce, verify_raw_opening
from vaccsc.contract import _CONTENT, efficiency_percent, risk_ratio_percent
from vaccsc.ledger import ACCEPTED
from vaccsc.logio import audit_log, read_log, write_log


def load_spec(name: str, **overrides):
    path = resources.files("vaccsc") / "data" / "scenarios" / f"{name}.json"
    raw = json.loads(path.read_text())
    raw.update(overrides)
    return scenario_from_dict(raw)


def test_criterion_01_worked_efficiency_example(world_cls, acceptance):
    direct = efficiency_percent(120, 44)
    w = world_cls(num_shots=400, num_clinics=4, threshold=164, target_bp=5000, seed=7)
    w.assign_all()
    w.bind_all()
    w.sicken_exact(120, 44)
    w.reveal_honest()
    outcome = w.ledger.query("outcome")
    view = outcome["efficiency"]
    ratio = w.ledger.query("risk_ratio")
    ok = (
        abs(view - 63.33) <= 0.01
        and abs(direct - 63.33) <= 0.01
        and abs(ratio - 36.67) <= 0.01
        and outcome["ar0"] == 120
        and outcome["ar1"] == 44
        and outcome["approved"] is True
    )
    acceptance(
        1,
        "the outcome view's efficiency is 63.33 +/- 0.01 for 120 control / 44 vaccine infections",
        ok,
        f"view {view:.4f}%, direct {direct:.4f}%, risk ratio {ratio:.4f}%",
    )


def test_criterion_02_commitment_conformance(vectors, acceptance, timer):
    vector_failures = 0
    for vec in vectors["commitment_vectors"]:
        opening = Opening(
            content=_CONTENT(vec["content"], "content"), nonce=bytes.fromhex(vec["nonce"])
        )
        digest = bytes.fromhex(vec["commitment"])
        if commit(opening) != digest or not verify_raw_opening(
            digest, opening.nonce, opening.content.value
        ):
            vector_failures += 1

    rng = Random(20260815)
    false_accepts = 0
    missed_true = 0
    for _ in range(10_000):
        content = ShotContent.VACCINE if rng.getrandbits(1) else ShotContent.PLACEBO
        nonce = generate_nonce(rng)
        digest = commit(Opening(content=content, nonce=nonce))
        if not verify_raw_opening(digest, nonce, content.value):
            missed_true += 1
        other = ShotContent.PLACEBO if content is ShotContent.VACCINE else ShotContent.VACCINE
        if verify_raw_opening(digest, nonce, other.value):
            false_accepts += 1
        bit = rng.randrange(256)
        mutated = bytearray(nonce)
        mutated[bit // 8] ^= 1 << (bit % 8)
        if verify_raw_opening(digest, bytes(mutated), content.value):
            false_accepts += 1

    ok = vector_failures == 0 and false_accepts == 0 and missed_true == 0
    acceptance(
        2,
        "all golden commitment vectors verify; 10,000 randomized bindings, zero false accepts",
        ok,
        f"{len(vectors['commitment_vectors'])} vectors, flipped-content and flipped-nonce "
        f"always rejected, {timer():.1f}s",
    )


def test_criterion_03_coinflip_fairness(acceptance, timer):
    shot_count = 7
    draws_per_adversary = 35_000
    critical = float(chi2.ppf(0.99, shot_count - 1))
    rng = Random(33)

    def flip_once(adversary_value) -> int:
        honest = RandomContribution(value=rng.getrandbits(64), nonce=generate_nonce(rng))
        # the adversarial clinic plays its value in the clear with the honest commitment in hand
        adv_value = adversary_value(commit_contribution(honest))
        return select_index(adv_value, honest.value, shot_count)

    adversaries = {
        "constant": lambda digest: 0x0123456789ABCDEF,
        "adaptive": lambda digest: int.from_bytes(digest[:8], "big"),
    }
    stats = {}
    for name, strategy in adversaries.items():
        counts = [0] * shot_count
        for _ in range(draws_per_adversary):
            counts[flip_once(strategy)] += 1
        expected = draws_per_adversary / shot_count
        stats[name] = sum((c - expected) ** 2 / expected for c in counts)

    ok = all(stat < critical for stat in stats.values())
    acceptance(
        3,
        "selected-index uniformity beats chi-square at 99% against constant and "
        "adaptive counterparties over 70,000 draws",
        ok,
        f"constant {stats['constant']:.2f}, adaptive {stats['adaptive']:.2f} "
        f"< {critical:.4f} (df=6), {timer():.1f}s",
    )


@pytest.mark.slow
def test_criterion_04_honest_recovery_200_seeds(acceptance, timer):
    spec = load_spec("honest_pfizer_like")
    model_eff = 100.0 * (spec.disease.p_control - spec.disease.p_vaccine) / spec.disease.p_control
    exact = 0
    efficiencies = []
    for seed in spec.seeds:
        report = run_scenario(spec, seed, keep_table=False)
        outcome = report.ledger_summary["outcome"]
        if (
            report.complete
            and outcome["ar0"] == report.truth["ar0"]
            and outcome["ar1"] == report.truth["ar1"]
            and report.divergence["efficiency_gap"] == 0.0
            and outcome["ar0"] + outcome["ar1"] == spec.infected_threshold
        ):
            exact += 1
        efficiencies.append(outcome["efficiency"])
    mean_eff = fmean(efficiencies)
    ok = exact == len(spec.seeds) and abs(mean_eff - model_eff) <= 8.0
    acceptance(
        4,
        "ledger outcome equals ground truth exactly on all 200 seeds at N=2000, "
        "mean efficiency within 8pp of the 70% disease-model value",
        ok,
        f"{exact}/{len(spec.seeds)} exact, mean {mean_eff:.2f}%, {timer():.0f}s elapsed",
    )


def test_criterion_05a_forged_reveals_rejected(acceptance):
    spec = load_spec("honest_small")
    checked = 0
    ok = True
    for seed in (13, 14, 15):
        report = run_scenario(
            spec,
            seed,
            strategies=(Strategy(Role.DEVELOPER, Behavior.FORGE_CONTROLS, knob=1),),
            keep_table=False,
        )
        kinds = {e["kind"]: e for e in report.evidence}
        for kind, expected_code in (
            ("forged_content", "BadOpening"),
            ("true_vaccine_opening", "NotPlacebo"),
        ):
            entry = kinds.get(kind)
            journal_entry = report.ledger.journal[entry["journal_position"]] if entry else None
            if (
                entry is None
                or not entry["rejected"]
                or not entry["state_unchanged"]
                or entry["code"] != expected_code
                or journal_entry.status == ACCEPTED
                or journal_entry.code != expected_code
            ):
                ok = False
            checked += 1
        if not report.complete:
            ok = False
    acceptance(
        5,
        "(a) every forged control reveal is rejected atomically with journal evidence",
        ok,
        f"{checked} forged attempts across 3 seeds, all rejected, state digests unchanged",
    )


def test_criterion_05b_omission_always_detected(acceptance, timer):
    spec = load_spec("honest_small")
    seeds = range(201, 221)
    runs = 0
    below = 0
    for fraction in (0.1, 0.25, 0.5):
        for seed in seeds:
            report = run_scenario(
                spec,
                seed,
                strategies=(
                    Strategy(Role.DEVELOPER, Behavior.OMIT_CONTROLS, knob=fraction),
                ),
                keep_table=False,
            )
            runs += 1
            reported = report.ledger_summary["outcome"]["efficiency"]
            if report.complete and reported < report.truth["efficiency"]:
                below += 1
    ok = below == runs
    acceptance(
        5,
        "(b) withholding sick controls lowers reported efficiency below truth in "
        "100% of runs for fractions 0.1/0.25/0.5",
        ok,
        f"{below}/{runs} runs strictly below truthful efficiency, {timer():.0f}s",
    )


def test_criterion_05c_collusion_steers_index_not_arm(acceptance, timer, collusion_record):
    matched = 0
    vaccine = 0
    seeds = 1000
    for seed in range(seeds):
        record = collusion_record(seed)
        matched += record["matched"]
        vaccine += record["content"] == "vaccine"
        stock_ratio = record["stock_vaccine"] / record["stock_total"]
    rate = vaccine / seeds
    ok = matched == seeds and abs(rate - stock_ratio) <= 0.05
    acceptance(
        5,
        "(c) colluding clinic and patient always hit their index yet draw vaccine "
        "at the stock ratio within 5pp over 1,000 seeds",
        ok,
        f"{matched}/{seeds} targeted, vaccine rate {rate:.3f} vs stock {stock_ratio:.2f}, "
        f"{timer():.0f}s",
    )


def test_criterion_06_audit_determinism(tmp_path, acceptance):
    assert (
        cli.main(
            ["simulate", "--scenario", "honest_small", "--seed", "1", "--out", str(tmp_path)]
        )
        == 0
    )
    log_path = tmp_path / "honest_small-s1.vscl"
    clean_exit = cli.main(["audit", str(log_path)])

    spec = load_spec("honest_small")
    original = run_scenario(spec, 1, keep_table=False)
    _, replayed = audit_log(read_log(log_path))
    byte_exact = (
        replayed.contract.canonical_state() == original.ledger.contract.canonical_state()
    )

    tampered = tmp_path / "tampered.vscl"
    data = bytearray(log_path.read_bytes())
    data[len(data) // 3] ^= 0x40
    tampered.write_bytes(bytes(data))
    tamper_exit = cli.main(["audit", str(tampered)])

    log = read_log(log_path)
    records = list(log.records)
    drop = next(i for i, r in enumerate(records) if r.status == ACCEPTED and i > 10)
    del records[drop]
    deleted = tmp_path / "deleted.vscl"
    write_log(
        deleted, log.genesis, records, log.trailer.state_digest, log.trailer.events_digest
    )
    deletion_exit = cli.main(["audit", str(deleted)])

    ok = clean_exit == 0 and byte_exact and tamper_exit == 3 and deletion_exit == 3
    acceptance(
        6,
        "audit replays a clean log byte-exactly (exit 0); tamper and record "
        "deletion exit 3",
        ok,
        f"clean exit {clean_exit}, byte-exact {byte_exact}, tamper exit {tamper_exit}, "
        f"deletion exit {deletion_exit}",
    )


PERMISSION_MATRIX = {
    "assign_shot_to_clinic": ({"developer"}, {"deployed", "distributing"}),
    "begin_binding": ({"clinic"}, {"active"}),
    "patient_reveal": ({"patient"}, {"active"}),
    "report_sick": ({"patient"}, {"active"}),
    "reveal_controls": ({"developer"}, {"reveal_pending"}),
    "abort_binding": ({"clinic", "patient"}, {"active"}),
}


class _FuzzDriver:
    """Issues the next legitimate protocol step so the fuzz run walks every phase."""

    def __init__(self, world, rng):
        self.w = world
        self.rng = rng
        self.unassigned = world.shot_list()
        rng.shuffle(self.unassigned)
        self.stock = [0] * len(world.clinics)
        self.inflight = None  # (session, patient_idx, clinic_idx, r1, c2)
        self.bound: dict[int, bytes] = {}
        self.sick: set[int] = set()

    def next_step(self, phase):
        w, rng = self.w, self.rng
        if phase in ("deployed", "distributing") and self.unassigned:
            shot = self.unassigned[-1]
            clinic_idx = rng.randrange(len(w.clinics))
            return (
                "developer",
                w.developer,
                "assign_shot_to_clinic",
                {"shots": [shot.hex()], "clinic": w.config.clinics[clinic_idx].hex()},
                ("assigned", shot, clinic_idx),
            )
        if phase == "active":
            if self.inflight is not None:
                return self._advance()
            unbound = [
                i
                for i in range(len(w.patients))
                if i not in self.bound and any(self.stock)
            ]
            if unbound and any(self.stock):
                patient_idx = rng.choice(unbound)
                clinic_idx = rng.choice([i for i, s in enumerate(self.stock) if s > 0])
                r1 = rng.getrandbits(64)
                c2 = RandomContribution(value=rng.getrandbits(64), nonce=generate_nonce(rng))
                return (
                    "clinic",
                    w.clinics[clinic_idx],
                    "begin_binding",
                    {"bindings": [w.binding(patient_idx, r1, c2)]},
                    ("begun", patient_idx, clinic_idx, r1, c2),
                )
            candidates = sorted(self.bound.keys() - self.sick)
            if candidates and len(self.sick) < w.config.infected_threshold:
                patient_idx = rng.choice(candidates)
                return (
                    "patient",
                    w.patients[patient_idx],
                    "report_sick",
                    {},
                    ("sickened", patient_idx),
                )
            return None
        if phase == "reveal_pending":
            openings = [
                w.opening_entry(self.bound[i])
                for i in sorted(self.sick)
                if w.openings[self.bound[i]].content is ShotContent.PLACEBO
            ]
            return ("developer", w.developer, "reveal_controls", {"openings": openings}, None)
        return None

    def _advance(self):
        w = self.w
        session, patient_idx, clinic_idx, r1, c2 = self.inflight
        shot = w.selected_shot(clinic_idx, r1, c2)
        return (
            "patient",
            w.patients[patient_idx],
            "patient_reveal",
            {"session": session, "value": c2.value, "nonce": c2.nonce.hex(), "shot": shot.hex()},
            ("completed", patient_idx, clinic_idx, shot),
        )

    def apply(self, note, events):
        if note is None:
            return
        kind = note[0]
        if kind == "assigned":
            self.unassigned.pop()
            self.stock[note[2]] += 1
        elif kind == "begun":
            self.inflight = (events[0]["payload"]["session"], *note[1:])
        elif kind == "completed":
            patient_idx, clinic_idx, shot = note[1], note[2], note[3]
            self.bound[patient_idx] = shot
            self.stock[clinic_idx] -= 1
            self.inflight = None
        elif kind == "sickened":
            self.sick.add(note[1])


def test_criterion_07_access_control_fuzz(world_cls, acceptance, timer):
    w = world_cls(
        num_shots=12, num_clinics=2, threshold=3, extra_patients=2, binding_deadline=10**6
    )
    rng = Random(777)
    driver = _FuzzDriver(w, rng)
    callers = [("developer", w.developer), ("outsider", w.outsider)]
    callers += [("clinic", kp) for kp in w.clinics]
    callers += [("patient", kp) for kp in w.patients[:6]]
    real_shots = [s.hex() for s in w.shot_list()]

    def random_probe():
        method = rng.choice(list(PERMISSION_MATRIX) + ["mystery_method"])
        kind, keypair = rng.choice(callers)
        if method == "assign_shot_to_clinic":
            params = {
                "shots": [rng.choice(real_shots + ["cc" * 32])],
                "clinic": rng.choice([w.config.clinics[0].hex(), w.outsider.address.hex()]),
            }
        elif method == "begin_binding":
            bound_hexes = [
                w.patients[i].address.hex() for i in driver.bound
            ] or [w.outsider.address.hex()]
            params = {
                "bindings": [
                    {
                        "patient": rng.choice(bound_hexes + [w.outsider.address.hex()]),
                        "clinic_value": rng.getrandbits(64),
                        "patient_commitment": rng.getrandbits(256).to_bytes(32, "big").hex(),
                    }
                ]
            }
        elif method == "patient_reveal":
            # exactly the method's own keys, so the probe reaches the session checks
            params = {
                "session": rng.randint(500, 600), "value": rng.getrandbits(64), "nonce": "cd" * 32, "shot": "dd" * 32
            }
        elif method == "abort_binding":
            params = {"session": rng.randint(500, 600)}
        elif method == "reveal_controls":
            params = {
                "openings": rng.choice(
                    [
                        [],
                        [{"commitment": rng.choice(real_shots), "nonce": "ee" * 32, "content": "placebo"}],
                        "garbage",
                    ]
                )
            }
        else:
            params = {}
        return kind, keypair, method, params, None

    probes = 0
    violations = []
    phases_seen = set()
    while probes < 10_000:
        phase = w.ledger.query("phase")
        phases_seen.add(phase)
        step = driver.next_step(phase) if rng.random() < 0.4 else None
        kind, keypair, method, params, note = step if step else random_probe()
        before = w.ledger.state_digest()
        entry = w.call(keypair, method, params)
        probes += 1
        if entry.accepted:
            roles, phases = PERMISSION_MATRIX.get(method, (set(), set()))
            if kind not in roles or phase not in phases:
                violations.append((kind, method, phase, entry.code))
            if step:
                driver.apply(note, w.events)
        else:
            if w.ledger.state_digest() != before:
                violations.append((kind, method, phase, "rejection mutated state"))
    phases_seen.add(w.ledger.query("phase"))

    ok = not violations and phases_seen >= {
        "deployed",
        "distributing",
        "active",
        "reveal_pending",
        "finalized",
    }
    acceptance(
        7,
        "10,000 random role/operation/phase probes produce zero acceptances "
        "outside the permission matrix",
        ok,
        f"{probes} probes, {len(violations)} violations, phases covered: "
        f"{sorted(phases_seen)}, {timer():.0f}s",
    )


def test_criterion_08_conservation_and_write_once(world_cls, acceptance, timer):
    trials = 1000
    failures = []
    for trial in range(trials):
        rng = Random(880_000 + trial)
        num_shots = rng.choice((6, 8, 10))
        threshold = rng.randint(2, 4)
        num_clinics = rng.randint(1, 3)
        w = world_cls(
            num_shots=num_shots,
            num_clinics=num_clinics,
            threshold=threshold,
            seed=trial,
            extra_patients=2,
        )
        # random assignment interleaving
        shots = w.shot_list()
        rng.shuffle(shots)
        stock = [0] * num_clinics
        for shot in shots:
            clinic_idx = rng.randrange(num_clinics)
            w.ok(
                w.developer,
                "assign_shot_to_clinic",
                {"shots": [shot.hex()], "clinic": w.config.clinics[clinic_idx].hex()},
            )
            stock[clinic_idx] += 1

        inflight = {}
        bound = {}
        owner = {}
        sick = []
        write_once_ok = True
        active = True
        while active:
            actions = []
            unbound = [
                i
                for i in range(num_shots + 2)
                if i not in bound and i not in {s["patient"] for s in inflight.values()}
            ]
            startable = [c for c in range(num_clinics) if stock[c] > 0]
            if unbound and startable:
                actions.append("start")
            actions.extend(("advance", sid) for sid in inflight)
            i_can_sicken = sorted(bound.keys() - set(sick))
            if i_can_sicken and len(sick) < threshold:
                actions.append("sicken")
            if not actions:
                break
            choice = rng.choice(actions)
            if choice == "start":
                patient_idx = rng.choice(unbound)
                clinic_idx = rng.choice(startable)
                r1 = rng.getrandbits(64)
                c2 = RandomContribution(value=rng.getrandbits(64), nonce=generate_nonce(rng))
                events = w.ok(
                    w.clinics[clinic_idx],
                    "begin_binding",
                    {"bindings": [w.binding(patient_idx, r1, c2)]},
                )
                sid = events[0]["payload"]["session"]
                stock[clinic_idx] -= 1  # reserve so completing reveals never race
                inflight[sid] = {"patient": patient_idx, "clinic": clinic_idx, "r1": r1, "c2": c2}
            elif choice == "sicken":
                patient_idx = rng.choice(i_can_sicken)
                events = w.ok(w.patients[patient_idx], "report_sick", {})
                sick.append(patient_idx)
                if any(e["name"] == "TrialFinished" for e in events):
                    active = False
            else:
                sid = choice[1]
                entry = inflight[sid]
                patient = w.patients[entry["patient"]]
                w.ok(patient, "patient_reveal", w.patient_reveal(sid, entry["clinic"], entry["r1"], entry["c2"]))
                shot = w.ledger.contract.patient_shot[patient.address]
                if shot in owner:
                    write_once_ok = False
                owner[shot] = entry["patient"]
                bound[entry["patient"]] = shot
                del inflight[sid]

        openings = [
            w.opening_entry(bound[i])
            for i in sick
            if w.openings[bound[i]].content is ShotContent.PLACEBO
        ]
        outcome = w.ok(w.developer, "reveal_controls", {"openings": openings})[0]["payload"]
        truth_ar0 = len(openings)
        free_left = sum(len(w.ledger.contract.free_shots[c]) for c in w.config.clinics)
        patients_map = w.ledger.contract.patient_shot
        conserved = (
            outcome["ar0"] + outcome["ar1"] == threshold
            and outcome["ar0"] == truth_ar0
            and free_left + len(owner) == num_shots
            and len(set(patients_map.values())) == len(patients_map)
        )
        if not (conserved and write_once_ok):
            failures.append(trial)

    ok = not failures
    acceptance(
        8,
        "conservation and write-once invariants hold across 1,000 random valid "
        "transaction interleavings",
        ok,
        f"{trials - len(failures)}/{trials} trials clean, {timer():.0f}s",
    )
