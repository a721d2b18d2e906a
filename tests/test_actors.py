"""Scenario runner: honest recovery, adversaries, determinism, evidence."""

import json
from collections import Counter
from importlib import resources

import pytest

from vaccsc.actors import (
    Behavior,
    DiseaseModel,
    Role,
    ScenarioSpec,
    Strategy,
    _Runner,
    load_scenario,
    run_grid,
    run_many,
    run_scenario,
    scenario_from_dict,
)
from vaccsc.commitment import ShotContent
from vaccsc.contract import efficiency_percent
from vaccsc.ledger import ACCEPTED


def bundled(name: str) -> dict:
    path = resources.files("vaccsc") / "data" / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


def small_spec(**overrides) -> ScenarioSpec:
    raw = bundled("honest_small")
    raw.update(overrides)
    return scenario_from_dict(raw)


# -- scenario loading -----------------------------------------------------------


def test_bundled_scenarios_parse():
    small = scenario_from_dict(bundled("honest_small"))
    assert small.num_participants == 400
    assert small.infected_threshold == 40
    assert small.seeds == (1, 2, 3)

    big = scenario_from_dict(bundled("honest_pfizer_like"))
    assert big.num_participants == 2000
    assert big.infected_threshold == 164
    assert len(big.seeds) == 200

    grid = scenario_from_dict(bundled("adversary_grid"))
    labels = [cell.label for cell in grid.grid]
    assert labels == [
        "honest",
        "omit_10",
        "omit_25",
        "omit_50",
        "forge_1",
        "biased_distribution",
        "collude",
        "false_sick_5",
        "never_report_5",
    ]


def test_load_scenario_from_path(tmp_path):
    raw = bundled("honest_small")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(raw))
    spec = load_scenario(path)
    assert spec.name == "honest_small"


def test_scenario_validation():
    raw = bundled("honest_small")
    del raw["config"]
    with pytest.raises((KeyError, ValueError)):
        scenario_from_dict(raw)
    raw = bundled("honest_small")
    raw["strategies"] = [{"role": "developer", "behavior": "launder_results"}]
    with pytest.raises(ValueError):
        scenario_from_dict(raw)


def test_strategy_validation():
    with pytest.raises(ValueError):  # patients cannot withhold openings
        Strategy(Role.PATIENT, Behavior.OMIT_CONTROLS)
    with pytest.raises(ValueError):  # developers do not self-report sickness
        Strategy(Role.DEVELOPER, Behavior.FALSE_SICK)
    with pytest.raises(ValueError):
        Strategy(Role.DEVELOPER, Behavior.OMIT_CONTROLS, fraction=1.5)
    with pytest.raises(ValueError):
        Strategy(Role.PATIENT, Behavior.FALSE_SICK, probability=-0.1)


# -- honest runs ----------------------------------------------------------------


def test_honest_run_recovers_truth_exactly():
    spec = small_spec()
    for seed in spec.seeds:
        report = run_scenario(spec, seed)
        assert report.complete and report.phase == "finalized"
        outcome = report.ledger_summary["outcome"]
        assert outcome["ar0"] + outcome["ar1"] == spec.infected_threshold
        assert outcome["ar0"] == report.truth["ar0"]
        assert outcome["ar1"] == report.truth["ar1"]
        assert report.divergence["efficiency_gap"] == 0.0
        # the only rejections an honest world produces are same-epoch
        # sickness reports that lost the race against the threshold
        assert set(report.ledger_summary["rejections_by_code"]) <= {"TrialNotActive"}


def test_determinism_same_seed_same_ledger():
    spec = small_spec(seeds=[7])
    a = run_scenario(spec, 7)
    b = run_scenario(spec, 7)
    assert a.ledger.state_digest() == b.ledger.state_digest()
    assert a.ledger.events_digest() == b.ledger.events_digest()
    assert a.to_json() == b.to_json()
    c = run_scenario(spec, 8)
    assert c.ledger.state_digest() != a.ledger.state_digest()


def test_binding_journal_is_three_records_per_patient_and_one_begin_per_clinic():
    spec = small_spec(seeds=[2])
    report = run_scenario(spec, 2, keep_table=False)
    counts = Counter(entry.tx.method for entry in report.ledger.journal if entry.status == ACCEPTED)
    n, c = spec.num_participants, spec.num_clinics
    assert (counts["patient_commit"], counts["clinic_reveal"], counts["patient_reveal"]) == (n, n, n)
    assert counts["begin_binding"] == c
    assert "confirm_binding" not in {entry.tx.method for entry in report.ledger.journal}
    started = [e for e in report.ledger.events if e.name == "BindingStarted"]
    assert [e.payload["session"] for e in started] == list(range(n))
    assert sum(e.name == "BindingConfirmed" for e in report.ledger.events) == n


def test_report_json_is_serializable():
    report = run_scenario(small_spec(), 1)
    blob = json.dumps(report.to_json())
    parsed = json.loads(blob)
    assert parsed["seed"] == 1
    assert parsed["ledger"]["status"] in {"Approved", "Rejected"}
    assert len(parsed["assignment_table"]) == 400


def test_assignment_table_truth_matches_summary():
    report = run_scenario(small_spec(), 2)
    table = report.assignment_table
    vaccine_rows = [r for r in table if r["content"] == "vaccine"]
    assert len(vaccine_rows) == report.truth["vaccine_shots"]
    sick_controls = [
        r for r in table if r["content"] == "placebo" and r["reported_sick"]
    ]
    assert len(sick_controls) == report.truth["ar0"]


def test_vaccine_openings_stay_off_the_ledger():
    runner = _Runner(small_spec(), (), 3, "blindness", keep_table=False)
    report = runner.run()
    assert report.complete
    journal_blob = b"".join(e.tx.payload for e in report.ledger.journal).decode()
    state_blob = report.ledger.contract.canonical_state().decode()
    for shot, opening in runner.manifest.items():
        if opening.content is ShotContent.VACCINE:
            assert opening.nonce.hex() not in journal_blob
            assert opening.nonce.hex() not in state_blob


# -- adversaries ----------------------------------------------------------------


def test_omission_always_lowers_reported_efficiency():
    spec = small_spec()
    for seed in (11, 12):
        honest = run_scenario(spec, seed, keep_table=False)
        truth_eff = honest.truth["efficiency"]
        for fraction in (0.1, 0.25, 0.5):
            cheat = run_scenario(
                spec,
                seed,
                strategies=(
                    Strategy(Role.DEVELOPER, Behavior.OMIT_CONTROLS, fraction=fraction),
                ),
                keep_table=False,
            )
            assert cheat.complete
            reported = cheat.ledger_summary["outcome"]["efficiency"]
            assert reported < cheat.truth["efficiency"]
            omission = [e for e in cheat.evidence if e["kind"] == "omission"]
            assert omission and omission[0]["omitted"] >= 1
        assert honest.truth["efficiency"] == truth_eff  # honest baseline unchanged


def test_forged_reveals_are_rejected_atomically():
    spec = small_spec()
    report = run_scenario(
        spec,
        13,
        strategies=(Strategy(Role.DEVELOPER, Behavior.FORGE_CONTROLS, count=1),),
        keep_table=False,
    )
    assert report.complete
    kinds = {e["kind"]: e for e in report.evidence}
    assert set(kinds) == {"forged_content", "true_vaccine_opening"}
    assert kinds["forged_content"]["code"] == "BadOpening"
    assert kinds["true_vaccine_opening"]["code"] == "NotPlacebo"
    for entry in kinds.values():
        assert entry["rejected"] is True
        assert entry["state_unchanged"] is True
    rejections = report.ledger_summary["rejections_by_code"]
    assert rejections.get("BadOpening") == 1
    assert rejections.get("NotPlacebo") == 1
    # the swap failed, so the developer settles for withholding: efficiency drops
    assert report.ledger_summary["outcome"]["efficiency"] < report.truth["efficiency"]


def test_biased_distribution_cannot_move_the_outcome():
    spec = small_spec()
    report = run_scenario(
        spec,
        14,
        strategies=(Strategy(Role.DEVELOPER, Behavior.BIASED_DISTRIBUTION),),
        keep_table=False,
    )
    assert report.complete
    assert report.divergence["efficiency_gap"] == 0.0


def test_collusion_hits_target_index_but_not_arm(collusion_record):
    hits, vaccine = 0, 0
    for seed in range(24):
        record = collusion_record(seed)
        assert record["matched"] is True
        assert record["selected_index"] == record["target_index"]
        assert record["content"] in {"placebo", "vaccine"}
        assert record["stock_total"] == 8
        hits += 1
        vaccine += record["content"] == "vaccine"
    assert hits == 24
    assert 0 < vaccine < 24  # steering the index does not pick the arm


def test_collusion_inside_scenario():
    spec = small_spec(seeds=[21])
    report = run_scenario(
        spec,
        21,
        strategies=(Strategy(Role.CLINIC, Behavior.COLLUDE_WITH_PATIENT),),
        keep_table=False,
    )
    assert report.complete
    collusion = [e for e in report.evidence if e["kind"] == "collusion"]
    assert len(collusion) == 1
    assert collusion[0]["matched"] is True


def test_false_sick_inflates_reports():
    spec = small_spec(disease={"p_control": 0.05, "p_vaccine": 0.015, "epochs": 1000})
    report = run_scenario(
        spec,
        31,
        strategies=(Strategy(Role.PATIENT, Behavior.FALSE_SICK, probability=0.05),),
        keep_table=False,
    )
    assert report.complete
    assert report.truth["false_reports"] > 0
    assert report.ledger_summary["infected"] == spec.infected_threshold


def test_never_report_suppresses_infections():
    spec = small_spec()
    report = run_scenario(
        spec,
        32,
        strategies=(Strategy(Role.PATIENT, Behavior.NEVER_REPORT, probability=0.2),),
        keep_table=False,
    )
    assert report.complete
    assert report.truth["genuine_infections"] > report.ledger_summary["infected"]


def test_incomplete_trial_reports_cleanly():
    spec = small_spec(
        config={
            "num_participants": 20,
            "infected_threshold": 18,
            "target_efficiency": 50.0,
            "num_clinics": 2,
            "binding_deadline": 100,
        },
        disease={"p_control": 0.001, "p_vaccine": 0.0005, "epochs": 3},
        seeds=[5],
    )
    report = run_scenario(spec, 5)
    assert not report.complete
    assert report.phase == "active"
    assert report.incomplete_reason
    assert report.ledger_summary["outcome"] is None
    assert report.epochs_run == 3
    json.dumps(report.to_json())


def test_run_grid_covers_every_cell():
    raw = bundled("adversary_grid")
    raw["seeds"] = [101]
    spec = scenario_from_dict(raw)
    results = run_grid(spec)
    assert set(results) == {cell.label for cell in spec.grid}
    for label, reports in results.items():
        assert len(reports) == 1
        report = reports[0]
        assert report.label == label
        assert report.complete, f"{label} did not finalize"
    honest_eff = results["honest"][0].ledger_summary["outcome"]["efficiency"]
    omitted_eff = results["omit_50"][0].ledger_summary["outcome"]["efficiency"]
    assert omitted_eff < honest_eff


def test_run_many_covers_every_seed():
    spec = small_spec(seeds=[41, 42])
    reports = run_many(spec)
    assert [r.seed for r in reports] == [41, 42]
    assert all(r.assignment_table is None for r in reports)


def test_disease_model_validation():
    with pytest.raises(ValueError):
        DiseaseModel(p_control=1.5, p_vaccine=0.1)
    with pytest.raises(ValueError):
        DiseaseModel(p_control=0.5, p_vaccine=0.1, epochs=0)
