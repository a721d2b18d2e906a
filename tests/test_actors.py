"""Scenario runner: honest recovery, adversaries, determinism, evidence."""

import dataclasses
import json
import os
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from conftest import count_ed25519_work

from vaccsc.actors import (
    Behavior,
    DiseaseModel,
    GridCell,
    Role,
    ScenarioSpec,
    Strategy,
    _Runner,
    load_scenario,
    run_grid,
    run_scenario,
    scenario_from_dict,
)
from vaccsc import actors, ledger
from vaccsc.commitment import ShotContent
from vaccsc.contract import efficiency_percent
from vaccsc.keys import KeyPair
from vaccsc.ledger import ACCEPTED, Ledger, signing_bytes
from vaccsc.logio import write_ledger_log


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

    paper = scenario_from_dict(bundled("paper_scale"))
    assert (paper.num_participants, paper.infected_threshold, paper.num_clinics) == (43548, 164, 4)
    assert (paper.disease.p_control, paper.disease.p_vaccine, paper.seeds) == (0.005, 0.0015, (1,))

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


def test_load_scenario_takes_a_bundled_name(tmp_path, monkeypatch):
    path = resources.files("vaccsc") / "data" / "scenarios" / "honest_small.json"
    assert load_scenario("honest_small") == load_scenario(path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "honest_small").write_text(json.dumps({**bundled("honest_small"), "name": "local"}))
    assert load_scenario("honest_small").name == "local"  # a file of that name comes first
    with pytest.raises(FileNotFoundError, match="'no_such' is neither a file nor a bundled name"):
        load_scenario("no_such")


def _set(*keys_and_value):
    """A mutation of a scenario document setting one nested key."""
    *keys, last, value = keys_and_value

    def mutate(raw):
        for key in keys:
            raw = raw[key]
        raw[last] = value

    return mutate


def _rename(section, old, new):
    def mutate(raw):
        raw[section][new] = raw[section].pop(old)

    return mutate


def _strategies(*strategies):
    return _set("strategies", list(strategies))


def test_scenario_validation():
    # Each malformed document raises ValueError naming the field's path.
    deadlien = _rename("config", "binding_deadline", "binding_deadlien")
    cases = [
        (deadlien, "scenario.config.binding_deadlien is unexpected"),
        (_set("seeds", [2.9]), "scenario.seeds[] must be a JSON int"),
        (_set("disease", "epochs", True), "scenario.disease.epochs must be a JSON int"),
        (
            _strategies({"role": "patient", "behavior": "false_sick", "probabilty": 0.5}),
            "scenario.strategies[].probability is missing",
        ),
        (
            _strategies({"role": "patient", "behavior": "never_report", "probabilty": 0.5}),
            "scenario.strategies[].probability is missing",
        ),
        (_set("config", "num_participants", "400"), "scenario.config.num_participants must be a JSON int"),
        (_set("vaccine_fraction", "0.5"), "scenario.vaccine_fraction must be a JSON float"),
        (_set("config", "target_efficiency", 50), "scenario.config.target_efficiency must be a JSON float"),
        (lambda raw: raw.pop("grid"), "scenario.grid is missing"),
        (lambda raw: raw.pop("config"), "scenario.config is missing"),
        (
            _strategies({"role": "developer", "behavior": "launder_results"}),
            "scenario.strategies[].behavior must be",
        ),
        (
            _strategies({"role": "developer", "behavior": "honest", "count": 1}),
            "scenario.strategies[].count is unexpected",
        ),
        (
            _strategies({"role": "developer", "behavior": "forge_controls", "count": True}),
            "scenario.strategies[].count must be a JSON int",
        ),
        (
            _strategies({"role": "developer", "behavior": "forge_controls", "count": 0}),
            "scenario.strategies[]: forge_controls needs a count of type int >= 1",
        ),
        (
            _strategies({"role": "patient", "behavior": "omit_controls", "fraction": 0.5}),
            "scenario.strategies[]: patient cannot use behavior omit_controls",
        ),
        (
            _strategies(
                {"role": "developer", "behavior": "omit_controls", "fraction": 0.5},
                {"role": "developer", "behavior": "forge_controls", "count": 1},
            ),
            "scenario.strategies names the developer role twice",
        ),
        (
            _set(
                "grid",
                [
                    {
                        "label": "two_clinics",
                        "strategies": [
                            {"role": "clinic", "behavior": "honest"},
                            {"role": "patient", "behavior": "honest"},
                            {"role": "clinic", "behavior": "collude_with_patient"},
                        ],
                    }
                ],
            ),
            "scenario.grid[].strategies names the clinic role twice",
        ),
        (
            _set("grid", [{"label": "x", "strategies": []}, {"label": "x", "strategies": []}]),
            "scenario.grid names the label x twice",
        ),
    ]
    for mutate, message in cases:
        raw = bundled("honest_small")
        mutate(raw)
        with pytest.raises(ValueError) as info:
            scenario_from_dict(raw)
        assert str(info.value).startswith(message), (message, str(info.value))


def test_strategy_spelling_round_trips():
    # A strategy is spelled the same way in a scenario file and in a report.
    raw = bundled("adversary_grid")
    grid = scenario_from_dict(raw)
    strategies = [s for cell in grid.grid for s in cell.strategies] + list(grid.strategies)
    assert {s.behavior for s in strategies} == set(Behavior)
    for strategy in strategies:
        raw["strategies"] = [strategy.to_dict()]
        assert scenario_from_dict(raw).strategies == (strategy,)


def test_formats_doc_scenario_example_decodes():
    # The example in docs/FORMATS.md is a complete, valid scenario file.
    doc = (Path(__file__).parent.parent / "docs" / "FORMATS.md").read_text()
    section = doc.split("## Scenario file (JSON)", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    spec = scenario_from_dict(json.loads(example))
    assert spec.grid and spec.strategies


def test_formats_doc_report_example_is_a_real_run():
    # The report example in docs/FORMATS.md shows honest_pfizer_like at seed 1.
    doc = (Path(__file__).parent.parent / "docs" / "FORMATS.md").read_text()
    section = doc.split("## Report file (JSON)", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    report = run_scenario(scenario_from_dict(bundled("honest_pfizer_like")), 1, keep_table=False)
    keys = ("seed", "label", "complete", "phase", "epochs_run", "ledger", "truth", "divergence")
    assert {key: example[key] for key in keys} == {key: report.to_json()[key] for key in keys}


def test_strategy_validation():
    with pytest.raises(ValueError):  # patients cannot withhold openings
        Strategy(Role.PATIENT, Behavior.OMIT_CONTROLS)
    with pytest.raises(ValueError):  # developers do not self-report sickness
        Strategy(Role.DEVELOPER, Behavior.FALSE_SICK)
    with pytest.raises(ValueError):
        Strategy(Role.DEVELOPER, Behavior.OMIT_CONTROLS, knob=1.5)
    with pytest.raises(ValueError):
        Strategy(Role.PATIENT, Behavior.FALSE_SICK, knob=-0.1)
    # exactly the behavior's knob, of exactly its type
    with pytest.raises(ValueError, match="honest takes no knob"):
        Strategy(Role.DEVELOPER, Behavior.HONEST, knob=0.5)
    with pytest.raises(ValueError, match="biased_distribution takes no knob"):
        Strategy(Role.DEVELOPER, Behavior.BIASED_DISTRIBUTION, knob=1)
    with pytest.raises(ValueError, match="false_sick needs a probability"):
        Strategy(Role.PATIENT, Behavior.FALSE_SICK)
    with pytest.raises(ValueError, match="forge_controls needs a count"):
        Strategy(Role.DEVELOPER, Behavior.FORGE_CONTROLS, knob=True)


def test_python_api_rejects_a_repeated_role_or_label():
    # A second strategy for a role, or a second cell with a label, would
    # silently replace the first; Python callers get a scenario file's errors.
    spec = small_spec()
    twice = (
        Strategy(Role.DEVELOPER, Behavior.OMIT_CONTROLS, knob=0.5),
        Strategy(Role.DEVELOPER, Behavior.FORGE_CONTROLS, knob=1),
    )
    with pytest.raises(ValueError, match="^strategies names the developer role twice"):
        run_scenario(spec, 1, strategies=twice)
    with pytest.raises(ValueError, match="^scenario.strategies names the developer role twice"):
        dataclasses.replace(spec, strategies=twice)
    with pytest.raises(ValueError, match=r"^scenario.grid\[\].strategies names the developer role twice"):
        run_grid(dataclasses.replace(spec, grid=(GridCell("x", twice),)))
    with pytest.raises(ValueError, match="^scenario.grid names the label x twice"):
        run_grid(dataclasses.replace(spec, grid=(GridCell("x", ()), GridCell("x", ()))))


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


def test_binding_journal_is_one_record_per_patient_and_one_per_clinic_chunk(events_of):
    spec = small_spec(seeds=[2])
    report = run_scenario(spec, 2, keep_table=False)
    counts = Counter(entry.tx.method for entry in report.ledger.journal if entry.status == ACCEPTED)
    n, c, d = spec.num_participants, spec.num_clinics, spec.binding_deadline
    # each clinic's patients i::C, in chunks of at most binding_deadline sessions
    chunks = sum(-(-len(range(i, n, c)) // d) for i in range(c))
    assert chunks > c  # the scenario makes more than one chunk per clinic
    assert counts["patient_reveal"] == n
    assert counts["begin_binding"] == chunks
    methods = {entry.tx.method for entry in report.ledger.journal}
    assert not {"patient_commit", "clinic_reveal", "confirm_binding"} & methods
    events = events_of(report.ledger.genesis, report.ledger.journal)
    started = [e for e in events if e["name"] == "BindingStarted"]
    assert [e["payload"]["session"] for e in started] == list(range(n))
    assert sum(e["name"] == "BindingConfirmed" for e in events) == n


def late_session_steps(ledger) -> list[int]:
    """Replay ``ledger``'s journal and return the positions of the accepted
    patient reveals, the one session step after the begin, that land after
    their session's deadline."""
    replayed = Ledger(ledger.genesis)
    late = []
    for position, entry in enumerate(ledger.journal):
        if entry.status == ACCEPTED and entry.tx.method == "patient_reveal":
            params = json.loads(entry.tx.payload)
            if position > replayed.contract.sessions[params["session"]].deadline:
                late.append(position)
        replayed.submit(entry.tx)
    return late


def test_no_session_step_lands_after_its_deadline():
    runs = [run_scenario(small_spec(seeds=[2]), 2, keep_table=False)]
    grid = load_scenario(resources.files("vaccsc") / "data" / "scenarios" / "adversary_grid.json")
    runs += [report for (report,) in run_grid(dataclasses.replace(grid, seeds=(101,))).values()]
    for report in runs:
        assert late_session_steps(report.ledger) == [], report.label


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
                    Strategy(Role.DEVELOPER, Behavior.OMIT_CONTROLS, knob=fraction),
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
        strategies=(Strategy(Role.DEVELOPER, Behavior.FORGE_CONTROLS, knob=1),),
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


def test_a_forger_with_nothing_to_forge_reveals_honestly():
    """With no vaccine shot to pass off as a control, the forger makes no
    attempt: the honest reveal goes through and no evidence is recorded."""
    spec = small_spec(vaccine_fraction=0.0)
    forger = Strategy(Role.DEVELOPER, Behavior.FORGE_CONTROLS, knob=1)
    report = run_scenario(spec, 13, strategies=(forger,))
    assert report.complete and report.phase == "finalized"
    assert report.evidence == []
    assert [e.status for e in report.ledger.journal if e.tx.method == "reveal_controls"] == [ACCEPTED]
    assert report.truth["vaccine_shots"] == 0 and report.truth["placebo_shots"] == spec.num_participants
    assert report.ledger_summary["outcome"]["ar0"] == report.truth["ar0"]


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
        strategies=(Strategy(Role.PATIENT, Behavior.FALSE_SICK, knob=0.05),),
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
        strategies=(Strategy(Role.PATIENT, Behavior.NEVER_REPORT, knob=0.2),),
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


def shared_world_grid(seeds) -> ScenarioSpec:
    """``honest_small`` with one cell per role that can leave the honest path."""
    cells = (
        GridCell("honest", ()),
        GridCell("forge_1", (Strategy(Role.DEVELOPER, Behavior.FORGE_CONTROLS, 1),)),
        GridCell("biased", (Strategy(Role.DEVELOPER, Behavior.BIASED_DISTRIBUTION),)),
        GridCell("collude", (Strategy(Role.CLINIC, Behavior.COLLUDE_WITH_PATIENT),)),
        GridCell("never_report", (Strategy(Role.PATIENT, Behavior.NEVER_REPORT, 0.05),)),
    )
    return dataclasses.replace(small_spec(), seeds=tuple(seeds), grid=cells)


def test_grid_cells_sharing_a_world_equal_the_cells_run_alone(tmp_path):
    """Every cell of a grid whose seeds share keys, signatures and verdicts
    gives the report and log bytes it gives when run on its own."""
    spec = shared_world_grid([2, 5])
    grid = run_grid(spec)
    assert list(grid) == [cell.label for cell in spec.grid]
    for cell in spec.grid:
        assert [report.seed for report in grid[cell.label]] == [2, 5]
        for report in grid[cell.label]:
            alone = run_scenario(spec, report.seed, cell.strategies, cell.label, keep_table=False)
            assert json.dumps(report.to_json()) == json.dumps(alone.to_json())
            shared_log, alone_log = tmp_path / "shared.vscl", tmp_path / "alone.vscl"
            write_ledger_log(shared_log, report.ledger)
            write_ledger_log(alone_log, alone.ledger)
            assert shared_log.read_bytes() == alone_log.read_bytes(), (cell.label, report.seed)


def signed_triples(ledgers) -> set[tuple[bytes, bytes, bytes]]:
    return {
        (e.tx.public_key, e.tx.signature, signing_bytes(ledger.trial_id, e.tx.method, e.tx.sequence_number, e.tx.payload))
        for ledger in ledgers
        for e in ledger.journal
    }


def test_a_grid_does_each_distinct_ed25519_operation_once_per_call(monkeypatch, tmp_path):
    """Counted with no ``os.fork``, as a helper's Ed25519 work happens in its own process;
    with the helper, the same reports and logs, and no triple verified twice here."""
    spec = shared_world_grid([2, 3])
    with monkeypatch.context() as patched:
        patched.delattr(os, "fork")
        work = count_ed25519_work(patched)
        grid = run_grid(spec)
        ledgers = [report.ledger for reports in grid.values() for report in reports]
        triples = signed_triples(ledgers)
        public_keys = {public_key for public_key, _, _ in triples}
        assert len(ledgers) == 10 and sum(len(ledger.journal) for ledger in ledgers) > len(triples)
        assert sorted(work["verified"]) == sorted(triples)
        assert len(work["signed"]) == len(set(work["signed"])) == len(triples)
        assert len(work["derived"]) == len(set(work["derived"])) == len(public_keys)

        before = {kind: len(done) for kind, done in work.items()}
        run_grid(spec)
        assert {kind: len(done) - before[kind] for kind, done in work.items()} == before

        for done in work.values():
            done.clear()
        alone = run_scenario(spec, 2, keep_table=False).ledger
        assert len(work["verified"]) == len(work["signed"]) == len(alone.journal)
        assert len(work["derived"]) == spec.num_participants + spec.num_clinics + 1

    work = count_ed25519_work(monkeypatch)
    helped = run_grid(spec)
    assert len(work["verified"]) == len(set(work["verified"]))
    for label, reports in helped.items():
        for report, unhelped in zip(reports, grid[label], strict=True):
            assert json.dumps(report.to_json()) == json.dumps(unhelped.to_json())
            write_ledger_log(tmp_path / "helped.vscl", report.ledger)
            write_ledger_log(tmp_path / "alone.vscl", unhelped.ledger)
            assert (tmp_path / "helped.vscl").read_bytes() == (tmp_path / "alone.vscl").read_bytes()


def count_calls(monkeypatch) -> Counter:
    """The calls a traced benchmark round counts: ``KeyPair.generate``, ``KeyPair.sign``
    and the ledger's ``verify_signature``, wrapped where the program looks them up."""
    counted = Counter()

    def counting(name, real):
        def call(*args):
            counted[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(KeyPair, "generate", classmethod(counting("generate", KeyPair.generate.__func__)))
    monkeypatch.setattr(KeyPair, "sign", counting("sign", KeyPair.sign))
    monkeypatch.setattr(ledger, "verify_signature", counting("verify", ledger.verify_signature))
    return counted


def test_a_helped_run_makes_each_counted_call_once_and_each_ed25519_operation_once_here(monkeypatch):
    """With the helper on, one counted ``generate`` per key and one ``sign`` and one
    ``verify_signature`` per record; the Ed25519 work made in this process is no more
    than that, and none of it is made twice."""
    spec = small_spec()
    work = count_ed25519_work(monkeypatch)
    counted = count_calls(monkeypatch)
    journal = run_scenario(spec, 2, keep_table=False).ledger.journal
    drawn = spec.num_participants + spec.num_clinics + 1
    assert counted == {"generate": drawn, "sign": len(journal), "verify": len(journal)}
    assert len(work["derived"]) == len(set(work["derived"])) <= drawn
    assert len(work["signed"]) == len(set(work["signed"])) <= len(journal)
    assert len(work["verified"]) == len(set(work["verified"])) <= len(journal)


def test_a_free_list_that_drifts_from_the_contracts_fails_loudly(monkeypatch):
    """The runner selects each shot from its own copy of a clinic's free list;
    a copy that drifts names a shot the contract's flip does not select."""
    real = actors.select_index
    monkeypatch.setattr(actors, "select_index", lambda first, second, count: (real(first, second, count) + 1) % count)
    with pytest.raises(RuntimeError, match="patient_reveal failed: WrongShot"):
        run_scenario(small_spec(), 2, keep_table=False)
    with pytest.raises(ChildProcessError):  # the helper signing ahead was killed and reaped
        os.waitpid(-1, os.WNOHANG)


def test_run_many_covers_every_seed():
    """A spec without a grid runs its base strategies at every seed."""
    spec = small_spec(seeds=[41, 42])
    assert spec.grid == ()
    (reports,) = run_grid(spec).values()
    assert [r.seed for r in reports] == [41, 42]
    assert all(r.assignment_table is None for r in reports)


def test_disease_model_validation():
    with pytest.raises(ValueError):
        DiseaseModel(p_control=1.5, p_vaccine=0.1)
    with pytest.raises(ValueError):
        DiseaseModel(p_control=0.5, p_vaccine=0.1, epochs=0)
