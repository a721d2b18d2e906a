"""Command-line interface: exit codes, file outputs, printed outcome lines."""

import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from vaccsc import cli
from vaccsc.commitment import Opening, ShotContent, commit, generate_nonce
from vaccsc.ledger import SignedTransaction, signing_bytes
from vaccsc.logio import read_log, write_ledger_log, write_log


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sim(tmp_path, capsys):
    """One bundled honest run, reused by the audit/status tests."""
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", "honest_small", "--seed", "2", "--out", str(tmp_path)
    )
    assert code == 0
    return tmp_path / "honest_small-s2.vscl"


# -- simulate -------------------------------------------------------------------


def test_simulate_bundled_scenario(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--scenario", "honest_small", "--out", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "honest_small-s1.vscl").exists()
    report = json.loads((tmp_path / "honest_small-s1.report.json").read_text())
    assert report["complete"] is True
    assert "outcome: ar0=" in out
    assert out.strip().endswith(("APPROVED", "REJECTED"))


def test_simulate_is_reproducible(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out_dir in (a_dir, b_dir):
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            "honest_small",
            "--seed",
            "3",
            "--out",
            str(out_dir),
        )
        assert code == 0
    a = (a_dir / "honest_small-s3.vscl").read_bytes()
    b = (b_dir / "honest_small-s3.vscl").read_bytes()
    assert a == b


def test_simulate_export_json_and_verbose(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--scenario",
        "honest_small",
        "--seed",
        "2",
        "--out",
        str(tmp_path),
        "--export-json",
        "--verbose",
    )
    assert code == 0
    doc = json.loads((tmp_path / "honest_small-s2.log.json").read_text())
    assert set(doc) == {"genesis", "records", "trailer"}
    assert "accepted=" in out


def test_simulate_verbose_prints_the_evidence_of_a_forger(tmp_path, capsys):
    raw = json.loads((resources.files("vaccsc") / "data" / "scenarios" / "honest_small.json").read_text())
    raw["strategies"] = [{"role": "developer", "behavior": "forge_controls", "count": 1}]
    path = tmp_path / "forger.json"
    path.write_text(json.dumps(raw))
    argv = ["simulate", "--scenario", str(path), "--seed", "13", "--out", str(tmp_path), "--verbose"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    evidence = [json.loads(line.removeprefix("  evidence: ")) for line in out.splitlines() if "evidence:" in line]
    assert [item["kind"] for item in evidence] == ["forged_content", "true_vaccine_opening"]
    report = json.loads((tmp_path / "honest_small-s13.report.json").read_text())
    assert evidence == report["evidence"]


def test_simulate_scenario_file_path(tmp_path, capsys):
    spec = {
        "name": "tiny",
        "config": {
            "num_participants": 8,
            "infected_threshold": 2,
            "target_efficiency": 50.0,
            "num_clinics": 2,
            "binding_deadline": 100,
        },
        "disease": {"p_control": 0.9, "p_vaccine": 0.2, "epochs": 50},
        "vaccine_fraction": 0.5,
        "strategies": [],
        "grid": [],
        "seeds": [9],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "tiny-s9.vscl").exists()


def test_a_directory_does_not_shadow_a_bundled_scenario(tmp_path, capsys, monkeypatch):
    """A scenario reference is a file, else a bundled name; a directory of that name is neither."""
    (tmp_path / "honest_small").mkdir()
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, "simulate", "--scenario", "honest_small", "--seed", "2")
    assert code == 0
    assert (tmp_path / "honest_small-s2.vscl").is_file()


def test_simulate_incomplete_trial_exit_code(tmp_path, capsys):
    spec = {
        "name": "quiet",
        "config": {
            "num_participants": 8,
            "infected_threshold": 8,
            "target_efficiency": 50.0,
            "num_clinics": 1,
            "binding_deadline": 100,
        },
        "disease": {"p_control": 0.001, "p_vaccine": 0.001, "epochs": 2},
        "vaccine_fraction": 0.5,
        "strategies": [],
        "grid": [],
        "seeds": [1],
    }
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "incomplete trial:" in out
    # the log is still written for inspection
    assert (tmp_path / "quiet-s1.vscl").exists()


def test_simulate_unknown_scenario(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--scenario", "no_such_thing", "--out", str(tmp_path))
    assert code == 1
    assert "cannot load scenario" in err


def test_simulate_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path))
    assert code == 1


def _rename_deadline(raw):
    raw["config"]["binding_deadlien"] = raw["config"].pop("binding_deadline")


@pytest.mark.parametrize(
    "mutate,field",
    [
        (_rename_deadline, "scenario.config.binding_deadlien is unexpected"),
        (lambda raw: raw.update(seeds=[2.9]), "scenario.seeds[] must be a JSON int"),
        (lambda raw: raw["disease"].update(epochs=True), "scenario.disease.epochs must be a JSON int"),
        (
            lambda raw: raw.update(
                strategies=[{"role": "patient", "behavior": "false_sick", "probabilty": 0.5}]
            ),
            "scenario.strategies[].probability is missing",
        ),
        (
            lambda raw: raw.update(
                strategies=[
                    {"role": "developer", "behavior": "omit_controls", "fraction": 0.5},
                    {"role": "developer", "behavior": "forge_controls", "count": 1},
                ]
            ),
            "scenario.strategies names the developer role twice",
        ),
        (
            lambda raw: raw.update(
                grid=[{"label": "twice", "strategies": [{"role": "patient", "behavior": "honest"}] * 2}]
            ),
            "scenario.grid[].strategies names the patient role twice",
        ),
        (
            lambda raw: raw.update(grid=[{"label": "x", "strategies": []}] * 2),
            "scenario.grid names the label x twice",
        ),
        # values the deployed TrialConfig would reject, caught at load
        (lambda raw: raw["config"].update(infected_threshold=0), "infected_threshold"),
        (lambda raw: raw["config"].update(infected_threshold=500), "infected_threshold"),
        (lambda raw: raw["config"].update(target_efficiency=150.0), "target_efficiency"),
        (lambda raw: raw["config"].update(target_efficiency=100.5), "target_efficiency"),
        (lambda raw: raw["config"].update(target_efficiency=33.333), "at most two decimals"),
        (lambda raw: raw["config"].update(binding_deadline=-1), "binding_deadline"),
        # ScenarioSpec's own checks
        (lambda raw: raw["config"].update(num_clinics=0), "at least one clinic"),
        (lambda raw: raw.update(vaccine_fraction=1.5), "vaccine_fraction"),
        (lambda raw: raw.update(seeds=[]), "at least one seed"),
        # simulate names its outputs after the scenario, so a name must be one file name
        (lambda raw: raw.update(name=""), "scenario.name"),
        (lambda raw: raw.update(name="."), "scenario.name"),
        (lambda raw: raw.update(name=".."), "scenario.name"),
        (lambda raw: raw.update(name="sub/trial"), "scenario.name"),
        (lambda raw: raw.update(name="trial\0"), "scenario.name"),
    ],
    ids=[
        "binding_deadlien",
        "float-seed",
        "bool-epochs",
        "probabilty",
        "repeated-role",
        "repeated-role-in-grid-cell",
        "repeated-grid-label",
        "threshold-0",
        "threshold-500",
        "efficiency-150",
        "efficiency-100.5",
        "efficiency-33.333",
        "deadline-negative",
        "clinics-0",
        "vaccine-fraction-1.5",
        "no-seeds",
        "name-empty",
        "name-dot",
        "name-dot-dot",
        "name-slash",
        "name-nul",
    ],
)
def test_bad_scenario_is_an_input_error(tmp_path, capsys, mutate, field):
    raw = json.loads((resources.files("vaccsc") / "data" / "scenarios" / "honest_small.json").read_text())
    mutate(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and field in err
    assert not (tmp_path / "out").exists()  # rejected before any output is made


def test_a_two_decimal_target_deploys_in_hundredths_of_a_percent(tmp_path, capsys):
    raw = json.loads((resources.files("vaccsc") / "data" / "scenarios" / "honest_small.json").read_text())
    raw["config"]["target_efficiency"] = 33.33
    path = tmp_path / "target.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    report = json.loads((tmp_path / "honest_small-s1.report.json").read_text())
    assert report["config"]["target_efficiency_bp"] == 3333


def test_deeply_nested_scenario_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [[], ["simulate"], ["audit"], ["simulate", "--scenario", "honest_small", "--seed", "x"]],
    ids=["no-subcommand", "simulate-without-scenario", "audit-without-log", "seed-not-an-int"],
)
def test_a_usage_error_is_an_input_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: vaccsc") and "error: " in err


def test_help_exits_0(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: vaccsc") and err == ""


@pytest.mark.slow
def test_a_paper_scale_trial_simulates_and_audits(tmp_path, capsys):
    """N=43,548, the Pfizer/BioNTech Phase III size: about 44,000 records, so the
    audit's replay shares a map of that many bytes with its helper."""
    code, _, err = run_cli(capsys, "simulate", "--scenario", "paper_scale", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "audit", str(tmp_path / "paper_scale-s1.vscl"))
    assert (code, err) == (0, "")
    assert out.endswith("audit ok: replay matches the recorded state and event digests\n")


# -- audit ----------------------------------------------------------------------


def test_audit_clean_log(sim, capsys):
    code, out, _ = run_cli(capsys, "audit", str(sim))
    assert code == 0
    assert "finalized" in out
    assert "audit ok" in out
    assert "recomputed: ar0=" in out


def test_audit_tampered_log(sim, capsys):
    data = bytearray(sim.read_bytes())
    data[len(data) // 2] ^= 0x01
    sim.write_bytes(bytes(data))
    code, _, err = run_cli(capsys, "audit", str(sim))
    assert code == 3


def test_audit_truncated_log(sim, capsys):
    sim.write_bytes(sim.read_bytes()[:-10])
    code, _, err = run_cli(capsys, "audit", str(sim))
    assert code == 3


def test_audit_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "audit", str(tmp_path / "absent.vscl"))
    assert code == 1


def test_audit_export_json(sim, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "audit", str(sim), "--export-json")
    assert code == 0
    export = sim.with_suffix(".vscl.json")
    assert export.exists()
    records = json.loads(export.read_text())["records"]
    # a record holds its fields only; the entry's ``accepted`` property is not one
    assert records and all(set(record) == {"status", "code", "tx"} for record in records)


def test_audit_export_json_keeps_a_payload_that_is_not_utf8(tmp_path, capsys, world_cls):
    """A journaled payload that is not UTF-8 is exported with its other bytes
    as lone surrogates, so the export gives the signed bytes back."""
    w = world_cls(num_shots=4)
    payload, sequence = b'{"clinic":"\xff"}', w.ledger.next_sequence(w.developer.address)
    signature = w.developer.sign(signing_bytes(w.ledger.trial_id, "assign_shot_to_clinic", sequence, payload))
    tx = SignedTransaction(
        w.developer.address, w.developer.public_key, "assign_shot_to_clinic", payload, sequence, signature
    )
    assert w.ledger.submit(tx).code == "MalformedPayload"
    path = tmp_path / "bytes.vscl"
    write_ledger_log(path, w.ledger)
    code, _, _ = run_cli(capsys, "audit", str(path), "--export-json")
    assert code == 0
    (record,) = json.loads(path.with_suffix(".vscl.json").read_text())["records"]
    assert record["tx"]["payload"].encode("utf-8", "surrogateescape") == payload


def test_simulate_exports_the_log_as_audit_exports_it(tmp_path, capsys):
    """The export ``simulate --export-json`` writes is the one ``audit --export-json``
    writes for the same log, byte for byte."""
    argv = ("simulate", "--scenario", "honest_small", "--seed", "2", "--out", str(tmp_path), "--export-json")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    log = tmp_path / "honest_small-s2.vscl"
    code, _, _ = run_cli(capsys, "audit", str(log), "--export-json")
    assert code == 0
    assert (tmp_path / "honest_small-s2.log.json").read_bytes() == log.with_suffix(".vscl.json").read_bytes()


# -- status ---------------------------------------------------------------------


def test_status_finalized(sim, capsys):
    code, out, _ = run_cli(capsys, "status", str(sim))
    assert code == 0
    assert "phase:" in out and "finalized" in out
    assert "efficiency" in out


def test_status_genesis_only(tmp_path, capsys, world_cls):
    w = world_cls(num_shots=4)
    path = tmp_path / "fresh.vscl"
    write_ledger_log(path, w.ledger)
    code, out, _ = run_cli(capsys, "status", str(path))
    assert code == 0
    assert "deployed" in out
    assert "Pending" in out


def test_status_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "status", str(tmp_path / "absent.vscl"))
    assert code == 1


@pytest.mark.parametrize(
    "argv,blocked",
    [
        (("audit", "{dir}"), None),
        (("status", "{dir}"), None),
        (("simulate", "--scenario", "honest_small", "--out", "{file}"), None),
        (("audit", "{log}", "--export-json"), "tiny.vscl.json"),
        (("simulate", "--scenario", "honest_small", "--seed", "2", "--out", "{dir}"), "honest_small-s2.vscl"),
        (("simulate", "--scenario", "honest_small", "--seed", "2", "--out", "{dir}"), "honest_small-s2.report.json"),
        (
            ("simulate", "--scenario", "honest_small", "--seed", "2", "--out", "{dir}", "--export-json"),
            "honest_small-s2.log.json",
        ),
    ],
    ids=[
        "audit-directory",
        "status-directory",
        "simulate-out-is-a-file",
        "audit-export-is-a-directory",
        "simulate-log-is-a-directory",
        "simulate-report-is-a-directory",
        "simulate-export-is-a-directory",
    ],
)
def test_unusable_path_is_an_input_error(tmp_path, capsys, world_cls, argv, blocked):
    existing = tmp_path / "existing"
    existing.write_text("not a directory\n")
    log = tmp_path / "tiny.vscl"
    write_ledger_log(log, world_cls(num_shots=4).ledger)
    if blocked:
        (tmp_path / blocked).mkdir()  # an output file's name, taken by a directory
    made = set(tmp_path.iterdir())
    code, out, err = run_cli(
        capsys, *(arg.format(dir=tmp_path, file=existing, log=log) for arg in argv)
    )
    assert code == 1
    assert out == ""  # nothing is printed before every output is written
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert set(tmp_path.iterdir()) == made  # no output, not even a temporary file, is left
    if blocked:
        assert not any((tmp_path / blocked).iterdir())


def test_old_contract_id_is_rejected_by_name(tmp_path, capsys, world_cls):
    w = world_cls(num_shots=4)
    w.assign_all()
    path = tmp_path / "old.vscl"
    records = w.ledger.journal
    for old_id in [f"vaccsc-{version}" for version in range(1, 10)]:
        genesis = dict(w.genesis, contract=old_id)
        write_log(path, genesis, records, w.ledger.state_digest(), w.ledger.events_digest())
        code, _, err = run_cli(capsys, "audit", str(path))
        assert code == 3
        assert f"unsupported contract id '{old_id}'" in err
        code, _, err = run_cli(capsys, "status", str(path))
        assert code == 1
        assert f"unsupported contract id '{old_id}'" in err


def test_status_of_rehashed_tampered_log_is_an_audit_failure(sim, capsys):
    # One payload byte of the middle record flipped, then the file re-hashed,
    # so only the replay can tell.
    log = read_log(sim)
    records = list(log.records)
    middle = records[len(records) // 2]
    payload = bytearray(middle.tx.payload)
    payload[0] ^= 0x01
    records[len(records) // 2] = dataclasses.replace(
        middle, tx=dataclasses.replace(middle.tx, payload=bytes(payload))
    )
    trailer = log.trailer
    write_log(sim, log.genesis, records, trailer.state_digest, trailer.events_digest)
    code, _, err = run_cli(capsys, "audit", str(sim))
    assert code == 3
    code, out, err = run_cli(capsys, "status", str(sim))
    assert code == 3
    assert "phase:" in out and "status:" in out
    assert "audit failure:" in err and "diverged" in err


# -- verify-reveal ----------------------------------------------------------------


def test_verify_reveal_match(capsys):
    opening = Opening(content=ShotContent.PLACEBO, nonce=bytes(range(32)))
    digest = commit(opening)
    code, out, _ = run_cli(
        capsys, "verify-reveal", digest.hex(), opening.nonce.hex(), "placebo"
    )
    assert code == 0
    assert "MATCH" in out


def test_verify_reveal_mismatch(capsys):
    opening = Opening(content=ShotContent.PLACEBO, nonce=bytes(range(32)))
    digest = commit(opening)
    code, out, _ = run_cli(
        capsys, "verify-reveal", digest.hex(), opening.nonce.hex(), "vaccine"
    )
    assert code == 4
    assert "NO-MATCH" in out


def test_verify_reveal_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "verify-reveal", "zz", "00" * 32, "placebo")
    assert code == 1
    code, _, err = run_cli(capsys, "verify-reveal", "00" * 32, "11" * 31, "placebo")
    assert code == 1
    code, _, err = run_cli(capsys, "verify-reveal", "00" * 32, "11" * 32, "saline")
    assert code == 1
    # exactly the spelling a reveal_controls opening accepts: lower-case hex, a bare label
    for argv in (
        ("AB" * 32, "11" * 32, "placebo"),
        ("00" * 32, " ".join(["11"] * 32), "placebo"),
        ("00" * 32, "11" * 32, " PLACEBO "),
    ):
        code, out, err = run_cli(capsys, "verify-reveal", *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_the_cli_imports_no_process_pool():
    """The audit forks its one helper with ``os``; ``multiprocessing`` alone would
    add about a megabyte to every CLI process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, vaccsc.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert found.stdout == "[]\n"
