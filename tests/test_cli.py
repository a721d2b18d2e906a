"""Command-line interface: exit codes, file outputs, printed outcome lines."""

import dataclasses
import json

import pytest

from vaccsc import cli
from vaccsc.commitment import Opening, ShotContent, commit, generate_nonce
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
        "seeds": [9],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path), "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "tiny-s9.vscl").exists()


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
    json.loads(export.read_text())


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
    "argv",
    [
        ("audit", "{dir}"),
        ("status", "{dir}"),
        ("simulate", "--scenario", "honest_small", "--out", "{file}"),
    ],
    ids=["audit-directory", "status-directory", "simulate-out-is-a-file"],
)
def test_unusable_path_is_an_input_error(tmp_path, capsys, argv):
    existing = tmp_path / "existing"
    existing.write_text("not a directory\n")
    code, out, err = run_cli(
        capsys, *(arg.format(dir=tmp_path, file=existing) for arg in argv)
    )
    assert code == 1
    assert out == ""  # simulate gives up before running the trial
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_old_contract_id_is_rejected_by_name(tmp_path, capsys, world_cls):
    w = world_cls(num_shots=4)
    w.assign_all()
    path = tmp_path / "old.vscl"
    records = w.ledger.journal
    for old_id in ("vaccsc-1", "vaccsc-2", "vaccsc-3", "vaccsc-4"):
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
