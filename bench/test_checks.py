"""Self-tests for the benchmark's checks: each passes on real output and fails on a wrong one.

    python3 -m pytest -q bench/test_checks.py

They run on ``honest_small`` (N=400) and one forge cell, in a few seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

import checks

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from vaccsc import actors, cli  # noqa: E402

SCENARIOS = SRC / "vaccsc" / "data" / "scenarios"


def simulate(out: Path, seed: int) -> tuple[int, dict, bytes]:
    code = cli.main(["simulate", "--scenario", "honest_small", "--seed", str(seed), "--out", str(out)])
    report = json.loads((out / f"honest_small-s{seed}.report.json").read_text())
    return code, report, (out / f"honest_small-s{seed}.vscl").read_bytes()


@pytest.fixture(scope="module")
def honest(tmp_path_factory):
    return simulate(tmp_path_factory.mktemp("honest"), 2)


@pytest.fixture(scope="module")
def config():
    return json.loads((SCENARIOS / "honest_small.json").read_text())["config"]


@pytest.fixture(scope="module")
def forge_cell():
    spec = actors.load_scenario(SCENARIOS / "adversary_grid.json")
    cell = next(c for c in spec.grid if c.label == "forge_1")
    report = actors.run_scenario(
        dataclasses.replace(spec, seeds=(2,)), 2, strategies=cell.strategies, label=cell.label, keep_table=False
    )
    return report.to_json(), spec.infected_threshold


def test_simulation_passes_on_real_output(honest, config):
    assert checks.check_simulation(*honest, config) == []


def test_simulation_fails_when_ar1_is_off_by_one(honest, config):
    code, report, data = honest
    wrong = copy.deepcopy(report)
    wrong["ledger"]["outcome"]["ar1"] += 1
    problems = checks.check_simulation(code, wrong, data, config)
    assert any("ar1" in p for p in problems)


def test_simulation_fails_on_nonzero_exit(honest, config):
    _, report, data = honest
    assert checks.check_simulation(2, report, data, config)


def test_file_digest_fails_on_a_flipped_byte(honest):
    data = bytearray(honest[2])
    assert checks.check_file_digest(bytes(data)) == []
    data[len(data) // 2] ^= 0x01
    assert checks.check_file_digest(bytes(data))


def test_same_log_fails_on_a_different_second_log(honest, tmp_path):
    assert checks.check_same_log(honest[2], simulate(tmp_path / "again", 2)[2]) == []
    assert checks.check_same_log(honest[2], simulate(tmp_path / "other", 3)[2])


def test_hostile_copies_keep_a_valid_digest_and_change_one_thing(honest):
    data = honest[2]
    original = checks.parse_log(data)
    flipped = checks.flip_payload_byte(data)
    zeroed = checks.zero_participants_genesis(data)
    for copy_ in (flipped, zeroed):
        assert checks.check_file_digest(copy_) == []
        assert copy_ != data
    assert len(flipped) == len(data)
    assert checks.parse_log(zeroed).genesis["params"]["config"]["num_participants"] == 0
    def payloads(log):
        return [(r.status, r.method, r.payload) for r in log.records]

    assert payloads(checks.parse_log(zeroed)) == payloads(original)


def test_audit_check_wants_exit_0_for_honest_and_3_for_hostile():
    assert checks.check_audit("honest", 0, "audit ok: replay matches\n") == []
    assert checks.check_audit("honest", 0, "audit failure\n")
    assert checks.check_audit("flipped_payload", 3, "") == []
    assert checks.check_audit("flipped_payload", 0, "audit ok\n")


def test_forge_cell_passes_on_real_output(forge_cell):
    assert checks.check_grid_cell(*forge_cell) == []


def test_forge_cell_fails_when_a_forged_reveal_was_accepted(forge_cell):
    cell, threshold = forge_cell
    wrong = copy.deepcopy(cell)
    for item in wrong["evidence"]:
        if item["kind"] == "forged_content":
            item["rejected"] = False
    problems = checks.check_grid_cell(wrong, threshold)
    assert any("forged_content" in p for p in problems)


def test_tracer_counts_agree_with_the_journal_and_uninstall_restores(tmp_path):
    import vaccsc
    from layers import Tracer

    originals = (vaccsc.ledger.Ledger.submit, vaccsc.ledger.verify_signature, vaccsc.cli.main)
    tracer = Tracer()
    tracer.install(vaccsc)
    try:
        code, _, data = simulate(tmp_path, 2)
    finally:
        tracer.uninstall()
    assert (vaccsc.ledger.Ledger.submit, vaccsc.ledger.verify_signature, vaccsc.cli.main) == originals
    values = tracer.values()
    records = len(checks.parse_log(data).records)
    assert code == 0
    assert values["ledger.submit.calls"] == values["keys.verify.calls"] == values["keys.sign.calls"] == records
    assert values["ledger.submit.accepted"] + values["ledger.submit.rejected"] == records
    assert values["keys.generate.calls"] == 400 + 2 + 1
    assert values["actors.run_scenario.calls"] == 1
    assert 0 < values["cli.self_s"] < values["actors.run_scenario.s"]
