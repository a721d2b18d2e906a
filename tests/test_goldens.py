"""Golden digests: one scenario and seed always give the same log, byte for byte.

A change that moves a log digest here changes the log format and must bump
``CONTRACT_ID`` or the log ``VERSION``. The report digest pins the run's
report as well, so a change to the runner cannot move ``truth``,
``evidence`` or ``assignment_table`` unnoticed, and each log must pass a
real audit. After a deliberate change, ``PYTHONPATH=src python
tests/test_goldens.py`` prints the ``GOLDENS`` dict of the current code in
source form, to paste over the one below.
"""

import dataclasses
import hashlib
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from vaccsc.actors import load_scenario, run_grid, run_scenario
from vaccsc.contract import canonical_json
from vaccsc.logio import audit_log, read_log, write_ledger_log

SCENARIOS = resources.files("vaccsc") / "data" / "scenarios"

# (state_digest, events_digest, log_digest, report_digest)
GOLDENS = {
    "honest_small-s2": (
        "99a2a0755068a9378e18804eb262e09e8aaceb9287d182e77087e3960fac2f37",
        "83de694be26e95349e9b6d1e5408a19c4c34aea1d2aef0bd40dc7c9aba8771b7",
        "5d170c2bba43ea131d10a1aba4b70ea57816c4247ac55cb91c664381303ba299",
        "fa5b33b813f5188bbbab11f03a4de7a5af7e32ddc3c4c3c06e6fffc303323490",
    ),
    "honest_pfizer_like-s1": (
        "d8c1553923f8df4fb409c6d455d2df155f0a5a69ce983d9ab4e0010496d2f8c1",
        "4d9e12777865e15fd9cb309662825855a1e0f9bc7e1f7f52ef61ceda926db955",
        "944c4debbab8203b2fa44e202d300869a1a488662fea2768b66d3ae126bdef39",
        "237ecb88f8e14f91bd067cafa24fcdadedfcedf1a022dbea7d0b0d0950471a5f",
    ),
    "grid/honest": (
        "01b6b931d7fd5bf48b2f7f4293210e394e40f760f06700a9e9837fbc5f35c712",
        "6dbc4180f93fbc5d343e2be602eaa121d18f7682d197c309002d669b3b988d29",
        "26565422e0b99d5d3e77b1329ec0f3fbffc7497847d48166557058aa81d27222",
        "7e09c467c59445614a8112445ad3d8a0581eb1b3ec46b6e2a5a390af0d316ea6",
    ),
    "grid/omit_10": (
        "a61db5cee70a0b8b78fa144a53da0e0a4763090e2959e1d4bfd25c1dcd494a40",
        "e966cb8f6734adb974b86c80e92440ee19d7d7a4214834180624b7684c247e2a",
        "cfd395f218482656306eea9a6663cfb77abfc1af5586f91686c21596c117ec20",
        "2bc59f833c5677af361e806d407ff6239a1833968bf5d254b142b4ebea9a1b52",
    ),
    "grid/omit_25": (
        "99ed38c458f1ca71a1451a98d66e0410ea239f758e8dc3a3e55782978180cceb",
        "bfcec571cfe2227fc132cb8f9fdbb4e6f055524ccff3693f76cd7b268e533580",
        "8cf35a36ab3f1bdd15b9c718011b6be1f45407e7f3785fd981f6eb60da1510af",
        "e73337cb84c2672f073f0786835a381638e7f89932541ad0cb05356b560da2d5",
    ),
    "grid/omit_50": (
        "e7c37cd7aed92268acf7a1ac76863a212095df441dd908d0d5c58eec1f6e2723",
        "7b63bd03a719fddd09d4959ee55c0bbb4d3760ad3f0758e65a891bf3b0fa2489",
        "c397b554ba34484d46bb25a526e44002884f29f5abf6a80149aad16ddbcadcad",
        "5d9d976835b11f1149adb109878ba2b21dd32b6bf80878cd0a6f2ee9237f5dea",
    ),
    "grid/forge_1": (
        "dfa6c5878495edaadb597de761ba93b1f1619159dfed1bcdaa9da51932ef4839",
        "b89c4af9fe6cdbfe3326a474e43820b0a006a6406438c4afebc692e6e01decf8",
        "3bc5faa1480afd50154f79dd1932c70f425c6ca99234746f7a71ede9d214414e",
        "bd67c1707f70e77e9cfdf860799518475f1e4394cd1b81cbc2256f8808131bd8",
    ),
    "grid/biased_distribution": (
        "70c5e04d080b13d6c6466f9c8a3cd7bb7a6ae88ad17de375c9fc43b8ddec5ded",
        "d86d7642f17d520e26e95de48ae0b466669f79873df228d6d392004a1115824a",
        "ca1e7a384125387b2260b198e37b52a1b79e1fb5abd32159c392038783135f92",
        "0e1d5ddc5b6f9067953f265b4c8870e049e0834d4e71fd22e57312c108a58b4b",
    ),
    "grid/collude": (
        "e2afe8aa3a372242950102d647f145e059c474641fde9adf9fac18863ab0f52e",
        "bc4202b0c619bf14a59a8f19532e3ff03114ed62180a0577869d0a49828dfa55",
        "525bcdd6a43526ddf8f4681a6645d7c3f1227c5f85b0cce0a8eb0ebf6b712f1c",
        "530c8bd70ee65af13c797f9c8008b0851cdf06523bc1bb541cfa301ae7a26efb",
    ),
    "grid/false_sick_5": (
        "1730888b2be4835230484aac52c6f22061c4edbedd977cf1a40da637168e3de6",
        "ad7f33c4b701de6244925a5084f8f3440f3aa4167439d67828b6d65e6f4d7cad",
        "d0377a156b1b8f8f1a45e98f563887de730b94c14e26235570fd3538075392e4",
        "5cb9de62fc167d549ad6c06ad77c125e62d2b9a0fe6fe4c392f11e672d0ff9b7",
    ),
    "grid/never_report_5": (
        "d64f5fd5c9419018857cbf5e3311d0bc5acac19051dd3f6c7e142e650e67655a",
        "f51e2ca34bdfd5a7bb09c3e130806443f08352bff26b7b731a77fb60dc68026c",
        "308f64f78511d2a34bf15e7c11c8161e0008c4874623c7ed2e3d741455c180e7",
        "28176cb3979a8fcddb45acda81623ee1e261bfba1941ed9aed623a3d93b2277d",
    ),
}


HONEST_RUNS = [("honest_small", 2), ("honest_pfizer_like", 1)]


def digests(report, path) -> tuple[str, str, str, str]:
    ledger = report.ledger
    write_ledger_log(path, ledger)
    log_digest = path.read_bytes()[-32:]
    assert audit_log(read_log(path))[0].ok
    report_digest = hashlib.sha256(canonical_json(report.to_json())).digest()
    return (
        ledger.state_digest().hex(),
        ledger.events_digest().hex(),
        log_digest.hex(),
        report_digest.hex(),
    )


def honest_digests(tmp_path, scenario, seed) -> tuple[str, str, str, str]:
    report = run_scenario(load_scenario(SCENARIOS / f"{scenario}.json"), seed)
    return digests(report, tmp_path / "run.vscl")


def grid_digests(tmp_path) -> dict[str, tuple[str, str, str, str]]:
    spec = load_scenario(SCENARIOS / "adversary_grid.json")
    grid = run_grid(dataclasses.replace(spec, seeds=(101,)))
    return {
        f"grid/{label}": digests(report, tmp_path / f"{label}.vscl")
        for label, (report,) in grid.items()
    }


@pytest.mark.parametrize("scenario,seed", HONEST_RUNS)
def test_honest_goldens(tmp_path, scenario, seed):
    assert honest_digests(tmp_path, scenario, seed) == GOLDENS[f"{scenario}-s{seed}"]


def test_adversary_grid_goldens(tmp_path):
    assert grid_digests(tmp_path) == {
        key: value for key, value in GOLDENS.items() if key.startswith("grid/")
    }


def test_each_coin_flip_is_stored_once(world_cls):
    """A session keeps the clinic's value, the patient's commitment and its
    reveal, and nothing derived from them: not the XOR, not a phase, not
    the shot it bound."""
    w = world_cls(num_shots=6)
    w.assign_all()
    w.bind_all()
    contract = w.ledger.contract
    state = contract.canonical_state().decode()
    for session in contract.sessions:
        assert state.count(session.patient_reveal.nonce.hex()) == 1
    for shot in w.patient_shot.values():
        assert state.count(shot.hex()) == 1
    for session in json.loads(state)["sessions"]:
        assert not {"result", "phase", "shot"} & session.keys()


def print_goldens() -> None:
    """Print the digests of the current code as the source of ``GOLDENS``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        found = {
            f"{scenario}-s{seed}": honest_digests(tmp_path, scenario, seed)
            for scenario, seed in HONEST_RUNS
        }
        found.update(grid_digests(tmp_path))
    print("GOLDENS = {")
    for key, pinned in found.items():
        print(f'    "{key}": (')
        for digest in pinned:
            print(f'        "{digest}",')
        print("    ),")
    print("}")


if __name__ == "__main__":
    print_goldens()
