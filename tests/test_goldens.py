"""Golden digests: one scenario and seed always give the same log, byte for byte.

A change that moves a digest here changes the log format and must bump
``CONTRACT_ID`` or the log ``VERSION``. After such a deliberate bump,
``PYTHONPATH=src python tests/test_goldens.py`` prints the ``GOLDENS``
dict of the current code in source form, to paste over the one below.
"""

import dataclasses
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from vaccsc.actors import load_scenario, run_grid, run_scenario
from vaccsc.logio import write_ledger_log

SCENARIOS = resources.files("vaccsc") / "data" / "scenarios"

# (state_digest, events_digest, log_digest)
GOLDENS = {
    "honest_small-s2": (
        "cb3b1ac4385d0e2b6606298edf8312577bdd1a5e3b883deeaf708cb434ebe04e",
        "4903b916db9da7592e12460f1943e4d5f4c388289e0273fb02f47de45d71114b",
        "2fddc0963eee2a3570ecf1b53f728ee5a5cf0ac49c4993f0d6ed5f0fc39dfd55",
    ),
    "honest_pfizer_like-s1": (
        "3243db76c22d54929a671ea4f1c09b5bc8f5c0c10258066ea92deb477cd99e50",
        "7dd8ab9267c90f4d9fd37ab15e211b824034204d73834064c6eed6f2e2a5b4bf",
        "bbe5c3faea55aa5e65a38c70f0be34e048caf189ea274a46ac5a2151f2453348",
    ),
    "grid/honest": (
        "ec9835ea09bc44abd9290d88d7e321d9c764a37310fb65ca48d3b249efca3c71",
        "21b760e0d8ffcd0c7ed0fc6873f704d2347533ec9cda2bad84a66b28cb1f7cbb",
        "4e561e95217e1469d9dcbce9ca80d9b9a146b42daa66dbc517d2619903fb6d66",
    ),
    "grid/omit_10": (
        "653c6acd90eb74a203c45cca2280bc72bf46560d1c7b624fd24d2076bb0b2c2c",
        "8daf5d2e5b8c1d86183f530552a1b21fafe20aaf196c296634725989e9e4a227",
        "5fd87eba5063422fb6e2653281c3f481979ae6129231425c7a79d189bb9b0d15",
    ),
    "grid/omit_25": (
        "04acf05e4250a43a6eb3e2ecd7f95be6d07c6b4a2345710ed85695eea3d690ce",
        "fe8613670ae0f0d21fb8550d6998fcba3559c5af618253358d014ff955350f90",
        "9658be82d9801795d7e612dec26c5fc8c3ee574487ace4ab1963ef4bfd8255ae",
    ),
    "grid/omit_50": (
        "a0ee0245e8d805da85ddf473027f9f576c5d5dda9f8bff02d0f0e153ecf8aa45",
        "8501e209e7e0a2484ac0c927b4a727e0843d0bc5dbabd980d4090b4e953691bf",
        "18dc5d24f98db299f948cead2cc1d8f3c4b8e25f71a8083a651d015f4087a88e",
    ),
    "grid/forge_1": (
        "7807d1ebf0300465511a85659807817764783da9642bffbff260fcc4bdb84312",
        "b67fc9ad904a3328df7317c816728dfa831dd77e814b7f29ac6ca50194d27845",
        "2c545469f353e799c28ae8994c45ef1132baa3aae6510be49c63fe353c88506d",
    ),
    "grid/biased_distribution": (
        "9b3024a03cc625eaaf40a73543563cbd47790506d84bb820b432a4357b1956eb",
        "70aa95c5cbdf9d0e3dd5f9fdcedac5048f86e1bf516198c82b85ff56beaace99",
        "e5200ed6d37bdffc093f35d44e1c9d9e0a0d4038dc7f3811053308ae93cad768",
    ),
    "grid/collude": (
        "092769ec885fc7907c8f6cc82012e0e5166cabffdcd2a7ca83b0331919cfe1b4",
        "39e33efa85b2e7551467b766cbe82f31b8858b4c76b2ad0001f2333927c020ed",
        "f3653707e89bd8b46fa43e60da0d7e90e38a0b9d9cd92eabf11e8ef8c3048591",
    ),
    "grid/false_sick_5": (
        "1e9bee2ce3174afc3412c5c0db2d246d29dcd493b6d2b2ba7c8697f9cd9116f5",
        "4983f05d389496b4afe9cdf62e4b3f0e2138a6344c777d938f8911c255e124e1",
        "4d8f5e31c8827b5637cbe2a70c81b299c885cf2a4d04e6ffe18cbc909eefdc63",
    ),
    "grid/never_report_5": (
        "64f3d298bd224e294d216257b161fc0f3d810be51249264ba02faf6b3c483fe6",
        "c371e71b045ea0b58cfa403d1af69c162d62b3a8e9944fead524013c178e5b67",
        "12a69460b45c3a844da1544973e46bd7fdd4e7be5ad5b0aaa778e231891eed10",
    ),
}


HONEST_RUNS = [("honest_small", 2), ("honest_pfizer_like", 1)]


def digests(ledger, path) -> tuple[str, str, str]:
    write_ledger_log(path, ledger)
    log_digest = path.read_bytes()[-32:]
    return ledger.state_digest().hex(), ledger.events_digest().hex(), log_digest.hex()


def honest_digests(tmp_path, scenario, seed) -> tuple[str, str, str]:
    report = run_scenario(load_scenario(SCENARIOS / f"{scenario}.json"), seed)
    return digests(report.ledger, tmp_path / "run.vscl")


def grid_digests(tmp_path) -> dict[str, tuple[str, str, str]]:
    spec = load_scenario(SCENARIOS / "adversary_grid.json")
    grid = run_grid(dataclasses.replace(spec, seeds=(101,)))
    return {
        f"grid/{label}": digests(report.ledger, tmp_path / f"{label}.vscl")
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
    """A session keeps the commitments and reveals of its flip and nothing
    derived from them: not the XOR, not a phase, not the shot it bound."""
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
    for key, triple in found.items():
        print(f'    "{key}": (')
        for digest in triple:
            print(f'        "{digest}",')
        print("    ),")
    print("}")


if __name__ == "__main__":
    print_goldens()
