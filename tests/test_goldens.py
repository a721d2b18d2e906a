"""Golden digests: one scenario and seed always give the same log, byte for byte.

A change that moves a digest here changes the log format and must bump
``CONTRACT_ID`` or the log ``VERSION``. After such a deliberate bump,
``PYTHONPATH=src python tests/test_goldens.py`` prints the ``GOLDENS``
dict of the current code in source form, to paste over the one below.
"""

import dataclasses
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
        "fb23e7943268bff5e38f50429565725a584a109524aac4cec04b41987fd22582",
        "da6ebf826d5370340947fe64dcda6832bcdd38d7c8beaad800bfcc2fbb1dd633",
        "caf3a0a3aaa3758efee397dff703db75499920bc1932c6288a75a1037f9351d1",
    ),
    "honest_pfizer_like-s1": (
        "f4e457799866a73454db33e7b5f84a84af86a91ad8b24880843bb301f67f69f8",
        "7daffbfa41e988992bde820845cffd8ae1ae4ca93b693a83fa82ef12b9f3a143",
        "9f91159f782f9cb16ad6a2ae68d09faa23ee7d4258358b4cfa860a3e617dd955",
    ),
    "grid/honest": (
        "7955bce9d71b435309052432f7493b1289b1a48dda8a79819287c8147149501f",
        "6cf929d6cd6877a702a8564d2a09422fc209a36b80715a4fd1a35dfae02eeaf3",
        "52f03de13737ab62f004a89c6a92f6c499bb2647e58f4e681807571545a1c467",
    ),
    "grid/omit_10": (
        "8d6d4785ae6cb9ff97d4b813883f3167e72e831488fbef23365deb80bb47b02b",
        "c9edecc4ec7ce575af25428101755defac4ddbd5184153e50ffe80f65e6ef8d2",
        "79e99662584817fedd4db02c7407379c58135aa8fc0675359dd09ffac59308cc",
    ),
    "grid/omit_25": (
        "d7a6b643c8937edd3a34501a95ea57a3e157e76d496085fcd36124aa17356425",
        "562b658b7793cee946f4232b82d4dcabefb78a0e7792a0d8e09f9699e9e6467c",
        "0dad1b49c8228e1d0268211997a4ff5f6063037dc363f856564a716250720db0",
    ),
    "grid/omit_50": (
        "b8ffdf46857d5b6568e40b479e63625dafeeeefe5fda951eb67ee7df2472d902",
        "689d01d6e33b4b3f821e03a54e52fe614c3183554bcc5197fa39068ebd36bcaf",
        "32ff84149ae93f1e4d40f3199a922c8f5a0b52a30b53f52b4a3fbee13a6a5f66",
    ),
    "grid/forge_1": (
        "0f6a38e0c1aebef23801cc9918f1e963264f4ff05dd7d3948e10e70ea704e89d",
        "97aecca5da256e865937ec8598a04ae368260d271da6911d7cf621ec2895a12d",
        "1923ee66e997b7c7cff5f73a14b9bbb9b5a9aff74b9e87fe722e27b34f5b5ced",
    ),
    "grid/biased_distribution": (
        "a052e71eb2bd17b8cc9599eef7434d9025db8fcaad9a6399466bfc2daf48ee58",
        "93edf39d19fe83c7be654946356ab2f9708e5659bb039b1865f843ac0777ac9f",
        "d49390c5da3ea16428d869eb505b16ddbb802c024d23435c3867d274760d60e1",
    ),
    "grid/collude": (
        "ae4a4794f8fdf54a668581b4fbf86fdc5cada57f5e79531794ad91008093e530",
        "71cd9bcac7624cf6dcdcec624b555faa405125cd2949a789bde75485be7eb4b6",
        "150a33fe8ab98537fbdb2abd494b1e4bc602308d5a49b440bc6a920752fbe0e6",
    ),
    "grid/false_sick_5": (
        "e86e290550e0c2938838a774a3a94530faf51c7d3d04bdf2112961dcd0060c4c",
        "832c0c88d12a7cb595e88959a33946be31a1c3397040c6760a706647da426d24",
        "d77c7dbbcd07d7c570a411080bd196b60fecf3e0cf2a7b9271d53fae359c43ea",
    ),
    "grid/never_report_5": (
        "e3af9de8b2d8d199a8b1c3c2c5c269e221affc823ce908b0f31654427b4750fc",
        "8d0af1e3e4f92bf0d23f538b61a2be9c50d5e8abb012308644a210576abb5422",
        "d432ed8272723a11f2dbfe787dc9845764ccfa24aba1215f1f1a54d707de1030",
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
    w = world_cls(num_shots=6)
    w.assign_all()
    w.bind_all()
    state = w.ledger.contract.canonical_state().decode()
    for session in w.ledger.contract.sessions:
        assert state.count(session.flip.reveal_b.nonce.hex()) == 1


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
