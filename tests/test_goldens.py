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
        "a93f6fb165426bbb899b77b7df88c40651a341c3fd000d453e44922473aba68d",
        "d33ad2de1b4a4e7d1951aaca7df165b1039db4e58b8e745253d271ef444e48ce",
        "09266cecfa005bbcd175e1cbb4b1b35cb601e7be87d59efc9d162182d14d2380",
    ),
    "honest_pfizer_like-s1": (
        "534fde5fea05310c92798a7fdf1dd19a576d766d46b09f7668cc29b136451d4f",
        "d668f95d5bcfb95ed6335b2960a39b607990f1edb3e4e29ec21381e539300185",
        "c78f2a25def7d64048e6bcc6acea290c2d45a89547ff258b4c40100c071f8cd6",
    ),
    "grid/honest": (
        "13c055cfe6fcf586b999ab34f9a2c31e5652c152503b5af1de62a340f4d60809",
        "c3c44691c4964339deb7e634124ea9586eee26d182ea8cd28b0d9fc1f8550f34",
        "cd51b155adc77771862d4717ebfa372dffe4902726d86740f83829c4dcf8d5aa",
    ),
    "grid/omit_10": (
        "bbf883c549c57609913672eb3c9eca73d9a5436498cdb5bb8ff1bb3e9629b2f8",
        "4b1d8ed2e0460bf069ee62dc28163632c430d12402778d4afa7af35dc084186b",
        "456e76b0fdcaff2baa010f32285ac24f39f87064ddeca015b94953da1ea5b5b3",
    ),
    "grid/omit_25": (
        "3f20dbfb024dbad9f212797f830095007c0eada7e96c10a41b894f77ee5dd512",
        "3393977d5712695bb17c6f9ab0d02ee76ecb3e9d7da579abdc91e8d6b2b27fe7",
        "cfc7c458bb0584d8a996fb0b6f472659a2e5500857a42c88e2b0c455332e1abd",
    ),
    "grid/omit_50": (
        "124dddbedc144953932dfc6ca24032d3f444185ebb758c747a48f4dc7d784cb7",
        "27033b289b298b606bfd39ad6e697583c9eee2ad5fe3c433c3df7e05233db16e",
        "2e0595132701e4894b8a2026ccec94b3971370bb61e480b7b3384827879528ba",
    ),
    "grid/forge_1": (
        "e43d7e24653c1fbdddb8ec2b706c81c7f79a59dd6f06b9a02934a34a95c3edae",
        "1113751b07a064426d45a70be8164e549cb739d57bb44f9b0bc0c4399e1700b3",
        "18ee37408ac28cd3cce1ff188f50909c48bd49d705c7c874f7a134ae6e5085df",
    ),
    "grid/biased_distribution": (
        "2ca1e34c3d3936f927e52f49175ee5dc490f158fa6fde0441c4ea0bf4facd583",
        "4f40db783772c15498d7d3bd7ea4d242833ad6cf05d3db38f35a31e98fb9f363",
        "c2332017701b7725412267c8e56a4d48a0cb3baf128ae22927bc587466ffa152",
    ),
    "grid/collude": (
        "a4fc0407b22300e8a94db8bacd07a7bf0d88548ea07b3aefc2e8a4cfbf2a23d0",
        "1868376a2ab0734f2b68115fc0c24204011849470e207a78b1ec3c3193620836",
        "daf26ebc2a96980826c653c99093a518e5ddbb0eb7ce1213f8f8bf27b2ce3f68",
    ),
    "grid/false_sick_5": (
        "b885200288ea54880ecd37013e6024073b2c7e932dd6a2ebf0ccd3d894904240",
        "3d4fedc2b0ba16738bdca898f5bf951a9db33576fa890fb5afe8587d5eb0c47d",
        "6c827bbfd6ed4f676b80ed7aab880969928ecd7600804228a00f640a325fbd10",
    ),
    "grid/never_report_5": (
        "1ec433fd31f1f2bc9e1efe9c9df5d2c0c47d1b54d0327a834d2e43675218aeca",
        "15bcc99d1c731ef4032193c78b82e6f6106f5f5e8d2d3d787c49f53f895d2843",
        "d7f82df0d0df9b95cade11a72d4a6e16026f33c0d68b6764956205f378bebe1d",
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
