"""Golden digests: one scenario and seed always give the same log, byte for byte.

A change that moves a state or log digest here changes the log format and
must bump ``CONTRACT_ID`` or the log ``VERSION``. The events digests are
older than the ``vaccsc-2`` state layout, which left them unchanged.
"""

import dataclasses
from importlib import resources

import pytest

from vaccsc.actors import load_scenario, run_grid, run_scenario
from vaccsc.logio import write_ledger_log

SCENARIOS = resources.files("vaccsc") / "data" / "scenarios"

# (state_digest, events_digest, log_digest)
GOLDENS = {
    "honest_small-s2": (
        "877701512a81f210cec54ac570bf3687ab2f3b781e573929de502872047d99b8",
        "ac998d37045c203e8df977ac3284c6507f3996a792b6000e23a6ca952c86b034",
        "3cc71baee59eef7df8637e704ce0545ba7dca124d07b83fdd0f057eddac1e164",
    ),
    "honest_pfizer_like-s1": (
        "fabf0861c4dd1025527051874c76f48a060b483d4ec73824329eb4ba2b9b7347",
        "21dc995e1fab29d5c961e1ec0611585384a1d56aa53f2d5f66290d89089cf2f8",
        "0dcc3b8a079db687c8dcf437013ea5263985728b6fe3b669dd0eacac334cc154",
    ),
    "grid/honest": (
        "993f72d0812ddb8098739a503ab9b37acef04ca34032fad1de90891adaa4f65f",
        "da3677a797ab4d0458864967521063b6ad693a366e3daa69e3977c9c0cee5bd0",
        "9f58ceb3bf7eb48ca86342fba8ba8e06b41f75b674a9bb5586959b42f5113550",
    ),
    "grid/omit_10": (
        "2ccd59eae64d86632d6b5788f72af0d47d46b5f8fe58816347b1121d570c5310",
        "91555ff10588fe4c36f77c8020959609e9f4ac3e2bcef3f77c117d6d565a4f89",
        "56f4118949661f46122d5063e9ac624abc6a6f28da3e8c4956fc9a1e782828c8",
    ),
    "grid/omit_25": (
        "872d2e5ec6d6a951342a2f5d5e4a21c562f9804c2a977a01db2c7328f09ee2b9",
        "08f04eb95832e005cda74ae28970e164d4fcc13b353842ab939adc11b3d2191f",
        "c163537cf79e0e6091700cdd9de437803e1ce83fe725d6114c691b6586b74046",
    ),
    "grid/omit_50": (
        "32bba97f4abeb13cb2b06698e52bbd8bb926f8e449d9a7c124f2045489a175f3",
        "ac7e97955307e141efe751ca360b9b7fb9958415225925b8a0ee98660d9841ab",
        "e5c3f33c43dc8807ac46ae4a0bfdb8dad9699d653a39bb398919cd2c6956f169",
    ),
    "grid/forge_1": (
        "e14814cf63d3a3847024e0a5f4a690dc14d01ea344e2af945cedf659c934f3d7",
        "5f1a52c4d2379cafd8546ee6bd7fd9cc24036e43743012660954e4334e9d928f",
        "fc3aedf13f0ede3a88b10011d5684b969eb06a91c7deebf6bdf82593d5e08d21",
    ),
    "grid/biased_distribution": (
        "259b03950cd7c38194f2008fac50be15c8ae57ab32b0101cf7fa59c761940ae1",
        "c946c44b4a520b87006595805fd6c807dd89c9171630d0656133de4ba32dce87",
        "63666b45771505ba9d720bfb61a3969c58cffd24368f1ddee8bc258030f223d1",
    ),
    "grid/collude": (
        "151975e465fc67e0f53fdb77da72ef7a98ee17c22f078a7c7b3711e4c68b1304",
        "0673ed778a99d3fadd626955c86e381834b7511b69aa4baf39c22603c19b20ca",
        "90087659b0d7fe6f6dbcf97c975a4f83973de711f8139ef3d5147185590640a9",
    ),
    "grid/false_sick_5": (
        "d1a68c8e519f2eba976dbc5ca45c5bdd68513ae9ddf316d0f5d464d372735b93",
        "4bf0204d5fb8b9c90d02fa48d9cf7f9ec71bd0711353a70abe3ffcfe93f6f0b5",
        "4e08e4b00bf70077e438709658c730c453a84eed817be1b77fb552d7ee743f61",
    ),
    "grid/never_report_5": (
        "a7b4766c98e8a77812c2a919abd8699d8aa66e7a8337f203085056630f8417c5",
        "44dab176b23e47791c5f767c465137243a460965903677b8d67526f6ec7a32c8",
        "2b9fc547191f2d2e3481dd467f04f5f7de955f70e04c9bcb65c97f5887f5fc97",
    ),
}


def digests(ledger, path) -> tuple[str, str, str]:
    write_ledger_log(path, ledger)
    log_digest = path.read_bytes()[-32:]
    return ledger.state_digest().hex(), ledger.events_digest().hex(), log_digest.hex()


@pytest.mark.parametrize("scenario,seed", [("honest_small", 2), ("honest_pfizer_like", 1)])
def test_honest_goldens(tmp_path, scenario, seed):
    report = run_scenario(load_scenario(SCENARIOS / f"{scenario}.json"), seed)
    assert digests(report.ledger, tmp_path / "run.vscl") == GOLDENS[f"{scenario}-s{seed}"]


def test_adversary_grid_goldens(tmp_path):
    spec = load_scenario(SCENARIOS / "adversary_grid.json")
    grid = run_grid(dataclasses.replace(spec, seeds=(101,)))
    found = {
        f"grid/{label}": digests(report.ledger, tmp_path / f"{label}.vscl")
        for label, (report,) in grid.items()
    }
    assert found == {key: value for key, value in GOLDENS.items() if key.startswith("grid/")}


def test_each_coin_flip_is_stored_once(world_cls):
    w = world_cls(num_shots=6)
    w.assign_all()
    w.bind_all()
    state = w.ledger.contract.canonical_state().decode()
    for session in w.ledger.contract.sessions:
        assert state.count(session.flip.reveal_b.nonce.hex()) == 1
