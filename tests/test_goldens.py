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
        "2ea4bafbdfdaf828e60787913445e517ae18df608ad18ab4bb4f0f3f4ab37004",
        "71f065b8c2c2f9d269a1b8f979e68182ec67a1b338e7ab41191809f092622d9a",
        "c2a5b9bea1ef8a18d30e33c584dbbf896bc94a43f5bce6b74544004b601691be",
    ),
    "honest_pfizer_like-s1": (
        "a7347aa7b2f7920f6de10556986e37c6a7a563a56191182ac6a53bbef6184874",
        "7a692c8c1c8f24571bac62cfefc3135c70e2b5e617f4b28235a61b7da3dd0625",
        "3b598c3892bafa7434e7e6ca48cea1fca7754f61d9496916efbedcbf3cb07a1e",
    ),
    "grid/honest": (
        "8ea7394ee28015c396dc19f0fd7eedfc947079da988d5ac399bc44903542d6c4",
        "6a95bb9a9f64cad353f749eb703ba86df11f2434b05d91523060002e4439fa5f",
        "691b12d07c26f622626ad9866d0de5b5b7d6804c80078df293888b49ea0c823c",
    ),
    "grid/omit_10": (
        "cf430b1e20db77194932c31be36f35a21ab3793f08eb83cb3be652d81e130727",
        "42f1182f6b44749109b0bdd207a8ea50bbb3c946d71c841b4b3c681ffa373f66",
        "89c7a6e0da85c18bc91bfa72a3674637e78c1caf8ac290d1216e5ce28bbcd05b",
    ),
    "grid/omit_25": (
        "b6c4c68fe3ba74e3bd3fa8c3d4af2d68fda079fbe45b89e1a04037ac5cec8708",
        "e9070cd30b20405f149fad0ffc70e4a67db91902ce23b33e9bb2a42bee7b1e77",
        "939831aa57ca03fe478dcc564cb354fcdcc92f3f00b64c051e9bf9693853815a",
    ),
    "grid/omit_50": (
        "8e39753583e5bbe117a0ec1c14ad8051a84fc8118b68afa84836d8f60d5dac54",
        "003b242bd82d6995a2d4e7dc778980f53f6c69d0bcec38ee8d2b09a537fbee18",
        "6fe3346e56bae77ed442a5345481d892affa50e3a9ac6eb9bd437eebbe7e41b3",
    ),
    "grid/forge_1": (
        "ed480311d77de936a3199d7e68d363b53eb6d0c9ef51b1886075601ff6915818",
        "56bf27a567f4561af14a963f7169364171c972e0a612b5142c2d21eee8841197",
        "be9796ce96530381314bf1b8cf77b148a01731c121924e3b494096413f71e320",
    ),
    "grid/biased_distribution": (
        "66db2a44a48e838b5b69948f14c32c249976adbdfeb204715024fce35455404a",
        "7e4243f110f6cfaed29d099eaffb1774ebe1d5d827bc72004e400d02d446e534",
        "47e718ebcd1293bb7d623e9cda06c8b126799434fd89492ea99425d108458e44",
    ),
    "grid/collude": (
        "dcee3f2722a3af6e947b1047597560ebfc6df71bb1ed70ba1df50f1cfaf27c23",
        "6e0482aaeecbf78e088c345dbbaf336dec013221505ae784c65227ade1e15a2d",
        "5c81e6af14bae2eb63980d96039ac06dda97c9caadd7d9b3e9aa696f2df7a15c",
    ),
    "grid/false_sick_5": (
        "884a825897742d7e6fa8a241807d9988cf021a42a5fd90825a767809a46a2b3b",
        "e3993d7f4be8b9321bd9e3b45c4e0c2879312235522345230c2750a5bd9b53b6",
        "9a484820b0a6358dcee9141ef3a42bec0cd9881e372063ee5f7ba7aa8283befa",
    ),
    "grid/never_report_5": (
        "f1d218c6c9ad0b203040cee372d05de5b2e54e18e7b8eb8021b1ce2bb64157f2",
        "f5bd4c9578972164e226ace6e9c05b80fae51fc28423f81798668dfe21db9da3",
        "6b0b94ac4052a10b5b4a2610cecfb1c0b5f6ba787c3463871a319b145ac748ce",
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
