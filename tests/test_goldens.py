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
        "b24a466c1e6cf60de37da2ec45a57c9954afc4c3edea5ea228bf4e34a398391e",
        "71f065b8c2c2f9d269a1b8f979e68182ec67a1b338e7ab41191809f092622d9a",
        "9e49f377e70baf1432bd770677fc8d90677030b3a4664fc1e895a8c26b43b059",
    ),
    "honest_pfizer_like-s1": (
        "0d8a70bd719aa27555f94333bf1f5fa376c3efa3ea577940df6d312011ffe074",
        "7a692c8c1c8f24571bac62cfefc3135c70e2b5e617f4b28235a61b7da3dd0625",
        "4be24c20e7f8cebf207f5c862d4a0b5558b407e03288659efbcd38753ed672f9",
    ),
    "grid/honest": (
        "01658448f75b0025cd667e887844e1c8c87bb3cec6e6c2ab7602ffaa8e6a3bb8",
        "6a95bb9a9f64cad353f749eb703ba86df11f2434b05d91523060002e4439fa5f",
        "4b469802839e0977f5a8cb9c2e7714e870d92c150d5f2e5c1190ac072ec9e4d5",
    ),
    "grid/omit_10": (
        "b74057361aa1fd78e36f59b7543e924381010b7b32f8f285c0415e35970dd3e0",
        "42f1182f6b44749109b0bdd207a8ea50bbb3c946d71c841b4b3c681ffa373f66",
        "2e13b86f60238c82fc0cf7487cbce260641008d2072e1fdd772dca0c353bfeb5",
    ),
    "grid/omit_25": (
        "e1003230ec7ca501c927172a82c27d89353aa7506f9f4aa963ceb06c2d5705a6",
        "e9070cd30b20405f149fad0ffc70e4a67db91902ce23b33e9bb2a42bee7b1e77",
        "b696fbf4d7dedeaac4d7fbd03e09c2c6de8fadeb550a2899a3a0852ba61bab2b",
    ),
    "grid/omit_50": (
        "ccb75c970eb6cf89b96b2541eafffa8f555e78f7057f680c859145714c6c79be",
        "003b242bd82d6995a2d4e7dc778980f53f6c69d0bcec38ee8d2b09a537fbee18",
        "464aea3649b7db9da08311a7bacf124b105746ad0665651e67951c4a683cb40f",
    ),
    "grid/forge_1": (
        "e496626e5b517bf8a89330a3271ff7c1bab33dc14bcbe3c6cff6ec34d2bf619a",
        "56bf27a567f4561af14a963f7169364171c972e0a612b5142c2d21eee8841197",
        "cdb4635c1cd22ad5e6785c0ce1d715d0af4003838a2e1eb4f74ee1252b4d5d59",
    ),
    "grid/biased_distribution": (
        "59ea66b8df3d927f59b502ba5898822dd32b6a7e06758e4271d2665934335172",
        "7e4243f110f6cfaed29d099eaffb1774ebe1d5d827bc72004e400d02d446e534",
        "45c49908d29b6d48c2fff02548b40cf6dd60494257ebd3381fcb3ca8ffae5354",
    ),
    "grid/collude": (
        "41c1a4df3c7fad8bda0b4917a18c4c89e5ffb85286650564cc39f3f9d6ea7a01",
        "6e0482aaeecbf78e088c345dbbaf336dec013221505ae784c65227ade1e15a2d",
        "5abf119d88fc03fe179c81c5d2b26d0432fcce436d0f4634edef965be1051dcc",
    ),
    "grid/false_sick_5": (
        "757efb39de1b5e32b82f0b4c26e89e5097ae39888f2ad6f02feb9cff2673030a",
        "e3993d7f4be8b9321bd9e3b45c4e0c2879312235522345230c2750a5bd9b53b6",
        "ae10f14b496867308d0958ddcbce2c20f15ea8cdd1b0f6d1c151b99a2ceca32e",
    ),
    "grid/never_report_5": (
        "4b023b331b5894d813c8c22f3eb12cb429b194d8ec4d28a20a24e756296bfa8b",
        "f5bd4c9578972164e226ace6e9c05b80fae51fc28423f81798668dfe21db9da3",
        "43d60cada4308ca12c695edf410fae0fb42b02c89f56feddaa92aa59fbbac5bf",
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
