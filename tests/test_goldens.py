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
        "d9723f4bcbe044bee260655a43bf9df47c78aa5458d9a9cccd0b2d8921b943a9",
        "d33ad2de1b4a4e7d1951aaca7df165b1039db4e58b8e745253d271ef444e48ce",
        "d939034713b101d170e24863a3ba7443722946dc7d75805c6e50220308c73616",
    ),
    "honest_pfizer_like-s1": (
        "443e4d89e760186df5c71adc392b5b3d6842d1a3274326523abee149e6fb617a",
        "d668f95d5bcfb95ed6335b2960a39b607990f1edb3e4e29ec21381e539300185",
        "35bb8a9738989e882da870fcf429873d810e76d30745e7e733560d3c06886cba",
    ),
    "grid/honest": (
        "7c4b8e1ae5ad8c0f2116c136f775af4c7c2262e4501eb9394f1193c7f180e769",
        "c3c44691c4964339deb7e634124ea9586eee26d182ea8cd28b0d9fc1f8550f34",
        "8277b5fefb067e0078266ba20b929081df7f06ef3dfe4e5fad4a28bd851dd142",
    ),
    "grid/omit_10": (
        "a6151c75d6e7debaef2cd8bf6acf8c04ec2ea2743b9f07fc0619e998584d7743",
        "4b1d8ed2e0460bf069ee62dc28163632c430d12402778d4afa7af35dc084186b",
        "086e8c8d88d093cf0d15817989aeb7ceba9753b3d33fe2a1c2147d81c2ceb0df",
    ),
    "grid/omit_25": (
        "5b9813e896c5115c3e59889ed9c388e17b8a375f77fd88b553ec23cfb204a6e6",
        "3393977d5712695bb17c6f9ab0d02ee76ecb3e9d7da579abdc91e8d6b2b27fe7",
        "7428de673b96362e1b17c84c55103a64ddb4046e5e60571f07bfd6add15fc391",
    ),
    "grid/omit_50": (
        "568233f78bf171f8912832f8d624c328e45eed7a7f58cec21ab58f4c5ee0c806",
        "27033b289b298b606bfd39ad6e697583c9eee2ad5fe3c433c3df7e05233db16e",
        "46feae56e02f4e1c8c5e2bec297bc663d8db936f0b78184ebe62bc506ddffefb",
    ),
    "grid/forge_1": (
        "320bf87055b874ed42bbea535545f1d2dcadf0d720f57c5a69c6e77f313e516b",
        "1113751b07a064426d45a70be8164e549cb739d57bb44f9b0bc0c4399e1700b3",
        "1213e1e384de76ec650af5c96a9a8b1792607f26f8903a707951bb8e2f1c514a",
    ),
    "grid/biased_distribution": (
        "c9d2047e0fe9a3b9a5a0bd1d4ee483c3abc5cca172a2f7fdff84a8e3fac67836",
        "4f40db783772c15498d7d3bd7ea4d242833ad6cf05d3db38f35a31e98fb9f363",
        "159884af7f4ce3fef5baf4603d32877e17f1139fe87c060538a43bab64c25839",
    ),
    "grid/collude": (
        "a688464e1b4820b21c4ae5ab3402f79e6b623988cea6a11e30c07662a8e3d9cb",
        "1868376a2ab0734f2b68115fc0c24204011849470e207a78b1ec3c3193620836",
        "d0830b97cdee30ee0ff3bccc32386663d083c5ae91fb18a76d39fa00f76e2818",
    ),
    "grid/false_sick_5": (
        "373540af550fe2ff81eba336dd4e598c671f20118da9b5850126ea342447eb15",
        "3d4fedc2b0ba16738bdca898f5bf951a9db33576fa890fb5afe8587d5eb0c47d",
        "bdaa468ed4403bdca59bb25b37b85361a0f9cac6b74460d2e9a3efdd2b5b7e6d",
    ),
    "grid/never_report_5": (
        "96ebcb2fdf579e78868d817d7afb9cf6b9130c92c35e61a34d339efcffa21aa2",
        "15bcc99d1c731ef4032193c78b82e6f6106f5f5e8d2d3d787c49f53f895d2843",
        "1f0aca243ab2a81c44890123a56b57abde4d7a817769dfd8dd5a4d3170b8b747",
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
