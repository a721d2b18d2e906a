"""Golden digests: one scenario and seed always give the same log, byte for byte.

A change that moves a log digest here changes the log format and must bump
``CONTRACT_ID`` or the log ``VERSION``. The report digest pins the run's
report as well, so a change to the runner cannot move ``truth``,
``evidence`` or ``assignment_table`` unnoticed. After a deliberate change,
``PYTHONPATH=src python tests/test_goldens.py`` prints the ``GOLDENS``
dict of the current code in source form, to paste over the one below.
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
from vaccsc.logio import write_ledger_log

SCENARIOS = resources.files("vaccsc") / "data" / "scenarios"

# (state_digest, events_digest, log_digest, report_digest)
GOLDENS = {
    "honest_small-s2": (
        "f7d117f3fc2b14251cfc1df7871ae74fc16a5d7cf0ac58786a866ce4d588290f",
        "fa121d4f39e2675613cf7d1e9a3c95e030abf0070b78f2abe049491a7a2e8e99",
        "d702a1862ad7d9faa127e2fb17c4cb918a94eb55081d43d65b9be46aa5763e35",
        "e3e11d378e4515a31e32e4f1f4be64e03e74dcc21e0f79f4807364375c6be224",
    ),
    "honest_pfizer_like-s1": (
        "5dde136229b82650ca3f1539f3ecc21ce442d219dc433e92a6b1f7821b2587b0",
        "12fafced09d147af5c422cdf62fb0cdcf497d386b506973895aa8205e4edb27a",
        "b1213980d6b982ad138c47a36e5a8a9d83bf77fe58c93b3b4e3a58a41ec8a957",
        "371a9e904e64d8bcd9f9feb5fad4cd015b8f15ea9ba90db7e51cb816c81b241a",
    ),
    "grid/honest": (
        "9c883d541536357c2a7ffccc0f0093d18634ace959987df33519e042ea9998c2",
        "81e532a1ac136539353d4bcffe4dda88f76d4f4d9b6de784b2726d3cd6aa31c2",
        "ec17fa40d4f26f9930c0b2a53bbf2f17f0fa19463c05d0a0aa3630f92cae4298",
        "da44479a1ab523be1bf75d750e469a5b4201ab39cb96c896cfe65d0a6db20f6a",
    ),
    "grid/omit_10": (
        "2886d2baf43a9ce269aab45cdf1556cae5041cc800c3adfd0eead0bc29130da3",
        "1ae7e93a0a67362662094ba4336021ea5d8fe1510ac0435552d0fc0714858977",
        "0410d78c8ffe8077bef667ce275098a81417b3737d27c66f45adddb9bf5629cd",
        "5af72cf068176a7e6348e665f9643ebe44c3f410998ec5aa2af0035d05c59920",
    ),
    "grid/omit_25": (
        "193b8db68f89f7c60db22dc35ec4085c5da81b63f77ddc24c8bbff62eee48d32",
        "996c785aae889058196316635f5599564bed427778684608b3c5b66bc8b9a17e",
        "a756c32917c703268b16ec947b0e94bb2300a0284b6ea74f5ba40cf049f7cd87",
        "780ac6f5cd241de6eb00cdedd10dd1e9907b664f932e11458b1d0665379dd8bd",
    ),
    "grid/omit_50": (
        "c2f9697ed8c7edd61269f41dad4ad0681cdd3cb57adc51079a323e7b22507267",
        "acd0be9fbcdb867358e29bab8eb5ad730bc8fe0d5832c7a5e51d06b223e596fd",
        "24c68493701adc0691bd19daa3e9f898a1514a0c5770b26032bafcab236c8b9c",
        "a186e81e924f22524bd0d7341270200d76512d96cceec52c1e95f3e3da91d53e",
    ),
    "grid/forge_1": (
        "2a2a1b718a6f7bb6a7453c9b613cbf6850ccbc47009bd2b0aefbf9b8abdec469",
        "305ddab15bff10c88d86ac31ac012ec871a458591ff202500dec510fd230b608",
        "105bc8cd399941d76db103ab5df566d7510938df702b1d9eae56bcde3d9406a1",
        "62caf29f3bd7f514c99024e58098923983c6527b59a3b6c0c3e4ef3f43d26104",
    ),
    "grid/biased_distribution": (
        "8f26795d2cb10aa4807031d2d887f78aeffdf2d615ad31ef2da5a3968f80aaab",
        "5a4257476a95c223c1080fc78e984512af843515045efb00c08a0eaca1040e4d",
        "7ebbac1a1fcdb38136ccfebfae026b878f15d5b2c7f8a8e3d302047b7683f237",
        "cd15f208f906f1efc74ffda86c05045676bbf29cca84383344b41117ba53f4af",
    ),
    "grid/collude": (
        "249e0e45f04014b147eed0f83d4fbdc86f442eb0f290073d656459618588b0fa",
        "d453e89e5e3bc2f921cb3e1ad7c9f666da3e71aafce84c7e20c56b08ec049294",
        "633a6fd7b3c1848b9ad7c79aa5438931b3897858a0b01d615a90430fd86da331",
        "d8a9fd7bc306b4efd30194eee13327d86c6c73ccf0b81f65b151b760af3f1903",
    ),
    "grid/false_sick_5": (
        "17f4f93cdf41d43930a30095d7e7dbc1f6ac9580f082a55e840089d4d00f1d71",
        "6fee336c18af438b04b11a71ec980f189059f85e60032286d0131371606a00d0",
        "12f410cf0748c24350382ee788404358d6e60e39647340d7a6868a9e523a09af",
        "7aa88bdf9e2e4b8570beeccc7e33a848e2003363b418c136733229d66f09a5aa",
    ),
    "grid/never_report_5": (
        "b3bb59d72e95883ef74d170f1797b9270b5cdec819bf1650d52f85f1189973cf",
        "24eb3fb37f308d623485900c031bb9024270cb837c5ec62d05c745987da9a548",
        "d73ae12d50eee559c5989d25a80db2a0399266d9eaa38b5564e5093e89bf9db6",
        "f3e43f5fc010d78bcc92bd41132493c384fbd74f7755c09bc1a95fbe06da9bc8",
    ),
}


HONEST_RUNS = [("honest_small", 2), ("honest_pfizer_like", 1)]


def digests(report, path) -> tuple[str, str, str, str]:
    ledger = report.ledger
    write_ledger_log(path, ledger)
    log_digest = path.read_bytes()[-32:]
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
