"""Commitment-backed double-blind vaccine trial protocol on a simulated ledger.

The pieces: hash commitments seal each shot's content (`commitment`),
two-party committed coin flips pick which sealed shot a patient gets
(`coinflip`), a signed-transaction ledger serializes and audits every
step (`keys`, `ledger`, `logio`), the trial contract enforces the
protocol (`contract`), and a scenario harness drives honest and
adversarial actors through whole trials (`actors`, `cli`).
"""

from .commitment import (
    DIGEST_SIZE,
    NONCE_SIZE,
    Opening,
    ShotContent,
    commit,
    generate_nonce,
    verify_raw_opening,
)
from .coinflip import (
    CoinFlipSession,
    Party,
    RandomContribution,
    SessionError,
    SessionPhase,
    commit_contribution,
    select_index,
)
from .contract import (
    ContractError,
    ShotRecord,
    TrialConfig,
    TrialOutcome,
    TrialPhase,
    VaccineTrial,
    VaccineType,
    decide_outcome,
    efficiency_percent,
    risk_ratio_percent,
)
from .keys import KeyPair, address_from_public_key, verify_signature
from .ledger import (
    Event,
    Ledger,
    Receipt,
    SignedTransaction,
    canonical_json,
    make_transaction,
)
from .logio import (
    AuditReport,
    LogFile,
    LogFormatError,
    audit_log,
    read_log,
    write_ledger_log,
    write_log,
)
from .actors import (
    Behavior,
    DiseaseModel,
    Role,
    ScenarioSpec,
    Strategy,
    TrialReport,
    collusion_attempt,
    load_scenario,
    run_grid,
    run_many,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "DIGEST_SIZE",
    "NONCE_SIZE",
    "Opening",
    "ShotContent",
    "commit",
    "generate_nonce",
    "verify_raw_opening",
    "CoinFlipSession",
    "Party",
    "RandomContribution",
    "SessionError",
    "SessionPhase",
    "commit_contribution",
    "select_index",
    "ContractError",
    "ShotRecord",
    "TrialConfig",
    "TrialOutcome",
    "TrialPhase",
    "VaccineTrial",
    "VaccineType",
    "decide_outcome",
    "efficiency_percent",
    "risk_ratio_percent",
    "KeyPair",
    "address_from_public_key",
    "verify_signature",
    "Event",
    "Ledger",
    "Receipt",
    "SignedTransaction",
    "canonical_json",
    "make_transaction",
    "AuditReport",
    "LogFile",
    "LogFormatError",
    "audit_log",
    "read_log",
    "write_ledger_log",
    "write_log",
    "Behavior",
    "DiseaseModel",
    "Role",
    "ScenarioSpec",
    "Strategy",
    "TrialReport",
    "collusion_attempt",
    "load_scenario",
    "run_grid",
    "run_many",
    "run_scenario",
    "__version__",
]
