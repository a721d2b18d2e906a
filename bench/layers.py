"""Per-layer tracing by wrapping the program's functions at run time.

Each wrapper is installed on the name where the program looks it up
(``vaccsc.ledger.verify_signature``, ``vaccsc.cli.audit_log``, a class
attribute such as ``Ledger.submit``), so no file under ``src/`` changes
and nothing is wrapped while tracing is off. A span records calls,
inclusive time and self time: its duration minus the part covered by
spans it caused.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

SUBMIT_METHODS = (
    "assign_shot_to_clinic",
    "begin_binding",
    "patient_commit",
    "clinic_reveal",
    "patient_reveal",
    "confirm_binding",
    "report_sick",
    "reveal_controls",
)

# (metric name, unit, better); per-layer values are per round of a workload
LAYER_METRICS = (
    [
        ("keys.generate.calls", "count", "lower"),
        ("keys.generate.s", "s", "lower"),
        ("keys.sign.calls", "count", "lower"),
        ("keys.sign.s", "s", "lower"),
        ("keys.verify.calls", "count", "lower"),
        ("keys.verify.s", "s", "lower"),
        ("keys.verify.false", "count", "lower"),
        ("ledger.submit.calls", "count", "lower"),
        ("ledger.submit.accepted", "count", "lower"),
        ("ledger.submit.rejected", "count", "lower"),
        ("ledger.submit.self_s", "s", "lower"),
    ]
    + [
        (f"ledger.submit.{method}.{field}", unit, "lower")
        for method in SUBMIT_METHODS
        for field, unit in (("calls", "count"), ("s", "s"))
    ]
    + [
        ("ledger.canonical_json.calls", "count", "lower"),
        ("ledger.canonical_json.s", "s", "lower"),
        ("ledger.state_digest.calls", "count", "lower"),
        ("ledger.state_digest.s", "s", "lower"),
        ("ledger.events_digest.s", "s", "lower"),
        ("ledger.replay.s", "s", "lower"),
        ("contract.dispatch.calls", "count", "lower"),
        ("contract.dispatch.s", "s", "lower"),
        ("contract.canonical_state.calls", "count", "lower"),
        ("contract.canonical_state.s", "s", "lower"),
        ("contract.state_bytes", "bytes", "lower"),
        ("contract.view.calls", "count", "lower"),
        ("contract.view.s", "s", "lower"),
        ("commitment.commit.calls", "count", "lower"),
        ("commitment.commit.s", "s", "lower"),
        ("commitment.verify_raw_opening.calls", "count", "lower"),
        ("commitment.verify_raw_opening.s", "s", "lower"),
        ("coinflip.commit_contribution.calls", "count", "lower"),
        ("coinflip.commit_contribution.s", "s", "lower"),
        ("logio.write_log.s", "s", "lower"),
        ("logio.read_log.s", "s", "lower"),
        ("logio.audit_log.s", "s", "lower"),
        ("logio.records", "count", "lower"),
        ("actors.run_scenario.calls", "count", "lower"),
        ("actors.run_scenario.s", "s", "lower"),
        ("actors.run_scenario.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


class Tracer:
    """Counters and span times for one traced round."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # time covered by child spans, per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                covered = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - covered
            if after is not None:
                after(result, args, elapsed)
            return result

        return span

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a module global or class attribute) with a span."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, after))
        else:
            wrapped = self._wrap(name, original, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self, vaccsc) -> None:
        """Wrap the layer boundaries of an imported ``vaccsc`` package."""
        keys, ledger, contract = vaccsc.keys, vaccsc.ledger, vaccsc.contract
        actors, logio, cli, coinflip = vaccsc.actors, vaccsc.logio, vaccsc.cli, vaccsc.coinflip
        self.patch(keys.KeyPair, "generate", "keys.generate")
        self.patch(keys.KeyPair, "sign", "keys.sign")
        self.patch(ledger, "verify_signature", "keys.verify", self._after_verify)
        self.patch(ledger.Ledger, "submit", "ledger.submit", self._after_submit)
        self.patch(ledger, "canonical_json", "ledger.canonical_json")
        self.patch(logio, "canonical_json", "ledger.canonical_json")
        self.patch(ledger.Ledger, "state_digest", "ledger.state_digest")
        self.patch(ledger.Ledger, "events_digest", "ledger.events_digest")
        self.patch(ledger.Ledger, "replay", "ledger.replay")
        self.patch(contract.VaccineTrial, "dispatch", "contract.dispatch")
        self.patch(contract.VaccineTrial, "canonical_state", "contract.canonical_state", self._after_state)
        self.patch(contract.VaccineTrial, "view", "contract.view")
        self.patch(actors, "commit", "commitment.commit")
        self.patch(contract, "verify_raw_opening", "commitment.verify_raw_opening")
        self.patch(actors, "commit_contribution", "coinflip.commit_contribution")
        self.patch(coinflip, "commit_contribution", "coinflip.commit_contribution")
        self.patch(logio, "write_log", "logio.write_log")
        self.patch(cli, "read_log", "logio.read_log")
        self.patch(cli, "audit_log", "logio.audit_log", self._after_audit)
        self.patch(cli, "run_scenario", "actors.run_scenario")
        self.patch(actors, "run_scenario", "actors.run_scenario")
        self.patch(cli, "main", "cli")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters read from results ------------------------------------------

    def _after_verify(self, ok, args, elapsed) -> None:
        if not ok:
            self.counts["keys.verify.false"] += 1

    def _after_submit(self, receipt, args, elapsed) -> None:
        method = args[1].method
        self.counts["ledger.submit.accepted" if receipt.accepted else "ledger.submit.rejected"] += 1
        self.calls[f"ledger.submit.{method}"] += 1
        self.inclusive[f"ledger.submit.{method}"] += elapsed

    def _after_state(self, state: bytes, args, elapsed) -> None:
        self.counts["contract.state_bytes"] = max(self.counts["contract.state_bytes"], len(state))

    def _after_audit(self, result, args, elapsed) -> None:
        self.counts["logio.records"] += result[0].record_count

    # -- results -------------------------------------------------------------

    def values(self) -> dict[str, float]:
        """Every layer metric except the ``trace.*`` ones, which need untraced rounds."""
        out: dict[str, float] = {}
        for name, _unit, _better in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if name.startswith("trace."):
                continue
            if name in self.counts or field not in ("calls", "s", "self_s"):
                out[name] = self.counts.get(name, 0)
            elif field == "calls":
                out[name] = self.calls.get(base, 0)
            elif field == "s":
                out[name] = self.inclusive.get(base, 0.0)
            else:
                out[name] = self.self_time.get(base, 0.0)
        return out
