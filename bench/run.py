"""Benchmark of vaccsc: simulating a trial, auditing its log, sweeping the adversary grid.

    python3 bench/run.py --workload simulate_n2000 --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
A run sets up its inputs several times (``setup_s`` is the median), then
repeats whole rounds of the workload's operations for ``--seconds`` and
checks every operation's outputs. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics of ``layers.py``. Before the
result it prints one ``digest`` line per trial it made. The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
from layers import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "vaccsc" / "data" / "scenarios"
MIN_ROUNDS = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("log_bytes", "bytes"))


@dataclasses.dataclass
class Op:
    """One checked operation; ``seconds`` is set for those that make up ``wall_s``."""

    seconds: float | None
    problems: list[str]
    failed: bool = False


def import_program():
    """Import ``vaccsc`` afresh from the checkout and return the package."""
    for name in [m for m in sys.modules if m == "vaccsc" or m.startswith("vaccsc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("vaccsc")
    importlib.import_module("vaccsc.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "vaccsc":
        raise RuntimeError(f"imported vaccsc from {pkg.__file__}, not from {SRC}")
    return pkg


def call_cli(pkg, argv: list[str]) -> tuple[int, str, float]:
    """Run ``vaccsc <argv>`` in-process; return exit code, stdout and wall time."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    return code, out.getvalue(), perf_counter() - start


class Simulate:
    """``vaccsc simulate`` of the N=2000 honest scenario, writing log and report."""

    scenario = "honest_pfizer_like"
    setup_reps = 7

    def setup(self, pkg, work: Path, seed: int) -> None:
        self.config = json.loads((SCENARIOS / f"{self.scenario}.json").read_text())["config"]
        self.seed, self.out = seed, work / "simulate"
        self.first_log: bytes | None = None
        self.digests: dict[str, dict] = {}

    def round(self, pkg) -> list[Op]:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["simulate", "--scenario", self.scenario, "--seed", str(self.seed), "--out", str(self.out)]
        code, _, seconds = call_cli(pkg, argv)
        base = self.out / f"{self.scenario}-s{self.seed}"
        data = base.with_name(base.name + ".vscl").read_bytes()
        report = json.loads(base.with_name(base.name + ".report.json").read_text())
        problems = checks.check_simulation(code, report, data, self.config)
        if self.first_log is None:
            self.first_log = data
            self.digests[f"{self.scenario} seed={self.seed}"] = checks.digests(data)
            self.records = len(checks.parse_log(data).records)
        problems += checks.check_same_log(self.first_log, data)
        self.log_bytes = len(data)
        return [Op(seconds, problems)]

    def expected_counts(self) -> dict[str, int]:
        config = self.config
        return {
            "ledger.submit.calls": self.records,
            "keys.verify.calls": self.records,
            "keys.sign.calls": self.records,
            "keys.generate.calls": config["num_participants"] + config["num_clinics"] + 1,
            "logio.records": 0,
        }


class Audit:
    """``vaccsc audit`` of an N=2000 log, plus two re-hashed hostile copies of it."""

    scenario = "honest_pfizer_like"
    setup_reps = 3

    def setup(self, pkg, work: Path, seed: int) -> None:
        # The log is made by the program's own CLI in a child process, so
        # this process's peak memory is that of auditing alone.
        out = work / "audit"
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run(
            [sys.executable, "-m", "vaccsc.cli", "simulate", "--scenario", self.scenario,
             "--seed", str(seed), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=170,
        )
        honest = out / f"{self.scenario}-s{seed}.vscl"
        data = honest.read_bytes()
        flipped, zeroed = out / "flipped_payload.vscl", out / "zero_participants.vscl"
        flipped.write_bytes(checks.flip_payload_byte(data))
        zeroed.write_bytes(checks.zero_participants_genesis(data))
        self.logs = (("honest", honest), ("flipped_payload", flipped), ("zero_participants", zeroed))
        self.records = len(checks.parse_log(data).records)
        self.log_bytes = len(data)
        self.digests = {f"{self.scenario} seed={seed}": checks.digests(data)}
        self.faults: set[str] = set()

    def round(self, pkg) -> list[Op]:
        ops = []
        for kind, path in self.logs:
            try:
                code, stdout, seconds = call_cli(pkg, ["audit", str(path)])
            except (ValueError, KeyError) as exc:
                # A crafted genesis crashes the auditor instead of exiting 3.
                self.faults.add(f"{kind} audit raised {type(exc).__name__}: {exc}")
                ops.append(Op(None, [], failed=True))
                continue
            problems = checks.check_audit(kind, code, stdout)
            if kind == "honest" and f"records:   {self.records}\n" not in stdout:
                problems.append(f"honest audit did not report {self.records} records")
            ops.append(Op(seconds if kind == "honest" else None, problems))
        return ops

    def expected_counts(self) -> dict[str, int]:
        replayed = 2 * self.records  # the honest and the flipped-payload copies
        return {
            "ledger.submit.calls": replayed,
            "keys.verify.calls": replayed,
            "keys.sign.calls": 0,
            "keys.generate.calls": 0,
            "logio.records": replayed,
        }


class Grid:
    """Every ``adversary_grid`` cell at one seed via ``run_grid``, writing each cell's log."""

    scenario = "adversary_grid"
    setup_reps = 7

    def setup(self, pkg, work: Path, seed: int) -> None:
        spec = pkg.actors.load_scenario(SCENARIOS / f"{self.scenario}.json")
        self.spec = dataclasses.replace(spec, seeds=(seed,))
        self.labels = [cell.label for cell in spec.grid]
        self.seed, self.out = seed, work / "grid"
        self.first_logs: dict[str, bytes] | None = None
        self.digests: dict[str, dict] = {}

    def round(self, pkg) -> list[Op]:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        start = perf_counter()
        grid = pkg.actors.run_grid(self.spec)
        for label, (report,) in grid.items():
            pkg.logio.write_ledger_log(self.out / f"{label}.vscl", report.ledger)
        seconds = perf_counter() - start
        problems = [] if list(grid) == self.labels else [f"grid cells {list(grid)} != {self.labels}"]
        logs = {label: (self.out / f"{label}.vscl").read_bytes() for label in grid}
        for label, (report,) in grid.items():
            problems += checks.check_grid_cell(report.to_json(), self.spec.infected_threshold)
            problems += checks.check_file_digest(logs[label])
        if self.first_logs is None:
            self.first_logs = logs
            for label, data in logs.items():
                self.digests[f"{self.scenario}/{label} seed={self.seed}"] = checks.digests(data)
            self.records = sum(len(checks.parse_log(data).records) for data in logs.values())
        for label, data in logs.items():
            problems += checks.check_same_log(self.first_logs.get(label, b""), data)
        self.log_bytes = sum(len(data) for data in logs.values())
        return [Op(seconds, problems)]

    def expected_counts(self) -> dict[str, int]:
        spec = self.spec
        return {
            "ledger.submit.calls": self.records,
            "keys.verify.calls": self.records,
            "keys.sign.calls": self.records,
            "keys.generate.calls": len(self.labels) * (spec.num_participants + spec.num_clinics + 1),
            "logio.records": 0,
        }


WORKLOADS = {"simulate_n2000": Simulate, "audit_n2000": Audit, "grid_n400": Grid}


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[workload_name]()
    setup_times = []
    for _ in range(workload.setup_reps):
        start = perf_counter()
        pkg = import_program()
        workload.setup(pkg, work, seed)
        setup_times.append(perf_counter() - start)

    plain, traced, layers, problems = [], [], [], []
    attempted = failed = 0
    started = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS * (2 if trace else 1) or perf_counter() - started < seconds:
        tracer = Tracer() if trace and rounds % 2 else None
        gc.collect()
        if tracer:
            tracer.install(pkg)
        try:
            ops = workload.round(pkg)
        finally:
            if tracer:
                tracer.uninstall()
        rounds += 1
        attempted += len(ops)
        failed += sum(op.failed for op in ops)
        problems += [p for op in ops for p in op.problems]
        walls = [op.seconds for op in ops if op.seconds is not None]
        (traced if tracer else plain).extend(walls)
        if tracer:
            layers.append(tracer.values())

    for kind, found in sorted(workload.digests.items()):
        print(f"digest {kind} state={found['state']} events={found['events']} log={found['log']}")
    for fault in sorted(getattr(workload, "faults", ())):
        print(f"failed operation: {fault}", file=sys.stderr)

    if not trace:
        values = {
            "setup_s": median(setup_times),
            "wall_s": median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "log_bytes": workload.log_bytes,
        }
        units = dict(END_TO_END)
    else:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        values = {
            # counts repeat exactly in every traced round (checked below); times vary
            name: layers[0][name] if units[name] in ("count", "bytes") else median(layer[name] for layer in layers)
            for name in layers[0]
        }
        for name, expected in workload.expected_counts().items():
            if any(layer[name] != expected for layer in layers):
                problems.append(f"{name} = {[layer[name] for layer in layers]}, expected {expected}")
        for name in layers[0]:
            if units[name] in ("count", "bytes") and len({layer[name] for layer in layers}) > 1:
                problems.append(f"{name} differs between traced rounds")
        values["trace.wall_s"] = median(traced)
        values["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vaccsc" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'vaccsc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / "bench" / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
