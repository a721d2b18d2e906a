"""Command-line interface.

Subcommands: simulate (run a seeded scenario, emit log + report), audit
(replay a log and verify it byte-exactly), verify-reveal (check one
commitment opening), status (print a log's trial state).

Exit codes are a stable contract:
    0 success, 1 input error, 2 incomplete trial, 3 audit failure,
    4 reveal mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from .commitment import verify_raw_opening
from .actors import load_scenario, run_scenario
from .contract import _CONTENT, _DIGEST, _NONCE, _json_default
from .logio import LogFormatError, audit_log, read_log, write_ledger_log

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCOMPLETE = 2
EXIT_AUDIT = 3
EXIT_MISMATCH = 4


def _write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON, streamed into ``path`` piece by piece."""
    with open(path, "w") as file:
        json.dump(obj, file, indent=2, default=_json_default)
        file.write("\n")


def _fmt_eff(value) -> str:
    return "undefined" if value is None else f"{value:.2f}%"


def _outcome_line(label: str, outcome: dict) -> str:
    """One line for a decided outcome, as ``simulate`` and ``audit`` print it."""
    efficiency, verdict = _fmt_eff(outcome["efficiency"]), "APPROVED" if outcome["approved"] else "REJECTED"
    return f"{label}: ar0={outcome['ar0']} ar1={outcome['ar1']} efficiency={efficiency} {verdict}"


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        spec = load_scenario(args.scenario)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    seed = args.seed if args.seed is not None else spec.seeds[0]
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = run_scenario(spec, seed)
    base = f"{spec.name}-s{seed}"
    log_path = out_dir / f"{base}.vscl"
    report_path = out_dir / f"{base}.report.json"
    export_path = out_dir / f"{base}.log.json"
    # All outputs or none: each is written to a private directory in out_dir,
    # which is removed on the way out, and moved into place once all are written.
    try:
        with tempfile.TemporaryDirectory(dir=out_dir, prefix=".staging-") as staging:
            staged = Path(staging)
            write_ledger_log(staged / log_path.name, report.ledger)
            _write_json(staged / report_path.name, report.to_json())
            if args.export_json:
                _write_json(staged / export_path.name, read_log(staged / log_path.name))
            # A rename onto a directory fails, so check every target before the first.
            files = list(staged.iterdir())
            for file in files:
                if (out_dir / file.name).is_dir():
                    raise IsADirectoryError(f"{out_dir / file.name} is a directory")
            for file in files:
                file.replace(out_dir / file.name)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.export_json:
        print(f"log json:  {export_path}")
    print(f"log:       {log_path}")
    print(f"report:    {report_path}")
    summary = report.ledger_summary
    print(f"seed {seed}: phase={report.phase} infected={summary['infected']}")
    if args.verbose:
        print(f"  accepted={summary['accepted']} rejected={summary['rejected']}")
        for code, count in sorted(summary["rejections_by_code"].items()):
            print(f"  rejection {code}: {count}")
        for item in report.evidence:
            print(f"  evidence: {json.dumps(item, sort_keys=True)}")
    if not report.complete:
        print(f"incomplete trial: {report.incomplete_reason}")
        return EXIT_INCOMPLETE
    print(_outcome_line("outcome", summary["outcome"]))
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    path = Path(args.log)
    try:
        log = read_log(path)
    except OSError as exc:
        print(f"error: cannot read log: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LogFormatError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    report, ledger = audit_log(log)
    if args.export_json:
        export_path = path.with_suffix(path.suffix + ".json")
        try:
            _write_json(export_path, log)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"log json:  {export_path}")
    print(f"records:   {report.record_count}")
    print(f"phase:     {ledger.query('phase')}")
    outcome = ledger.query("outcome")
    if outcome:
        print(_outcome_line("recomputed", outcome))
    if not report.ok:
        if report.divergent_positions:
            print(
                f"audit failure: first divergent record at "
                f"{report.divergent_positions[0]}",
                file=sys.stderr,
            )
        print(f"audit failure: {report.detail}", file=sys.stderr)
        return EXIT_AUDIT
    print("audit ok: replay matches the recorded state and event digests")
    return EXIT_OK


def cmd_verify_reveal(args: argparse.Namespace) -> int:
    # The spelling a reveal_controls opening must use: lower-case hex, a label.
    try:
        commitment = _DIGEST(args.commitment, "commitment")
        nonce = _NONCE(args.nonce, "nonce")
        content = _CONTENT(args.content, "content")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if verify_raw_opening(commitment, nonce, content.value):
        print("MATCH")
        return EXIT_OK
    print("NO-MATCH")
    return EXIT_MISMATCH


def cmd_status(args: argparse.Namespace) -> int:
    try:
        log = read_log(args.log)
    except (OSError, LogFormatError) as exc:
        print(f"error: unreadable log: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report, ledger = audit_log(log)
    config = ledger.query("config")
    infected = ledger.query("infected_count")
    print(f"phase:    {ledger.query('phase')}")
    print(f"infected: {infected}/{config['infected_threshold']}")
    outcome = ledger.query("outcome")
    if outcome:
        print(f"ar0:        {outcome['ar0']}")
        print(f"ar1:        {outcome['ar1']}")
        print(f"efficiency: {_fmt_eff(outcome['efficiency'])}")
        print(f"risk ratio: {_fmt_eff(ledger.query('risk_ratio'))}")
        print(f"status:     {'APPROVED' if outcome['approved'] else 'REJECTED'}")
    else:
        print(f"status:     {ledger.query('vaccine_status')}")
    if not report.ok:
        print(f"audit failure: {report.detail}", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaccsc",
        description="Commitment-backed double-blind vaccine trial simulator and auditor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one seeded scenario end to end")
    p_sim.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario's first seed")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--export-json", action="store_true", help="also write the log as JSON")
    p_sim.add_argument("--verbose", action="store_true", help="print rejection and evidence detail")
    p_sim.set_defaults(func=cmd_simulate)

    p_audit = sub.add_parser("audit", help="replay a transaction log and verify digests")
    p_audit.add_argument("log", help="binary transaction log file")
    p_audit.add_argument("--export-json", action="store_true", help="also write the log as JSON")
    p_audit.set_defaults(func=cmd_audit)

    p_verify = sub.add_parser("verify-reveal", help="check a single commitment opening")
    p_verify.add_argument("commitment", help="32-byte commitment digest, lower-case hex")
    p_verify.add_argument("nonce", help="32-byte nonce, lower-case hex")
    p_verify.add_argument("content", help="'placebo' or 'vaccine'")
    p_verify.set_defaults(func=cmd_verify_reveal)

    p_status = sub.add_parser("status", help="print trial state from a log")
    p_status.add_argument("log", help="binary transaction log file")
    p_status.set_defaults(func=cmd_status)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's: 0 after --help, 2 after printing a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
