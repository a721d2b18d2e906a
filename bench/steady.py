"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 bench/steady.py --workloads grid_n400 --seeds 1-5
    python3 bench/steady.py --seeds 1-10 --seconds 25

Runs are made one after another. For each workload and metric it prints
the median, the first and third quartiles (``statistics.quantiles``,
n=4) and the spread: the distance between the quartiles as a share of
the median. The raw results go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(results: list[dict]) -> dict[str, dict]:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        summary[name] = {
            "median": mid,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return summary


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, run_s=time.perf_counter() - start)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} run {result['run_s']:.1f} s", flush=True)
        summary = summarize(results)
        path = out_dir / f"steady-{workload}-trace{args.trace}-{stamp}.json"
        path.write_text(json.dumps({"workload": workload, "runs": results, "summary": summary}, indent=1))
        for name, row in summary.items():
            print(f"  {name:40s} median {row['median']:.6g} {row['unit']}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
