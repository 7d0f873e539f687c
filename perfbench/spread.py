#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload mem-small --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/BENCH_0.json

For every metric this prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json; a spread under a third of the
bound is marked steady.  Runs are made one at a time, each in its own
process, exactly as `run.py` is invoked by hand.  --out merges the summary
into a JSON file keyed by workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line and the full report of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    report = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(lines[-1]), json.loads(report.read_text())


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the summary into this JSON file")
    args = parser.parse_args(argv)

    spec = definition["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    summary = json.loads(Path(args.out).read_text()) if args.out and Path(args.out).exists() else {}
    for workload in workloads if args.workload == "all" else [args.workload]:
        runs, digests = [], []
        for seed in seeds:
            result, report = run_once(workload, seed, args.seconds, args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{report['estimate_digest']}", flush=True)
            runs.append(result)
            digests.append(report["estimate_digest"])
        metrics = {}
        print(f"{workload}: {len(seeds)} seeds, trace={args.trace}")
        for m in spec:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            stats = summarize(values) if len(values) > 1 else {"median": values[0], "values": values}
            metrics[m["name"]] = dict(stats, unit=m["unit"])
            line = f"  {m['name']:<38} median {stats['median']:<12.6g} {m['unit']:<12}"
            if "spread" in stats:
                line += f" q1 {stats['q1']:<10.6g} q3 {stats['q3']:<10.6g} spread {stats['spread']:.4f}"
                if "bound" in m:
                    steady = "steady" if stats["spread"] < m["bound"] / 3 else "NOT steady"
                    line += f" (bound {m['bound']}: {steady})"
            print(line, flush=True)
        summary.setdefault(workload, {})[f"trace{args.trace}"] = {
            "seeds": seeds, "seconds": args.seconds, "context": report["context"],
            "estimate_digests": digests,
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
