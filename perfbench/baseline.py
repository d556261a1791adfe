"""Record the benchmark baseline: ten seeds per workload, quartiles.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
and writes for each end-to-end metric its ten values, median, first and
third quartile (``statistics.quantiles(values, n=4)``) and spread, the
quartile distance as a share of the median.  Exits non-zero if any run
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
        summary = {}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            stats = summarize([r[name]["value"] for r in runs])
            stats["unit"] = spec["unit"]
            summary[name] = stats
            print(f"{workload:7s} {name:16s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {spec['bound']})",
                  flush=True)
        report["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
