"""Run all four workloads once and print their end-to-end metrics.

    python3 perfbench/report.py [--seed N] [--seconds T] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, default=run.BENCH / "results")
    args = parser.parse_args(argv)
    results = [run.run_workload(w, args.seed, args.seconds, False, args.out) for w in WORKLOADS]
    names = list(results[0]["metrics"])
    print(f"{'metric':12s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:12s} {unit:6s}" + "".join(f"{r['metrics'][name]['value']:14.6g}" for r in results))
    print(f"{'failed_frac':12s} {'ratio':6s}" + "".join(f"{r['failed_frac']:14.6g}" for r in results))
    print(f"{'unchecked':12s} {'count':6s}" + "".join(f"{r['unchecked']:14d}" for r in results))
    print(f"{'tail pct':12s} {'%':6s}" + "".join(f"{r['tail']['percentile']:14.2f}" for r in results))
    print(f"{'samples':12s} {'count':6s}" + "".join(f"{r['tail']['samples']:14d}" for r in results))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
