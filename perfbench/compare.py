"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py DIR           # median, quartiles, spread per metric
    python3 perfbench/compare.py BASE NEW      # verdict per metric and workload

DIR, BASE and NEW hold result files written by run.py (`--out DIR`), one
per untraced run.  Bounds and directions come from BENCHMARK.json.  Each
end-to-end metric of each workload gets its own verdict; there is no
combined score:

- unresolved: fewer than two runs a side;
- improved:   NEW wins at least 9 in 10 pairs of runs (paired by seed) and
              the medians differ by more than BASE's quartile distance;
- worse:      NEW's median is worse than BASE's by more than the bound;
- unresolved: a side's spread (quartile distance / median) exceeds the
              bound, unless every NEW run beats every BASE run;
- unchanged:  otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{workload: {seed: {metric: value}}} from the untraced result files."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.trace0.json")):
        result = json.loads(path.read_text())
        values = {k: m["value"] for k, m in result["metrics"].items()}
        out.setdefault(result["workload"], {})[result["seed"]] = values
    return out


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread (IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base: dict, new: dict, spec: dict) -> tuple[str, float]:
    """Verdict and relative worsening of NEW's median against BASE's."""
    lower = spec["better"] == "lower"
    b, n = list(base.values()), list(new.values())
    b_med, b_q1, b_q3, b_spread = stats(b)
    n_med, _, _, n_spread = stats(n)
    worse_by = ((n_med - b_med) if lower else (b_med - n_med)) / b_med
    if len(b) < 2 or len(n) < 2:
        return "unresolved", worse_by

    def better(x, y):
        return x < y if lower else x > y

    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or list(zip(sorted(b), sorted(n)))
    wins = sum(better(y, x) for x, y in pairs)
    every_run_better = all(better(y, x) for x in b for y in n)
    if wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b_q3 - b_q1 and better(n_med, b_med):
        return "improved", worse_by
    if worse_by > spec["bound"]:
        return "worse", worse_by
    if max(b_spread, n_spread) > spec["bound"] and not every_run_better:
        return "unresolved", worse_by
    return "unchanged", worse_by


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sets = [load(d) for d in argv]
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for name, spec in specs.items():
            cols = [{s: v[name] for s, v in res.get(workload, {}).items() if name in v} for res in sets]
            if not all(cols):
                continue
            if len(sets) == 1:
                med, q1, q3, spread = stats(list(cols[0].values()))
                flag = "  spread over bound/3" if spread > spec["bound"] / 3 and name != "setup_s" else ""
                print(f"  {name:12s} {med:12.6g} {spec['unit']:6s} q1={q1:.6g} q3={q3:.6g} "
                      f"spread={spread:.4f} bound={spec['bound']} runs={len(cols[0])}{flag}")
            else:
                word, worse_by = verdict(cols[0], cols[1], spec)
                print(f"  {name:12s} base={stats(list(cols[0].values()))[0]:.6g} "
                      f"new={stats(list(cols[1].values()))[0]:.6g} {spec['unit']:6s} "
                      f"worse_by={worse_by:+.4f} bound={spec['bound']} -> {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
