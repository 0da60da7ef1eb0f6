"""Paired comparison of two sets of benchmark runs.

    python3 benchmark/compare.py BASE CHANGE

BASE and CHANGE are each a file or a directory of files holding the
standard output of `benchmark/run.py` runs (trace 0) of one commit. Runs of
one workload are paired by seed, or by order when the sides share no seed.
One row per workload and end-to-end metric gives each side's median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict, following the choosing-metrics rules:

* improved   -- at least ten pairs, the change won at least 9/10 of them,
                and the medians differ by more than the base's quartile
                distance;
* unresolved -- the base's quartile distance, as a share of its median, is
                wider than the metric's bound, and not every change run
                beats every base run;
* worse      -- the change's median is worse than the base's by more than
                the bound;
* no worse   -- otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """Trace-0 records by workload, in file order."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = defaultdict(list)
    for file in files:
        for line in file.read_text().splitlines():
            if line.startswith('{"record"'):
                record = json.loads(line)["record"]
                if record["trace"] == 0:
                    runs[record["workload"]].append(record)
    return runs


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["env"]["seed"]: r for r in change}
    matched = [(b, by_seed[b["env"]["seed"]]) for b in base if b["env"]["seed"] in by_seed]
    return matched or list(zip(base, change))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], paired: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - b) > 0 for b, c in paired) / len(paired)
    q1, mid, q3 = quartiles(base)
    gain = sign * (statistics.median(change) - mid)
    if len(paired) >= MIN_PAIRS and won >= WIN_SHARE and gain > q3 - q1:
        return "improved", won
    all_better = (min(change) > max(base)) if sign > 0 else (max(change) < min(base))
    if (q3 - q1) > bound * abs(mid) and not all_better:
        return "unresolved", won
    if -gain > bound * abs(mid):
        return "worse", won
    return "no worse", won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_runs, change_runs = (load(Path(a)) for a in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{'workload':15s} {'metric':17s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    worst = 0
    for workload in sorted(set(base_runs) & set(change_runs)):
        matched = pairs(base_runs[workload], change_runs[workload])
        for metric in declared:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base_runs[workload]]
            c = [r["metrics"][name]["value"] for r in change_runs[workload]]
            paired = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in matched]
            result, won = verdict(b, c, paired, metric["better"], metric["bound"])
            cells = []
            for values in (b, c):
                q1, mid, q3 = quartiles(values)
                cells.append(f"{mid:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:15s} {name:17s} {cells[0]:>34s} {cells[1]:>34s} {won:5.2f}  {result}")
            worst = max(worst, result == "worse")
    for workload in sorted(set(base_runs) ^ set(change_runs)):
        print(f"{workload:15s} runs on one side only")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
