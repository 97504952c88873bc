"""Compare two sets of runs under the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py A/suite.json B/suite.json

*A* is the parent (or the first A/A set), *B* the change (or the second).
Each file is what ``run.py --out DIR --repeat N`` wrote.  One row per
(workload, end-to-end metric):

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the bound;
* ``unresolved``  the quartile spread of A or B, as a share of its median,
  is wider than the bound, so a difference of that size cannot be told
  from noise (``setup_s`` is exempt, as it is for the driver);
* ``same``        anything else.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load_values(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    with open(path, encoding="utf-8") as handle:
        suite = json.load(handle)
    values: dict[str, dict[str, list[float]]] = {}
    for workload, traces in suite["runs"].items():
        for run in traces.get("trace0", []):
            for metric, entry in run["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    metric, []).append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 when there are too few runs to have quartiles."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(metric: dict, before: list[float], after: list[float]) \
        -> tuple[str, float, float]:
    """The row's mark, and by what share of A's median B got worse
    (negative: better), and the wider of the two spreads."""
    base = statistics.median(before)
    change = (statistics.median(after) - base) / base
    if metric["better"] == "higher":
        change = -change
    noise = max(spread(before), spread(after))
    if change > metric["bound"]:
        return "worse", change, noise
    if noise > metric["bound"] and metric["name"] != "setup_s":
        return "unresolved", change, noise
    if change < -metric["bound"]:
        return "better", change, noise
    return "same", change, noise


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("before", help="suite.json of the parent commit")
    parser.add_argument("after", help="suite.json of the change")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = json.load(handle)
    before, after = load_values(args.before), load_values(args.after)
    marks: list[str] = []
    print(f"{'workload':18s} {'metric':24s} {'A median':>14s} "
          f"{'B median':>14s} {'worse by':>9s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for workload in declared["workloads"]:
        name = workload["name"]
        for metric in declared["end_to_end"]:
            a = before.get(name, {}).get(metric["name"])
            b = after.get(name, {}).get(metric["name"])
            if not a or not b:
                marks.append("missing")
                print(f"{name:18s} {metric['name']:24s} missing from "
                      f"{'A' if not a else 'B'}")
                continue
            mark, change, noise = verdict(metric, a, b)
            marks.append(mark)
            print(f"{name:18s} {metric['name']:24s} "
                  f"{statistics.median(a):14.4f} "
                  f"{statistics.median(b):14.4f} {change:+9.1%} "
                  f"{noise:7.1%} {metric['bound']:6.0%}  {mark}")
    print(", ".join(f"{marks.count(mark)} {mark}" for mark
                    in ("better", "same", "worse", "unresolved", "missing")
                    if mark in marks))
    return 1 if "worse" in marks or "missing" in marks else 0


if __name__ == "__main__":
    sys.exit(main())
