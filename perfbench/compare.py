#!/usr/bin/env python3
"""Summarize or compare perfbench result records.

  python3 perfbench/compare.py RESULTS.jsonl
  python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Records are the lines perfbench appends to results.jsonl, one per run.
Records of runs that were not correct ("correct": false) are left out,
and their number is printed. The rest are grouped by workload and trace
mode. For each metric the number of runs and the quartiles
(statistics.quantiles, n=4) are printed. Two sets whose host shape
differs are refused (exit 2). With two sets, each end-to-end metric of
BENCHMARK.json is judged: UNRESOLVED when the parent's own spread
(IQR / median) exceeds the metric's bound, else WORSE when the change's
median is worse than the parent's by more than the bound, ok otherwise.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    kept = [r for r in records if r["correct"]]
    if len(kept) < len(records):
        print(f"{path}: left out {len(records) - len(kept)} of "
              f"{len(records)} records that were not correct")
    return kept


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def group(records):
    groups = {}
    for r in records:
        key = (r["workload"], r["trace"])
        g = groups.setdefault(key, {"host": r["host"], "metrics": {}})
        if g["host"] != r["host"]:
            sys.exit(f"refused: host shape differs within one set for {key}: "
                     f"{g['host']} vs {r['host']}")
        for name, m in r["metrics"].items():
            g["metrics"].setdefault(name, []).append(m["value"])
    return groups


def summarize(groups):
    for (workload, trace), g in sorted(groups.items()):
        print(f"{workload} trace={trace} host={json.dumps(g['host'])}")
        for name, values in sorted(g["metrics"].items()):
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:40s} runs={len(values):3d} q1={q1:.6g} "
                  f"median={med:.6g} q3={q3:.6g} spread={spread:.3f}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("sets", nargs="+")
    parser.add_argument("--bench", default="BENCHMARK.json")
    args = parser.parse_args()
    if len(args.sets) == 1:
        summarize(group(load(args.sets[0])))
        return 0
    parent, change = (group(load(p)) for p in args.sets[:2])
    for key in parent.keys() & change.keys():
        if parent[key]["host"] != change[key]["host"]:
            print(f"refused: host shape differs for {key}:\n"
                  f"  {parent[key]['host']}\n  {change[key]['host']}")
            return 2
    with open(args.bench) as f:
        bench = json.load(f)
    worse = 0
    for key in sorted(parent.keys() & change.keys()):
        print(f"{key[0]} trace={key[1]}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = parent[key]["metrics"].get(name)
            b = change[key]["metrics"].get(name)
            if not a or not b:
                continue
            pq1, pmed, pq3 = quartiles(a)
            cq1, cmed, cq3 = quartiles(b)
            spread = (pq3 - pq1) / pmed if pmed else 0.0
            sign = 1 if metric["better"] == "lower" else -1
            change_share = sign * (cmed - pmed) / pmed if pmed else 0.0
            if spread > metric["bound"]:
                verdict = "UNRESOLVED"
            elif change_share > metric["bound"]:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            print(f"  {name:16s} parent {pq1:.5g}/{pmed:.5g}/{pq3:.5g} "
                  f"(n={len(a)}) change {cq1:.5g}/{cmed:.5g}/{cq3:.5g} "
                  f"(n={len(b)}) worse by {100 * change_share:+.1f}% "
                  f"bound {100 * metric['bound']:.0f}%: {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
