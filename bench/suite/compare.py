#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and of a change.

    python3 bench/suite/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is one run.py results file (one invocation: one workload, one
seed). For each workload and metric it prints each side's median and
quartiles over the files, the share of pairs the change wins (files paired
in the order given; run the sides alternately), and a verdict by the rules
of the choosing-metrics method:

  unresolved  the parent's own spread (q3 - q1, as a share of its median)
              exceeds the metric's bound, and not every change run beats
              every parent run;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's spread;
  unchanged   none of the above.

Per-layer metrics carry no bound: they get 'same' or 'moved' when both
sides' counts repeat exactly, and '-' otherwise.
"""

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import quartiles  # noqa: E402


def load(paths):
    """{workload: [results, ...]} in the order given."""
    by_workload = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text())
        by_workload[result["workload"]].append(result)
    return by_workload


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, meta):
    q1, pmed, q3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    direction = meta["better"]
    if "bound" not in meta:
        if meta.get("exact_both"):
            return "same" if pmed == cmed else "moved"
        return "-"
    bound = meta["bound"]
    spread = (q3 - q1) / abs(pmed) if pmed else float("inf")
    all_better = all(better(c, p, direction) for c in change for p in parent)
    worse_by = (pmed - cmed if direction == "higher" else cmed - pmed) / abs(pmed) if pmed else 0
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    if (all_better or wins >= 0.9 * len(pairs)) and better(cmed, pmed, direction) and \
            abs(cmed - pmed) > (q3 - q1):
        return "improved"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True, help="parent results files")
    parser.add_argument("--change", nargs="+", required=True, help="change results files")
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)

    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        print(f"\n{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        if not p_runs or not c_runs:
            print("  (missing on one side)")
            continue
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            hosts = {(r["host"]["cpu_model"], r["host"]["nproc"], r["host"]["git_commit"],
                      r["host"]["source_sha256"][:12]) for r in runs}
            print(f"  {side}: {failed}/{attempted} runs failed; host/commit {sorted(hosts)}")
        names = [n for n in p_runs[0]["metrics"] if all(n in r["metrics"] for r in p_runs + c_runs)]
        print(f"  {'metric':32s} {'clock':7s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'wins':>5s}  verdict")
        for name in names:
            meta = dict(p_runs[0]["metrics"][name])
            meta["exact_both"] = all(r["metrics"][name].get("exact") for r in p_runs + c_runs)
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            pairs = list(zip(p, c))
            wins = sum(better(cv, pv, meta["better"]) for pv, cv in pairs) / len(pairs)
            print(f"  {name:32s} {meta['clock']:7s} "
                  f"{f'{pmed:.6g} [{pq1:.6g}, {pq3:.6g}]':>32s} "
                  f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':>32s} {wins:5.0%}  "
                  f"{verdict(p, c, meta)}")


if __name__ == "__main__":
    main()
