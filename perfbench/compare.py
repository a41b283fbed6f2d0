#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT_RECORDS CHANGE_RECORDS [--json OUT]

Each argument is a directory of result records as ``perfbench/run.py``
writes them to ``perfbench/out/records`` (copy that directory aside
after running the parent commit).  Runs are paired by seed.  Untraced
runs give the end-to-end verdicts, traced runs the per-layer ones; the
rules are in ``perfbench/harness/compare.py``.  Exit status is 1 when
any end-to-end metric is worse or the change
fails more operations than the parent, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", help="also write the verdicts here")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    from harness.compare import FAILED, compare_records, load_records

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = compare_records(load_records(args.parent), load_records(args.change),
                           spec)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    e2e = {m["name"] for m in spec["end_to_end"]}
    print(f"{'workload':18s} {'metric':30s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'pairs':>5s} {'wins':>4s} {'spread':>7s}  verdict")
    for workload, name, v in rows:
        print(f"{workload:18s} {name:30s} {v.parent_median:12.5g} "
              f"{v.change_median:12.5g} {100 * v.delta:+7.1f}% {v.pairs:5d} "
              f"{v.wins:4d} {v.spread:7.3f}  {v.label}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([{"workload": w, "metric": n, "verdict": v.label,
                        "parent_median": v.parent_median,
                        "change_median": v.change_median, "pairs": v.pairs,
                        "wins": v.wins, "losses": v.losses, "spread": v.spread}
                       for w, n, v in rows], handle, indent=1)
    worse = [(w, n) for w, n, v in rows
             if (n in e2e or n == FAILED) and v.label == "worse"]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
