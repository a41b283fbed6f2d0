"""Verdicts on two sets of benchmark runs: improved, worse, unchanged, unresolved.

The rules (for one metric on one workload, parent runs ``P`` and change
runs ``C``, paired by seed):

* **improved** — at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither side), and the medians differ
  in the better direction by more than the parent's inter-quartile
  distance;
* **worse** — the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median); a metric
  without a bound is worse when it loses by the mirror of the
  *improved* rule;
* **unresolved** — the run-to-run spread (inter-quartile distance over
  the median, the larger of the two sides) exceeds the bound, unless
  every change run reads better than every parent run; every
  per-layer metric (no bound) that is neither improved nor worse,
  unless both sides repeat one identical value;
* **unchanged** — otherwise.

Failed operations gate every verdict of a workload: when the change's
runs fail more operations than the parent's (summed over the paired
runs of that section), a gain does not count — each *improved* there
becomes *unresolved* — and the workload gets a ``failed_ops`` row
labelled *worse*.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass

from .stats import median, quartile_spread, quartiles

__all__ = ["Verdict", "verdict", "load_records", "compare_records"]

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Row name of the failed-operations gate.
FAILED = "failed_ops"


@dataclass
class Verdict:
    label: str
    parent_median: float
    change_median: float
    pairs: int
    wins: int
    losses: int
    spread: float

    @property
    def delta(self) -> float:
        """Relative change of the median (signed, not direction-aware)."""
        if self.parent_median == 0:
            return 0.0 if self.change_median == 0 else float("inf")
        return (self.change_median - self.parent_median) / abs(self.parent_median)


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> Verdict:
    """Judge one metric; ``parent[i]`` pairs with ``change[i]``."""
    if not parent or not change:
        raise ValueError("need at least one run on each side")
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = median(parent), median(change)
    q1, _, q3 = quartiles(parent)
    p_iqr = q3 - q1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gain = sign * (c_med - p_med)
    spread = max(quartile_spread(parent), quartile_spread(change))
    enough = len(pairs) >= MIN_PAIRS

    def result(label: str) -> Verdict:
        return Verdict(label, p_med, c_med, len(pairs), wins, losses, spread)

    if enough and wins >= WIN_SHARE * len(pairs) and gain > p_iqr:
        return result("improved")
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gain > p_iqr:
            return result("worse")
        if len(set(parent) | set(change)) == 1:
            return result("unchanged")
        return result("unresolved")
    if -gain > bound * abs(p_med):
        return result("worse")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return result("unresolved")
    return result("unchanged")


def load_records(path: str) -> list[dict]:
    """Result records from a directory (``*.json``) or a single file."""
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    records = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            record = json.load(handle)
        if "workload" in record and "end_to_end" in record:
            records.append(record)
    return records


def _series(records: list[dict], trace: bool) -> dict:
    """``{(workload, section, metric): {seed: value}}``; the failed
    operations of each run are under the metric name ``failed_ops``."""
    out: dict = {}
    for rec in records:
        prov = rec.get("provenance", {})
        if bool(prov.get("trace")) != trace:
            continue
        seed = prov.get("seed")
        for section in ("end_to_end", "per_layer"):
            out.setdefault((rec["workload"], section, FAILED), {})[seed] = \
                rec.get("failed", 0)
            for name, value in rec.get(section, {}).items():
                out.setdefault((rec["workload"], section, name), {})[seed] = value
    return out


def _failures(p: dict, c: dict) -> Verdict:
    """``failed_ops`` summed over the seeds both sides ran."""
    seeds = set(p) & set(c)
    p_sum = sum(p[s] for s in seeds)
    c_sum = sum(c[s] for s in seeds)
    return Verdict("worse" if c_sum > p_sum else "unchanged", p_sum, c_sum,
                   len(seeds), 0, 0, 0.0)


def compare_records(parent: list[dict], change: list[dict],
                    spec: dict) -> list[tuple[str, str, Verdict]]:
    """Verdict per end-to-end metric x workload (untraced runs) and per
    per-layer metric x workload (traced runs), pairing runs by seed."""
    rows = []
    for section, trace, declared in (("end_to_end", False, spec["end_to_end"]),
                                     ("per_layer", True, spec["per_layer"])):
        p_series, c_series = _series(parent, trace), _series(change, trace)
        workloads = sorted({key[0] for key in p_series} & {key[0] for key in c_series})
        for workload in workloads:
            key = (workload, section, FAILED)
            failures = _failures(p_series.get(key, {}), c_series.get(key, {}))
            more_failed = failures.label == "worse"
            if more_failed:
                rows.append((workload, FAILED, failures))
            for metric in declared:
                key = (workload, section, metric["name"])
                p, c = p_series.get(key, {}), c_series.get(key, {})
                seeds = sorted(set(p) & set(c), key=str)
                if not seeds:
                    continue
                result = verdict([p[s] for s in seeds], [c[s] for s in seeds],
                                 metric["better"], metric.get("bound"))
                if more_failed and result.label == "improved":
                    result.label = "unresolved"
                rows.append((workload, metric["name"], result))
    return rows
