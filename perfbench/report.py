#!/usr/bin/env python3
"""Traced-run report: per-layer tables, tracing overhead, time accounting.

Usage, from the repository root, after traced and untraced runs of the
same seeds (``perfbench/run.py --trace 1`` and ``--trace 0``)::

    python3 perfbench/report.py [--records perfbench/out/records] [--json OUT]

For each workload it prints

* the per-layer metrics (median over the traced runs), each with the
  end-to-end metric it should move;
* the tracing overhead: each end-to-end metric's traced median minus its
  untraced median over the same seeds (the traced run measures them too);
* an accounting of the untraced end-to-end time by layer: the profiled
  epoch's op time against the untraced epoch, with the TCA heads' share
  of the step, and the served p50 split into model, request handling
  and HTTP/pool;
* the profiler's rows (``AutogradProfiler.to_records()``) of the first
  traced run.

``--json`` writes the same content, with the profiler rows embedded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-layer metric -> the end-to-end metric it should move.
MOVES = {
    "datasets.": "setup_s",
    "nn.": "train_queries_per_s, peak_rss_mb",
    "core.TCAHead": "train_queries_per_s",
    "core.Conv2d": "train_queries_per_s",
    "core.Linear": "train_queries_per_s",
    "core.Multimodal": "train_queries_per_s",
    "core.Relation": "train_queries_per_s",
    "core.predict_b128": "eval_queries_per_s",
    "core.predict_b1": "predict_qps (serve-cold), loadgen.open_p50_ms",
    "train.": "train_queries_per_s",
    "eval.": "eval_queries_per_s",
    # Exported after training, outside every timed end-to-end phase.
    "serve.bundle_export": "none (not inside an end-to-end metric)",
    "serve.bundle_load": "pool.cold_start_s",
    "serve.engine_topk": "predict_qps (serve-cold), loadgen.open_p50_ms",
    "serve.app_handle": "predict_qps, loadgen.open_p50_ms",
    "serve.cache_hit_rate": "predict_qps, loadgen.open_p50_ms (serve-hot-append)",
    # Measured end to end, but too unsteady on a shared host for a bound.
    "pool.cold_start": "none (kept per layer)",
    "pool.append_p50": "none (kept per layer)",
    "pool.start": "pool.cold_start_s",
    "pool.http_overhead": "predict_qps, loadgen.open_p50_ms",
    "pool.republish": "pool.append_p50_ms",
    "pool.": "failed operations, loadgen.open_p99_ms",
    "stream.": "pool.append_p50_ms",
    "loadgen.open_p": "none (kept per layer)",
    "loadgen.": "open-loop validity",
}


def moves(name: str) -> str:
    for prefix, target in MOVES.items():
        if name.startswith(prefix):
            return target
    return ""


def build_report(records: list[dict], spec: dict) -> dict:
    from harness.stats import median

    report = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in sorted({r["workload"] for r in records}):
        traced = [r for r in records
                  if r["workload"] == workload and r["provenance"]["trace"]]
        if not traced:
            continue
        # Untraced runs of the traced seeds, so the overhead compares like
        # with like.
        seeds = {r["provenance"]["seed"] for r in traced}
        plain = [r for r in records
                 if r["workload"] == workload and not r["provenance"]["trace"]
                 and r["provenance"]["seed"] in seeds]
        layer = {m["name"]: median([r["per_layer"][m["name"]] for r in traced])
                 for m in spec["per_layer"]}
        entry = {
            "traced_runs": len(traced), "untraced_runs": len(plain),
            "per_layer": [{"metric": name, "value": value, "unit": units[name],
                           "moves": moves(name)} for name, value in layer.items()],
            "profile": traced[0]["profile"],
        }
        if plain:
            overhead = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                t = median([r["end_to_end"][name] for r in traced])
                u = median([r["end_to_end"][name] for r in plain])
                overhead[name] = {"traced": t, "untraced": u, "overhead": t - u,
                                  "unit": metric["unit"]}
            entry["tracing_overhead"] = overhead
            epoch = median([r["per_layer"]["train.epoch_s"] for r in plain])
            p50 = median([r["per_layer"]["loadgen.open_p50_ms"] for r in plain])
            http = median([r["per_layer"]["loadgen.http_p50_ms"] for r in plain])
        else:
            epoch, p50, http = layer["train.epoch_s"], None, None
        profiled = median([r["per_layer"]["train.profiled_epoch_s"] for r in traced])
        ops = layer["nn.op_total_s"]
        tca = layer["core.TCAHead.fwd_self_s"] + layer["core.TCAHead.bwd_s"]
        entry["accounting"] = {
            "train": {
                "untraced_epoch_s": epoch,
                "profiled_epoch_s": profiled,
                "profiler_overhead_s": profiled - epoch,
                "op_time_s": ops,
                "outside_ops_s": profiled - ops,
                "tca_heads_s": tca,
                "tca_share_of_step": tca / profiled,
                "tca_share_of_untraced_epoch": tca / epoch,
            },
            "serve": {
                "untraced_predict_p50_ms": p50,
                "untraced_http_p50_ms": http,
                "traced_http_p50_ms": layer["loadgen.http_p50_ms"],
                "engine_topk_ms": layer["serve.engine_topk_ms"],
                "app_minus_engine_ms": (layer["serve.app_handle_ms"]
                                        - layer["serve.engine_topk_ms"]),
                "http_and_pool_ms": layer["pool.http_overhead_ms"],
                "queueing_ms": (p50 - http) if p50 is not None else None,
            },
        }
        report[workload] = entry
    return report


def render(report: dict) -> str:
    lines = []
    for workload, entry in report.items():
        lines.append(f"## {workload}  ({entry['traced_runs']} traced, "
                     f"{entry['untraced_runs']} untraced runs)")
        lines.append("")
        lines.append("| layer metric | median | unit | should move |")
        lines.append("|---|---:|---|---|")
        for row in entry["per_layer"]:
            lines.append(f"| {row['metric']} | {row['value']:.6g} | "
                         f"{row['unit']} | {row['moves']} |")
        if "tracing_overhead" in entry:
            lines += ["", "| end-to-end metric | traced | untraced | overhead |",
                      "|---|---:|---:|---:|"]
            for name, row in entry["tracing_overhead"].items():
                lines.append(f"| {name} ({row['unit']}) | {row['traced']:.6g} | "
                             f"{row['untraced']:.6g} | {row['overhead']:+.4g} |")
        train, serve = entry["accounting"]["train"], entry["accounting"]["serve"]
        lines += [
            "",
            f"Training step: the untraced epoch takes {train['untraced_epoch_s']:.3f} s; "
            f"the profiled epoch {train['profiled_epoch_s']:.3f} s, of which "
            f"{train['op_time_s']:.3f} s is inside nn ops. The TCA heads take "
            f"{train['tca_heads_s']:.3f} s, {100 * train['tca_share_of_step']:.0f}% of "
            f"the profiled step ({100 * train['tca_share_of_untraced_epoch']:.0f}% of "
            "the untraced epoch).",
        ]
        lines.append(
            f"Serving, traced run: HTTP p50 {serve['traced_http_p50_ms']:.3f} ms = "
            f"engine top-k {serve['engine_topk_ms']:.3f} ms + request handling "
            f"{serve['app_minus_engine_ms']:.3f} ms + HTTP and pool "
            f"{serve['http_and_pool_ms']:.3f} ms.")
        if serve["untraced_predict_p50_ms"] is not None:
            lines.append(
                f"Untraced: the open-loop p50 is {serve['untraced_predict_p50_ms']:.3f} ms "
                f"from the due time, of which HTTP p50 {serve['untraced_http_p50_ms']:.3f} ms "
                f"and {serve['queueing_ms']:.3f} ms waiting for a free connection.")
        top = sorted((r for r in entry["profile"] if r["type"] == "op"),
                     key=lambda r: -(r["forward_seconds"] + r["backward_seconds"]))[:8]
        lines += ["", "| op (profiled epoch) | calls | fwd s | bwd s | alloc MB |",
                  "|---|---:|---:|---:|---:|"]
        for r in top:
            lines.append(f"| {r['name']} | {r['forward_calls']} | "
                         f"{r['forward_seconds']:.3f} | {r['backward_seconds']:.3f} | "
                         f"{r['alloc_bytes'] / 1e6:.0f} |")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", default=os.path.join(HERE, "out", "records"))
    parser.add_argument("--json", help="write the report (with profiles) here")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    from harness.compare import load_records

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    report = build_report(load_records(args.records), spec)
    if not report:
        print(f"no traced runs under {args.records}", file=sys.stderr)
        return 2
    print(render(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
