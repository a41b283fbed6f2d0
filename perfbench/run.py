#!/usr/bin/env python3
"""CamE end-to-end benchmark: dataset to served top-k, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 15 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in
``perfbench/harness/pipeline.py``.  With ``--trace 0`` the run reports
every end-to-end metric; with ``--trace 1`` a separate run profiles one
training epoch and times each layer's public calls, and reports the
per-layer metrics.  Each metric is printed as ``name value unit``; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The full record, with provenance, the profiler's rows and
the run's other-mode numbers, is written to
``perfbench/out/records/<workload>-seed<seed>-trace<0|1>.json``.

``--workload all`` runs every workload in turn, each in its own process,
and exits with the worst status.

Exit status: 0 when every correctness check passed, 1 when one failed
(the result line is still printed), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
#: One BLAS thread in this process and the pool it starts: on a machine
#: of few cores, more threads than cores time the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False).returncode
            for w in _load_spec()["workloads"])
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    spec = _load_spec()
    from harness import pipeline
    from harness.provenance import provenance

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    out_dir = os.path.join(HERE, "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(out_dir, "tmp", f"{tag}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        record = pipeline.run(args.workload, args.seed, args.seconds, trace,
                              ROOT, scratch)
    except pipeline.RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = record["per_layer"] if trace else record["end_to_end"]
    metrics = {}
    for metric in declared:
        value = float(source[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload:18s} {metric['name']:30s} {value:14.6g} {metric['unit']}")
    if not record["correct"]:
        print(f"correctness checks failed: {record['failure_reasons']}",
              file=sys.stderr)
    record["provenance"] = provenance(ROOT, args.workload, args.seed,
                                      int(args.seconds), trace)
    records_dir = os.path.join(out_dir, "records")
    os.makedirs(records_dir, exist_ok=True)
    with open(os.path.join(records_dir, tag + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
