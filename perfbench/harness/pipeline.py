"""The workloads: CamE from dataset to served top-k.

Every run executes the paper's whole pipeline on drkg-mm at the SMALL
preset, so every end-to-end metric exists on every workload:

1. set-up, repeated :data:`SETUP_REPEATS` times: dataset generation,
   modality features (d=24), CamE (d=48) with its 1-to-N training
   engine;
2. :data:`TRAIN_EPOCHS` training epochs of batch 128 (Eqn. 16), each
   followed by a filtered evaluation of valid + test in both
   directions, and one more evaluation after the last epoch, which
   must rank identically;
3. bundle export, then :data:`COLD_STARTS` cold starts of a one-worker
   ``PoolServer`` in a child process;
4. :data:`GROUPS` groups of serving, each an untimed warm-up followed
   by :data:`BLOCKS` pairs of a closed-loop block on two keep-alive
   connections (capacity) and a slice of an open loop at a frozen rate
   (latency), then the group's ``/append`` writes, with no read in
   flight;
5. parity of every served top-k with an in-process
   ``PredictionEngine`` that follows the same appends.

Each metric is a median over samples spread across its phase (set-ups,
epochs, evaluation batches, cold starts, open-loop slices for the p50
and groups for the p99, appends), so that a slow stretch of the host
touches few of them, but for the closed-loop capacity, which is the
best of its blocks (see :func:`_serve`).  The benchmark process and the
pool run on separate cores (:func:`pin_cores`).  The workload decides
the serving traffic (:data:`WORKLOADS`).  With tracing on, the run also
profiles one training epoch with ``AutogradProfiler`` and times each
layer's public calls in process.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import build_model
from repro.datasets import build_features, clear_cache, get_dataset
from repro.eval import RankingEvaluator
from repro.nn import inference_mode
from repro.obs import AutogradProfiler
from repro.serve import PredictionEngine, ServiceApp, save_bundle

from . import checks, loadgen
from .stats import median, percentile, tail_percentile

DATASET, DATASET_SCALE = "drkg-mm", 0.5
#: The corpus (dataset and pre-trained features) and CamE's
#: initialisation and batch order are fixed, so ``test_mrr`` is one
#: quality figure at a fixed seed and budget; ``--seed`` drives the
#: request keys, the open-loop phase and the appended entities.
CORPUS_SEED = 0
FEATURE_DIM, MODEL_DIM, BATCH_SIZE, PRETRAIN_EPOCHS = 24, 48, 128, 4
TRAIN_EPOCHS = 6
SETUP_REPEATS = 5
COLD_STARTS = 9
POOL_WORKERS = 1
CONNECTIONS = 2
#: The serving phase runs GROUPS groups, each of a warm-up and then
#: BLOCKS pairs of a closed-loop block and an open-loop slice; the
#: group's appends follow, and roll the replica.
GROUPS, BLOCKS = 3, 4
#: Shares of ``--seconds`` for the closed loop (all blocks together) and
#: the open loop (at least MIN_OPEN_READS reads in each group).
CLOSED_SHARE, OPEN_SHARE = 0.2, 0.7
#: Cap on one warm-up, should the server be far slower than expected.
WARMUP_MAX_S = 5.0
TOP_K = 10
#: A p99 needs >= 1000 samples to have 10 beyond it.
MIN_OPEN_READS = 1100
#: Filtered test MRR (in %) below which training counts as broken;
#: random ranking of ~190 candidates scores about 3.
MRR_FLOOR = 6.0
#: Skew of the hot workload's keys: drkg-mm's own entity-popularity law
#: (``DRKGConfig.zipf_exponent``), so requests are as skewed as the graph.
ZIPF_EXPONENT = 1.1
PROFILED_EPOCH = 2
REPLAY_OPS = 1200
#: Pause before each append, so the last roll settles first.
APPEND_GAP = 0.05
POOL_PROC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pool_proc.py")


@dataclass(frozen=True)
class Workload:
    """Serving traffic of one workload."""

    name: str
    mix: str            # "cold": distinct keys; "zipf": skewed keys
    open_rate: float    # frozen open-loop rate, requests/s
    group_appends: int  # /append after each group's reads
    warmup_reads: int   # closed-loop reads after each roll, not timed


#: Why each workload exists is recorded in ``BENCHMARK.json``.  Open-loop
#: rates are frozen at about 30% and 17% of the closed-loop capacity
#: measured when the benchmark was defined (2 cores, pinned: ~410 q/s
#: cold, ~1,200 q/s hot), so that queueing does not amplify host noise.
#: The hot warm-up brings the row cache to its steady hit rate (~76% at
#: Zipf 1.1 over ~4,900 keys and 512 rows, reached after ~1,000 reads)
#: before anything is timed; from an empty cache it is ~61% over the
#: first 1,000 reads, so near 50% that the p50 moved between a hit's and
#: a miss's latency from run to run.
#: Appends run between groups, with no read in flight: a roll under
#: concurrent reads stalls them for a time that varied by a third between
#: runs on that host, too much for a bound.
WORKLOADS = {w.name: w for w in (
    Workload("serve-cold", mix="cold", open_rate=120.0, group_appends=10,
             warmup_reads=200),
    Workload("serve-hot-append", mix="zipf", open_rate=200.0,
             group_appends=10, warmup_reads=1000),
)}


class RunError(RuntimeError):
    """The run could not be carried out (not a correctness failure)."""


def pin_cores() -> dict[str, set[int]]:
    """Pin this process to one usable core and return the cores for the
    pool: another one when there are two or more.

    The load generator and the pool then never compete for a core, and
    the pool's front end and worker hand each request over on one core:
    unpinned, the hit path's hand-overs between cores made the hot p50
    spread 0.59 of its median over four runs on a 2-core host, pinned
    0.10.
    """
    usable = sorted(os.sched_getaffinity(0))
    bench, pool = {usable[0]}, {usable[-1]}
    os.sched_setaffinity(0, bench)
    return {"benchmark": bench, "pool": pool}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def read_bodies(num_entities: int, num_relations: int, mix: str, seed: int,
                count: int, open_count: int, exclude: tuple = (),
                ) -> tuple[list[dict], list[dict]]:
    """Seeded ``/predict`` bodies: ``(closed-loop list, open-loop list)``.

    Keys are ``(entity, relation, direction)``, less those in ``exclude``.
    ``cold``: one seeded permutation of every key, cut in two disjoint
    ranges: the open loop's ``open_count`` reads cycle the first
    ``min(open_count, half)`` keys, and the closed loop cycles the rest.
    A key recurs only after more than a thousand others (the row cache
    holds 512), however fast the server is.  ``zipf``: ``count`` draws
    per list from a Zipf law over a seeded ranking of the keys.
    """
    rng = np.random.default_rng([seed, 1])
    keys = [(e, r, d) for e in range(num_entities)
            for r in range(num_relations) for d in (0, 1)
            if (e, r, d) not in exclude]
    order = rng.permutation(len(keys))

    def body(pos: int) -> dict:
        e, r, d = keys[int(order[pos])]
        side = "head" if d == 0 else "tail"
        return {side: e, "relation": r, "k": TOP_K, "filter_known": True}

    if mix == "cold":
        n_open = min(open_count, len(keys) // 2)
        ordered = [body(i) for i in range(len(keys))]
        return ordered[n_open:], [ordered[i % n_open] for i in range(open_count)]
    weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    draws = rng.choice(len(keys), size=2 * count, p=weights)
    lists = [body(int(i)) for i in draws]
    return lists[:count], lists[count:]


_WORDS = ("kinase", "inhibitor", "analogue", "salicylate", "amide", "ester",
          "receptor", "agonist", "cyclic", "sulfonyl", "purine", "steroid")


def append_bodies(mkg, feature_dim: int, seed: int, count: int) -> list[dict]:
    """Seeded ``/append`` bodies: one unseen compound and one known triple."""
    rng = np.random.default_rng([seed, 2])
    train = np.asarray(mkg.split.train)
    bodies = []
    for j in range(count):
        name = f"bench-compound-{seed}-{j}"
        _, rel, tail = (int(x) for x in train[rng.integers(len(train))])
        words = rng.choice(_WORDS, size=4, replace=False)
        bodies.append({
            "entities": [{
                "name": name, "type": "Compound",
                "description": " ".join(str(w) for w in words),
                "molecule": rng.normal(size=feature_dim).round(6).tolist(),
            }],
            "triples": [[name, rel, tail]],
        })
    return bodies


# ----------------------------------------------------------------------
# Pool child process
# ----------------------------------------------------------------------
class PoolProcess:
    """A ``PoolServer`` in a child process, timed to its first 200 reply."""

    def __init__(self, bundle_dir: str, probe: dict, tally: checks.Tally,
                 env: dict, cwd: str, cpus: set[int]) -> None:
        tick = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, POOL_PROC, bundle_dir, str(POOL_WORKERS),
             ",".join(map(str, sorted(cpus)))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RunError("pool process did not report a port")
            self.info = json.loads(line)
            self.port = int(self.info["port"])
            client = loadgen.HttpClient(self.port)
            status, payload = client.request("POST", "/predict", probe)
            client.close()
        except BaseException:
            self.stop()
            raise
        self.cold_start_s = time.perf_counter() - tick
        tally.record(status == 200 and checks.served_result_ok(payload, TOP_K),
                     "cold_start_probe")

    def get(self, path: str):
        client = loadgen.HttpClient(self.port)
        try:
            return client.request("GET", path)
        finally:
            client.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30.0)
        self.proc.stdout.close()


def prometheus_total(text: str, family: str, label: str = "") -> float:
    """Sum of the samples of the counter ``family`` in Prometheus text
    whose labels contain ``label`` (every sample when it is empty)."""
    total = 0.0
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        base, _, labels = name.partition("{")
        if base == family and label in labels:
            total += float(value)
    return total


# ----------------------------------------------------------------------
# Set-up, training, evaluation
# ----------------------------------------------------------------------
def _setup(seed: int, tally: checks.Tally) -> tuple:
    times, gen_s, feat_s = [], [], []
    first = None
    for _ in range(SETUP_REPEATS):
        clear_cache()
        tick = time.perf_counter()
        mkg = get_dataset(DATASET, scale=DATASET_SCALE, seed=CORPUS_SEED)
        generated = time.perf_counter()
        feats = build_features(
            mkg, np.random.default_rng([CORPUS_SEED, 3]), d_m=FEATURE_DIM,
            d_t=FEATURE_DIM, d_s=FEATURE_DIM, gin_epochs=PRETRAIN_EPOCHS,
            compgcn_epochs=PRETRAIN_EPOCHS)
        featured = time.perf_counter()
        model, engine = build_model("CamE", mkg, feats,
                                    np.random.default_rng([CORPUS_SEED, 4]),
                                    dim=MODEL_DIM, batch_size=BATCH_SIZE)
        times.append(time.perf_counter() - tick)
        gen_s.append(generated - tick)
        feat_s.append(featured - generated)
        if first is None:
            first = feats
        else:
            tally.record(all(np.array_equal(getattr(first, m), getattr(feats, m))
                             for m in ("molecular", "textual", "structural")),
                         "nondeterministic_features")
    return mkg, feats, model, engine, {"setup_s": times}, {
        "setup_s": median(times),
        "datasets.generate_s": median(gen_s),
        "datasets.features_s": median(feat_s),
    }


def _profile_metrics(prof: AutogradProfiler, batches: int) -> tuple[dict, list]:
    records = prof.to_records()
    ops = {r["name"]: r for r in records if r["type"] == "op"}
    layers = {r["name"]: r for r in records if r["type"] == "layer"}

    def op_s(name):
        r = ops.get(name)
        return r["forward_seconds"] + r["backward_seconds"] if r else 0.0

    def layer_s(name):
        r = layers.get(name)
        return r["self_seconds"] + r["backward_seconds"] if r else 0.0

    tca = layers.get("TCAHead", {})
    return {
        "nn.op.softmax_s": op_s("softmax"),
        "nn.op.matmul_s": op_s("matmul"),
        "nn.op.mul_s": op_s("mul"),
        "nn.op_total_s": sum(op_s(name) for name in ops),
        "nn.alloc_mb_per_batch": sum(r["alloc_bytes"] for r in ops.values())
        / 1e6 / batches,
        "nn.op_calls_per_batch": sum(r["forward_calls"] for r in ops.values())
        / batches,
        "core.TCAHead.fwd_self_s": tca.get("self_seconds", 0.0),
        "core.TCAHead.bwd_s": tca.get("backward_seconds", 0.0),
        "core.Conv2d.s": layer_s("Conv2d"),
        "core.Linear.s": layer_s("Linear"),
        "core.MultimodalTCAFusion.s": layer_s("MultimodalTCAFusion"),
        "core.RelationInteractiveTCA.s": layer_s("RelationInteractiveTCA"),
    }, records


def _train_and_evaluate(model, engine, split, trace: bool,
                        tally: checks.Tally, samples: dict | None = None,
                        ) -> tuple[dict, dict, list]:
    """Train, evaluating after every epoch and once more at the end.

    Every epoch is an operation that fails on a non-finite loss or
    parameter; every scored evaluation batch fails on a non-finite
    score.  ``test_mrr`` is the filtered test MRR after the last epoch.
    """
    samples = {} if samples is None else samples
    tick = time.perf_counter()
    evaluator = RankingEvaluator(split)
    layer = {"eval.filter_build_s": time.perf_counter() - tick}
    profile: list = []
    epoch_s, plain_s, passes = [], [], []
    batches = len(engine.batcher)
    for epoch in range(1, TRAIN_EPOCHS + 1):
        tick = time.perf_counter()
        if trace and epoch == PROFILED_EPOCH:
            with AutogradProfiler() as prof:
                loss = engine.train_epoch()
            elapsed = time.perf_counter() - tick
            profiled, profile = _profile_metrics(prof, batches)
            layer.update(profiled)
            layer["train.profiled_epoch_s"] = elapsed
        else:
            loss = engine.train_epoch()
            elapsed = time.perf_counter() - tick
            plain_s.append(elapsed)
        epoch_s.append(elapsed)
        tally.record(bool(np.isfinite(loss)), "nonfinite_loss")
        tally.record(checks.params_finite(model), "nonfinite_parameter")
        passes.append(checks.eval_pass(model, evaluator, tally, BATCH_SIZE))
    passes.append(checks.eval_pass(model, evaluator, tally, BATCH_SIZE))
    last, again = passes[-2].metrics, passes[-1].metrics
    tally.record(all(again[p].mrr == last[p].mrr for p in last),
                 "eval_not_repeatable")
    library = evaluator.evaluate(model, "test", batch_size=BATCH_SIZE)
    test_mrr = last["test"].mrr
    tally.record(abs(library.mrr - test_mrr) <= 1e-9 * max(1.0, library.mrr),
                 "eval_disagrees_with_evaluator")
    tally.record(bool(np.isfinite(test_mrr)) and test_mrr >= MRR_FLOOR,
                 "test_mrr_below_floor")
    queries = engine.batcher.num_queries
    samples["train_queries_per_s"] = [queries / s for s in epoch_s]
    # Full batches only, so that every sample ranks the same amount.
    full = max(q for p in passes for q, _ in p.batches)
    samples["eval_queries_per_s"] = [q / s for p in passes
                                     for q, s in p.batches if q == full]
    layer.update({
        "train.epoch_s": median(plain_s),
        "train.batches": batches,
        "eval.score_s": median(p.score_seconds for p in passes),
        "eval.rank_s": median(p.rank_seconds for p in passes),
    })
    if trace:
        tca = layer["core.TCAHead.fwd_self_s"] + layer["core.TCAHead.bwd_s"]
        layer["core.TCAHead.step_share"] = tca / layer["train.profiled_epoch_s"]
    e2e = {
        "train_queries_per_s": median(samples["train_queries_per_s"]),
        "eval_queries_per_s": median(samples["eval_queries_per_s"]),
        "test_mrr": test_mrr,
    }
    return e2e, layer, profile


def _core_latency(model, split, seed: int) -> dict:
    rng = np.random.default_rng([seed, 5])
    test = np.asarray(split.test)
    b1, b128 = [], []
    with inference_mode(model):
        for _ in range(200):
            h, r, _t = test[rng.integers(len(test))]
            tick = time.perf_counter()
            model.predict_tails(np.array([h]), np.array([r]))
            b1.append(time.perf_counter() - tick)
        for _ in range(30):
            rows = test[rng.integers(len(test), size=BATCH_SIZE)]
            tick = time.perf_counter()
            model.predict_tails(rows[:, 0], rows[:, 1])
            b128.append(time.perf_counter() - tick)
    return {"core.predict_b1_ms": 1e3 * median(b1),
            "core.predict_b128_ms": 1e3 * median(b128)}


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _replay(bundle_dir: str, warmup: list[dict], reads: list[dict]) -> dict:
    """Time the open loop's first reads in process, engine then app, each
    after the workload's warm-up reads, as the pool serves them."""
    engine = PredictionEngine.from_bundle(bundle_dir)
    app = ServiceApp(PredictionEngine.from_bundle(bundle_dir))
    for body in warmup:
        engine.top_k_tails(*checks.read_key(body, engine.num_relations),
                           TOP_K, filter_known=True)
        app.handle("POST", "/predict", body)
    warm = engine.stats()["cache"]
    engine_ms = []
    for body in reads:
        anchor, rel = checks.read_key(body, engine.num_relations)
        tick = time.perf_counter()
        engine.top_k_tails(anchor, rel, TOP_K, filter_known=True)
        engine_ms.append(1e3 * (time.perf_counter() - tick))
    cache = engine.stats()["cache"]
    hits = cache["hits"] - warm["hits"]
    app_ms = []
    for body in reads:
        tick = time.perf_counter()
        app.handle("POST", "/predict", body)
        app_ms.append(1e3 * (time.perf_counter() - tick))
    return {"serve.engine_topk_ms": median(engine_ms),
            "serve.app_handle_ms": median(app_ms),
            "serve.cache_hit_rate": hits / (hits + cache["misses"] - warm["misses"])}


def _latencies_ms(records) -> list[float]:
    """Per-read latency from the due time; a failed read is infinitely late."""
    return [1e3 * r.latency if r.ok else float("inf")
            for r in records if r.kind == "read"]


def _serve(workload: Workload, mkg, feats, model, bundle_dir: str,
           seconds: float, seed: int, trace: bool, tally: checks.Tally,
           env: dict, cwd: str, samples: dict, pool_cpus: set[int],
           ) -> tuple[dict, dict]:
    e2e, layer = {}, {}
    split = mkg.split
    tick = time.perf_counter()
    save_bundle(bundle_dir, model, "CamE", split, feats, dim=MODEL_DIM)
    layer["serve.bundle_export_s"] = time.perf_counter() - tick

    open_count = max(GROUPS * MIN_OPEN_READS,
                     int(workload.open_rate * OPEN_SHARE * seconds))
    probe = {"head": int(split.test[0, 0]), "relation": int(split.test[0, 1]),
             "k": TOP_K, "filter_known": True}
    # The cold-start probe's key is left out: the pool has cached it.
    closed_reads, open_reads = read_bodies(
        split.num_entities, split.num_relations, workload.mix, seed,
        count=50_000, open_count=open_count,
        exclude=((probe["head"], probe["relation"], 0),))
    offsets = loadgen.paced_schedule(workload.open_rate, open_count, seed)
    closed_s = CLOSED_SHARE * seconds / (GROUPS * BLOCKS)
    appends = iter(append_bodies(mkg, FEATURE_DIM, seed,
                                 GROUPS * workload.group_appends))

    cold, loads, starts = [], [], []
    for attempt in range(COLD_STARTS):
        pool = PoolProcess(bundle_dir, probe, tally, env, cwd, pool_cpus)
        cold.append(pool.cold_start_s)
        loads.append(pool.info["load_s"])
        starts.append(pool.info["start_s"])
        if attempt < COLD_STARTS - 1:
            pool.stop()
    layer["pool.cold_start_s"] = median(cold)
    samples["cold_start_s"] = cold
    layer["serve.bundle_load_s"] = median(loads)
    layer["pool.start_s"] = median(starts)

    records: list[loadgen.OpRecord] = []
    groups: list[list[list[loadgen.OpRecord]]] = []
    rates = []
    clock = loadgen.GenerationClock()
    clients = [loadgen.HttpClient(pool.port) for _ in range(CONNECTIONS)]
    pieces = iter(loadgen.split_schedule(offsets, GROUPS * BLOCKS))
    # The generator's own collector pauses would read as server latency.
    gc.disable()
    try:
        position = 0
        for _ in range(GROUPS):
            # Untimed reads first: the replica is fresh and its row
            # cache empty (the first one was just started, later ones
            # rolled by the appends below).
            warm, _, position = loadgen.run_closed_loop(
                clients, closed_reads, position, WARMUP_MAX_S, clock,
                limit=workload.warmup_reads)
            records += warm
            slices = []
            for _ in range(BLOCKS):
                closed, elapsed, position = loadgen.run_closed_loop(
                    clients, closed_reads, position, closed_s, clock)
                rates.append(sum(1 for r in closed if r.kind == "read" and r.ok)
                             / elapsed)
                records += closed
                slices.append(loadgen.run_open_loop(clients, next(pieces),
                                                    open_reads, clock))
            groups.append(slices)
            if workload.mix == "cold":
                # The replica's counters start at zero with each roll, and
                # rolls come only after this scrape: a hit here means a
                # cold read was served from the row cache.
                status, text = pool.get("/metrics")
                text = text if status == 200 else ""
                hits, misses = (prometheus_total(
                    text, "serve_cache_lookups_total", f'result="{result}"')
                    for result in ("hit", "miss"))
                # No misses means the replica's counters were not scraped.
                tally.record(misses > 0 and hits == 0, "cold_read_hit_cache")
            for _ in range(workload.group_appends):
                time.sleep(APPEND_GAP)
                records.append(loadgen.execute(clients[0], clock, "append",
                                               next(appends), -1,
                                               time.perf_counter()))
        opened = [rec for slices in groups for piece in slices for rec in piece]
        records += opened
        status, metrics_text = pool.get("/metrics")
        tally.record(status == 200, "metrics_scrape")
    finally:
        gc.enable()
        for client in clients:
            client.close()
        pool.stop()

    samples["predict_qps"] = rates
    samples["open_ms"] = [[_latencies_ms(piece) for piece in slices]
                          for slices in groups]
    samples["append_ms"] = [1e3 * r.service for r in records
                            if r.kind == "append"]
    # The host can only slow a block down, never speed it up: capacity
    # is the best closed-loop block, so that a slow stretch of the host
    # does not set it (over ten seeds in such a stretch, the median of
    # the blocks spread 0.32, the best 0.16).  The p50 and p99 are the
    # medians of the slices' p50s and of the groups' p99s.
    e2e["predict_qps"] = max(rates)
    layer["loadgen.open_p50_ms"] = median(
        percentile(_latencies_ms(piece), 50.0)
        for slices in groups for piece in slices)
    tails = []
    for slices in groups:
        lat = _latencies_ms([rec for piece in slices for rec in piece])
        p, p_tail = tail_percentile(lat)
        if p < 99.0:
            raise RunError(f"open-loop group too short for a p99 ({len(lat)} reads)")
        tails.append(p_tail)
    layer["loadgen.open_p99_ms"] = median(tails)
    append_recs = [r for r in records if r.kind == "append"]
    layer["pool.append_p50_ms"] = median(1e3 * r.service for r in append_recs)

    for rec in records:
        if rec.kind == "read":
            tally.record(rec.ok and checks.served_result_ok(rec.payload, TOP_K),
                         "read_not_ok")
        else:
            tally.record(rec.ok, "append_not_ok")
    by_generation = {int(r.payload["stream_generation"]): r.body
                     for r in append_recs if r.ok}
    in_order = [by_generation[g] for g in sorted(by_generation)]
    tally.record(sorted(by_generation) == list(range(1, len(in_order) + 1)),
                 "append_generations_not_contiguous")
    reference = checks.Reference(bundle_dir)
    checks.verify_reads(records, in_order, reference, tally)

    late = [1e3 * r.late for r in opened]
    layer.update({
        "stream.apply_ms": 1e3 * median(reference.apply_seconds),
        "pool.shed": prometheus_total(metrics_text, "pool_shed_total"),
        "pool.requeues": prometheus_total(metrics_text, "pool_requeues_total"),
        "pool.respawns": prometheus_total(metrics_text,
                                          "pool_worker_respawns_total"),
        "loadgen.late_p99_ms": percentile(late, 99.0),
        "loadgen.sent": len(opened),
        "loadgen.ok": sum(1 for r in opened if r.ok),
        "loadgen.failed": sum(1 for r in opened if not r.ok),
        "loadgen.http_p50_ms": median(1e3 * r.service for r in opened
                                      if r.kind == "read" and r.ok),
    })
    layer["pool.republish_ms"] = (layer["pool.append_p50_ms"]
                                  - layer["stream.apply_ms"])
    if trace:
        layer.update(_replay(bundle_dir, closed_reads[:workload.warmup_reads],
                             open_reads[:REPLAY_OPS]))
        layer["pool.http_overhead_ms"] = (layer["loadgen.http_p50_ms"]
                                          - layer["serve.app_handle_ms"])
    return e2e, layer


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------
def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: str, scratch: str) -> dict:
    """Run one workload; returns the full result record."""
    workload = WORKLOADS[workload_name]
    tally = checks.Tally()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cpus = pin_cores()
    mkg, feats, model, engine, samples, setup = _setup(seed, tally)
    e2e = {"setup_s": setup.pop("setup_s")}
    layer = dict(setup)
    phases = {}

    tick = time.perf_counter()
    train_e2e, train_layer, profile = _train_and_evaluate(
        model, engine, mkg.split, trace, tally, samples)
    e2e.update(train_e2e)
    layer.update(train_layer)
    # The pipeline's own peak (set-up, training, evaluation); what the
    # load generator holds later is the harness's, not the program's.
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        layer.update(_core_latency(model, mkg.split, seed))
    phases["train_eval_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    bundle_dir = os.path.join(scratch, "bundle")
    try:
        serve_e2e, serve_layer = _serve(workload, mkg, feats, model,
                                        bundle_dir, seconds, seed, trace,
                                        tally, env, root, samples,
                                        cpus["pool"])
    finally:
        shutil.rmtree(bundle_dir, ignore_errors=True)
    e2e.update(serve_e2e)
    layer.update(serve_layer)
    phases["serve_s"] = time.perf_counter() - tick
    return {
        "workload": workload.name,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_reasons": tally.reasons,
        "phases_s": phases,
        "end_to_end": e2e,
        "per_layer": layer,
        "profile": profile,
        "samples": samples,
        "cpus": {name: sorted(c) for name, c in cpus.items()},
    }
