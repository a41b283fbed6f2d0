"""Correctness checks: finite values, exact filtered ranking, served parity.

Every check turns into a failed *operation* (counted against the
attempted ones) rather than an exception, so a broken model shows up in
the result's ``failed`` count instead of as a flattering metric: a model
whose scores are NaN ranks every target first under ``rank_scores``
(NaN compares false), which would otherwise read as MRR 100.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.eval import RankingEvaluator, RankingMetrics
from repro.serve import PredictionEngine, load_bundle
from repro.stream import apply_append_to_model, default_encoder

#: Rows scored per batch when the reference primes its row cache.
PRIME_BATCH = 128

__all__ = ["Tally", "all_finite", "params_finite", "EvalPass", "eval_pass",
           "served_result_ok", "read_key", "Reference", "verify_reads"]


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return ok


def all_finite(values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=np.float64)).all())


def params_finite(model) -> bool:
    return all(all_finite(p.data) for p in model.parameters())


@dataclass
class EvalPass:
    """One filtered evaluation of valid + test, both directions."""

    metrics: dict[str, RankingMetrics]
    queries: int
    seconds: float
    score_seconds: float    # model.predict_tails
    rank_seconds: float     # RankingEvaluator.rank_scores
    batches: list = field(default_factory=list)  # (queries, seconds)


def _direction_queries(triples: np.ndarray, num_relations: int):
    tails = (triples[:, [0, 1]], triples[:, 2])
    heads = (np.stack([triples[:, 2], triples[:, 1] + num_relations], axis=1),
             triples[:, 0])
    return (tails, heads)


def eval_pass(model, evaluator: RankingEvaluator, tally: Tally,
              batch_size: int = 128) -> EvalPass:
    """Rank valid and test (tail and head side) batch by batch.

    Each scored batch is one operation; it fails when any score is
    non-finite.  Ranks follow ``RankingEvaluator.rank_scores`` exactly.
    """
    split = evaluator.split
    metrics: dict[str, RankingMetrics] = {}
    score_s = rank_s = 0.0
    queries = 0
    batches = []
    start = time.perf_counter()
    for part in ("valid", "test"):
        triples = np.asarray(getattr(split, part))
        ranks = []
        for q_all, target_all in _direction_queries(triples, split.num_relations):
            for lo in range(0, len(q_all), batch_size):
                q = q_all[lo:lo + batch_size]
                target = target_all[lo:lo + batch_size]
                tick = time.perf_counter()
                scores = model.predict_tails(q[:, 0], q[:, 1])
                tock = time.perf_counter()
                ranks.append(evaluator.rank_scores(scores, q[:, 0], q[:, 1],
                                                   target))
                done = time.perf_counter()
                rank_s += done - tock
                score_s += tock - tick
                batches.append((len(q), done - tick))
                tally.record(all_finite(scores), "nonfinite_score")
                queries += len(q)
        metrics[part] = RankingMetrics.from_ranks(np.concatenate(ranks))
    return EvalPass(metrics, queries, time.perf_counter() - start,
                    score_s, rank_s, batches)


def served_result_ok(payload, k: int) -> bool:
    """A ``/predict`` reply with ``k`` results and finite scores."""
    try:
        results = payload["results"]
        return (len(results) == k
                and all(math.isfinite(row["score"]) for row in results))
    except (KeyError, TypeError):
        return False


def read_key(body: dict, num_relations: int) -> tuple[int, int]:
    """``(anchor, query relation)`` of a ``/predict`` body (ids only)."""
    if "head" in body:
        return int(body["head"]), int(body["relation"])
    return int(body["tail"]), int(body["relation"]) + num_relations


class Reference:
    """In-process copy of a served bundle that follows the same appends.

    Appends go through ``apply_append_to_model`` with the encoder the
    pool parent builds (``default_encoder`` at the first append), then
    the engine adopts the grown model; each application is timed.
    """

    def __init__(self, bundle_dir: str, cache_size: int = 8192) -> None:
        bundle = load_bundle(bundle_dir)
        self.model = bundle.build_model()
        self.split = bundle.split
        self.engine = PredictionEngine(self.model, self.split,
                                       model_name=bundle.model_name,
                                       cache_size=cache_size)
        self.encoder = None
        self.generation = 0
        self.apply_seconds: list[float] = []

    def apply(self, body: dict) -> None:
        if self.encoder is None:
            self.encoder = default_encoder(self.model, self.split)
        tick = time.perf_counter()
        delta, _ = apply_append_to_model(
            self.model, self.split, body, encoder=self.encoder,
            generation=self.generation + 1, source="bench")
        self.apply_seconds.append(time.perf_counter() - tick)
        self.engine.adopt_append(lambda: None, len(delta.entity_ids),
                                 delta.triples)
        self.generation = delta.generation

    def prime(self, bodies) -> None:
        """Score the distinct keys of ``bodies`` in batches of
        :data:`PRIME_BATCH` rows, so that :meth:`top_k_ids` reads them
        from the engine's row cache instead of scoring one row a call."""
        keys = list(dict.fromkeys(read_key(b, self.split.num_relations)
                                  for b in bodies))
        for lo in range(0, len(keys), PRIME_BATCH):
            chunk = np.array(keys[lo:lo + PRIME_BATCH], dtype=np.int64)
            self.engine.scores(chunk[:, 0], chunk[:, 1])

    def top_k_ids(self, body: dict, rescore: bool = False) -> list[int]:
        """Ids of the engine's top-k for ``body``; ``rescore`` drops the
        key's cached row first, so it is scored alone, as the server
        scores it."""
        anchor, rel = read_key(body, self.split.num_relations)
        if rescore:
            self.engine.invalidate([(anchor, rel)])
        ids, scores = self.engine.top_k_tails(
            anchor, rel, int(body["k"]),
            filter_known=bool(body.get("filter_known", False)))
        return [int(i) for i in ids] if all_finite(scores) else []


def verify_reads(records, appends_in_order: list[dict],
                 reference: Reference, tally: Tally) -> None:
    """Check every successful read against the in-process engine.

    ``appends_in_order[g - 1]`` is the body the server applied as its
    generation ``g``.  A read dated ``[gen_lo, gen_hi]`` (see
    :class:`~loadgen.GenerationClock`) passes if its ids equal the
    reference's at any generation in that range.  The reference walks
    the generations forward once.  At each generation the reads still
    to check are scored in batches first; a read that differs from a
    batch-scored row is checked again against its row scored alone, so
    a last-digit difference between batch sizes is not a failure.
    """
    pending = [rec for rec in records if rec.kind == "read" and rec.ok]
    pending.sort(key=lambda rec: rec.gen_lo)
    matched = [False] * len(pending)
    cursor = 0
    last = len(appends_in_order)
    for gen in range(last + 1):
        if gen:
            reference.apply(appends_in_order[gen - 1])
        while cursor < len(pending) and pending[cursor].gen_lo <= gen:
            cursor += 1
        due = [pos for pos in range(cursor)
               if not matched[pos] and pending[pos].gen_hi >= gen]
        reference.prime(pending[pos].body for pos in due)
        for pos in due:
            rec = pending[pos]
            served = [row["id"] for row in rec.payload["results"]]
            matched[pos] = (served == reference.top_k_ids(rec.body)
                            or served == reference.top_k_ids(rec.body,
                                                             rescore=True))
    for ok in matched:
        tally.record(ok, "served_topk_mismatch")
