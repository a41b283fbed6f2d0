import os

import numpy as np
import pytest

from harness import checks, pipeline
from harness.loadgen import OpRecord
from repro.baselines import build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.eval import RankingEvaluator
from repro.serve import PredictionEngine, save_bundle


@pytest.fixture(scope="module")
def kg():
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.15))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                           gin_epochs=1, compgcn_epochs=1)
    return mkg, feats


def _came(kg):
    mkg, feats = kg
    model, engine = build_model("CamE", mkg, feats, np.random.default_rng(1),
                                dim=16)
    return model, engine


def _poison(model):
    for param in model.parameters():
        param.data = np.full_like(param.data, np.nan)


def test_healthy_model_passes_every_check(kg):
    model, engine = _came(kg)
    engine.train_epoch()
    tally = checks.Tally()
    result = checks.eval_pass(model, RankingEvaluator(kg[0].split), tally)
    assert tally.attempted > 0 and tally.failed == 0
    assert 0 < result.metrics["test"].mrr < 100
    assert checks.params_finite(model)


def test_nan_model_scores_mrr_100_but_every_batch_fails(kg):
    model, _ = _came(kg)
    _poison(model)
    assert not checks.params_finite(model)
    tally = checks.Tally()
    result = checks.eval_pass(model, RankingEvaluator(kg[0].split), tally)
    # rank_scores ranks a NaN target first: the flattering number ...
    assert result.metrics["test"].mrr == pytest.approx(100.0)
    # ... is caught as failed operations.
    assert tally.attempted > 0 and tally.failed == tally.attempted
    assert tally.reasons == {"nonfinite_score": tally.attempted}


def test_nan_model_makes_the_run_incorrect(kg):
    model, engine = _came(kg)
    _poison(model)
    tally = checks.Tally()
    e2e, _, _ = pipeline._train_and_evaluate(model, engine, kg[0].split,
                                             trace=False, tally=tally)
    # The flattering MRR is still what rank_scores computes ...
    assert e2e["test_mrr"] == pytest.approx(100.0)
    # ... but every epoch and every scored batch is a failed operation.
    assert tally.reasons["nonfinite_loss"] == pipeline.TRAIN_EPOCHS
    assert tally.reasons["nonfinite_parameter"] == pipeline.TRAIN_EPOCHS
    assert tally.reasons["nonfinite_score"] > 0


def test_served_result_needs_k_finite_scores():
    good = {"results": [{"id": i, "score": 1.0 - i} for i in range(3)]}
    assert checks.served_result_ok(good, 3)
    assert not checks.served_result_ok(good, 4)
    bad = {"results": [{"id": 0, "score": float("nan")}]}
    assert not checks.served_result_ok(bad, 1)
    assert not checks.served_result_ok({"error": "x"}, 1)


def _read(body, ids, gen_lo=0, gen_hi=0):
    payload = {"results": [{"id": int(i), "score": 0.0} for i in ids]}
    return OpRecord("read", 0, 0.0, 0.0, 0.0, 200, body, payload,
                    gen_lo=gen_lo, gen_hi=gen_hi)


def test_served_parity_follows_appends(kg, tmp_path):
    mkg, feats = kg
    model, _ = _came(kg)
    bundle = os.path.join(tmp_path, "bundle")
    save_bundle(bundle, model, "CamE", mkg.split, feats, dim=16)
    body = {"head": 3, "relation": 1, "k": 5, "filter_known": True}
    append = pipeline.append_bodies(mkg, 6, seed=0, count=1)[0]

    before = checks.Reference(bundle)
    ids0 = before.top_k_ids(body)
    before.apply(append)
    ids1 = before.top_k_ids(body)
    assert before.apply_seconds and before.generation == 1

    records = [_read(body, ids0), _read(body, ids1, 1, 1),
               _read(body, ids0, 0, 1), _read(body, ids0, 1, 1),
               _read(body, list(reversed(ids0)))]
    tally = checks.Tally()
    checks.verify_reads(records, [append], checks.Reference(bundle), tally)
    expected_failures = 1 + (ids0 != ids1)  # reversed ids; stale read at gen 1
    assert tally.attempted == 5
    assert tally.failed == expected_failures


def test_reference_matches_an_engine_on_the_same_bundle(kg, tmp_path):
    mkg, feats = kg
    model, _ = _came(kg)
    bundle = os.path.join(tmp_path, "bundle")
    save_bundle(bundle, model, "CamE", mkg.split, feats, dim=16)
    engine = PredictionEngine.from_bundle(bundle)
    reference = checks.Reference(bundle)
    for body in pipeline.read_bodies(mkg.num_entities, mkg.num_relations,
                                     "cold", seed=3, count=0,
                                     open_count=20)[0][:20]:
        anchor, rel = checks.read_key(body, mkg.num_relations)
        ids, _ = engine.top_k_tails(anchor, rel, body["k"], filter_known=True)
        assert reference.top_k_ids(body) == ids.tolist()


def test_inputs_are_deterministic_per_seed(kg):
    mkg, _ = kg
    a = pipeline.read_bodies(mkg.num_entities, mkg.num_relations, "zipf", 5, 100, 100)
    b = pipeline.read_bodies(mkg.num_entities, mkg.num_relations, "zipf", 5, 100, 100)
    c = pipeline.read_bodies(mkg.num_entities, mkg.num_relations, "zipf", 6, 100, 100)
    assert a == b and a != c
    assert (pipeline.append_bodies(mkg, 6, 5, 3)
            == pipeline.append_bodies(mkg, 6, 5, 3))


def _key(body):
    return tuple(sorted(body.items()))


@pytest.mark.parametrize("open_count", [10, 10_000])
def test_cold_loops_read_disjoint_keys(kg, open_count):
    mkg, _ = kg
    total = mkg.num_entities * mkg.num_relations * 2
    probe = (0, 0, 0)
    closed, opened = pipeline.read_bodies(mkg.num_entities, mkg.num_relations,
                                          "cold", 5, 0, open_count,
                                          exclude=(probe,))
    assert len(opened) == open_count
    closed_keys = {_key(b) for b in closed}
    open_keys = {_key(b) for b in opened}
    assert len(closed_keys) == len(closed)
    assert not closed_keys & open_keys
    assert len(closed_keys) + len(open_keys) <= total - 1
    assert _key({"head": 0, "relation": 0, "k": pipeline.TOP_K,
                 "filter_known": True}) not in closed_keys | open_keys
    # However long the open loop, a key recurs only after every other key
    # of its range.
    distinct = len(open_keys)
    assert distinct == min(open_count, (total - 1) // 2)
    assert all(_key(opened[i]) == _key(opened[i % distinct])
               for i in range(open_count))


def test_prometheus_total_sums_every_labelled_sample():
    text = "\n".join([
        "# HELP pool_shed_total requests shed at admission",
        "# TYPE pool_shed_total counter",
        'pool_shed_total{reason="queue_full"} 3',
        'pool_shed_total{reason="rate_limited"} 2',
        "pool_shed_totals 100",
        "pool_requeues_total 1",
    ])
    assert pipeline.prometheus_total(text, "pool_shed_total") == 5.0
    assert pipeline.prometheus_total(text, "pool_requeues_total") == 1.0
    assert pipeline.prometheus_total(text, "pool_worker_respawns_total") == 0.0
