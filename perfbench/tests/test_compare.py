import pytest

from harness.compare import compare_records, verdict


def test_improved_needs_nine_in_ten_wins_beyond_parent_spread():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [p + 5.0 for p in parent]
    assert verdict(parent, change, "higher", 0.1).label == "improved"
    # Lower-is-better flips the direction.
    assert verdict(parent, change, "lower", 0.1).label == "unchanged"


def test_fewer_than_ten_pairs_never_claim_a_gain():
    parent = [100.0, 100.1, 100.2]
    change = [110.0, 110.1, 110.2]
    assert verdict(parent, change, "higher", 0.1).label == "unchanged"


def test_eight_wins_in_ten_is_not_a_gain():
    parent = [100.0] * 10
    change = [105.0] * 8 + [99.0] * 2
    assert verdict(parent, change, "higher", 0.1).label == "unchanged"


def test_worse_beyond_bound():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05]
    change = [12.0, 12.1, 11.9, 12.0, 12.05]
    assert verdict(parent, change, "lower", 0.1).label == "worse"
    assert verdict(parent, change, "lower", 0.25).label == "unchanged"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    parent = [8.0, 10.0, 12.0, 9.0, 11.0]
    change = [8.5, 10.5, 11.5, 9.5, 10.0]
    assert verdict(parent, change, "lower", 0.1).label == "unresolved"
    better = [5.0, 5.5, 6.0, 5.2, 5.8]
    assert verdict(parent, better, "lower", 0.1).label == "unchanged"


def test_per_layer_without_bound():
    assert verdict([4.0] * 10, [4.0] * 10, "lower", None).label == "unchanged"
    assert verdict([4.0] * 10, [3.0] * 10, "lower", None).label == "improved"
    assert verdict([4.0] * 10, [5.0] * 10, "lower", None).label == "worse"
    assert verdict([4.0, 4.1], [4.05, 4.0], "lower", None).label == "unresolved"


def _record(workload, seed, trace, e2e, layer):
    return {"workload": workload, "end_to_end": e2e, "per_layer": layer,
            "provenance": {"seed": seed, "trace": trace}}


def test_compare_records_pairs_by_seed_and_splits_by_trace():
    spec = {"end_to_end": [{"name": "x_ms", "unit": "ms", "better": "lower",
                            "bound": 0.1}],
            "per_layer": [{"name": "layer_s", "unit": "s", "better": "lower"}]}
    parent = [_record("w", s, False, {"x_ms": 10.0}, {}) for s in range(3)]
    parent += [_record("w", s, True, {"x_ms": 99.0}, {"layer_s": 1.0})
               for s in range(3)]
    change = [_record("w", s, False, {"x_ms": 20.0}, {}) for s in (1, 2, 3)]
    change += [_record("w", s, True, {}, {"layer_s": 1.0}) for s in range(3)]
    rows = {(w, n): v for w, n, v in compare_records(parent, change, spec)}
    assert rows[("w", "x_ms")].label == "worse"
    assert rows[("w", "x_ms")].pairs == 2
    assert rows[("w", "layer_s")].label == "unchanged"


def test_more_failed_operations_block_a_gain():
    spec = {"end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher",
                            "bound": 0.1}],
            "per_layer": []}

    def runs(value, failed):
        out = []
        for s in range(10):
            rec = _record("w", s, False, {"qps": value + 0.01 * s}, {})
            rec["failed"] = failed
            out.append(rec)
        return out

    rows = {n: v for _, n, v in compare_records(runs(100.0, 0), runs(150.0, 0),
                                                spec)}
    assert rows["qps"].label == "improved"
    assert "failed_ops" not in rows
    rows = {n: v for _, n, v in compare_records(runs(100.0, 0), runs(150.0, 1),
                                                spec)}
    assert rows["qps"].label == "unresolved"
    assert rows["failed_ops"].label == "worse"
    assert (rows["failed_ops"].parent_median,
            rows["failed_ops"].change_median) == (0, 10)


def test_verdict_rejects_empty_sides():
    with pytest.raises(ValueError):
        verdict([], [1.0], "lower", 0.1)
