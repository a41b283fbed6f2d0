import pytest

from harness.stats import percentile, quartile_spread, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (5, 50.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    p, _ = tail_percentile(range(n))
    assert p == expected


def test_at_least_ten_samples_lie_beyond_the_reported_tail():
    for n in range(20, 3000, 37):
        values = list(range(n))
        p, value = tail_percentile(values)
        assert sum(1 for v in values if v > value) >= 10
        if p < 99.9:  # the next rung up would not have had ten
            nxt = [q for q in (99.9, 99.0, 95.0, 90.0, 75.0) if q > p][-1]
            assert sum(1 for v in values if v > percentile(values, nxt)) < 10


def test_tail_value_is_nearest_rank():
    values = [float(i) for i in range(1, 1001)]
    assert tail_percentile(values) == (99.0, 990.0)
    assert percentile(values, 50.0) == 500.0


def test_failed_requests_count_as_infinitely_late():
    values = [1.0] * 985 + [float("inf")] * 15
    _, p99 = tail_percentile(values)
    assert p99 == float("inf")


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10.0] * 5) == 0.0
    spread = quartile_spread([9.0, 10.0, 10.0, 10.0, 11.0])
    assert spread == pytest.approx((10.5 - 9.5) / 10.0)
