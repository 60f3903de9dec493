import pytest

from stats import check_metric_name, percentile, samples_beyond, tail_percentile


def test_p95_needs_ten_samples_beyond():
    values = list(range(200))
    assert samples_beyond(200, 0.95) == 10
    assert tail_percentile(values, 0.95) == 189.0
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(values[:199], 0.95)


def test_p50_rule_scales_with_count():
    assert samples_beyond(20, 0.5) == 10
    assert tail_percentile(range(20), 0.5) == 9.0
    with pytest.raises(ValueError):
        tail_percentile(range(19), 0.5)


def test_nearest_rank_percentile():
    assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize(
    "name",
    ["samples_per_s", "setup_s", "transport.msgs_per_sample.lookup_step", "p-95", "9lives"],
)
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "slash/unit", "x" * 65, "ünïcode", None]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)
