"""The percentile rule: at least ten samples beyond a reported percentile."""

import pytest

from stats import min_samples, spread, tail_percentile


def test_min_samples():
    assert min_samples(50) == 20
    assert min_samples(80) == 50
    assert min_samples(90) == 100
    assert min_samples(99) == 1000


def test_tail_percentile_refuses_thin_tails():
    values = list(range(99))
    with pytest.raises(ValueError, match="p90 needs at least 100"):
        tail_percentile(values, 90)
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert tail_percentile(list(range(50)), 80) == pytest.approx(39.2)


def test_spread_is_iqr_over_median():
    # quartiles of 1..9 (exclusive method) are 2.5 and 7.5; the median is 5
    assert spread(range(1, 10)) == pytest.approx(1.0)
    assert spread([3.0] * 5) == 0.0
