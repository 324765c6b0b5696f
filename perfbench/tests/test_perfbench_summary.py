"""The tail-percentile rule."""

import pytest

from summary import TAIL_WINDOW, tail


def test_tail_leaves_ten_samples_above():
    samples = list(range(1, 101))  # 1..100
    value, percentile, windows = tail(samples)
    assert value == 90
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(90.0)
    assert windows == 1


def test_tail_ignores_order_within_a_window():
    samples = [5.0, 1.0, 4.0, 3.0, 2.0, 9.0, 8.0, 7.0, 6.0, 10.0, 12.0, 11.0]
    assert tail(samples) == (2.0, pytest.approx(100 * 2 / 12), 1)


def test_tail_with_eleven_samples_is_the_minimum():
    assert tail(list(range(11)))[0] == 0


@pytest.mark.parametrize("count", [1, 10])
def test_tail_with_ten_or_fewer_samples_falls_back_to_the_maximum(count):
    assert tail(list(range(count))) == (count - 1, 100.0, 1)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


def test_fewer_than_two_windows_of_samples_form_one_window():
    samples = [float(k) for k in range(2 * TAIL_WINDOW - 1)]
    assert tail(samples)[:3:2] == (samples[-11], 1)


def test_long_runs_report_the_median_of_window_tails():
    # five windows; one holds a burst of stalls that would own a pooled
    # p99.9, the median of the windows' tails does not see it
    window = [1.0] * (TAIL_WINDOW - 20) + [2.0] * 20
    stalled = [1.0] * (TAIL_WINDOW - 20) + [50.0] * 20
    samples = window * 2 + stalled + window * 2
    value, percentile, windows = tail(samples)
    assert windows == 5
    assert value == 2.0
    assert percentile == pytest.approx(100 * (TAIL_WINDOW - 10) / TAIL_WINDOW)
