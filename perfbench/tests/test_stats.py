import pytest

from stats import beyond, percentile, tail_percentile, unit_tail


@pytest.mark.parametrize(
    "n, q",
    [(5000, 99), (1000, 99), (999, 90), (100, 90), (99, 75), (40, 75), (39, 50), (20, 50), (19, 50), (1, 50)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    assert tail_percentile(n) == q


@pytest.mark.parametrize("n", [20, 40, 100, 1000, 1234])
def test_chosen_tail_leaves_at_least_ten_samples_beyond(n):
    q = tail_percentile(n)
    values = list(range(1, n + 1))
    assert sum(v > percentile(values, q) for v in values) == beyond(n, q) >= 10


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 50) == 50
    assert percentile([7.0], 99) == 7.0


def test_tail_reports_percentile_used():
    assert unit_tail([[1.0] * 90 + [5.0] * 10]) == (1.0, 90)
    assert unit_tail([[1.0] * 89 + [5.0] * 11]) == (5.0, 90)


def test_tail_percentile_follows_one_unit_not_the_run():
    units = [[float(v) for v in range(1, 101)], [float(v) for v in range(101, 201)]]
    assert unit_tail(units) == (140.0, 90)  # median of the two units' p90s, 90 and 190
    assert unit_tail([u[:30] for u in units]) == (65.0, 50)


def test_tail_is_the_median_over_units():
    fast, slow = [1.0] * 100, [3.0] * 100
    assert unit_tail([fast, fast, slow]) == (1.0, 90)
