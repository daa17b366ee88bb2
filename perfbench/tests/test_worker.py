import pytest

from perfbench import worker


def test_summarize_takes_per_op_medians():
    # Op 0 ran three times; its slow middle run does not move its median.
    walls = [[0.010, 0.050, 0.012], [1.0]]
    cpus = [[0.009, 0.040, 0.011], [0.9]]
    metrics = worker.summarize(walls, cpus, [1, 1])
    assert metrics["ops_per_s"] == pytest.approx(2 / 1.012)
    assert metrics["cpu_ms_per_op"] == pytest.approx(1e3 * (0.011 + 0.9) / 2)


def test_summarize_quantiles_stay_inside_one_class():
    # Six cheap ops, two mid, two heavy: p50 among the cheap, p90 among the heavy.
    walls = [[0.001 * (1 + i)] for i in range(6)] + [[0.2], [0.3], [0.9], [1.1]]
    metrics = worker.summarize(walls, walls, [1] * 10)
    assert 3.0 < metrics["latency_p50_ms"] < 6.0
    assert 900.0 <= metrics["latency_p90_ms"] <= 1100.0
    # Rank 1 + 0.9 * 9 = 9.1: between the two heavy ops, near the lighter.
    assert metrics["latency_p90_ms"] == pytest.approx(920.0)


def test_summarize_spreads_an_invocation_over_its_rows():
    # A 3-row invocation of 0.3 s gives three 0.1-s rows.
    metrics = worker.summarize([[0.3], [0.01]], [[0.3], [0.01]], [3, 1])
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    assert metrics["ops_per_s"] == pytest.approx(4 / 0.31)
