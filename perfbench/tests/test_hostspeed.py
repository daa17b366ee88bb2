import pytest

from perfbench import hostspeed


@pytest.fixture
def counted(monkeypatch):
    runs = []
    monkeypatch.setitem(hostspeed.PROBES, "counted", lambda: runs.append(1))
    return runs


def test_probe_runs_in_proportion_to_op_time(counted):
    probe = hostspeed.Probe("counted")
    probe.between_ops(0.0)
    assert len(counted) == 1
    probe.between_ops(0.1)
    assert len(counted) == 1
    probe.between_ops(0.65)
    assert len(counted) == 4
    probe.between_ops(1000.0)
    assert len(counted) == 4 + hostspeed.MAX_RUNS
    assert len(probe.samples) == len(counted)


def test_scale_uses_the_probe_runs_near_the_op(counted):
    probe = hostspeed.Probe("counted")
    w = hostspeed.WINDOW_S
    probe.stamps = [0.0, 1.0, 2.0, 3 * w, 3 * w + 1.0]
    probe.samples = [0.010, 0.010, 0.010, 0.040, 0.040]
    assert probe.scale(1.0, 1.5) == pytest.approx(hostspeed.NOMINAL_S / 0.010)
    assert probe.scale(3 * w, 3 * w + 0.5) == pytest.approx(hostspeed.NOMINAL_S / 0.040)
    # No probe run near the op: the median of the whole run.
    assert probe.scale(10 * w, 10 * w) == pytest.approx(hostspeed.NOMINAL_S / 0.010)


def test_real_probes_run():
    for kind in hostspeed.PROBES:
        probe = hostspeed.Probe(kind)
        probe.between_ops(0.0)
        assert probe.scale(0.0, 0.1) > 0
